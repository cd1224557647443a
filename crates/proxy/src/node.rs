//! One DPC node, built one way for the lone Figure 4 proxy and for every
//! §7 ring member.
//!
//! [`build`] assembles what every node has: a page cache over the node's
//! slot store, the ESI assembler, the [`Proxy`] with its node id, tracer
//! and metrics, and the node's collectors in the metrics registry. A
//! [`NodeSpec`] names what the two callers set differently, plus where
//! the node lives.

use std::sync::Arc;
use std::time::Duration;

use dpc_core::{CoherencyEpoch, FragmentSource, FragmentStore};
use dpc_firewall::Firewall;
use dpc_http::Client;
use dpc_metrics::Registry as MetricsRegistry;
use dpc_net::{Clock, SimNetwork};
use dpc_trace::Tracer;

use crate::esi::EsiAssembler;
use crate::front::{DepPurger, Proxy};
use crate::metrics::{register_page_cache, register_proxy};
use crate::modes::ProxyMode;
use crate::page_cache::PageCache;
use crate::testbed::ORIGIN_ADDR;

/// TTL of every page a node caches: its page cache (L2), its loops' L1
/// copies, and its ESI fragments.
pub const PAGE_TTL: Duration = Duration::from_secs(60);

/// What one node is made of.
pub struct NodeSpec<'a> {
    /// Proxy mode; ring members run `Dpc`.
    pub mode: ProxyMode,
    /// Ring member id: announced to the BEM, recorded on spans, and
    /// prefixing the node's collectors (`node{id}/…`). `None` for the lone
    /// proxy, which announces node 0 and registers under bare keys.
    pub id: Option<u32>,
    /// The DPC slot store; the page cache is sized to its capacity.
    pub store: Arc<FragmentStore>,
    /// Epoch stamping the page cache's entries (required by `page_tier`).
    pub coherence: Option<CoherencyEpoch>,
    /// Serve and install assembled pages through the page cache.
    pub page_tier: bool,
    /// Scan every origin response at the boundary.
    pub firewall: Option<Arc<Firewall>>,
    /// Where an empty slot is fetched before a bypass (the ring's previous
    /// owner).
    pub fragment_source: Option<Arc<dyn FragmentSource>>,
    /// Handler for `PURGE` + `X-DPC-Dep`.
    pub dep_purger: Option<DepPurger>,
    /// The network the node reaches the origin over.
    pub net: &'a Arc<SimNetwork>,
    /// Clock of the page and ESI TTLs.
    pub clock: Clock,
    /// The fleet's tracer; the node records under its own id.
    pub tracer: &'a Tracer,
    /// The registry the node's collectors join and its `/_dpc/metrics`
    /// renders.
    pub metrics: &'a Arc<MetricsRegistry>,
}

/// Build the node's proxy and register its collectors.
pub fn build(spec: NodeSpec<'_>) -> Arc<Proxy> {
    let node = spec.id.unwrap_or(0);
    let tracer = spec.tracer.with_node(node);
    let mut page_cache = PageCache::new(spec.clock.clone(), PAGE_TTL, spec.store.capacity());
    if let Some(epoch) = spec.coherence {
        page_cache = page_cache.with_coherence(epoch);
    }
    page_cache.set_tracer(tracer.clone());
    let page_cache = Arc::new(page_cache);
    let mut proxy = Proxy::new(
        spec.mode,
        ORIGIN_ADDR,
        Arc::new(Client::new(Arc::new(spec.net.connector()))),
        spec.store,
        Arc::clone(&page_cache),
        Arc::new(EsiAssembler::new(spec.clock, PAGE_TTL)),
        spec.firewall,
    )
    .with_node(node)
    .with_tracer(tracer)
    .with_metrics(Arc::clone(spec.metrics));
    if spec.page_tier {
        proxy = proxy.with_page_tier();
    }
    if let Some(source) = spec.fragment_source {
        proxy = proxy.with_fragment_source(source);
    }
    if let Some(purger) = spec.dep_purger {
        proxy = proxy.with_dep_purger(purger);
    }
    let proxy = Arc::new(proxy);
    // Keyed registration replaces whatever a departed incarnation of a
    // recycled ring id left behind, so a scrape never mixes two
    // incarnations of `node="N"`.
    let prefix = spec.id.map(|id| format!("node{id}/")).unwrap_or_default();
    register_page_cache(
        spec.metrics,
        format!("{prefix}page_cache"),
        page_cache,
        spec.id,
    );
    register_proxy(
        spec.metrics,
        format!("{prefix}proxy"),
        Arc::clone(&proxy),
        spec.id,
    );
    proxy
}
