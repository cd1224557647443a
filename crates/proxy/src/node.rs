//! One DPC node, built one way for the lone Figure 4 proxy and for every
//! §7 ring member; the lone proxy is node 0 of a ring with no placement.
//!
//! [`build`] assembles what every node has: a page cache over the node's
//! slot store and coherence epoch, the ESI assembler, the [`Proxy`] with
//! its node id, tracer, metrics and dep purger, and the node's collectors
//! in the metrics registry. A [`NodeSpec`] names what the two callers set
//! differently, plus where the node lives. A set of nodes learns of an
//! origin update one way: the origin BEM bumps their shared
//! [`CoherencyEpoch`] ([`Bem::set_invalidation_sink`]), and no slot store
//! is touched — the generation in every tag keeps a reused key from
//! splicing its previous fragment.
//!
//! [`Bem::set_invalidation_sink`]: dpc_core::Bem::set_invalidation_sink

use std::sync::Arc;
use std::time::Duration;

use dpc_core::{CoherencyEpoch, FragmentStore};
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

/// TTL of every page a node caches: its page cache's pages and its ESI
/// fragments.
pub const PAGE_TTL: Duration = Duration::from_secs(60);

/// What one node is made of.
pub struct NodeSpec<'a> {
    /// Proxy mode; ring members run `Dpc`.
    pub mode: ProxyMode,
    /// Node id (0–63): announced to the BEM, recorded on spans, and
    /// prefixing the node's collectors (`node{id}/…`, labelled
    /// `node="{id}"`). The lone proxy is node 0.
    pub id: u32,
    /// The DPC slot store; the page cache is sized to its capacity.
    pub store: Arc<FragmentStore>,
    /// Epoch stamping the page cache's tiered pages; the origin BEM bumps
    /// it on every update.
    pub coherence: CoherencyEpoch,
    /// Serve and install assembled pages through the page cache.
    pub page_tier: bool,
    /// Scan every origin response at the boundary.
    pub firewall: Option<Arc<Firewall>>,
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
    let id = spec.id;
    let page_cache = Arc::new(PageCache::new(
        spec.clock.clone(),
        PAGE_TTL,
        spec.store.capacity(),
        spec.coherence,
    ));
    let mut proxy = Proxy::new(
        spec.mode,
        ORIGIN_ADDR,
        Arc::new(Client::new(Arc::new(spec.net.connector()))),
        spec.store,
        Arc::clone(&page_cache),
        Arc::new(EsiAssembler::new(spec.clock, PAGE_TTL)),
        spec.firewall,
    )
    .with_node(id)
    .with_tracer(spec.tracer.with_node(id))
    .with_metrics(Arc::clone(spec.metrics));
    if spec.page_tier {
        proxy = proxy.with_page_tier();
    }
    if let Some(purger) = spec.dep_purger {
        proxy = proxy.with_dep_purger(purger);
    }
    let proxy = Arc::new(proxy);
    // Keyed registration replaces whatever a departed incarnation of a
    // recycled ring id left behind, so a scrape never mixes two
    // incarnations of `node="N"`.
    register_page_cache(spec.metrics, format!("node{id}/page_cache"), page_cache, id);
    register_proxy(
        spec.metrics,
        format!("node{id}/proxy"),
        Arc::clone(&proxy),
        id,
    );
    proxy
}
