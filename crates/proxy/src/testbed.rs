//! The Figure 4 testbed.
//!
//! Reconstructs the paper's experimental configuration in-process:
//!
//! ```text
//! clients ──(client wire)──> [External box: firewall + proxy/DPC]
//!                                      │
//!                             (origin wire — the Sniffer
//!                              measurement point)
//!                                      │
//!                            [Origin box: web server + BEM + repository]
//! ```
//!
//! Both wires are metered [`SimNetwork`] links with TCP/IP framing; the
//! clock is virtual so TTLs and controlled sweeps are deterministic.
//!
//! Both boxes are [`Server`] fronts with [`TestbedConfig::loops`] event
//! loops each, and both run their handlers inline on those loops: the
//! origin's script engine never blocks on I/O, and the proxy blocks only
//! on the origin, which never calls back. An assembled request therefore
//! crosses three threads: the client, the proxy loop and the origin loop.

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_appserver::apps::{self};
use dpc_appserver::ScriptEngine;
use dpc_core::{Bem, BemConfig, CoherencyEpoch, FragmentStore, ReplacePolicy};
use dpc_firewall::Firewall;
use dpc_http::{Client, Request, Response, Server, ServerHandle};
use dpc_metrics::Registry as MetricsRegistry;
use dpc_net::{Clock, MeterRegistry, MeterSnapshot, ProtocolModel, SimNetwork, VirtualClock};
use dpc_repository::datasets::{filler, seed_all, DatasetConfig};
use dpc_repository::Repository;
use dpc_trace::{TraceConfig, Tracer};
use std::sync::Arc;

use crate::esi::{EsiAssembler, EsiTemplate};
use crate::front::{DepPurger, Proxy};
use crate::modes::ProxyMode;
use crate::node::{self, NodeSpec};

/// Address of the origin web server on the simulated network.
pub const ORIGIN_ADDR: &str = "origin";
/// Address of the proxy on the simulated network.
pub const PROXY_ADDR: &str = "proxy";

/// RNG seed for the BEM's controlled-hit-ratio hook.
const BEM_SEED: u64 = 0xBED;

/// Everything needed to build one Figure 4 configuration.
#[derive(Clone)]
pub struct TestbedConfig {
    /// Proxy mode under test. The origin is instrumented (BEM on) exactly
    /// when this is `Dpc`.
    pub mode: ProxyMode,
    /// Synthetic paper-site parameters.
    pub paper_params: PaperSiteParams,
    /// Demo dataset sizing (BooksOnline + brokerage + users).
    pub dataset: DatasetConfig,
    /// Also mount the BooksOnline/brokerage sites.
    pub demo_sites: bool,
    /// Directory / slot-store capacity.
    pub capacity: usize,
    /// Pin the hit ratio (Figure 5 sweeps); see
    /// [`BemConfig::force_miss_probability`].
    pub forced_hit_ratio: Option<f64>,
    /// Replacement policy.
    pub replace: ReplacePolicy,
    /// Wire framing model.
    pub protocol: ProtocolModel,
    /// Event loops per server front (1 = the classic single loop; more
    /// shard connections across threads, SO_REUSEPORT-style). The origin
    /// front runs its handler inline, so this is also the origin's
    /// parallelism: at most `loops` origin requests execute at once.
    pub loops: usize,
    /// The DPC page tier's on-switch: any value above `0` makes the proxy
    /// install assembled pages in its page cache and serve repeat GETs
    /// from there. `0` (the default) leaves the tier off: every request
    /// reassembles — the classic paper pipeline. The value is not a size
    /// (the page cache counts pages); the field keeps its name because
    /// the benchmark sets it. A testbed that serves as a ring's origin
    /// keeps it at `0`: [`RingCluster::connect_origin`] takes over the
    /// BEM's invalidation sink, through which this tier learns of updates.
    ///
    /// [`RingCluster::connect_origin`]: crate::ring_cluster::RingCluster::connect_origin
    pub l1_budget_bytes: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: PaperSiteParams::default(),
            dataset: DatasetConfig::default(),
            demo_sites: false,
            capacity: 4096,
            forced_hit_ratio: None,
            replace: ReplacePolicy::Lru,
            protocol: ProtocolModel::default(),
            loops: 1,
            l1_budget_bytes: 0,
        }
    }
}

/// A running Figure 4 configuration.
///
/// Every subsystem reports into one metrics registry, served at
/// `GET /_dpc/metrics` on the proxy front, and one flight recorder shared
/// by the origin front, the proxy front, the page tier and the BEM, served
/// at `GET /_dpc/trace/recent`.
pub struct Testbed {
    net: Arc<SimNetwork>,
    clock_handle: Arc<VirtualClock>,
    engine: Arc<ScriptEngine>,
    proxy: Arc<Proxy>,
    firewall: Arc<Firewall>,
    client: Client,
    origin_server: ServerHandle,
    proxy_server: ServerHandle,
}

impl Testbed {
    /// Build and start origin + proxy servers on a fresh simulated network.
    pub fn build(config: TestbedConfig) -> Testbed {
        let registry = MeterRegistry::new();
        let net = SimNetwork::new(Arc::clone(&registry), config.protocol);
        let (clock, clock_handle) = Clock::virtual_clock();
        // One flight recorder for the whole testbed: the origin front
        // records under node 1, everything in the external box under node
        // 0, so a request's spans stitch into a single trace.
        let tracer = Tracer::from_config(TraceConfig::default(), clock.clone());
        let metrics = Arc::new(MetricsRegistry::new());

        // --- Origin box: repository + BEM + script engine + web server.
        let repo = Repository::with_defaults();
        seed_all(&repo, &config.dataset);
        let mut bem_config = BemConfig::default()
            .with_capacity(config.capacity)
            .with_replace(config.replace)
            .with_clock(clock.clone())
            .with_enabled(config.mode == ProxyMode::Dpc)
            .with_seed(BEM_SEED);
        if let Some(h) = config.forced_hit_ratio {
            bem_config = bem_config.with_forced_hit_ratio(h);
        }
        let bem = Arc::new(Bem::new(bem_config));
        bem.set_tracer(tracer.with_node(1));
        let mut engine = ScriptEngine::new(Arc::clone(&bem), Arc::clone(&repo));
        paper_site::install(&mut engine, config.paper_params);
        if config.demo_sites {
            apps::install_demo_sites(&mut engine);
        }
        engine.connect_invalidation();
        let engine = Arc::new(engine);
        // The origin front runs the engine inline on its event loops:
        // repository costs are simulated charges, never sleeps, so a
        // handler only computes. Parallelism is `config.loops`. Its
        // handlers cannot deadlock:
        // - an inline handler never waits on its own loop: it does no I/O,
        //   and the loop runs nothing else until it returns;
        // - the origin's only park is `FlightGroup::wait` in the BEM, and
        //   its leader is a handler already running to completion on
        //   another loop's thread, which waits on nothing;
        // - with `loops: 1` no two origin handlers overlap, so no flight
        //   is ever pending when a handler probes one and nothing parks.
        // `tests/inline_origin.rs` runs a cold-page crowd at one and two
        // loops against this.
        let origin_server = Server::new(Box::new(net.listen(ORIGIN_ADDR)), {
            let engine = Arc::clone(&engine);
            engine as Arc<dyn dpc_http::Handler>
        })
        .with_loops(config.loops)
        .with_tracer(tracer.with_node(1))
        .spawn();

        // --- External box: firewall + proxy (+ DPC store / page cache /
        // ESI assembler).
        let firewall = Arc::new(Firewall::with_default_rules());
        let store = Arc::new(FragmentStore::new(config.capacity));
        let tier_on = config.l1_budget_bytes > 0 && config.mode == ProxyMode::Dpc;
        // One striped epoch covers the whole node. The BEM's invalidation
        // sink bumps the updated label's stripe on every data update, after
        // the directory freed the label's keys, so exactly the stamped pages
        // that read the row, of every session, self-evict on their next
        // touch, and a page whose read set is unknown dies with any update.
        // The invalidation path stays O(1) and never enumerates pages or
        // sessions. A ring connected to this BEM
        // (`RingCluster::connect_origin`) replaces the sink, so a ring's
        // origin testbed keeps its own tier off.
        let epoch = tier_on.then(CoherencyEpoch::new);
        if let Some(epoch) = &epoch {
            let epoch = epoch.clone();
            bem.set_invalidation_sink(Arc::new(move |dep, _keys| {
                epoch.bump_label(dep);
            }));
        }
        // Admin purge-by-dependency (`PURGE` + `X-DPC-Dep`) is an update of
        // the dep: it frees every directory key registered under it and
        // bumps its stripe through the same sink, so tiered session pages
        // built from those fragments stop serving too.
        let dep_purger: DepPurger = {
            let bem = Arc::clone(&bem);
            Arc::new(move |dep: &str| bem.on_data_update(dep))
        };
        let proxy = node::build(NodeSpec {
            mode: config.mode,
            id: None,
            store,
            coherence: epoch,
            page_tier: tier_on,
            firewall: Some(Arc::clone(&firewall)),
            dep_purger: Some(dep_purger),
            net: &net,
            clock: clock.clone(),
            tracer: &tracer,
            metrics: &metrics,
        });
        if config.mode == ProxyMode::Esi {
            register_paper_templates(proxy.esi(), &config.paper_params);
        }
        // The proxy front runs `Proxy::serve` inline on its event loops
        // too, so a handler blocked on the origin stalls the other
        // connections of its loop for one origin round trip. The link
        // never sleeps (`dpc_net::latency`), so that wait is the origin's
        // CPU time, spent either way. It cannot deadlock:
        // - the handler waits only on the origin front, whose inline
        //   handlers never call back into the proxy;
        // - its only park is `PageCache::get_or_fill`'s flight in
        //   `PageCache` mode, whose leader is a handler on another loop (or
        //   a direct caller) and waits only on the origin;
        // - with `loops: 1` no two proxy handlers overlap, so no flight is
        //   pending when a handler joins one and nothing parks.
        // `tests/inline_origin.rs` runs cold-page crowds at one and two
        // loops against this, in DPC and in `PageCache` mode.
        let proxy_server = Server::new(Box::new(net.listen(PROXY_ADDR)), {
            let proxy = Arc::clone(&proxy);
            proxy as Arc<dyn dpc_http::Handler>
        })
        .with_loops(config.loops)
        .with_tracer(tracer.clone())
        .with_request_metrics(clock)
        .spawn();

        crate::metrics::register_bem(&metrics, "bem", Arc::clone(&bem), None);
        crate::metrics::register_server(&metrics, "server-proxy", "proxy", proxy_server.stats());
        crate::metrics::register_server(&metrics, "server-origin", "origin", origin_server.stats());
        crate::metrics::register_meters(&metrics, "meters", Arc::clone(&registry));
        crate::metrics::register_trace(&metrics, "trace", tracer);

        let client = Client::new(Arc::new(net.connector()));
        Testbed {
            net,
            clock_handle,
            engine,
            proxy,
            firewall,
            client,
            origin_server,
            proxy_server,
        }
    }

    /// Issue one GET through the proxy, optionally as a registered user.
    pub fn get(&self, target: &str, user: Option<&str>) -> Response {
        let mut req = Request::get(target);
        if let Some(u) = user {
            req.headers.set("Cookie", format!("session={u}"));
        }
        self.client
            .request(PROXY_ADDR, req)
            .expect("proxy request failed")
    }

    /// The simulated network (for extra clients).
    pub fn net(&self) -> &Arc<SimNetwork> {
        &self.net
    }

    /// Virtual-clock handle (advance time to expire TTLs).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock_handle
    }

    /// The origin script engine.
    pub fn engine(&self) -> &Arc<ScriptEngine> {
        &self.engine
    }

    /// The proxy under test.
    pub fn proxy(&self) -> &Arc<Proxy> {
        &self.proxy
    }

    /// The boundary firewall.
    pub fn firewall(&self) -> &Arc<Firewall> {
        &self.firewall
    }

    /// Sniffer reading at the origin↔external boundary (both directions) —
    /// the quantity every bandwidth figure in the paper reports.
    pub fn origin_wire(&self) -> MeterSnapshot {
        self.net.registry().snapshot_prefix(ORIGIN_ADDR)
    }

    /// Sniffer reading at the client↔proxy boundary (both directions).
    pub fn client_wire(&self) -> MeterSnapshot {
        self.net.registry().snapshot_prefix(PROXY_ADDR)
    }

    /// Reset all wire meters (after cache warm-up, mirroring the paper's
    /// steady-state measurements).
    pub fn reset_meters(&self) {
        self.net.registry().reset_all();
    }

    /// Requests served by the origin so far.
    pub fn origin_requests(&self) -> u64 {
        self.origin_server.requests()
    }

    /// Requests served by the proxy so far.
    pub fn proxy_requests(&self) -> u64 {
        self.proxy_server.requests()
    }
}

/// Register one ESI template per paper-site page, mirroring the page
/// script's chrome with includes for each fragment slot.
fn register_paper_templates(esi: &Arc<EsiAssembler>, params: &PaperSiteParams) {
    let chrome = filler(params.seed ^ 0xC0DE, params.chrome_bytes);
    let (head, tail) = chrome.split_at(params.chrome_bytes / 2);
    for p in 0..params.pages {
        let mut template = EsiTemplate::new()
            .literal(format!("<html><!--page {p}-->").as_bytes())
            .literal(head.as_bytes());
        for s in 0..params.fragments_per_page {
            template = template.include(&format!("/paper/fragment.jsp?p={p}&s={s}"));
        }
        template = template.literal(tail.as_bytes()).literal(b"</html>");
        esi.register_template(&format!("/paper/page.jsp?p={p}"), template);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::proto::{DEP_HEADER, PURGED_KEYS_HEADER};

    fn small_params() -> PaperSiteParams {
        PaperSiteParams {
            pages: 3,
            fragments_per_page: 4,
            fragment_bytes: 512,
            cacheability: 0.5,
            ..PaperSiteParams::default()
        }
    }

    #[test]
    fn dpc_testbed_serves_identical_pages_to_pass_through() {
        let dpc = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        let plain = Testbed::build(TestbedConfig {
            mode: ProxyMode::PassThrough,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        for p in 0..3 {
            for _round in 0..2 {
                let a = dpc.get(&format!("/paper/page.jsp?p={p}"), None);
                let b = plain.get(&format!("/paper/page.jsp?p={p}"), None);
                assert_eq!(a.status.0, 200);
                assert_eq!(a.body, b.body, "page {p}");
            }
        }
        assert!(
            dpc.proxy()
                .stats()
                .assembled
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 6
        );
    }

    #[test]
    fn every_replacement_policy_serves_identical_pages_end_to_end() {
        // Policy selection is pure configuration: any `dpc-policy` arm
        // runs the whole testbed (BEM directory under capacity pressure
        // included) and pages stay byte-identical to pass-through.
        let plain = Testbed::build(TestbedConfig {
            mode: ProxyMode::PassThrough,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        for policy in ReplacePolicy::ALL {
            let tb = Testbed::build(TestbedConfig {
                mode: ProxyMode::Dpc,
                paper_params: small_params(),
                capacity: 8, // below the working set: replacement is live
                replace: policy,
                ..TestbedConfig::default()
            });
            for _round in 0..2 {
                for p in 0..3 {
                    let a = tb.get(&format!("/paper/page.jsp?p={p}"), None);
                    let b = plain.get(&format!("/paper/page.jsp?p={p}"), None);
                    assert_eq!(a.status.0, 200, "{policy:?} page {p}");
                    assert_eq!(a.body, b.body, "{policy:?} page {p}");
                }
            }
            tb.engine().bem().directory().check_invariants().unwrap();
        }
    }

    #[test]
    fn multi_loop_front_serves_identical_pages() {
        // `loops` reaches both serving fronts (origin + proxy); pages are
        // byte-identical to the single-loop configuration.
        let single = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        let multi = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            loops: 2,
            ..TestbedConfig::default()
        });
        for p in 0..3 {
            let a = single.get(&format!("/paper/page.jsp?p={p}"), None);
            let b = multi.get(&format!("/paper/page.jsp?p={p}"), None);
            assert_eq!(a.status.0, 200);
            assert_eq!(a.body, b.body, "page {p}");
        }
    }

    #[test]
    fn dpc_saves_origin_wire_bytes() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        // Warm-up round.
        for p in 0..3 {
            let _ = tb.get(&format!("/paper/page.jsp?p={p}"), None);
        }
        tb.reset_meters();
        for _ in 0..10 {
            for p in 0..3 {
                let _ = tb.get(&format!("/paper/page.jsp?p={p}"), None);
            }
        }
        let origin = tb.origin_wire();
        let client = tb.client_wire();
        assert!(
            origin.payload_bytes < client.payload_bytes,
            "templates ({}) must be smaller than pages ({})",
            origin.payload_bytes,
            client.payload_bytes
        );
    }

    #[test]
    fn page_cache_serves_wrong_pages_dpc_does_not() {
        let mk = |mode| {
            Testbed::build(TestbedConfig {
                mode,
                paper_params: small_params(),
                dataset: DatasetConfig {
                    users: 10,
                    categories: 4,
                    products_per_category: 3,
                    fragment_bytes: 256,
                    ..DatasetConfig::default()
                },
                demo_sites: true,
                ..TestbedConfig::default()
            })
        };
        // Page cache: Bob warms the cache; Alice (anonymous) receives
        // Bob's personalized page — the §3.2.1 incorrectness.
        let pc = mk(ProxyMode::PageCache);
        let bob = pc.get("/catalog.jsp?categoryID=cat1", Some("user1"));
        let alice = pc.get("/catalog.jsp?categoryID=cat1", None);
        assert_eq!(
            bob.body, alice.body,
            "URL-keyed cache must (incorrectly) replay Bob's page"
        );
        assert!(String::from_utf8_lossy(&alice.body.flatten()).contains("Hello,"));
        // DPC: the same sequence yields correct, distinct pages.
        let dpc = mk(ProxyMode::Dpc);
        let bob = dpc.get("/catalog.jsp?categoryID=cat1", Some("user1"));
        let alice = dpc.get("/catalog.jsp?categoryID=cat1", None);
        assert_ne!(bob.body, alice.body);
        assert!(!String::from_utf8_lossy(&alice.body.flatten()).contains("Hello,"));
    }

    #[test]
    fn esi_assembles_paper_pages() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Esi,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        let r1 = tb.get("/paper/page.jsp?p=1", None);
        assert_eq!(r1.status.0, 200);
        assert_eq!(r1.headers.get("x-cache"), Some("esi-assembled"));
        let r2 = tb.get("/paper/page.jsp?p=1", None);
        assert_eq!(r1.body, r2.body);
        // Second request: all includes were edge-cached.
        let (hits, misses) = tb.proxy().esi().counters();
        assert_eq!(misses, 4);
        assert_eq!(hits, 4);
    }

    #[test]
    fn esi_and_dpc_pages_byte_identical() {
        let esi = Testbed::build(TestbedConfig {
            mode: ProxyMode::Esi,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        let dpc = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        let a = esi.get("/paper/page.jsp?p=2", None);
        let b = dpc.get("/paper/page.jsp?p=2", None);
        assert_eq!(a.body, b.body, "both stacks must produce the same page");
    }

    #[test]
    fn dpc_store_restart_falls_back_to_bypass() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            ..TestbedConfig::default()
        });
        let before = tb.get("/paper/page.jsp?p=0", None);
        // Simulate a proxy restart losing the slot store while the BEM's
        // directory still believes fragments are cached.
        tb.proxy().store().clear();
        let after = tb.get("/paper/page.jsp?p=0", None);
        assert_eq!(before.body, after.body, "bypass must return correct bytes");
        assert_eq!(after.headers.get("x-cache"), Some("dpc-bypass"));
        assert!(
            tb.proxy()
                .stats()
                .bypass_refetches
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
    }

    /// A tier-on testbed over [`small_params`] with `urls` each served
    /// until the proxy answers it from its page tier.
    fn tiered_with_resident(urls: &[&str]) -> Testbed {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: small_params(),
            l1_budget_bytes: 1 << 20,
            ..TestbedConfig::default()
        });
        for url in urls {
            let _ = tb.get(url, None);
            assert_eq!(tb.get(url, None).headers.get("x-cache"), Some("dpc-l2"));
        }
        tb
    }

    #[test]
    fn page_tier_hits_serve_the_assembled_bytes() {
        let tb = tiered_with_resident(&[]);
        let url = "/paper/page.jsp?p=0";
        let assembled = tb.get(url, None);
        assert_eq!(assembled.headers.get("x-cache"), Some("dpc-assembled"));
        assert_eq!(tb.proxy().page_cache().stats().misses, 1);
        for _ in 0..4 {
            let r = tb.get(url, None);
            assert_eq!(r.headers.get("x-cache"), Some("dpc-l2"));
            assert_eq!(r.body, assembled.body, "tier must serve identical bytes");
        }
        let stats = tb.proxy().page_cache().stats();
        assert_eq!((stats.hits, stats.misses), (4, 1), "{stats:?}");
    }

    #[test]
    fn tier_hit_path_takes_zero_directory_locks_and_zero_origin_trips() {
        let url = "/paper/page.jsp?p=1";
        let tb = tiered_with_resident(&[url]);
        let directory = tb.engine().bem().directory();
        let locks_before = directory.lock_acquisitions();
        let origin_before = tb.origin_requests();
        for _ in 0..32 {
            let r = tb.get(url, None);
            assert_eq!(r.headers.get("x-cache"), Some("dpc-l2"));
        }
        assert_eq!(
            directory.lock_acquisitions(),
            locks_before,
            "a tier hit must acquire zero directory locks"
        );
        assert_eq!(
            tb.origin_requests(),
            origin_before,
            "a tier hit must not touch the origin"
        );
    }

    /// Stale evictions so far.
    fn stale_evictions(tb: &Testbed) -> u64 {
        tb.proxy().page_cache().stats().stale_evictions
    }

    #[test]
    fn data_update_bumps_the_epoch_and_unserves_tiered_pages() {
        let url = "/paper/page.jsp?p=2";
        let tb = tiered_with_resident(&[url]);
        let before = tb.get(url, None).body;
        // An update to a row the page read (slot 0 is cacheable: its
        // fragment was a GET on the warm renders) unserves the tiered page.
        paper_site::invalidate_fragment(tb.engine().repo(), 2, 0);
        let r = tb.get(url, None);
        assert_eq!(
            r.headers.get("x-cache"),
            Some("dpc-assembled"),
            "stale page must self-evict on the first post-update touch"
        );
        assert_ne!(r.body, before, "the update changed the page's bytes");
        assert_eq!(stale_evictions(&tb), 1);
        // The same holds for a row only an uncacheable slot reads: no
        // directory key is freed, the read set alone unserves the page.
        let before = tb.get(url, None).body;
        paper_site::invalidate_fragment(tb.engine().repo(), 2, 3);
        let r = tb.get(url, None);
        assert_eq!(r.headers.get("x-cache"), Some("dpc-assembled"));
        assert_ne!(r.body, before);
    }

    #[test]
    fn data_update_leaves_pages_that_did_not_read_it_serving() {
        let (one, two) = ("/paper/page.jsp?p=1", "/paper/page.jsp?p=2");
        let tb = tiered_with_resident(&[one, two]);
        let before = tb.get(two, None).body;
        paper_site::invalidate_fragment(tb.engine().repo(), 1, 0);
        let r = tb.get(two, None);
        assert_eq!(r.headers.get("x-cache"), Some("dpc-l2"));
        assert_eq!(r.body, before);
        assert_eq!(stale_evictions(&tb), 0);
        // Page 1 read it: its tiered page goes on this touch.
        assert_eq!(
            tb.get(one, None).headers.get("x-cache"),
            Some("dpc-assembled")
        );
        assert_eq!(stale_evictions(&tb), 1);
        assert_eq!(tb.proxy().page_cache().stats().coarse_installs, 0);
    }

    #[test]
    fn dep_purge_unserves_only_the_pages_that_read_the_dep() {
        let (one, two) = ("/paper/page.jsp?p=1", "/paper/page.jsp?p=2");
        let tb = tiered_with_resident(&[one, two]);
        let mut purge = Request::get(one).with_header(DEP_HEADER, "paper/p1-f0");
        purge.method = dpc_http::Method::Purge;
        let resp = tb.proxy().serve(purge);
        assert_eq!(resp.headers.get(PURGED_KEYS_HEADER), Some("1"));
        assert_eq!(tb.get(two, None).headers.get("x-cache"), Some("dpc-l2"));
        assert_eq!(stale_evictions(&tb), 0);
        // Page 1 read it: its tiered page goes on this touch.
        assert_eq!(
            tb.get(one, None).headers.get("x-cache"),
            Some("dpc-assembled")
        );
        assert_eq!(stale_evictions(&tb), 1);
    }

    #[test]
    fn tiered_pages_expire_on_the_node_clock() {
        let url = "/paper/page.jsp?p=0";
        let tb = tiered_with_resident(&[url]);
        // Past PAGE_TTL on the testbed's virtual clock the tiered page is
        // expired: the page is assembled afresh.
        tb.clock()
            .advance(crate::node::PAGE_TTL + std::time::Duration::from_secs(1));
        let r = tb.get(url, None);
        assert_eq!(r.headers.get("x-cache"), Some("dpc-assembled"));
    }

    #[test]
    fn forced_hit_ratio_pins_measured_h() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: PaperSiteParams {
                pages: 2,
                cacheability: 1.0,
                ..small_params()
            },
            forced_hit_ratio: Some(0.5),
            ..TestbedConfig::default()
        });
        // Warm up, then measure.
        for _ in 0..2 {
            for p in 0..2 {
                let _ = tb.get(&format!("/paper/page.jsp?p={p}"), None);
            }
        }
        let before = tb.engine().bem().stats().snapshot();
        for _ in 0..200 {
            for p in 0..2 {
                let _ = tb.get(&format!("/paper/page.jsp?p={p}"), None);
            }
        }
        let delta = tb.engine().bem().stats().snapshot().since(&before);
        let h = delta.hit_ratio();
        assert!((0.42..0.58).contains(&h), "measured h = {h}");
    }
}
