//! The dynamic DPC cluster: consistent-hash placement, membership churn,
//! and invalidation applied to every member at once.
//!
//! This is the third serving tier (core → front → cluster). Each node is
//! a full DPC front ([`Proxy`] in DPC mode with its own slot store); the
//! nodes exchange no messages:
//!
//! * **Routing** — requests go to the ring owner of their target
//!   ([`HashRing`](crate::ring::HashRing)); a membership change remaps an
//!   expected `1/n` of the keyspace, not a modulo router's avalanche.
//! * **Join** — the newcomer's points go on the ring and *nothing else
//!   moves*. It fills its slots the way every node does: its template
//!   requests name it, and the BEM's directory, with one stored bit per
//!   node, answers a fragment the newcomer has not stored with a
//!   node-miss `SET` under the fragment's key, as in the paper's §7. No
//!   other node is touched, nothing anywhere is evicted.
//! * **Repair** — a slot a scrub emptied behind the node's stored bit (a
//!   render reused the freed key before the scrub ran) fails assembly;
//!   one refresh names the absent keys and the BEM re-`SET`s them. A
//!   bypass is the last rung.
//! * **Leave / fail** — the node's points come off the ring and traffic
//!   routes around it, losing only that node's arcs.
//! * **Invalidation** — one [`dpc_core::InvalidationSink`] on the origin's
//!   BEM ([`RingCluster::connect_origin`]) applies every data update to
//!   the whole ring inside the update: it scrubs the freed keys from
//!   every member's slot store, then bumps the updated dep's stripe of
//!   the ring-wide page-tier epoch. [`RingCluster::invalidate_dep`] frees
//!   a dep's keys and applies them the same way. The BEM's directory
//!   decides what each node may splice.
//! * **Front** — [`RingCluster::spawn_front`] serves the whole ring at one
//!   HTTP address. Its handlers run inline on its event loops and block
//!   there on origin fetches, so a request crosses the client, the front
//!   loop and the origin loop.
//!
//! The origin is a [`Testbed`](crate::testbed::Testbed) built with its
//! own page tier off: [`RingCluster::connect_origin`] replaces the sink
//! through which a tiered testbed proxy learns of updates.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_core::proto::{DEP_HEADER, PURGED_KEYS_HEADER, SERVED_BY_HEADER};
use dpc_core::{Bem, CoherencyEpoch, DpcKey, FragmentStore};
use dpc_http::{Method, Request, Response, Status};
use dpc_metrics::Registry as MetricsRegistry;
use dpc_net::{Clock, SimNetwork};
use dpc_trace::{TraceConfig, Tracer};

use crate::front::Proxy;
use crate::membership::Membership;
use crate::modes::ProxyMode;
use crate::node::{self, NodeSpec};
use crate::ring::DEFAULT_VNODES;

/// Slot-store capacity per node.
const NODE_CAPACITY: usize = 4096;

/// Tuning knobs for a [`RingCluster`].
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Has no effect: nothing in the ring is random. The field stays
    /// because the benchmark sets it; ROADMAP.md direction 4(b) removes
    /// it with the benchmark's next revision.
    pub seed: u64,
    /// Event loops of the cluster's HTTP front
    /// ([`RingCluster::spawn_front`]).
    pub loops: usize,
    /// Each node's page tier: assembled pages are installed in the owner's
    /// page cache and repeat GETs are served from there. Off by default:
    /// every request reassembles at its owner node, the classic cluster
    /// pipeline.
    pub page_tier: bool,
    /// Span tracing: one flight recorder shared by the front and every
    /// node's proxy and page tier (each recording under its own node id),
    /// so a front→owner→origin request stitches into a single trace
    /// retrievable at any node's `GET /_dpc/trace/recent`. Always on by
    /// default.
    pub trace: TraceConfig,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            seed: 0x2117,
            loops: 1,
            page_tier: false,
            trace: TraceConfig::default(),
        }
    }
}

/// A dynamic cluster of DPC nodes in front of one origin (which must
/// already be listening at [`ORIGIN_ADDR`](crate::testbed::ORIGIN_ADDR)
/// on `net`).
pub struct RingCluster {
    net: Arc<SimNetwork>,
    config: RingConfig,
    membership: Mutex<Membership>,
    /// Every member's proxy, by node id.
    nodes: Mutex<HashMap<u32, Arc<Proxy>>>,
    /// Next fresh id handed to a join. Ids are monotonic until the 64-id
    /// space (the BEM's `stored_nodes` bitmask width) is spent, then
    /// departed ids are recycled — see [`RingCluster::allocate_id`].
    next_id: Mutex<u32>,
    /// One ring-wide page-tier epoch, shared by every node's page cache.
    /// Every invalidation bumps the updated dep's stripe once
    /// ([`RingCluster::connect_origin`]), so a tiered page on any node
    /// that read the dep stops serving on its next touch, and a page that
    /// did not read it keeps serving.
    coherence: CoherencyEpoch,
    /// Slots emptied by invalidations, over every member
    /// (`dpc_peer_slots_scrubbed_total`).
    slots_scrubbed: Arc<AtomicU64>,
    /// One metrics registry over the whole cluster: every node registers
    /// its page cache and proxy at join and unregisters them on departure,
    /// so `GET /_dpc/metrics` at *any* node (or the HTTP front) scrapes
    /// the full fleet.
    registry: Arc<MetricsRegistry>,
    /// Clock observed by page TTLs and the front's request-latency
    /// histograms.
    clock: Clock,
    /// The origin's BEM, once [`RingCluster::connect_origin`] has run.
    /// The HTTP `PURGE` + `X-DPC-Dep` admin path needs it to free keys at
    /// the shared directory.
    origin_bem: Mutex<Option<Arc<Bem>>>,
    /// One flight recorder for the whole ring: the front and every node's
    /// proxy and page tier record into it under their own node ids, so a
    /// cross-node request reads back as a single trace at any node.
    tracer: Tracer,
}

impl RingCluster {
    /// Build `n` nodes (ids `0..n`) over `net`.
    pub fn new(net: &Arc<SimNetwork>, n: usize, config: RingConfig) -> RingCluster {
        assert!((1..=64).contains(&n), "1–64 nodes");
        let clock = Clock::real();
        let tracer = Tracer::from_config(config.trace, clock.clone());
        let cluster = RingCluster {
            net: Arc::clone(net),
            config,
            membership: Mutex::new(Membership::new(DEFAULT_VNODES)),
            nodes: Mutex::new(HashMap::new()),
            next_id: Mutex::new(0),
            coherence: CoherencyEpoch::new(),
            slots_scrubbed: Arc::new(AtomicU64::new(0)),
            registry: Arc::new(MetricsRegistry::new()),
            clock,
            origin_bem: Mutex::new(None),
            tracer,
        };
        crate::metrics::register_trace(&cluster.registry, "trace", cluster.tracer.clone());
        let scrubbed = Arc::clone(&cluster.slots_scrubbed);
        cluster.registry.register("ring", move |e| {
            let n = scrubbed.load(Ordering::Relaxed);
            e.counter("dpc_peer_slots_scrubbed_total", &[], n);
        });
        for _ in 0..n {
            cluster.join();
        }
        cluster
    }

    /// The ring-wide span tracer; its recorder backs
    /// `GET /_dpc/trace/recent` at every node and the HTTP front.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Node ids currently alive, sorted.
    pub fn alive(&self) -> Vec<u32> {
        self.membership.lock().alive()
    }

    /// Ring owner of `target` (None with no alive nodes).
    pub fn owner_of(&self, target: &str) -> Option<u32> {
        self.membership.lock().owner(target)
    }

    /// Fraction of `samples` synthetic keys owned by `node`.
    pub fn ring_share(&self, node: u32, samples: usize) -> f64 {
        self.membership.lock().ring().share_of(node, samples)
    }

    /// The proxy of node `id` (tests, fault injection).
    pub fn proxy(&self, id: u32) -> Option<Arc<Proxy>> {
        self.nodes.lock().get(&id).cloned()
    }

    /// Slots emptied by invalidations so far, over every member.
    pub fn slots_scrubbed(&self) -> u64 {
        self.slots_scrubbed.load(Ordering::Relaxed)
    }

    /// Allocate a node id. Fresh ids are handed out monotonically; once
    /// all 64 are spent — the BEM's `stored_nodes` bitmask caps the id
    /// space — the lowest departed id is recycled.
    fn allocate_id(&self) -> u32 {
        let mut next = self.next_id.lock();
        if *next < 64 {
            let id = *next;
            *next += 1;
            return id;
        }
        let membership = self.membership.lock();
        (0..64u32)
            .find(|id| !membership.is_alive(*id))
            .expect("at most 64 DPC nodes may be alive at once")
    }

    /// A new node enters the cluster: its proxy is built, then its ring
    /// points are added. Returns its id. Nothing is rebalanced eagerly —
    /// the newcomer fills its slots from the origin's node-miss `SET`s.
    pub fn join(&self) -> u32 {
        let id = self.allocate_id();
        // The ring routes `PURGE` + `X-DPC-Dep` itself and scans nothing
        // at the boundary; otherwise a member is the lone proxy's node.
        let proxy = node::build(NodeSpec {
            mode: ProxyMode::Dpc,
            id: Some(id),
            store: Arc::new(FragmentStore::new(NODE_CAPACITY)),
            coherence: Some(self.coherence.clone()),
            page_tier: self.config.page_tier,
            firewall: None,
            dep_purger: None,
            net: &self.net,
            clock: self.clock.clone(),
            tracer: &self.tracer,
            metrics: &self.registry,
        });
        // A member is in the scrub set before it is on the ring, so every
        // invalidation that can reach a page it serves scrubs its store.
        self.nodes.lock().insert(id, proxy);
        self.membership.lock().join(id);
        id
    }

    /// Graceful departure: remove the node's ring points and its proxy.
    /// Returns false when `id` was not alive.
    pub fn leave(&self, id: u32) -> bool {
        if !self.membership.lock().leave(id) {
            return false;
        }
        self.remove_node(id);
        true
    }

    /// Crash: the same ring effect as [`leave`](Self::leave). Returns
    /// false when `id` was not alive.
    pub fn fail(&self, id: u32) -> bool {
        if !self.membership.lock().fail(id) {
            return false;
        }
        self.remove_node(id);
        true
    }

    fn remove_node(&self, id: u32) {
        self.nodes.lock().remove(&id);
        // A departed node must stop appearing in scrapes immediately —
        // its counters are frozen and its `node="N"` label would collide
        // with a recycled incarnation's.
        self.registry.unregister(&format!("node{id}/page_cache"));
        self.registry.unregister(&format!("node{id}/proxy"));
    }
    /// Serve one request through ring routing.
    ///
    /// Two admin paths bypass routing: `GET /_dpc/metrics` renders the
    /// cluster-wide registry (any node's proxy would render the same
    /// registry, but the scrape must not depend on ring ownership of the
    /// metrics path), and `PURGE` + `X-DPC-Dep` runs the ring-wide
    /// dependency purge.
    pub fn serve(&self, req: Request) -> Response {
        if req.method == Method::Get && req.path() == "/_dpc/metrics" {
            return Response::html(self.registry.render())
                .with_header("Content-Type", "text/plain; version=0.0.4");
        }
        if req.method == Method::Get && req.path() == "/_dpc/trace/recent" {
            if let Some(rec) = self.tracer.recorder() {
                return Response::html(rec.recent_json())
                    .with_header("Content-Type", "application/json");
            }
        }
        if req.method == Method::Purge {
            if let Some(dep) = req.headers.get(DEP_HEADER) {
                return self.purge_dep(dep);
            }
        }
        let Some(owner) = self.owner_of(&req.target) else {
            return Response::error(Status(503), "no alive cluster nodes");
        };
        let Some(proxy) = self.proxy(owner) else {
            // The owner churned between routing and dispatch; the caller
            // retries like any 5xx.
            return Response::error(Status(503), "owner departed");
        };
        let mut resp = proxy.serve(req);
        resp.headers.set(SERVED_BY_HEADER, owner.to_string());
        resp
    }

    /// Convenience GET (mirrors `Testbed::get`).
    pub fn get(&self, target: &str, user: Option<&str>) -> Response {
        let mut req = Request::get(target);
        if let Some(u) = user {
            req.headers.set("Cookie", format!("session={u}"));
        }
        self.serve(req)
    }

    /// Serve the whole cluster over HTTP at `addr`: clients hit one
    /// address, ring routing picks the owner node per request. The front
    /// is a multi-loop server (`RingConfig::loops` event loops, each
    /// running its handlers inline), so the cluster tier scales across
    /// cores with its loop count, as the testbed's fronts do.
    ///
    /// A handler blocks its loop on origin fetches. It cannot deadlock:
    /// - it waits only on the origin, whose inline handlers never call
    ///   back into the front;
    /// - its one park is the page cache's fill flight, whose leader is a
    ///   handler on another loop (or a direct caller) waiting only on the
    ///   origin;
    /// - with `loops: 1` no two front handlers overlap, so nothing parks.
    pub fn spawn_front(self: &Arc<Self>, addr: &str) -> dpc_http::ServerHandle {
        let listener = self.net.listen(addr);
        let cluster = Arc::clone(self);
        let handler: Arc<dyn dpc_http::Handler> = Arc::new(move |req: Request| cluster.serve(req));
        let handle = dpc_http::Server::new(Box::new(listener), handler)
            .with_loops(self.config.loops)
            .with_request_metrics(self.clock.clone())
            .with_tracer(self.tracer.clone())
            .spawn();
        crate::metrics::register_server(
            &self.registry,
            format!("front/{addr}"),
            addr,
            handle.stats(),
        );
        handle
    }

    /// Cluster-level invalidation: free the dependents' keys in the shared
    /// directory (`bem` is the origin's) and apply them to every member
    /// at once, as a data update through [`connect_origin`]'s sink does.
    /// Returns the number of fragments invalidated.
    ///
    /// [`connect_origin`]: Self::connect_origin
    pub fn invalidate_dep(&self, bem: &Bem, dep: &str) -> usize {
        let keys = bem.directory().invalidate_dep_keys(dep);
        self.apply(dep, &keys);
        keys.len()
    }

    /// The HTTP admin form of [`invalidate_dep`](Self::invalidate_dep):
    /// every member is scrubbed once it returns, so it answers with the
    /// freed-key count the same way a single-node front's purge does.
    fn purge_dep(&self, dep: &str) -> Response {
        let Some(bem) = self.origin_bem.lock().clone() else {
            return Response::error(
                Status(501),
                "dependency purge needs connect_origin on this cluster",
            );
        };
        let freed = self.invalidate_dep(&bem, dep);
        Response::html(format!("purged {freed} keys"))
            .with_header("X-Cache", "purged")
            .with_header(PURGED_KEYS_HEADER, freed.to_string())
    }

    /// Wire the origin's invalidation path to the ring: installs an
    /// [`dpc_core::InvalidationSink`] on `bem` (replacing any other), so
    /// every data update arriving through the origin's update bus
    /// (`Bem::on_data_update`) is applied to every member inside the
    /// update, exactly like [`invalidate_dep`](Self::invalidate_dep).
    pub fn connect_origin(self: &Arc<Self>, bem: &Arc<Bem>) {
        *self.origin_bem.lock() = Some(Arc::clone(bem));
        crate::metrics::register_bem(&self.registry, "origin/bem", Arc::clone(bem), None);
        let weak = Arc::downgrade(self);
        bem.set_invalidation_sink(Arc::new(move |dep, keys| {
            if let Some(cluster) = weak.upgrade() {
                cluster.apply(dep, keys);
            }
        }));
    }

    /// Apply one invalidation, after the directory freed `keys`: scrub
    /// them from every member's slot store, so a later reassignment of a
    /// freed key finds an empty slot (a clean `MissingFragment` miss)
    /// instead of the old fragment's bytes, then bump `dep`'s stripe of
    /// the ring-wide epoch once, so exactly the tiered pages that read
    /// `dep` stop serving.
    fn apply(&self, dep: &str, keys: &[DpcKey]) {
        let mut scrubbed = 0;
        for proxy in self.nodes.lock().values() {
            for key in keys {
                scrubbed += u64::from(proxy.store().clear_key(*key));
            }
        }
        self.slots_scrubbed.fetch_add(scrubbed, Ordering::Relaxed);
        self.coherence.bump_label(dep);
    }

    /// Does nothing and returns 0: every invalidation already reached
    /// every member inside the update. Kept because the benchmark calls
    /// it after each ring update; ROADMAP.md direction 4(b) removes it
    /// with the benchmark's next revision.
    pub fn gossip_round(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{Testbed, TestbedConfig};
    use bytes::Bytes;
    use dpc_appserver::apps::paper_site::PaperSiteParams;

    fn params() -> PaperSiteParams {
        PaperSiteParams {
            pages: 12,
            fragment_bytes: 512,
            cacheability: 1.0,
            ..PaperSiteParams::default()
        }
    }

    /// Reuse the single-node testbed for its origin, then bolt a ring
    /// cluster onto the same simulated network.
    fn origin_and_cluster(n: usize) -> (Testbed, RingCluster) {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: params(),
            ..TestbedConfig::default()
        });
        let cluster = RingCluster::new(tb.net(), n, RingConfig::default());
        (tb, cluster)
    }

    fn page(p: usize) -> String {
        format!("/paper/page.jsp?p={p}")
    }

    #[test]
    fn ring_cluster_serves_correct_pages_with_sticky_routing() {
        let (tb, cluster) = origin_and_cluster(4);
        let truth: Vec<Vec<u8>> = (0..12)
            .map(|p| tb.get(&page(p), None).body.to_vec())
            .collect();
        let mut owners_seen = std::collections::HashSet::new();
        for round in 0..3 {
            for (p, want) in truth.iter().enumerate() {
                let resp = cluster.get(&page(p), None);
                assert_eq!(resp.status.0, 200);
                assert_eq!(&resp.body.to_vec(), want, "round {round} page {p}");
                let owner = resp.headers.get(SERVED_BY_HEADER).unwrap().to_owned();
                assert_eq!(
                    cluster.owner_of(&page(p)),
                    Some(owner.parse().unwrap()),
                    "routing must match ring ownership"
                );
                owners_seen.insert(owner);
            }
        }
        assert!(
            owners_seen.len() > 1,
            "12 pages must spread over several nodes: {owners_seen:?}"
        );
        // Personalized pages stay per-user on the ring (§3.2.1).
        let catalog = "/catalog.jsp?categoryID=cat1";
        for user in [Some("user1"), Some("user2"), None] {
            let want = tb.get(catalog, user).body.to_vec();
            let got = cluster.get(catalog, user).body.to_vec();
            assert_eq!(got, want, "{user:?}");
        }
    }

    #[test]
    fn kill_one_of_eight_remaps_about_an_eighth() {
        let (_tb, cluster) = origin_and_cluster(8);
        const SAMPLES: usize = 4000;
        let keys: Vec<String> = (0..SAMPLES).map(|i| format!("/page-{i}")).collect();
        let before: Vec<u32> = keys.iter().map(|k| cluster.owner_of(k).unwrap()).collect();
        let victim = before[0];
        let victim_share = cluster.ring_share(victim, SAMPLES);
        assert!(cluster.fail(victim));
        let mut moved = 0usize;
        for (k, owner_before) in keys.iter().zip(&before) {
            let now = cluster.owner_of(k).unwrap();
            if now != *owner_before {
                moved += 1;
                assert_eq!(*owner_before, victim, "only the victim's keys move");
            }
        }
        let moved_share = moved as f64 / SAMPLES as f64;
        // Measured: the lost arc is the victim's share (≈1/8 with vnode
        // noise), nowhere near the 7/8 a modulo router loses.
        assert!(
            (moved_share - victim_share).abs() < 0.05,
            "moved {moved_share:.3} vs victim share {victim_share:.3}"
        );
        assert!(
            moved_share < 0.25,
            "an 8-node ring must lose ~1/8, lost {moved_share:.3}"
        );
        // And the cluster still serves every page correctly.
        for p in 0..12 {
            assert_eq!(cluster.get(&page(p), None).status.0, 200);
        }
    }

    #[test]
    fn join_fills_the_newcomer_by_node_miss_sets_without_evicting() {
        let (tb, cluster) = origin_and_cluster(3);
        let truth: Vec<Vec<u8>> = (0..12)
            .map(|p| tb.get(&page(p), None).body.to_vec())
            .collect();
        // Warm every node's share.
        for _ in 0..2 {
            for p in 0..12 {
                let _ = cluster.get(&page(p), None);
            }
        }
        let occupied_before: HashMap<u32, usize> = cluster
            .alive()
            .into_iter()
            .map(|id| (id, cluster.proxy(id).unwrap().store().occupied()))
            .collect();
        let owners_before: Vec<u32> = (0..12)
            .map(|p| cluster.owner_of(&page(p)).unwrap())
            .collect();
        let node_misses = || tb.engine().bem().directory_stats().node_misses;
        let node_misses_before = node_misses();

        let newcomer = cluster.join();
        // Every page still serves the right bytes…
        for (p, want) in truth.iter().enumerate() {
            let resp = cluster.get(&page(p), None);
            assert_eq!(&resp.body.to_vec(), want, "page {p} after join");
        }
        let new_proxy = cluster.proxy(newcomer).unwrap();
        let taken = (0..12)
            .filter(|p| cluster.owner_of(&page(*p)) == Some(newcomer))
            .count();
        assert!(
            taken > 0,
            "with 12 pages over 4 nodes the newcomer should own some"
        );
        // …the newcomer filled its store from node-miss SETs: at most one
        // per fragment of the pages it took, and every one of them a node
        // miss at the directory (the warm members only GET)…
        let sets = new_proxy.stats().asm_sets.load(Ordering::Relaxed);
        assert!(sets > 0, "the newcomer's first pass SETs its slots");
        assert!(
            sets <= (taken * params().fragments_per_page) as u64,
            "{sets} SETs for {taken} pages"
        );
        assert_eq!(node_misses() - node_misses_before, sets);
        assert_eq!(
            new_proxy.stats().bypass_refetches.load(Ordering::Relaxed),
            0,
            "node-miss SETs make origin bypasses unnecessary"
        );
        // …and no member lost anything: stores only grow or stay.
        for (id, before) in occupied_before {
            let after = cluster.proxy(id).unwrap().store().occupied();
            assert!(
                after >= before,
                "node {id} store shrank {before} -> {after}: join must not evict"
            );
        }
        // Pages that did not change owner kept their routing.
        for (p, owner_before) in owners_before.iter().enumerate() {
            let now = cluster.owner_of(&page(p)).unwrap();
            assert!(
                now == *owner_before || now == newcomer,
                "page {p} moved {owner_before} -> {now}, not to the newcomer"
            );
        }
    }

    #[test]
    fn scrub_empties_the_freed_slots_and_counts_them() {
        let (_tb, cluster) = origin_and_cluster(2);
        let [a, b] = [0, 1].map(|id| cluster.proxy(id).unwrap());
        a.store().set(DpcKey(3), Bytes::from_static(b"old"));
        a.store().set(DpcKey(4), Bytes::from_static(b"kept"));
        b.store().set(DpcKey(3), Bytes::from_static(b"old"));
        // Key 5 is freed but no node holds it: nothing to count.
        cluster.apply("dep", &[DpcKey(3), DpcKey(5)]);
        for proxy in [&a, &b] {
            assert_eq!(proxy.store().get(DpcKey(3)), None);
        }
        assert_eq!(a.store().get(DpcKey(4)), Some(Bytes::from_static(b"kept")));
        assert_eq!(cluster.slots_scrubbed(), 2);
    }

    #[test]
    fn invalidate_dep_scrubs_every_node_at_once() {
        let (tb, cluster) = origin_and_cluster(4);
        // Warm all pages on their owners.
        for p in 0..12 {
            let _ = cluster.get(&page(p), None);
        }
        let before = cluster.get(&page(5), None).body.to_vec();
        // Every node holds the fragment's slot once it has served page 5.
        for id in cluster.alive() {
            let _ = cluster.proxy(id).unwrap().serve(Request::get(page(5)));
        }
        let bem = tb.engine().bem();
        let frag_key = dpc_appserver::apps::paper_site::fragment_key(5, 0);
        let key = bem
            .directory()
            .current_key(&dpc_core::FragmentId::with_params(
                "paperfrag",
                &[("p", "5"), ("s", "0")],
            ))
            .expect("slot 0 of page 5 is cached");
        for id in cluster.alive() {
            assert!(cluster.proxy(id).unwrap().store().get(key).is_some());
        }
        // Content change via `seed` (which, unlike `update`, does not fire
        // the origin's update bus): the cluster-level API is the only
        // invalidation path in this test.
        let v = tb
            .engine()
            .repo()
            .get("paper", &frag_key)
            .value
            .expect("seeded row")
            .int("version");
        tb.engine().repo().seed(
            "paper",
            &frag_key,
            dpc_repository::Row::new().with("version", v + 1),
        );
        let n = cluster.invalidate_dep(bem, &format!("paper/{frag_key}"));
        assert_eq!(n, 1, "slot 0 of page 5 was valid and dependent");
        // Right after the call, no node's store holds the freed key.
        for id in cluster.alive() {
            assert!(
                cluster.proxy(id).unwrap().store().get(key).is_none(),
                "node {id} did not scrub the freed key"
            );
        }
        assert_eq!(cluster.slots_scrubbed(), 4, "one slot on each node");
        // And the next serve regenerates fresh bytes.
        let after = cluster.get(&page(5), None).body.to_vec();
        assert_ne!(before, after, "the serve after the call must be fresh");
    }

    #[test]
    fn tiered_cluster_never_serves_stale_pages_after_invalidate_dep() {
        // Satellite regression for the page tier: with assembled pages
        // cached above the slot stores, a ring-wide `invalidate_dep` must
        // leave no node able to serve the pre-invalidation page — scrubbing
        // fragment slots alone is not enough.
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: params(),
            ..TestbedConfig::default()
        });
        let cluster = RingCluster::new(
            tb.net(),
            4,
            RingConfig {
                page_tier: true,
                ..RingConfig::default()
            },
        );
        // Warm page 5 on its owner until it is L2-served (the page tier is
        // live when repeat serves stop reassembling).
        for _ in 0..4 {
            let _ = cluster.get(&page(5), None);
        }
        let warm = cluster.get(&page(5), None);
        assert_eq!(
            warm.headers.get("x-cache"),
            Some("dpc-l2"),
            "warm-up must leave the assembled page cached"
        );
        let before = warm.body.to_vec();
        // Content change via `seed` (no update bus: the cluster API is the
        // only invalidation path here), then invalidate: the shared epoch
        // must unserve the owner's cached copy on its next touch.
        let frag_key = dpc_appserver::apps::paper_site::fragment_key(5, 0);
        let v = tb
            .engine()
            .repo()
            .get("paper", &frag_key)
            .value
            .expect("seeded row")
            .int("version");
        tb.engine().repo().seed(
            "paper",
            &frag_key,
            dpc_repository::Row::new().with("version", v + 1),
        );
        let n = cluster.invalidate_dep(tb.engine().bem(), &format!("paper/{frag_key}"));
        assert_eq!(n, 1);
        let after = cluster.get(&page(5), None);
        assert_ne!(
            after.body.to_vec(),
            before,
            "the owner's cached page must self-evict on the first post-invalidation touch"
        );
        // No node can produce the stale bytes — neither from its page
        // cache nor from its scrubbed slot store.
        for id in cluster.alive() {
            let proxy = cluster.proxy(id).unwrap();
            let resp = proxy.serve(Request::get(page(5)));
            assert_eq!(resp.status.0, 200);
            assert_ne!(
                resp.body.to_vec(),
                before,
                "node {id} served a stale assembled page"
            );
        }
    }

    #[test]
    fn tiered_front_hits_the_owner_tier_and_invalidation_unserves_it() {
        // End-to-end over the HTTP front: repeat GETs are served from the
        // owner's page tier, then an invalidation at another node unserves
        // it, and the next GET regenerates.
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: params(),
            ..TestbedConfig::default()
        });
        let cluster = Arc::new(RingCluster::new(
            tb.net(),
            3,
            RingConfig {
                page_tier: true,
                ..RingConfig::default()
            },
        ));
        let _front = cluster.spawn_front("tiered-front");
        let client = dpc_http::Client::new(Arc::new(tb.net().connector()));
        let get = || {
            client
                .request("tiered-front", Request::get(page(3)))
                .unwrap()
        };
        let first = get();
        assert_eq!(first.headers.get("x-cache"), Some("dpc-assembled"));
        for _ in 0..6 {
            let r = get();
            assert_eq!(r.body, first.body, "tier serves identical bytes");
            assert_eq!(r.headers.get("x-cache"), Some("dpc-l2"));
        }
        // Invalidate the page's fragment: the owner's tiered page must stop
        // serving — the shared epoch is the only signal.
        let frag_key = dpc_appserver::apps::paper_site::fragment_key(3, 0);
        let v = tb
            .engine()
            .repo()
            .get("paper", &frag_key)
            .value
            .expect("seeded row")
            .int("version");
        tb.engine().repo().seed(
            "paper",
            &frag_key,
            dpc_repository::Row::new().with("version", v + 1),
        );
        let n = cluster.invalidate_dep(tb.engine().bem(), &format!("paper/{frag_key}"));
        assert_eq!(n, 1);
        let fresh = get();
        assert_eq!(fresh.headers.get("x-cache"), Some("dpc-assembled"));
        assert_ne!(
            fresh.body, first.body,
            "post-invalidation serve must regenerate, not replay the tier"
        );
    }

    #[test]
    fn origin_bus_invalidations_scrub_every_node() {
        let (tb, cluster) = origin_and_cluster(4);
        let cluster = Arc::new(cluster);
        cluster.connect_origin(tb.engine().bem());
        for p in 0..12 {
            let _ = cluster.get(&page(p), None);
        }
        let before = cluster.get(&page(7), None).body.to_vec();
        for id in cluster.alive() {
            let _ = cluster.proxy(id).unwrap().serve(Request::get(page(7)));
        }
        let key = tb
            .engine()
            .bem()
            .directory()
            .current_key(&dpc_core::FragmentId::with_params(
                "paperfrag",
                &[("p", "7"), ("s", "0")],
            ))
            .expect("slot 0 of page 7 is cached");
        // The standard invalidation path: a repository update fires the
        // origin's bus, which frees keys at the BEM, whose sink scrubs
        // every member before the update returns.
        dpc_appserver::apps::paper_site::invalidate_fragment(tb.engine().repo(), 7, 0);
        for id in cluster.alive() {
            assert!(
                cluster.proxy(id).unwrap().store().get(key).is_none(),
                "node {id} kept a freed key"
            );
        }
        let after = cluster.get(&page(7), None).body.to_vec();
        assert_ne!(before, after, "bus-invalidated content must refresh");
    }

    #[test]
    fn node_ids_recycle_after_the_64_id_space_is_spent() {
        let (_tb, cluster) = origin_and_cluster(4);
        // Burn through the fresh-id space with fail/join churn, well past
        // 64 cumulative joins.
        let mut max_id = 3;
        for i in 0..80 {
            let alive = cluster.alive();
            assert!(cluster.fail(alive[i % alive.len()]));
            let id = cluster.join();
            assert!(id < 64, "ids must stay inside the bitmask space");
            max_id = max_id.max(id);
            assert_eq!(cluster.alive().len(), 4);
        }
        assert!(max_id < 64);
        // The cluster still works end to end after heavy recycling.
        for p in 0..12 {
            assert_eq!(cluster.get(&page(p), None).status.0, 200, "page {p}");
        }
    }

    #[test]
    fn ring_node_page_cache_holds_a_node_capacity_of_pages() {
        // A member's page cache is sized to its slot store, like the lone
        // proxy's: 32 distinct pages on one node evict nothing. Paper-site
        // pages never read the session, so each is one shared page
        // whoever asks: the 32 pages are 32 targets.
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: PaperSiteParams {
                pages: 32,
                ..params()
            },
            ..TestbedConfig::default()
        });
        let cluster = RingCluster::new(
            tb.net(),
            1,
            RingConfig {
                page_tier: true,
                ..RingConfig::default()
            },
        );
        for p in 0..32 {
            let resp = cluster.get(&page(p), Some(&format!("user{p}")));
            assert_eq!(resp.headers.get("x-cache"), Some("dpc-assembled"));
        }
        let only = cluster.alive()[0];
        let proxy = cluster.proxy(only).unwrap();
        let page_cache = proxy.page_cache();
        let stats = page_cache.stats();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(page_cache.len(), 32, "{stats:?}");
    }

    #[test]
    fn http_front_serves_the_cluster_over_multiple_loops() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: params(),
            ..TestbedConfig::default()
        });
        let truth: Vec<Vec<u8>> = (0..12)
            .map(|p| tb.get(&page(p), None).body.to_vec())
            .collect();
        let cluster = Arc::new(RingCluster::new(
            tb.net(),
            3,
            RingConfig {
                loops: 2,
                ..RingConfig::default()
            },
        ));
        let front = cluster.spawn_front("ring-front");
        assert_eq!(front.loops(), 2, "RingConfig::loops reaches the front");
        // Requests through the one HTTP address route by ring ownership
        // and return the same bytes as direct serving.
        let client = dpc_http::Client::new(Arc::new(tb.net().connector()));
        for (p, want) in truth.iter().enumerate() {
            let resp = client.request("ring-front", Request::get(page(p))).unwrap();
            assert_eq!(resp.status.0, 200);
            assert_eq!(&resp.body.to_vec(), want, "page {p} via HTTP front");
            let owner: u32 = resp
                .headers
                .get(SERVED_BY_HEADER)
                .expect("front reports the owner")
                .parse()
                .unwrap();
            assert_eq!(cluster.owner_of(&page(p)), Some(owner));
        }
        assert_eq!(front.requests(), 12);
    }

    #[test]
    fn no_nodes_means_503_not_panic() {
        let (_tb, cluster) = origin_and_cluster(1);
        let only = cluster.alive()[0];
        assert!(cluster.fail(only));
        let resp = cluster.get(&page(0), None);
        assert_eq!(resp.status.0, 503);
    }
}
