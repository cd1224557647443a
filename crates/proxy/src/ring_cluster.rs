//! The dynamic DPC cluster: consistent-hash placement, membership churn,
//! and invalidation applied to every member at once.
//!
//! This is the third serving tier (core → front → cluster). Each node is
//! a full DPC front ([`Proxy`] in DPC mode with its own slot store); the
//! nodes exchange no messages:
//!
//! * **Routing** — requests go to the ring owner of their target
//!   ([`HashRing`]); a membership change remaps an expected `1/n` of the
//!   keyspace, not a modulo router's avalanche.
//! * **Join** — the newcomer's points go on the ring and *nothing else
//!   moves*. It fills its slots the way every node does: its template
//!   requests name it, and the BEM's directory, with one stored bit per
//!   node, answers a fragment the newcomer has not stored with a
//!   node-miss `SET` under the fragment's key, as in the paper's §7. No
//!   other node is touched, nothing anywhere is evicted.
//! * **Repair** — a `GET` whose slot does not hold the generation its tag
//!   names (the `SET` not yet assembled here, a key reassigned since the
//!   render, a restarted store) fails assembly; one refresh names those
//!   keys and the BEM re-`SET`s them. A bypass is the last rung. Every
//!   node, the lone proxy included, takes this ladder.
//! * **Leave / fail** — the node's points come off the ring and traffic
//!   routes around it, losing only that node's arcs. The ring's points
//!   and the node map change under one lock, so the node map is the
//!   alive set and every owner the ring names has a proxy.
//! * **Invalidation** — inside every update the origin BEM bumps the
//!   updated dep's stripe of the ring-wide page-tier epoch
//!   ([`RingCluster::connect_origin`]), as it bumps the lone proxy's.
//!   No member's slot store is touched: a freed key's stale bytes sit
//!   unused, and its next tags name a newer generation. Every update
//!   enters at [`Bem::on_data_update`], a member's `PURGE` + `X-DPC-Dep`
//!   included. The BEM's directory decides what each node may splice.
//! * **Front** — [`RingCluster::spawn_front`] serves the whole ring at one
//!   HTTP address. Its handlers route to the owner, which answers every
//!   request, admin paths included, as the lone proxy does; they block on
//!   origin fetches, so a request crosses the client, the front loop and
//!   the origin loop.
//!
//! The origin is a [`Testbed`](crate::testbed::Testbed) built with its
//! own page tier off: [`RingCluster::connect_origin`] replaces the epoch
//! through which a tiered testbed proxy learns of updates.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use dpc_core::proto::SERVED_BY_HEADER;
use dpc_core::{Bem, CoherencyEpoch, FragmentStore};
use dpc_http::{Request, Response, Status};
use dpc_metrics::Registry as MetricsRegistry;
use dpc_net::{Clock, SimNetwork};
use dpc_trace::{TraceConfig, Tracer};

use crate::front::Proxy;
use crate::modes::ProxyMode;
use crate::node::{self, NodeSpec};
use crate::ring::{HashRing, DEFAULT_VNODES};

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

/// The ring's placement state, all under one lock.
struct Members {
    /// Alive nodes' points.
    ring: HashRing,
    /// Every alive member's proxy, by node id: the alive set.
    nodes: HashMap<u32, Arc<Proxy>>,
    /// Next fresh id handed to a join. Ids are monotonic until the 64-id
    /// space (the BEM's `stored_nodes` bitmask width) is spent, then
    /// departed ids are recycled — see [`RingCluster::allocate_id`].
    next_id: u32,
}

/// A dynamic cluster of DPC nodes in front of one origin (which must
/// already be listening at [`ORIGIN_ADDR`](crate::testbed::ORIGIN_ADDR)
/// on `net`).
pub struct RingCluster {
    net: Arc<SimNetwork>,
    config: RingConfig,
    members: Mutex<Members>,
    /// One ring-wide page-tier epoch, shared by every node's page cache.
    /// Every invalidation bumps the updated dep's stripe once
    /// ([`RingCluster::connect_origin`]), so a tiered page on any node
    /// that read the dep stops serving on its next touch, and a page that
    /// did not read it keeps serving.
    coherence: CoherencyEpoch,
    /// One metrics registry over the whole cluster: every node registers
    /// its page cache and proxy at join and unregisters them on departure,
    /// so `GET /_dpc/metrics` at *any* node (or the HTTP front) scrapes
    /// the full fleet.
    registry: Arc<MetricsRegistry>,
    /// Clock observed by page TTLs and the front's request-latency
    /// histograms.
    clock: Clock,
    /// The origin's BEM, once [`RingCluster::connect_origin`] has run.
    /// Every member's `PURGE` + `X-DPC-Dep` sends its update there.
    origin_bem: Arc<Mutex<Option<Arc<Bem>>>>,
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
            members: Mutex::new(Members {
                ring: HashRing::new(DEFAULT_VNODES),
                nodes: HashMap::new(),
                next_id: 0,
            }),
            coherence: CoherencyEpoch::new(),
            registry: Arc::new(MetricsRegistry::new()),
            clock,
            origin_bem: Arc::default(),
            tracer,
        };
        crate::metrics::register_trace(&cluster.registry, "trace", cluster.tracer.clone());
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
        let mut ids: Vec<u32> = self.members.lock().nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Ring owner of `target` (None with no alive nodes).
    pub fn owner_of(&self, target: &str) -> Option<u32> {
        self.members.lock().ring.owner(target)
    }

    /// Fraction of `samples` synthetic keys owned by `node`.
    pub fn ring_share(&self, node: u32, samples: usize) -> f64 {
        self.members.lock().ring.share_of(node, samples)
    }

    /// The proxy of node `id` (tests, fault injection).
    pub fn proxy(&self, id: u32) -> Option<Arc<Proxy>> {
        self.members.lock().nodes.get(&id).cloned()
    }

    /// Allocate a node id. Fresh ids are handed out monotonically; once
    /// all 64 are spent — the BEM's `stored_nodes` bitmask caps the id
    /// space — the lowest departed id is recycled.
    fn allocate_id(&self) -> u32 {
        let mut members = self.members.lock();
        if members.next_id < 64 {
            members.next_id += 1;
            return members.next_id - 1;
        }
        (0..64u32)
            .find(|id| !members.nodes.contains_key(id))
            .expect("at most 64 DPC nodes may be alive at once")
    }

    /// A new node enters the cluster: its proxy is built, then its ring
    /// points are added. Returns its id. Nothing is rebalanced eagerly —
    /// the newcomer fills its slots from the origin's node-miss `SET`s.
    pub fn join(&self) -> u32 {
        let id = self.allocate_id();
        // A member scans nothing at the boundary; otherwise it is the lone
        // proxy's node. Its dep purge is an update at the connected origin
        // (501 before `connect_origin`).
        let origin = Arc::clone(&self.origin_bem);
        let proxy = node::build(NodeSpec {
            mode: ProxyMode::Dpc,
            id,
            store: Arc::new(FragmentStore::new(NODE_CAPACITY)),
            coherence: self.coherence.clone(),
            page_tier: self.config.page_tier,
            firewall: None,
            dep_purger: Some(Arc::new(move |dep: &str| {
                let bem = origin.lock().clone()?;
                Some(bem.on_data_update(dep))
            })),
            net: &self.net,
            clock: self.clock.clone(),
            tracer: &self.tracer,
            metrics: &self.registry,
        });
        // The ring's points and the node map change in one step, so
        // every owner the ring names has a proxy.
        let mut members = self.members.lock();
        let fresh = members.nodes.insert(id, proxy).is_none();
        assert!(fresh, "node {id} is already alive");
        members.ring.add(id);
        id
    }

    /// Graceful departure: remove the node's ring points and its proxy.
    /// Returns false when `id` was not alive.
    pub fn leave(&self, id: u32) -> bool {
        {
            let mut members = self.members.lock();
            if members.nodes.remove(&id).is_none() {
                return false;
            }
            members.ring.remove(id);
        }
        // A departed node must stop appearing in scrapes immediately —
        // its counters are frozen and its `node="N"` label would collide
        // with a recycled incarnation's.
        self.registry.unregister(&format!("node{id}/page_cache"));
        self.registry.unregister(&format!("node{id}/proxy"));
        true
    }

    /// Crash: the same effect as [`leave`](Self::leave) — nothing but the
    /// node's slot store is lost with it. Returns false when `id` was not
    /// alive.
    pub fn fail(&self, id: u32) -> bool {
        self.leave(id)
    }

    /// Serve one request through ring routing: the owner of its target
    /// answers it, admin paths included (every member renders the ring's
    /// one registry and recorder), and the response names the owner.
    pub fn serve(&self, req: Request) -> Response {
        let routed = {
            let members = self.members.lock();
            members.ring.owner(&req.target).map(|id| {
                let proxy = members
                    .nodes
                    .get(&id)
                    .expect("a ring point's node has a proxy");
                (id, Arc::clone(proxy))
            })
        };
        let Some((owner, proxy)) = routed else {
            return Response::error(Status(503), "no alive cluster nodes");
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
    /// A handler blocks its loop on origin fetches and never parks; the
    /// origin never calls back into the front.
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

    /// Wire the origin's invalidation path to the ring: installs the
    /// ring-wide page epoch on `bem` (replacing any other), so every data
    /// update arriving at [`Bem::on_data_update`] (the origin's update
    /// bus, or a member's `PURGE` + `X-DPC-Dep`) reaches every member's
    /// page tier inside the update.
    pub fn connect_origin(&self, bem: &Arc<Bem>) {
        *self.origin_bem.lock() = Some(Arc::clone(bem));
        crate::metrics::register_bem(&self.registry, "origin/bem", Arc::clone(bem));
        bem.set_invalidation_sink(self.coherence.clone());
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
    use dpc_appserver::apps::paper_site::PaperSiteParams;
    use std::sync::atomic::Ordering;

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
    fn origin_and_cluster(n: usize) -> (Testbed, Arc<RingCluster>) {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: params(),
            ..TestbedConfig::default()
        });
        let cluster = Arc::new(RingCluster::new(tb.net(), n, RingConfig::default()));
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
    fn invalidate_dep_scrubs_every_node_at_once() {
        let (tb, cluster) = origin_and_cluster(4);
        cluster.connect_origin(tb.engine().bem());
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
        let (key, gen) = bem
            .directory()
            .current_key(&dpc_core::FragmentId::with_params(
                "paperfrag",
                &[("p", "5"), ("s", "0")],
            ))
            .expect("slot 0 of page 5 is cached");
        for id in cluster.alive() {
            assert!(cluster.proxy(id).unwrap().store().get(key, gen).is_some());
        }
        // Content change via `seed` (which, unlike `update`, does not fire
        // the origin's update bus): the one explicit update below is the
        // only invalidation path in this test.
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
        let n = bem.on_data_update(&format!("paper/{frag_key}"));
        assert_eq!(n, 1, "slot 0 of page 5 was valid and dependent");
        // The next serve regenerates fresh bytes, on every node, though
        // each still holds the old generation's bytes.
        let after = cluster.get(&page(5), None).body.to_vec();
        assert_ne!(before, after, "the serve after the call must be fresh");
        for id in cluster.alive() {
            let resp = cluster.proxy(id).unwrap().serve(Request::get(page(5)));
            assert_eq!(resp.body.to_vec(), after, "node {id} served stale bytes");
        }
    }

    #[test]
    fn tiered_cluster_never_serves_stale_pages_after_invalidate_dep() {
        // Satellite regression for the page tier: with assembled pages
        // cached above the slot stores, a ring-wide dependency update must
        // leave no node able to serve the pre-invalidation page — the
        // generation check on fragment slots alone is not enough.
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: params(),
            ..TestbedConfig::default()
        });
        let cluster = Arc::new(RingCluster::new(
            tb.net(),
            4,
            RingConfig {
                page_tier: true,
                ..RingConfig::default()
            },
        ));
        cluster.connect_origin(tb.engine().bem());
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
        // Content change via `seed` (no update bus: the explicit update is
        // the only invalidation path here), then invalidate: the shared
        // epoch must unserve the owner's cached copy on its next touch.
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
        let n = tb
            .engine()
            .bem()
            .on_data_update(&format!("paper/{frag_key}"));
        assert_eq!(n, 1);
        let after = cluster.get(&page(5), None);
        assert_ne!(
            after.body.to_vec(),
            before,
            "the owner's cached page must self-evict on the first post-invalidation touch"
        );
        // No node can produce the stale bytes — neither from its page
        // cache nor from the old generation left in its slot store.
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
        cluster.connect_origin(tb.engine().bem());
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
        let n = tb
            .engine()
            .bem()
            .on_data_update(&format!("paper/{frag_key}"));
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
        cluster.connect_origin(tb.engine().bem());
        for p in 0..12 {
            let _ = cluster.get(&page(p), None);
        }
        let before = cluster.get(&page(7), None).body.to_vec();
        for id in cluster.alive() {
            let _ = cluster.proxy(id).unwrap().serve(Request::get(page(7)));
        }
        // The standard invalidation path: a repository update fires the
        // origin's bus, which frees keys at the BEM before the update
        // returns. Every member keeps the old generation's bytes and
        // serves the fresh ones.
        dpc_appserver::apps::paper_site::invalidate_fragment(tb.engine().repo(), 7, 0);
        let after = cluster.get(&page(7), None).body.to_vec();
        assert_ne!(before, after, "bus-invalidated content must refresh");
        for id in cluster.alive() {
            let resp = cluster.proxy(id).unwrap().serve(Request::get(page(7)));
            assert_eq!(resp.body.to_vec(), after, "node {id} served stale bytes");
        }
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
    fn departed_nodes_own_nothing() {
        let (_tb, cluster) = origin_and_cluster(4);
        assert!(cluster.leave(2));
        assert!(!cluster.leave(2), "leaving twice is a no-op");
        assert!(!cluster.fail(2), "a departed node cannot fail");
        assert_eq!(cluster.alive(), vec![0, 1, 3]);
        assert!(cluster.proxy(2).is_none());
        for i in 0..500 {
            assert_ne!(cluster.owner_of(&format!("key{i}")), Some(2));
        }
    }

    #[test]
    fn rejoin_restores_routing() {
        let (_tb, cluster) = origin_and_cluster(3);
        // Spend the fresh ids, so the next join recycles the lowest
        // departed one.
        for _ in 3..64 {
            let id = cluster.join();
            assert!(cluster.leave(id));
        }
        let owner_before = cluster.owner_of("k-42").unwrap();
        assert!(cluster.fail(owner_before));
        assert_ne!(cluster.owner_of("k-42"), Some(owner_before));
        assert_eq!(cluster.join(), owner_before, "a failed id may rejoin");
        assert_eq!(cluster.owner_of("k-42"), Some(owner_before));
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
