//! The dynamic DPC cluster: consistent-hash placement, membership churn,
//! lazy peer-fetch handoff, and the gossiped invalidation feed.
//!
//! This is the third serving tier (core → front → cluster). Each
//! node is a full DPC front ([`Proxy`] in DPC mode with its own slot
//! store) plus a [`dpc_cluster::PeerNode`] endpoint (peer-fetch + gossip
//! service on the shared [`SimNetwork`]):
//!
//! * **Routing** — requests go to the ring owner of their target
//!   ([`dpc_cluster::HashRing`]); a membership change remaps an expected
//!   `1/n` of the keyspace, not a modulo router's avalanche.
//! * **Join** — the newcomer's points go on the ring and *nothing else
//!   moves*: keys it now owns are pulled lazily. Every template request
//!   names the node's donor, the pre-join owner
//!   ([`HashRing::owner_excluding`]); the BEM grants `GET`s for the
//!   fragments the donor holds and lists them, and the node pulls exactly
//!   those from the donor. No other node is touched, nothing anywhere is
//!   evicted.
//! * **Repair** — a slot a late gossip scrub emptied behind the node's
//!   stored bit fails assembly; one refresh names the absent keys and the
//!   BEM re-`SET`s them. A bypass is the last rung.
//! * **Leave / fail** — the node's points come off the ring and traffic
//!   routes around it, losing only that node's arcs. A graceful leave
//!   first flushes its un-gossiped invalidation events to a survivor.
//! * **Invalidation** — [`RingCluster::invalidate_dep`] on *any* node
//!   frees the keys at the shared directory, records an event in that
//!   node's feed, and gossip ([`RingCluster::gossip_round`]) converges it
//!   cluster-wide within a bounded number of rounds; every applying node
//!   scrubs the freed slots, closing the cross-node stale-reassignment
//!   window.
//! * **Front** — [`RingCluster::spawn_front`] serves the whole ring at one
//!   HTTP address. Its handlers run inline on its event loops and block
//!   there on origin and peer fetches, so a request crosses the client,
//!   the front loop, and the origin loop or a donor's peer server.
//!
//! [`HashRing::owner_excluding`]: dpc_cluster::HashRing::owner_excluding

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

use dpc_cluster::{gossip_exchange, gossip_flush, peer_addr, Membership, PeerNode, PeerServer};
use dpc_core::proto::{DEP_HEADER, PURGED_KEYS_HEADER, SERVED_BY_HEADER};
use dpc_core::{Bem, CoherencyEpoch, DpcKey, FragmentSource, FragmentStore};
use dpc_http::{Method, Request, Response, Status};
use dpc_metrics::Registry as MetricsRegistry;
use dpc_net::{Clock, SimConnector, SimNetwork};
use dpc_trace::{TraceConfig, Tracer};

use crate::front::Proxy;
use crate::modes::ProxyMode;
use crate::node::{self, NodeSpec};

/// Slot-store capacity per node.
const NODE_CAPACITY: usize = 4096;

/// Tuning knobs for a [`RingCluster`].
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Seed for gossip peer selection (deterministic tests/benches).
    pub seed: u64,
    /// Event loops of the cluster's HTTP front
    /// ([`RingCluster::spawn_front`]).
    pub loops: usize,
    /// Each node's page tier: assembled pages are installed in the owner's
    /// page cache and repeat GETs are served from there. Off by default:
    /// every request reassembles at its owner node, the classic cluster
    /// pipeline.
    pub page_tier: bool,
    /// Span tracing: one flight recorder shared by every node's proxy,
    /// page tier, and peer endpoint (each recording under its own node
    /// id), so a front→owner→donor request stitches into a single trace
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

/// Ring/membership view shared with every node's peer fetcher.
struct Shared {
    membership: Mutex<Membership>,
}

/// One running cluster node.
struct RingNode {
    proxy: Arc<Proxy>,
    peer: Arc<PeerNode>,
    server: PeerServer,
}

/// A dynamic cluster of DPC nodes in front of one origin (which must
/// already be listening at [`ORIGIN_ADDR`](crate::testbed::ORIGIN_ADDR)
/// on `net`).
pub struct RingCluster {
    net: Arc<SimNetwork>,
    config: RingConfig,
    shared: Arc<Shared>,
    nodes: Mutex<HashMap<u32, RingNode>>,
    /// Next fresh id handed to a join. Ids are monotonic until the 64-id
    /// space (the BEM's `stored_nodes` bitmask width) is spent, then
    /// departed ids are recycled — see [`RingCluster::allocate_id`].
    next_id: Mutex<u32>,
    rng: Mutex<StdRng>,
    /// One cluster-wide page-tier epoch. Every node's page cache and peer
    /// endpoint shares it, so an invalidation applied by *any* node's
    /// gossip scrub unserves every stamped assembled page cluster-wide on
    /// its next touch. A joint
    /// epoch over-invalidates (node A's scrub kills node B's unrelated
    /// pages) but keeps invalidation O(1) with zero coherence messages
    /// beyond the feed the cluster already gossips.
    coherence: CoherencyEpoch,
    /// One metrics registry over the whole cluster: every node registers
    /// its page cache, proxy, and peer adapters at join and unregisters
    /// them on departure, so `GET /_dpc/metrics` at *any* node (or the
    /// HTTP front) scrapes the full fleet.
    registry: Arc<MetricsRegistry>,
    /// Clock observed by page TTLs and the front's request-latency
    /// histograms.
    clock: Clock,
    /// The origin's BEM, once [`RingCluster::connect_origin`] has run.
    /// The HTTP `PURGE` + `X-DPC-Dep` admin path needs it to free keys at
    /// the shared directory.
    origin_bem: Mutex<Option<Arc<Bem>>>,
    /// One flight recorder for the whole ring: every node's proxy, page
    /// tier, and peer endpoint records into it under its own node id, so
    /// a cross-node request reads back as a single trace at any node.
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
            shared: Arc::new(Shared {
                membership: Mutex::new(Membership::new(dpc_cluster::DEFAULT_VNODES)),
            }),
            nodes: Mutex::new(HashMap::new()),
            next_id: Mutex::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            coherence: CoherencyEpoch::new(),
            registry: Arc::new(MetricsRegistry::new()),
            clock,
            origin_bem: Mutex::new(None),
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
        self.shared.membership.lock().alive()
    }

    /// Ring owner of `target` (None with no alive nodes).
    pub fn owner_of(&self, target: &str) -> Option<u32> {
        self.shared.membership.lock().owner(target)
    }

    /// Fraction of `samples` synthetic keys owned by `node`.
    pub fn ring_share(&self, node: u32, samples: usize) -> f64 {
        self.shared.membership.lock().ring().share_of(node, samples)
    }

    /// The proxy of node `id` (tests, fault injection).
    pub fn proxy(&self, id: u32) -> Option<Arc<Proxy>> {
        self.nodes.lock().get(&id).map(|n| Arc::clone(&n.proxy))
    }

    /// The peer endpoint of node `id` (feed/vv inspection in tests).
    pub fn peer(&self, id: u32) -> Option<Arc<PeerNode>> {
        self.nodes.lock().get(&id).map(|n| Arc::clone(&n.peer))
    }

    /// Allocate a node id. Fresh ids are handed out monotonically (they
    /// keep feed origins trivially unambiguous); once all 64 are spent —
    /// the BEM's `stored_nodes` bitmask caps the id space — departed ids
    /// are recycled. Recycling is only safe when every alive node agrees
    /// on the old origin's feed high-water mark (otherwise the reused
    /// origin could re-issue a sequence number with different content),
    /// so it requires a converged cluster; the join-time catch-up
    /// exchange then resumes the old sequence rather than restarting it.
    fn allocate_id(&self) -> u32 {
        let mut next = self.next_id.lock();
        if *next < 64 {
            let id = *next;
            *next += 1;
            return id;
        }
        assert!(
            self.converged(),
            "id recycling needs a converged cluster (run gossip_round first)"
        );
        let membership = self.shared.membership.lock();
        (0..64u32)
            .find(|id| !membership.is_alive(*id))
            .expect("at most 64 DPC nodes may be alive at once")
    }

    /// A new node enters the cluster: ring points added, peer service
    /// started, feed caught up from one survivor. Returns its id. Nothing
    /// is rebalanced eagerly — the newcomer's keys arrive by peer-fetch on
    /// first miss.
    pub fn join(&self) -> u32 {
        let id = self.allocate_id();
        let store = Arc::new(FragmentStore::new(NODE_CAPACITY));
        let peer = PeerNode::new(id, Arc::clone(&store));
        // Every peer's gossip scrub bumps the shared epoch, so applied
        // invalidations unserve stamped assembled pages on every node.
        peer.set_coherence(self.coherence.clone());
        peer.set_tracer(self.tracer.with_node(id));
        let server = PeerServer::spawn(&self.net, &peer);
        let fetcher = Arc::new(PeerFetcher {
            self_id: id,
            peer: Arc::clone(&peer),
            shared: Arc::clone(&self.shared),
            connector: self.net.connector(),
        });
        // The ring routes `PURGE` + `X-DPC-Dep` itself and scans nothing
        // at the boundary; otherwise a member is the lone proxy's node.
        let proxy = node::build(NodeSpec {
            mode: ProxyMode::Dpc,
            id: Some(id),
            store,
            coherence: Some(self.coherence.clone()),
            page_tier: self.config.page_tier,
            firewall: None,
            fragment_source: Some(fetcher),
            dep_purger: None,
            net: &self.net,
            clock: self.clock.clone(),
            tracer: &self.tracer,
            metrics: &self.registry,
        });
        crate::metrics::register_peer(
            &self.registry,
            format!("node{id}/peer"),
            Arc::clone(&peer),
            Some(id),
        );
        // Catch the feed up from a survivor *before* going on the ring, so
        // a converged cluster stays converged through the join — and so a
        // recycled id resumes its predecessor's event sequence instead of
        // restarting it (a restarted sequence would collide with applied
        // events and be dropped as duplicates cluster-wide).
        let recycled = self.shared.membership.lock().state(id).is_some();
        let alive = self.alive();
        let mut caught_up = false;
        for donor in &alive {
            if gossip_exchange(&self.net.connector(), &peer_addr(*donor), &peer).is_ok() {
                caught_up = true;
                break;
            }
        }
        assert!(
            caught_up || !recycled || alive.is_empty(),
            "recycled id {id} could not catch up from any survivor"
        );
        self.nodes.lock().insert(
            id,
            RingNode {
                proxy,
                peer,
                server,
            },
        );
        self.shared.membership.lock().join(id);
        id
    }

    /// Graceful departure: flush un-gossiped events to a survivor, then
    /// remove the node's ring points and stop its peer service. Returns
    /// false when `id` was not alive.
    pub fn leave(&self, id: u32) -> bool {
        if !self.shared.membership.lock().is_alive(id) {
            return false;
        }
        if let Some(peer) = self.peer(id) {
            if let Some(survivor) = self.random_alive_peer(id) {
                let _ = gossip_flush(&self.net.connector(), &peer_addr(survivor), &peer);
            }
        }
        self.shared.membership.lock().leave(id);
        self.remove_node(id);
        true
    }

    /// Crash: ring points removed, peer service stopped, nothing flushed.
    /// Events only this node held are lost; events any survivor applied
    /// keep propagating. Returns false when `id` was not alive.
    pub fn fail(&self, id: u32) -> bool {
        if !self.shared.membership.lock().fail(id) {
            return false;
        }
        self.remove_node(id);
        true
    }

    fn remove_node(&self, id: u32) {
        if let Some(mut node) = self.nodes.lock().remove(&id) {
            node.server.stop();
        }
        // A departed node must stop appearing in scrapes immediately —
        // its counters are frozen and its `node="N"` label would collide
        // with a recycled incarnation's.
        self.registry.unregister(&format!("node{id}/page_cache"));
        self.registry.unregister(&format!("node{id}/proxy"));
        self.registry.unregister(&format!("node{id}/peer"));
        // Forget the departed incarnation's advertised vectors everywhere:
        // a recycled id must re-advertise before it counts toward any
        // truncation watermark again (the dead incarnation's vector could
        // otherwise truncate events the new one still needs).
        let survivors: Vec<Arc<PeerNode>> = self
            .nodes
            .lock()
            .values()
            .map(|n| Arc::clone(&n.peer))
            .collect();
        for peer in survivors {
            peer.forget_peer(id);
        }
    }

    /// A random alive node other than `exclude` (gossip partner / flush
    /// target).
    fn random_alive_peer(&self, exclude: u32) -> Option<u32> {
        let alive: Vec<u32> = self
            .shared
            .membership
            .lock()
            .alive()
            .into_iter()
            .filter(|n| *n != exclude)
            .collect();
        if alive.is_empty() {
            return None;
        }
        let pick = self.rng.lock().random_range(0..alive.len());
        Some(alive[pick])
    }

    /// Serve one request through ring routing.
    ///
    /// Two admin paths bypass routing: `GET /_dpc/metrics` renders the
    /// cluster-wide registry (any node's proxy would render the same
    /// registry, but the scrape must not depend on ring ownership of the
    /// metrics path), and `PURGE` + `X-DPC-Dep` runs the ring-wide
    /// gossiped dependency purge.
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
    /// A handler blocks its loop on origin and peer fetches. It cannot
    /// deadlock:
    /// - it waits only on servers that never call back into the front:
    ///   the origin, whose inline handlers never call back, and the peer
    ///   servers, each its own accept thread ([`PeerServer::spawn`])
    ///   touching only its node's slot store and gossip state;
    /// - its parks are the page cache's fill flight and the peer fetch
    ///   flight ([`PeerNode::coalesced_fetch`]), whose leaders are
    ///   handlers on other loops (or direct callers) waiting only on the
    ///   origin or a donor's peer server;
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

    /// Cluster-level invalidation, issued *at* node `at_node`: free the
    /// dependents' keys in the shared directory (`bem` is the origin's),
    /// record the event in `at_node`'s feed, scrub `at_node`'s own slots.
    /// The event reaches every other node via gossip. Returns the number
    /// of fragments invalidated.
    pub fn invalidate_dep(&self, bem: &dpc_core::Bem, at_node: u32, dep: &str) -> usize {
        let peer = self
            .peer(at_node)
            .expect("invalidate_dep requires an alive node");
        let keys = bem.directory().invalidate_dep_keys(dep);
        let n = keys.len();
        peer.record_local(dep, keys);
        n
    }

    /// The HTTP admin form of [`invalidate_dep`](Self::invalidate_dep):
    /// free the dependency's keys at the first alive node, gossip to
    /// convergence (bounded, best-effort — an unconverged cluster still
    /// self-heals on later rounds), and report the freed-key count the
    /// same way a single-node front's purge does.
    fn purge_dep(&self, dep: &str) -> Response {
        let Some(bem) = self.origin_bem.lock().clone() else {
            return Response::error(
                Status(501),
                "dependency purge needs connect_origin on this cluster",
            );
        };
        let Some(at) = self.alive().first().copied() else {
            return Response::error(Status(503), "no alive cluster nodes");
        };
        let freed = self.invalidate_dep(&bem, at, dep);
        for _ in 0..8 {
            if self.converged() {
                break;
            }
            self.gossip_round();
        }
        Response::html(format!("purged {freed} keys"))
            .with_header("X-Cache", "purged")
            .with_header(PURGED_KEYS_HEADER, freed.to_string())
    }

    /// Bridge the origin's invalidation path into the feed: installs an
    /// [`dpc_core::InvalidationSink`] on `bem`, so data-source updates
    /// arriving through the origin's update bus (`Bem::on_data_update`)
    /// record their freed keys at an alive node exactly like
    /// [`invalidate_dep`](Self::invalidate_dep) does. Without this bridge,
    /// bus-driven invalidations free keys that no node ever scrubs,
    /// leaving the cross-node reassignment hazard open on the standard
    /// path. Events are dropped only when no node is alive (there is no
    /// feed to record into — and no store holding stale slots to protect).
    pub fn connect_origin(self: &Arc<Self>, bem: &Arc<dpc_core::Bem>) {
        *self.origin_bem.lock() = Some(Arc::clone(bem));
        crate::metrics::register_bem(&self.registry, "origin/bem", Arc::clone(bem), None);
        let weak = Arc::downgrade(self);
        bem.set_invalidation_sink(Arc::new(move |dep, keys| {
            let Some(cluster) = weak.upgrade() else {
                return;
            };
            let Some(first_alive) = cluster.alive().first().copied() else {
                return;
            };
            if let Some(peer) = cluster.peer(first_alive) {
                peer.record_local(dep, keys.to_vec());
            }
        }));
    }

    /// One anti-entropy round: every alive node exchanges with one random
    /// alive peer, then truncates its feed below the watermark every alive
    /// node's last-known vector dominates (so long-running clusters keep
    /// bounded logs). Returns events moved (pulled + pushed across all
    /// exchanges); a converged cluster moves 0.
    pub fn gossip_round(&self) -> usize {
        let peers: Vec<(u32, Arc<PeerNode>)> = {
            let nodes = self.nodes.lock();
            let alive = self.shared.membership.lock().alive();
            alive
                .into_iter()
                .filter_map(|id| nodes.get(&id).map(|n| (id, Arc::clone(&n.peer))))
                .collect()
        };
        if peers.len() < 2 {
            return 0;
        }
        let conn = self.net.connector();
        let mut moved = 0;
        for (id, peer) in &peers {
            let partner = {
                let mut rng = self.rng.lock();
                loop {
                    let pick = peers[rng.random_range(0..peers.len())].0;
                    if pick != *id {
                        break pick;
                    }
                }
            };
            if let Ok(outcome) = gossip_exchange(&conn, &peer_addr(partner), peer) {
                moved += outcome.pulled + outcome.pushed;
            }
        }
        // Watermark truncation: computed from the vectors the exchanges
        // above just taught each node. Membership may have changed since
        // `peers` was snapshotted, so re-read the alive set.
        let alive = self.shared.membership.lock().alive();
        for (_, peer) in &peers {
            peer.truncate(&alive);
        }
        moved
    }

    /// Whether every alive node has applied the same event set.
    pub fn converged(&self) -> bool {
        let peers: Vec<Arc<PeerNode>> = {
            let nodes = self.nodes.lock();
            nodes.values().map(|n| Arc::clone(&n.peer)).collect()
        };
        let Some(first) = peers.first() else {
            return true;
        };
        let vv = first.vv();
        peers.iter().all(|p| p.vv() == vv)
    }

    /// Run gossip rounds until converged, returning how many were needed.
    /// Panics after `max_rounds` (callers assert boundedness).
    pub fn gossip_until_converged(&self, max_rounds: usize) -> usize {
        for used in 0..=max_rounds {
            if self.converged() {
                return used;
            }
            self.gossip_round();
        }
        panic!("cluster did not converge within {max_rounds} gossip rounds");
    }
}

/// The lazy-handoff donor: the node that would own the request's target
/// without this one (its owner before this node joined). Fetches go
/// through the node's fetch flight, so a flash crowd missing on one
/// rebalanced key costs the donor a single wire round trip.
struct PeerFetcher {
    self_id: u32,
    peer: Arc<PeerNode>,
    shared: Arc<Shared>,
    connector: SimConnector,
}

impl FragmentSource for PeerFetcher {
    fn donor_for(&self, target: &str) -> Option<u32> {
        self.shared
            .membership
            .lock()
            .donor_for(target, self.self_id)
    }

    fn fetch(&self, donor: u32, key: DpcKey) -> Option<Bytes> {
        self.peer
            .coalesced_fetch(&self.connector, &peer_addr(donor), key)
            .ok()
            .flatten()
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
    fn join_rebalances_lazily_via_peer_fetch_without_evicting() {
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

        let newcomer = cluster.join();
        // Every page still serves the right bytes…
        for (p, want) in truth.iter().enumerate() {
            let resp = cluster.get(&page(p), None);
            assert_eq!(&resp.body.to_vec(), want, "page {p} after join");
        }
        let new_proxy = cluster.proxy(newcomer).unwrap();
        let taken: Vec<usize> = (0..12)
            .filter(|p| cluster.owner_of(&page(*p)) == Some(newcomer))
            .collect();
        assert!(
            !taken.is_empty(),
            "with 12 pages over 4 nodes the newcomer should own some"
        );
        // …the newcomer filled its store by peer-fetch, not bypass…
        assert!(
            new_proxy.stats().peer_fetches.load(Ordering::Relaxed) > 0,
            "handoff must pull from the previous owner"
        );
        assert_eq!(
            new_proxy.stats().bypass_refetches.load(Ordering::Relaxed),
            0,
            "a warm donor makes origin bypasses unnecessary"
        );
        // …and no unaffected node lost anything: stores only grow or stay.
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
    fn invalidation_on_any_node_gossips_to_all() {
        let (tb, cluster) = origin_and_cluster(4);
        // Warm all pages on their owners.
        for p in 0..12 {
            let _ = cluster.get(&page(p), None);
        }
        let before = cluster.get(&page(5), None).body.to_vec();
        // Content change via `seed` (which, unlike `update`, does not fire
        // the origin's update bus): the cluster-level API is the only
        // invalidation path in this test.
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
        // Issue the invalidation at an arbitrary cluster node.
        let issued_at = cluster.alive()[2];
        let n = cluster.invalidate_dep(
            tb.engine().bem(),
            issued_at,
            &format!(
                "paper/{}",
                dpc_appserver::apps::paper_site::fragment_key(5, 0)
            ),
        );
        assert_eq!(n, 1, "slot 0 of page 5 was valid and dependent");
        // Capture the freed keys before gossip: once the cluster converges,
        // watermark truncation may drop the event from every log.
        let event_keys: Vec<DpcKey> = cluster
            .peer(issued_at)
            .unwrap()
            .delta_since(&dpc_cluster::VersionVector::new())
            .into_iter()
            .find(|e| e.origin == issued_at)
            .expect("issuing node holds its own event")
            .keys;
        assert_eq!(event_keys.len(), 1);
        // Bounded convergence, then: every node has the event, every store
        // scrubbed the freed key.
        let rounds = cluster.gossip_until_converged(8);
        assert!(rounds <= 8);
        for id in cluster.alive() {
            let peer = cluster.peer(id).unwrap();
            assert_eq!(peer.vv().get(issued_at), 1, "node {id} missed the event");
            assert!(
                peer.store().get(event_keys[0]).is_none(),
                "node {id} did not scrub the freed key"
            );
        }
        // And the next serve regenerates fresh bytes.
        let after = cluster.get(&page(5), None).body.to_vec();
        assert_ne!(before, after, "post-gossip serve must be fresh");
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
        // only invalidation path here), then invalidate at a node that does
        // NOT own the page — the shared epoch must still unserve the
        // owner's cached copy immediately, before any gossip round.
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
        let owner = cluster.owner_of(&page(5)).unwrap();
        let elsewhere = cluster
            .alive()
            .into_iter()
            .find(|id| *id != owner)
            .expect("4 nodes");
        let n = cluster.invalidate_dep(tb.engine().bem(), elsewhere, &format!("paper/{frag_key}"));
        assert_eq!(n, 1);
        let after = cluster.get(&page(5), None);
        assert_ne!(
            after.body.to_vec(),
            before,
            "the owner's cached page must self-evict on the first post-invalidation touch"
        );
        // After gossip convergence, no node can produce the stale bytes —
        // neither from its page cache nor from its scrubbed slot store.
        cluster.gossip_until_converged(8);
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
        // Invalidate the page's fragment at a node that does not own it;
        // the owner's tiered page must stop serving before any gossip
        // round — the shared epoch is the only signal.
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
        let owner = cluster.owner_of(&page(3)).unwrap();
        let at = cluster
            .alive()
            .into_iter()
            .find(|id| *id != owner)
            .expect("3 nodes");
        let n = cluster.invalidate_dep(tb.engine().bem(), at, &format!("paper/{frag_key}"));
        assert_eq!(n, 1);
        let fresh = get();
        assert_eq!(fresh.headers.get("x-cache"), Some("dpc-assembled"));
        assert_ne!(
            fresh.body, first.body,
            "post-invalidation serve must regenerate, not replay the tier"
        );
    }

    #[test]
    fn graceful_leave_flushes_events_crash_does_not() {
        let (tb, cluster) = origin_and_cluster(4);
        for p in 0..12 {
            let _ = cluster.get(&page(p), None);
        }
        let bem = tb.engine().bem();
        let ids = cluster.alive();
        // Node ids[1] records an event, then leaves gracefully: the event
        // must survive on some survivor and still converge.
        let n = cluster.invalidate_dep(
            bem,
            ids[1],
            &format!(
                "paper/{}",
                dpc_appserver::apps::paper_site::fragment_key(1, 1)
            ),
        );
        assert!(n > 0, "slot 1 of page 1 was valid");
        let leaver = ids[1];
        assert!(cluster.leave(leaver));
        assert!(!cluster.leave(leaver), "double leave is a no-op");
        cluster.gossip_until_converged(8);
        for id in cluster.alive() {
            assert_eq!(
                cluster.peer(id).unwrap().vv().get(leaver),
                1,
                "flushed event lost at node {id}"
            );
        }
        // A crash, by contrast, loses its un-gossiped event.
        let ids = cluster.alive();
        let n = cluster.invalidate_dep(
            bem,
            ids[0],
            &format!(
                "paper/{}",
                dpc_appserver::apps::paper_site::fragment_key(2, 1)
            ),
        );
        assert!(n > 0);
        let victim = ids[0];
        assert!(cluster.fail(victim));
        cluster.gossip_until_converged(8);
        for id in cluster.alive() {
            assert_eq!(
                cluster.peer(id).unwrap().vv().get(victim),
                0,
                "a crash must not flush (node {id})"
            );
        }
        // Correctness is unharmed either way: pages still serve fresh.
        for p in 0..12 {
            assert_eq!(cluster.get(&page(p), None).status.0, 200);
        }
    }

    #[test]
    fn origin_bus_invalidations_enter_the_feed() {
        let (tb, cluster) = origin_and_cluster(4);
        let cluster = Arc::new(cluster);
        cluster.connect_origin(tb.engine().bem());
        for p in 0..12 {
            let _ = cluster.get(&page(p), None);
        }
        let before = cluster.get(&page(7), None).body.to_vec();
        // The standard invalidation path: a repository update fires the
        // origin's bus, which frees keys at the BEM — the bridge must turn
        // that into a feed event with those keys.
        dpc_appserver::apps::paper_site::invalidate_fragment(tb.engine().repo(), 7, 0);
        let recorder = cluster.alive()[0];
        let events = cluster
            .peer(recorder)
            .unwrap()
            .delta_since(&dpc_cluster::VersionVector::new());
        let event = events
            .iter()
            .find(|e| e.origin == recorder && e.dep.contains("p7-f0"))
            .expect("bus invalidation must be recorded in the feed");
        assert!(!event.keys.is_empty(), "event must carry the freed keys");
        // It gossips and every node scrubs, like any cluster-issued event.
        cluster.gossip_until_converged(8);
        for id in cluster.alive() {
            let peer = cluster.peer(id).unwrap();
            assert!(peer.vv().get(recorder) >= 1);
            for key in &event.keys {
                assert!(
                    peer.store().get(*key).is_none(),
                    "node {id} kept a freed key"
                );
            }
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
        assert!(cluster.converged());
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
