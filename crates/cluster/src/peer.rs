//! Proxy-to-proxy transport: the peer-fetch service and the slot scrub.
//!
//! Each cluster node runs one [`PeerServer`] — a thread accepting
//! connections at `dpc-peer-<id>` on the shared [`SimNetwork`] and
//! answering [`ClusterFrame::FetchReq`] from the local slot store (lazy
//! key-range handoff after a join: the new owner pulls, the donor serves).
//!
//! Connections are handled inline on the accept thread, one at a time:
//! fetches are short and servers never dial out, so no dial cycle can
//! deadlock.
//!
//! [`PeerNode::scrub`] is a node's half of an invalidation. The ring runs
//! it on every member when the origin's BEM frees keys, so a later
//! reassignment of a freed key finds an empty slot (a clean
//! `MissingFragment` miss) instead of splicing the old fragment's bytes.

use bytes::Bytes;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dpc_core::{DpcKey, FlightGroup, FragmentStore, Join, Publish};
use dpc_net::frame::ClusterFrame;
use dpc_net::stream::Connector;
use dpc_net::SimNetwork;
use dpc_trace::{Layer, SpanStatus, Tracer};

/// Well-known peer-service address of node `id` on the simulated network.
pub fn peer_addr(id: u32) -> String {
    format!("dpc-peer-{id}")
}

/// Retry laps through the fetch flight before falling back to an
/// uncoalesced wire fetch (a scrub storm could otherwise spin a request).
const MAX_FETCH_LAPS: u32 = 4;

/// Counters for one node's peer endpoint.
#[derive(Debug, Default)]
pub struct PeerStats {
    /// Fetches served from a non-empty slot. Counted on the donor side
    /// per *wire* fetch, so with requester-side coalescing a crowd of
    /// concurrent misses for one key moves this (or `fetch_misses`) by
    /// exactly one.
    pub fetch_hits: AtomicU64,
    /// Fetches answered "don't have it" (same once-per-wire-fetch rule).
    pub fetch_misses: AtomicU64,
    /// Outbound fetches this node led on the wire.
    pub fetch_flight_leaders: AtomicU64,
    /// Outbound fetches served by parking on a concurrent leader's wire
    /// fetch for the same key (no connection was opened).
    pub fetch_coalesced_waits: AtomicU64,
    /// Fetch flights retried or discarded: a scrub landed mid-fetch (the
    /// fetched bytes predate the invalidation) or a leader failed.
    pub fetch_flight_retries: AtomicU64,
    /// Slots emptied by scrubs.
    pub slots_scrubbed: AtomicU64,
}

/// One node's fetch state: its slot store, its outbound fetch flight, its
/// counters. Shared between the node's [`PeerServer`] thread (donor side)
/// and the node's fragment source (requester side,
/// [`PeerNode::coalesced_fetch`]).
pub struct PeerNode {
    id: u32,
    store: Arc<FragmentStore>,
    /// Single-flight for *outbound* fetches: concurrent misses for the
    /// same key collapse into one wire round trip to the donor (see
    /// [`PeerNode::coalesced_fetch`]). `Ok(None)` answers coalesce too —
    /// a donor that doesn't have the slot shouldn't be asked N times.
    fetch_flight: FlightGroup<u64, Option<Bytes>>,
    stats: PeerStats,
    /// Span tracer for the fetch legs ([`Tracer::off`] until the ring
    /// installs one): requester spans in [`PeerNode::coalesced_fetch`],
    /// donor spans in the serve loop.
    tracer: Mutex<Tracer>,
}

impl PeerNode {
    pub fn new(id: u32, store: Arc<FragmentStore>) -> Arc<PeerNode> {
        Arc::new(PeerNode {
            id,
            store,
            fetch_flight: FlightGroup::new(),
            stats: PeerStats::default(),
            tracer: Mutex::new(Tracer::off()),
        })
    }

    /// Install the span tracer (replacing any previous one).
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock() = tracer;
    }

    pub fn id(&self) -> u32 {
        self.id
    }

    /// The slot store this endpoint serves fetches from and scrubs.
    pub fn store(&self) -> &Arc<FragmentStore> {
        &self.store
    }

    pub fn stats(&self) -> &PeerStats {
        &self.stats
    }

    /// Scrub the freed `keys` from this node's slot store, and stamp any
    /// fetch of them on the wire right now stale: its bytes predate the
    /// invalidation, so the leader discards them instead of publishing.
    pub fn scrub(&self, keys: &[DpcKey]) {
        let mut scrubbed = 0u64;
        for key in keys {
            if self.store.clear_key(*key) {
                scrubbed += 1;
            }
            self.fetch_flight.invalidate(u64::from(key.0));
        }
        self.stats
            .slots_scrubbed
            .fetch_add(scrubbed, Ordering::Relaxed);
    }

    /// Single-flight wrapper around [`peer_fetch`]: concurrent fetches of
    /// the same key from this node collapse into one wire round trip, and
    /// everyone gets the leader's answer (including a definitive
    /// `Ok(None)` "donor doesn't have it").
    ///
    /// If a scrub lands while the bytes are on the wire the fetched value
    /// may predate the invalidation, so the leader discards it and returns
    /// `Ok(None)` — the caller escalates (regenerate / origin) exactly as
    /// for a donor miss. A leader that fails on the wire poisons the
    /// flight: one waiter inherits the error path and the rest retry.
    pub fn coalesced_fetch(
        &self,
        connector: &dyn Connector,
        addr: &str,
        key: DpcKey,
    ) -> io::Result<Option<Bytes>> {
        let ident = u64::from(key.0);
        let tracer = self.tracer.lock().clone();
        for _ in 0..MAX_FETCH_LAPS {
            // The span opens before the join so a parked waiter's span
            // covers its park time too.
            let mut sp = tracer.span(Layer::PeerFetch);
            sp.set_detail(ident);
            match self.fetch_flight.join(ident) {
                Join::Lead(leader) => {
                    sp.set_status(SpanStatus::Leader);
                    if sp.on() {
                        // Tag the flight with our span id so waiter spans
                        // can name the span they parked behind.
                        leader.annotate(sp.id());
                    }
                    // The wire fetch runs under the PeerFetch span, so the
                    // donor's serve span parents beneath it.
                    return match peer_fetch(connector, addr, key) {
                        Ok(value) => {
                            self.stats
                                .fetch_flight_leaders
                                .fetch_add(1, Ordering::Relaxed);
                            if leader.publish(value.clone()) == Publish::Stale {
                                self.stats
                                    .fetch_flight_retries
                                    .fetch_add(1, Ordering::Relaxed);
                                Ok(None)
                            } else {
                                Ok(value)
                            }
                        }
                        Err(err) => {
                            sp.set_status(SpanStatus::Error);
                            drop(leader); // poison: waiters re-elect
                            Err(err)
                        }
                    };
                }
                Join::Value(value, leader_span) => {
                    sp.set_status(SpanStatus::Waiter);
                    sp.set_detail(leader_span);
                    self.stats
                        .fetch_coalesced_waits
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                Join::Retry => {
                    sp.cancel();
                    self.stats
                        .fetch_flight_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Lap budget exhausted (scrub storm or repeated leader failure):
        // an uncoalesced fetch beats spinning forever.
        peer_fetch(connector, addr, key)
    }

    /// The outbound-fetch flight group (test/observability hook).
    pub fn fetch_flight(&self) -> &FlightGroup<u64, Option<Bytes>> {
        &self.fetch_flight
    }

    /// Serve one accepted connection until EOF.
    fn serve_conn(&self, stream: &mut (impl io::Read + io::Write)) -> io::Result<()> {
        while let Some(frame) = ClusterFrame::read_from(stream)? {
            let ClusterFrame::FetchReq { key, trace } = frame else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected fetch answer on server side",
                ));
            };
            // Adopt the requester's trace context for the serve span, and
            // echo (trace id, serve span id) back so the requester can see
            // the donor's side of the leg.
            let _ctx = trace.map(|(tid, sid)| dpc_trace::enter(tid, sid));
            let tracer = self.tracer.lock().clone();
            let mut sp = tracer.span(Layer::PeerServe);
            sp.set_detail(u64::from(key));
            let echo = sp.on().then(|| (sp.trace_id(), sp.id()));
            // Exactly one of {hit, miss} per wire fetch.
            let resp = match self.store.get(DpcKey(key)) {
                Some(body) => {
                    sp.set_status(SpanStatus::Hit);
                    self.stats.fetch_hits.fetch_add(1, Ordering::Relaxed);
                    ClusterFrame::FetchResp {
                        hit: true,
                        body: body.to_vec(),
                        trace: echo,
                    }
                }
                None => {
                    sp.set_status(SpanStatus::Miss);
                    self.stats.fetch_misses.fetch_add(1, Ordering::Relaxed);
                    ClusterFrame::FetchResp {
                        hit: false,
                        body: Vec::new(),
                        trace: echo,
                    }
                }
            };
            drop(sp);
            resp.write_to(stream)?;
        }
        Ok(())
    }
}

/// The accept-loop thread of one node's peer service.
pub struct PeerServer {
    net: Arc<SimNetwork>,
    addr: String,
    handle: Option<JoinHandle<()>>,
}

impl PeerServer {
    /// Listen at [`peer_addr`]`(node.id())` on `net` and serve until
    /// [`stop`](PeerServer::stop) (or network teardown).
    pub fn spawn(net: &Arc<SimNetwork>, node: &Arc<PeerNode>) -> PeerServer {
        let addr = peer_addr(node.id());
        let listener = net.listen(&addr);
        let node = Arc::clone(node);
        let handle = std::thread::Builder::new()
            .name(format!("peer-{}", node.id()))
            .spawn(move || {
                use dpc_net::stream::Listener;
                // Accept until the listener is closed (unlisten / teardown).
                while let Ok(mut stream) = listener.accept() {
                    // A peer dropping mid-exchange is routine (it saw a
                    // membership change); only this connection dies.
                    let _ = node.serve_conn(&mut stream);
                }
            })
            .expect("spawn peer server");
        PeerServer {
            net: Arc::clone(net),
            addr,
            handle: Some(handle),
        }
    }

    /// Service address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Close the listener (future connects are refused) and join the accept
    /// thread.
    pub fn stop(&mut self) {
        self.net.unlisten(&self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PeerServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Fetch one slot from the peer service at `addr`. `Ok(None)` = the peer
/// answered but has nothing; `Err` = could not reach/speak to the peer.
pub fn peer_fetch(connector: &dyn Connector, addr: &str, key: DpcKey) -> io::Result<Option<Bytes>> {
    let mut stream = connector.connect(addr)?;
    ClusterFrame::FetchReq {
        key: key.0,
        // The calling thread's span context rides the frame, so the
        // donor's serve span lands in the same trace.
        trace: dpc_trace::current(),
    }
    .write_to(&mut stream)?;
    match ClusterFrame::read_from(&mut stream)? {
        Some(ClusterFrame::FetchResp {
            hit: true, body, ..
        }) => Ok(Some(Bytes::from(body))),
        Some(ClusterFrame::FetchResp { hit: false, .. }) => Ok(None),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected fetch answer, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn world(ids: &[u32]) -> (Arc<SimNetwork>, Vec<(Arc<PeerNode>, PeerServer)>) {
        let net = SimNetwork::with_defaults();
        let nodes = ids
            .iter()
            .map(|id| {
                let store = Arc::new(FragmentStore::new(64));
                let node = PeerNode::new(*id, store);
                let server = PeerServer::spawn(&net, &node);
                (node, server)
            })
            .collect();
        (net, nodes)
    }

    #[test]
    fn fetch_roundtrip_hit_and_miss() {
        let (net, nodes) = world(&[0]);
        let (node, _server) = &nodes[0];
        node.store.set(DpcKey(7), Bytes::from_static(b"fragment"));
        let conn = net.connector();
        let got = peer_fetch(&conn, &peer_addr(0), DpcKey(7)).unwrap();
        assert_eq!(got.unwrap(), Bytes::from_static(b"fragment"));
        assert_eq!(peer_fetch(&conn, &peer_addr(0), DpcKey(8)).unwrap(), None);
        assert_eq!(node.stats().fetch_hits.load(Ordering::Relaxed), 1);
        assert_eq!(node.stats().fetch_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scrub_empties_the_freed_slots_and_counts_them() {
        let node = PeerNode::new(0, Arc::new(FragmentStore::new(64)));
        node.store.set(DpcKey(3), Bytes::from_static(b"old"));
        node.store.set(DpcKey(4), Bytes::from_static(b"kept"));
        // Key 5 is freed but this node never held it: nothing to count.
        node.scrub(&[DpcKey(3), DpcKey(5)]);
        assert_eq!(node.store.get(DpcKey(3)), None);
        assert_eq!(node.store.get(DpcKey(4)), Some(Bytes::from_static(b"kept")));
        assert_eq!(node.stats().slots_scrubbed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stopped_server_refuses_connections() {
        let (net, mut nodes) = world(&[0]);
        nodes[0].1.stop();
        let err = peer_fetch(&net.connector(), &peer_addr(0), DpcKey(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    /// A [`Connector`] that runs a closure before every dial — lets a test
    /// hold the leader's wire fetch open until the rest of the crowd has
    /// parked on the flight.
    struct GateConnector<C: Connector, F: Fn() + Send + Sync> {
        inner: C,
        gate: F,
    }

    impl<C: Connector, F: Fn() + Send + Sync> Connector for GateConnector<C, F> {
        fn connect(&self, addr: &str) -> io::Result<dpc_net::stream::BoxStream> {
            (self.gate)();
            self.inner.connect(addr)
        }
    }

    #[test]
    fn concurrent_peer_fetches_coalesce_into_one_wire_fetch() {
        const CROWD: usize = 8;
        let (net, nodes) = world(&[0, 1]);
        let (donor, _sd) = &nodes[0];
        let (requester, _sr) = &nodes[1];
        donor
            .store
            .set(DpcKey(42), Bytes::from_static(b"donor-bytes"));

        // The leader's dial blocks until all seven others are parked, so
        // the coalescing is exact rather than racy.
        let gate_node = Arc::clone(requester);
        let connector = GateConnector {
            inner: net.connector(),
            gate: move || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while gate_node.fetch_flight.parked_waiters(42) < CROWD as u32 - 1 {
                    assert!(std::time::Instant::now() < deadline, "crowd never parked");
                    std::thread::yield_now();
                }
            },
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CROWD)
                .map(|_| {
                    s.spawn(|| {
                        requester
                            .coalesced_fetch(&connector, &peer_addr(0), DpcKey(42))
                            .unwrap()
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(
                    handle.join().unwrap().unwrap(),
                    Bytes::from_static(b"donor-bytes")
                );
            }
        });
        // Satellite check: the donor's hit/miss counters count *wire*
        // fetches, so the whole crowd moved them by exactly one.
        let hits = donor.stats.fetch_hits.load(Ordering::Relaxed);
        let misses = donor.stats.fetch_misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 1, "one wire fetch for the whole crowd");
        assert_eq!(hits, 1);
        let stats = requester.stats();
        assert_eq!(stats.fetch_flight_leaders.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.fetch_coalesced_waits.load(Ordering::Relaxed),
            CROWD as u64 - 1
        );
        assert_eq!(stats.fetch_flight_retries.load(Ordering::Relaxed), 0);
        requester.fetch_flight.check_invariants().unwrap();
    }

    #[test]
    fn scrub_mid_fetch_discards_the_stale_bytes() {
        let (net, nodes) = world(&[0, 1]);
        let (donor, _sd) = &nodes[0];
        let (requester, _sr) = &nodes[1];
        donor
            .store
            .set(DpcKey(9), Bytes::from_static(b"pre-invalidation"));

        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let connector = GateConnector {
            inner: net.connector(),
            gate: {
                let release = Arc::clone(&release);
                move || {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            },
        };
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                requester
                    .coalesced_fetch(&connector, &peer_addr(0), DpcKey(9))
                    .unwrap()
            });
            while !requester.fetch_flight.in_flight(9) {
                std::thread::yield_now();
            }
            // The invalidation lands while the fetch is on the wire: the
            // bytes coming back predate it and must not be handed out.
            requester.scrub(&[DpcKey(9)]);
            release.store(true, Ordering::Release);
            assert_eq!(
                handle.join().unwrap(),
                None,
                "stale fetch is discarded; the caller escalates"
            );
        });
        let stats = requester.stats();
        assert_eq!(stats.fetch_flight_retries.load(Ordering::Relaxed), 1);
        assert_eq!(stats.fetch_flight_leaders.load(Ordering::Relaxed), 1);
        requester.fetch_flight.check_invariants().unwrap();
    }

    #[test]
    fn failed_leader_poisons_and_a_waiter_relays_the_fetch() {
        // Donor 0 is *down* for the first dial (gate stops the server),
        // then up: the first leader errors, poisoning the flight; retriers
        // re-elect and succeed.
        let (net, nodes) = world(&[1]);
        let (requester, _sr) = &nodes[0];
        let conn = net.connector();
        // Nobody listens at peer 0 yet: the lone leader fails cleanly.
        let err = requester
            .coalesced_fetch(&conn, &peer_addr(0), DpcKey(5))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(
            requester
                .stats()
                .fetch_flight_leaders
                .load(Ordering::Relaxed),
            0,
            "a failed wire fetch led nothing"
        );
        // The poisoned tombstone must not wedge the key: bring the donor
        // up and fetch again.
        let donor_store = Arc::new(FragmentStore::new(64));
        donor_store.set(DpcKey(5), Bytes::from_static(b"recovered"));
        let donor = PeerNode::new(0, donor_store);
        let _server = PeerServer::spawn(&net, &donor);
        let got = requester
            .coalesced_fetch(&conn, &peer_addr(0), DpcKey(5))
            .unwrap();
        assert_eq!(got.unwrap(), Bytes::from_static(b"recovered"));
        requester.fetch_flight.check_invariants().unwrap();
    }
}
