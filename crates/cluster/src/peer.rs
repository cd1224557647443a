//! Proxy-to-proxy transport: the peer-fetch service and gossip exchange.
//!
//! Each cluster node runs one [`PeerServer`] — a thread accepting
//! connections at `dpc-peer-<id>` on the shared [`SimNetwork`] and speaking
//! the [`dpc_net::frame`] message family:
//!
//! * [`ClusterFrame::FetchReq`] — answer from the local slot store (lazy
//!   key-range handoff after a join: the new owner pulls, the donor
//!   serves).
//! * [`ClusterFrame::GossipSyn`] — an anti-entropy round opened by a peer:
//!   reply with the events the opener lacks, then read the opener's
//!   reverse delta and apply it (push-pull in one connection).
//! * An unsolicited [`ClusterFrame::GossipDelta`] — accepted too (pure
//!   push), which is what a gracefully leaving node sends to flush.
//!
//! Connections are handled inline on the accept thread, one at a time:
//! exchanges are short, servers never dial out (so no dial cycle can
//! deadlock), and a one-connection-at-a-time server makes the feed's
//! apply path trivially race-free with respect to its own fetches.
//!
//! Applying an event always means the same thing: merge it into the feed
//! and *scrub* its freed keys from the local slot store
//! ([`PeerNode::apply_and_scrub`]), converting the cluster-wide stale-splice
//! hazard into a clean `MissingFragment` miss.
//!
//! Every exchange also teaches the node the partner's version vector
//! (`GossipSyn` and `GossipDelta` both carry one); [`PeerNode::truncate`]
//! turns those observations into a watermark — the pointwise minimum over
//! every alive node's last-known vector, unknown nodes counting as zero —
//! and trims the feed's per-origin logs below it, so long-running clusters
//! stay bounded. Deltas carry the sender's truncation floor; a receiver
//! behind it (a fresh joiner, whose empty store has nothing to scrub)
//! fast-forwards to the floor instead of waiting for events nobody stores.

use bytes::Bytes;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dpc_core::{CoherencyEpoch, DpcKey, FlightGroup, FragmentStore, Join, Publish};
use dpc_net::frame::ClusterFrame;
use dpc_net::stream::Connector;
use dpc_net::SimNetwork;
use dpc_trace::{Layer, SpanStatus, Tracer};
use std::collections::HashMap;

use crate::feed::{FeedEvent, InvalidationFeed};
use crate::version::VersionVector;

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
    /// Conditional fetches answered hash-only: the requester's `known`
    /// identity matched the slot, so no body moved. Counted *instead of*
    /// a hit — `fetch_hits + fetch_misses` stays exactly the number of
    /// wire fetches that moved (or would have moved) a body, preserving
    /// the once-per-wire-fetch coalescing contract.
    pub fetch_not_modified: AtomicU64,
    /// Outbound fetches this node led on the wire.
    pub fetch_flight_leaders: AtomicU64,
    /// Outbound fetches served by parking on a concurrent leader's wire
    /// fetch for the same key (no connection was opened).
    pub fetch_coalesced_waits: AtomicU64,
    /// Fetch flights retried or discarded: a scrub landed mid-fetch (the
    /// fetched bytes predate the invalidation) or a leader failed.
    pub fetch_flight_retries: AtomicU64,
    /// Gossip exchanges served (as the passive side).
    pub gossip_served: AtomicU64,
    /// Events newly applied here (any direction).
    pub events_applied: AtomicU64,
    /// Slots scrubbed by applied events.
    pub slots_scrubbed: AtomicU64,
    /// Feed events dropped by watermark truncation.
    pub events_truncated: AtomicU64,
}

/// One node's gossip/fetch state: its slot store, its feed, its counters.
/// Shared between the node's [`PeerServer`] thread (passive side) and the
/// cluster driver (active side: [`gossip_exchange`], local records).
pub struct PeerNode {
    id: u32,
    store: Arc<FragmentStore>,
    feed: Mutex<InvalidationFeed>,
    /// Last version vector observed from each peer (gossip syns, deltas
    /// and acks all carry one). Monotone per peer; the raw material for
    /// the truncation watermark.
    peer_vvs: Mutex<HashMap<u32, VersionVector>>,
    /// Single-flight for *outbound* fetches: concurrent misses for the
    /// same key collapse into one wire round trip to the donor (see
    /// [`PeerNode::coalesced_fetch`]). `Ok(None)` answers coalesce too —
    /// a donor that doesn't have the slot shouldn't be asked N times.
    fetch_flight: FlightGroup<u64, Option<Bytes>>,
    /// The node's page-tier coherency epoch, when the front runs one.
    /// Scrubbing fragment slots is not enough once assembled pages are
    /// cached above the slot store: a page built *from* a freed fragment
    /// stays servable unless its stamp is outdated, so every scrub that
    /// frees keys bumps this epoch too.
    coherence: Mutex<Option<CoherencyEpoch>>,
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
            feed: Mutex::new(InvalidationFeed::new(id)),
            peer_vvs: Mutex::new(HashMap::new()),
            fetch_flight: FlightGroup::new(),
            coherence: Mutex::new(None),
            stats: PeerStats::default(),
            tracer: Mutex::new(Tracer::off()),
        })
    }

    /// Install the span tracer (replacing any previous one).
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock() = tracer;
    }

    /// Attach the front's page-tier coherency epoch: from now on, every
    /// scrub that frees at least one key bumps it, so assembled pages
    /// containing the freed fragments stop being servable on their next
    /// touch (both the shared L2 and every loop's L1 validate stamps
    /// against this epoch).
    pub fn set_coherence(&self, epoch: CoherencyEpoch) {
        *self.coherence.lock() = Some(epoch);
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

    /// Snapshot of the feed's version vector.
    pub fn vv(&self) -> VersionVector {
        self.feed.lock().vv().clone()
    }

    /// Snapshot of the feed's truncation floor.
    pub fn floor(&self) -> VersionVector {
        self.feed.lock().floor().clone()
    }

    /// Feed events currently retained (shrinks under truncation).
    pub fn feed_len(&self) -> usize {
        self.feed.lock().len()
    }

    /// Record the version vector a peer just advertised. Merged (vectors
    /// only grow), so a stale exchange can never regress the knowledge.
    fn note_peer_vv(&self, peer: u32, vv: &VersionVector) {
        if peer == self.id {
            return;
        }
        self.peer_vvs.lock().entry(peer).or_default().merge(vv);
    }

    /// Drop everything learned from `peer` — called when that node leaves
    /// or fails. A recycled node id therefore counts as unknown (blocking
    /// truncation) until its *new* incarnation advertises a vector;
    /// otherwise the dead incarnation's possibly-higher vector could raise
    /// the watermark past what the live one has applied and truncate
    /// events it still needs.
    pub fn forget_peer(&self, peer: u32) {
        self.peer_vvs.lock().remove(&peer);
    }

    /// Truncate the feed below the watermark that every node in `alive`
    /// provably dominates: the pointwise minimum of this node's own vector
    /// and the last vector observed from each other alive node (a node
    /// never heard from counts as zero, which blocks truncation until it
    /// has gossiped — conservative and safe). Returns the events dropped.
    pub fn truncate(&self, alive: &[u32]) -> usize {
        let mut watermark = self.vv();
        {
            let peer_vvs = self.peer_vvs.lock();
            for node in alive {
                if *node == self.id {
                    continue;
                }
                match peer_vvs.get(node) {
                    Some(vv) => watermark = watermark.pointwise_min(vv),
                    None => return 0, // an alive node we know nothing about
                }
            }
        }
        let dropped = self.feed.lock().truncate_below(&watermark);
        self.stats
            .events_truncated
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Record a locally originated invalidation event and scrub this node's
    /// own slots. Returns the event (the origin's copy is already applied).
    pub fn record_local(&self, dep: &str, keys: Vec<DpcKey>) -> FeedEvent {
        let event = self.feed.lock().record(dep, keys);
        self.scrub(std::slice::from_ref(&event));
        event
    }

    /// Apply a received delta: merge fresh events into the feed, scrub
    /// their freed keys from the slot store. Returns how many events were
    /// new here.
    pub fn apply_and_scrub(&self, events: &[FeedEvent]) -> usize {
        if events.is_empty() {
            return 0;
        }
        let fresh = self.feed.lock().apply(events);
        self.stats
            .events_applied
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        self.scrub(&fresh);
        fresh.len()
    }

    fn scrub(&self, events: &[FeedEvent]) {
        let mut scrubbed = 0u64;
        let mut freed_any = false;
        for event in events {
            for key in &event.keys {
                freed_any = true;
                if self.store.clear_key(*key) {
                    scrubbed += 1;
                }
                // A fetch of this key on the wire right now would deliver
                // pre-invalidation bytes — stamp the flight stale so the
                // leader discards instead of publishing.
                self.fetch_flight.invalidate(u64::from(key.0));
            }
        }
        // Freed keys may be baked into assembled pages cached above this
        // store — an event names keys even when the local slot was already
        // empty, so the bump keys off the event, not `scrubbed`.
        if freed_any {
            if let Some(epoch) = self.coherence.lock().as_ref() {
                epoch.bump();
            }
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

    /// Delta of everything this node has that `other` lacks.
    pub fn delta_since(&self, other: &VersionVector) -> Vec<FeedEvent> {
        self.feed.lock().delta_since(other)
    }

    /// Consume the peer's applied-ack for a pushed delta, recording the
    /// (now merged) vector it advertises.
    fn read_delta_ack(&self, stream: &mut (impl io::Read + io::Write)) -> io::Result<()> {
        match ClusterFrame::read_from(stream)? {
            Some(ClusterFrame::GossipDelta { from, vv, .. }) => {
                self.note_peer_vv(from, &VersionVector::from_wire(&vv));
                Ok(())
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected delta ack, got {other:?}"),
            )),
        }
    }

    /// Serve one accepted connection until EOF.
    fn serve_conn(&self, stream: &mut (impl io::Read + io::Write)) -> io::Result<()> {
        while let Some(frame) = ClusterFrame::read_from(stream)? {
            match frame {
                ClusterFrame::FetchReq { key, known, trace } => {
                    // Adopt the requester's trace context for the serve
                    // span, and echo (trace id, serve span id) back so the
                    // requester can see the donor's side of the leg.
                    let _ctx = trace.map(|(tid, sid)| dpc_trace::enter(tid, sid));
                    let tracer = self.tracer.lock().clone();
                    let mut sp = tracer.span(Layer::PeerServe);
                    sp.set_detail(u64::from(key));
                    let echo = sp.on().then(|| (sp.trace_id(), sp.id()));
                    // Exactly one of {hit, miss, not_modified} per wire
                    // fetch: the donor-side meter counts bodies moved
                    // (hits), empty answers (misses), and hash-only
                    // revalidations (not_modified) disjointly.
                    // The slot's stored hash answers the validator check;
                    // no byte of the body is rehashed.
                    let resp = match self.store.get_hashed(DpcKey(key)) {
                        Some((_, hash)) if known != 0 && hash == known => {
                            sp.set_status(SpanStatus::Revalidated);
                            self.stats
                                .fetch_not_modified
                                .fetch_add(1, Ordering::Relaxed);
                            ClusterFrame::FetchNotModified { hash: known }
                        }
                        Some((body, _)) => {
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
                ClusterFrame::GossipSyn { from, vv } => {
                    self.stats.gossip_served.fetch_add(1, Ordering::Relaxed);
                    let opener_vv = VersionVector::from_wire(&vv);
                    self.note_peer_vv(from, &opener_vv);
                    // Snapshot under one short lock: our vector + their delta.
                    let (my_vv, my_floor, delta) = {
                        let feed = self.feed.lock();
                        (
                            feed.vv().clone(),
                            feed.floor().clone(),
                            feed.delta_since(&opener_vv),
                        )
                    };
                    ClusterFrame::GossipDelta {
                        from: self.id,
                        vv: my_vv.to_wire(),
                        floor: my_floor.to_wire(),
                        events: delta.iter().map(FeedEvent::to_wire).collect(),
                    }
                    .write_to(stream)?;
                    // The opener's reverse delta (or EOF) arrives next; the
                    // loop handles it as an unsolicited GossipDelta.
                }
                ClusterFrame::GossipDelta {
                    from,
                    vv,
                    floor,
                    events,
                } => {
                    self.note_peer_vv(from, &VersionVector::from_wire(&vv));
                    // Adopt the sender's truncation floor first: if we are
                    // behind it (fresh node, empty store) the suffix below
                    // would otherwise be an unfillable gap.
                    self.feed
                        .lock()
                        .fast_forward(&VersionVector::from_wire(&floor));
                    let events: Vec<FeedEvent> = events.iter().map(FeedEvent::from_wire).collect();
                    self.apply_and_scrub(&events);
                    // Ack with our (now merged) vector, so a pusher that
                    // waits on it knows the delta is *applied*, not merely
                    // buffered — senders rely on this for read-your-pushes
                    // ordering across subsequent exchanges.
                    ClusterFrame::GossipDelta {
                        from: self.id,
                        vv: self.vv().to_wire(),
                        floor: self.floor().to_wire(),
                        events: Vec::new(),
                    }
                    .write_to(stream)?;
                }
                ClusterFrame::FetchResp { .. } | ClusterFrame::FetchNotModified { .. } => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected fetch answer on server side",
                    ));
                }
            }
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

/// How a conditional peer fetch ([`peer_fetch_conditional`]) resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerFetch {
    /// The donor shipped the slot's bytes.
    Fetched(Bytes),
    /// The requester's `known` hash matched the donor's slot: its local
    /// bytes are current and only the hash crossed the wire.
    NotModified,
    /// The donor's slot is empty.
    Miss,
}

/// Fetch one slot from the peer service at `addr`. `Ok(None)` = the peer
/// answered but has nothing; `Err` = could not reach/speak to the peer.
pub fn peer_fetch(connector: &dyn Connector, addr: &str, key: DpcKey) -> io::Result<Option<Bytes>> {
    match peer_fetch_conditional(connector, addr, key, 0)? {
        PeerFetch::Fetched(bytes) => Ok(Some(bytes)),
        // known == 0 means unconditional: the donor can never answer
        // NotModified, so this arm only covers Miss.
        _ => Ok(None),
    }
}

/// Conditionally fetch one slot: `known` is the
/// [`dpc_core::content_hash`] of the bytes the requester already holds
/// (`0` = fetch unconditionally). A donor whose slot's stored hash matches
/// answers with the hash alone — [`PeerFetch::NotModified`] — and the
/// body never crosses the wire.
pub fn peer_fetch_conditional(
    connector: &dyn Connector,
    addr: &str,
    key: DpcKey,
    known: u64,
) -> io::Result<PeerFetch> {
    let mut stream = connector.connect(addr)?;
    ClusterFrame::FetchReq {
        key: key.0,
        known,
        // The calling thread's span context rides the frame, so the
        // donor's serve span lands in the same trace.
        trace: dpc_trace::current(),
    }
    .write_to(&mut stream)?;
    match ClusterFrame::read_from(&mut stream)? {
        Some(ClusterFrame::FetchResp {
            hit: true, body, ..
        }) => Ok(PeerFetch::Fetched(Bytes::from(body))),
        Some(ClusterFrame::FetchResp { hit: false, .. }) => Ok(PeerFetch::Miss),
        Some(ClusterFrame::FetchNotModified { hash }) if known != 0 && hash == known => {
            Ok(PeerFetch::NotModified)
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected fetch answer, got {other:?}"),
        )),
    }
}

/// Outcome of one active-side anti-entropy exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipOutcome {
    /// Events newly applied locally (pulled from the peer).
    pub pulled: usize,
    /// Events shipped to the peer (they were missing them as of their
    /// advertised vector; the peer deduplicates on its side).
    pub pushed: usize,
}

/// Run one push-pull anti-entropy exchange from `node` (active side) with
/// the peer service at `addr`.
pub fn gossip_exchange(
    connector: &dyn Connector,
    addr: &str,
    node: &PeerNode,
) -> io::Result<GossipOutcome> {
    let mut stream = connector.connect(addr)?;
    let my_vv = node.vv();
    ClusterFrame::GossipSyn {
        from: node.id(),
        vv: my_vv.to_wire(),
    }
    .write_to(&mut stream)?;
    let Some(ClusterFrame::GossipDelta {
        from,
        vv,
        floor,
        events,
        ..
    }) = ClusterFrame::read_from(&mut stream)?
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected GossipDelta reply",
        ));
    };
    let peer_vv = VersionVector::from_wire(&vv);
    node.note_peer_vv(from, &peer_vv);
    // Adopt the peer's truncation floor before applying: a fresh node
    // below it would otherwise see the suffix as an unfillable gap.
    node.feed
        .lock()
        .fast_forward(&VersionVector::from_wire(&floor));
    let incoming: Vec<FeedEvent> = events.iter().map(FeedEvent::from_wire).collect();
    let pulled = node.apply_and_scrub(&incoming);
    // Reverse delta: everything we now have that the peer lacked.
    let reverse = node.delta_since(&peer_vv);
    let pushed = reverse.len();
    if pushed > 0 {
        ClusterFrame::GossipDelta {
            from: node.id(),
            vv: node.vv().to_wire(),
            floor: node.floor().to_wire(),
            events: reverse.iter().map(FeedEvent::to_wire).collect(),
        }
        .write_to(&mut stream)?;
        node.read_delta_ack(&mut stream)?;
    }
    Ok(GossipOutcome { pulled, pushed })
}

/// Push this node's entire feed to the peer at `addr` without pulling —
/// the flush a gracefully leaving node performs.
pub fn gossip_flush(connector: &dyn Connector, addr: &str, node: &PeerNode) -> io::Result<usize> {
    let delta = node.delta_since(&VersionVector::new());
    if delta.is_empty() {
        return Ok(0);
    }
    let mut stream = connector.connect(addr)?;
    ClusterFrame::GossipDelta {
        from: node.id(),
        vv: node.vv().to_wire(),
        floor: node.floor().to_wire(),
        events: delta.iter().map(FeedEvent::to_wire).collect(),
    }
    .write_to(&mut stream)?;
    node.read_delta_ack(&mut stream)?;
    Ok(delta.len())
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
    fn conditional_fetch_revalidates_without_moving_bytes() {
        let (net, nodes) = world(&[0]);
        let (donor, _server) = &nodes[0];
        donor.store.set(DpcKey(7), Bytes::from_static(b"fragment"));
        let conn = net.connector();
        let hash = dpc_core::content_hash(b"fragment");
        // Matching identity: hash-only answer, no body on the wire.
        assert_eq!(
            peer_fetch_conditional(&conn, &peer_addr(0), DpcKey(7), hash).unwrap(),
            PeerFetch::NotModified
        );
        // Outdated identity: the donor ships the current bytes.
        assert_eq!(
            peer_fetch_conditional(&conn, &peer_addr(0), DpcKey(7), hash ^ 1).unwrap(),
            PeerFetch::Fetched(Bytes::from_static(b"fragment"))
        );
        // Empty slot: a miss, conditional or not.
        assert_eq!(
            peer_fetch_conditional(&conn, &peer_addr(0), DpcKey(8), hash).unwrap(),
            PeerFetch::Miss
        );
        // Each wire fetch moved exactly one of the three meters.
        let stats = donor.stats();
        assert_eq!(stats.fetch_not_modified.load(Ordering::Relaxed), 1);
        assert_eq!(stats.fetch_hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.fetch_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn gossip_exchange_is_push_pull() {
        let (net, nodes) = world(&[0, 1]);
        let (a, _sa) = &nodes[0];
        let (b, _sb) = &nodes[1];
        // Both sides hold slot 3; an event recorded at A frees key 3.
        a.store.set(DpcKey(3), Bytes::from_static(b"stale"));
        b.store.set(DpcKey(3), Bytes::from_static(b"stale"));
        a.record_local("tbl/x", vec![DpcKey(3)]);
        assert_eq!(a.store.get(DpcKey(3)), None, "origin scrubs itself");
        // B records its own event too, so the exchange moves both ways.
        b.record_local("tbl/y", vec![]);

        let conn = net.connector();
        let outcome = gossip_exchange(&conn, &peer_addr(1), a).unwrap();
        assert_eq!(
            outcome,
            GossipOutcome {
                pulled: 1, // B's event reached A
                pushed: 1, // A's event reached B
            }
        );
        assert_eq!(a.vv(), b.vv(), "one exchange converges two nodes");
        assert_eq!(b.store.get(DpcKey(3)), None, "receiver scrubbed the key");
        assert_eq!(b.stats().slots_scrubbed.load(Ordering::Relaxed), 1);
        // A second exchange moves nothing.
        let outcome = gossip_exchange(&conn, &peer_addr(1), a).unwrap();
        assert_eq!(outcome, GossipOutcome::default());
    }

    #[test]
    fn flush_pushes_without_pulling() {
        let (net, nodes) = world(&[0, 1]);
        let (a, _sa) = &nodes[0];
        let (b, _sb) = &nodes[1];
        a.record_local("tbl/a", vec![]);
        a.record_local("tbl/b", vec![]);
        b.record_local("tbl/c", vec![]);
        let conn = net.connector();
        assert_eq!(gossip_flush(&conn, &peer_addr(1), a).unwrap(), 2);
        assert_eq!(b.vv().get(0), 2, "flush delivered A's events");
        assert_eq!(a.vv().get(1), 0, "flush must not pull");
    }

    #[test]
    fn stopped_server_refuses_connections() {
        let (net, mut nodes) = world(&[0]);
        nodes[0].1.stop();
        let err = peer_fetch(&net.connector(), &peer_addr(0), DpcKey(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn truncation_drops_prefixes_every_alive_node_dominates() {
        let (net, nodes) = world(&[0, 1, 2]);
        let (a, _) = &nodes[0];
        let (b, _) = &nodes[1];
        let (c, _) = &nodes[2];
        for i in 0..6 {
            a.record_local(&format!("tbl/t{i}"), vec![DpcKey(i)]);
        }
        let conn = net.connector();
        // Before anyone has heard from everyone, truncation is blocked
        // (an unknown alive node counts as zero).
        assert_eq!(a.truncate(&[0, 1, 2]), 0);
        // All-pairs exchanges: every node applies everything and learns
        // every other node's vector.
        for (active, _) in &nodes {
            for target in 0..3u32 {
                if target != active.id() {
                    gossip_exchange(&conn, &peer_addr(target), active).unwrap();
                }
            }
        }
        assert_eq!(a.vv(), b.vv());
        assert_eq!(b.vv(), c.vv());
        // Now every node can drop the whole dominated log…
        assert_eq!(a.truncate(&[0, 1, 2]), 6);
        assert_eq!(a.feed_len(), 0);
        assert_eq!(a.stats().events_truncated.load(Ordering::Relaxed), 6);
        assert_eq!(b.truncate(&[0, 1, 2]), 6);
        // …while a node that must still serve an absent peer keeps it.
        assert_eq!(c.truncate(&[0, 1, 2, 3]), 0, "unknown node 3 pins the log");
        assert_eq!(c.feed_len(), 6);
        // Forgetting a departed peer (membership removal) blocks
        // truncation again until its new incarnation re-advertises.
        c.forget_peer(0);
        assert_eq!(c.truncate(&[0, 1, 2]), 0, "forgotten peer pins the log");
        gossip_exchange(&conn, &peer_addr(0), c).unwrap();
        assert_eq!(c.truncate(&[0, 1, 2]), 6, "re-advertised vector unblocks");
        assert_eq!(c.feed_len(), 0);
        // A fresh node (empty store — nothing to scrub) joining after the
        // truncation fast-forwards to the floor and converges anyway.
        let fresh = PeerNode::new(7, Arc::new(FragmentStore::new(64)));
        let _server = PeerServer::spawn(&net, &fresh);
        gossip_exchange(&conn, &peer_addr(0), &fresh).unwrap();
        assert_eq!(
            fresh.vv(),
            a.vv(),
            "joiner catches up past truncated history"
        );
        assert_eq!(fresh.feed_len(), 0);
        // And its own fresh events still flow back.
        fresh.record_local("tbl/new", vec![]);
        gossip_exchange(&conn, &peer_addr(0), &fresh).unwrap();
        assert_eq!(a.vv().get(7), 1);
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
            requester.record_local("tbl/hot", vec![DpcKey(9)]);
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

    #[test]
    fn third_party_events_are_forwarded() {
        // A's event reaches C via B, with A never talking to C.
        let (net, nodes) = world(&[0, 1, 2]);
        let (a, _) = &nodes[0];
        let (b, _) = &nodes[1];
        let (c, _) = &nodes[2];
        a.record_local("tbl/z", vec![DpcKey(5)]);
        c.store.set(DpcKey(5), Bytes::from_static(b"stale"));
        let conn = net.connector();
        gossip_exchange(&conn, &peer_addr(1), a).unwrap();
        gossip_exchange(&conn, &peer_addr(2), b).unwrap();
        assert_eq!(c.vv().get(0), 1);
        assert_eq!(c.store.get(DpcKey(5)), None, "forwarded event scrubbed C");
    }
}
