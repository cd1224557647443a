//! Readiness-driven keep-alive HTTP server: a `LoopSet` of event loops.
//!
//! The front is a set of `loops` independent event-loop threads (default
//! 1), each multiplexing its own share of the connections over a private
//! [`Poller`]: every connection is a small state machine (reading →
//! parsing → handling → writing) that advances whenever its stream reports
//! readiness, so 10k idle keep-alive clients cost 10k registrations and
//! zero threads. One event loop saturates one core; sharding connections
//! across N loops scales the front across cores SO_REUSEPORT-style — the
//! first loop owns the listener and hands each accepted stream to the
//! least-loaded loop (ties broken round-robin), which registers it with
//! its own poller and owns it for life. A parsed request runs its
//! [`Handler`] inline on the loop that parsed it, so a request crosses no
//! thread inside the server, and the loop count is the server's
//! parallelism. The response is queued on the same loop, which
//! serializes it as a segment list and drains it with vectored writes.
//! A [`Body::Rope`](crate::message::Body) therefore reaches the wire
//! without ever being flattened: the cached fragments' refcounts are
//! bumped into the write queue and `write_vectored` scatters them out.
//!
//! The state machine resumes across partial reads (slow-loris headers and
//! bodies accumulate in a per-connection buffer without holding a thread)
//! and partial writes (a full send buffer parks the connection until the
//! poller reports it writable again). Pipelined requests are parsed from
//! the same buffer one at a time — responses stay in request order because
//! the next parse only happens after the previous response is queued.
//!
//! **Write-side admission control.** Queued-but-unsent response bytes are
//! charged against two budgets: a per-connection output cap and a global
//! (all loops) output budget. While either is exceeded the loop stops
//! parsing that connection's pipelined requests — the backlog is bounded,
//! and the excess input parks in the transport where its flow control
//! applies. A client that keeps *sending* while over budget instead of
//! draining its responses is a slow-client attack (or a broken peer):
//! after a few delivered-input strikes with zero write progress it is
//! evicted — dropped, its queued output discarded and credited back — so
//! a reader that never drains can't balloon server memory. Flush progress
//! resets the strikes, and only reads that actually return bytes count
//! (readiness is a hint — a spurious event, or the polled tick of a
//! platform without epoll, reports maybe-ready with nothing to read), so
//! a merely-slow client that keeps draining, or one merely stalled on its
//! receive window, is never evicted.
//!
//! The handler is a plain trait object so the same server fronts the
//! application server, the proxy, and test fixtures.

use std::collections::HashMap;
use std::io::{self, IoSlice};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use dpc_metrics::{HistogramSnapshot, Outcome, OutcomeExemplars, OutcomeHistograms};
use dpc_net::{BoxNbListener, BoxNbStream, Clock, Poller, Ready, Registry, Token, WakeSet};
use dpc_trace::{Layer, RootCtx, SpanStatus, Tracer, TRACE_HEADER};

use crate::message::{Request, Response};
use crate::parse::{self, try_parse_request};
use crate::serialize::{self as ser, MAX_IOVEC};

/// Request handler.
///
/// `handle` runs on the event loop that parsed the request, and every
/// other connection of that loop waits until it returns; with several
/// loops it runs concurrently, so implementations must be thread-safe.
/// A handler may block on another server — the proxy fronts block on
/// their origin — but it must never send a request to its own server:
/// the loop that would answer it may be the one the handler is blocking.
/// A handler that panics answers `500` with `Connection: close`; the
/// loop keeps serving its other connections.
pub trait Handler: Send + Sync + 'static {
    fn handle(&self, req: Request) -> Response;
}

/// Closures are handlers.
impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// Default per-connection cap on queued-but-unsent response bytes.
pub const DEFAULT_CONN_OUTPUT_CAP: usize = 4 * 1024 * 1024;
/// Default global (all loops, all connections) output-buffer budget.
pub const DEFAULT_GLOBAL_OUTPUT_CAP: usize = 64 * 1024 * 1024;

/// Input deliveries (reads that returned bytes) tolerated from a
/// connection that is over its output budget with zero flush progress
/// before it is evicted. Progress resets the count, so only a peer that
/// keeps sending while never draining accumulates strikes; spurious
/// readiness events (and polled-tick reports) never count.
const EVICT_STRIKES: u32 = 4;

/// How long a stopping loop keeps flushing queued output before closing
/// connections anyway. Bounds
/// `stop()` against peers that never drain; well-behaved connections
/// finish long before this.
const SHUTDOWN_DRAIN_LIMIT: Duration = Duration::from_secs(2);

/// Counters of one event loop. The [`ServerHandle`] aggregates them and
/// exposes the per-loop split so accept-distribution skew is observable.
#[derive(Default, Debug)]
pub struct LoopStats {
    /// Connections ever placed on this loop.
    pub connections: AtomicU64,
    /// Requests parsed on this loop.
    pub requests: AtomicU64,
    /// Malformed requests rejected on this loop.
    pub parse_errors: AtomicU64,
    /// Slow-client evictions performed by this loop.
    pub evictions: AtomicU64,
    /// Connections currently owned by this loop (gauge; the accept loop
    /// pre-charges it at placement time so least-connections routing sees
    /// in-flight handoffs).
    pub live: AtomicU64,
    /// Poller wait-returns caused by the polled-source fallback tick
    /// (mirror of [`Poller::tick_count`]; the poller itself lives on the
    /// loop thread). Zero for a push-only loop — including every TCP loop
    /// on Linux, where epoll pushes readiness.
    pub tick_waits: AtomicU64,
}

/// Aggregated view over every loop's counters.
#[derive(Debug)]
pub struct ServerStats {
    per_loop: Vec<Arc<LoopStats>>,
    /// Per-loop request-latency histograms, one set per event loop so the
    /// hot path's `fetch_add`s never share a cache line across loops.
    /// Empty unless [`Server::with_request_metrics`] was set.
    latency: Vec<Arc<OutcomeHistograms>>,
    /// Per-loop latency exemplars (worst traced observation per outcome
    /// and bucket). Empty unless both request metrics and tracing are on.
    exemplars: Vec<Arc<OutcomeExemplars>>,
}

impl ServerStats {
    fn sum(&self, f: impl Fn(&LoopStats) -> &AtomicU64) -> u64 {
        self.per_loop
            .iter()
            .map(|l| f(l).load(Ordering::Relaxed))
            .sum()
    }

    pub fn connections(&self) -> u64 {
        self.sum(|l| &l.connections)
    }

    pub fn requests(&self) -> u64 {
        self.sum(|l| &l.requests)
    }

    pub fn parse_errors(&self) -> u64 {
        self.sum(|l| &l.parse_errors)
    }

    pub fn evictions(&self) -> u64 {
        self.sum(|l| &l.evictions)
    }

    /// Total fallback-tick poller waits across all loops. Zero over TCP on
    /// Linux and on a pure-sim workload: readiness is pushed, never
    /// polled.
    pub fn tick_waits(&self) -> u64 {
        self.sum(|l| &l.tick_waits)
    }

    /// Per-loop counter snapshots, indexed by loop.
    pub fn per_loop(&self) -> &[Arc<LoopStats>] {
        &self.per_loop
    }

    /// Per-loop request-latency histograms (empty unless
    /// [`Server::with_request_metrics`] was set), indexed by loop.
    pub fn latency_per_loop(&self) -> &[Arc<OutcomeHistograms>] {
        &self.latency
    }

    /// Merge the per-loop latency histograms into one snapshot per
    /// serving outcome — the scrape-time view.
    pub fn latency_merged(&self) -> [HistogramSnapshot; Outcome::COUNT] {
        OutcomeHistograms::merged(&self.latency)
    }

    /// Per-loop latency exemplars (empty unless both
    /// [`Server::with_request_metrics`] and a tracer were set).
    pub fn exemplars_per_loop(&self) -> &[Arc<OutcomeExemplars>] {
        &self.exemplars
    }

    /// Drain the per-loop exemplars into one worst-traced observation per
    /// (outcome, bucket) — the scrape-time view. Draining resets the
    /// slots, so each scrape window reports its own tail.
    pub fn exemplars_take_merged(&self) -> Vec<[dpc_metrics::Exemplar; dpc_metrics::BUCKETS]> {
        OutcomeExemplars::take_merged(&self.exemplars)
    }

    /// Currently-owned connections per loop — the accept-distribution
    /// balance.
    pub fn live_per_loop(&self) -> Vec<u64> {
        self.per_loop
            .iter()
            .map(|l| l.live.load(Ordering::Relaxed))
            .collect()
    }
}

/// An HTTP server bound to a nonblocking listener.
pub struct Server {
    listener: BoxNbListener,
    handler: Arc<dyn Handler>,
    loops: usize,
    conn_output_cap: usize,
    global_output_cap: usize,
    request_clock: Option<Clock>,
    tracer: Tracer,
}

impl Server {
    pub fn new(listener: BoxNbListener, handler: Arc<dyn Handler>) -> Server {
        Server {
            listener,
            handler,
            loops: 1,
            conn_output_cap: DEFAULT_CONN_OUTPUT_CAP,
            global_output_cap: DEFAULT_GLOBAL_OUTPUT_CAP,
            request_clock: None,
            tracer: Tracer::off(),
        }
    }

    /// Builder: shard connections across `loops` event-loop threads
    /// (clamped to at least 1). `loops: 1` is the classic single event
    /// loop and behaves identically to it.
    pub fn with_loops(mut self, loops: usize) -> Server {
        self.loops = loops.max(1);
        self
    }

    /// Builder: set the write-side admission-control budgets — the
    /// per-connection cap and the global (all loops) budget on
    /// queued-but-unsent response bytes.
    pub fn with_output_caps(mut self, per_conn: usize, global: usize) -> Server {
        self.conn_output_cap = per_conn.max(1);
        self.global_output_cap = global.max(1);
        self
    }

    /// Builder: record a per-request service-time histogram segmented by
    /// serving outcome (classified from the response's status and
    /// `X-Cache` header). Each event loop gets a
    /// private [`OutcomeHistograms`]; scrapes merge them via
    /// [`ServerStats::latency_merged`]. `clock` supplies timestamps —
    /// pass the virtual clock when running under `SimNetwork` so latency
    /// tests are deterministic, the real clock on the TCP path.
    pub fn with_request_metrics(mut self, clock: Clock) -> Server {
        self.request_clock = Some(clock);
        self
    }

    /// Builder: record a span per request into `tracer`'s flight recorder.
    /// The root span opens when a request finishes parsing (honouring an
    /// incoming `X-DPC-Trace-Id` so upstream hops stitch into one trace)
    /// and closes when its response is queued; the handler and everything
    /// it calls record child spans under it through the thread-local
    /// context.
    /// Pass a tracer built on a shared recorder so multiple servers
    /// (testbed origin + proxy, ring nodes) land their spans in one place.
    /// Without one the server records nothing.
    pub fn with_tracer(mut self, tracer: Tracer) -> Server {
        self.tracer = tracer;
        self
    }

    /// Start the loop set on background threads. The returned handle
    /// stops the server when dropped.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.listener.local_addr();
        let n = self.loops;
        let mut pollers = Vec::with_capacity(n);
        let mut loop_shared = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        let mut wake = WakeSet::new();
        for _ in 0..n {
            let poller = Poller::new();
            let (inbox_tx, inbox_rx) = unbounded();
            wake.add(Arc::clone(poller.registry()));
            loop_shared.push(LoopShared {
                registry: Arc::clone(poller.registry()),
                inbox_tx,
                stats: Arc::new(LoopStats::default()),
            });
            pollers.push(poller);
            inboxes.push(inbox_rx);
        }
        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            global_out: Arc::new(AtomicU64::new(0)),
            loops: loop_shared,
        });
        let latency: Vec<Arc<OutcomeHistograms>> = if self.request_clock.is_some() {
            (0..n).map(|_| Arc::new(OutcomeHistograms::new())).collect()
        } else {
            Vec::new()
        };
        let tracer = self.tracer;
        // Exemplars need both a latency observation and a trace id, so
        // they exist only when metrics and tracing are both on.
        let exemplars: Vec<Arc<OutcomeExemplars>> = if !latency.is_empty() && tracer.enabled() {
            (0..n).map(|_| Arc::new(OutcomeExemplars::new())).collect()
        } else {
            Vec::new()
        };
        let stats = ServerStats {
            per_loop: shared.loops.iter().map(|l| Arc::clone(&l.stats)).collect(),
            latency: latency.clone(),
            exemplars: exemplars.clone(),
        };
        let mut listener = Some(self.listener);
        let mut threads = Vec::with_capacity(n);
        for (index, (poller, inbox_rx)) in pollers.into_iter().zip(inboxes).enumerate() {
            let event_loop = LoopState {
                index,
                listener: listener.take(), // loop 0 owns the listener
                listener_dead: false,
                rr: index,
                handler: Arc::clone(&self.handler),
                stats: Arc::clone(&shared.loops[index].stats),
                shared: Arc::clone(&shared),
                poller,
                inbox_rx,
                conns: HashMap::new(),
                next_token: 1,
                conn_output_cap: self.conn_output_cap,
                global_output_cap: self.global_output_cap,
                clock: self.request_clock.clone(),
                latency: latency.get(index).cloned(),
                exemplars: exemplars.get(index).cloned(),
                tracer: tracer.clone(),
                stopping: false,
                budget_parked: std::collections::BTreeSet::new(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("http-loop-{addr}-{index}"))
                .spawn(move || event_loop.run())
                .expect("spawn event-loop thread");
            threads.push(thread);
        }
        ServerHandle {
            addr,
            stats,
            shared,
            wake,
            threads,
        }
    }
}

/// Token reserved for the listener; connections start at 1.
const LISTENER: Token = 0;

/// What every loop can see of its siblings: the wake/handoff surface.
struct LoopShared {
    registry: Arc<Registry>,
    inbox_tx: Sender<BoxNbStream>,
    stats: Arc<LoopStats>,
}

/// State shared by the whole loop set.
struct Shared {
    running: AtomicBool,
    /// Queued-but-unsent response bytes across every loop — the global
    /// half of the two-level output budget.
    global_out: Arc<AtomicU64>,
    loops: Vec<LoopShared>,
}

/// One connection's state: input buffer, write queue, output accounting,
/// and flags that sequence the reading → parsing → handling → writing
/// lifecycle.
struct Conn {
    stream: BoxNbStream,
    /// The read window: `rbuf[rpos..rend]` is read but not yet parsed.
    /// Reads land in `rbuf[rend..]`; the window is zeroed only when it
    /// grows, never per read, and bytes past `rend` are stale.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// How far past `rpos` the head-end search has looked (resumed there on
    /// the next chunk, so head scanning is linear, not quadratic).
    scan: usize,
    /// Total frame bytes the current request needs once its head is
    /// complete (0 = head not yet framed). Bounds the read budget and
    /// gates the full parse: a body arriving in many chunks is parsed —
    /// and its buffer allocated — exactly once.
    need: usize,
    /// Queued wire segments (response head + rope body segments, in
    /// response order) with the flush cursor into them.
    out: Vec<Bytes>,
    out_seg: usize,
    out_off: usize,
    /// Queued-but-unsent output bytes (this connection's half of the
    /// two-level budget). Mirrored into the shared global gauge; the
    /// remainder is credited back on drop, so eviction and teardown can
    /// never leak budget.
    out_bytes: usize,
    global_out: Arc<AtomicU64>,
    /// Readable events seen while over the output budget with no flush
    /// progress since. Reset by any successful write; at
    /// [`EVICT_STRIKES`] the connection is evicted.
    over_strikes: u32,
    /// The current request asked for `Connection: close`.
    close_pending: bool,
    /// Clock reading taken when the current request finished parsing;
    /// `complete_request` turns it into a latency observation.
    req_start: u64,
    /// Root span of the current request, opened at parse completion and
    /// finished when its response is queued, in the same pump pass.
    /// `None` between requests or when tracing is off.
    trace: Option<RootCtx>,
    /// Stop after draining `out` (close requested or fatal parse error).
    close_after_flush: bool,
    eof: bool,
    dead: bool,
}

/// Unparsed-input cap per connection beyond the current frame's needs: a
/// client pipelining faster than handlers drain parks here instead of
/// growing server memory without bound (the excess stays in the
/// transport's buffers, where its flow control applies).
const RBUF_SOFT_CAP: usize = 64 * 1024;

/// A connection's first read window; it doubles whenever a read finds it
/// full with nothing parsed to slide out of the way.
const RBUF_FIRST_WINDOW: usize = 4 * 1024;

impl Conn {
    fn new(stream: BoxNbStream, global_out: Arc<AtomicU64>) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            scan: 0,
            need: 0,
            out: Vec::new(),
            out_seg: 0,
            out_off: 0,
            out_bytes: 0,
            global_out,
            over_strikes: 0,
            close_pending: false,
            req_start: 0,
            trace: None,
            close_after_flush: false,
            eof: false,
            dead: false,
        }
    }

    /// Unparsed bytes this connection may buffer: the current frame in
    /// full (bodies may legitimately exceed the soft cap) plus slack.
    fn read_budget(&self) -> usize {
        self.need.saturating_add(RBUF_SOFT_CAP)
    }

    /// The bytes read but not yet parsed.
    fn unparsed(&self) -> &[u8] {
        &self.rbuf[self.rpos..self.rend]
    }

    /// Drain the stream into `rbuf` until it would block, EOF, or the read
    /// budget is reached (pump re-reads once parsing frees budget).
    /// Returns the bytes actually buffered — readiness is only a hint, so
    /// callers that act on "the peer sent something" (eviction strikes)
    /// must look at this, not at the event.
    fn read_some(&mut self) -> usize {
        let mut got = 0;
        while self.rend - self.rpos < self.read_budget() {
            if self.rend == self.rbuf.len() {
                self.make_room();
            }
            match self.stream.try_read(&mut self.rbuf[self.rend..]) {
                Ok(0) => {
                    self.eof = true;
                    return got;
                }
                Ok(n) => {
                    self.rend += n;
                    got += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue, // EINTR: retry
                Err(_) => {
                    self.eof = true;
                    self.dead = true;
                    return got;
                }
            }
        }
        got
    }

    /// Room at the end of a full read window: slide the unparsed bytes to
    /// its front when some were parsed, else grow it (the only zeroing).
    fn make_room(&mut self) {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.scan -= self.rpos;
            self.rend -= self.rpos;
            self.rpos = 0;
        } else {
            let len = (self.rbuf.len() * 2).max(RBUF_FIRST_WINDOW);
            self.rbuf.resize(len, 0);
        }
    }

    /// Mark the first `used` unparsed bytes parsed. Once everything read
    /// is parsed the next read starts at the window's front again.
    fn consume(&mut self, used: usize) {
        self.rpos += used;
        if self.rpos == self.rend {
            self.rpos = 0;
            self.rend = 0;
        }
        self.scan = self.rpos;
        self.need = 0;
    }

    /// Append a serialized response to the write queue, charging both
    /// output budgets.
    fn enqueue_response(&mut self, resp: &Response) {
        if self.out_seg == self.out.len() {
            // Everything previously queued was flushed: reclaim the queue.
            self.out.clear();
            self.out_seg = 0;
            self.out_off = 0;
        }
        let added = ser::push_response_segments(&mut self.out, resp);
        self.out_bytes += added;
        self.global_out.fetch_add(added as u64, Ordering::Relaxed);
    }

    /// Write queued segments until done or the stream would block,
    /// crediting the budgets for every byte that goes out. The
    /// gather/advance cursor arithmetic is shared with the blocking writer
    /// ([`crate::serialize::write_all_vectored`]).
    fn flush(&mut self) {
        let mut slices = [IoSlice::new(&[]); MAX_IOVEC];
        loop {
            let n = ser::gather_slices(&self.out, self.out_seg, self.out_off, &mut slices);
            if n == 0 {
                break;
            }
            match self.stream.try_write_vectored(&slices[..n]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    ser::advance_cursor(&self.out, &mut self.out_seg, &mut self.out_off, n);
                    self.out_bytes -= n;
                    self.global_out.fetch_sub(n as u64, Ordering::Relaxed);
                    // Write progress: the peer is draining, so it is not a
                    // slow-client attack.
                    self.over_strikes = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue, // EINTR: retry
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.out_seg = 0;
        self.out_off = 0;
        if self.close_after_flush {
            self.dead = true;
        }
    }

    /// True when every queued byte has gone out.
    fn flushed(&self) -> bool {
        self.out_seg == self.out.len()
    }

    /// The two-level write budget: is this connection (or the server as a
    /// whole, via the shared gauge) holding more queued output than
    /// allowed?
    fn over_budget(&self, conn_cap: usize, global_cap: usize) -> bool {
        self.out_bytes >= conn_cap || self.global_out.load(Ordering::Relaxed) >= global_cap as u64
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Whatever never reached the wire is credited back to the global
        // budget — eviction, teardown, and error paths all come through
        // here, so the gauge cannot leak.
        self.global_out
            .fetch_sub(self.out_bytes as u64, Ordering::Relaxed);
    }
}

/// One event loop of the set: owns its poller, its share of the
/// connections, and (loop 0 only) the listener.
struct LoopState {
    index: usize,
    /// `Some` only on loop 0, which distributes accepted streams.
    listener: Option<BoxNbListener>,
    listener_dead: bool,
    /// Round-robin cursor breaking least-connections ties.
    rr: usize,
    handler: Arc<dyn Handler>,
    stats: Arc<LoopStats>,
    shared: Arc<Shared>,
    poller: Poller,
    /// Streams handed to this loop by the accepting loop.
    inbox_rx: Receiver<BoxNbStream>,
    conns: HashMap<Token, Conn>,
    next_token: Token,
    conn_output_cap: usize,
    global_output_cap: usize,
    /// Timestamp source for request latency (see
    /// [`Server::with_request_metrics`]).
    clock: Option<Clock>,
    /// This loop's private latency histograms — never shared with sibling
    /// loops, so observes stay on loop-local cache lines.
    latency: Option<Arc<OutcomeHistograms>>,
    /// This loop's private latency exemplars (see
    /// [`ServerStats::exemplars_take_merged`]).
    exemplars: Option<Arc<OutcomeExemplars>>,
    /// Span recorder handle; `Tracer::off()` when tracing is disabled, so
    /// the hot path pays one `Option` check per call.
    tracer: Tracer,
    /// Set when the loop leaves its main phase: no new parses, drain only.
    stopping: bool,
    /// Connections whose pump stopped on the output budget. A
    /// *global*-budget stall can be released by another loop's flush,
    /// which raises no event here (pushed readiness, epoll's included,
    /// reports transitions only) — so the run loop bounds its wait and
    /// re-pumps this set whenever it is non-empty.
    budget_parked: std::collections::BTreeSet<Token>,
}

/// How long an event loop with budget-parked connections waits before
/// re-checking the (possibly remotely released) global output budget.
const BUDGET_PARK_RECHECK: Duration = Duration::from_millis(5);

impl LoopState {
    fn run(mut self) {
        if let Some(listener) = &mut self.listener {
            listener.register(self.poller.registry(), LISTENER);
        }
        let mut events: Vec<(Token, Ready)> = Vec::new();
        while self.shared.running.load(Ordering::Acquire) {
            self.drain_inbox();
            if self.listener_dead && self.conns.is_empty() && self.shared.loops.len() == 1 {
                break; // nothing left to serve and nobody can connect
            }
            let timeout = if self.budget_parked.is_empty() {
                None
            } else {
                Some(BUDGET_PARK_RECHECK)
            };
            self.poller.wait(&mut events, timeout);
            self.stats
                .tick_waits
                .store(self.poller.tick_count(), Ordering::Relaxed);
            if !self.shared.running.load(Ordering::Acquire) {
                break;
            }
            // Drained in place: one events buffer lives as long as the loop.
            for (token, ready) in events.drain(..) {
                if token == LISTENER && self.listener.is_some() {
                    self.accept_ready();
                } else {
                    self.drive(token, ready);
                }
            }
            // Budget-parked connections get no event when another loop's
            // flush releases the global budget: re-pump them each pass
            // (pump re-parks whichever are still over). Connections that
            // died meanwhile simply fail the lookup and drop out.
            if !self.budget_parked.is_empty() {
                for token in std::mem::take(&mut self.budget_parked) {
                    self.pump(token);
                }
            }
        }
        self.stopping = true;
        self.drain_shutdown(&mut events);
        // Dropping `self` tears the rest down: connections close (clients
        // see EOF).
    }

    /// Graceful half of `stop()`: flush queued output (bounded), so
    /// responses already earned are not lost. A handler never outlives
    /// the loop pass that ran it, so nothing is still in flight here. Idle
    /// connections don't delay this; a peer that never drains is abandoned
    /// at the limit.
    fn drain_shutdown(&mut self, events: &mut Vec<(Token, Ready)>) {
        let deadline = Instant::now() + SHUTDOWN_DRAIN_LIMIT;
        loop {
            let tokens: Vec<Token> = self.conns.keys().copied().collect();
            for token in tokens {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                conn.flush();
                if conn.dead {
                    self.remove(token);
                }
            }
            let pending = self.conns.values().any(|c| !c.flushed());
            if !pending || Instant::now() >= deadline {
                return;
            }
            // Wake on writable events; the timeout paces the deadline
            // check.
            self.poller.wait(events, Some(Duration::from_millis(10)));
            events.clear();
        }
    }

    /// Adopt streams the accepting loop handed over.
    fn drain_inbox(&mut self) {
        while let Ok(stream) = self.inbox_rx.try_recv() {
            self.adopt(stream);
        }
    }

    /// Register an accepted stream with this loop's poller and own it.
    fn adopt(&mut self, mut stream: BoxNbStream) {
        let token = self.next_token;
        self.next_token += 1;
        // Registration pushes initial readiness, so bytes that raced ahead
        // of the accept are not lost.
        stream.register(self.poller.registry(), token);
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            token,
            Conn::new(stream, Arc::clone(&self.shared.global_out)),
        );
    }

    /// Queue a finished response and settle the connection's keep-alive
    /// flags. When request metrics are on, this is also where the service
    /// time lands in the loop's outcome histogram: the window runs from
    /// parse completion to response queueing, classified from the
    /// response's serving headers.
    fn complete_request(
        conn: &mut Conn,
        resp: &Response,
        latency: Option<&OutcomeHistograms>,
        exemplars: Option<&OutcomeExemplars>,
        clock: Option<&Clock>,
        tracer: &Tracer,
    ) {
        if let (Some(latency), Some(clock)) = (latency, clock) {
            let outcome = Outcome::classify(
                resp.status.is_success(),
                resp.status == crate::Status::NOT_MODIFIED,
                resp.headers.get("X-Cache"),
            );
            let nanos = clock.now_nanos().saturating_sub(conn.req_start);
            latency.observe(outcome, nanos);
            if let (Some(exemplars), Some(ctx)) = (exemplars, conn.trace.as_ref()) {
                exemplars.observe(outcome, nanos, ctx.trace_id);
            }
        }
        if let Some(ctx) = conn.trace.take() {
            let ok = resp.status.is_success() || resp.status == crate::Status::NOT_MODIFIED;
            tracer.finish_root(
                ctx,
                if ok {
                    SpanStatus::Ok
                } else {
                    SpanStatus::Error
                },
            );
        }
        let close = conn.close_pending || resp.headers.connection_close();
        conn.enqueue_response(resp);
        conn.close_pending = false;
        if close {
            conn.close_after_flush = true;
        }
    }

    /// Pick the owning loop for a fresh connection: least connections,
    /// ties broken by a rotating cursor so equal loops fill round-robin.
    fn pick_loop(&mut self) -> usize {
        let n = self.shared.loops.len();
        let start = self.rr;
        self.rr = (self.rr + 1) % n;
        let mut best = start;
        let mut best_live = u64::MAX;
        for off in 0..n {
            let i = (start + off) % n;
            let live = self.shared.loops[i].stats.live.load(Ordering::Relaxed);
            if live < best_live {
                best = i;
                best_live = live;
            }
        }
        best
    }

    /// Accept until the listener would block, distributing each stream to
    /// the least-loaded loop.
    fn accept_ready(&mut self) {
        loop {
            let accepted = self
                .listener
                .as_mut()
                .expect("accept_ready requires the listener")
                .try_accept();
            match accepted {
                Ok(Some(stream)) => {
                    let target = self.pick_loop();
                    // Pre-charge the live gauge so bursts of accepts spread
                    // before the target loop has even woken up.
                    self.shared.loops[target]
                        .stats
                        .live
                        .fetch_add(1, Ordering::Relaxed);
                    if target == self.index {
                        self.adopt(stream);
                    } else {
                        let target = &self.shared.loops[target];
                        if target.inbox_tx.send(stream).is_ok() {
                            target.registry.wake();
                        }
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    // Listener torn down (network dropped or address
                    // re-bound): stop accepting, keep serving open
                    // connections until they close.
                    self.listener_dead = true;
                    return;
                }
            }
        }
    }

    /// React to readiness on one connection.
    fn drive(&mut self, token: Token, ready: Ready) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // stale event for a reaped connection
        };
        // Flush before any strike decision: write progress resets the
        // counter, and readable+writable readiness often coalesces into
        // one event — a client that just resumed draining must get credit
        // for it before its simultaneous send is judged.
        conn.flush();
        if conn.dead {
            self.remove(token);
            return;
        }
        if ready.readable {
            // Slow-client admission control. A readable event alone is
            // only a hint (a polled source is reported maybe-ready on
            // every tick), so a strike needs real evidence of
            // sending-without-draining while over the output budget:
            // bytes that actually arrived, or an input buffer already
            // saturated at its read budget (a full budget of unparsed
            // pipelined requests parked behind undrained responses — the
            // state a fast-link abuser reaches in one delivery). Flush
            // progress resets the count, so only a never-draining
            // pipeliner accumulates strikes; an idle or window-stalled
            // peer with nothing buffered is just parked by backpressure.
            let got = conn.read_some();
            let saturated = conn.rend - conn.rpos >= conn.read_budget();
            if (got > 0 || saturated)
                && !conn.flushed()
                && conn.over_budget(self.conn_output_cap, self.global_output_cap)
            {
                conn.over_strikes += 1;
                if conn.over_strikes >= EVICT_STRIKES {
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    self.remove(token);
                    return;
                }
            }
        }
        self.pump(token);
    }

    /// Advance a connection's state machine as far as it can go without
    /// blocking: flush output, frame and parse buffered requests, dispatch.
    fn pump(&mut self, token: Token) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.flush();
            if conn.dead {
                self.remove(token);
                return;
            }
            if conn.close_after_flush {
                return;
            }
            if self.stopping {
                return; // shutdown drain: flush only, admit nothing new
            }
            // Write-side admission control: while this connection (or the
            // server as a whole) is over its output budget, stop parsing
            // new requests — pipelined responses queue up to the cap, past
            // which the client must drain before being served more. The
            // writable event that flushes the backlog resumes the pump.
            if !conn.flushed() && conn.over_budget(self.conn_output_cap, self.global_output_cap) {
                self.budget_parked.insert(token);
                return;
            }
            // Resume reading that the read budget paused.
            conn.read_some();
            if conn.dead {
                self.remove(token);
                return;
            }
            // Framing gate: only run the full parser once the frame is
            // complete (or provably hopeless), so a request arriving in
            // many chunks is parsed exactly once.
            let unparsed_len = conn.rend - conn.rpos;
            match parse::frame_len(conn.unparsed(), conn.scan - conn.rpos) {
                parse::Frame::Complete { head, total } => {
                    let budget_grew = total > conn.need;
                    conn.need = total;
                    conn.scan = conn.rpos + head; // resume point: the blank line
                    let body_hopeless = total - head > parse::MAX_BODY_BYTES;
                    if unparsed_len < total && !body_hopeless {
                        if budget_grew {
                            // The frame just raised the read budget, and
                            // the rest of the body may already sit in the
                            // transport with no further readiness event
                            // coming (it was all one write). Loop to read
                            // again under the new budget.
                            continue;
                        }
                        if conn.eof {
                            self.close_on_eof(token);
                        }
                        return; // body still arriving
                    }
                }
                parse::Frame::Partial { scanned } => {
                    conn.scan = conn.rpos + scanned;
                    conn.need = 0;
                    if unparsed_len >= parse::MAX_HEAD_BYTES {
                        // No blank line within the head limit: this can
                        // never become a valid request. Reject here — the
                        // read budget stops at the limit, so waiting for
                        // the parser to see "more" would wait forever.
                        self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                        let resp =
                            Response::error(crate::Status::BAD_REQUEST, "request head too large");
                        conn.enqueue_response(&resp);
                        conn.close_after_flush = true;
                        continue; // flush the 400
                    }
                    if conn.eof {
                        self.close_on_eof(token);
                    }
                    return; // head still arriving
                }
            }
            match try_parse_request(conn.unparsed()) {
                Ok(Some((req, used))) => {
                    conn.consume(used);
                    conn.close_pending = req.headers.connection_close();
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    if let Some(clock) = &self.clock {
                        conn.req_start = clock.now_nanos();
                    }
                    // Open the request's root span. An incoming
                    // `X-DPC-Trace-Id` (a peer or front forwarded this
                    // hop) stitches it into the caller's trace.
                    conn.trace = self
                        .tracer
                        .begin_request(Layer::Http, req.headers.get(TRACE_HEADER));
                    // Run the handler here, then loop to flush and parse
                    // any pipelined successor.
                    let resp = {
                        let _ctx = dpc_trace::enter_ctx(conn.trace);
                        handle_guarded(&*self.handler, req)
                    };
                    Self::complete_request(
                        conn,
                        &resp,
                        self.latency.as_deref(),
                        self.exemplars.as_deref(),
                        self.clock.as_ref(),
                        &self.tracer,
                    );
                }
                Ok(None) => {
                    // The frame gate thought the request was complete but
                    // the parser disagrees (advisory Content-Length scan
                    // diverged on a pathological head): wait for bytes.
                    if conn.eof {
                        self.close_on_eof(token);
                    }
                    return;
                }
                Err(_) => {
                    self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::error(crate::Status::BAD_REQUEST, "malformed request");
                    conn.enqueue_response(&resp);
                    conn.close_after_flush = true;
                    // Loop once more to flush the 400.
                }
            }
        }
    }

    /// EOF with no further complete request possible: let a partially
    /// flushed response finish, then close.
    fn close_on_eof(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flushed() {
            self.remove(token);
        } else {
            conn.close_after_flush = true;
        }
    }

    fn remove(&mut self, token: Token) {
        // Deregister before the stream drops (and its fd closes): an OS
        // backend must never see a recycled fd number under a stale token.
        self.poller.registry().deregister(token);
        if self.conns.remove(&token).is_some() {
            self.stats.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Run `handler` on `req`, turning a panic into a `500` that closes the
/// connection. The panic unwinds no further than this call, so the loop
/// that ran it keeps serving its other connections (and, on loop 0,
/// keeps accepting).
fn handle_guarded(handler: &dyn Handler, req: Request) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(req))).unwrap_or_else(
        |_| {
            Response::error(crate::Status::INTERNAL_ERROR, "handler panicked")
                .with_header("Connection", "close")
        },
    )
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: String,
    stats: ServerStats,
    shared: Arc<Shared>,
    wake: WakeSet,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address the server is reachable at.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Number of event loops serving connections.
    pub fn loops(&self) -> usize {
        self.shared.loops.len()
    }

    /// Total connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.stats.connections()
    }

    /// Total requests served so far.
    pub fn requests(&self) -> u64 {
        self.stats.requests()
    }

    /// Total malformed requests rejected so far.
    pub fn parse_errors(&self) -> u64 {
        self.stats.parse_errors()
    }

    /// Total slow-client evictions so far.
    pub fn evictions(&self) -> u64 {
        self.stats.evictions()
    }

    /// Currently-owned connections per loop — the accept-distribution
    /// balance (index = loop).
    pub fn live_per_loop(&self) -> Vec<u64> {
        self.stats.live_per_loop()
    }

    /// Aggregated and per-loop counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Queued-but-unsent response bytes across all loops right now — the
    /// global half of the write budget.
    pub fn output_buffered(&self) -> u64 {
        self.shared.global_out.load(Ordering::Relaxed)
    }

    /// Stop the server: wakes every loop's poller deterministically, so
    /// all loops exit their next iteration even with every connection
    /// idle — no quiescent-listener caveat. Each loop then drains
    /// gracefully (bounded): responses already completed by handlers are
    /// flushed rather than discarded, after which open connections close
    /// (clients see EOF).
    pub fn stop(&self) {
        self.shared.running.store(false, Ordering::Release);
        self.wake.wake_all();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
        // The wake above makes the joins deterministic.
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::message::{Method, Request, Response};
    use dpc_net::{Connector, SimNetwork};

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: Request| {
            let body = format!("{} {}", req.method, req.target);
            Response::html(body)
        })
    }

    #[test]
    fn serves_requests_over_sim_network() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(Box::new(listener), echo_handler()).spawn();
        let client = Client::new(Arc::new(net.connector()));
        let resp = client.request("web", Request::get("/x?a=1")).unwrap();
        assert_eq!(resp.status.0, 200);
        assert_eq!(resp.body, *b"GET /x?a=1");
        assert_eq!(handle.requests(), 1);
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(Box::new(listener), echo_handler()).spawn();
        let client = Client::new(Arc::new(net.connector()));
        for i in 0..10 {
            let resp = client
                .request("web", Request::get(format!("/r{i}")))
                .unwrap();
            assert!(resp.status.is_success());
        }
        assert_eq!(handle.requests(), 10);
        assert_eq!(handle.connections(), 1, "keep-alive should reuse");
    }

    #[test]
    fn connection_close_header_closes() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(Box::new(listener), echo_handler()).spawn();
        let client = Client::new(Arc::new(net.connector()));
        for _ in 0..3 {
            let req = Request::get("/bye").with_header("Connection", "close");
            let resp = client.request("web", req).unwrap();
            assert!(resp.status.is_success());
        }
        assert_eq!(handle.connections(), 3, "close forces fresh connections");
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let _handle = Server::new(Box::new(listener), echo_handler()).spawn();
        let mut raw = net.connector().connect("web").unwrap();
        raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        raw.shutdown_write().unwrap();
        let mut out = Vec::new();
        raw.read_to_end(&mut out).unwrap();
        let s = String::from_utf8_lossy(&out);
        assert!(s.starts_with("HTTP/1.1 400"), "got {s}");
    }

    #[test]
    fn concurrent_clients() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(Box::new(listener), echo_handler()).spawn();
        let mut joins = Vec::new();
        for t in 0..8 {
            let conn = net.connector();
            joins.push(std::thread::spawn(move || {
                let client = Client::new(Arc::new(conn));
                for i in 0..20 {
                    let resp = client
                        .request("web", Request::get(format!("/t{t}/r{i}")))
                        .unwrap();
                    assert_eq!(resp.body, format!("GET /t{t}/r{i}").into_bytes());
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(handle.requests(), 160);
    }

    #[test]
    fn post_bodies_reach_handler() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let _handle = Server::new(
            Box::new(listener),
            Arc::new(|req: Request| {
                assert_eq!(req.method, Method::Post);
                Response::html(req.body)
            }),
        )
        .spawn();
        let client = Client::new(Arc::new(net.connector()));
        let resp = client
            .request("web", Request::post("/submit", "the payload"))
            .unwrap();
        assert_eq!(resp.body, *b"the payload");
    }

    #[test]
    fn inline_mode_serves_without_worker_threads() {
        // The handler runs on the event loop that parsed its request: the
        // thread it reports is the loop's own.
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(
            Box::new(listener),
            Arc::new(|_req: Request| {
                Response::html(std::thread::current().name().unwrap_or("").to_owned())
            }),
        )
        .spawn();
        let client = Client::new(Arc::new(net.connector()));
        for _ in 0..10 {
            let resp = client.request("web", Request::get("/i")).unwrap();
            assert_eq!(resp.body, *b"http-loop-web-0");
        }
        assert_eq!(handle.requests(), 10);
    }

    #[test]
    fn stop_wakes_idle_event_loop_deterministically() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(Box::new(listener), echo_handler()).spawn();
        // A connected-but-idle client: the loop is parked in the poller.
        let _idle = net.connector().connect("web").unwrap();
        let start = std::time::Instant::now();
        drop(handle); // stop + join
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "stop must not wait for listener activity"
        );
    }

    #[test]
    fn request_latency_histograms_are_deterministic_under_virtual_clock() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let (clock, vclock) = Clock::virtual_clock();
        // The handler advances the virtual clock by a fixed amount, so the
        // parse-to-queue service window is exactly that amount: histogram
        // contents are asserted to the nanosecond, no wall-clock jitter.
        let handler_clock = Arc::clone(&vclock);
        let handle = Server::new(
            Box::new(listener),
            Arc::new(move |req: Request| {
                handler_clock.advance(Duration::from_nanos(1_500));
                let resp = Response::html("ok");
                match req.target.as_str() {
                    "/l2" => resp.with_header("X-Cache", "dpc-l2"),
                    "/asm" => resp.with_header("X-Cache", "dpc-assembled"),
                    "/err" => Response::error(crate::Status::NOT_FOUND, "nope"),
                    _ => resp,
                }
            }),
        )
        .with_request_metrics(clock)
        .spawn();
        let client = Client::new(Arc::new(net.connector()));
        for target in ["/l2", "/l2", "/asm", "/err", "/plain"] {
            let _ = client.request("web", Request::get(target)).unwrap();
        }
        let merged = handle.stats().latency_merged();
        use dpc_metrics::Outcome;
        assert_eq!(merged[Outcome::L2Hit.index()].count(), 2);
        assert_eq!(merged[Outcome::L2Hit.index()].sum, 3_000);
        assert_eq!(merged[Outcome::Assembled.index()].count(), 1);
        assert_eq!(merged[Outcome::Assembled.index()].sum, 1_500);
        assert_eq!(merged[Outcome::Error.index()].count(), 1);
        assert_eq!(merged[Outcome::Origin.index()].count(), 1);
        // Each observation is exactly 1500 ns: bit-width 11, so p99 of any
        // nonempty outcome reports that bucket's upper bound.
        assert_eq!(merged[Outcome::L2Hit.index()].p99(), 2_047);
    }

    #[test]
    fn multi_loop_serves_and_spreads_connections() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("web");
        let handle = Server::new(Box::new(listener), echo_handler())
            .with_loops(4)
            .spawn();
        assert_eq!(handle.loops(), 4);
        let client = Client::new(Arc::new(net.connector()));
        let mut raws = Vec::new();
        for i in 0..8 {
            // `Connection: close`-free independent connections.
            use std::io::Write;
            let mut raw = net.connector().connect("web").unwrap();
            write!(raw, "GET /c{i} HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = std::io::BufReader::new(raw);
            let resp = crate::parse::read_response(&mut reader).unwrap();
            assert_eq!(resp.body, format!("GET /c{i}").into_bytes());
            raws.push(reader);
        }
        // Least-connections placement spreads 8 conns as 2 per loop.
        assert_eq!(handle.live_per_loop(), vec![2, 2, 2, 2]);
        assert_eq!(handle.connections(), 8);
        // The pooled client still round-trips (a 9th connection).
        let resp = client.request("web", Request::get("/after")).unwrap();
        assert_eq!(resp.body, *b"GET /after");
    }
}
