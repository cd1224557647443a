//! Always-on distributed span tracing: the serving tiers' flight recorder.
//!
//! Every request entering a front gets a **trace**: a tree of spans, one
//! per serving layer it crosses (HTTP front, page tier, assembly,
//! single-flight, directory). Spans are fixed-size `Copy` records pushed
//! into lock-free, fixed-capacity **span rings** — one ring per thread
//! shard (event loops, direct callers), each slot
//! guarded by a per-slot seqlock — so recording a span on the hot path is
//! a handful of relaxed atomic stores and **never allocates**. Old spans
//! are simply overwritten (the ring is a flight recorder, not a log).
//!
//! Interesting traces outlive the ring through **tail-based retention**:
//! when a trace's *root* span completes, the recorder keeps the whole
//! trace iff it was slower than [`TraceConfig::slow_threshold_nanos`],
//! any of its spans failed (error / evicted / flight-orphaned), or the
//! off-by-default fast-trace sampler fires. Retained traces are copied out
//! of the rings into a bounded keep-list served as JSON from
//! `GET /_dpc/trace/recent`.
//!
//! **Context propagation.** The current `(trace id, span id)` pair lives
//! in a thread-local; [`SpanGuard`]s push/pop it RAII-style, so layers
//! deeper in the call stack parent correctly without plumbing arguments.
//! The event loop enters a request's root context around its handler, and
//! crossing a process-shaped boundary re-establishes it explicitly: HTTP
//! legs carry it in the [`TRACE_HEADER`] request header
//! (`<trace>-<span>`, hex), so one trace stitches the whole front → owner
//! → origin journey.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dpc_net::Clock;

/// Request/response header carrying the trace context across HTTP legs:
/// `<trace id>-<parent span id>`, both as 16-digit lowercase hex.
pub const TRACE_HEADER: &str = "X-DPC-Trace-Id";

/// Serving layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// HTTP front: parse → dispatch → response queued (the root span on
    /// the entry node).
    Http = 0,
    /// The proxy handler (root when a proxy is driven without an HTTP
    /// front, e.g. in-process ring routing).
    Proxy = 1,
    /// Page-cache probe (the node's page tier).
    TierL2 = 2,
    /// Template assembly (rope splice).
    Assembly = 3,
    /// Single-flight participation (page cache, BEM): the status says
    /// whether this request led or waited.
    Flight = 4,
    /// BEM directory lookup on the origin.
    Directory = 5,
    /// PURGE handling.
    Purge = 6,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Http => "http",
            Layer::Proxy => "proxy",
            Layer::TierL2 => "l2",
            Layer::Assembly => "assembly",
            Layer::Flight => "flight",
            Layer::Directory => "directory",
            Layer::Purge => "purge",
        }
    }

    fn from_u8(v: u8) -> Layer {
        match v {
            0 => Layer::Http,
            1 => Layer::Proxy,
            2 => Layer::TierL2,
            3 => Layer::Assembly,
            4 => Layer::Flight,
            5 => Layer::Directory,
            _ => Layer::Purge,
        }
    }
}

/// How a span resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanStatus {
    Ok = 0,
    /// Cache probe answered with a body.
    Hit = 1,
    /// Cache probe found nothing.
    Miss = 2,
    /// Validator matched; hash-only answer.
    Revalidated = 3,
    /// This request led the single-flight computation.
    Leader = 4,
    /// This request parked on a concurrent leader's flight; `detail`
    /// carries the leader's span id.
    Waiter = 5,
    Error = 6,
    /// The connection was evicted (slow-client admission control) with
    /// the request still open.
    Evicted = 7,
    /// The flight's leader died; this waiter drew the orphan claim.
    Orphaned = 8,
}

impl SpanStatus {
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Hit => "hit",
            SpanStatus::Miss => "miss",
            SpanStatus::Revalidated => "revalidated",
            SpanStatus::Leader => "leader",
            SpanStatus::Waiter => "waiter",
            SpanStatus::Error => "error",
            SpanStatus::Evicted => "evicted",
            SpanStatus::Orphaned => "orphaned",
        }
    }

    /// Statuses that make the whole trace retention-worthy.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            SpanStatus::Error | SpanStatus::Evicted | SpanStatus::Orphaned
        )
    }

    fn from_u8(v: u8) -> SpanStatus {
        match v {
            0 => SpanStatus::Ok,
            1 => SpanStatus::Hit,
            2 => SpanStatus::Miss,
            3 => SpanStatus::Revalidated,
            4 => SpanStatus::Leader,
            5 => SpanStatus::Waiter,
            6 => SpanStatus::Error,
            7 => SpanStatus::Evicted,
            _ => SpanStatus::Orphaned,
        }
    }
}

/// One completed span: a fixed-size `Copy` record, the ring's slot payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub trace_id: u64,
    pub span_id: u64,
    /// Parent span id; 0 for a locally-started root.
    pub parent_id: u64,
    pub layer: Layer,
    pub status: SpanStatus,
    /// `dpc_net::Clock` nanos at span start/end.
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Node id of the recording site (ring node, 0 on single-node fronts).
    pub node: u32,
    /// Layer-specific annotation: a waiter's leader span id, a fragment
    /// key, a segment count, …
    pub detail: u64,
}

impl SpanEvent {
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

// ---------------------------------------------------------------------------
// Span rings: per-shard fixed-capacity buffers of seqlock-guarded slots.
// ---------------------------------------------------------------------------

/// One ring slot. The `seq` parity is the seqlock: odd while a writer is
/// mid-store, even when stable; `seq == 0` means never written. Writers
/// never block (a reader that observes a torn slot just skips it), and
/// two writers racing the *same* slot — which requires one of them to lag
/// a full ring lap behind — can at worst interleave one garbled record, a
/// documented non-hazard for a best-effort flight recorder.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    /// layer | status << 8 | node << 32.
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    detail: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }

    fn write(&self, ev: &SpanEvent) {
        self.seq.fetch_add(1, Ordering::AcqRel); // odd: in progress
        self.trace_id.store(ev.trace_id, Ordering::Relaxed);
        self.span_id.store(ev.span_id, Ordering::Relaxed);
        self.parent_id.store(ev.parent_id, Ordering::Relaxed);
        let meta = ev.layer as u64 | (ev.status as u64) << 8 | (ev.node as u64) << 32;
        self.meta.store(meta, Ordering::Relaxed);
        self.start.store(ev.start_nanos, Ordering::Relaxed);
        self.end.store(ev.end_nanos, Ordering::Relaxed);
        self.detail.store(ev.detail, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release); // even: stable
    }

    fn read(&self) -> Option<SpanEvent> {
        for _ in 0..3 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                return None; // empty or mid-write
            }
            let ev = SpanEvent {
                trace_id: self.trace_id.load(Ordering::Relaxed),
                span_id: self.span_id.load(Ordering::Relaxed),
                parent_id: self.parent_id.load(Ordering::Relaxed),
                layer: Layer::from_u8(self.meta.load(Ordering::Relaxed) as u8),
                status: SpanStatus::from_u8((self.meta.load(Ordering::Relaxed) >> 8) as u8),
                start_nanos: self.start.load(Ordering::Relaxed),
                end_nanos: self.end.load(Ordering::Relaxed),
                node: (self.meta.load(Ordering::Relaxed) >> 32) as u32,
                detail: self.detail.load(Ordering::Relaxed),
            };
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some(ev);
            }
        }
        None // persistently torn: a writer is overrunning this reader
    }
}

/// Fixed-capacity span ring of one shard: writers claim slots with a
/// wrapping `fetch_add`, overwriting the oldest record once full.
struct SpanRing {
    slots: Box<[Slot]>,
    head: AtomicUsize,
    overwrites: AtomicU64,
}

impl SpanRing {
    fn new(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            head: AtomicUsize::new(0),
            overwrites: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: &SpanEvent) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            self.overwrites.fetch_add(1, Ordering::Relaxed);
        }
        self.slots[i % self.slots.len()].write(ev);
    }

    fn collect(&self, trace_id: u64, out: &mut Vec<SpanEvent>) {
        for slot in self.slots.iter() {
            if let Some(ev) = slot.read() {
                if ev.trace_id == trace_id {
                    out.push(ev);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Recorder sizing and retention policy. `Copy` so it threads through
/// the `RingConfig` value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. The serving tiers keep it **on** by default — the
    /// recorder is a flight recorder, not a debug mode.
    pub enabled: bool,
    /// Ring shards. Threads are assigned shards round-robin on first use,
    /// so every event loop writes a stable ring.
    pub rings: usize,
    /// Span slots per ring shard.
    pub ring_capacity: usize,
    /// A completed trace strictly slower than this (root-span duration) is
    /// retained.
    pub slow_threshold_nanos: u64,
    /// Keep-list bound: retained traces beyond this age out oldest-first.
    pub keep: usize,
    /// Retain one in N fast, healthy traces too (0 = off, the default):
    /// the tail tells you about outliers, the sample about the baseline.
    pub sample_one_in: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: true,
            rings: 8,
            ring_capacity: 1024,
            slow_threshold_nanos: 5_000_000, // 5 ms
            keep: 32,
            sample_one_in: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

thread_local! {
    /// The (trace id, span id) pair new spans parent under. (0, 0) = none.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Cached ring-shard assignment of this thread (raw round-robin
    /// counter; reduced modulo the recorder's ring count at use).
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The thread's current `(trace id, span id)` context, if any.
pub fn current() -> Option<(u64, u64)> {
    let ctx = CURRENT.get();
    (ctx.0 != 0).then_some(ctx)
}

/// RAII restore of the thread-local context (see [`enter`]).
pub struct CtxGuard {
    prev: (u64, u64),
    active: bool,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.set(self.prev);
        }
    }
}

/// Establish `(trace_id, span_id)` as the thread's current context until
/// the guard drops — the explicit half of propagation, used wherever a
/// request's root opens on its event loop or arrives with a wire/header
/// context (the origin leg).
pub fn enter(trace_id: u64, span_id: u64) -> CtxGuard {
    let prev = CURRENT.replace((trace_id, span_id));
    CtxGuard { prev, active: true }
}

/// [`enter`] for an optional root context; `None` is a no-op guard.
pub fn enter_ctx(ctx: Option<RootCtx>) -> CtxGuard {
    match ctx {
        Some(ctx) => enter(ctx.trace_id, ctx.span_id),
        None => CtxGuard {
            prev: (0, 0),
            active: false,
        },
    }
}

/// Render a context for the [`TRACE_HEADER`] HTTP header: one exact-size
/// allocation, whatever the ids' digits.
pub fn format_ctx(trace_id: u64, span_id: u64) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(33);
    write!(out, "{trace_id:016x}-{span_id:016x}").expect("write to a String cannot fail");
    out
}

/// Parse a [`TRACE_HEADER`] value. Allocation-free; `None` on any
/// malformation (a hostile header degrades to a fresh local trace).
pub fn parse_ctx(s: &str) -> Option<(u64, u64)> {
    let (t, p) = s.split_once('-')?;
    let trace_id = u64::from_str_radix(t, 16).ok()?;
    let span_id = u64::from_str_radix(p, 16).ok()?;
    (trace_id != 0).then_some((trace_id, span_id))
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Why a trace entered the keep-list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainReason {
    /// Root duration exceeded the slow threshold (or the fast-trace
    /// sampler fired — sampled traces are bookkept as slow).
    Slow,
    /// Some span failed (error or flight-orphaned).
    Error,
    /// The connection was evicted mid-request.
    Evicted,
}

impl RetainReason {
    pub fn label(self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Error => "error",
            RetainReason::Evicted => "evicted",
        }
    }
}

/// A trace copied out of the rings by tail-based retention.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    pub trace_id: u64,
    pub reason: RetainReason,
    /// Root-span duration.
    pub duration_nanos: u64,
    /// All spans of the trace still resident in the rings at retention
    /// time, sorted by start (the root may be mid-list on clock ties).
    pub spans: Vec<SpanEvent>,
}

/// Recorder health counters (the satellite metrics' source).
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub spans_total: u64,
    /// Slot overwrites per ring shard — nonzero means the flight recorder
    /// is wrapping (raise `ring_capacity` if traces come back partial).
    pub ring_overwrites: Vec<u64>,
    pub retained_slow: u64,
    pub retained_error: u64,
    pub retained_evicted: u64,
}

/// Traces with a failed span pending root completion are flagged here so
/// the root-completion retention check stays O(1) on the healthy path
/// (one counter load) and O(64) after the first failure ever.
const FLAG_SLOTS: usize = 64;

/// The span recorder: ring shards, id generator, tail-retention keep-list.
/// One recorder serves a whole fleet (testbed or ring cluster) — spans
/// from every node land in the same rings, which is what lets a single
/// `/_dpc/trace/recent` show the stitched cross-node journey.
pub struct TraceRecorder {
    config: TraceConfig,
    clock: Clock,
    rings: Vec<SpanRing>,
    next_shard: AtomicUsize,
    next_id: AtomicU64,
    spans_total: AtomicU64,
    completed_roots: AtomicU64,
    flagged: [AtomicU64; FLAG_SLOTS],
    flag_cursor: AtomicUsize,
    ever_flagged: AtomicU64,
    retained_slow: AtomicU64,
    retained_error: AtomicU64,
    retained_evicted: AtomicU64,
    kept: Mutex<VecDeque<RetainedTrace>>,
}

impl TraceRecorder {
    /// Build a recorder. `seed` perturbs the id stream so two fleets in
    /// one process don't collide.
    pub fn new(config: TraceConfig, clock: Clock) -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder {
            rings: (0..config.rings.max(1))
                .map(|_| SpanRing::new(config.ring_capacity))
                .collect(),
            config,
            clock,
            next_shard: AtomicUsize::new(0),
            next_id: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
            spans_total: AtomicU64::new(0),
            completed_roots: AtomicU64::new(0),
            flagged: std::array::from_fn(|_| AtomicU64::new(0)),
            flag_cursor: AtomicUsize::new(0),
            ever_flagged: AtomicU64::new(0),
            retained_slow: AtomicU64::new(0),
            retained_error: AtomicU64::new(0),
            retained_evicted: AtomicU64::new(0),
            kept: Mutex::new(VecDeque::new()),
        })
    }

    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Fresh nonzero id: a counter finalized through splitmix64 so ids
    /// spread without a global random source.
    fn gen_id(&self) -> u64 {
        let raw = self
            .next_id
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let mut z = raw;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        z.max(1)
    }

    /// This thread's ring shard (assigned round-robin on first use).
    fn shard(&self) -> usize {
        let raw = SHARD.get();
        let raw = if raw == usize::MAX {
            let assigned = self.next_shard.fetch_add(1, Ordering::Relaxed);
            SHARD.set(assigned);
            assigned
        } else {
            raw
        };
        raw % self.rings.len()
    }

    /// Record one completed span. Allocation-free.
    pub fn push(&self, ev: &SpanEvent) {
        self.spans_total.fetch_add(1, Ordering::Relaxed);
        self.rings[self.shard()].push(ev);
        if ev.status.is_failure() {
            self.flag(ev.trace_id);
        }
    }

    fn flag(&self, trace_id: u64) {
        let i = self.flag_cursor.fetch_add(1, Ordering::Relaxed) % FLAG_SLOTS;
        self.flagged[i].store(trace_id, Ordering::Relaxed);
        self.ever_flagged.fetch_add(1, Ordering::Relaxed);
    }

    fn take_flag(&self, trace_id: u64) -> bool {
        if self.ever_flagged.load(Ordering::Relaxed) == 0 {
            return false; // no failure ever: the common, O(1) path
        }
        let mut found = false;
        for slot in &self.flagged {
            if slot.load(Ordering::Relaxed) == trace_id {
                slot.store(0, Ordering::Relaxed);
                found = true;
            }
        }
        found
    }

    /// All resident spans of `trace_id`, sorted by start time.
    pub fn spans_of(&self, trace_id: u64) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.collect(trace_id, &mut out);
        }
        out.sort_by_key(|ev| (ev.start_nanos, ev.span_id));
        out
    }

    fn retain(&self, root: &SpanEvent, reason: RetainReason) {
        let counter = match reason {
            RetainReason::Slow => &self.retained_slow,
            RetainReason::Error => &self.retained_error,
            RetainReason::Evicted => &self.retained_evicted,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let spans = self.spans_of(root.trace_id);
        let mut kept = self.kept.lock().unwrap_or_else(|p| p.into_inner());
        kept.push_back(RetainedTrace {
            trace_id: root.trace_id,
            reason,
            duration_nanos: root.duration_nanos(),
            spans,
        });
        while kept.len() > self.config.keep.max(1) {
            kept.pop_front();
        }
    }

    /// Root-completion hook: pushes the root span and applies the
    /// tail-retention rule. Only the trace's entry node runs it
    /// (`remote == false`); a continued trace's sub-root is an ordinary
    /// span — retention is decided once, where the trace began.
    fn finish_root(&self, ctx: RootCtx, status: SpanStatus) {
        let root = SpanEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            layer: ctx.layer,
            status,
            start_nanos: ctx.start_nanos,
            end_nanos: self.now(),
            node: ctx.node,
            detail: 0,
        };
        self.push(&root);
        if ctx.remote {
            return;
        }
        let flagged = self.take_flag(ctx.trace_id);
        let reason = if status == SpanStatus::Evicted {
            Some(RetainReason::Evicted)
        } else if status.is_failure() || flagged {
            Some(RetainReason::Error)
        } else if root.duration_nanos() > self.config.slow_threshold_nanos
            || (self.config.sample_one_in > 0
                && self
                    .completed_roots
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(self.config.sample_one_in))
        {
            Some(RetainReason::Slow)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.retain(&root, reason);
        }
    }

    /// Keep-list snapshot, newest first.
    pub fn recent(&self) -> Vec<RetainedTrace> {
        let kept = self.kept.lock().unwrap_or_else(|p| p.into_inner());
        kept.iter().rev().cloned().collect()
    }

    /// The `GET /_dpc/trace/recent` body: the keep-list as JSON, newest
    /// first. Hand-rendered — every field is numeric or a fixed label, so
    /// no escaping is needed.
    pub fn recent_json(&self) -> String {
        let recent = self.recent();
        let mut out = String::with_capacity(256 + recent.len() * 256);
        out.push_str("{\"traces\":[");
        for (i, t) in recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"trace_id\":\"{:016x}\",\"reason\":\"{}\",\"duration_ns\":{},\"spans\":[",
                t.trace_id,
                t.reason.label(),
                t.duration_nanos
            );
            for (j, s) in t.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\",\"layer\":\"{}\",\
                     \"status\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"node\":{},\"detail\":{}}}",
                    s.span_id,
                    s.parent_id,
                    s.layer.label(),
                    s.status.label(),
                    s.start_nanos,
                    s.end_nanos,
                    s.node,
                    s.detail
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Health counters.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            spans_total: self.spans_total.load(Ordering::Relaxed),
            ring_overwrites: self
                .rings
                .iter()
                .map(|r| r.overwrites.load(Ordering::Relaxed))
                .collect(),
            retained_slow: self.retained_slow.load(Ordering::Relaxed),
            retained_error: self.retained_error.load(Ordering::Relaxed),
            retained_evicted: self.retained_evicted.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Tracer handle + guards
// ---------------------------------------------------------------------------

/// A root span in progress. Plain `Copy` data rather than a guard: the
/// HTTP front opens it at parse time and closes it when the response is
/// queued (or the connection is evicted), across event-loop iterations no
/// RAII scope can span.
#[derive(Debug, Clone, Copy)]
pub struct RootCtx {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub layer: Layer,
    pub start_nanos: u64,
    /// True when the trace was started elsewhere (context arrived by
    /// header/wire): this root is a continuation, and retention is the
    /// entry node's job, not ours.
    pub remote: bool,
    node: u32,
}

/// Cheap cloneable handle every serving layer holds: a recorder reference
/// plus this site's node id, or nothing at all — every operation on a
/// disabled tracer is a no-op, so call sites need no `if`s.
#[derive(Clone, Default)]
pub struct Tracer {
    rec: Option<Arc<TraceRecorder>>,
    node: u32,
}

impl Tracer {
    /// The disabled tracer.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    pub fn new(rec: Arc<TraceRecorder>) -> Tracer {
        Tracer {
            rec: Some(rec),
            node: 0,
        }
    }

    /// Build from config: disabled config → disabled tracer.
    pub fn from_config(config: TraceConfig, clock: Clock) -> Tracer {
        if config.enabled {
            Tracer::new(TraceRecorder::new(config, clock))
        } else {
            Tracer::off()
        }
    }

    /// The same recorder, recording under a different node id — how one
    /// fleet-wide recorder attributes spans per ring node.
    pub fn with_node(&self, node: u32) -> Tracer {
        Tracer {
            rec: self.rec.clone(),
            node,
        }
    }

    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The node id this handle records under.
    pub fn node(&self) -> u32 {
        self.node
    }

    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.rec.as_ref()
    }

    /// Open the request's root span: continue the context in `header` if
    /// present and well-formed, else start a fresh trace. `None` when the
    /// tracer is off.
    pub fn begin_request(&self, layer: Layer, header: Option<&str>) -> Option<RootCtx> {
        let rec = self.rec.as_ref()?;
        let (trace_id, parent_id, remote) = match header.and_then(parse_ctx) {
            Some((trace_id, parent)) => (trace_id, parent, true),
            None => (rec.gen_id(), 0, false),
        };
        Some(RootCtx {
            trace_id,
            span_id: rec.gen_id(),
            parent_id,
            layer,
            start_nanos: rec.now(),
            remote,
            node: self.node,
        })
    }

    /// Close a root span: record it and, on the entry node, run the
    /// tail-retention rule.
    pub fn finish_root(&self, ctx: RootCtx, status: SpanStatus) {
        if let Some(rec) = &self.rec {
            rec.finish_root(ctx, status);
        }
    }

    /// Open a child span of the thread's current context. A no-op guard
    /// when the tracer is off or no context is established — layers below
    /// an untraced entry point record nothing.
    pub fn span(&self, layer: Layer) -> SpanGuard {
        let Some(rec) = &self.rec else {
            return SpanGuard::noop();
        };
        let (trace_id, parent_id) = CURRENT.get();
        if trace_id == 0 {
            return SpanGuard::noop();
        }
        let span_id = rec.gen_id();
        CURRENT.set((trace_id, span_id));
        SpanGuard {
            rec: Some(Arc::clone(rec)),
            trace_id,
            span_id,
            parent_id,
            layer,
            status: SpanStatus::Ok,
            start_nanos: rec.now(),
            detail: 0,
            node: self.node,
        }
    }
}

/// RAII span: created by [`Tracer::span`], records itself (and restores
/// the parent context) on drop. Allocation-free end to end.
pub struct SpanGuard {
    rec: Option<Arc<TraceRecorder>>,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    layer: Layer,
    status: SpanStatus,
    start_nanos: u64,
    detail: u64,
    node: u32,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            rec: None,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            layer: Layer::Http,
            status: SpanStatus::Ok,
            start_nanos: 0,
            detail: 0,
            node: 0,
        }
    }

    /// True when this span is actually recording.
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    pub fn id(&self) -> u64 {
        self.span_id
    }

    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    pub fn set_status(&mut self, status: SpanStatus) {
        self.status = status;
    }

    pub fn set_detail(&mut self, detail: u64) {
        self.detail = detail;
    }

    /// Discard the span: record nothing, restore the parent context now.
    /// For probes that turn out to be non-events (e.g. a flight wait that
    /// found no flight) — a span per non-event would drown the ring.
    pub fn cancel(&mut self) {
        if self.rec.take().is_some() {
            CURRENT.set((self.trace_id, self.parent_id));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else {
            return;
        };
        let ev = SpanEvent {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            layer: self.layer,
            status: self.status,
            start_nanos: self.start_nanos,
            end_nanos: rec.now(),
            node: self.node,
            detail: self.detail,
        };
        rec.push(&ev);
        CURRENT.set((self.trace_id, self.parent_id));
    }
}

// ---------------------------------------------------------------------------
// Journey rendering (the opt-in X-DPC-Trace response header)
// ---------------------------------------------------------------------------

/// Render the request's spans as the `X-DPC-Trace` cache-journey header:
/// space-separated `k=v` pairs (`id`, `tier`, `flight`, `segments`,
/// `spans`), derived from what the spans *recorded* rather than
/// re-inferred from response headers.
///
/// `node` is the id of the node rendering the journey: the `flight` field
/// reports only the page-level single-flight role played *here* — a
/// remote tier's fragment flights (the origin BEM generating slots for
/// this trace) stay visible as spans but do not relabel this serve's
/// role.
pub fn render_journey(trace_id: u64, spans: &[SpanEvent], segments: usize, node: u32) -> String {
    let any = |f: &dyn Fn(&SpanEvent) -> bool| spans.iter().any(f);
    let local_flight = |s: &SpanEvent, status: SpanStatus| {
        s.layer == Layer::Flight && s.node == node && s.status == status
    };
    // A hash-only answer: the tier revalidated, or the proxy collapsed a
    // rebuilt page into a 304.
    let tier = if any(&|s| s.status == SpanStatus::Revalidated) {
        "revalidated"
    } else if any(&|s| s.status.is_failure()) {
        "error"
    } else if any(&|s| s.layer == Layer::Purge) {
        "purge"
    } else if any(&|s| s.layer == Layer::TierL2 && s.status == SpanStatus::Hit) {
        "l2"
    } else if any(&|s| s.layer == Layer::Assembly) {
        "assembled"
    } else if any(&|s| local_flight(s, SpanStatus::Waiter)) {
        "flight-wait"
    } else {
        "origin"
    };
    let flight = if any(&|s| local_flight(s, SpanStatus::Leader)) {
        "leader"
    } else if any(&|s| local_flight(s, SpanStatus::Waiter)) {
        "waiter"
    } else {
        "none"
    };
    format!(
        "id={trace_id:016x} tier={tier} flight={flight} segments={segments} spans={}",
        spans.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder(config: TraceConfig) -> (Arc<TraceRecorder>, Arc<dpc_net::VirtualClock>) {
        let (clock, vclock) = Clock::virtual_clock();
        (TraceRecorder::new(config, clock), vclock)
    }

    #[test]
    fn header_context_roundtrips() {
        let s = format_ctx(0xdead_beef, 42);
        assert_eq!(parse_ctx(&s), Some((0xdead_beef, 42)));
        assert_eq!(parse_ctx("nonsense"), None);
        assert_eq!(parse_ctx(""), None);
        assert_eq!(parse_ctx("0-1"), None, "zero trace id is rejected");
    }

    #[test]
    fn spans_nest_and_parent_through_the_thread_local() {
        let (rec, vclock) = recorder(TraceConfig::default());
        let tracer = Tracer::new(Arc::clone(&rec));
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        {
            let _enter = enter_ctx(Some(ctx));
            let outer = tracer.span(Layer::TierL2);
            let outer_id = outer.id();
            vclock.advance(Duration::from_nanos(1_500));
            {
                let inner = tracer.span(Layer::Assembly);
                assert_eq!(current(), Some((ctx.trace_id, inner.id())));
            }
            assert_eq!(current(), Some((ctx.trace_id, outer_id)));
            drop(outer);
        }
        assert_eq!(current(), None, "guard restored the empty context");
        tracer.finish_root(ctx, SpanStatus::Ok);
        let spans = rec.spans_of(ctx.trace_id);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.layer == Layer::Http).unwrap();
        let l2 = spans.iter().find(|s| s.layer == Layer::TierL2).unwrap();
        let asm = spans.iter().find(|s| s.layer == Layer::Assembly).unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(l2.parent_id, root.span_id);
        assert_eq!(asm.parent_id, l2.span_id);
        // Exact virtual-clock pinning: the only advance was 1 500 ns,
        // after the L2 span opened and before the assembly span opened.
        assert_eq!(l2.duration_nanos(), 1_500);
        assert_eq!(asm.duration_nanos(), 0);
        assert_eq!(root.duration_nanos(), 1_500);
    }

    #[test]
    fn disabled_tracer_and_missing_context_record_nothing() {
        let tracer = Tracer::off();
        assert!(tracer.begin_request(Layer::Http, None).is_none());
        assert!(!tracer.span(Layer::TierL2).on());
        let (rec, _) = recorder(TraceConfig::default());
        let tracer = Tracer::new(Arc::clone(&rec));
        // Enabled tracer, but no context established on this thread.
        assert!(!tracer.span(Layer::TierL2).on());
        assert_eq!(rec.stats().spans_total, 0);
    }

    #[test]
    fn slow_roots_are_retained_and_fast_ones_age_out() {
        let (rec, vclock) = recorder(TraceConfig {
            slow_threshold_nanos: 1_000,
            ..TraceConfig::default()
        });
        let tracer = Tracer::new(Arc::clone(&rec));
        // Fast trace: not retained.
        let fast = tracer.begin_request(Layer::Http, None).unwrap();
        tracer.finish_root(fast, SpanStatus::Ok);
        assert!(rec.recent().is_empty());
        // Slow trace: retained with its child spans.
        let slow = tracer.begin_request(Layer::Http, None).unwrap();
        {
            let _enter = enter_ctx(Some(slow));
            let _sp = tracer.span(Layer::Assembly);
            vclock.advance(Duration::from_nanos(5_000));
        }
        tracer.finish_root(slow, SpanStatus::Ok);
        let recent = rec.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].trace_id, slow.trace_id);
        assert_eq!(recent[0].reason, RetainReason::Slow);
        assert_eq!(recent[0].duration_nanos, 5_000);
        assert_eq!(recent[0].spans.len(), 2);
        let stats = rec.stats();
        assert_eq!(stats.retained_slow, 1);
        assert_eq!(stats.retained_error, 0);
    }

    #[test]
    fn failed_spans_flag_their_trace_for_retention() {
        let (rec, _vclock) = recorder(TraceConfig::default());
        let tracer = Tracer::new(Arc::clone(&rec));
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        {
            let _enter = enter_ctx(Some(ctx));
            let mut sp = tracer.span(Layer::Flight);
            sp.set_status(SpanStatus::Orphaned);
        }
        tracer.finish_root(ctx, SpanStatus::Ok);
        let recent = rec.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].reason, RetainReason::Error);
        assert_eq!(rec.stats().retained_error, 1);
    }

    #[test]
    fn evicted_roots_are_retained_as_evicted() {
        let (rec, _vclock) = recorder(TraceConfig::default());
        let tracer = Tracer::new(Arc::clone(&rec));
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        tracer.finish_root(ctx, SpanStatus::Evicted);
        assert_eq!(rec.recent()[0].reason, RetainReason::Evicted);
        assert_eq!(rec.stats().retained_evicted, 1);
    }

    #[test]
    fn remote_roots_never_run_retention() {
        let (rec, _vclock) = recorder(TraceConfig {
            slow_threshold_nanos: 0,
            sample_one_in: 1,
            ..TraceConfig::default()
        });
        let tracer = Tracer::new(Arc::clone(&rec));
        let header = format_ctx(7, 9);
        let ctx = tracer.begin_request(Layer::Http, Some(&header)).unwrap();
        assert!(ctx.remote);
        assert_eq!((ctx.trace_id, ctx.parent_id), (7, 9));
        tracer.finish_root(ctx, SpanStatus::Ok);
        assert!(
            rec.recent().is_empty(),
            "a continued trace is retained by its entry node, not here"
        );
    }

    #[test]
    fn sampling_retains_fast_traces() {
        let (rec, _vclock) = recorder(TraceConfig {
            sample_one_in: 2,
            ..TraceConfig::default()
        });
        let tracer = Tracer::new(Arc::clone(&rec));
        for _ in 0..4 {
            let ctx = tracer.begin_request(Layer::Http, None).unwrap();
            tracer.finish_root(ctx, SpanStatus::Ok);
        }
        assert_eq!(rec.recent().len(), 2, "one in two fast traces kept");
    }

    #[test]
    fn keep_list_is_bounded_oldest_first() {
        let (rec, _vclock) = recorder(TraceConfig {
            keep: 3,
            sample_one_in: 1,
            ..TraceConfig::default()
        });
        let tracer = Tracer::new(Arc::clone(&rec));
        let ids: Vec<u64> = (0..5)
            .map(|_| {
                let ctx = tracer.begin_request(Layer::Http, None).unwrap();
                tracer.finish_root(ctx, SpanStatus::Ok);
                ctx.trace_id
            })
            .collect();
        let recent: Vec<u64> = rec.recent().iter().map(|t| t.trace_id).collect();
        assert_eq!(recent, vec![ids[4], ids[3], ids[2]], "newest first, capped");
    }

    #[test]
    fn ring_overwrites_are_counted_and_bounded() {
        let (rec, _vclock) = recorder(TraceConfig {
            rings: 1,
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        let tracer = Tracer::new(Arc::clone(&rec));
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        {
            let _enter = enter_ctx(Some(ctx));
            for _ in 0..10 {
                let _sp = tracer.span(Layer::TierL2);
            }
        }
        let stats = rec.stats();
        assert_eq!(stats.spans_total, 10);
        assert_eq!(stats.ring_overwrites, vec![6], "10 pushes into 4 slots");
        assert!(
            rec.spans_of(ctx.trace_id).len() <= 4,
            "the ring only ever holds its capacity"
        );
    }

    #[test]
    fn recent_json_renders_the_keep_list() {
        let (rec, _vclock) = recorder(TraceConfig {
            sample_one_in: 1,
            ..TraceConfig::default()
        });
        let tracer = Tracer::new(Arc::clone(&rec));
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        tracer.finish_root(ctx, SpanStatus::Ok);
        let json = rec.recent_json();
        assert!(json.starts_with("{\"traces\":["));
        assert!(json.contains(&format!("\"trace_id\":\"{:016x}\"", ctx.trace_id)));
        assert!(json.contains("\"layer\":\"http\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn journey_rendering_derives_tier_and_flight_from_spans() {
        let base = SpanEvent {
            trace_id: 1,
            span_id: 2,
            parent_id: 0,
            layer: Layer::Http,
            status: SpanStatus::Ok,
            start_nanos: 0,
            end_nanos: 0,
            node: 0,
            detail: 0,
        };
        let l2_hit = SpanEvent {
            layer: Layer::TierL2,
            status: SpanStatus::Hit,
            ..base
        };
        let header = render_journey(1, &[base, l2_hit], 1, 0);
        assert_eq!(
            header,
            "id=0000000000000001 tier=l2 flight=none segments=1 spans=2"
        );
        let waiter = SpanEvent {
            layer: Layer::Flight,
            status: SpanStatus::Waiter,
            detail: 99,
            ..base
        };
        let header = render_journey(1, &[base, waiter], 1, 0);
        assert!(header.contains("tier=flight-wait"));
        assert!(header.contains("flight=waiter"));
        // The same waiter span seen from another node is a remote
        // fragment flight, not this serve's role.
        let header = render_journey(1, &[base, waiter], 1, 7);
        assert!(header.contains("tier=origin"));
        assert!(header.contains("flight=none"));
        let asm = SpanEvent {
            layer: Layer::Assembly,
            ..base
        };
        let header = render_journey(1, &[base, asm], 4, 0);
        assert!(header.contains("tier=assembled"));
        assert!(header.contains("segments=4"));
    }
}
