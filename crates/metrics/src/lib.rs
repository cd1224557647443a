//! Lock-free metrics primitives and a Prometheus text-exposition registry.
//!
//! The paper's evaluation attributed every byte and every millisecond to a
//! leg of the DPC pipeline (Sniffer instrumentation, §6). This crate is the
//! repo-wide substrate for the same discipline: `Counter` and `Gauge` are
//! single `AtomicU64`s, `Histogram` is a fixed array of log2 buckets whose
//! `observe` is two relaxed `fetch_add`s — no locks, no allocation, safe to
//! call on every request from every event loop. A `Registry` composes
//! closures that render the many existing `*Stats` snapshots into one
//! Prometheus text exposition served at `GET /_dpc/metrics`.
//!
//! ## Histogram design
//!
//! Bucket `i` holds observations whose value has bit-width `i`, i.e. values
//! in `[2^(i-1), 2^i)` (bucket 0 holds exactly `0`). With `BUCKETS = 40`
//! the histogram spans 1 ns .. ~550 s when fed nanoseconds, which covers
//! every service time this system can produce. Quantiles are estimated by
//! walking the cumulative bucket counts to the target rank and reporting
//! the bucket's inclusive upper bound `2^i - 1`; the estimate is exact to
//! within one octave, which is the granularity the paper's latency claims
//! are stated at anyway.
//!
//! ## Per-loop instances, merged at scrape
//!
//! Event loops never share a histogram: each loop owns its own
//! `OutcomeHistograms` (one histogram per serving outcome), so the hot
//! path's `fetch_add`s land on loop-local cache lines. The scrape path
//! merges the per-loop snapshots — scrapes are rare, observes are not.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets. Bucket `i` covers values of bit-width `i`;
/// the last bucket additionally absorbs everything wider.
pub const BUCKETS: usize = 40;

/// Lock-free fixed-bucket histogram. `observe` is two relaxed
/// `fetch_add`s and never allocates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// Bucket index for value `v`: its bit-width (0 -> 0, 1 -> 1, 2..3 -> 2,
/// 4..7 -> 3, ...), saturating at the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    let w = (64 - v.leading_zeros()) as usize;
    if w >= BUCKETS {
        BUCKETS - 1
    } else {
        w
    }
}

/// Inclusive upper bound of bucket `i` (the largest value of bit-width `i`).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Two relaxed `fetch_add`s, no allocation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, slot) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = slot.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a `Histogram`, mergeable across instances.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold another snapshot into this one (per-loop merge at scrape time).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Estimate quantile `q` in `[0, 1]`: the inclusive upper bound of the
    /// bucket containing the observation at rank `ceil(q * count)`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// The six ways a request can leave the system, in cache-journey order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the node's page cache.
    L2Hit,
    /// Miss satisfied by rope assembly from cached fragments.
    Assembled,
    /// Fell through to origin / appserver produce.
    Origin,
    /// Waited on another request's in-flight production (coalesced).
    FlightWait,
    /// Conditional request revalidated: `304 Not Modified`, hash-sized
    /// serve, no body bytes moved.
    Revalidated,
    /// Non-2xx (and non-304) response.
    Error,
}

impl Outcome {
    pub const COUNT: usize = 6;

    pub const ALL: [Outcome; Outcome::COUNT] = [
        Outcome::L2Hit,
        Outcome::Assembled,
        Outcome::Origin,
        Outcome::FlightWait,
        Outcome::Revalidated,
        Outcome::Error,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            Outcome::L2Hit => 0,
            Outcome::Assembled => 1,
            Outcome::Origin => 2,
            Outcome::FlightWait => 3,
            Outcome::Revalidated => 4,
            Outcome::Error => 5,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Outcome::L2Hit => "l2_hit",
            Outcome::Assembled => "assembled",
            Outcome::Origin => "origin",
            Outcome::FlightWait => "flight_wait",
            Outcome::Revalidated => "revalidated",
            Outcome::Error => "error",
        }
    }

    /// Classify a finished response from its status and serving headers.
    /// `revalidated` is whether the response is a `304 Not Modified`
    /// (checked before the success gate — a 304 is not an error, it is the
    /// cheapest possible hit); `x_cache` is the response's `X-Cache`
    /// value.
    pub fn classify(status_success: bool, revalidated: bool, x_cache: Option<&str>) -> Outcome {
        if revalidated {
            return Outcome::Revalidated;
        }
        if !status_success {
            return Outcome::Error;
        }
        match x_cache {
            Some("dpc-l2") | Some("page-hit") => Outcome::L2Hit,
            Some("dpc-assembled") | Some("esi-assembled") => Outcome::Assembled,
            Some("page-coalesced") => Outcome::FlightWait,
            _ => Outcome::Origin,
        }
    }
}

/// One latency histogram per serving outcome. Each event loop owns its own
/// instance; scrapes merge them.
#[derive(Debug, Default)]
pub struct OutcomeHistograms {
    per: [Histogram; Outcome::COUNT],
}

impl OutcomeHistograms {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn observe(&self, outcome: Outcome, nanos: u64) {
        self.per[outcome.index()].observe(nanos);
    }

    pub fn histogram(&self, outcome: Outcome) -> &Histogram {
        &self.per[outcome.index()]
    }

    pub fn snapshot(&self) -> [HistogramSnapshot; Outcome::COUNT] {
        std::array::from_fn(|i| self.per[i].snapshot())
    }

    /// Merge many per-loop instances into one snapshot per outcome.
    pub fn merged(loops: &[Arc<OutcomeHistograms>]) -> [HistogramSnapshot; Outcome::COUNT] {
        let mut out = [HistogramSnapshot::default(); Outcome::COUNT];
        for l in loops {
            let snap = l.snapshot();
            for (acc, s) in out.iter_mut().zip(snap.iter()) {
                acc.merge(s);
            }
        }
        out
    }
}

/// Per-(outcome, bucket) exemplars: the slowest observation each latency
/// bucket has seen since the last scrape, tagged with its trace id so a
/// histogram tail links straight to the flight recorder's keep-list. One
/// instance per event loop (like [`OutcomeHistograms`]); `observe` is a
/// racy-max pair of relaxed stores — no locks, no allocation — and scrape
/// drains the slots via [`OutcomeExemplars::take_merged`].
#[derive(Debug)]
pub struct OutcomeExemplars {
    per: [[ExemplarSlot; BUCKETS]; Outcome::COUNT],
}

#[derive(Debug, Default)]
struct ExemplarSlot {
    nanos: AtomicU64,
    trace: AtomicU64,
}

/// One drained exemplar: the worst observation of its (outcome, bucket)
/// cell in the last scrape window. `trace == 0` means the cell was empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exemplar {
    pub nanos: u64,
    pub trace: u64,
}

impl Default for OutcomeExemplars {
    fn default() -> Self {
        Self::new()
    }
}

impl OutcomeExemplars {
    pub fn new() -> Self {
        OutcomeExemplars {
            per: std::array::from_fn(|_| std::array::from_fn(|_| ExemplarSlot::default())),
        }
    }

    /// Record `nanos` as a candidate exemplar for its (outcome, bucket)
    /// cell, keeping the largest value since the last drain. The
    /// check-then-store pair is racy, but a lost update only drops one of
    /// two candidates from the same octave — fine for a debugging pointer.
    /// Observations without a trace (`trace_id == 0`) are skipped; the
    /// histogram proper still counts them.
    #[inline]
    pub fn observe(&self, outcome: Outcome, nanos: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let slot = &self.per[outcome.index()][bucket_of(nanos)];
        if nanos >= slot.nanos.load(Ordering::Relaxed) {
            slot.nanos.store(nanos, Ordering::Relaxed);
            slot.trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// Drain many per-loop instances into one exemplar per (outcome,
    /// bucket): every slot is swapped back to empty and the largest
    /// `nanos` across loops wins each cell. Called at scrape time, so each
    /// window reports its own worst observations instead of an all-time
    /// max that never moves.
    pub fn take_merged(loops: &[Arc<OutcomeExemplars>]) -> Vec<[Exemplar; BUCKETS]> {
        let mut out = vec![[Exemplar::default(); BUCKETS]; Outcome::COUNT];
        for l in loops {
            for (o, row) in l.per.iter().enumerate() {
                for (b, slot) in row.iter().enumerate() {
                    let nanos = slot.nanos.swap(0, Ordering::Relaxed);
                    let trace = slot.trace.swap(0, Ordering::Relaxed);
                    if trace != 0 && nanos >= out[o][b].nanos {
                        out[o][b] = Exemplar { nanos, trace };
                    }
                }
            }
        }
        out
    }
}

/// Escape a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builder for one text-exposition scrape. Collectors append families via
/// the typed emit helpers; `# TYPE` comments are emitted once per family.
pub struct Exposition {
    buf: String,
    typed: BTreeMap<String, &'static str>,
}

impl Exposition {
    fn new() -> Self {
        Exposition {
            buf: String::with_capacity(4096),
            typed: BTreeMap::new(),
        }
    }

    fn type_line(&mut self, name: &str, kind: &'static str) {
        match self.typed.get(name) {
            Some(prev) => {
                debug_assert_eq!(
                    *prev, kind,
                    "metric family {name} emitted with conflicting types"
                );
            }
            None => {
                self.typed.insert(name.to_string(), kind);
                self.buf.push_str("# TYPE ");
                self.buf.push_str(name);
                self.buf.push(' ');
                self.buf.push_str(kind);
                self.buf.push('\n');
            }
        }
    }

    fn labels_str(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let mut s = String::from("{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push_str("=\"");
            s.push_str(&escape_label(v));
            s.push('"');
        }
        s.push('}');
        s
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.buf.push_str(name);
        self.buf.push_str(&Self::labels_str(labels));
        self.buf.push(' ');
        self.buf.push_str(&value.to_string());
        self.buf.push('\n');
    }

    /// Emit one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(name, "counter");
        self.sample(name, labels, value);
    }

    /// Emit one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(name, "gauge");
        self.sample(name, labels, value);
    }

    /// Emit a full histogram family: cumulative `_bucket{le=...}` lines,
    /// the `+Inf` bucket, `_count`, and `_sum`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        self.type_line(name, "histogram");
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (i, &b) in snap.buckets.iter().enumerate() {
            cumulative += b;
            // Skip empty leading/interior octaves but always keep buckets
            // that carry counts, so the line set stays compact.
            if b == 0 && i + 1 < BUCKETS {
                continue;
            }
            let le = bucket_upper(i);
            let le_str = if le == u64::MAX {
                "+Inf".to_string()
            } else {
                le.to_string()
            };
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &le_str));
            self.sample(&bucket_name, &ls, cumulative);
        }
        self.sample(&format!("{name}_count"), labels, snap.count());
        self.sample(&format!("{name}_sum"), labels, snap.sum);
    }
}

type Collector = Box<dyn Fn(&mut Exposition) + Send + Sync>;

/// A registry of named collectors. Each collector is a closure that renders
/// some subsystem's live stats into the exposition; registering under an
/// existing key replaces the old collector (ring nodes re-register on
/// rejoin). Rendering iterates a `BTreeMap`, so output order is
/// deterministic.
#[derive(Default)]
pub struct Registry {
    collectors: Mutex<BTreeMap<String, Collector>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register<F>(&self, key: impl Into<String>, f: F)
    where
        F: Fn(&mut Exposition) + Send + Sync + 'static,
    {
        self.collectors
            .lock()
            .unwrap()
            .insert(key.into(), Box::new(f));
    }

    pub fn unregister(&self, key: &str) {
        self.collectors.lock().unwrap().remove(key);
    }

    /// Render one scrape in Prometheus text-exposition format.
    pub fn render(&self) -> String {
        let mut exp = Exposition::new();
        let collectors = self.collectors.lock().unwrap();
        for f in collectors.values() {
            f(&mut exp);
        }
        exp.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_nest() {
        for i in 0..BUCKETS - 1 {
            let hi = bucket_upper(i);
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i} stays in it");
            assert_eq!(bucket_of(hi + 1), i + 1);
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_counts_and_sum() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100, 100_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 100_111);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[3], 2); // 5, 5
        assert_eq!(s.buckets[7], 1); // 100
        assert_eq!(s.buckets[17], 1); // 100_000
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = Histogram::new();
        // 90 fast observations (value 10 -> bucket 4, upper 15) and
        // 10 slow ones (value 1000 -> bucket 10, upper 1023).
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 15);
        assert_eq!(s.p90(), 15);
        assert_eq!(s.p99(), 1023);
        assert_eq!(s.p999(), 1023);
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(7);
        b.observe(7);
        b.observe(9000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum, 9014);
    }

    #[test]
    fn outcome_classification() {
        use Outcome::*;
        assert_eq!(Outcome::classify(false, false, Some("dpc-l2")), Error);
        assert_eq!(Outcome::classify(true, false, Some("dpc-l2")), L2Hit);
        assert_eq!(Outcome::classify(true, false, Some("page-hit")), L2Hit);
        assert_eq!(
            Outcome::classify(true, false, Some("dpc-assembled")),
            Assembled
        );
        assert_eq!(
            Outcome::classify(true, false, Some("esi-assembled")),
            Assembled
        );
        assert_eq!(
            Outcome::classify(true, false, Some("page-coalesced")),
            FlightWait
        );
        assert_eq!(Outcome::classify(true, false, Some("page-miss")), Origin);
        assert_eq!(Outcome::classify(true, false, None), Origin);
        // A 304 is revalidated no matter what tier answered it, and the
        // revalidation check precedes the success gate (304 is non-2xx).
        assert_eq!(Outcome::classify(false, true, Some("dpc-l2")), Revalidated);
        assert_eq!(Outcome::classify(false, true, None), Revalidated);
        for (i, o) in Outcome::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }

    #[test]
    fn exemplars_keep_worst_per_bucket_and_drain_on_take() {
        let a = Arc::new(OutcomeExemplars::new());
        let b = Arc::new(OutcomeExemplars::new());
        a.observe(Outcome::L2Hit, 10, 0xAAA);
        a.observe(Outcome::L2Hit, 12, 0xBBB); // same octave, larger wins
        a.observe(Outcome::L2Hit, 11, 0); // no trace: skipped
        b.observe(Outcome::L2Hit, 13, 0xCCC); // other loop, largest overall
        b.observe(Outcome::Origin, 1000, 0xDDD);
        let loops = vec![Arc::clone(&a), Arc::clone(&b)];
        let merged = OutcomeExemplars::take_merged(&loops);
        let cell = merged[Outcome::L2Hit.index()][bucket_of(13)];
        assert_eq!((cell.nanos, cell.trace), (13, 0xCCC));
        let slow = merged[Outcome::Origin.index()][bucket_of(1000)];
        assert_eq!((slow.nanos, slow.trace), (1000, 0xDDD));
        // The drain emptied every slot: a second take sees nothing.
        let again = OutcomeExemplars::take_merged(&loops);
        assert!(again.iter().flatten().all(|e| e.trace == 0));
    }

    #[test]
    fn registry_renders_and_replaces() {
        let r = Registry::new();
        r.register("a", |e| e.counter("dpc_things_total", &[], 3));
        r.register("b", |e| {
            e.gauge("dpc_level", &[("tier", "l2")], 9);
        });
        let out = r.render();
        assert!(out.contains("# TYPE dpc_things_total counter\n"));
        assert!(out.contains("dpc_things_total 3\n"));
        assert!(out.contains("dpc_level{tier=\"l2\"} 9\n"));
        // Re-registering under the same key replaces, not duplicates.
        r.register("a", |e| e.counter("dpc_things_total", &[], 5));
        let out = r.render();
        assert_eq!(out.matches("dpc_things_total 5").count(), 1);
        assert!(!out.contains("dpc_things_total 3"));
        r.unregister("a");
        assert!(!r.render().contains("dpc_things_total"));
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let r = Registry::new();
        let h = Arc::new(Histogram::new());
        h.observe(1);
        h.observe(1);
        h.observe(300);
        let hc = h.clone();
        r.register("h", move |e| {
            e.histogram("dpc_latency_ns", &[("outcome", "l2_hit")], &hc.snapshot())
        });
        let out = r.render();
        assert!(out.contains("# TYPE dpc_latency_ns histogram\n"));
        assert!(out.contains("dpc_latency_ns_bucket{outcome=\"l2_hit\",le=\"1\"} 2\n"));
        assert!(out.contains("dpc_latency_ns_bucket{outcome=\"l2_hit\",le=\"511\"} 3\n"));
        assert!(out.contains("dpc_latency_ns_bucket{outcome=\"l2_hit\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("dpc_latency_ns_count{outcome=\"l2_hit\"} 3\n"));
        assert!(out.contains("dpc_latency_ns_sum{outcome=\"l2_hit\"} 302\n"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
