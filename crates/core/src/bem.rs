//! The Back End Monitor (BEM) and the tagging API.
//!
//! The BEM "resides at the back end and has two primary functions: (1)
//! managing the cache for the DPC, and (2) caching intermediate objects"
//! (§4.3.3). This module provides both, plus the **tagging API** that
//! scripts wrap around cacheable code blocks (§4.3.1's initialization-time
//! tagging): [`TemplateWriter::fragment`] is the run-time face of a tagged
//! code block — it consults the cache directory and either emits a `GET`
//! instruction (hit: the code block's body never runs) or runs the block
//! and emits its output inside a `SET` instruction (miss).
//!
//! Three writer modes cover the paper's experimental configurations:
//!
//! * **instrumented** (BEM enabled) — emits templates with instructions;
//! * **plain** (BEM disabled / "no cache") — emits fully expanded pages;
//! * **bypass** — per-request full expansion, used when the DPC asks the
//!   origin to re-serve a page it could not assemble (e.g. slot raced or
//!   proxy restarted). Bypass runs every code block but does *not* touch
//!   directory state.

use bytes::Bytes;
use dpc_repository::reads;
use dpc_trace::{Layer, SpanStatus, Tracer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::config::BemConfig;
use crate::directory::{CacheDirectory, DirectoryStats, Lookup};
use crate::epoch::{CoherencyEpoch, ReadSet};
use crate::flight::{Publish, Wait};
use crate::key::{DpcKey, FragmentId};
use crate::objects::ObjectCache;
use crate::stats::BemStats;
use crate::tag;

/// Upper bound on flight laps per fragment serve. A lap restarts when a
/// mid-flight invalidation discards the leader's result or a leader dies;
/// after this many laps the fragment is served uncoalesced (correct, just
/// duplicated work) so a pathological invalidation storm cannot spin a
/// request forever.
const MAX_FLIGHT_LAPS: u32 = 4;

/// Per-fragment caching metadata attached at tagging time (§4.3.1: "The
/// tagging process assigns a unique identifier to each cacheable fragment,
/// along with the appropriate metadata (e.g., time-to-live)").
#[derive(Debug, Clone)]
pub struct FragmentPolicy {
    /// Time-to-live before the fragment expires.
    pub ttl: Duration,
    /// Data-source dependencies the code block uses but does not read
    /// itself (e.g. `"users/u1"` for a profile field read before the
    /// block); an update to any of them invalidates the fragment. The rows
    /// the block reads are its deps without being declared.
    pub deps: Vec<String>,
    /// Design-time cacheability (the model's indicator `X_j`). Uncacheable
    /// fragments always run their code block and are emitted inline.
    pub cacheable: bool,
}

impl FragmentPolicy {
    /// Cacheable with the given TTL and no data dependencies.
    pub fn ttl(ttl: Duration) -> FragmentPolicy {
        FragmentPolicy {
            ttl,
            deps: Vec::new(),
            cacheable: true,
        }
    }

    /// Cacheable, effectively non-expiring (invalidation-driven only).
    pub fn pinned() -> FragmentPolicy {
        FragmentPolicy::ttl(Duration::from_secs(u64::MAX / 4))
    }

    /// Marked uncacheable at design time (`X_j = 0`).
    pub fn uncacheable() -> FragmentPolicy {
        FragmentPolicy {
            ttl: Duration::ZERO,
            deps: Vec::new(),
            cacheable: false,
        }
    }

    /// Builder: attach data-source dependencies.
    pub fn with_deps(mut self, deps: &[&str]) -> FragmentPolicy {
        self.deps = deps.iter().map(|d| (*d).to_owned()).collect();
        self
    }
}

/// The Back End Monitor.
pub struct Bem {
    config: BemConfig,
    directory: CacheDirectory,
    objects: ObjectCache,
    rng: Mutex<XorShift64>,
    stats: BemStats,
    /// Count of template-writer sessions (≈ pages served through the BEM).
    pages: AtomicU64,
    /// The serving tier's page epoch, whose stripe of the updated dep
    /// every data-source invalidation bumps.
    page_epoch: Mutex<Option<CoherencyEpoch>>,
    /// Span tracer for directory lookups and flight participation
    /// ([`Tracer::off`] until the serving tier installs one).
    tracer: Mutex<Tracer>,
}

impl Bem {
    pub fn new(config: BemConfig) -> Bem {
        let directory = CacheDirectory::new(&config);
        let objects = ObjectCache::new(config.clock.clone());
        let rng = Mutex::new(XorShift64::new(config.seed));
        Bem {
            config,
            directory,
            objects,
            rng,
            stats: BemStats::default(),
            pages: AtomicU64::new(0),
            page_epoch: Mutex::new(None),
            tracer: Mutex::new(Tracer::off()),
        }
    }

    /// Install the span tracer (replacing any previous one). Writers pick
    /// it up per `fragment` call; spans only record when the calling
    /// thread carries a trace context.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock() = tracer;
    }

    /// The cache directory (exposed for invalidation managers and tests).
    pub fn directory(&self) -> &CacheDirectory {
        &self.directory
    }

    /// The configuration this BEM was built with (a matching DPC store
    /// should be sized with `config().capacity`).
    pub fn config(&self) -> &BemConfig {
        &self.config
    }

    /// The intermediate-object cache (the BEM's second function).
    pub fn objects(&self) -> &ObjectCache {
        &self.objects
    }

    /// Whether templates are instrumented at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Entry point for the invalidation manager: a data source reported an
    /// update to `dep`. Returns the number of fragments invalidated. Their
    /// keys go back on the freeList and no DPC slot is touched: the tags
    /// of a reassigned key name a newer generation. The installed epoch,
    /// if any, has `dep`'s stripe bumped on every update, freed keys or
    /// not: a page can read a row no cached fragment depends on.
    pub fn on_data_update(&self, dep: &str) -> usize {
        let freed = self.directory.invalidate_dep(dep).len();
        if let Some(epoch) = &*self.page_epoch.lock() {
            epoch.bump_label(dep);
        }
        freed
    }

    /// Install the serving tier's page epoch (replacing any previous
    /// one): every data update bumps the updated dep's stripe, so exactly
    /// the tiered pages that read it stop serving.
    pub fn set_invalidation_sink(&self, epoch: CoherencyEpoch) {
        *self.page_epoch.lock() = Some(epoch);
    }

    /// Start a writer for one page response.
    pub fn template_writer(&self) -> TemplateWriter<'_> {
        self.writer_inner(self.config.enabled)
    }

    /// Start a *bypass* writer: fully expanded page, directory untouched.
    pub fn bypass_writer(&self) -> TemplateWriter<'_> {
        self.writer_inner(false)
    }

    fn writer_inner(&self, instrumented: bool) -> TemplateWriter<'_> {
        self.writer_for_node_inner(instrumented, 0)
    }

    /// Start a writer for a page that will be assembled by DPC `node`
    /// (0–63). The forward-proxy extension: each distributed DPC announces
    /// its node id with the request, and the directory tracks which nodes
    /// hold each fragment.
    pub fn template_writer_for_node(&self, node: u32) -> TemplateWriter<'_> {
        self.writer_for_node_inner(self.config.enabled, node)
    }

    /// A refresh from DPC `node` named `keys`: their `GET`s found the
    /// node's slots without the generation they named (the `SET` not yet
    /// assembled there, or a restarted store). Clear the node's stored bit
    /// on each, so this request's writer re-`SET`s them. Returns the
    /// number of bits cleared.
    pub fn forget_stored(&self, node: u32, keys: &[DpcKey]) -> usize {
        let cleared = self.directory.forget_stored(node, keys);
        self.stats
            .missing_keys
            .fetch_add(cleared as u64, Ordering::Relaxed);
        cleared
    }

    fn writer_for_node_inner(&self, instrumented: bool, node: u32) -> TemplateWriter<'_> {
        self.pages.fetch_add(1, Ordering::Relaxed);
        let mut buf = Vec::with_capacity(1024);
        if instrumented {
            tag::write_preamble(&mut buf);
        }
        TemplateWriter {
            bem: self,
            buf,
            instrumented,
            node,
            reads: None,
        }
    }

    /// Directory counters.
    pub fn directory_stats(&self) -> DirectoryStats {
        self.directory.stats()
    }

    /// Verify the directory's structural invariants plus the flight
    /// accounting cross-check: every produce-running miss must have taken
    /// flight leadership or been explicitly counted as a final-lap
    /// uncoalesced miss
    /// (`misses == flight_leaders + uncoalesced_misses`, counted at
    /// different code sites), and the writer-side flight counters must be
    /// visible to the directory's flight group — a new miss arm that
    /// silently bypasses the single flight shows up here as an
    /// inequality. Call at quiescence (no writer mid-fragment).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.directory.check_invariants()?;
        let snap = self.stats.snapshot();
        let flight = self.directory.flight().counters();
        if snap.misses != snap.flight_leaders + snap.uncoalesced_misses {
            return Err(format!(
                "{} misses ran produce with {} flight leaderships and {} \
                 uncoalesced-lap misses — a miss arm bypassed the flight group",
                snap.misses, snap.flight_leaders, snap.uncoalesced_misses
            ));
        }
        if snap.flight_leaders > flight.leaders {
            return Err(format!(
                "writer counted {} flight leaderships but the group only saw {}",
                snap.flight_leaders, flight.leaders
            ));
        }
        if snap.coalesced_waits > flight.waits_served {
            return Err(format!(
                "writer counted {} coalesced waits but the group only served {}",
                snap.coalesced_waits, flight.waits_served
            ));
        }
        Ok(())
    }

    /// BEM-level counters (template/content byte accounting).
    pub fn stats(&self) -> &BemStats {
        &self.stats
    }

    /// Pages served through template writers so far.
    pub fn pages_served(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    /// Draw the force-miss Bernoulli for a would-be hit. True = demote the
    /// hit to a miss (controlled hit-ratio experiments).
    fn draw_force_miss(&self) -> bool {
        match self.config.force_miss_probability {
            None => false,
            Some(p) if p <= 0.0 => false,
            Some(p) if p >= 1.0 => true,
            Some(p) => self.rng.lock().next_f64() < p,
        }
    }
}

/// Builds one page response — either an instrumented template or a plain
/// page, depending on the BEM mode.
pub struct TemplateWriter<'a> {
    bem: &'a Bem,
    buf: Vec<u8>,
    instrumented: bool,
    /// DPC node whose store will interpret this template (0 in the
    /// single-proxy configuration).
    node: u32,
    /// The page's read set, once [`TemplateWriter::record_reads`] asked
    /// for it.
    reads: Option<ReadSet>,
}

impl TemplateWriter<'_> {
    /// Record this page's read set from now on: the declared deps of every
    /// cacheable fragment, and for a `GET` every dep its entry registered,
    /// so a `GET` notes what its `SET` noted. The rows a block reads when
    /// it runs reach the caller's own [`reads::record`] recording, which
    /// the caller adds.
    pub fn record_reads(&mut self) {
        self.reads = Some(ReadSet::default());
    }

    /// The read set recorded since [`record_reads`](Self::record_reads),
    /// leaving none.
    pub fn take_reads(&mut self) -> Option<ReadSet> {
        self.reads.take()
    }
}

impl TemplateWriter<'_> {
    /// Append non-cacheable layout/content bytes.
    pub fn literal(&mut self, bytes: &[u8]) {
        if self.instrumented {
            tag::write_literal(&mut self.buf, bytes);
        } else {
            self.buf.extend_from_slice(bytes);
        }
        self.bem
            .stats
            .literal_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    /// `literal` for string content.
    pub fn text(&mut self, s: &str) {
        self.literal(s.as_bytes());
    }

    /// The tagged-code-block API. `produce` is the code block's body; it is
    /// only executed on a miss (or when the fragment is uncacheable / the
    /// writer is in plain mode). With coalescing enabled a mid-flight
    /// invalidation can make the block run a second time within one call —
    /// the first result belonged to a dead generation and was discarded.
    ///
    /// The block's deps are the policy's declared deps plus the label of
    /// every repository row `produce` reads, recorded with
    /// [`reads::record`] while it runs. They are registered before the
    /// flight publishes, so a waiter released by the publish observes the
    /// same invalidation surface the leader does, and an update of a row
    /// the block read while it ran retires the entry at registration: the
    /// flight publishes stale and the lap retries.
    ///
    /// Contract: every read that feeds the block happens in the block, or
    /// is declared. A read made before the call is no dep of the block
    /// unless declared; it can also be overtaken by an update whose
    /// invalidation then lands before this entry is registered, and the
    /// entry would be valid for bytes that are already stale; and it runs
    /// on every hit, for output nobody sends.
    ///
    /// Returns true when the fragment was served without running the code
    /// block (a directory hit, or a parked wait on a concurrent leader's
    /// in-flight computation).
    pub fn fragment(
        &mut self,
        id: &FragmentId,
        policy: FragmentPolicy,
        mut produce: impl FnMut(&mut Vec<u8>),
    ) -> bool {
        let stats = &self.bem.stats;
        stats.fragments.fetch_add(1, Ordering::Relaxed);

        if !self.instrumented || !policy.cacheable {
            // Plain mode or design-time uncacheable: run the block inline.
            let mark = self.buf.len();
            if self.instrumented {
                // Uncacheable content still needs sentinel escaping inside a
                // template; produce into a scratch buffer first.
                let mut scratch = Vec::new();
                produce(&mut scratch);
                tag::write_literal(&mut self.buf, &scratch);
            } else {
                produce(&mut self.buf);
            }
            let generated = (self.buf.len() - mark) as u64;
            stats
                .generated_bytes
                .fetch_add(generated, Ordering::Relaxed);
            if !policy.cacheable {
                stats.uncacheable_fragments.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }

        // Controlled hit-ratio hook: demote a would-be hit to a miss.
        if self.bem.draw_force_miss() {
            self.bem.directory.invalidate(id);
            stats.forced_misses.fetch_add(1, Ordering::Relaxed);
        }

        // Flights are keyed by fragment identity, never by the recyclable
        // dpcKey: a bare slot index can be freed and reassigned to another
        // fragment while a waiter is parked, and the waiter would wake
        // with that fragment's bytes spliced into this template position.
        let fkey = self.bem.directory.flight_key(id);
        let tracer = self.bem.tracer.lock().clone();
        for lap in 0..=MAX_FLIGHT_LAPS {
            // The final lap runs uncoalesced so every arm must return.
            let coalesce = lap < MAX_FLIGHT_LAPS;
            let looked = {
                let mut sp = tracer.span(Layer::Directory);
                sp.set_detail(fkey);
                let looked = self.bem.directory.lookup_node(
                    id,
                    policy.ttl,
                    &policy.deps,
                    self.node,
                    self.reads.as_mut(),
                );
                sp.set_status(match &looked {
                    Lookup::Hit(..) => SpanStatus::Hit,
                    Lookup::Miss(..) => SpanStatus::Miss,
                    Lookup::Uncacheable => SpanStatus::Ok,
                });
                looked
            };
            match looked {
                Lookup::Hit(key, gen) => {
                    let mut waited = None;
                    if coalesce {
                        let mut fsp = tracer.span(Layer::Flight);
                        fsp.set_detail(fkey);
                        match self.bem.directory.flight().wait(fkey) {
                            Wait::NoFlight => fsp.cancel(),
                            Wait::Value(bytes, leader_span) => {
                                fsp.set_status(SpanStatus::Waiter);
                                fsp.set_detail(leader_span);
                                drop(fsp);
                                // The generation may have been retired
                                // and its key reassigned while we were
                                // parked; re-validate it before emitting
                                // a SET of it.
                                if self.bem.directory.current_key(id) != Some((key, gen)) {
                                    stats.flight_retries.fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                                waited = Some(bytes);
                            }
                            Wait::Retry => {
                                fsp.cancel();
                                stats.flight_retries.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            Wait::Orphaned => {
                                fsp.set_status(SpanStatus::Orphaned);
                                // The leader died. Retire its generation so
                                // the re-lookup misses and we take over.
                                stats.flight_retries.fetch_add(1, Ordering::Relaxed);
                                self.bem.directory.invalidate_if_key(id, key);
                                continue;
                            }
                        }
                    }
                    match waited {
                        // Coalesced wait: the leader's SET may not have
                        // reached the proxy yet, so this template carries
                        // the rope too — a GET here would race the slot
                        // install and bypass-storm the origin.
                        Some(bytes) => {
                            self.emit_set(key, gen, &bytes);
                            stats.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                            stats.hits.fetch_add(1, Ordering::Relaxed);
                        }
                        None => self.emit_get(key, gen),
                    }
                    return true;
                }
                Lookup::Miss(key, gen) => {
                    let leader = coalesce.then(|| self.bem.directory.flight().begin(fkey));
                    let _flight_span = leader.as_ref().map(|l| {
                        let mut sp = tracer.span(Layer::Flight);
                        sp.set_status(SpanStatus::Leader);
                        if sp.on() {
                            // Tag the flight with our span id so waiter
                            // spans can name the span they parked behind.
                            l.annotate(sp.id());
                        }
                        sp
                    });
                    let since = self.bem.directory.update_stamp();
                    let mut content = Vec::new();
                    let ((), read) = reads::record(|| produce(&mut content));
                    // What the block read, and the size it produced, which
                    // exists only now that it has run; registered before
                    // the publish below releases any waiter.
                    let size = content.len() as u64;
                    self.bem.directory.register(id, read, size, &since);
                    stats.generated_bytes.fetch_add(size, Ordering::Relaxed);
                    stats.misses.fetch_add(1, Ordering::Relaxed);
                    let content = Bytes::from(content);
                    if let Some(leader) = leader {
                        stats.flight_leaders.fetch_add(1, Ordering::Relaxed);
                        if leader.publish(content.clone()) == Publish::Stale {
                            // Invalidated mid-produce: the rope belongs to a
                            // dead generation. Never emit it under the key —
                            // the key may already be reassigned.
                            stats.flight_retries.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    } else {
                        // Final-lap miss after the lap cap: produce ran with
                        // no leadership, by design. Counted separately so
                        // the invariant checker can still prove no arm
                        // silently bypassed the flight group.
                        stats.uncoalesced_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    self.emit_set(key, gen, &content);
                    return false;
                }
                Lookup::Uncacheable => {
                    let mut content = Vec::new();
                    produce(&mut content);
                    stats
                        .generated_bytes
                        .fetch_add(content.len() as u64, Ordering::Relaxed);
                    tag::write_literal(&mut self.buf, &content);
                    stats.overflow_fragments.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        unreachable!("final uncoalesced lap returns from every arm")
    }

    /// Emit a `GET key.gen` instruction, with hit and tag-byte accounting.
    fn emit_get(&mut self, key: DpcKey, gen: u64) {
        let stats = &self.bem.stats;
        tag::write_get(&mut self.buf, key, gen);
        stats.hits.fetch_add(1, Ordering::Relaxed);
        stats
            .tag_bytes
            .fetch_add(tag::get_tag_len(key, gen) as u64, Ordering::Relaxed);
    }

    /// Emit a `SET key.gen` instruction carrying `content`, with tag-byte
    /// accounting.
    fn emit_set(&mut self, key: DpcKey, gen: u64, content: &[u8]) {
        self.bem.stats.tag_bytes.fetch_add(
            tag::set_tag_overhead(key, gen, content.len()) as u64,
            Ordering::Relaxed,
        );
        tag::write_set(&mut self.buf, key, gen, content);
    }

    /// True when this writer emits an instrumented template.
    pub fn is_instrumented(&self) -> bool {
        self.instrumented
    }

    /// Finish the page and return its bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bem
            .stats
            .emitted_bytes
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        self.buf
    }
}

/// Tiny deterministic PRNG (xorshift64*), so the core crate needs no `rand`
/// dependency for the force-miss Bernoulli draws.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: seed | 1, // avoid the all-zero fixed point
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble;
    use crate::config::ReplacePolicy;
    use crate::store::FragmentStore;
    use dpc_net::Clock;
    use dpc_repository::{Repository, Row};

    fn bem_with(capacity: usize) -> Bem {
        Bem::new(BemConfig::default().with_capacity(capacity))
    }

    fn nav_id() -> FragmentId {
        FragmentId::with_params("nav", &[("cat", "Fiction")])
    }

    #[test]
    fn miss_then_hit_shrinks_template() {
        let bem = bem_with(16);
        let make = |bem: &Bem| {
            let mut w = bem.template_writer();
            w.literal(b"<html>");
            w.fragment(
                &nav_id(),
                FragmentPolicy::ttl(Duration::from_secs(60)),
                |b| b.extend_from_slice(b"NAVIGATION-BAR-CONTENT"),
            );
            w.literal(b"</html>");
            w.finish()
        };
        let first = make(&bem);
        let second = make(&bem);
        assert!(second.len() < first.len());
        let stats = bem.directory_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn assembled_pages_are_identical_across_hit_and_miss() {
        let bem = bem_with(16);
        let store = FragmentStore::new(16);
        let make = |bem: &Bem| {
            let mut w = bem.template_writer();
            w.literal(b"<body>");
            w.fragment(
                &nav_id(),
                FragmentPolicy::ttl(Duration::from_secs(60)),
                |b| b.extend_from_slice(b"NAV"),
            );
            w.literal(b"</body>");
            w.finish()
        };
        let p1 = assemble(&make(&bem), &store).unwrap();
        let p2 = assemble(&make(&bem), &store).unwrap();
        assert_eq!(p1.html, p2.html);
        assert_eq!(p1.stats.sets, 1);
        assert_eq!(p2.stats.gets, 1);
    }

    #[test]
    fn disabled_bem_emits_plain_pages() {
        let bem = Bem::new(BemConfig::default().with_enabled(false));
        let mut w = bem.template_writer();
        w.literal(b"<p>");
        w.fragment(
            &nav_id(),
            FragmentPolicy::ttl(Duration::from_secs(60)),
            |b| b.extend_from_slice(b"NAV"),
        );
        w.literal(b"</p>");
        let page = w.finish();
        assert_eq!(page, b"<p>NAV</p>".to_vec());
        assert!(!crate::tag::is_instrumented(&page));
    }

    #[test]
    fn bypass_writer_expands_without_touching_directory() {
        let bem = bem_with(16);
        // Warm the cache.
        let mut w = bem.template_writer();
        w.fragment(
            &nav_id(),
            FragmentPolicy::ttl(Duration::from_secs(60)),
            |b| b.extend_from_slice(b"NAV"),
        );
        let _ = w.finish();
        let before = bem.directory_stats();
        // Bypass: full content, no instructions, no stat movement.
        let mut w = bem.bypass_writer();
        let ran = !w.fragment(
            &nav_id(),
            FragmentPolicy::ttl(Duration::from_secs(60)),
            |b| b.extend_from_slice(b"NAV"),
        );
        let page = w.finish();
        assert!(ran);
        assert_eq!(page, b"NAV".to_vec());
        let after = bem.directory_stats();
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.misses, after.misses);
    }

    #[test]
    fn uncacheable_policy_always_runs_block() {
        let bem = bem_with(16);
        for _ in 0..3 {
            let mut w = bem.template_writer();
            let hit = w.fragment(&nav_id(), FragmentPolicy::uncacheable(), |b| {
                b.extend_from_slice(b"ALWAYS-FRESH")
            });
            assert!(!hit);
            let _ = w.finish();
        }
        assert_eq!(bem.directory_stats().misses, 0);
        assert_eq!(bem.stats().uncacheable_fragments.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn ttl_expiry_causes_regeneration() {
        let (clock, handle) = Clock::virtual_clock();
        let bem = Bem::new(BemConfig::default().with_capacity(8).with_clock(clock));
        let serve = |bem: &Bem| {
            let mut w = bem.template_writer();
            let hit = w.fragment(
                &nav_id(),
                FragmentPolicy::ttl(Duration::from_secs(30)),
                |b| b.extend_from_slice(b"X"),
            );
            let _ = w.finish();
            hit
        };
        assert!(!serve(&bem)); // miss
        assert!(serve(&bem)); // hit
        handle.advance(Duration::from_secs(31));
        assert!(!serve(&bem)); // expired -> miss again
        assert_eq!(bem.directory_stats().expirations, 1);
    }

    #[test]
    fn data_dependency_invalidation() {
        let bem = bem_with(8);
        let id = FragmentId::with_params("quote", &[("sym", "IBM")]);
        let policy = || FragmentPolicy::ttl(Duration::from_secs(600)).with_deps(&["quotes/IBM"]);
        let serve = |bem: &Bem| {
            let mut w = bem.template_writer();
            let hit = w.fragment(&id, policy(), |b| b.extend_from_slice(b"$100"));
            let _ = w.finish();
            hit
        };
        assert!(!serve(&bem));
        assert!(serve(&bem));
        assert_eq!(bem.on_data_update("quotes/IBM"), 1);
        assert!(!serve(&bem)); // invalidated -> miss
        assert_eq!(bem.on_data_update("quotes/MSFT"), 0);
    }

    #[test]
    fn forced_hit_ratio_zero_never_hits() {
        let bem = Bem::new(
            BemConfig::default()
                .with_capacity(8)
                .with_forced_hit_ratio(0.0),
        );
        for _ in 0..5 {
            let mut w = bem.template_writer();
            let hit = w.fragment(&nav_id(), FragmentPolicy::pinned(), |b| {
                b.extend_from_slice(b"X")
            });
            assert!(!hit);
            let _ = w.finish();
        }
    }

    #[test]
    fn forced_hit_ratio_statistics() {
        let bem = Bem::new(
            BemConfig::default()
                .with_capacity(8)
                .with_seed(42)
                .with_forced_hit_ratio(0.8),
        );
        let mut hits = 0u32;
        let n = 2000;
        for _ in 0..n {
            let mut w = bem.template_writer();
            if w.fragment(&nav_id(), FragmentPolicy::pinned(), |b| {
                b.extend_from_slice(b"X")
            }) {
                hits += 1;
            }
            let _ = w.finish();
        }
        let h = hits as f64 / n as f64;
        assert!((0.75..0.85).contains(&h), "measured h = {h}");
    }

    #[test]
    fn directory_full_with_no_replacement_is_uncacheable_but_correct() {
        let bem = Bem::new(
            BemConfig::default()
                .with_capacity(1)
                .with_replace(ReplacePolicy::None),
        );
        let store = FragmentStore::new(1);
        let id1 = FragmentId::new("a");
        let id2 = FragmentId::new("b");
        let mut w = bem.template_writer();
        w.fragment(&id1, FragmentPolicy::pinned(), |b| {
            b.extend_from_slice(b"A")
        });
        w.fragment(&id2, FragmentPolicy::pinned(), |b| {
            b.extend_from_slice(b"B")
        });
        let t = w.finish();
        let page = assemble(&t, &store).unwrap();
        assert_eq!(page.html, b"AB".to_vec());
        assert_eq!(bem.directory_stats().uncacheable, 1);
    }

    #[test]
    fn replacement_evicts_and_reuses_keys_within_capacity() {
        let bem = Bem::new(
            BemConfig::default()
                .with_capacity(2)
                .with_replace(ReplacePolicy::Lru),
        );
        for i in 0..10 {
            let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
            let mut w = bem.template_writer();
            w.fragment(&id, FragmentPolicy::pinned(), |b| b.extend_from_slice(b"x"));
            let _ = w.finish();
        }
        let stats = bem.directory_stats();
        assert_eq!(stats.valid_entries, 2);
        assert_eq!(stats.evictions, 8);
        bem.directory().check_invariants().unwrap();
    }

    #[test]
    fn a_blocks_deps_are_the_rows_it_read() {
        let bem = bem_with(8);
        let repo = Repository::with_defaults();
        let runs = std::cell::Cell::new(0u32);
        let serve = || {
            let mut w = bem.template_writer();
            let hit = w.fragment(&nav_id(), FragmentPolicy::pinned(), |out| {
                runs.set(runs.get() + 1);
                let _ = repo.get("headlines", "SYM0-h0");
                let _ = repo.get("headlines", "SYM0-h1");
                out.extend_from_slice(b"ROWS");
            });
            let _ = w.finish();
            hit
        };
        assert!(!serve()); // miss: the block ran and its reads registered
        assert!(serve()); // hit: the block did NOT run
        assert_eq!(runs.get(), 1);
        // The rows it read are live deps: updating one regenerates.
        assert_eq!(bem.on_data_update("headlines/SYM0-h1"), 1);
        assert!(!serve());
        assert_eq!(runs.get(), 2);
        assert_eq!(bem.on_data_update("headlines/SYM1-h0"), 0, "not read");
    }

    #[test]
    fn recorded_reads_are_the_same_on_get_and_set() {
        use crate::epoch::stripe_of;
        let bem = bem_with(8);
        let repo = Repository::with_defaults();
        // The page's reads as the engine gathers them: the writer's
        // read set plus the rows its repository recording saw.
        let render = || {
            let mut w = bem.template_writer();
            w.record_reads();
            let (hit, rows) = reads::record(|| {
                let policy = FragmentPolicy::pinned().with_deps(&["users/u1"]);
                let hit = w.fragment(&FragmentId::new("price"), policy, |b| {
                    let _ = repo.get("quotes", "IBM");
                    b.push(b'p')
                });
                w.fragment(&FragmentId::new("ad"), FragmentPolicy::uncacheable(), |b| {
                    let _ = repo.get("ads", "a1");
                    b.push(b'a')
                });
                hit
            });
            let mut stripes = w
                .take_reads()
                .expect("recording")
                .stripes()
                .unwrap()
                .to_vec();
            stripes.extend(rows.unwrap().iter().map(|row| stripe_of(row)));
            stripes.sort_unstable();
            stripes.dedup();
            (hit, stripes)
        };
        let mut want: Vec<u16> = ["users/u1", "quotes/IBM", "ads/a1"]
            .iter()
            .map(|l| stripe_of(l))
            .collect();
        want.sort_unstable();
        // Cold, the price block runs and is SET; warm, it is a GET that
        // notes what its entry registered.
        assert_eq!(render(), (false, want.clone()));
        assert_eq!(render(), (true, want));
        // A writer that was not asked records nothing.
        assert!(bem.template_writer().take_reads().is_none());
    }

    #[test]
    fn each_block_kind_takes_its_pinned_directory_locks() {
        let bem = bem_with(8);
        let repo = Repository::with_defaults();
        let declared = |w: &mut TemplateWriter<'_>| {
            let policy = FragmentPolicy::pinned().with_deps(&["t/declared"]);
            w.fragment(&FragmentId::new("declared"), policy, |b| b.push(b'd'));
        };
        let observed = |w: &mut TemplateWriter<'_>| {
            w.fragment(
                &FragmentId::new("observed"),
                FragmentPolicy::pinned(),
                |b| {
                    let _ = repo.get("t", "observed");
                    b.push(b'o');
                },
            );
        };
        let locks = |block: &dyn Fn(&mut TemplateWriter<'_>)| {
            let before = bem.directory().lock_acquisitions();
            block(&mut bem.template_writer());
            bem.directory().lock_acquisitions() - before
        };
        // A miss is the lookup and one registration of what the block
        // read and the size it made; a hit is the lookup.
        assert_eq!(locks(&declared), 2, "declared miss");
        assert_eq!(locks(&declared), 1, "declared hit");
        assert_eq!(locks(&observed), 2, "observed miss");
        assert_eq!(locks(&observed), 1, "observed hit");
        assert_eq!(bem.on_data_update("t/observed"), 1);
    }

    #[test]
    fn register_rejects_invalid_entries() {
        let bem = bem_with(8);
        let id = FragmentId::new("x");
        let since = bem.directory().update_stamp();
        let read = |label: &str| Some(vec![label.to_owned()]);
        assert!(!bem.directory().register(&id, read("t/k"), 1, &since));
        let mut w = bem.template_writer();
        w.fragment(&id, FragmentPolicy::pinned(), |b| b.push(b'x'));
        let _ = w.finish();
        assert!(bem.directory().register(&id, read("t/k"), 1, &since));
        bem.directory().invalidate(&id);
        assert!(!bem.directory().register(&id, read("t/k2"), 1, &since));
        bem.directory().check_invariants().unwrap();
    }

    #[test]
    fn coalescing_accounting_balances_on_sequential_traffic() {
        // Sequential traffic never parks: every miss is a zero-waiter
        // flight, hits skip the flight map via the active-counter fast
        // path, and the invariant checker balances throughout.
        let bem = bem_with(16);
        for round in 0..3 {
            for i in 0..8 {
                let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
                let mut w = bem.template_writer();
                w.fragment(&id, FragmentPolicy::pinned(), |b| b.push(b'x'));
                let _ = w.finish();
            }
            bem.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        let snap = bem.stats().snapshot();
        assert_eq!(snap.misses, 8);
        assert_eq!(snap.flight_leaders, 8);
        assert_eq!(snap.coalesced_waits, 0);
        assert_eq!(snap.flight_retries, 0);
        let stats = bem.directory_stats();
        assert_eq!(stats.flight_leaders, 8);
        assert_eq!(stats.coalesced_waits, 0);
    }

    #[test]
    fn mid_flight_invalidation_reruns_produce_and_discards_stale_rope() {
        // Single-threaded re-entrancy: the producer itself invalidates the
        // fragment's dependency mid-produce, exactly what a racing
        // invalidation does. The first result must be discarded (publish
        // returns Stale), produce must run again, and the emitted template
        // must carry the *fresh* rope.
        let bem = bem_with(8);
        let store = FragmentStore::new(8);
        let id = FragmentId::new("volatile");
        let runs = std::cell::Cell::new(0u32);
        let mut w = bem.template_writer();
        let hit = w.fragment(
            &id,
            FragmentPolicy::ttl(Duration::from_secs(600)).with_deps(&["tbl/v"]),
            |b| {
                let n = runs.get() + 1;
                runs.set(n);
                if n == 1 {
                    // Mid-produce invalidation: stamps the flight stale.
                    bem.on_data_update("tbl/v");
                }
                b.extend_from_slice(format!("v{n}").as_bytes());
            },
        );
        let template = w.finish();
        assert!(!hit);
        assert_eq!(runs.get(), 2, "stale lap re-runs produce once");
        let page = assemble(&template, &store).unwrap();
        assert_eq!(page.html, b"v2".to_vec(), "stale rope v1 never emitted");
        let snap = bem.stats().snapshot();
        assert_eq!(snap.flight_retries, 1);
        assert_eq!(snap.misses, 2, "both produce runs are counted misses");
        bem.check_invariants().unwrap();
    }

    #[test]
    fn an_update_while_a_block_runs_is_not_cached_over() {
        // The rows a block read are registered only when it returns, so
        // the update it races frees nothing; the directory's update stamp
        // still sees it.
        let bem = bem_with(8);
        let store = FragmentStore::new(8);
        let repo = Repository::with_defaults();
        repo.seed("t", "row", Row::new().with("v", 1i64));
        let id = FragmentId::new("headlines");
        let runs = std::cell::Cell::new(0);
        let render = || {
            let mut w = bem.template_writer();
            let hit = w.fragment(&id, FragmentPolicy::ttl(Duration::from_secs(600)), |out| {
                runs.set(runs.get() + 1);
                let v = repo.get("t", "row").value.expect("seeded").int("v");
                out.extend_from_slice(format!("v{v}").as_bytes());
                if runs.get() == 1 {
                    // The row changes after the block read it.
                    repo.update("t", "row", |row| row.set("v", 2i64));
                    assert_eq!(bem.on_data_update("t/row"), 0, "nothing depends on it yet");
                }
            });
            (hit, assemble(&w.finish(), &store).unwrap().html)
        };
        // The lap that read v1 publishes stale; the retried lap is a miss
        // that reads v2, and v2 is what the directory keeps.
        assert_eq!(render(), (false, b"v2".to_vec()));
        assert_eq!(runs.get(), 2);
        assert_eq!(render(), (true, b"v2".to_vec()));
        assert_eq!(runs.get(), 2);
        assert_eq!(bem.stats().snapshot().flight_retries, 1);
        bem.check_invariants().unwrap();
    }

    #[test]
    fn xorshift_is_deterministic_and_uniformish() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = a.next_f64();
            assert_eq!(v, b.next_f64());
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 1000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }
}
