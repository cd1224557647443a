//! URL-keyed full-page cache — the §3.2.1 baseline.
//!
//! Deliberately faithful to its 2002 commercial counterparts, including
//! their defects: the cache key is the request URL alone (no session
//! awareness — hence the Bob/Alice wrong-page hazard) and invalidation is
//! whole-page (hence the over-invalidation the paper's stock-quote example
//! describes). `PURGE <target>` drops one entry.
//!
//! Replacement is LRU ([`dpc_core::LruReplacer`], from `dpc-policy`),
//! keyed by the URL's FNV hash. Hashed keys keep the hit path
//! allocation-free (an `LruReplacer<String>` would need an owned `String`
//! per `touch`); an `ident → URL` owner map resolves victims, and the
//! astronomically rare 64-bit collision is handled by purging the
//! previous owner.

use bytes::Bytes;
use dpc_core::{fnv1a, CoherencyEpoch, FlightGroup, Join, LruReplacer, Publish, Replacer};
use dpc_net::Clock;
use dpc_trace::{Layer, SpanStatus, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Retry laps a filler takes through the flight map before falling back
/// to an uncoalesced fill (a purge storm could otherwise spin a request).
const MAX_FILL_LAPS: u32 = 4;

/// How [`PageCache::get_or_fill`] served a request.
#[derive(Debug)]
pub enum PageServe {
    /// Cached entry.
    Hit(Bytes, String),
    /// Served off a concurrent leader's in-flight fill — the origin was
    /// not contacted for this request.
    Coalesced(Bytes, String),
    /// This caller led the fill: the closure ran and its full response is
    /// in the caller's hands.
    Led,
}

/// A cached page body plus metadata.
#[derive(Clone)]
struct PageEntry {
    body: Bytes,
    content_type: String,
    expires_at: u64,
    /// Coherence stamp for assembled-page entries (the DPC's L2 tier):
    /// the [`CoherencyEpoch`] value captured *before* the page was
    /// assembled. Validated against the live epoch on every hit —
    /// a mismatch means an invalidation (purge, data update, gossip
    /// scrub) landed since assembly and the entry self-evicts. `None`
    /// for classic page-cache-mode entries, which rely on explicit
    /// `PURGE` + TTL alone (their install predates the epoch and a
    /// global stamp would over-invalidate the baseline).
    stamp: Option<u64>,
    /// Hits served from this entry since install. Drives L1 promotion:
    /// the per-loop tier only copies a page up on the Nth hit, keeping
    /// one-hit wonders out of the small L1 budget.
    hits: u64,
    /// Strong validator for conditional GETs — the quoted form of the
    /// page's assembly-time content identity
    /// ([`dpc_core::AssemblyStats::page_identity`]). `None` for entries
    /// installed by paths that carry no identity (classic page-cache
    /// mode), which then never answer `If-None-Match` with a 304.
    etag: Option<String>,
}

/// An L2 hit as seen by the per-loop L1 tier: the page plus the metadata
/// the L1 needs to install and later re-validate it.
pub struct PageHit {
    pub body: Bytes,
    pub content_type: String,
    /// The entry's coherence stamp: `Some(epoch value at install)` for
    /// stamped (tiered) entries, `None` for classic unstamped pages.
    pub stamp: Option<u64>,
    /// Hits this entry has served, including this one.
    pub entry_hits: u64,
    /// How much longer this entry stays fresh in the L2. An L1 promotion
    /// caps its copy's expiry at this, so promotion never restarts the
    /// page's freshness clock (a late promotion would otherwise serve the
    /// page for up to twice the configured TTL).
    pub ttl_remaining: Duration,
    /// The entry's strong ETag, when its installer carried one. Because
    /// stale stamped entries self-evict in the lookup before a hit is
    /// produced, an ETag read off a `PageHit` is always epoch-current —
    /// a 304 built from it can never validate a page an invalidation
    /// already outdated.
    pub etag: Option<String>,
}

/// Maps and replacer move together under one lock: eviction decisions and
/// entry removal must be atomic.
struct PageInner {
    entries: HashMap<String, PageEntry>,
    /// Victim resolution: replacer key (URL hash) → URL.
    owner: HashMap<u64, String>,
    replacer: LruReplacer<u64>,
}

impl PageInner {
    /// Remove `target`'s entry and its replacer tracking (expiry, purge,
    /// collision displacement — removals, never evictions).
    fn forget(&mut self, target: &str, ident: u64) -> bool {
        let removed = self.entries.remove(target).is_some();
        if removed {
            self.owner.remove(&ident);
            self.replacer.remove(&ident);
        }
        removed
    }
}

/// Per-tier counter snapshot of a node's page caching (the shared L2
/// plus every per-loop L1 reporting into it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// All page-tier hits, whichever tier served them. Derived at snapshot
    /// time as `l1_hits + l2_hits` (there is no third counter to drift),
    /// so the tier invariant holds even in a snapshot taken mid-traffic.
    pub hits: u64,
    /// Hits served by a per-loop L1 (zero directory locks, zero assembly).
    pub l1_hits: u64,
    /// Hits served by the shared node cache.
    pub l2_hits: u64,
    pub misses: u64,
    pub purges: u64,
    pub evictions: u64,
    /// Stale L1 entries dropped on touch after a coherence-epoch bump.
    pub l1_stale_evictions: u64,
    /// Stale stamped L2 entries dropped on touch after an epoch bump.
    pub l2_stale_evictions: u64,
    pub flight_leaders: u64,
    pub coalesced_waits: u64,
    pub flight_retries: u64,
}

impl PageCacheStats {
    /// Cross-check the tier accounting: every hit was served by exactly
    /// one tier. Holds for any [`PageCache::stats`] snapshot (where `hits`
    /// is derived); guards hand-built or externally-aggregated snapshots.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.hits != self.l1_hits + self.l2_hits {
            return Err(format!(
                "page tier accounting drifted: hits {} != l1 {} + l2 {}",
                self.hits, self.l1_hits, self.l2_hits
            ));
        }
        Ok(())
    }
}

/// URL-keyed page cache with TTL and LRU replacement.
pub struct PageCache {
    clock: Clock,
    ttl: Duration,
    capacity: usize,
    inner: Mutex<PageInner>,
    /// Single-flight per URL hash: concurrent misses for the same page
    /// collapse into one origin fetch (see [`PageCache::get_or_fill`]).
    flight: FlightGroup<u64, (Bytes, String)>,
    /// Bumped (under the `inner` lock) by every `purge` and `clear`. A
    /// fill captures it before fetching the origin and the install checks
    /// it again under the same lock, so a page generated before a purge
    /// can never be (re)installed after it — even on paths with no live
    /// flight to stamp, like the lap-cap fallback, and even in the window
    /// between a leader's publish and its install. The epoch is global to
    /// the cache: a purge of an *unrelated* URL also skips a concurrent
    /// install (the page is served but not cached — conservative, never
    /// wrong, and purges are rare next to fills).
    purge_epoch: AtomicU64,
    /// Node-wide coherence epoch shared with the per-loop L1 tier and
    /// every invalidation path (purge, origin data update, gossip scrub).
    /// `purge`/`clear` bump it so stamped entries — here and in every L1
    /// — self-evict on next touch. `None` when the node runs no
    /// assembled-page tier (classic page-cache mode).
    coherence: Option<CoherencyEpoch>,
    /// Hits the per-loop L1 tier reported into this node's books (see
    /// [`PageCache::note_l1_hit`]). Total hits are derived as
    /// `l1_hits + l2_hits` — a third counter could be observed mid-update
    /// and drift from the sum in a concurrent snapshot.
    l1_hits: AtomicU64,
    /// Hits served by this cache itself.
    l2_hits: AtomicU64,
    misses: AtomicU64,
    purges: AtomicU64,
    evictions: AtomicU64,
    /// Stale L1 entries dropped on touch after an epoch bump (reported by
    /// the per-loop tiers, hosted here so one snapshot covers the node).
    l1_stale_evictions: AtomicU64,
    /// Stamped entries this cache dropped on touch after an epoch bump.
    l2_stale_evictions: AtomicU64,
    flight_leaders: AtomicU64,
    coalesced_waits: AtomicU64,
    flight_retries: AtomicU64,
    /// Span recorder handle for the L2 lookup and single-flight legs of
    /// [`PageCache::get_or_fill`]. `Tracer::off()` until
    /// [`PageCache::set_tracer`] installs one.
    tracer: Mutex<Tracer>,
}

impl PageCache {
    /// An LRU cache of at most `capacity` pages, each fresh for `ttl`.
    pub fn new(clock: Clock, ttl: Duration, capacity: usize) -> PageCache {
        let capacity = capacity.max(1);
        PageCache {
            clock,
            ttl,
            capacity,
            inner: Mutex::new(PageInner {
                entries: HashMap::new(),
                owner: HashMap::new(),
                replacer: LruReplacer::new(),
            }),
            flight: FlightGroup::new(),
            purge_epoch: AtomicU64::new(0),
            coherence: None,
            l1_hits: AtomicU64::new(0),
            l2_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            purges: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            l1_stale_evictions: AtomicU64::new(0),
            l2_stale_evictions: AtomicU64::new(0),
            flight_leaders: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            flight_retries: AtomicU64::new(0),
            tracer: Mutex::new(Tracer::off()),
        }
    }

    /// Install a span recorder handle: [`PageCache::get_or_fill`] then
    /// records a `TierL2` span per lookup and a `Flight` span per
    /// coalescing lap under the calling request's trace context.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock() = tracer;
    }

    /// The single-flight group coalescing concurrent fills (exposed for
    /// tests that stage flash crowds deterministically).
    pub fn flight(&self) -> &FlightGroup<u64, (Bytes, String)> {
        &self.flight
    }

    /// Attach the node's coherence epoch, turning on stamp validation for
    /// assembled-page entries ([`PageCache::put_stamped`]) and making
    /// `purge`/`clear` bump the epoch (so stamped entries in every tier —
    /// this cache and each loop's L1 — self-evict on next touch).
    pub fn with_coherence(mut self, epoch: CoherencyEpoch) -> PageCache {
        self.coherence = Some(epoch);
        self
    }

    /// The clock this cache's TTLs run on: the node's.
    pub(crate) fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The node's coherence epoch, when one is attached.
    pub fn coherence(&self) -> Option<&CoherencyEpoch> {
        self.coherence.as_ref()
    }

    /// Current coherence stamp for a fill about to start. Must be read
    /// *before* the origin fetch/assembly, so an invalidation racing the
    /// fill lands at or after the stamp and the installed entry fails
    /// validation on first touch. Zero (never current once the epoch has
    /// moved, always current before) when no epoch is attached.
    pub fn coherence_stamp(&self) -> u64 {
        self.coherence.as_ref().map(|e| e.value()).unwrap_or(0)
    }

    /// Look up `target`; counts a hit or miss.
    pub fn get(&self, target: &str) -> Option<(Bytes, String)> {
        self.lookup(target).map(|hit| (hit.body, hit.content_type))
    }

    /// Look up `target` for the per-loop L1 tier: the same hit/miss
    /// accounting and stale/expiry handling as [`PageCache::get`], plus
    /// the coherence stamp and the entry's running hit count so the L1
    /// can validate and decide promotion.
    pub fn get_page(&self, target: &str) -> Option<PageHit> {
        self.lookup(target)
    }

    fn lookup(&self, target: &str) -> Option<PageHit> {
        let now = self.clock.now_nanos();
        let ident = fnv1a(target.as_bytes());
        let mut inner = self.inner.lock();
        // Read under the lock: a scrub/purge that bumped the epoch before
        // this lookup began is guaranteed visible, so a completed
        // invalidation never leaves a stale stamped entry servable.
        let epoch = self.coherence.as_ref().map(|e| e.value());
        enum State {
            Hit,
            Stale,
            Expired,
            Missing,
        }
        let state = match inner.entries.get(target) {
            Some(e) if e.stamp.is_some() && epoch.is_some() && e.stamp != epoch => State::Stale,
            Some(e) if e.expires_at > now => State::Hit,
            Some(_) => State::Expired,
            None => State::Missing,
        };
        match state {
            State::Hit => {
                let entry = inner.entries.get_mut(target).expect("probed above");
                entry.hits += 1;
                let hit = PageHit {
                    body: entry.body.clone(),
                    content_type: entry.content_type.clone(),
                    stamp: entry.stamp,
                    entry_hits: entry.hits,
                    ttl_remaining: Duration::from_nanos(entry.expires_at.saturating_sub(now)),
                    etag: entry.etag.clone(),
                };
                inner.replacer.touch(&ident);
                self.l2_hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            State::Stale => {
                // An invalidation outdated the stamp; self-evict. A
                // removal, not an eviction.
                inner.forget(target, ident);
                self.l2_stale_evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            State::Expired => {
                // Expiry is a removal, not an eviction.
                inner.forget(target, ident);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            State::Missing => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a page under `target`, evicting the least recently used page
    /// when over capacity.
    pub fn put(&self, target: &str, body: Bytes, content_type: &str) {
        let mut inner = self.inner.lock();
        self.install(&mut inner, target, body, content_type, None, None);
    }

    /// Insert an assembled page under `target` with a coherence `stamp`
    /// (captured via [`PageCache::coherence_stamp`] *before* the page was
    /// assembled). Always installs; a stamp already outdated by a racing
    /// invalidation is caught by validation on first touch, so a stale
    /// install self-evicts instead of serving.
    pub fn put_stamped(&self, target: &str, body: Bytes, content_type: &str, stamp: u64) {
        self.put_stamped_tagged(target, body, content_type, stamp, None);
    }

    /// [`PageCache::put_stamped`] plus the page's strong ETag, so later
    /// hits can answer `If-None-Match` with a body-free 304.
    pub fn put_stamped_tagged(
        &self,
        target: &str,
        body: Bytes,
        content_type: &str,
        stamp: u64,
        etag: Option<String>,
    ) {
        let mut inner = self.inner.lock();
        self.install(&mut inner, target, body, content_type, Some(stamp), etag);
    }

    /// `put` gated on the purge epoch: installs only if no `purge`/`clear`
    /// has landed since `epoch` was captured. The check and the install
    /// happen under the same lock the purge bumps the epoch under, so
    /// there is no window for a pre-purge page to slip in after the purge.
    /// Returns whether the page was installed.
    fn put_unless_purged(&self, target: &str, body: Bytes, content_type: &str, epoch: u64) -> bool {
        let mut inner = self.inner.lock();
        if self.purge_epoch.load(Ordering::Relaxed) != epoch {
            return false;
        }
        self.install(&mut inner, target, body, content_type, None, None);
        true
    }

    /// Install a page under an already-held `inner` lock, evicting per
    /// policy when over capacity (the body of [`PageCache::put`]).
    fn install(
        &self,
        inner: &mut PageInner,
        target: &str,
        body: Bytes,
        content_type: &str,
        stamp: Option<u64>,
        etag: Option<String>,
    ) {
        let now = self.clock.now_nanos();
        let ttl: u64 = self.ttl.as_nanos().try_into().unwrap_or(u64::MAX);
        let ident = fnv1a(target.as_bytes());
        let entry = PageEntry {
            body,
            content_type: content_type.to_owned(),
            expires_at: now.saturating_add(ttl),
            stamp,
            hits: 0,
            etag,
        };
        if inner.entries.contains_key(target) {
            // Refresh in place.
            inner.entries.insert(target.to_owned(), entry);
            inner.replacer.touch(&ident);
            return;
        }
        if let Some(previous) = inner.owner.get(&ident).cloned() {
            // 64-bit hash collision with a different URL: displace the
            // previous owner so entries/owner/replacer stay in lockstep.
            inner.forget(&previous, ident);
        }
        while inner.entries.len() >= self.capacity {
            let Some(victim) = inner.replacer.pick_victim() else {
                return;
            };
            if let Some(url) = inner.owner.remove(&victim) {
                inner.entries.remove(&url);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.replacer.admit(ident);
        inner.entries.insert(target.to_owned(), entry);
        inner.owner.insert(ident, target.to_owned());
    }

    /// Coalescing lookup for the miss path: a hit is returned directly; on
    /// a miss, the first requester leads (runs `fill`, which fetches the
    /// origin) while concurrent requesters for the same URL park on the
    /// flight and receive the leader's page — one origin fetch per URL per
    /// generation instead of one per request.
    ///
    /// `fill` returns the cacheable `(body, content_type)` to install and
    /// broadcast, or `None` when its response must not be cached (non-GET
    /// semantics handled by the caller, error statuses, …) — waiters then
    /// retry and fetch for themselves. A purge landing mid-fill stamps the
    /// flight stale: the leader's page is served to its own client but
    /// neither cached nor broadcast.
    pub fn get_or_fill(
        &self,
        target: &str,
        fill: impl FnOnce() -> Option<(Bytes, String)>,
    ) -> PageServe {
        let tracer = self.tracer.lock().clone();
        let ident = fnv1a(target.as_bytes());
        {
            let mut sp = tracer.span(Layer::TierL2);
            sp.set_detail(ident);
            if let Some((body, ct)) = self.get(target) {
                sp.set_status(SpanStatus::Hit);
                return PageServe::Hit(body, ct);
            }
            sp.set_status(SpanStatus::Miss);
        }
        for _ in 0..MAX_FILL_LAPS {
            let mut fsp = tracer.span(Layer::Flight);
            fsp.set_detail(ident);
            match self.flight.join(ident) {
                Join::Lead(leader) => {
                    fsp.set_status(SpanStatus::Leader);
                    if fsp.on() {
                        // Stamp the flight with this span's id so every
                        // waiter's span can point back at the leader.
                        leader.annotate(fsp.id());
                    }
                    self.flight_leaders.fetch_add(1, Ordering::Relaxed);
                    // Captured before the origin fetch: any purge/clear
                    // landing after this point outdates the fill.
                    let epoch = self.purge_epoch.load(Ordering::Relaxed);
                    return match fill() {
                        Some((body, ct)) => {
                            // Publish first, install only a page the flight
                            // agrees is current: installing before the
                            // staleness check would serve the pre-purge
                            // page to concurrent GETs in between. The
                            // epoch guard covers the remaining window
                            // between this publish and the install.
                            match leader.publish((body.clone(), ct.clone())) {
                                Publish::Delivered(_) => {
                                    self.put_unless_purged(target, body, &ct, epoch);
                                }
                                Publish::Stale => {
                                    // A purge/clear landed mid-fill: our
                                    // page predates it and must not
                                    // outlive it.
                                    self.flight_retries.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            PageServe::Led
                        }
                        None => {
                            // Uncacheable response: poison the flight (the
                            // guard drops unpublished) so waiters wake and
                            // fetch for themselves.
                            drop(leader);
                            PageServe::Led
                        }
                    };
                }
                Join::Value((body, ct), leader_span) => {
                    fsp.set_status(SpanStatus::Waiter);
                    fsp.set_detail(leader_span);
                    self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                    return PageServe::Coalesced(body, ct);
                }
                Join::Retry => {
                    fsp.cancel();
                    self.flight_retries.fetch_add(1, Ordering::Relaxed);
                    // The flight landed, went stale, or was poisoned under
                    // us; a landed leader typically has installed the page
                    // by now (if not, the next lap re-elects).
                    if let Some((body, ct)) = self.get(target) {
                        return PageServe::Hit(body, ct);
                    }
                }
            }
        }
        // Lap cap exhausted (purge storm): serve uncoalesced — correct,
        // just duplicated origin work. The epoch still guards the install,
        // so even with no flight to stamp, a purge landing mid-fill keeps
        // the pre-purge page out of the cache.
        let epoch = self.purge_epoch.load(Ordering::Relaxed);
        if let Some((body, ct)) = fill() {
            self.put_unless_purged(target, body, &ct, epoch);
        }
        PageServe::Led
    }

    /// Drop the entry for `target`, if any (the `PURGE` verb). Any
    /// in-flight fill is outdated twice over: the URL's flight is stamped
    /// stale (so the pre-purge page is never broadcast) and the purge
    /// epoch is bumped (so it is never installed, even by a fill with no
    /// live flight).
    pub fn purge(&self, target: &str) -> bool {
        let ident = fnv1a(target.as_bytes());
        let mut inner = self.inner.lock();
        let removed = inner.forget(target, ident);
        // Bumped under the lock: installs check the epoch under the same
        // lock, so none started before this purge can land after it.
        self.purge_epoch.fetch_add(1, Ordering::Relaxed);
        // The coherence epoch moves too (also under the lock, so stamped
        // lookups that start after this purge returns must see it): the
        // DPC tier keys pages by target *and* session, so a PURGE of the
        // bare target cannot enumerate them — the bump makes every
        // stamped entry, here and in each loop's L1, self-evict instead.
        if let Some(epoch) = &self.coherence {
            epoch.bump();
        }
        drop(inner);
        self.flight.invalidate(ident);
        if removed {
            self.purges.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drop everything, stamping every in-flight fill stale.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.owner.clear();
        inner.replacer = LruReplacer::new();
        self.purge_epoch.fetch_add(1, Ordering::Relaxed);
        if let Some(epoch) = &self.coherence {
            epoch.bump();
        }
        drop(inner);
        self.flight.invalidate_all();
    }

    /// Report a hit served by a per-loop L1 tier into this node's books.
    /// Total hits are derived as `l1_hits + l2_hits`, so one increment
    /// keeps `hits == l1_hits + l2_hits` exact in every snapshot.
    pub fn note_l1_hit(&self) {
        self.l1_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Report a stale L1 entry dropped on touch after an epoch bump.
    pub fn note_l1_stale_eviction(&self) {
        self.l1_stale_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// (hits, misses, purges, evictions).
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.l1_hits.load(Ordering::Relaxed) + self.l2_hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.purges.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Full per-tier counter snapshot for this node's page tiers.
    pub fn stats(&self) -> PageCacheStats {
        let l1_hits = self.l1_hits.load(Ordering::Relaxed);
        let l2_hits = self.l2_hits.load(Ordering::Relaxed);
        PageCacheStats {
            hits: l1_hits + l2_hits,
            l1_hits,
            l2_hits,
            misses: self.misses.load(Ordering::Relaxed),
            purges: self.purges.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            l1_stale_evictions: self.l1_stale_evictions.load(Ordering::Relaxed),
            l2_stale_evictions: self.l2_stale_evictions.load(Ordering::Relaxed),
            flight_leaders: self.flight_leaders.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            flight_retries: self.flight_retries.load(Ordering::Relaxed),
        }
    }

    /// (flight_leaders, coalesced_waits, flight_retries) — the single-
    /// flight accounting of [`PageCache::get_or_fill`].
    pub fn coalesce_counters(&self) -> (u64, u64, u64) {
        (
            self.flight_leaders.load(Ordering::Relaxed),
            self.coalesced_waits.load(Ordering::Relaxed),
            self.flight_retries.load(Ordering::Relaxed),
        )
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(ttl_secs: u64, cap: usize) -> (PageCache, std::sync::Arc<dpc_net::VirtualClock>) {
        let (clock, handle) = Clock::virtual_clock();
        (
            PageCache::new(clock, Duration::from_secs(ttl_secs), cap),
            handle,
        )
    }

    #[test]
    fn put_get_hit() {
        let (c, _h) = cache(60, 10);
        assert!(c.get("/a").is_none());
        c.put("/a", Bytes::from_static(b"page"), "text/html");
        let (body, ct) = c.get("/a").unwrap();
        assert_eq!(&body[..], b"page");
        assert_eq!(ct, "text/html");
        assert_eq!(c.counters().0, 1);
        assert_eq!(c.counters().1, 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let (c, h) = cache(10, 10);
        c.put("/a", Bytes::from_static(b"x"), "text/html");
        h.advance(Duration::from_secs(11));
        assert!(c.get("/a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn purge_removes() {
        let (c, _h) = cache(60, 10);
        c.put("/a", Bytes::from_static(b"x"), "text/html");
        assert!(c.purge("/a"));
        assert!(!c.purge("/a"));
        assert!(c.get("/a").is_none());
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let (c, _h) = cache(60, 2);
        c.put("/a", Bytes::from_static(b"a"), "t");
        c.put("/b", Bytes::from_static(b"b"), "t");
        let _ = c.get("/a"); // a is now more recent than b
        c.put("/c", Bytes::from_static(b"c"), "t");
        assert_eq!(c.len(), 2);
        assert!(c.get("/b").is_none(), "b was LRU and must be evicted");
        assert!(c.get("/a").is_some());
        assert!(c.get("/c").is_some());
        assert_eq!(c.counters().3, 1);
    }

    #[test]
    fn refresh_keeps_one_entry_and_new_body() {
        let (c, _h) = cache(60, 2);
        c.put("/a", Bytes::from_static(b"v1"), "t");
        c.put("/a", Bytes::from_static(b"version-two"), "t");
        assert_eq!(c.len(), 1);
        let (body, _) = c.get("/a").unwrap();
        assert_eq!(&body[..], b"version-two");
        assert_eq!(c.counters().3, 0, "refresh is not an eviction");
    }

    #[test]
    fn get_or_fill_hits_do_not_touch_the_flight() {
        let (c, _h) = cache(60, 10);
        c.put("/a", Bytes::from_static(b"page"), "t");
        match c.get_or_fill("/a", || panic!("hit must not fill")) {
            PageServe::Hit(body, _) => assert_eq!(&body[..], b"page"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.coalesce_counters(), (0, 0, 0));
    }

    #[test]
    fn get_or_fill_leads_installs_and_serves() {
        let (c, _h) = cache(60, 10);
        let serve = c.get_or_fill("/a", || Some((Bytes::from_static(b"fresh"), "t".into())));
        assert!(matches!(serve, PageServe::Led));
        let (body, _) = c.get("/a").expect("leader installed the page");
        assert_eq!(&body[..], b"fresh");
        assert_eq!(c.coalesce_counters(), (1, 0, 0));
    }

    #[test]
    fn uncacheable_fill_poisons_instead_of_installing() {
        let (c, _h) = cache(60, 10);
        let serve = c.get_or_fill("/a", || None);
        assert!(matches!(serve, PageServe::Led));
        assert!(c.get("/a").is_none(), "nothing installed");
        // The next requester must not hang on the poisoned flight.
        let serve = c.get_or_fill("/a", || Some((Bytes::from_static(b"ok"), "t".into())));
        assert!(matches!(serve, PageServe::Led));
        assert!(c.get("/a").is_some());
    }

    #[test]
    fn concurrent_fills_coalesce_into_one_origin_fetch() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let (clock, _h) = Clock::virtual_clock();
        let c = Arc::new(PageCache::new(clock, Duration::from_secs(60), 10));
        let fills = Arc::new(AtomicU64::new(0));
        const CROWD: usize = 8;

        // Leader: fill blocks until the rest of the crowd has parked.
        let leader = {
            let c = Arc::clone(&c);
            let fills = Arc::clone(&fills);
            std::thread::spawn(move || {
                let c2 = Arc::clone(&c);
                c.get_or_fill("/hot", move || {
                    fills.fetch_add(1, Ordering::Relaxed);
                    let ident = fnv1a(b"/hot");
                    let start = std::time::Instant::now();
                    while c2.flight.parked_waiters(ident) < (CROWD - 1) as u32 {
                        assert!(
                            start.elapsed() < Duration::from_secs(30),
                            "crowd never parked"
                        );
                        std::thread::yield_now();
                    }
                    Some((Bytes::from_static(b"hot-page"), "t".into()))
                })
            })
        };
        let crowd: Vec<_> = (0..CROWD - 1)
            .map(|_| {
                let c = Arc::clone(&c);
                let fills = Arc::clone(&fills);
                std::thread::spawn(move || {
                    let ident = fnv1a(b"/hot");
                    let start = std::time::Instant::now();
                    while !c.flight.in_flight(ident) {
                        assert!(
                            start.elapsed() < Duration::from_secs(30),
                            "flight never began"
                        );
                        std::thread::yield_now();
                    }
                    c.get_or_fill("/hot", move || {
                        fills.fetch_add(1, Ordering::Relaxed);
                        Some((Bytes::from_static(b"hot-page"), "t".into()))
                    })
                })
            })
            .collect();

        assert!(matches!(leader.join().unwrap(), PageServe::Led));
        for t in crowd {
            match t.join().unwrap() {
                PageServe::Coalesced(body, _) => assert_eq!(&body[..], b"hot-page"),
                other => panic!("expected coalesced serve, got {other:?}"),
            }
        }
        assert_eq!(
            fills.load(Ordering::Relaxed),
            1,
            "one origin fetch for the crowd"
        );
        let (leaders, coalesced, _) = c.coalesce_counters();
        assert_eq!(leaders, 1);
        assert_eq!(coalesced, (CROWD - 1) as u64);
        c.flight.check_invariants().unwrap();
    }

    #[test]
    fn purge_mid_fill_discards_the_stale_page() {
        let (c, _h) = cache(60, 10);
        let serve = c.get_or_fill("/a", || {
            // The purge lands while the fill is producing.
            c.purge("/a");
            Some((Bytes::from_static(b"pre-purge"), "t".into()))
        });
        assert!(matches!(serve, PageServe::Led));
        assert!(
            c.get("/a").is_none(),
            "a page generated before the purge must not outlive it"
        );
        let (_, _, retries) = c.coalesce_counters();
        assert_eq!(retries, 1, "the stale publish was counted");
    }

    #[test]
    fn purge_of_another_url_mid_fill_conservatively_skips_install() {
        let (c, _h) = cache(60, 10);
        // An unrelated purge mid-fill moves the epoch; the install is
        // conservatively skipped (page served, just not cached).
        let serve = c.get_or_fill("/a", || {
            c.purge("/other");
            Some((Bytes::from_static(b"fresh"), "t".into()))
        });
        assert!(matches!(serve, PageServe::Led));
        assert!(
            c.get("/a").is_none(),
            "epoch moved mid-fill: install skipped"
        );
        // With no concurrent purge, the refill installs normally.
        let serve = c.get_or_fill("/a", || Some((Bytes::from_static(b"fresh"), "t".into())));
        assert!(matches!(serve, PageServe::Led));
        let (body, _) = c.get("/a").expect("quiescent fill installs");
        assert_eq!(&body[..], b"fresh");
    }

    #[test]
    fn clear_mid_fill_discards_via_invalidate_all() {
        let (c, _h) = cache(60, 10);
        let serve = c.get_or_fill("/a", || {
            c.clear();
            Some((Bytes::from_static(b"pre-clear"), "t".into()))
        });
        assert!(matches!(serve, PageServe::Led));
        assert!(c.get("/a").is_none(), "clear outdates the in-flight fill");
    }

    #[test]
    fn stamped_entry_self_evicts_after_epoch_bump() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        let stamp = c.coherence_stamp();
        c.put_stamped("/page\u{0}alice", Bytes::from_static(b"v1"), "t", stamp);
        assert!(c.get_page("/page\u{0}alice").is_some());
        epoch.bump();
        assert!(
            c.get_page("/page\u{0}alice").is_none(),
            "stale stamped entry must self-evict on touch"
        );
        let stats = c.stats();
        assert_eq!(stats.l2_stale_evictions, 1);
        stats.check_invariants().unwrap();
        // A fresh install under the new epoch serves again.
        c.put_stamped(
            "/page\u{0}alice",
            Bytes::from_static(b"v2"),
            "t",
            c.coherence_stamp(),
        );
        let hit = c.get_page("/page\u{0}alice").unwrap();
        assert_eq!(&hit.body[..], b"v2");
    }

    #[test]
    fn stamp_captured_before_a_racing_bump_never_serves() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        // Fill races an invalidation: stamp captured, then the bump lands
        // before the install. The entry installs but is dead on arrival.
        let stamp = c.coherence_stamp();
        epoch.bump();
        c.put_stamped("/p", Bytes::from_static(b"pre-bump"), "t", stamp);
        assert!(
            c.get_page("/p").is_none(),
            "outdated install must not serve"
        );
    }

    #[test]
    fn purge_bumps_the_coherence_epoch() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        // A session-qualified page the PURGE target string cannot name.
        c.put_stamped(
            "/page\u{0}bob",
            Bytes::from_static(b"bob"),
            "t",
            c.coherence_stamp(),
        );
        c.purge("/page");
        assert!(
            c.get_page("/page\u{0}bob").is_none(),
            "purge of the bare target must invalidate session variants via the epoch"
        );
    }

    #[test]
    fn unstamped_entries_ignore_the_epoch() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        c.put("/classic", Bytes::from_static(b"page"), "t");
        epoch.bump();
        assert!(
            c.get("/classic").is_some(),
            "classic page-cache entries rely on PURGE + TTL, not the epoch"
        );
    }

    #[test]
    fn entry_hits_count_per_generation_and_l1_notes_balance() {
        let (clock, _h) = Clock::virtual_clock();
        let c = PageCache::new(clock, Duration::from_secs(60), 10);
        c.put_stamped("/p", Bytes::from_static(b"x"), "t", 0);
        for expect in 1..=3u64 {
            assert_eq!(c.get_page("/p").unwrap().entry_hits, expect);
        }
        // Refresh resets the per-generation count.
        c.put_stamped("/p", Bytes::from_static(b"y"), "t", 0);
        assert_eq!(c.get_page("/p").unwrap().entry_hits, 1);
        // L1-reported hits keep the tier invariant balanced.
        c.note_l1_hit();
        c.note_l1_hit();
        let stats = c.stats();
        assert_eq!(stats.l1_hits, 2);
        assert_eq!(stats.l2_hits, 4);
        stats.check_invariants().unwrap();
    }

    #[test]
    fn url_keyed_ignores_users_by_design() {
        // This "test" documents the defect the DPC fixes: the cache cannot
        // distinguish Bob's page from Alice's.
        let (c, _h) = cache(60, 10);
        c.put("/page", Bytes::from_static(b"Hello, Bob"), "t");
        let (body, _) = c.get("/page").unwrap();
        assert_eq!(&body[..], b"Hello, Bob"); // Alice gets Bob's page
    }
}
