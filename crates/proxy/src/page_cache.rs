//! The node's shared page cache: the §3.2.1 URL-keyed baseline, and the
//! DPC's page tier.
//!
//! In page-cache mode it is deliberately faithful to its 2002 commercial
//! counterparts, including their defects: the cache key is the request URL
//! alone (no session awareness — hence the Bob/Alice wrong-page hazard)
//! and invalidation is whole-page (hence the over-invalidation the paper's
//! stock-quote example describes). `PURGE <target>` drops one entry.
//!
//! In DPC mode it holds assembled pages under session-qualified keys
//! ([`crate::tier::page_key`]), stamped with the node's coherency epoch and
//! the page's read set; the proxy handler probes it before it assembles.
//!
//! Either way the pages live in one [`PageTier`] behind one mutex, with a
//! page budget and LRU replacement; the cache keeps its counters, the
//! page-cache mode's single flight and the purge epoch beside it.

use crate::tier::{Page, PageTier, Verdict};
use bytes::Bytes;
use dpc_core::{fnv1a, CoherencyEpoch, FlightGroup, Join, Publish, Stamp};
use dpc_net::Clock;
use dpc_trace::{Layer, SpanStatus, Tracer};
use parking_lot::Mutex;
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

/// Counter snapshot of a node's page cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub purges: u64,
    pub evictions: u64,
    /// Stale stamped pages dropped on touch after an epoch bump.
    pub stale_evictions: u64,
    /// Stamped pages installed without a read set, so under the coarse
    /// rule: any epoch bump unserves them.
    pub coarse_installs: u64,
    pub flight_leaders: u64,
    pub coalesced_waits: u64,
    pub flight_retries: u64,
}

/// The counters behind [`PageCacheStats`].
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    purges: AtomicU64,
    evictions: AtomicU64,
    stale_evictions: AtomicU64,
    coarse_installs: AtomicU64,
    flight_leaders: AtomicU64,
    coalesced_waits: AtomicU64,
    flight_retries: AtomicU64,
}

/// The node's page cache: one [`PageTier`] with TTL and LRU replacement.
pub struct PageCache {
    clock: Clock,
    /// How long an installed page stays fresh, in nanoseconds.
    ttl_nanos: u64,
    tier: Mutex<PageTier>,
    /// Single-flight per URL hash: concurrent misses for the same page
    /// collapse into one origin fetch (see [`PageCache::get_or_fill`]).
    flight: FlightGroup<u64, (Bytes, String)>,
    /// Bumped (under the `tier` lock) by every `purge` and `clear`. A
    /// fill captures it before fetching the origin and the install checks
    /// it again under the same lock, so a page generated before a purge
    /// can never be (re)installed after it — even on paths with no live
    /// flight to stamp, like the lap-cap fallback, and even in the window
    /// between a leader's publish and its install. The epoch is global to
    /// the cache: a purge of an *unrelated* URL also skips a concurrent
    /// install (the page is served but not cached — conservative, never
    /// wrong, and purges are rare next to fills).
    purge_epoch: AtomicU64,
    /// Node-wide coherence epoch shared with every invalidation path. An
    /// origin data update or a dependency purge bumps the stripe of its
    /// label, so only the stamped entries that read it self-evict on next
    /// touch; `purge`/`clear` and a gossip scrub bump it coarsely, which
    /// unserves them all. `None` when the node runs no assembled-page tier
    /// (classic page-cache mode).
    coherence: Option<CoherencyEpoch>,
    counts: Counters,
    /// Span recorder handle for the L2 lookup and single-flight legs of
    /// [`PageCache::get_or_fill`]. `Tracer::off()` until
    /// [`PageCache::set_tracer`] installs one.
    tracer: Mutex<Tracer>,
}

impl PageCache {
    /// An LRU cache of at most `capacity` pages, each fresh for `ttl`.
    pub fn new(clock: Clock, ttl: Duration, capacity: usize) -> PageCache {
        PageCache {
            clock,
            ttl_nanos: ttl.as_nanos().try_into().unwrap_or(u64::MAX),
            tier: Mutex::new(PageTier::new(capacity)),
            flight: FlightGroup::new(),
            purge_epoch: AtomicU64::new(0),
            coherence: None,
            counts: Counters::default(),
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
    /// assembled pages ([`PageCache::install`] with a stamp) and making
    /// `purge`/`clear` bump the epoch (so every stamped entry self-evicts
    /// on next touch).
    pub fn with_coherence(mut self, epoch: CoherencyEpoch) -> PageCache {
        self.coherence = Some(epoch);
        self
    }

    /// The node's coherence epoch, when one is attached.
    pub fn coherence(&self) -> Option<&CoherencyEpoch> {
        self.coherence.as_ref()
    }

    /// Current coherence stamp for a fill about to start, with no read
    /// set (attach it with [`Stamp::with_reads`] once the origin has named
    /// it). Must be read *before* the origin fetch/assembly, so an
    /// invalidation racing the fill lands after the stamp and the install
    /// refuses the page. Sequence zero (never current once the epoch has
    /// moved, always current before) when no epoch is attached.
    pub fn coherence_stamp(&self) -> Stamp {
        self.coherence
            .as_ref()
            .map(CoherencyEpoch::stamp)
            .unwrap_or_default()
    }

    /// The one stamp-and-expiry check: stale once the coherence epoch
    /// no longer validates the page's stamp — a bump of a stripe it read,
    /// a coarse bump, or any bump for a page whose read set is unknown
    /// (unstamped pages ignore the epoch) — expired once the node clock
    /// reaches its expiry.
    pub fn verdict(&self, page: &Page) -> Verdict {
        match (&page.stamp, &self.coherence) {
            (Some(stamp), Some(epoch)) if !epoch.validates(stamp) => Verdict::Stale,
            _ if self.clock.now_nanos() >= page.expires_at => Verdict::Expired,
            _ => Verdict::Hit,
        }
    }

    /// The one lookup: a copy of `key`'s page while its verdict is a hit;
    /// a stale or expired page is dropped on this touch. Counts the hit or
    /// the miss.
    pub fn lookup(&self, key: &str) -> Option<Page> {
        // The verdict reads the epoch under the lock: a scrub/purge that
        // bumped it before this lookup began is guaranteed visible, so a
        // completed invalidation never leaves a stale entry servable.
        let mut tier = self.tier.lock();
        match tier.lookup(key, |page| self.verdict(page)) {
            Some(Ok(page)) => {
                self.counts.hits.fetch_add(1, Ordering::Relaxed);
                return Some(page.clone());
            }
            Some(Err((Verdict::Stale, _))) => {
                self.counts.stale_evictions.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.counts.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The one install: `body` goes in under `key`, fresh for this cache's
    /// TTL, replacing any page there and evicting the least recently used
    /// page when full. A stamped page is refused (returns `false`) when its
    /// `stamp` — captured via [`PageCache::coherence_stamp`] *before*
    /// assembly — is no longer current: checked under the lock, so an
    /// outdated fill can never push out a page installed after the bump.
    /// A stamp without a read set installs under the coarse rule and is
    /// counted in [`PageCacheStats::coarse_installs`]. `etag` lets later
    /// hits answer `If-None-Match` with a 304.
    pub fn install(
        &self,
        key: &str,
        body: Bytes,
        content_type: &str,
        stamp: Option<Stamp>,
        etag: Option<String>,
    ) -> bool {
        let coarse = stamp.as_ref().is_some_and(Stamp::is_coarse);
        let page = Page {
            stamp,
            etag,
            ..self.page(body, content_type)
        };
        let installed = self.install_if(key, page, |page| self.verdict(page) != Verdict::Stale);
        if installed && coarse {
            self.counts.coarse_installs.fetch_add(1, Ordering::Relaxed);
        }
        installed
    }

    /// An unstamped, untagged page, fresh for this cache's TTL from now.
    fn page(&self, body: Bytes, content_type: &str) -> Page {
        Page {
            body,
            content_type: content_type.to_owned(),
            etag: None,
            stamp: None,
            expires_at: self.clock.now_nanos().saturating_add(self.ttl_nanos),
        }
    }

    /// Install `page` if `current` still holds under the lock that every
    /// purge and epoch bump is taken under.
    fn install_if(&self, key: &str, page: Page, current: impl FnOnce(&Page) -> bool) -> bool {
        let mut tier = self.tier.lock();
        if !current(&page) {
            return false;
        }
        let evicted = tier.insert(key, page);
        self.counts.evictions.fetch_add(evicted, Ordering::Relaxed);
        true
    }

    /// A classic fill's install: unstamped, and only if no `purge`/`clear`
    /// has landed since `epoch` was captured — checked under the lock the
    /// purge bumps the epoch under, so a pre-purge page cannot slip in
    /// after the purge.
    fn install_unless_purged(&self, target: &str, body: Bytes, content_type: &str, epoch: u64) {
        let page = self.page(body, content_type);
        self.install_if(target, page, |_| {
            self.purge_epoch.load(Ordering::Relaxed) == epoch
        });
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
            if let Some(page) = self.lookup(target) {
                sp.set_status(SpanStatus::Hit);
                return PageServe::Hit(page.body, page.content_type);
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
                    self.counts.flight_leaders.fetch_add(1, Ordering::Relaxed);
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
                                    self.install_unless_purged(target, body, &ct, epoch);
                                }
                                Publish::Stale => {
                                    // A purge/clear landed mid-fill: our
                                    // page predates it and must not
                                    // outlive it.
                                    self.counts.flight_retries.fetch_add(1, Ordering::Relaxed);
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
                    self.counts.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                    return PageServe::Coalesced(body, ct);
                }
                Join::Retry => {
                    fsp.cancel();
                    self.counts.flight_retries.fetch_add(1, Ordering::Relaxed);
                    // The flight landed, went stale, or was poisoned under
                    // us; a landed leader typically has installed the page
                    // by now (if not, the next lap re-elects).
                    if let Some(page) = self.lookup(target) {
                        return PageServe::Hit(page.body, page.content_type);
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
            self.install_unless_purged(target, body, &ct, epoch);
        }
        PageServe::Led
    }

    /// Drop the entry for `target`, if any (the `PURGE` verb). Any
    /// in-flight fill is outdated twice over: the URL's flight is stamped
    /// stale (so the pre-purge page is never broadcast) and the purge
    /// epoch is bumped (so it is never installed, even by a fill with no
    /// live flight).
    pub fn purge(&self, target: &str) -> bool {
        let mut tier = self.tier.lock();
        let removed = tier.remove(target).is_some();
        // Bumped under the lock: installs check the epoch under the same
        // lock, so none started before this purge can land after it.
        self.purge_epoch.fetch_add(1, Ordering::Relaxed);
        // The coherence epoch moves too, coarsely (also under the lock, so
        // stamped lookups that start after this purge returns must see
        // it): the DPC tier keys pages by target *and* session, so a PURGE
        // of the bare target cannot enumerate them, and no read set names
        // a target — the bump makes every stamped entry self-evict instead.
        if let Some(epoch) = &self.coherence {
            epoch.bump();
        }
        drop(tier);
        self.flight.invalidate(fnv1a(target.as_bytes()));
        if removed {
            self.counts.purges.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drop everything, stamping every in-flight fill stale.
    pub fn clear(&self) {
        let mut tier = self.tier.lock();
        tier.clear();
        self.purge_epoch.fetch_add(1, Ordering::Relaxed);
        if let Some(epoch) = &self.coherence {
            epoch.bump();
        }
        drop(tier);
        self.flight.invalidate_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PageCacheStats {
        let c = &self.counts;
        PageCacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            purges: c.purges.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            stale_evictions: c.stale_evictions.load(Ordering::Relaxed),
            coarse_installs: c.coarse_installs.load(Ordering::Relaxed),
            flight_leaders: c.flight_leaders.load(Ordering::Relaxed),
            coalesced_waits: c.coalesced_waits.load(Ordering::Relaxed),
            flight_retries: c.flight_retries.load(Ordering::Relaxed),
        }
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.tier.lock().len()
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

    /// (flight_leaders, coalesced_waits, flight_retries).
    fn flight_counters(c: &PageCache) -> (u64, u64, u64) {
        let s = c.stats();
        (s.flight_leaders, s.coalesced_waits, s.flight_retries)
    }

    #[test]
    fn put_get_hit() {
        let (c, _h) = cache(60, 10);
        assert!(c.lookup("/a").is_none());
        c.install("/a", Bytes::from_static(b"page"), "text/html", None, None);
        let Page {
            body,
            content_type: ct,
            ..
        } = c.lookup("/a").unwrap();
        assert_eq!(&body[..], b"page");
        assert_eq!(ct, "text/html");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let (c, h) = cache(10, 10);
        c.install("/a", Bytes::from_static(b"x"), "text/html", None, None);
        h.advance(Duration::from_secs(11));
        assert!(c.lookup("/a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn purge_removes() {
        let (c, _h) = cache(60, 10);
        c.install("/a", Bytes::from_static(b"x"), "text/html", None, None);
        assert!(c.purge("/a"));
        assert!(!c.purge("/a"));
        assert!(c.lookup("/a").is_none());
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let (c, _h) = cache(60, 2);
        c.install("/a", Bytes::from_static(b"a"), "t", None, None);
        c.install("/b", Bytes::from_static(b"b"), "t", None, None);
        let _ = c.lookup("/a"); // a is now more recent than b
        c.install("/c", Bytes::from_static(b"c"), "t", None, None);
        assert_eq!(c.len(), 2);
        assert!(c.lookup("/b").is_none(), "b was LRU and must be evicted");
        assert!(c.lookup("/a").is_some());
        assert!(c.lookup("/c").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refresh_keeps_one_entry_and_new_body() {
        let (c, _h) = cache(60, 2);
        c.install("/a", Bytes::from_static(b"v1"), "t", None, None);
        c.install("/a", Bytes::from_static(b"version-two"), "t", None, None);
        assert_eq!(c.len(), 1);
        let Page { body, .. } = c.lookup("/a").unwrap();
        assert_eq!(&body[..], b"version-two");
        assert_eq!(c.stats().evictions, 0, "refresh is not an eviction");
    }

    #[test]
    fn get_or_fill_hits_do_not_touch_the_flight() {
        let (c, _h) = cache(60, 10);
        c.install("/a", Bytes::from_static(b"page"), "t", None, None);
        match c.get_or_fill("/a", || panic!("hit must not fill")) {
            PageServe::Hit(body, _) => assert_eq!(&body[..], b"page"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(flight_counters(&c), (0, 0, 0));
    }

    #[test]
    fn get_or_fill_leads_installs_and_serves() {
        let (c, _h) = cache(60, 10);
        let serve = c.get_or_fill("/a", || Some((Bytes::from_static(b"fresh"), "t".into())));
        assert!(matches!(serve, PageServe::Led));
        let Page { body, .. } = c.lookup("/a").expect("leader installed the page");
        assert_eq!(&body[..], b"fresh");
        assert_eq!(flight_counters(&c), (1, 0, 0));
    }

    #[test]
    fn uncacheable_fill_poisons_instead_of_installing() {
        let (c, _h) = cache(60, 10);
        let serve = c.get_or_fill("/a", || None);
        assert!(matches!(serve, PageServe::Led));
        assert!(c.lookup("/a").is_none(), "nothing installed");
        // The next requester must not hang on the poisoned flight.
        let serve = c.get_or_fill("/a", || Some((Bytes::from_static(b"ok"), "t".into())));
        assert!(matches!(serve, PageServe::Led));
        assert!(c.lookup("/a").is_some());
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
        let (leaders, coalesced, _) = flight_counters(&c);
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
            c.lookup("/a").is_none(),
            "a page generated before the purge must not outlive it"
        );
        let (_, _, retries) = flight_counters(&c);
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
            c.lookup("/a").is_none(),
            "epoch moved mid-fill: install skipped"
        );
        // With no concurrent purge, the refill installs normally.
        let serve = c.get_or_fill("/a", || Some((Bytes::from_static(b"fresh"), "t".into())));
        assert!(matches!(serve, PageServe::Led));
        let Page { body, .. } = c.lookup("/a").expect("quiescent fill installs");
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
        assert!(
            c.lookup("/a").is_none(),
            "clear outdates the in-flight fill"
        );
    }

    #[test]
    fn stamped_entry_self_evicts_after_epoch_bump() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        let stamp = c.coherence_stamp();
        c.install(
            "/page\u{0}alice",
            Bytes::from_static(b"v1"),
            "t",
            Some(stamp),
            None,
        );
        assert!(c.lookup("/page\u{0}alice").is_some());
        epoch.bump();
        assert!(
            c.lookup("/page\u{0}alice").is_none(),
            "stale stamped entry must self-evict on touch"
        );
        assert_eq!(c.stats().stale_evictions, 1);
        // A fresh install under the new epoch serves again.
        c.install(
            "/page\u{0}alice",
            Bytes::from_static(b"v2"),
            "t",
            Some(c.coherence_stamp()),
            None,
        );
        let hit = c.lookup("/page\u{0}alice").unwrap();
        assert_eq!(&hit.body[..], b"v2");
    }

    #[test]
    fn stamp_captured_before_a_racing_bump_never_serves() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 1).with_coherence(epoch.clone());
        // Fill races an invalidation: stamp captured, then the bump lands
        // before the install.
        let stamp = c.coherence_stamp();
        epoch.bump();
        // Meanwhile a page assembled after the bump fills the one slot.
        let live_stamp = c.coherence_stamp();
        c.install(
            "/live",
            Bytes::from_static(b"post-bump"),
            "t",
            Some(live_stamp),
            None,
        );
        c.install(
            "/p",
            Bytes::from_static(b"pre-bump"),
            "t",
            Some(stamp),
            None,
        );
        assert!(c.lookup("/p").is_none(), "outdated install must not serve");
        let live = c
            .lookup("/live")
            .expect("an outdated install must not evict a live page");
        assert_eq!(&live.body[..], b"post-bump");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn purge_bumps_the_coherence_epoch() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        // A session-qualified page the PURGE target string cannot name.
        c.install(
            "/page\u{0}bob",
            Bytes::from_static(b"bob"),
            "t",
            Some(c.coherence_stamp()),
            None,
        );
        c.purge("/page");
        assert!(
            c.lookup("/page\u{0}bob").is_none(),
            "purge of the bare target must invalidate session variants via the epoch"
        );
    }

    #[test]
    fn unstamped_entries_ignore_the_epoch() {
        let (clock, _h) = Clock::virtual_clock();
        let epoch = CoherencyEpoch::new();
        let c = PageCache::new(clock, Duration::from_secs(60), 10).with_coherence(epoch.clone());
        c.install("/classic", Bytes::from_static(b"page"), "t", None, None);
        epoch.bump();
        assert!(
            c.lookup("/classic").is_some(),
            "classic page-cache entries rely on PURGE + TTL, not the epoch"
        );
    }

    #[test]
    fn distinct_session_keys_never_share_an_entry() {
        // The tier is keyed by the full key string — a lookup can only
        // ever return bytes installed under exactly that key, so no
        // constructed collision can leak one session's page to another.
        let (c, _h) = cache(60, 10);
        let bob = crate::tier::page_key("/account.jsp", "bob");
        let alice = crate::tier::page_key("/account.jsp", "alice");
        c.install(&bob, Bytes::from_static(b"bob's page"), "t", None, None);
        assert!(c.lookup(&alice).is_none(), "alice must miss, never get bob");
        c.install(&alice, Bytes::from_static(b"alice's page"), "t", None, None);
        assert_eq!(&c.lookup(&bob).unwrap().body[..], b"bob's page");
        assert_eq!(&c.lookup(&alice).unwrap().body[..], b"alice's page");
    }

    #[test]
    fn url_keyed_ignores_users_by_design() {
        // This "test" documents the defect the DPC fixes: the cache cannot
        // distinguish Bob's page from Alice's.
        let (c, _h) = cache(60, 10);
        c.install("/page", Bytes::from_static(b"Hello, Bob"), "t", None, None);
        let Page { body, .. } = c.lookup("/page").unwrap();
        assert_eq!(&body[..], b"Hello, Bob"); // Alice gets Bob's page
    }
}
