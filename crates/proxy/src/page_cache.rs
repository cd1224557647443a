//! The node's shared page cache: the §3.2.1 URL-keyed baseline, and the
//! DPC's page tier.
//!
//! In page-cache mode it is deliberately faithful to its 2002 commercial
//! counterparts, including their defects: the cache key is the request URL
//! alone (no session awareness — hence the Bob/Alice wrong-page hazard)
//! and invalidation is whole-page (hence the over-invalidation the paper's
//! stock-quote example describes). `PURGE <target>` drops one entry.
//!
//! In DPC mode it holds assembled pages stamped with the node's coherency
//! epoch and the page's read set. A page whose render read the session
//! lives under its session-qualified key ([`crate::tier::page_key`]); a
//! page the origin marked session-free lives under its bare target, shared
//! by every session. The proxy handler probes both in one
//! [`PageCache::lookup_page`] before it assembles, the shared key first.
//!
//! Either way the pages live in one [`PageTier`] behind one mutex, with a
//! page budget and LRU replacement; the cache keeps its counters and the
//! purge epoch beside it. Neither mode coalesces misses: the §3.2.1 page
//! cache did not, and a proxy handler never parks.

use crate::tier::{page_key, Page, PageTier, Verdict};
use bytes::Bytes;
use dpc_core::{CoherencyEpoch, Stamp};
use dpc_net::Clock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
}

/// The node's page cache: one [`PageTier`] with TTL and LRU replacement.
pub struct PageCache {
    clock: Clock,
    /// How long an installed page stays fresh, in nanoseconds.
    ttl_nanos: u64,
    tier: Mutex<PageTier>,
    /// Bumped (under the `tier` lock) by every `purge` and `clear`. A
    /// page-cache-mode fill captures it before fetching the origin and
    /// [`PageCache::install_unless_purged`] checks it again under the same
    /// lock, so a page generated before a purge is never installed after
    /// it. The epoch is global to the cache: a purge of an *unrelated* URL
    /// also skips a concurrent install (the page is served but not cached
    /// — conservative, never wrong, and purges are rare next to fills).
    purge_epoch: AtomicU64,
    /// The node's coherence epoch, shared with its invalidation sink. An
    /// origin data update or a dependency purge bumps the stripe of its
    /// label, so only the stamped entries that read it self-evict on next
    /// touch; `purge`/`clear` bump it coarsely, which unserves them all.
    /// Unstamped (page-cache mode) entries ignore it.
    coherence: CoherencyEpoch,
    counts: Counters,
}

impl PageCache {
    /// An LRU cache of at most `capacity` pages, each fresh for `ttl`,
    /// whose stamped pages are judged by the node's `coherence` epoch.
    pub fn new(
        clock: Clock,
        ttl: Duration,
        capacity: usize,
        coherence: CoherencyEpoch,
    ) -> PageCache {
        PageCache {
            clock,
            ttl_nanos: ttl.as_nanos().try_into().unwrap_or(u64::MAX),
            tier: Mutex::new(PageTier::new(capacity)),
            purge_epoch: AtomicU64::new(0),
            coherence,
            counts: Counters::default(),
        }
    }

    /// Current coherence stamp for a fill about to start, with no read
    /// set (attach it with [`Stamp::with_reads`] once the origin has named
    /// it). Must be read *before* the origin fetch/assembly, so an
    /// invalidation racing the fill lands after the stamp and the install
    /// refuses the page.
    pub fn coherence_stamp(&self) -> Stamp {
        self.coherence.stamp()
    }

    /// The one stamp-and-expiry check: stale once the coherence epoch
    /// no longer validates the page's stamp — a bump of a stripe it read,
    /// a coarse bump, or any bump for a page whose read set is unknown
    /// (unstamped pages ignore the epoch) — expired once the node clock
    /// reaches its expiry.
    pub fn verdict(&self, page: &Page) -> Verdict {
        match &page.stamp {
            Some(stamp) if !self.coherence.validates(stamp) => Verdict::Stale,
            _ if self.clock.now_nanos() >= page.expires_at => Verdict::Expired,
            _ => Verdict::Hit,
        }
    }

    /// The one lookup: a copy of the first page among `keys` whose verdict
    /// is a hit, probed in order under one lock acquisition; a stale or
    /// expired page met on the way is dropped on this touch. Counts one
    /// hit or one miss per call, however many keys it probed.
    pub fn lookup(&self, keys: &[&str]) -> Option<Page> {
        // The verdict reads the epoch under the lock: an update/purge that
        // bumped it before this lookup began is guaranteed visible, so a
        // completed invalidation never leaves a stale entry servable.
        let mut tier = self.tier.lock();
        let found = keys.iter().find_map(|key| self.probe(&mut tier, key));
        self.count(found)
    }

    /// [`PageCache::lookup`] of a DPC page: its shared key `target`, then
    /// its session key, which is spelled into `key` only once the shared
    /// key missed. A miss leaves the session key there for the install.
    pub fn lookup_page(&self, target: &str, session: &str, key: &mut String) -> Option<Page> {
        let mut tier = self.tier.lock();
        let found = self.probe(&mut tier, target).or_else(|| {
            *key = page_key(target, session);
            self.probe(&mut tier, key)
        });
        self.count(found)
    }

    /// A copy of `key`'s page if its verdict is a hit; a stale or expired
    /// page is dropped on this touch.
    fn probe(&self, tier: &mut PageTier, key: &str) -> Option<Page> {
        match tier.lookup(key, |page| self.verdict(page)) {
            Some(Ok(page)) => Some(page.clone()),
            Some(Err((Verdict::Stale, _))) => {
                self.counts.stale_evictions.fetch_add(1, Ordering::Relaxed);
                None
            }
            _ => None,
        }
    }

    /// Count one lookup's hit or miss.
    fn count(&self, found: Option<Page>) -> Option<Page> {
        let counter = match found {
            Some(_) => &self.counts.hits,
            None => &self.counts.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
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
            etag: etag.map(Arc::from),
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
            content_type: Arc::from(content_type),
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

    /// The purge epoch a page-cache-mode fill captures before its origin
    /// fetch, for [`PageCache::install_unless_purged`].
    pub(crate) fn purge_epoch(&self) -> u64 {
        self.purge_epoch.load(Ordering::Relaxed)
    }

    /// A page-cache-mode fill's install: unstamped, and only if no
    /// `purge`/`clear` has landed since `epoch` was captured — checked
    /// under the lock the purge bumps the epoch under, so a pre-purge page
    /// cannot slip in after the purge. Returns whether it installed.
    pub(crate) fn install_unless_purged(
        &self,
        target: &str,
        body: Bytes,
        content_type: &str,
        epoch: u64,
    ) -> bool {
        let page = self.page(body, content_type);
        self.install_if(target, page, |_| {
            self.purge_epoch.load(Ordering::Relaxed) == epoch
        })
    }

    /// Drop the entry for `target`, if any (the `PURGE` verb). The purge
    /// epoch is bumped, so a fill that began before the purge never
    /// installs its page.
    pub fn purge(&self, target: &str) -> bool {
        let mut tier = self.tier.lock();
        let removed = tier.remove(target).is_some();
        // Bumped under the lock: installs check the epoch under the same
        // lock, so none started before this purge can land after it.
        self.purge_epoch.fetch_add(1, Ordering::Relaxed);
        // The coherence epoch moves too, coarsely (also under the lock, so
        // stamped lookups that start after this purge returns must see
        // it): the DPC tier keys a session-reading page by target *and*
        // session, so a PURGE of the bare target cannot enumerate them, and
        // no read set names a target — the bump makes every stamped entry
        // self-evict instead.
        self.coherence.bump();
        drop(tier);
        if removed {
            self.counts.purges.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drop everything; no fill that began before the call installs.
    pub fn clear(&self) {
        let mut tier = self.tier.lock();
        tier.clear();
        self.purge_epoch.fetch_add(1, Ordering::Relaxed);
        self.coherence.bump();
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
    use dpc_core::epoch::stripe_of;

    fn cache(ttl_secs: u64, cap: usize) -> (PageCache, std::sync::Arc<dpc_net::VirtualClock>) {
        let (clock, handle) = Clock::virtual_clock();
        (
            PageCache::new(
                clock,
                Duration::from_secs(ttl_secs),
                cap,
                CoherencyEpoch::new(),
            ),
            handle,
        )
    }

    /// A cache over `epoch`, with a 60 s TTL.
    fn cache_over(epoch: &CoherencyEpoch, cap: usize) -> PageCache {
        let (clock, _h) = Clock::virtual_clock();
        PageCache::new(clock, Duration::from_secs(60), cap, epoch.clone())
    }

    #[test]
    fn put_get_hit() {
        let (c, _h) = cache(60, 10);
        assert!(c.lookup(&["/a"]).is_none());
        c.install("/a", Bytes::from_static(b"page"), "text/html", None, None);
        let Page {
            body,
            content_type: ct,
            ..
        } = c.lookup(&["/a"]).unwrap();
        assert_eq!(&body[..], b"page");
        assert_eq!(&*ct, "text/html");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let (c, h) = cache(10, 10);
        c.install("/a", Bytes::from_static(b"x"), "text/html", None, None);
        h.advance(Duration::from_secs(11));
        assert!(c.lookup(&["/a"]).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn purge_removes() {
        let (c, _h) = cache(60, 10);
        c.install("/a", Bytes::from_static(b"x"), "text/html", None, None);
        assert!(c.purge("/a"));
        assert!(!c.purge("/a"));
        assert!(c.lookup(&["/a"]).is_none());
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let (c, _h) = cache(60, 2);
        c.install("/a", Bytes::from_static(b"a"), "t", None, None);
        c.install("/b", Bytes::from_static(b"b"), "t", None, None);
        let _ = c.lookup(&["/a"]); // a is now more recent than b
        c.install("/c", Bytes::from_static(b"c"), "t", None, None);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&["/b"]).is_none(), "b was LRU and must be evicted");
        assert!(c.lookup(&["/a"]).is_some());
        assert!(c.lookup(&["/c"]).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refresh_keeps_one_entry_and_new_body() {
        let (c, _h) = cache(60, 2);
        c.install("/a", Bytes::from_static(b"v1"), "t", None, None);
        c.install("/a", Bytes::from_static(b"version-two"), "t", None, None);
        assert_eq!(c.len(), 1);
        let Page { body, .. } = c.lookup(&["/a"]).unwrap();
        assert_eq!(&body[..], b"version-two");
        assert_eq!(c.stats().evictions, 0, "refresh is not an eviction");
    }

    #[test]
    fn purge_mid_fill_discards_the_stale_page() {
        let (c, _h) = cache(60, 10);
        let epoch = c.purge_epoch();
        // The purge lands while the fill is fetching the origin.
        c.purge("/a");
        assert!(!c.install_unless_purged("/a", Bytes::from_static(b"pre-purge"), "t", epoch));
        assert!(
            c.lookup(&["/a"]).is_none(),
            "a page generated before the purge must not outlive it"
        );
    }

    #[test]
    fn purge_of_another_url_mid_fill_conservatively_skips_install() {
        let (c, _h) = cache(60, 10);
        // An unrelated purge mid-fill moves the epoch; the install is
        // conservatively skipped (page served, just not cached).
        let epoch = c.purge_epoch();
        c.purge("/other");
        assert!(!c.install_unless_purged("/a", Bytes::from_static(b"fresh"), "t", epoch));
        assert!(
            c.lookup(&["/a"]).is_none(),
            "epoch moved mid-fill: install skipped"
        );
        // With no concurrent purge, the refill installs normally.
        let epoch = c.purge_epoch();
        assert!(c.install_unless_purged("/a", Bytes::from_static(b"fresh"), "t", epoch));
        let Page { body, .. } = c.lookup(&["/a"]).expect("quiescent fill installs");
        assert_eq!(&body[..], b"fresh");
    }

    #[test]
    fn clear_mid_fill_discards_the_stale_page() {
        let (c, _h) = cache(60, 10);
        let epoch = c.purge_epoch();
        c.clear();
        assert!(!c.install_unless_purged("/a", Bytes::from_static(b"pre-clear"), "t", epoch));
        assert!(
            c.lookup(&["/a"]).is_none(),
            "clear outdates the in-flight fill"
        );
    }

    #[test]
    fn stamped_entry_self_evicts_after_epoch_bump() {
        let epoch = CoherencyEpoch::new();
        let c = cache_over(&epoch, 10);
        let stamp = c.coherence_stamp();
        c.install(
            "/page\u{0}alice",
            Bytes::from_static(b"v1"),
            "t",
            Some(stamp),
            None,
        );
        assert!(c.lookup(&["/page\u{0}alice"]).is_some());
        epoch.bump();
        assert!(
            c.lookup(&["/page\u{0}alice"]).is_none(),
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
        let hit = c.lookup(&["/page\u{0}alice"]).unwrap();
        assert_eq!(&hit.body[..], b"v2");
    }

    #[test]
    fn stamp_captured_before_a_racing_bump_never_serves() {
        let epoch = CoherencyEpoch::new();
        let c = cache_over(&epoch, 1);
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
        assert!(
            c.lookup(&["/p"]).is_none(),
            "outdated install must not serve"
        );
        let live = c
            .lookup(&["/live"])
            .expect("an outdated install must not evict a live page");
        assert_eq!(&live.body[..], b"post-bump");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn purge_bumps_the_coherence_epoch() {
        let epoch = CoherencyEpoch::new();
        let c = cache_over(&epoch, 10);
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
            c.lookup(&["/page\u{0}bob"]).is_none(),
            "purge of the bare target must invalidate session variants via the epoch"
        );
    }

    #[test]
    fn unstamped_entries_ignore_the_epoch() {
        let epoch = CoherencyEpoch::new();
        let c = cache_over(&epoch, 10);
        c.install("/classic", Bytes::from_static(b"page"), "t", None, None);
        epoch.bump();
        assert!(
            c.lookup(&["/classic"]).is_some(),
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
        assert!(
            c.lookup(&[&alice]).is_none(),
            "alice must miss, never get bob"
        );
        c.install(&alice, Bytes::from_static(b"alice's page"), "t", None, None);
        assert_eq!(&c.lookup(&[&bob]).unwrap().body[..], b"bob's page");
        assert_eq!(&c.lookup(&[&alice]).unwrap().body[..], b"alice's page");
    }

    #[test]
    fn one_lookup_probes_the_shared_key_then_the_session_key_and_counts_once() {
        let epoch = CoherencyEpoch::new();
        let c = cache_over(&epoch, 10);
        let bob = crate::tier::page_key("/p", "bob");
        let probe = |session: &str| c.lookup(&["/p", session]).map(|page| page.body);
        const A: &str = "paper/p1-f0";
        const B: &str = "paper/p2-f0";
        assert_ne!(stripe_of(A), stripe_of(B));
        // Nothing resident: one miss for both probes.
        assert_eq!(probe(&bob), None);
        // A session page answers the second probe.
        let stamp = |label: &str| {
            c.coherence_stamp()
                .with_reads(Some([stripe_of(label)].into()))
        };
        c.install(&bob, Bytes::from_static(b"bob"), "t", Some(stamp(A)), None);
        assert_eq!(probe(&bob).as_deref(), Some(&b"bob"[..]));
        // A shared page answers every session first.
        c.install("/p", Bytes::from_static(b"all"), "t", Some(stamp(B)), None);
        assert_eq!(probe(&bob).as_deref(), Some(&b"all"[..]));
        assert_eq!(probe("/p\u{0}alice").as_deref(), Some(&b"all"[..]));
        // Once stale, the shared page is dropped and the session page
        // still serves, in the same call.
        epoch.bump_label(B);
        assert_eq!(probe(&bob).as_deref(), Some(&b"bob"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stale_evictions), (4, 1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn url_keyed_ignores_users_by_design() {
        // This "test" documents the defect the DPC fixes: the cache cannot
        // distinguish Bob's page from Alice's.
        let (c, _h) = cache(60, 10);
        c.install("/page", Bytes::from_static(b"Hello, Bob"), "t", None, None);
        let Page { body, .. } = c.lookup(&["/page"]).unwrap();
        assert_eq!(&body[..], b"Hello, Bob"); // Alice gets Bob's page
    }
}
