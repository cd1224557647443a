//! L1: each event loop's private copy of the node's hottest pages.
//!
//! The node's [`PageCache`] is the L2: shared across loops, behind one
//! lock. The L1 above it is a second instance of the same [`PageTier`] —
//! weighed in body bytes instead of pages, and owned outright by one event
//! loop (`&mut self` via [`dpc_http::LoopCache`]) — so a repeat GET is
//! served with **zero shared locks and zero directory traffic**: a hit
//! touches nothing but loop-local memory plus one atomic load of the
//! coherency epoch.
//!
//! Coherence is validation-on-touch, not eager invalidation: every L1 copy
//! keeps the [`CoherencyEpoch`] stamp its bytes were assembled under (the
//! sequence and the page's read set, copied with the page) and a link to
//! the L2 it was promoted from, and each hit asks that L2 for its
//! [`PageCache::verdict`] — the same check the L2 runs on its own pages.
//! A data update or dependency purge bumps the stripe of its label, so the
//! next touch of a copy that read it, on *any* loop, self-evicts instead
//! of serving; a bare-target `PURGE` or a gossip scrub bumps the epoch
//! coarsely and unserves every copy. Nobody has to enumerate loops or keys
//! to kill stale pages.
//!
//! Promotion is earned, not automatic: a page enters L1 only after its L2
//! entry has served [`PROMOTE_AFTER`] hits in its current generation.
//! One-touch pages never pay the copy; the Zipf head does, once, and then
//! stops taking the page-cache lock at all.
//!
//! An L1 copy expires on the clock of the L2 it was promoted from — the
//! node's clock, virtual in the testbed — never later than its L2 source.
//!
//! [`CoherencyEpoch`]: dpc_core::CoherencyEpoch

use crate::page_cache::PageCache;
use crate::tier::{hit_status, page_response, Budget, Page, PageTier, Verdict};
use dpc_http::{LoopCache, LoopCacheFactory, Method, Request, Response};
use dpc_trace::{render_journey, Layer, SpanStatus, Tracer};
use std::sync::Arc;
use std::time::Duration;

/// L2 hits an entry must accumulate (within its current generation) before
/// it is worth copying into a loop's L1. Keeps cold pages from churning
/// the small L1 budget.
pub const PROMOTE_AFTER: u64 = 3;

/// The session-qualified page key shared by the L1 tier and the DPC
/// front's L2 install path.
///
/// §3.2.1's Bob/Alice hazard is exactly what a URL-keyed full-page cache
/// gets wrong: two sessions, one URL, different pages. The DPC tiers key
/// assembled pages by target *and* session so a hit can only ever return
/// bytes assembled for that session. `\0` cannot appear in either part,
/// so the encoding is unambiguous.
pub fn page_key(target: &str, session: &str) -> String {
    format!("{target}\x00{session}")
}

/// Session identity of a request: the `session` cookie value, or `""`
/// for cookieless traffic (which then shares one key per target, exactly
/// like a session-free static page should).
pub fn session_of(req: &Request) -> &str {
    let Some(cookies) = req.headers.get("Cookie") else {
        return "";
    };
    cookies
        .split(';')
        .filter_map(|part| part.trim().strip_prefix("session="))
        .next()
        .unwrap_or("")
}

/// Routes an L1-missed target to the [`PageCache`] (L2) that owns it.
/// Single-node fronts return their one cache; the ring front consults
/// membership. Returning `None` means "not ours / tier off for this
/// target" and the request falls through to the normal serve path.
pub type L2Resolver = Arc<dyn Fn(&str) -> Option<Arc<PageCache>> + Send + Sync>;

/// The per-loop cache hierarchy, pluggable into `dpc-http`'s event loops
/// via [`dpc_http::Server::with_loop_cache`].
///
/// `try_serve` is strictly non-blocking on the L1 hit path. The L1-miss
/// path takes exactly one shared lock (the L2 page-cache shard) and no
/// directory locks; a full miss returns `None` and the request proceeds
/// to the ordinary handler unchanged.
pub struct LoopTier {
    /// This loop's L1. Each copy links the L2 it was promoted from, so a
    /// hit can be judged and booked without resolving the target again —
    /// an L1 hit must not re-enter routing.
    l1: PageTier<Arc<PageCache>>,
    /// The longest an L1 copy lives, whatever its L2 source has left.
    ttl: Duration,
    resolve: L2Resolver,
    /// Index of the owning event loop (set by [`LoopTier::factory`]) —
    /// reported as `shard=` in the `X-DPC-Trace` cache journey so an
    /// operator can see which loop's L1 served a traced hit.
    loop_index: usize,
    /// Span recorder handle: tier probes record `TierL1`/`TierL2` spans,
    /// and the opt-in `X-DPC-Trace` response header is rendered from the
    /// request's recorded spans.
    tracer: Tracer,
}

impl LoopTier {
    pub fn new(l1_budget_bytes: usize, ttl: Duration, resolve: L2Resolver) -> LoopTier {
        LoopTier {
            l1: PageTier::new(Budget::Bytes(l1_budget_bytes)),
            ttl,
            resolve,
            loop_index: 0,
            tracer: Tracer::off(),
        }
    }

    /// A [`LoopCacheFactory`] handing every event loop its own private
    /// `LoopTier` over a shared resolver and span recorder.
    pub fn factory(
        l1_budget_bytes: usize,
        ttl: Duration,
        resolve: L2Resolver,
        tracer: Tracer,
    ) -> LoopCacheFactory {
        Arc::new(move |loop_index| {
            let mut tier = LoopTier::new(l1_budget_bytes, ttl, Arc::clone(&resolve));
            tier.loop_index = loop_index;
            tier.tracer = tracer.clone();
            Box::new(tier)
        })
    }

    /// The L1 probe: `key`'s loop-local copy while its L2's verdict is a
    /// hit. A stale copy self-evicts on this touch and is booked, like
    /// the hit, in its L2's stats — so the node-level invariant
    /// `hits == l1_hits + l2_hits` stays auditable next to it.
    fn l1_hit(&mut self, key: &str) -> Option<&Page> {
        match self
            .l1
            .lookup(key, |entry| entry.link.verdict(&entry.page))?
        {
            Ok(entry) => {
                entry.link.note_l1_hit();
                Some(&entry.page)
            }
            Err((Verdict::Stale, entry)) => {
                entry.link.note_l1_stale_eviction();
                None
            }
            Err(_) => None,
        }
    }

    /// Copy an L2 hit into this loop's L1 once it has earned it. Only
    /// stamped pages are promotable: an unstamped page has no epoch to
    /// validate against, so the L1 could never notice its invalidation.
    /// The copy expires at `min(now + ttl, the L2 expiry)`, so promotion
    /// never restarts the page's freshness clock — a page assembled at t0
    /// cannot serve past the expiry its L2 entry carried, however late it
    /// was promoted.
    fn promote(&mut self, key: &str, page: &Page, l2: &Arc<PageCache>) {
        if page.stamp.is_none() || page.hits < PROMOTE_AFTER {
            return;
        }
        let ttl = u64::try_from(self.ttl.as_nanos()).unwrap_or(u64::MAX);
        let expires_at = page
            .expires_at
            .min(l2.clock().now_nanos().saturating_add(ttl));
        let copy = Page {
            expires_at,
            ..page.clone()
        };
        self.l1.insert(key, copy, Arc::clone(l2));
    }

    /// Opt-in cache-journey annotation for tier-served responses: when the
    /// request carries `X-DPC-Trace`, the response echoes it as a rendered
    /// view of the spans this request has recorded so far. Tier hits never
    /// reach the handler, so the journey must be written here or traced
    /// L1/L2 hits would report nothing.
    fn attach_journey(&self, req: &Request, resp: Response) -> Response {
        if req.headers.get("X-DPC-Trace").is_none() {
            return resp;
        }
        let Some((trace_id, _)) = dpc_trace::current() else {
            return resp;
        };
        let Some(rec) = self.tracer.recorder() else {
            return resp;
        };
        let segments = resp.body.segments().len();
        let spans = rec.spans_of(trace_id);
        let journey = render_journey(
            trace_id,
            &spans,
            segments,
            self.loop_index as u64,
            self.tracer.node(),
        );
        resp.with_header("X-DPC-Trace", journey)
    }
}

impl LoopCache for LoopTier {
    /// L1, then the owning L2 (promoting its hot stamped pages), then
    /// `None` for the handler. A conditional GET whose validator still
    /// matches is answered hash-for-hash: no body bytes touched, no
    /// allocation beyond the headers.
    fn try_serve(&mut self, req: &Request) -> Option<Response> {
        if req.method != Method::Get {
            return None;
        }
        let key = page_key(&req.target, session_of(req));
        let mut sp = self.tracer.span(Layer::TierL1);
        let resp = if let Some(page) = self.l1_hit(&key) {
            page_response(req, page, "dpc-l1")
        } else {
            sp.set_status(SpanStatus::Miss);
            drop(sp);
            let l2 = (self.resolve)(&req.target)?;
            sp = self.tracer.span(Layer::TierL2);
            // The handler probes the L2 again after a miss here and counts
            // it there, once per request.
            let Some(page) = l2.lookup(&key, false) else {
                sp.set_status(SpanStatus::Miss);
                return None;
            };
            // Promotion happens even on a 304 serve — the conditional
            // traffic is exactly as hot.
            self.promote(&key, &page, &l2);
            page_response(req, &page, "dpc-l2")
        };
        sp.set_status(hit_status(&resp));
        drop(sp);
        Some(self.attach_journey(req, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dpc_core::CoherencyEpoch;
    use dpc_net::Clock;

    fn l2_with_epoch() -> (Arc<PageCache>, CoherencyEpoch) {
        let epoch = CoherencyEpoch::new();
        let pc = Arc::new(
            PageCache::new(Clock::real(), Duration::from_secs(60), 64)
                .with_coherence(epoch.clone()),
        );
        (pc, epoch)
    }

    /// A loop tier over `l2` with an L1 of `budget_bytes`.
    fn loop_tier(l2: &Arc<PageCache>, budget_bytes: usize) -> LoopTier {
        let l2 = Arc::clone(l2);
        LoopTier::new(
            budget_bytes,
            Duration::from_secs(60),
            Arc::new(move |_| Some(Arc::clone(&l2))),
        )
    }

    /// How long the L2 pages these tests promote stay fresh.
    const FRESH: Duration = Duration::from_secs(600);

    /// A current L2 page that has earned promotion, fresh for `valid_for`.
    fn hot(l2: &PageCache, body: &'static [u8], valid_for: Duration) -> Page {
        Page {
            body: Bytes::from_static(body),
            content_type: "t".into(),
            etag: None,
            stamp: Some(l2.coherence_stamp()),
            expires_at: l2.clock().now_nanos() + valid_for.as_nanos() as u64,
            hits: PROMOTE_AFTER,
        }
    }

    #[test]
    fn session_extraction_handles_multi_cookie_headers() {
        let req = Request::get("/p").with_header("Cookie", "theme=dark; session=u7; lang=en");
        assert_eq!(session_of(&req), "u7");
        assert_eq!(session_of(&Request::get("/p")), "");
    }

    #[test]
    fn l1_hit_validates_the_epoch_and_self_evicts_after_a_bump() {
        let (l2, epoch) = l2_with_epoch();
        let mut tier = loop_tier(&l2, 1 << 20);
        let key = page_key("/p", "alice");
        tier.promote(&key, &hot(&l2, b"hot", FRESH), &l2);
        assert!(tier.l1_hit(&key).is_some());
        epoch.bump();
        assert!(tier.l1_hit(&key).is_none(), "stale entry must self-evict");
        assert!(tier.l1.is_empty());
        let stats = l2.stats();
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.l1_stale_evictions, 1);
        stats.check_invariants().unwrap();
    }

    #[test]
    fn l1_budget_evicts_the_least_recently_touched() {
        let (l2, _epoch) = l2_with_epoch();
        let mut tier = loop_tier(&l2, 10);
        tier.promote("a", &hot(&l2, b"xxxx", FRESH), &l2);
        tier.promote("b", &hot(&l2, b"yyyy", FRESH), &l2);
        assert!(tier.l1_hit("a").is_some(), "touch a so b is the LRU victim");
        tier.promote("c", &hot(&l2, b"zzzz", FRESH), &l2);
        assert!(tier.l1_hit("a").is_some());
        assert!(tier.l1_hit("b").is_none(), "b was evicted for c");
        assert!(tier.l1_hit("c").is_some());
        assert!(tier.l1.used() <= 10);
    }

    #[test]
    fn oversized_bodies_are_refused_outright() {
        let (l2, _epoch) = l2_with_epoch();
        let mut tier = loop_tier(&l2, 4);
        tier.promote("big", &hot(&l2, b"too large", FRESH), &l2);
        assert!(tier.l1.is_empty());
        assert_eq!(tier.l1.used(), 0);
    }

    #[test]
    fn distinct_keys_never_share_an_entry() {
        // The L1 is keyed by the full key string — a lookup can only ever
        // return bytes installed under exactly that key, so no constructed
        // collision can leak one session's page to another.
        let (l2, _epoch) = l2_with_epoch();
        let mut tier = loop_tier(&l2, 1 << 20);
        let bob = page_key("/account.jsp", "bob");
        let alice = page_key("/account.jsp", "alice");
        tier.promote(&bob, &hot(&l2, b"bob's page", FRESH), &l2);
        assert!(
            tier.l1_hit(&alice).is_none(),
            "alice must miss, never get bob"
        );
        tier.promote(&alice, &hot(&l2, b"alice's page", FRESH), &l2);
        let bob_body = tier.l1_hit(&bob).unwrap().body.clone();
        let alice_body = tier.l1_hit(&alice).unwrap().body.clone();
        assert_eq!(&bob_body[..], b"bob's page");
        assert_eq!(&alice_body[..], b"alice's page");
    }

    #[test]
    fn promotion_cannot_outlive_the_l2_expiry() {
        // A page promoted just before its L2 entry expires must not get a
        // fresh L1 TTL: the entry's lifetime is capped by the remaining L2
        // validity carried in at insert.
        let (l2, _epoch) = l2_with_epoch();
        let mut tier = loop_tier(&l2, 1 << 20);
        tier.promote("nearly-dead", &hot(&l2, b"old", Duration::ZERO), &l2);
        assert!(
            tier.l1_hit("nearly-dead").is_none(),
            "an L1 copy expires with its L2 source, not on its own clock"
        );
        assert!(tier.l1.is_empty());
    }

    #[test]
    fn loop_tier_promotes_after_the_threshold_and_serves_l1() {
        let (l2, epoch) = l2_with_epoch();
        let key = page_key("/p", "u1");
        l2.install(
            &key,
            Bytes::from_static(b"page"),
            "text/html",
            Some(epoch.stamp()),
            None,
        );
        let resolve: L2Resolver = {
            let l2 = l2.clone();
            Arc::new(move |_| Some(l2.clone()))
        };
        let mut tier = LoopTier::new(1 << 20, Duration::from_secs(60), resolve);
        let req = Request::get("/p").with_header("Cookie", "session=u1");
        // Hits 1..PROMOTE_AFTER come from L2; the PROMOTE_AFTER-th L2 hit
        // installs into L1, so the next serve is loop-local.
        for _ in 0..PROMOTE_AFTER {
            let resp = tier.try_serve(&req).expect("L2 has the page");
            assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l2"));
        }
        let resp = tier.try_serve(&req).expect("promoted");
        assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l1"));
        let stats = l2.stats();
        assert_eq!(stats.l2_hits, PROMOTE_AFTER);
        assert_eq!(stats.l1_hits, 1);
        stats.check_invariants().unwrap();
    }

    #[test]
    fn loop_tier_is_session_aware_like_the_paper_demands() {
        let (l2, epoch) = l2_with_epoch();
        l2.install(
            &page_key("/account.jsp", "bob"),
            Bytes::from_static(b"bob's page"),
            "text/html",
            Some(epoch.stamp()),
            None,
        );
        let resolve: L2Resolver = {
            let l2 = l2.clone();
            Arc::new(move |_| Some(l2.clone()))
        };
        let mut tier = LoopTier::new(1 << 20, Duration::from_secs(60), resolve);
        let bob = Request::get("/account.jsp").with_header("Cookie", "session=bob");
        let alice = Request::get("/account.jsp").with_header("Cookie", "session=alice");
        assert!(tier.try_serve(&bob).is_some());
        assert!(
            tier.try_serve(&alice).is_none(),
            "Alice must never receive Bob's page for the shared URL"
        );
    }

    #[test]
    fn non_get_methods_fall_through() {
        let (l2, _epoch) = l2_with_epoch();
        let resolve: L2Resolver = Arc::new(move |_| Some(l2.clone()));
        let mut tier = LoopTier::new(1 << 20, Duration::from_secs(60), resolve);
        let mut purge = Request::get("/p");
        purge.method = Method::Purge;
        assert!(tier.try_serve(&purge).is_none());
    }
}
