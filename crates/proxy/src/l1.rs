//! L1 per-event-loop cache of fully-assembled hot pages.
//!
//! The page cache ([`PageCache`]) is the node's L2: shared across loops,
//! lock-protected, stamped with the coherency epoch. This module adds the
//! L1 above it — a small, byte-budgeted, *per-event-loop* map of flattened
//! page bodies that serves repeat GETs with **zero shared locks and zero
//! directory traffic**: the loop owns its `L1Cache` exclusively (`&mut
//! self` via [`dpc_http::LoopCache`]), so a hit touches nothing but loop-
//! local memory plus one atomic load of the coherency epoch.
//!
//! Coherence is validation-on-touch, not eager invalidation: every L1
//! entry carries the [`CoherencyEpoch`] stamp its bytes were assembled
//! under, and a hit compares that stamp against the current epoch. Any
//! invalidation — a local `PURGE`, a BEM dependency event, a gossip scrub
//! arriving from another node — bumps the epoch, so the next touch of
//! *any* stamped L1 entry on *any* loop self-evicts instead of serving.
//! Nobody has to enumerate loops or keys to kill stale pages.
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
use bytes::Bytes;
use dpc_http::{LoopCache, LoopCacheFactory, Method, Request, Response, Status};
use dpc_trace::{render_journey, Layer, SpanStatus, Tracer};
use std::collections::HashMap;
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

/// RFC 9110 `If-None-Match` evaluation against one strong ETag: `*`
/// matches anything, otherwise any member of the comma-separated list may
/// match, comparing weakly (a `W/` prefix on the client's copy is
/// ignored — for an unchanged page the weak and strong forms name the
/// same bytes, which is all a 304 asserts).
pub fn etag_matches(if_none_match: &str, etag: &str) -> bool {
    if if_none_match.trim() == "*" {
        return true;
    }
    if_none_match.split(',').any(|candidate| {
        let candidate = candidate.trim();
        candidate.strip_prefix("W/").unwrap_or(candidate) == etag
    })
}

/// The body-free `304 Not Modified` for a conditional GET whose validator
/// still matches, or `None` when the request is unconditional or the
/// validator has moved. `x_cache` names the tier that answered, so
/// metrics and traces can attribute the hash-only serve.
pub(crate) fn revalidated_response(
    req: &Request,
    etag: Option<&str>,
    x_cache: &'static str,
) -> Option<Response> {
    let etag = etag?;
    let if_none_match = req.headers.get("If-None-Match")?;
    if !etag_matches(if_none_match, etag) {
        return None;
    }
    Some(
        Response::status(Status::NOT_MODIFIED)
            .with_header("ETag", etag)
            .with_header("X-Cache", x_cache),
    )
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

struct L1Entry {
    body: Bytes,
    content_type: String,
    /// Strong validator carried up from the L2 entry at promotion, so an
    /// L1 hit can answer `If-None-Match` with a 304 without touching the
    /// L2 at all. The epoch stamp below guards it: a stale entry
    /// self-evicts before its ETag could validate anything.
    etag: Option<String>,
    /// Coherency-epoch value the body was assembled under. A hit is only
    /// a hit while the owning L2's epoch still equals this.
    stamp: u64,
    /// Expiry in nanoseconds of the owning L2's clock.
    expires_at: u64,
    /// Monotonic touch tick for LRU victim selection.
    last_touch: u64,
    /// The L2 this entry was promoted from. Held so the L1 hit path can
    /// read the epoch and report tier stats without resolving the target
    /// again — an L1 hit must not re-enter routing.
    l2: Arc<PageCache>,
}

/// A byte-budgeted LRU of flattened assembled pages, owned by exactly one
/// event loop. All methods take `&mut self`; there is no interior locking
/// anywhere on the hit path.
///
/// Entries are keyed by the full session-qualified key string, never by a
/// hash of it: a hit must be provably for *this* session's page, and a
/// 64-bit non-cryptographic hash is attacker-constructible — a colliding
/// key would serve one session's bytes to another, the exact leak the
/// session-qualified keying exists to prevent.
pub struct L1Cache {
    entries: HashMap<String, L1Entry>,
    budget_bytes: usize,
    resident_bytes: usize,
    ttl: Duration,
    tick: u64,
}

impl L1Cache {
    pub fn new(budget_bytes: usize, ttl: Duration) -> L1Cache {
        L1Cache {
            entries: HashMap::new(),
            budget_bytes,
            resident_bytes: 0,
            ttl,
            tick: 0,
        }
    }

    /// Validated lookup. Serves only entries whose epoch stamp still
    /// matches their L2's current epoch and whose TTL has not lapsed;
    /// anything else self-evicts on this touch (stale evictions are
    /// reported to the owning L2's stats so the node-level invariant
    /// `hits == l1_hits + l2_hits` stays auditable next to them).
    pub fn get(&mut self, key: &str) -> Option<(Bytes, String, Option<String>)> {
        let entry = self.entries.get_mut(key)?;
        let epoch_ok = entry
            .l2
            .coherence()
            .map(|e| e.validates(entry.stamp))
            .unwrap_or(true);
        if !epoch_ok || entry.l2.clock().now_nanos() >= entry.expires_at {
            let dead = self.entries.remove(key).expect("entry was just here");
            self.resident_bytes -= dead.body.len();
            if !epoch_ok {
                dead.l2.note_l1_stale_eviction();
            }
            return None;
        }
        self.tick += 1;
        entry.last_touch = self.tick;
        let out = (
            entry.body.clone(),
            entry.content_type.clone(),
            entry.etag.clone(),
        );
        entry.l2.note_l1_hit();
        Some(out)
    }

    /// Install a flattened page. Bodies larger than the whole budget are
    /// refused (they would evict everything and then thrash); otherwise
    /// LRU entries are evicted until the newcomer fits.
    ///
    /// `l2_valid_for` is how much longer the source L2 entry stays fresh:
    /// the L1 copy expires at `min(l1 ttl, l2_valid_for)` from now, so a
    /// promotion never restarts the page's freshness clock — a page
    /// assembled at t0 cannot serve past the expiry its L2 entry carried,
    /// no matter how late it was promoted.
    #[allow(clippy::too_many_arguments)] // each field is a distinct, documented promotion input
    pub fn insert(
        &mut self,
        key: &str,
        body: Bytes,
        content_type: String,
        etag: Option<String>,
        stamp: u64,
        l2_valid_for: Duration,
        l2: Arc<PageCache>,
    ) {
        if body.len() > self.budget_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(key) {
            self.resident_bytes -= old.body.len();
        }
        while self.resident_bytes + body.len() > self.budget_bytes {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(key, _)| key.clone())
                .expect("resident_bytes > 0 implies at least one entry");
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.resident_bytes -= evicted.body.len();
        }
        let valid_for = self.ttl.min(l2_valid_for).as_nanos();
        let valid_for = u64::try_from(valid_for).unwrap_or(u64::MAX);
        let expires_at = l2.clock().now_nanos().saturating_add(valid_for);
        self.tick += 1;
        self.resident_bytes += body.len();
        self.entries.insert(
            key.to_owned(),
            L1Entry {
                body,
                content_type,
                etag,
                stamp,
                expires_at,
                last_touch: self.tick,
                l2,
            },
        );
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }
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
    l1: L1Cache,
    resolve: L2Resolver,
    /// Index of the owning event loop — reported as `shard=` in the
    /// `X-DPC-Trace` cache journey so an operator can see which loop's L1
    /// served a traced hit.
    loop_index: usize,
    /// Span recorder handle: tier probes record `TierL1`/`TierL2` spans,
    /// and the opt-in `X-DPC-Trace` response header is rendered from the
    /// request's recorded spans.
    tracer: Tracer,
}

impl LoopTier {
    pub fn new(l1_budget_bytes: usize, ttl: Duration, resolve: L2Resolver) -> LoopTier {
        LoopTier {
            l1: L1Cache::new(l1_budget_bytes, ttl),
            resolve,
            loop_index: 0,
            tracer: Tracer::off(),
        }
    }

    /// Builder: set the owning event loop's index (see
    /// [`LoopTier::factory`], which does this automatically).
    pub fn with_loop_index(mut self, loop_index: usize) -> LoopTier {
        self.loop_index = loop_index;
        self
    }

    /// Builder: record tier spans (and render `X-DPC-Trace` journeys)
    /// through `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> LoopTier {
        self.tracer = tracer;
        self
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
            Box::new(
                LoopTier::new(l1_budget_bytes, ttl, Arc::clone(&resolve))
                    .with_loop_index(loop_index)
                    .with_tracer(tracer.clone()),
            )
        })
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
    fn try_serve(&mut self, req: &Request) -> Option<Response> {
        if req.method != Method::Get {
            return None;
        }
        let key = page_key(&req.target, session_of(req));
        let mut sp = self.tracer.span(Layer::TierL1);
        if let Some((body, content_type, etag)) = self.l1.get(&key) {
            // Conditional GETs whose validator still matches are answered
            // hash-for-hash: no body bytes touched, no allocation beyond
            // the headers. The entry already passed epoch validation in
            // `L1Cache::get`, so this 304 cannot confirm a stale page.
            if let Some(resp) = revalidated_response(req, etag.as_deref(), "dpc-l1") {
                sp.set_status(SpanStatus::Revalidated);
                drop(sp);
                return Some(self.attach_journey(req, resp));
            }
            sp.set_status(SpanStatus::Hit);
            let mut resp = Response::html(body)
                .with_header("Content-Type", content_type)
                .with_header("X-Cache", "dpc-l1");
            if let Some(etag) = etag {
                resp = resp.with_header("ETag", etag);
            }
            drop(sp);
            return Some(self.attach_journey(req, resp));
        }
        sp.set_status(SpanStatus::Miss);
        drop(sp);
        let l2 = (self.resolve)(&req.target)?;
        let mut l2sp = self.tracer.span(Layer::TierL2);
        let Some(hit) = l2.get_page(&key) else {
            l2sp.set_status(SpanStatus::Miss);
            return None;
        };
        l2sp.set_status(SpanStatus::Hit);
        if let Some(stamp) = hit.stamp {
            // Only stamped (DPC-installed) entries are promotable: an
            // unstamped entry has no epoch to validate against, so L1
            // could never notice its invalidation. Promotion happens even
            // on a 304 serve — the conditional traffic is exactly as hot.
            if hit.entry_hits >= PROMOTE_AFTER {
                self.l1.insert(
                    &key,
                    hit.body.clone(),
                    hit.content_type.clone(),
                    hit.etag.clone(),
                    stamp,
                    hit.ttl_remaining,
                    Arc::clone(&l2),
                );
            }
        }
        if let Some(resp) = revalidated_response(req, hit.etag.as_deref(), "dpc-l2") {
            l2sp.set_status(SpanStatus::Revalidated);
            drop(l2sp);
            return Some(self.attach_journey(req, resp));
        }
        let mut resp = Response::html(hit.body)
            .with_header("Content-Type", hit.content_type)
            .with_header("X-Cache", "dpc-l2");
        if let Some(etag) = hit.etag {
            resp = resp.with_header("ETag", etag);
        }
        drop(l2sp);
        Some(self.attach_journey(req, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn session_extraction_handles_multi_cookie_headers() {
        let req = Request::get("/p").with_header("Cookie", "theme=dark; session=u7; lang=en");
        assert_eq!(session_of(&req), "u7");
        assert_eq!(session_of(&Request::get("/p")), "");
    }

    #[test]
    fn l1_hit_validates_the_epoch_and_self_evicts_after_a_bump() {
        let (l2, epoch) = l2_with_epoch();
        let mut l1 = L1Cache::new(1 << 20, Duration::from_secs(60));
        let key = page_key("/p", "alice");
        l1.insert(
            &key,
            Bytes::from_static(b"hot"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2.clone(),
        );
        assert!(l1.get(&key).is_some());
        epoch.bump();
        assert!(l1.get(&key).is_none(), "stale entry must self-evict");
        assert!(l1.is_empty());
        let stats = l2.stats();
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.l1_stale_evictions, 1);
        stats.check_invariants().unwrap();
    }

    #[test]
    fn l1_budget_evicts_the_least_recently_touched() {
        let (l2, epoch) = l2_with_epoch();
        let mut l1 = L1Cache::new(10, Duration::from_secs(60));
        l1.insert(
            "a",
            Bytes::from_static(b"xxxx"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2.clone(),
        );
        l1.insert(
            "b",
            Bytes::from_static(b"yyyy"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2.clone(),
        );
        assert!(l1.get("a").is_some(), "touch a so b is the LRU victim");
        l1.insert(
            "c",
            Bytes::from_static(b"zzzz"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2.clone(),
        );
        assert!(l1.get("a").is_some());
        assert!(l1.get("b").is_none(), "b was evicted for c");
        assert!(l1.get("c").is_some());
        assert!(l1.resident_bytes() <= 10);
    }

    #[test]
    fn oversized_bodies_are_refused_outright() {
        let (l2, epoch) = l2_with_epoch();
        let mut l1 = L1Cache::new(4, Duration::from_secs(60));
        l1.insert(
            "big",
            Bytes::from_static(b"too large"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2,
        );
        assert!(l1.is_empty());
        assert_eq!(l1.resident_bytes(), 0);
    }

    #[test]
    fn distinct_keys_never_share_an_entry() {
        // The L1 is keyed by the full key string — a lookup can only ever
        // return bytes installed under exactly that key, so no constructed
        // collision can leak one session's page to another.
        let (l2, epoch) = l2_with_epoch();
        let mut l1 = L1Cache::new(1 << 20, Duration::from_secs(60));
        let bob = page_key("/account.jsp", "bob");
        let alice = page_key("/account.jsp", "alice");
        l1.insert(
            &bob,
            Bytes::from_static(b"bob's page"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2.clone(),
        );
        assert!(l1.get(&alice).is_none(), "alice must miss, never get bob");
        l1.insert(
            &alice,
            Bytes::from_static(b"alice's page"),
            "t".into(),
            None,
            epoch.value(),
            Duration::from_secs(600),
            l2,
        );
        let (bob_body, _, _) = l1.get(&bob).unwrap();
        let (alice_body, _, _) = l1.get(&alice).unwrap();
        assert_eq!(&bob_body[..], b"bob's page");
        assert_eq!(&alice_body[..], b"alice's page");
    }

    #[test]
    fn promotion_cannot_outlive_the_l2_expiry() {
        // A page promoted just before its L2 entry expires must not get a
        // fresh L1 TTL: the entry's lifetime is capped by the remaining L2
        // validity carried in at insert.
        let (l2, epoch) = l2_with_epoch();
        let mut l1 = L1Cache::new(1 << 20, Duration::from_secs(60));
        l1.insert(
            "nearly-dead",
            Bytes::from_static(b"old"),
            "t".into(),
            None,
            epoch.value(),
            Duration::ZERO,
            l2,
        );
        assert!(
            l1.get("nearly-dead").is_none(),
            "an L1 copy expires with its L2 source, not on its own clock"
        );
        assert!(l1.is_empty());
    }

    #[test]
    fn loop_tier_promotes_after_the_threshold_and_serves_l1() {
        let (l2, epoch) = l2_with_epoch();
        let key = page_key("/p", "u1");
        l2.put_stamped(
            &key,
            Bytes::from_static(b"page"),
            "text/html",
            epoch.value(),
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
        l2.put_stamped(
            &page_key("/account.jsp", "bob"),
            Bytes::from_static(b"bob's page"),
            "text/html",
            epoch.value(),
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
