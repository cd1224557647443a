//! The page tier: the stamped-page map inside the node's one
//! [`PageCache`], which the proxy handler consults on every tiered GET.
//!
//! A [`Page`] is a flattened assembled page plus what keeps it honest:
//! the [`Stamp`] it was assembled under — the [`CoherencyEpoch`] sequence
//! read before the origin fetch and the stripes of the page's read set —
//! and its expiry on the node clock. [`PageTier`] is the keyed map of
//! pages, with one LRU ([`dpc_core::LruReplacer`]) over a page budget. A
//! resident page is judged by one function, [`PageCache::verdict`], and a
//! hit is answered by one builder, [`page_response`], under keys built by
//! [`page_key`]: one per session for a page whose render read the
//! session, and the bare target, shared by every session, for a page the
//! origin marked session-free.
//!
//! [`CoherencyEpoch`]: dpc_core::CoherencyEpoch
//! [`Stamp`]: dpc_core::Stamp
//! [`PageCache`]: crate::page_cache::PageCache
//! [`PageCache::verdict`]: crate::page_cache::PageCache::verdict

use bytes::Bytes;
use dpc_core::proto::parse_session_cookie;
use dpc_core::{LruReplacer, Replacer, Stamp};
use dpc_http::{Request, Response, Status};
use dpc_trace::SpanStatus;
use std::collections::HashMap;

/// The session-qualified key of an assembled page in the DPC page tier.
///
/// §3.2.1's Bob/Alice hazard is exactly what a URL-keyed full-page cache
/// gets wrong: two sessions, one URL, different pages. A page whose render
/// read the session is keyed by target *and* session, so a hit can only
/// ever return bytes assembled for that session. A page the origin marked
/// session-free ([`dpc_core::proto::Provenance::shared`]) is keyed by
/// its bare target instead, the *shared key* every session probes first.
///
/// The parser refuses a `\0` in the request-target and in header values,
/// and the handler keeps in-process requests holding one out of the tier,
/// so neither part holds one. Then every session key holds exactly one
/// `\0` and a shared key none: no (target, session) pair spells another
/// pair's key or any target's shared key.
pub fn page_key(target: &str, session: &str) -> String {
    format!("{target}\x00{session}")
}

/// Session identity of a request: the `session` cookie value, or `""`
/// for cookieless traffic, whose session-reading pages then share one
/// anonymous key per target. It names the key a page is installed under
/// only when the origin did not mark the render session-free.
/// The cookie is read by the origin's own parser, so the key always names
/// the user the render saw.
pub fn session_of(req: &Request) -> &str {
    req.headers
        .get("Cookie")
        .and_then(parse_session_cookie)
        .unwrap_or("")
}

/// One cached page.
#[derive(Clone, Debug)]
pub struct Page {
    pub body: Bytes,
    pub content_type: String,
    /// Strong validator for conditional GETs — the quoted form of the
    /// page's assembly-time content identity
    /// ([`dpc_core::AssemblyStats::page_identity`]). `None` for pages whose
    /// installer carried no identity (classic page-cache mode), which then
    /// never answer `If-None-Match` with a 304.
    pub etag: Option<String>,
    /// The coherency-epoch sequence captured *before* the page was
    /// assembled, with the stripes of what the page read. A page is only a
    /// hit while the epoch validates it: a data update or dependency purge
    /// of something it read, or any coarse bump (a bare-target purge),
    /// makes it stale; a page whose read set is unknown is
    /// stale after any bump at all. `None` for classic page-cache entries,
    /// which rely on `PURGE` + TTL alone (a global stamp would
    /// over-invalidate the baseline).
    pub stamp: Option<Stamp>,
    /// Expiry in nanoseconds of the node clock.
    pub expires_at: u64,
}

/// What the tier may do with a resident page
/// ([`PageCache::verdict`](crate::page_cache::PageCache::verdict)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Current and fresh: serve it.
    Hit,
    /// An invalidation landed since the page's stamp: drop it.
    Stale,
    /// Past its expiry: drop it.
    Expired,
}

/// A resident page and its LRU handle, fresh per install.
struct Entry {
    page: Page,
    id: u64,
}

/// What [`PageTier::lookup`] found: nothing, a hit left resident, or a
/// page it dropped together with the verdict that dropped it.
pub type Found<'a> = Option<Result<&'a Page, (Verdict, Page)>>;

/// An LRU map of at most `capacity` pages.
///
/// Pages are keyed by the full key string, never by a hash of it: a hit
/// must be provably for *this* session's page, and a 64-bit
/// non-cryptographic hash is attacker-constructible — a colliding key
/// would serve one session's bytes to another. The LRU tracks each page by
/// a per-install id instead, so an LRU touch neither hashes nor clones a
/// key string.
pub struct PageTier {
    entries: HashMap<String, Entry>,
    /// Victim resolution: LRU id → key.
    keys: HashMap<u64, String>,
    lru: LruReplacer<u64>,
    next_id: u64,
    capacity: usize,
}

impl PageTier {
    /// An empty tier of at most `capacity` pages (at least one).
    pub fn new(capacity: usize) -> PageTier {
        PageTier {
            entries: HashMap::new(),
            keys: HashMap::new(),
            lru: LruReplacer::new(),
            next_id: 0,
            capacity: capacity.max(1),
        }
    }

    /// Look `key` up and let `judge` rule on its page. A [`Verdict::Hit`]
    /// refreshes the page's LRU position and lends the page out; any other
    /// verdict removes the page and hands it back with the verdict. `None`
    /// when nothing is resident under `key`.
    pub fn lookup(&mut self, key: &str, judge: impl FnOnce(&Page) -> Verdict) -> Found<'_> {
        let verdict = judge(&self.entries.get(key)?.page);
        if verdict != Verdict::Hit {
            return Some(Err((verdict, self.remove(key)?)));
        }
        let entry = &self.entries[key];
        self.lru.touch(&entry.id);
        Some(Ok(&entry.page))
    }

    /// Install `page` under `key`, replacing any page there and evicting
    /// least-recently-used pages until it fits. Returns how many pages
    /// were evicted.
    pub fn insert(&mut self, key: &str, page: Page) -> u64 {
        self.remove(key);
        let mut evicted = 0;
        while self.entries.len() >= self.capacity {
            let victim = self.lru.pick_victim().expect("a full tier holds a page");
            let victim = self.keys[&victim].clone();
            self.remove(&victim);
            evicted += 1;
        }
        self.next_id += 1;
        let id = self.next_id;
        self.lru.admit(id);
        self.keys.insert(id, key.to_owned());
        self.entries.insert(key.to_owned(), Entry { page, id });
        evicted
    }

    /// Remove `key`'s page and its LRU tracking.
    pub fn remove(&mut self, key: &str) -> Option<Page> {
        let entry = self.entries.remove(key)?;
        self.keys.remove(&entry.id);
        self.lru.remove(&entry.id);
        Some(entry.page)
    }

    /// Drop every page.
    pub fn clear(&mut self) {
        *self = PageTier::new(self.capacity);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
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

/// The response to a tier hit: a body-free `304 Not Modified` when the
/// request's `If-None-Match` still names the page's ETag, else the page
/// with its `Content-Type` and `ETag`. `x_cache` names the cache that
/// answered. Only pages whose verdict was a hit are served, so a 304
/// built here can never confirm a page an invalidation outdated.
pub fn page_response(req: &Request, page: &Page, x_cache: &'static str) -> Response {
    let etag = page.etag.as_deref();
    let revalidated = etag
        .zip(req.headers.get("If-None-Match"))
        .is_some_and(|(etag, if_none_match)| etag_matches(if_none_match, etag));
    let mut resp = if revalidated {
        Response::status(Status::NOT_MODIFIED)
    } else {
        Response::html(page.body.clone()).with_header("Content-Type", page.content_type.as_str())
    }
    .with_header("X-Cache", x_cache);
    if let Some(etag) = etag {
        resp = resp.with_header("ETag", etag);
    }
    resp
}

/// The span status of a tier hit answered with `resp`.
pub(crate) fn hit_status(resp: &Response) -> SpanStatus {
    if resp.status == Status::NOT_MODIFIED {
        SpanStatus::Revalidated
    } else {
        SpanStatus::Hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_extraction_handles_multi_cookie_headers() {
        let req = Request::get("/p").with_header("Cookie", "theme=dark; session=u7; lang=en");
        assert_eq!(session_of(&req), "u7");
        assert_eq!(session_of(&Request::get("/p")), "");
        // Spaces around `=` still name the user the origin renders for;
        // they must not fall back to the anonymous key.
        let spaced = Request::get("/p").with_header("Cookie", "a=1; session = u7");
        assert_eq!(session_of(&spaced), "u7");
    }
}
