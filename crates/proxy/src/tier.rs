//! The page tier: one stamped-page map of which the per-loop L1 and the
//! node's shared L2 are two instances.
//!
//! A [`Page`] is a flattened assembled page plus what keeps it honest:
//! the [`Stamp`] it was assembled under — the [`CoherencyEpoch`] sequence
//! read before the origin fetch and the stripes of the page's read set —
//! and its expiry on the node clock. [`PageTier`] is the one keyed map of pages, with one
//! LRU ([`dpc_core::LruReplacer`]) under a [`Budget`] — the L1 weighs its
//! pages in body bytes, the L2 counts them. Both tiers judge a resident
//! page through one function, [`PageCache::verdict`], and answer a hit
//! through one builder, [`page_response`].
//!
//! [`CoherencyEpoch`]: dpc_core::CoherencyEpoch
//! [`Stamp`]: dpc_core::Stamp
//! [`PageCache::verdict`]: crate::page_cache::PageCache::verdict

use bytes::Bytes;
use dpc_core::{LruReplacer, Replacer, Stamp};
use dpc_http::{Request, Response, Status};
use dpc_trace::SpanStatus;
use std::collections::HashMap;

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
    /// of something it read, or any coarse bump (a bare-target purge, a
    /// gossip scrub), makes it stale; a page whose read set is unknown is
    /// stale after any bump at all. `None` for classic page-cache entries,
    /// which rely on `PURGE` + TTL alone (a global stamp would
    /// over-invalidate the baseline).
    pub stamp: Option<Stamp>,
    /// Expiry in nanoseconds of the node clock.
    pub expires_at: u64,
    /// Hits served since install. Drives L1 promotion, so a refresh
    /// restarts the count.
    pub hits: u64,
}

/// What a tier may do with a resident page
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

/// How a [`PageTier`] weighs its pages against its limit.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Total body bytes (a loop's L1).
    Bytes(usize),
    /// Page count (the node's L2).
    Pages(usize),
}

impl Budget {
    fn weigh(self, page: &Page) -> usize {
        match self {
            Budget::Bytes(_) => page.body.len(),
            Budget::Pages(_) => 1,
        }
    }

    fn limit(self) -> usize {
        match self {
            Budget::Bytes(limit) | Budget::Pages(limit) => limit,
        }
    }
}

/// A resident page and what its tier keeps beside it: the L1 links each
/// page to the L2 it was promoted from; the L2 links nothing.
pub struct Entry<L> {
    pub page: Page,
    pub link: L,
    /// The page's LRU handle, fresh per install.
    id: u64,
}

/// What [`PageTier::lookup`] found: nothing, a hit left resident, or an
/// entry it dropped together with the verdict that dropped it.
pub type Found<'a, L> = Option<Result<&'a Entry<L>, (Verdict, Entry<L>)>>;

/// A budgeted LRU map of pages.
///
/// Pages are keyed by the full key string, never by a hash of it: a hit
/// must be provably for *this* session's page, and a 64-bit
/// non-cryptographic hash is attacker-constructible — a colliding key
/// would serve one session's bytes to another. The LRU tracks each page by
/// a per-install id instead, so an LRU touch neither hashes nor clones a
/// key string.
pub struct PageTier<L = ()> {
    entries: HashMap<String, Entry<L>>,
    /// Victim resolution: LRU id → key.
    keys: HashMap<u64, String>,
    lru: LruReplacer<u64>,
    next_id: u64,
    budget: Budget,
    used: usize,
}

impl<L> PageTier<L> {
    pub fn new(budget: Budget) -> PageTier<L> {
        PageTier {
            entries: HashMap::new(),
            keys: HashMap::new(),
            lru: LruReplacer::new(),
            next_id: 0,
            budget,
            used: 0,
        }
    }

    /// Look `key` up and let `judge` rule on its page. A [`Verdict::Hit`]
    /// counts the hit, refreshes the page's LRU position and lends the
    /// entry out; any other verdict removes the entry and hands it back
    /// with the verdict. `None` when nothing is resident under `key`.
    pub fn lookup(&mut self, key: &str, judge: impl FnOnce(&Entry<L>) -> Verdict) -> Found<'_, L> {
        let verdict = judge(self.entries.get(key)?);
        if verdict != Verdict::Hit {
            return Some(Err((verdict, self.remove(key)?)));
        }
        let entry = self.entries.get_mut(key).expect("judged above");
        entry.page.hits += 1;
        self.lru.touch(&entry.id);
        Some(Ok(entry))
    }

    /// Install `page` under `key`, replacing any page there and evicting
    /// least-recently-used pages until it fits. A page heavier than the
    /// whole budget is refused: it would evict everything and then thrash.
    /// Returns how many pages were evicted, or `None` when refused.
    pub fn insert(&mut self, key: &str, page: Page, link: L) -> Option<u64> {
        let weight = self.budget.weigh(&page);
        if weight > self.budget.limit() {
            return None;
        }
        self.remove(key);
        let mut evicted = 0;
        while self.used + weight > self.budget.limit() {
            let victim = self
                .lru
                .pick_victim()
                .expect("an over-budget tier holds a page");
            let victim = self.keys[&victim].clone();
            self.remove(&victim);
            evicted += 1;
        }
        self.next_id += 1;
        let id = self.next_id;
        self.used += weight;
        self.lru.admit(id);
        self.keys.insert(id, key.to_owned());
        self.entries
            .insert(key.to_owned(), Entry { page, link, id });
        Some(evicted)
    }

    /// Remove `key`'s entry and its LRU tracking.
    pub fn remove(&mut self, key: &str) -> Option<Entry<L>> {
        let entry = self.entries.remove(key)?;
        self.keys.remove(&entry.id);
        self.lru.remove(&entry.id);
        self.used -= self.budget.weigh(&entry.page);
        Some(entry)
    }

    /// Drop every page.
    pub fn clear(&mut self) {
        *self = PageTier::new(self.budget);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The budget in use, in the budget's unit.
    pub fn used(&self) -> usize {
        self.used
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
/// with its `Content-Type` and `ETag`. `x_cache` names the tier that
/// answered. Tiers only serve pages whose verdict was a hit, so a 304
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
