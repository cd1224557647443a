//! The synthetic "paper site": the workload of §5/§6 with every Table 2
//! knob exposed as a parameter.
//!
//! `/paper/page.jsp?p=<rank>` renders one of `pages` identical pages: a
//! fixed literal chrome (the layout, sized to the model's non-HTTP header
//! share), then `fragments_per_page` fragments of `fragment_bytes` bytes
//! each, of which the first `round(m × cacheability)` are tagged cacheable
//! (`X_j = 1`) and the rest are design-time uncacheable. Fragment content
//! is deterministic filler keyed by `(page, slot, version)`, where the
//! version column lives in the repository's `paper` table so invalidations
//! change bytes observably.

use dpc_core::bem::TemplateWriter;
use dpc_core::{FragmentId, FragmentPolicy};
use dpc_repository::datasets::filler;
use dpc_repository::{Repository, Row};
use std::sync::Arc;
use std::time::Duration;

use crate::context::RequestCtx;
use crate::engine::{Script, ScriptEngine};

/// Experiment parameters for the synthetic site (the knobs of Table 2 that
/// live on the origin side).
#[derive(Debug, Clone, Copy)]
pub struct PaperSiteParams {
    /// Number of distinct pages (`|C|`, Table 2: 10).
    pub pages: usize,
    /// Fragments per page (`|E_i|`, Table 2: 4).
    pub fragments_per_page: usize,
    /// Bytes of content per fragment (`s_e`, Table 2: 1 KB).
    pub fragment_bytes: usize,
    /// Share of fragments that are cacheable (Table 2: 0.6).
    pub cacheability: f64,
    /// Fragment TTL (long by default; experiments drive invalidation
    /// explicitly or via the forced-hit-ratio hook).
    pub ttl: Duration,
    /// Literal page chrome in bytes (layout that is never cached). The
    /// model's `f` is this plus the measured HTTP headers.
    pub chrome_bytes: usize,
    /// Content seed.
    pub seed: u64,
}

impl Default for PaperSiteParams {
    fn default() -> Self {
        PaperSiteParams {
            pages: 10,
            fragments_per_page: 4,
            fragment_bytes: 1024,
            cacheability: 0.6,
            ttl: Duration::from_secs(3600),
            chrome_bytes: 350,
            seed: 0x9A9E,
        }
    }
}

impl PaperSiteParams {
    /// Number of cacheable fragment slots per page.
    pub fn cacheable_slots(&self) -> usize {
        (self.fragments_per_page as f64 * self.cacheability).round() as usize
    }
}

/// The `/paper/page.jsp` script.
pub struct PaperSite {
    params: PaperSiteParams,
}

impl PaperSite {
    pub fn new(params: PaperSiteParams) -> PaperSite {
        PaperSite { params }
    }

    /// Mount on `engine` and seed the backing `paper` version table.
    pub fn install(engine: &mut ScriptEngine, params: PaperSiteParams) {
        seed_versions(engine.repo(), &params);
        engine.register(PaperSite::new(params));
    }

    /// Current content version of fragment `(page, slot)`.
    fn version(&self, ctx: &RequestCtx, page: usize, slot: usize) -> i64 {
        let key = fragment_key(page, slot);
        match ctx.charge(ctx.repo().get("paper", &key)) {
            Some(row) => row.int("version"),
            None => 0,
        }
    }
}

/// Repository key of the version row for `(page, slot)`.
pub fn fragment_key(page: usize, slot: usize) -> String {
    format!("p{page}-f{slot}")
}

/// Seed version rows for every (page, slot).
fn seed_versions(repo: &Arc<Repository>, params: &PaperSiteParams) {
    repo.create_table("paper");
    for p in 0..params.pages {
        for s in 0..params.fragments_per_page {
            repo.seed(
                "paper",
                &fragment_key(p, s),
                Row::new().with("version", 0i64),
            );
        }
    }
}

/// Bump the version of fragment `(page, slot)`: its content changes and the
/// update bus invalidates the cached copy.
pub fn invalidate_fragment(repo: &Arc<Repository>, page: usize, slot: usize) {
    repo.update("paper", &fragment_key(page, slot), |row| {
        let v = row.int("version");
        row.set("version", v + 1);
    });
}

impl Script for PaperSite {
    fn path(&self) -> &str {
        "/paper/page.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let p = &self.params;
        let page: usize = ctx
            .param("p")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
            .min(p.pages.saturating_sub(1));
        let cacheable_slots = p.cacheable_slots();

        // Layout chrome: head half before the fragments, tail half after.
        let chrome = filler(p.seed ^ 0xC0DE, p.chrome_bytes);
        let (head, tail) = chrome.split_at(p.chrome_bytes / 2);
        w.literal(format!("<html><!--page {page}-->").as_bytes());
        w.literal(head.as_bytes());

        for slot in 0..p.fragments_per_page {
            let cacheable = slot < cacheable_slots;
            let policy = if cacheable {
                FragmentPolicy::ttl(p.ttl)
                    .with_deps(&[&format!("paper/{}", fragment_key(page, slot))])
            } else {
                FragmentPolicy::uncacheable()
            };
            let id = FragmentId::with_params(
                "paperfrag",
                &[("p", &page.to_string()), ("s", &slot.to_string())],
            );
            // The version read is inside the block: a hit reads no row, and
            // an update after the read finds this entry registered and
            // invalidates it.
            w.fragment(&id, policy, |out| {
                let version = self.version(ctx, page, slot);
                let seed = p.seed ^ ((page as u64) << 24) ^ ((slot as u64) << 8) ^ version as u64;
                out.extend_from_slice(filler(seed, p.fragment_bytes).as_bytes())
            });
        }

        w.literal(tail.as_bytes());
        w.literal(b"</html>");
    }
}

/// Mount helper mirroring the other apps' interface: the page script plus
/// the per-fragment endpoint used by the ESI baseline.
pub fn install(engine: &mut ScriptEngine, params: PaperSiteParams) {
    PaperSite::install(engine, params);
    engine.register(PaperFragment::new(params));
}

/// `/paper/fragment.jsp?p=<page>&s=<slot>` — a single-fragment endpoint.
///
/// This is what ESI-style dynamic page assembly (§3.2.2) requires: every
/// fragment must be addressable by URL so edge caches can fetch and cache
/// it independently. The DPC needs no such endpoint (fragments ride inside
/// `SET` instructions); it exists to make the ESI baseline runnable.
pub struct PaperFragment {
    params: PaperSiteParams,
}

impl PaperFragment {
    pub fn new(params: PaperSiteParams) -> PaperFragment {
        PaperFragment { params }
    }
}

impl Script for PaperFragment {
    fn path(&self) -> &str {
        "/paper/fragment.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let p = &self.params;
        let page: usize = ctx.param("p").and_then(|v| v.parse().ok()).unwrap_or(0);
        let slot: usize = ctx.param("s").and_then(|v| v.parse().ok()).unwrap_or(0);
        let version = match ctx.charge(ctx.repo().get("paper", &fragment_key(page, slot))) {
            Some(row) => row.int("version"),
            None => 0,
        };
        let seed = p.seed ^ ((page as u64) << 24) ^ ((slot as u64) << 8) ^ version as u64;
        let body = filler(seed, p.fragment_bytes);
        // Fragment endpoints serve plain content: the assembling cache is
        // URL-keyed, not instruction-driven.
        w.literal(body.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::prelude::*;
    use dpc_core::{Bem, BemConfig};
    use dpc_http::Request;
    use std::sync::Arc;

    fn engine(params: PaperSiteParams) -> Arc<ScriptEngine> {
        let repo = Repository::with_defaults();
        let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(256)));
        let mut e = ScriptEngine::new(bem, repo);
        PaperSite::install(&mut e, params);
        e.connect_invalidation();
        Arc::new(e)
    }

    #[test]
    fn page_renders_and_shrinks_on_second_request() {
        let e = engine(PaperSiteParams::default());
        let r1 = e.serve(&Request::get("/paper/page.jsp?p=0"));
        let r2 = e.serve(&Request::get("/paper/page.jsp?p=0"));
        assert!(r2.body.len() < r1.body.len());
        // With 1 KB fragments the template shrinks by roughly the cached
        // share (0.6 of fragment bytes).
        let shrink = r1.body.len() - r2.body.len();
        assert!(shrink > 2 * 1024, "shrunk by {shrink}");
    }

    #[test]
    fn assembled_pages_identical_across_requests() {
        let e = engine(PaperSiteParams::default());
        let store = FragmentStore::new(256);
        let p1 = assemble(
            &e.serve(&Request::get("/paper/page.jsp?p=3")).body.flatten(),
            &store,
        )
        .unwrap();
        let p2 = assemble(
            &e.serve(&Request::get("/paper/page.jsp?p=3")).body.flatten(),
            &store,
        )
        .unwrap();
        assert_eq!(p1.html, p2.html);
        assert!(p2.stats.gets > 0);
    }

    #[test]
    fn invalidation_changes_content() {
        let e = engine(PaperSiteParams::default());
        let store = FragmentStore::new(256);
        let before = assemble(
            &e.serve(&Request::get("/paper/page.jsp?p=1")).body.flatten(),
            &store,
        )
        .unwrap();
        invalidate_fragment(e.repo(), 1, 0);
        let after = assemble(
            &e.serve(&Request::get("/paper/page.jsp?p=1")).body.flatten(),
            &store,
        )
        .unwrap();
        assert_ne!(before.html, after.html, "version bump must change bytes");
    }

    #[test]
    fn cacheable_share_respected() {
        let params = PaperSiteParams {
            fragments_per_page: 10,
            cacheability: 0.3,
            ..PaperSiteParams::default()
        };
        assert_eq!(params.cacheable_slots(), 3);
        let e = engine(params);
        let _ = e.serve(&Request::get("/paper/page.jsp?p=0"));
        let stats = e.bem().directory_stats();
        assert_eq!(stats.misses, 3, "only cacheable slots enter the directory");
    }

    #[test]
    fn out_of_range_page_clamps() {
        let e = engine(PaperSiteParams::default());
        let r = e.serve(&Request::get("/paper/page.jsp?p=999"));
        assert_eq!(r.status.0, 200);
    }

    #[test]
    fn warm_page_reads_no_version_rows() {
        // Every read that feeds a block happens in the block, so a page
        // whose fragments all hit costs the origin less than its cold render.
        let e = engine(PaperSiteParams {
            cacheability: 1.0,
            ..PaperSiteParams::default()
        });
        let cost = |r: &dpc_http::Response| -> u64 {
            r.headers
                .get(crate::context::COST_HEADER)
                .and_then(|v| v.parse().ok())
                .expect("origin reports its cost")
        };
        let cold = cost(&e.serve(&Request::get("/paper/page.jsp?p=2")));
        let warm = cost(&e.serve(&Request::get("/paper/page.jsp?p=2")));
        assert!(warm < cold, "warm {warm} ns, cold {cold} ns");
    }

    #[test]
    fn fragment_sizes_track_parameter() {
        for bytes in [256usize, 4096] {
            let e = engine(PaperSiteParams {
                fragment_bytes: bytes,
                cacheability: 0.0,
                ..PaperSiteParams::default()
            });
            let r = e.serve(&Request::get("/paper/page.jsp?p=0"));
            let store = FragmentStore::new(16);
            // cacheability 0 -> plain content inline; page size tracks s_e.
            let page = match assemble(&r.body.flatten(), &store) {
                Ok(p) => p.html.len(),
                Err(_) => r.body.len(),
            };
            assert!(
                page >= 4 * bytes && page < 4 * bytes + 2048,
                "bytes={bytes} page={page}"
            );
        }
    }
}
