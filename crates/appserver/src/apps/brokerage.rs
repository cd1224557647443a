//! The online brokerage — §3.2.1's stock-quote page and the deployment
//! case study's workload.
//!
//! `/quote.jsp?symbol=<sym>` renders the paper's three-element quote page:
//!
//! * **price quote** — invalidates "perhaps within seconds" (market data
//!   dependency `quotes/<sym>`; short TTL);
//! * **headlines** — "updated every thirty minutes" (a scan of the
//!   headlines table, so any headline update or insert);
//! * **historical research** — "updated … on a monthly basis" (pinned,
//!   dependency `research/<sym>`).
//!
//! The paper uses exactly this page to show why *page-level* invalidation
//! over-regenerates: a price tick must not re-render headlines and
//! research. With fragment-level caching only the price fragment misses.
//!
//! `/portfolio.jsp` is the registered-user page: greeting, holdings table
//! (depends on the user's symbols), and a market summary shared across all
//! users.

use dpc_core::bem::TemplateWriter;
use dpc_core::{FragmentId, FragmentPolicy};
use std::time::Duration;

use crate::context::RequestCtx;
use crate::engine::{Script, ScriptEngine};
use crate::profile::UserProfile;

/// Mount both brokerage scripts.
pub fn install(engine: &mut ScriptEngine) {
    engine.register(QuoteScript);
    engine.register(PortfolioScript);
}

mod ttl {
    use std::time::Duration;

    /// Price quotes: seconds.
    pub const QUOTE: Duration = Duration::from_secs(2);
    /// Headlines: half an hour.
    pub const HEADLINES: Duration = Duration::from_secs(30 * 60);
    /// Research: a month.
    pub const RESEARCH: Duration = Duration::from_secs(30 * 24 * 3600);
    /// Market summary: a minute.
    pub const SUMMARY: Duration = Duration::from_secs(60);
}

fn price_fragment(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, symbol: &str) {
    let id = FragmentId::with_params("price", &[("sym", symbol)]);
    w.fragment(&id, FragmentPolicy::ttl(ttl::QUOTE), |out| {
        match ctx.charge(ctx.repo().get("quotes", symbol)) {
            Some(row) => out.extend_from_slice(
                format!(
                    "<div class=\"quote\"><b>{symbol}</b> ${:.2} ({:+.2}) vol {}</div>",
                    row.float("price"),
                    row.float("change"),
                    row.int("volume")
                )
                .as_bytes(),
            ),
            None => out.extend_from_slice(b"<div class=\"quote\">unknown symbol</div>"),
        }
    });
}

fn headlines_fragment(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, symbol: &str) {
    // The scan runs inside the code block, so on a hit neither the scan
    // nor its simulated latency happens: that is the server-side
    // acceleration. The scan reads the whole table, so any headline
    // update or insert regenerates the fragment.
    let id = FragmentId::with_params("headlines", &[("sym", symbol)]);
    w.fragment(&id, FragmentPolicy::ttl(ttl::HEADLINES), |out| {
        let rows = ctx.charge(
            ctx.repo()
                .scan_where("headlines", |_, row| row.str("symbol") == symbol),
        );
        out.extend_from_slice(b"<ul class=\"headlines\">");
        for (_, row) in rows {
            out.extend_from_slice(format!("<li>{}</li>", row.str("text")).as_bytes());
        }
        out.extend_from_slice(b"</ul>");
    });
}

fn research_fragment(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, symbol: &str) {
    let id = FragmentId::with_params("research", &[("sym", symbol)]);
    w.fragment(&id, FragmentPolicy::ttl(ttl::RESEARCH), |out| {
        match ctx.charge(ctx.repo().get("research", symbol)) {
            Some(row) => out.extend_from_slice(
                format!(
                    "<section class=\"research\">P/E {:.2} — rating {} <p>{}</p></section>",
                    row.float("pe_ratio"),
                    row.str("rating"),
                    row.str("summary")
                )
                .as_bytes(),
            ),
            None => out.extend_from_slice(b"<section class=\"research\">no coverage</section>"),
        }
    });
}

fn market_summary_fragment(ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
    let id = FragmentId::new("market-summary");
    w.fragment(&id, FragmentPolicy::ttl(ttl::SUMMARY), |out| {
        let rows = ctx.charge(ctx.repo().scan_where("quotes", |_, _| true));
        let n = rows.len().max(1);
        let avg: f64 = rows.iter().map(|(_, r)| r.float("price")).sum::<f64>() / n as f64;
        let up = rows
            .iter()
            .filter(|(_, r)| r.float("change") >= 0.0)
            .count();
        out.extend_from_slice(
            format!(
                "<div class=\"summary\">market: {n} symbols, avg ${avg:.2}, {up} advancing</div>"
            )
            .as_bytes(),
        );
    });
}

/// The registered visitor's greeting. Its name comes from the profile,
/// read before the block, so the block declares the user's row.
fn greeting_fragment(w: &mut TemplateWriter<'_>, profile: &UserProfile) {
    let user = &profile.user_id;
    let id = FragmentId::with_params("greeting", &[("user", user)]);
    let policy =
        FragmentPolicy::ttl(Duration::from_secs(120)).with_deps(&[&format!("users/{user}")]);
    w.fragment(&id, policy, |out| {
        out.extend_from_slice(
            format!("<div class=\"greet\">Hello, {}!</div>", profile.name).as_bytes(),
        );
    });
}

/// `/quote.jsp` — the three-element stock-quote page.
pub struct QuoteScript;

impl Script for QuoteScript {
    fn path(&self) -> &str {
        "/quote.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let profile = ctx.profile();
        let symbol = ctx.param("symbol").unwrap_or("SYM0").to_owned();
        w.literal(format!("<html><body class=\"{}\">", profile.layout).as_bytes());
        if profile.registered {
            // Registered layout: greeting and a portfolio shortcut around
            // the shared content — same URL, different page (§2.1).
            greeting_fragment(w, &profile);
        }
        price_fragment(ctx, w, &symbol);
        headlines_fragment(ctx, w, &symbol);
        research_fragment(ctx, w, &symbol);
        if profile.registered {
            w.literal(b"<a href=\"/portfolio.jsp\">your portfolio</a>");
        }
        w.literal(b"</body></html>");
    }
}

/// `/portfolio.jsp` — registered users' holdings page.
pub struct PortfolioScript;

impl Script for PortfolioScript {
    fn path(&self) -> &str {
        "/portfolio.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let profile = ctx.profile();
        w.literal(format!("<html><body class=\"{}\">", profile.layout).as_bytes());
        if !profile.registered {
            w.literal(b"<p>Please log in to view your portfolio.</p></body></html>");
            return;
        }
        greeting_fragment(w, &profile);
        // Holdings: the user's favourite symbol plus the market leaders —
        // a per-user fragment over shared market data. The symbol comes
        // from the profile, so the block declares the user's row.
        let fav = &profile.fav_symbol;
        let user = &profile.user_id;
        let id = FragmentId::with_params("holdings", &[("user", user)]);
        let policy = FragmentPolicy::ttl(ttl::QUOTE).with_deps(&[&format!("users/{user}")]);
        w.fragment(&id, policy, |out| {
            out.extend_from_slice(b"<table class=\"holdings\">");
            if let Some(row) = ctx.charge(ctx.repo().get("quotes", fav)) {
                out.extend_from_slice(
                    format!(
                        "<tr><td>{fav}</td><td>${:.2}</td><td>{:+.2}</td></tr>",
                        row.float("price"),
                        row.float("change")
                    )
                    .as_bytes(),
                );
            }
            out.extend_from_slice(b"</table>");
        });
        market_summary_fragment(ctx, w);
        w.literal(b"</body></html>");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::prelude::*;
    use dpc_core::{Bem, BemConfig};
    use dpc_http::Request;
    use dpc_repository::datasets::{seed_all, tick_quote, DatasetConfig};
    use dpc_repository::Repository;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn engine() -> Arc<ScriptEngine> {
        let repo = Repository::with_defaults();
        seed_all(
            &repo,
            &DatasetConfig {
                users: 8,
                symbols: 6,
                headlines_per_symbol: 3,
                fragment_bytes: 300,
                ..DatasetConfig::default()
            },
        );
        let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(512)));
        let mut e = ScriptEngine::new(bem, repo);
        install(&mut e);
        e.connect_invalidation();
        Arc::new(e)
    }

    fn get(e: &ScriptEngine, store: &FragmentStore, target: &str, user: Option<&str>) -> Vec<u8> {
        let mut req = Request::get(target);
        if let Some(u) = user {
            req.headers.set("Cookie", format!("session={u}"));
        }
        let resp = e.serve(&req);
        assert_eq!(resp.status.0, 200, "{target}");
        assemble(&resp.body.flatten(), store).unwrap().html
    }

    #[test]
    fn quote_page_stable_across_hit_and_miss() {
        let e = engine();
        let store = FragmentStore::new(512);
        let a = get(&e, &store, "/quote.jsp?symbol=SYM1", None);
        let b = get(&e, &store, "/quote.jsp?symbol=SYM1", None);
        assert_eq!(a, b);
        assert!(e.bem().directory_stats().hits >= 3);
    }

    #[test]
    fn price_tick_regenerates_only_price_fragment() {
        let e = engine();
        let store = FragmentStore::new(512);
        let _ = get(&e, &store, "/quote.jsp?symbol=SYM2", None);
        let misses_before = e.bem().directory_stats().misses;
        let mut rng = StdRng::seed_from_u64(5);
        tick_quote(e.repo(), "SYM2", &mut rng);
        let _ = get(&e, &store, "/quote.jsp?symbol=SYM2", None);
        let stats = e.bem().directory_stats();
        // Exactly the price fragment (and the market-summary if rendered —
        // not on this page) regenerates; headlines and research hit.
        assert_eq!(
            stats.misses,
            misses_before + 1,
            "only the price fragment should regenerate: {stats:?}"
        );
    }

    #[test]
    fn registered_layout_differs_from_anonymous() {
        let e = engine();
        let store = FragmentStore::new(512);
        let anon = get(&e, &store, "/quote.jsp?symbol=SYM0", None);
        let reg = get(&e, &store, "/quote.jsp?symbol=SYM0", Some("user1"));
        assert_ne!(anon, reg);
        assert!(String::from_utf8_lossy(&reg).contains("portfolio"));
        assert!(!String::from_utf8_lossy(&anon).contains("portfolio"));
    }

    #[test]
    fn portfolio_requires_login() {
        let e = engine();
        let store = FragmentStore::new(512);
        let anon = get(&e, &store, "/portfolio.jsp", None);
        assert!(String::from_utf8_lossy(&anon).contains("log in"));
        let reg = get(&e, &store, "/portfolio.jsp", Some("user2"));
        assert!(String::from_utf8_lossy(&reg).contains("Hello,"));
        assert!(String::from_utf8_lossy(&reg).contains("holdings"));
    }

    #[test]
    fn headline_rotation_invalidates_headlines() {
        let e = engine();
        let store = FragmentStore::new(512);
        let before = get(&e, &store, "/quote.jsp?symbol=SYM3", None);
        dpc_repository::datasets::rotate_headlines(
            e.repo(),
            "SYM3",
            99,
            &DatasetConfig {
                symbols: 6,
                headlines_per_symbol: 3,
                fragment_bytes: 300,
                ..DatasetConfig::default()
            },
        );
        let after = get(&e, &store, "/quote.jsp?symbol=SYM3", None);
        assert_ne!(before, after);
    }

    #[test]
    fn a_quote_page_of_gets_names_what_its_blocks_read() {
        use dpc_core::proto::{Provenance, READS_HEADER, WANT_READS_HEADER};
        use dpc_core::stripe_of;
        let e = engine();
        let reads = || {
            let req = Request::get("/quote.jsp?symbol=SYM1").with_header(WANT_READS_HEADER, "1");
            let resp = e.serve(&req);
            Provenance::parse(resp.headers.get(READS_HEADER).expect("asked")).reads
        };
        let cold = reads();
        let hits = e.bem().directory_stats().hits;
        let warm = reads();
        assert_eq!(
            e.bem().directory_stats().hits,
            hits + 3,
            "every block a GET"
        );
        // The headlines block's GET included, the page names what its
        // SETs read, where it used to be unknown (`*`).
        assert!(warm.is_some(), "a page of GETs has a known read set");
        assert_eq!(warm, cold);
        let mut want: Vec<u16> = ["quotes/SYM1", "headlines/*", "research/SYM1"]
            .iter()
            .map(|label| stripe_of(label))
            .collect();
        want.sort_unstable();
        assert_eq!(cold.as_deref(), Some(&want[..]));
    }

    #[test]
    fn market_summary_shared_across_users() {
        let e = engine();
        let store = FragmentStore::new(512);
        let _ = get(&e, &store, "/portfolio.jsp", Some("user1"));
        let hits_before = e.bem().directory_stats().hits;
        let _ = get(&e, &store, "/portfolio.jsp", Some("user3"));
        let stats = e.bem().directory_stats();
        assert!(
            stats.hits > hits_before,
            "market summary should be shared: {stats:?}"
        );
    }
}
