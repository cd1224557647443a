//! End-to-end integration tests across the whole stack: clients → proxy →
//! firewall boundary → origin, on the metered simulated network.
//!
//! The central invariant throughout: **the DPC always delivers the
//! byte-exact page a cacheless origin would have produced**, under
//! personalization, invalidation, TTL expiry, eviction pressure, and
//! component restarts.

use dynproxy::appserver::apps::paper_site::{self, PaperSiteParams};
use dynproxy::core::ReplacePolicy;
use dynproxy::proxy::{ProxyMode, Testbed, TestbedConfig};
use dynproxy::repository::datasets::{rotate_headlines, tick_quote, DatasetConfig};
use dynproxy::workload::{AccessPlan, Population, SiteKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn dataset() -> DatasetConfig {
    DatasetConfig {
        users: 20,
        categories: 5,
        products_per_category: 4,
        symbols: 8,
        headlines_per_symbol: 3,
        fragment_bytes: 400,
        ..DatasetConfig::default()
    }
}

fn dpc_and_oracle(paper: PaperSiteParams) -> (Testbed, Testbed) {
    let mk = |mode| {
        Testbed::build(TestbedConfig {
            mode,
            demo_sites: true,
            dataset: dataset(),
            paper_params: paper,
            capacity: 2048,
            ..TestbedConfig::default()
        })
    };
    (mk(ProxyMode::Dpc), mk(ProxyMode::PassThrough))
}

#[test]
fn dpc_equals_oracle_over_mixed_browsing() {
    let (dpc, oracle) = dpc_and_oracle(PaperSiteParams::default());
    for site in [
        SiteKind::BooksOnline { categories: 5 },
        SiteKind::Brokerage { symbols: 8 },
        SiteKind::Paper { pages: 10 },
    ] {
        let plan = AccessPlan::new(site, 0.9, Population::new(20, 0.5), 0xE2E);
        for r in plan.requests(150) {
            let got = dpc.get(&r.target, r.user.cookie());
            let want = oracle.get(&r.target, r.user.cookie());
            assert_eq!(got.status.0, 200, "{}", r.target);
            assert_eq!(got.body, want.body, "divergence at {}", r.target);
        }
    }
    dpc.engine().bem().directory().check_invariants().unwrap();
    let stats = dpc.engine().bem().directory_stats();
    assert!(stats.hits > 100, "caching must actually happen: {stats:?}");
}

#[test]
fn dpc_equals_oracle_under_data_churn() {
    let (dpc, oracle) = dpc_and_oracle(PaperSiteParams::default());
    let plan = AccessPlan::new(
        SiteKind::Brokerage { symbols: 8 },
        1.0,
        Population::new(20, 0.3),
        0xC4A9,
    );
    let mut rng_a = StdRng::seed_from_u64(9);
    let mut rng_b = StdRng::seed_from_u64(9);
    for (i, r) in plan.requests(200).into_iter().enumerate() {
        // Apply identical mutations to both repositories.
        match i % 7 {
            2 => {
                let sym = format!("SYM{}", i % 8);
                tick_quote(dpc.engine().repo(), &sym, &mut rng_a);
                tick_quote(oracle.engine().repo(), &sym, &mut rng_b);
            }
            5 => {
                let sym = format!("SYM{}", (i + 3) % 8);
                rotate_headlines(dpc.engine().repo(), &sym, i as u64, &dataset());
                rotate_headlines(oracle.engine().repo(), &sym, i as u64, &dataset());
            }
            _ => {}
        }
        let got = dpc.get(&r.target, r.user.cookie());
        let want = oracle.get(&r.target, r.user.cookie());
        assert_eq!(got.body, want.body, "divergence at {} (i={i})", r.target);
    }
    let stats = dpc.engine().bem().directory_stats();
    assert!(stats.invalidations > 0, "churn must invalidate: {stats:?}");
    assert!(stats.hits > 0);
}

#[test]
fn dpc_equals_oracle_under_ttl_expiry() {
    let (dpc, oracle) = dpc_and_oracle(PaperSiteParams::default());
    let url = "/quote.jsp?symbol=SYM1";
    let a = dpc.get(url, None);
    // Advance past the price fragment's 2 s TTL (both testbeds have their
    // own virtual clock; only the DPC's matters for caching).
    dpc.clock().advance(Duration::from_secs(3));
    oracle.clock().advance(Duration::from_secs(3));
    let b = dpc.get(url, None);
    let want = oracle.get(url, None);
    assert_eq!(a.body, b.body, "no data changed, so bytes must not");
    assert_eq!(b.body, want.body);
    let stats = dpc.engine().bem().directory_stats();
    assert!(stats.expirations >= 1, "price TTL must expire: {stats:?}");
}

#[test]
fn dpc_equals_oracle_under_eviction_pressure() {
    // Directory smaller than the working set: replacement churns keys
    // constantly and correctness must survive.
    let paper = PaperSiteParams {
        pages: 30,
        ..PaperSiteParams::default()
    };
    let mk = |mode| {
        Testbed::build(TestbedConfig {
            mode,
            paper_params: paper,
            capacity: 16,
            replace: ReplacePolicy::Lru,
            ..TestbedConfig::default()
        })
    };
    let dpc = mk(ProxyMode::Dpc);
    let oracle = mk(ProxyMode::PassThrough);
    let plan = AccessPlan::new(
        SiteKind::Paper { pages: 30 },
        0.7,
        Population::new(4, 0.0),
        3,
    );
    for r in plan.requests(300) {
        let got = dpc.get(&r.target, None);
        let want = oracle.get(&r.target, None);
        assert_eq!(got.body, want.body, "divergence at {}", r.target);
    }
    let stats = dpc.engine().bem().directory_stats();
    assert!(stats.evictions > 50, "pressure must evict: {stats:?}");
    assert!(stats.valid_entries <= 16);
    dpc.engine().bem().directory().check_invariants().unwrap();
}

#[test]
fn proxy_restart_loses_store_but_never_correctness() {
    let (dpc, oracle) = dpc_and_oracle(PaperSiteParams::default());
    let url = "/paper/page.jsp?p=2";
    let before = dpc.get(url, None);
    dpc.proxy().store().clear(); // "restart" the DPC box
    let after = dpc.get(url, None);
    let want = oracle.get(url, None);
    assert_eq!(before.body, after.body);
    assert_eq!(after.body, want.body);
    // The refresh rung heals the store in the same request: the proxy
    // names the keys it lost and the BEM re-`SET`s them.
    assert_eq!(after.headers.get("x-cache"), Some("dpc-assembled"));
    assert_eq!(
        dpc.proxy()
            .stats()
            .refresh_refetches
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Later updates keep every page exact.
    paper_site::invalidate_fragment(dpc.engine().repo(), 2, 0);
    paper_site::invalidate_fragment(dpc.engine().repo(), 2, 1);
    paper_site::invalidate_fragment(dpc.engine().repo(), 2, 2);
    paper_site::invalidate_fragment(oracle.engine().repo(), 2, 0);
    paper_site::invalidate_fragment(oracle.engine().repo(), 2, 1);
    paper_site::invalidate_fragment(oracle.engine().repo(), 2, 2);
    let healed = dpc.get(url, None);
    assert_eq!(healed.body, oracle.get(url, None).body);
}

#[test]
fn concurrent_clients_all_receive_correct_pages() {
    let paper = PaperSiteParams::default();
    let dpc = std::sync::Arc::new(Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: paper,
        ..TestbedConfig::default()
    }));
    let oracle = Testbed::build(TestbedConfig {
        mode: ProxyMode::PassThrough,
        paper_params: paper,
        ..TestbedConfig::default()
    });
    // Ground truth is static for the paper site without churn.
    let mut truth = Vec::new();
    for p in 0..10 {
        truth.push(oracle.get(&format!("/paper/page.jsp?p={p}"), None).body);
    }
    let truth = std::sync::Arc::new(truth);
    let mut joins = Vec::new();
    for t in 0..8 {
        let dpc = std::sync::Arc::clone(&dpc);
        let truth = std::sync::Arc::clone(&truth);
        joins.push(std::thread::spawn(move || {
            let plan = AccessPlan::new(
                SiteKind::Paper { pages: 10 },
                1.0,
                Population::new(4, 0.0),
                t as u64,
            );
            for r in plan.requests(60) {
                let p: usize = r.target.split("p=").nth(1).unwrap().parse().unwrap();
                let got = dpc.get(&r.target, None);
                assert!(got.status.is_success());
                assert_eq!(got.body, truth[p], "thread {t} diverged on page {p}");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    dpc.engine().bem().directory().check_invariants().unwrap();
}

#[test]
fn firewall_blocks_poisoned_responses_at_the_boundary() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        demo_sites: true,
        dataset: dataset(),
        ..TestbedConfig::default()
    });
    // Inject a signature the default rule set blocks into page content.
    tb.engine().repo().update("categories", "cat1", |row| {
        row.set("blurb", "totally normal text ; DROP TABLE users --");
    });
    let resp = tb.get("/catalog.jsp?categoryID=cat1", None);
    assert_eq!(resp.status.0, 502, "firewall must stop the response");
    let (_, _, blocked) = tb.firewall().counters();
    assert!(blocked >= 1);
}

#[test]
fn meters_account_wire_overhead_consistently() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        ..TestbedConfig::default()
    });
    for p in 0..5 {
        let _ = tb.get(&format!("/paper/page.jsp?p={p}"), None);
    }
    let origin = tb.origin_wire();
    let client = tb.client_wire();
    for snap in [origin, client] {
        assert!(snap.wire_bytes > snap.payload_bytes, "framing must cost");
        assert!(snap.packets > 0);
        assert!(snap.messages > 0);
    }
}

#[test]
fn purge_verb_controls_page_cache() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::PageCache,
        demo_sites: true,
        dataset: dataset(),
        ..TestbedConfig::default()
    });
    let url = "/quote.jsp?symbol=SYM2";
    let first = tb.get(url, None);
    assert_eq!(first.headers.get("x-cache"), Some("page-miss"));
    let second = tb.get(url, None);
    assert_eq!(second.headers.get("x-cache"), Some("page-hit"));
    // Purge, then the next fetch goes back to the origin.
    let mut purge = dynproxy::http::Request::get(url);
    purge.method = dynproxy::http::Method::Purge;
    let resp = tb.proxy().serve(purge);
    assert!(resp.status.is_success());
    let third = tb.get(url, None);
    assert_eq!(third.headers.get("x-cache"), Some("page-miss"));
}
