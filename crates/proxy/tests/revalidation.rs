//! End-to-end conditional revalidation: the strong ETag derived from the
//! page's assembly-time content identity, exercised on every leg.
//!
//! * Client leg — a conditional GET whose `If-None-Match` still names the
//!   page's identity gets a body-free `304 Not Modified` from whichever
//!   leg answers (the page tier, or the assembling handler), and an
//!   invalidation flips the ETag so the next conditional GET ships the
//!   full regenerated body, byte-exact.
//! * Allocation pin — the 304 serve on the hottest path (a page-tier hit
//!   through `Proxy::serve`) allocates no body-sized memory: a
//!   thread-tracking allocator bounds the bytes allocated while serving a
//!   conditional hit against a 64 KiB page.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_http::{Client, Method, Request, Response};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::ProxyMode;

#[path = "../../../tests/support/thread_alloc.rs"]
mod thread_alloc;

fn params() -> PaperSiteParams {
    PaperSiteParams {
        pages: 12,
        fragment_bytes: 512,
        cacheability: 1.0,
        ..PaperSiteParams::default()
    }
}

fn page(p: usize) -> String {
    format!("/paper/page.jsp?p={p}")
}

fn etag_of(resp: &Response) -> String {
    let etag = resp.headers.get("ETag").expect("response carries an ETag");
    assert!(
        etag.len() == 18 && etag.starts_with('"') && etag.ends_with('"'),
        "strong quoted 64-bit identity, got {etag:?}"
    );
    etag.to_owned()
}

fn trace_kv(resp: &Response) -> HashMap<String, String> {
    resp.headers
        .get("X-DPC-Trace")
        .expect("traced response carries X-DPC-Trace")
        .split(' ')
        .map(|pair| {
            let (k, v) = pair.split_once('=').expect("trace pairs are k=v");
            (k.to_owned(), v.to_owned())
        })
        .collect()
}

/// Sum every sample of family `name` whose label set contains `labels`.
fn metric_sum(body: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    let mut sum = 0.0;
    let mut seen = false;
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let (label_part, value) = match rest.split_once(' ') {
            Some(("", v)) => ("", v),
            Some((l, v)) if l.starts_with('{') => (l, v),
            _ => continue,
        };
        if !labels
            .iter()
            .all(|(k, v)| label_part.contains(&format!("{k}=\"{v}\"")))
        {
            continue;
        }
        seen = true;
        sum += value.parse::<f64>().expect("sample value parses");
    }
    assert!(seen, "no samples of {name} with {labels:?} in exposition");
    sum
}

/// The client leg across the tier: one unconditional serve teaches the
/// client the page's identity; every conditional repeat is a body-free 304
/// from the page tier — and the serves are visible as
/// `outcome="revalidated"` in the scrape.
#[test]
fn conditional_get_round_trips_304_across_the_tier_ladder() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));

    let first = client.request(PROXY_ADDR, Request::get(page(3))).unwrap();
    assert_eq!(first.status.0, 200);
    let etag = etag_of(&first);
    let body = first.body.to_vec();
    assert!(!body.is_empty());

    let conditional = || {
        Request::get(page(3))
            .with_header("If-None-Match", &etag)
            .with_header("X-DPC-Trace", "1")
    };

    // The page tier answers every conditional.
    const CONDITIONALS: u32 = 4;
    for i in 0..CONDITIONALS {
        let resp = client.request(PROXY_ADDR, conditional()).unwrap();
        assert_eq!(resp.status.0, 304, "conditional serve {i}");
        assert!(resp.body.to_vec().is_empty(), "304 moves no body bytes");
        assert_eq!(resp.headers.get("ETag"), Some(etag.as_str()));
        assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l2"), "serve {i}");
        assert_eq!(trace_kv(&resp)["tier"], "revalidated");
    }

    // An unconditional GET still gets the full page, byte-exact, with the
    // same validator attached.
    let full = client.request(PROXY_ADDR, Request::get(page(3))).unwrap();
    assert_eq!(full.status.0, 200);
    assert_eq!(full.body.to_vec(), body);
    assert_eq!(full.headers.get("ETag"), Some(etag.as_str()));

    // A validator the page never had ships the full body.
    let stale = client
        .request(
            PROXY_ADDR,
            Request::get(page(3)).with_header("If-None-Match", "\"0000000000000000\""),
        )
        .unwrap();
    assert_eq!(stale.status.0, 200);
    assert_eq!(stale.body.to_vec(), body);

    // The revalidated serves land in their own outcome bucket, and the
    // sim workload (push readiness everywhere) never armed the poller's
    // fallback tick — the exported pin for satellite telemetry.
    let scrape = client
        .request(PROXY_ADDR, Request::get("/_dpc/metrics"))
        .unwrap();
    let scraped = String::from_utf8(scrape.body.to_vec()).unwrap();
    let revalidated = metric_sum(
        &scraped,
        "dpc_request_duration_ns_count",
        &[("server", "proxy"), ("outcome", "revalidated")],
    );
    assert_eq!(revalidated, f64::from(CONDITIONALS));
    assert_eq!(
        metric_sum(
            &scraped,
            "dpc_poll_tick_waits_total",
            &[("server", "proxy")]
        ),
        0.0,
        "push-only pollers never arm the fallback tick"
    );
}

/// A conditional GET that misses every cache still assembles (warming the
/// tier) but answers with the hash alone when the rebuilt page's identity
/// matches — the `finish_conditional` leg behind the tiers.
#[test]
fn cold_conditional_get_assembles_then_revalidates() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));

    let first = client.request(PROXY_ADDR, Request::get(page(2))).unwrap();
    assert_eq!(first.status.0, 200);
    let etag = etag_of(&first);

    let resp = client
        .request(
            PROXY_ADDR,
            Request::get(page(2))
                .with_header("If-None-Match", &etag)
                .with_header("X-DPC-Trace", "1"),
        )
        .unwrap();
    assert_eq!(resp.status.0, 304);
    assert!(resp.body.to_vec().is_empty());
    assert_eq!(resp.headers.get("ETag"), Some(etag.as_str()));
    assert_eq!(trace_kv(&resp)["tier"], "revalidated");

    // `*` matches any current entity (RFC 9110), and a comma-separated
    // candidate list matches if any member does.
    for inm in ["*", &format!("\"ffffffffffffffff\", {etag}")] {
        let resp = client
            .request(
                PROXY_ADDR,
                Request::get(page(2)).with_header("If-None-Match", inm),
            )
            .unwrap();
        assert_eq!(resp.status.0, 304, "If-None-Match: {inm}");
    }
}

/// The ETag contract across the two assembly paths, page tier off: the
/// cold page is built from `SET`s, the next one from `GET`s of the slots
/// those `SET`s installed, and the identity the first minted still names
/// the second — a 304, not a spurious 200.
#[test]
fn cold_set_path_etag_revalidates_the_warm_get_path() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 0,
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));
    let asm = || {
        use std::sync::atomic::Ordering;
        let s = tb.proxy().stats();
        (
            s.asm_sets.load(Ordering::Relaxed),
            s.asm_gets.load(Ordering::Relaxed),
        )
    };

    let cold = client.request(PROXY_ADDR, Request::get(page(7))).unwrap();
    assert_eq!(cold.status.0, 200);
    assert_eq!(cold.headers.get("X-Cache"), Some("dpc-assembled"));
    let (sets, gets) = asm();
    assert!(sets > 0, "the cold page installs its fragments");
    assert_eq!(gets, 0, "the cold page splices nothing");

    let warm = client
        .request(
            PROXY_ADDR,
            Request::get(page(7)).with_header("If-None-Match", etag_of(&cold)),
        )
        .unwrap();
    assert_eq!(warm.status.0, 304, "SET-path and GET-path identities agree");
    assert_eq!(warm.headers.get("X-Cache"), Some("dpc-assembled"));
    let (sets_after, gets_after) = asm();
    assert_eq!(sets_after, sets, "the warm page installs nothing");
    assert_eq!(gets_after, sets, "every fragment comes back as a GET");
}

/// Invalidation flips the validator: after a dependency purge the old
/// ETag no longer matches, the next conditional GET ships the full
/// regenerated body (byte-exact with an unconditional serve), and the
/// *new* ETag revalidates again.
#[test]
fn invalidation_flips_the_etag_and_reships_the_body() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));

    // Warm page 5 through the tier.
    for _ in 0..3 {
        let resp = client.request(PROXY_ADDR, Request::get(page(5))).unwrap();
        assert_eq!(resp.status.0, 200);
    }
    let before = client.request(PROXY_ADDR, Request::get(page(5))).unwrap();
    let old_etag = etag_of(&before);
    let old_body = before.body.to_vec();
    let resp = client
        .request(
            PROXY_ADDR,
            Request::get(page(5)).with_header("If-None-Match", &old_etag),
        )
        .unwrap();
    assert_eq!(resp.status.0, 304, "pre-invalidation validator matches");

    // Content changes behind the cache; the admin purge frees the
    // dependency's keys and bumps the coherency epoch.
    let frag_key = paper_site::fragment_key(5, 0);
    let v = tb
        .engine()
        .repo()
        .get("paper", &frag_key)
        .value
        .expect("seeded row")
        .int("version");
    tb.engine().repo().seed(
        "paper",
        &frag_key,
        dpc_repository::Row::new().with("version", v + 1),
    );
    let mut purge = Request::get(page(5));
    purge.method = Method::Purge;
    purge.headers.set("X-DPC-Dep", format!("paper/{frag_key}"));
    let resp = client.request(PROXY_ADDR, purge).unwrap();
    assert_eq!(resp.status.0, 200);

    // The outdated validator cannot 304: the conditional GET ships the
    // full regenerated body, byte-identical to an unconditional serve.
    let resp = client
        .request(
            PROXY_ADDR,
            Request::get(page(5)).with_header("If-None-Match", &old_etag),
        )
        .unwrap();
    assert_eq!(resp.status.0, 200, "stale validator gets the body");
    let new_etag = etag_of(&resp);
    let new_body = resp.body.to_vec();
    assert_ne!(new_etag, old_etag, "invalidation must flip the ETag");
    assert_ne!(new_body, old_body, "regenerated page has new content");
    let unconditional = client.request(PROXY_ADDR, Request::get(page(5))).unwrap();
    assert_eq!(unconditional.body.to_vec(), new_body, "byte-exact");

    // And the new validator revalidates.
    let resp = client
        .request(
            PROXY_ADDR,
            Request::get(page(5)).with_header("If-None-Match", &new_etag),
        )
        .unwrap();
    assert_eq!(resp.status.0, 304);
}

/// The allocation pin: serving a 304 through `Proxy::serve` from the page
/// tier against a 64 KiB page allocates no body-sized memory on the
/// serving thread — only header-scale strings. (Thread-tracking allocator,
/// so concurrent tests in this binary cannot perturb the measurement.)
#[test]
fn revalidated_304_serve_allocates_no_body_bytes() {
    const BODY: usize = 64 * 1024;
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..TestbedConfig::default()
    });
    let proxy = tb.proxy();
    let pages = proxy.page_cache();
    let etag = "\"00c0ffee00c0ffee\"";
    assert!(pages.install(
        dpc_proxy::page_key("/big", "").as_str(),
        Bytes::from(vec![b'x'; BODY]),
        "text/html",
        Some(pages.coherence_stamp()),
        Some(etag.to_owned()),
    ));
    let resp = proxy.serve(Request::get("/big"));
    assert_eq!(resp.status.0, 200);
    assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l2"));
    assert_eq!(resp.body.len(), BODY);

    let conditional = || Request::get("/big").with_header("If-None-Match", etag);
    // Warm once: any lazy one-time cost (hash map growth, TLS) is paid
    // outside the measured window.
    let warm = proxy.serve(conditional());
    assert_eq!(warm.status.0, 304);
    assert!(warm.body.to_vec().is_empty());

    let req = conditional();
    let before = thread_alloc::bytes();
    let resp = proxy.serve(req);
    let allocated = thread_alloc::bytes() - before;
    assert_eq!(resp.status.0, 304);
    assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l2"));
    assert_eq!(resp.headers.get("ETag"), Some(etag));
    assert!(
        allocated < (BODY / 8) as u64,
        "304 serve allocated {allocated} bytes against a {BODY}-byte page \
         — the body must not be copied or flattened on the revalidation path"
    );
}
