//! End-to-end conditional revalidation: the strong ETag derived from the
//! page's assembly-time content identity, exercised on every leg.
//!
//! * Client leg — a conditional GET whose `If-None-Match` still names the
//!   page's identity gets a body-free `304 Not Modified` from whichever
//!   tier answers (L1, L2, or the assembling handler), and an
//!   invalidation flips the ETag so the next conditional GET ships the
//!   full regenerated body, byte-exact.
//! * Peer leg — a conditional `FetchReq` carrying the requester's held
//!   identity comes back as a hash-only `FetchNotModified` frame when the
//!   donor's slot is unchanged, and as the full body after a gossiped
//!   invalidation scrubs the requester — with the donor's wire meter
//!   counting exactly one of {hit, miss, not_modified} per fetch.
//! * Allocation pin — the 304 serve on the hottest path (loop-local L1)
//!   allocates no body-sized memory: a thread-tracking allocator bounds
//!   the bytes allocated while serving a conditional hit against a 64 KiB
//!   page.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_cluster::{
    gossip_exchange, peer_addr, peer_fetch_conditional, PeerFetch, PeerNode, PeerServer,
};
use dpc_core::{content_hash, CoherencyEpoch, DpcKey, FragmentStore};
use dpc_http::{Client, LoopCache, Method, Request, Response};
use dpc_net::{Clock, SimNetwork};
use dpc_proxy::l1::{LoopTier, PROMOTE_AFTER};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::{PageCache, ProxyMode};

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

/// The client leg across the whole tier ladder: one unconditional serve
/// teaches the client the page's identity; every conditional repeat is a
/// body-free 304 from L2, then (once promoted) from the loop-local L1 —
/// and the serves are visible as `outcome="revalidated"` in the scrape.
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

    // The shared L2 answers the first PROMOTE_AFTER conditionals (the
    // promotion threshold counts 304s as the hits they are), after which
    // the loop-local L1 answers without touching any shared state.
    for i in 0..PROMOTE_AFTER {
        let resp = client.request(PROXY_ADDR, conditional()).unwrap();
        assert_eq!(resp.status.0, 304, "conditional serve {i}");
        assert!(resp.body.to_vec().is_empty(), "304 moves no body bytes");
        assert_eq!(resp.headers.get("ETag"), Some(etag.as_str()));
        assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l2"), "serve {i}");
        assert_eq!(trace_kv(&resp)["tier"], "revalidated");
    }
    let resp = client.request(PROXY_ADDR, conditional()).unwrap();
    assert_eq!(resp.status.0, 304);
    assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l1"));
    assert_eq!(trace_kv(&resp)["tier"], "revalidated");
    assert!(resp.body.to_vec().is_empty());

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
    assert_eq!(revalidated, PROMOTE_AFTER as f64 + 1.0);
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

    // Warm page 5 through the tier (L2 install + L1 promotion).
    for _ in 0..(PROMOTE_AFTER as usize + 2) {
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

/// The peer leg: a conditional `FetchReq` carrying the held identity is
/// answered hash-only while the donor's slot is unchanged; after an
/// invalidation gossips to convergence (scrubbing the requester's slot),
/// the same held identity is outdated and the donor ships the fresh body.
/// The donor's meter counts each wire fetch in exactly one bucket, so
/// `fetch_hits + fetch_misses` remains "bodies moved (or absent)" per the
/// coalescing contract.
#[test]
fn peer_leg_serves_not_modified_until_gossip_scrubs_the_slot() {
    let net = SimNetwork::with_defaults();
    let donor = PeerNode::new(0, Arc::new(FragmentStore::new(64)));
    let _donor_server = PeerServer::spawn(&net, &donor);
    let requester = PeerNode::new(1, Arc::new(FragmentStore::new(64)));
    let _requester_server = PeerServer::spawn(&net, &requester);
    let conn = net.connector();

    donor
        .store()
        .set(DpcKey(7), Bytes::from_static(b"fragment-v1"));
    requester
        .store()
        .set(DpcKey(7), Bytes::from_static(b"fragment-v1"));
    let held = content_hash(b"fragment-v1");

    // Unchanged slot: the identity matches and only the hash moves.
    assert_eq!(
        peer_fetch_conditional(&conn, &peer_addr(0), DpcKey(7), held).unwrap(),
        PeerFetch::NotModified
    );

    // The donor invalidates (recording the event for gossip) and
    // regenerates the fragment with new content.
    donor.record_local("tbl/dep", vec![DpcKey(7)]);
    donor
        .store()
        .set(DpcKey(7), Bytes::from_static(b"fragment-v2"));

    // Anti-entropy converges the event to the requester, scrubbing its
    // now-outdated slot.
    let mut rounds = 0;
    while requester.vv().get(0) < 1 {
        gossip_exchange(&conn, &peer_addr(0), &requester).unwrap();
        rounds += 1;
        assert!(rounds < 8, "gossip never converged");
    }
    assert!(
        requester.store().get(DpcKey(7)).is_none(),
        "gossip scrub frees the requester's slot"
    );

    // The held identity predates the invalidation: the donor ships the
    // fresh body. Revalidating with the *current* identity is hash-only
    // again.
    assert_eq!(
        peer_fetch_conditional(&conn, &peer_addr(0), DpcKey(7), held).unwrap(),
        PeerFetch::Fetched(Bytes::from_static(b"fragment-v2"))
    );
    assert_eq!(
        peer_fetch_conditional(
            &conn,
            &peer_addr(0),
            DpcKey(7),
            content_hash(b"fragment-v2")
        )
        .unwrap(),
        PeerFetch::NotModified
    );

    // Meter contract: three wire fetches, each in exactly one bucket —
    // one body moved, two hash-only.
    let stats = donor.stats();
    use std::sync::atomic::Ordering;
    assert_eq!(stats.fetch_hits.load(Ordering::Relaxed), 1);
    assert_eq!(stats.fetch_misses.load(Ordering::Relaxed), 0);
    assert_eq!(stats.fetch_not_modified.load(Ordering::Relaxed), 2);
}

/// The allocation pin: serving a 304 from the loop-local L1 against a
/// 64 KiB page allocates no body-sized memory on the serving thread —
/// only header-scale strings. (Thread-tracking allocator, so concurrent
/// tests in this binary cannot perturb the measurement.)
#[test]
fn revalidated_304_serve_allocates_no_body_bytes() {
    const BODY: usize = 64 * 1024;
    let epoch = CoherencyEpoch::new();
    let l2 = Arc::new(
        PageCache::new(Clock::real(), Duration::from_secs(60), 64).with_coherence(epoch.clone()),
    );
    let etag = "\"00c0ffee00c0ffee\"";
    l2.install(
        dpc_proxy::page_key("/big", "").as_str(),
        Bytes::from(vec![b'x'; BODY]),
        "text/html",
        Some(l2.coherence_stamp()),
        Some(etag.to_owned()),
    );
    let resolve = {
        let l2 = Arc::clone(&l2);
        Arc::new(move |_t: &str| Some(Arc::clone(&l2)))
    };
    let mut tier = LoopTier::new(1 << 20, Duration::from_secs(60), resolve);

    // Promote into L1 (PROMOTE_AFTER hits), then confirm the hot path.
    for _ in 0..=PROMOTE_AFTER {
        let resp = tier.try_serve(&Request::get("/big")).expect("L2 serves");
        assert_eq!(resp.status.0, 200);
    }
    let resp = tier.try_serve(&Request::get("/big")).expect("L1 serves");
    assert_eq!(resp.headers.get("X-Cache"), Some("dpc-l1"));

    let conditional = || Request::get("/big").with_header("If-None-Match", etag);
    // Warm once: any lazy one-time cost (hash map growth, TLS) is paid
    // outside the measured window.
    let warm = tier.try_serve(&conditional()).expect("conditional serves");
    assert_eq!(warm.status.0, 304);
    assert!(warm.body.to_vec().is_empty());

    let before = thread_alloc::bytes();
    let resp = tier.try_serve(&conditional()).expect("conditional serves");
    let allocated = thread_alloc::bytes() - before;
    assert_eq!(resp.status.0, 304);
    assert_eq!(resp.headers.get("ETag"), Some(etag));
    assert!(
        allocated < (BODY / 8) as u64,
        "304 serve allocated {allocated} bytes against a {BODY}-byte page \
         — the body must not be copied or flattened on the revalidation path"
    );
}
