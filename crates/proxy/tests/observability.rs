//! End-to-end observability: the `/_dpc/metrics` exposition and the
//! `X-DPC-Trace` cache-journey header, exercised over the simulated wire
//! exactly as an operator would use them.
//!
//! * Trace attribution — one request sequence walks the tier ladder
//!   (assembled miss → page-tier hit) on the testbed front.
//! * Scrapes — after real traffic, the testbed front and a ring node
//!   both expose every metric family with nonzero counts, including the
//!   per-outcome request-latency histograms, and each front reports its
//!   worker-pool size (0 for the inline origin).
//! * Purge-by-dependency — `PURGE` + `X-DPC-Dep` frees the dependency's
//!   keys, reports the count, and on the ring leaves no node able to
//!   serve the purged bytes.

use std::collections::HashMap;
use std::sync::Arc;

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_core::proto::NODE_HEADER;
use dpc_http::{Client, Method, Request, Response};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::{ProxyMode, RingCluster, RingConfig};

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

/// Parse the `k=v` pairs of an `X-DPC-Trace` response header.
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

/// Sum every sample of family `name` whose label set contains all of
/// `labels`, across an exposition body. Exact family-name match (a query
/// for `_count` never matches `_bucket` lines).
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

fn traced_get(target: &str) -> Request {
    Request::get(target).with_header("X-DPC-Trace", "1")
}

#[test]
fn trace_walks_the_tier_ladder_on_the_testbed_front() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));
    let get = || client.request(PROXY_ADDR, traced_get(&page(3))).unwrap();

    // First serve assembles from fragments.
    let first = get();
    let t = trace_kv(&first);
    assert_eq!(t["tier"], "assembled");
    assert_eq!(t["flight"], "none");
    assert!(t["segments"].parse::<usize>().unwrap() >= 1);

    // Every later serve hits the page tier, and the journey names no
    // shard: the node that rendered it is the only place it was served.
    for i in 0..4 {
        let t = trace_kv(&get());
        assert_eq!(t["tier"], "l2", "serve {i} after assembly");
        assert_eq!(t["flight"], "none");
        assert!(!t.contains_key("shard"));
    }

    // Untraced requests stay clean: no header unless asked for.
    let plain = client.request(PROXY_ADDR, Request::get(page(3))).unwrap();
    assert!(plain.headers.get("X-DPC-Trace").is_none());
}

#[test]
fn metrics_scrape_on_the_testbed_front_has_every_family_nonzero() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));
    for round in 0..6 {
        for p in 0..6 {
            let resp = client.request(PROXY_ADDR, Request::get(page(p))).unwrap();
            assert_eq!(resp.status.0, 200, "round {round} page {p}");
        }
    }
    // An update of one fragment per page unserves that page's tiered
    // copy; the next pass reassembles each page from the now-warm
    // fragment directory, whose other fragments are still valid — this is
    // what drives directory *hits* rather than misses. (A session pass
    // would not: paper-site pages never read the session, so every
    // session hits the one shared copy.)
    for p in 0..6 {
        paper_site::invalidate_fragment(tb.engine().repo(), p, 0);
    }
    for p in 0..6 {
        let req = Request::get(page(p)).with_header("Cookie", "session=scraper");
        assert_eq!(client.request(PROXY_ADDR, req).unwrap().status.0, 200);
    }

    let scrape = client
        .request(PROXY_ADDR, Request::get("/_dpc/metrics"))
        .unwrap();
    assert_eq!(scrape.status.0, 200);
    assert_eq!(
        scrape.headers.get("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    let body = std::str::from_utf8(&scrape.body.to_vec())
        .unwrap()
        .to_owned();

    // Every layer's family is present with traffic-driven counts.
    assert!(metric_sum(&body, "dpc_bem_fragments_total", &[]) > 0.0);
    assert!(metric_sum(&body, "dpc_directory_hits_total", &[]) > 0.0);
    assert!(metric_sum(&body, "dpc_page_hits_total", &[("tier", "l2")]) > 0.0);
    assert!(metric_sum(&body, "dpc_proxy_requests_total", &[]) > 0.0);
    assert!(metric_sum(&body, "dpc_assembly_gets_total", &[]) > 0.0);
    assert!(metric_sum(&body, "dpc_flight_leaders_total", &[("source", "bem")]) >= 0.0);
    assert!(metric_sum(&body, "dpc_server_requests_total", &[("server", "proxy")]) > 0.0);
    assert!(metric_sum(&body, "dpc_server_requests_total", &[("server", "origin")]) > 0.0);
    assert!(metric_sum(&body, "dpc_wire_bytes_total", &[]) > 0.0);
    // A lone proxy never refreshes.
    assert_eq!(metric_sum(&body, "dpc_bem_missing_keys_total", &[]), 0.0);

    // Per-outcome latency histograms: the first serves assembled, the
    // repeats hit the page tier; both outcomes have counted samples and
    // sums, and the bucket pipeline is visible end to end.
    let assembled = metric_sum(
        &body,
        "dpc_request_duration_ns_count",
        &[("server", "proxy"), ("outcome", "assembled")],
    );
    let tiered = metric_sum(
        &body,
        "dpc_request_duration_ns_count",
        &[("server", "proxy"), ("outcome", "l2_hit")],
    );
    assert_eq!(
        assembled, 12.0,
        "one assembly per page, and one more after its update"
    );
    assert_eq!(tiered, 30.0, "every repeat serve is a tier hit");
    // The `_sum` is present but zero here: the testbed's virtual clock
    // only moves when a test advances it, and these serves complete
    // synchronously. (Nonzero, exact durations are pinned by the
    // dpc-http virtual-clock latency test.)
    assert!(
        metric_sum(
            &body,
            "dpc_request_duration_ns_sum",
            &[("server", "proxy"), ("outcome", "assembled")],
        ) >= 0.0
    );

    // A second scrape sees the scrape itself: counters moved, never back.
    let scrape2 = client
        .request(PROXY_ADDR, Request::get("/_dpc/metrics"))
        .unwrap();
    let body2 = std::str::from_utf8(&scrape2.body.to_vec())
        .unwrap()
        .to_owned();
    assert!(
        metric_sum(&body2, "dpc_proxy_requests_total", &[])
            > metric_sum(&body, "dpc_proxy_requests_total", &[]),
        "the scrape request itself is counted"
    );
}

#[test]
fn metrics_scrape_covers_the_whole_ring_and_serves_at_any_node() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let cluster = Arc::new(RingCluster::new(
        tb.net(),
        3,
        RingConfig {
            page_tier: true,
            ..RingConfig::default()
        },
    ));
    cluster.connect_origin(tb.engine().bem());
    let _front = cluster.spawn_front("obs-front");
    let client = Client::new(Arc::new(tb.net().connector()));
    for _ in 0..3 {
        for p in 0..12 {
            let resp = client.request("obs-front", Request::get(page(p))).unwrap();
            assert_eq!(resp.status.0, 200);
        }
    }
    // A join forces node-miss SETs at the newcomer.
    let newcomer = cluster.join();
    for p in 0..12 {
        let _ = client.request("obs-front", Request::get(page(p))).unwrap();
    }

    let scrape = client
        .request("obs-front", Request::get("/_dpc/metrics"))
        .unwrap();
    assert_eq!(scrape.status.0, 200);
    let body = std::str::from_utf8(&scrape.body.to_vec())
        .unwrap()
        .to_owned();

    // One scrape covers the fleet: per-node proxies, the shared page
    // tier, the origin BEM and its directory, and the front's own
    // request-latency histograms.
    for id in cluster.alive() {
        let node = id.to_string();
        assert!(
            metric_sum(
                &body,
                "dpc_proxy_requests_total",
                &[("node", node.as_str())]
            ) >= 0.0,
            "node {id} is scraped"
        );
    }
    // The joiner's first templates SET what it had not stored.
    assert!(metric_sum(&body, "dpc_directory_node_misses_total", &[]) > 0.0);
    assert!(metric_sum(&body, "dpc_page_hits_total", &[]) > 0.0);
    assert!(metric_sum(&body, "dpc_bem_fragments_total", &[]) > 0.0);
    assert!(
        metric_sum(
            &body,
            "dpc_server_requests_total",
            &[("server", "obs-front")]
        ) > 0.0
    );
    assert!(
        metric_sum(
            &body,
            "dpc_request_duration_ns_count",
            &[("server", "obs-front")],
        ) > 0.0
    );
    let sets = metric_sum(
        &body,
        "dpc_assembly_sets_total",
        &[("node", newcomer.to_string().as_str())],
    );
    assert!(
        sets > 0.0,
        "the joiner's node-miss SETs show under its label"
    );

    // The same registry serves at any node directly — no front required.
    let at_node = cluster
        .proxy(cluster.alive()[0])
        .unwrap()
        .serve(Request::get("/_dpc/metrics"));
    assert_eq!(at_node.status.0, 200);
    let node_body = std::str::from_utf8(&at_node.body.to_vec())
        .unwrap()
        .to_owned();
    assert!(metric_sum(&node_body, "dpc_directory_node_misses_total", &[]) > 0.0);

    // Departed nodes leave the scrape immediately.
    assert!(cluster.fail(newcomer));
    let scrape = client
        .request("obs-front", Request::get("/_dpc/metrics"))
        .unwrap();
    let body = std::str::from_utf8(&scrape.body.to_vec())
        .unwrap()
        .to_owned();
    assert!(
        !body.contains(&format!("node=\"{newcomer}\"")),
        "failed node must vanish from the exposition"
    );
}

#[test]
fn bem_counts_the_keys_a_refresh_names_after_a_late_scrub() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let cluster = Arc::new(RingCluster::new(tb.net(), 3, RingConfig::default()));
    cluster.connect_origin(tb.engine().bem());
    // The updated fragment is regenerated for its owner in a template
    // that is held back: its SET is late, so the owner's slot keeps the
    // previous generation behind the owner's stored bit.
    let p = (0..12)
        .find(|p| cluster.owner_of(&page(*p)) != Some(0))
        .unwrap();
    let owner = cluster.owner_of(&page(p)).unwrap();
    let scrape = |name: &str| {
        let resp = cluster.serve(Request::get("/_dpc/metrics"));
        let body = std::str::from_utf8(&resp.body.to_vec()).unwrap().to_owned();
        metric_sum(&body, name, &[])
    };
    let _ = cluster.get(&page(p), None);
    paper_site::invalidate_fragment(tb.engine().repo(), p, 0);
    let late = Request::get(page(p)).with_header(NODE_HEADER, owner.to_string());
    assert_eq!(tb.engine().serve(&late).status.0, 200);
    assert_eq!(scrape("dpc_bem_missing_keys_total"), 0.0);
    assert_eq!(scrape("dpc_proxy_refresh_refetches_total"), 0.0);

    for _ in 0..3 {
        let resp = cluster.get(&page(p), None);
        assert_eq!(resp.headers.get("X-Cache"), Some("dpc-assembled"));
    }
    // The first serve refreshed once, naming the one late key.
    assert_eq!(scrape("dpc_bem_missing_keys_total"), 1.0);
    assert_eq!(scrape("dpc_proxy_refresh_refetches_total"), 1.0);
    assert_eq!(scrape("dpc_proxy_bypass_refetches_total"), 0.0);
}

/// The exported poller pin on real hardware: a default server's
/// plain-TCP workload — accepts, keep-alive requests, an idle stretch
/// spanning dozens of fallback periods — scrapes as
/// `dpc_poll_tick_waits_total == 0` on every loop, because each loop's
/// TCP sources attach epoll, the kernel pushes readiness and the 1 ms
/// polled tick is never armed.
#[cfg(target_os = "linux")]
#[test]
fn tcp_workload_under_os_backend_scrapes_zero_tick_waits() {
    use dpc_http::{Handler, Server};
    use dpc_metrics::Registry;
    use dpc_net::TcpListenerAdapter;
    use std::io::Write;

    let handler: Arc<dyn Handler> = Arc::new(|req: Request| Response::html(req.target));
    let listener = TcpListenerAdapter::bind("127.0.0.1:0").unwrap();
    let handle = Server::new(Box::new(listener), handler)
        .with_loops(2)
        .spawn();
    let registry = Registry::new();
    dpc_proxy::metrics::register_server(&registry, "srv", "tcp-front", handle.stats());

    let mut conns = Vec::new();
    for i in 0..16 {
        let conn = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut reader = std::io::BufReader::new(conn);
        write!(reader.get_mut(), "GET /r{i} HTTP/1.1\r\n\r\n").unwrap();
        let resp = dpc_http::parse::read_response(&mut reader).unwrap();
        assert_eq!(resp.status.0, 200);
        conns.push(reader);
    }
    // Dozens of fallback periods with nothing to do: a polled source
    // would tick here; the kernel-parked loops must not.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let reader = &mut conns[3];
    write!(reader.get_mut(), "GET /after-idle HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(
        dpc_http::parse::read_response(reader).unwrap().status.0,
        200
    );

    let body = registry.render();
    assert_eq!(
        metric_sum(
            &body,
            "dpc_poll_tick_waits_total",
            &[("server", "tcp-front")]
        ),
        0.0,
        "epoll-backed TCP loops must never arm the fallback tick"
    );
    assert!(
        metric_sum(
            &body,
            "dpc_server_requests_total",
            &[("server", "tcp-front")]
        ) >= 17.0
    );
}

#[test]
fn purge_by_dependency_reports_freed_keys_and_unserves_the_tier() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..TestbedConfig::default()
    });
    let client = Client::new(Arc::new(tb.net().connector()));
    // Warm page 5 into the page tier.
    for _ in 0..3 {
        let resp = client.request(PROXY_ADDR, Request::get(page(5))).unwrap();
        assert_eq!(resp.status.0, 200);
    }
    let before = client
        .request(PROXY_ADDR, Request::get(page(5)))
        .unwrap()
        .body
        .to_vec();

    // Content changes behind the cache (seed does not fire the update
    // bus, so the admin purge is the only invalidation path here).
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

    let mut purge = traced_get("/paper/page.jsp?p=5");
    purge.method = Method::Purge;
    purge.headers.set("X-DPC-Dep", format!("paper/{frag_key}"));
    let resp = client.request(PROXY_ADDR, purge).unwrap();
    assert_eq!(resp.status.0, 200);
    assert_eq!(resp.headers.get("X-DPC-Purged-Keys"), Some("1"));
    assert_eq!(resp.body.to_vec(), b"purged 1 keys");
    assert_eq!(trace_kv(&resp)["tier"], "purge");

    // The freed fragment regenerates AND the stamped page-tier entry
    // self-evicts via the epoch bump — no stale replay.
    let after = client
        .request(PROXY_ADDR, Request::get(page(5)))
        .unwrap()
        .body
        .to_vec();
    assert_ne!(after, before, "post-purge serve must regenerate");

    // Without the dependency header a PURGE of an uncached target still
    // 404s — the admin path did not swallow the classic purge.
    let mut bare = Request::get("/never-seen");
    bare.method = Method::Purge;
    let resp = client.request(PROXY_ADDR, bare).unwrap();
    assert_eq!(resp.status.0, 404);
}

#[test]
fn ring_purge_by_dependency_scrubs_every_node() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let cluster = Arc::new(RingCluster::new(tb.net(), 4, RingConfig::default()));
    let _front = cluster.spawn_front("purge-front");
    let client = Client::new(Arc::new(tb.net().connector()));
    for p in 0..12 {
        let _ = client
            .request("purge-front", Request::get(page(p)))
            .unwrap();
    }
    let before = cluster.get(&page(5), None).body.to_vec();
    // Every node holds the fragment's slot once it has served page 5.
    for id in cluster.alive() {
        let _ = cluster.proxy(id).unwrap().serve(Request::get(page(5)));
    }
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

    // Purge before connect_origin is a clean 501, not a silent no-op.
    let mut purge = Request::get(page(5));
    purge.method = Method::Purge;
    purge.headers.set("X-DPC-Dep", format!("paper/{frag_key}"));
    let resp = client.request("purge-front", purge.clone()).unwrap();
    assert_eq!(resp.status.0, 501);

    cluster.connect_origin(tb.engine().bem());
    let resp = client.request("purge-front", purge).unwrap();
    assert_eq!(resp.status.0, 200);
    assert_eq!(resp.headers.get("X-DPC-Purged-Keys"), Some("1"));
    assert_eq!(resp.headers.get("X-Cache"), Some("purged"));

    // The purge freed the key before answering: no node can serve the
    // stale bytes, though each still holds them.
    for id in cluster.alive() {
        let resp = cluster.proxy(id).unwrap().serve(Request::get(page(5)));
        assert_eq!(resp.status.0, 200);
        assert_ne!(resp.body.to_vec(), before, "node {id} served stale bytes");
    }
}
