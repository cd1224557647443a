//! End-to-end distributed span tracing over the simulated wire.
//!
//! * Stitching — one request entering the ring's HTTP front and resolving
//!   through the owner node's page tier and assembly and the origin's
//!   directory reads back as a *single* trace: every span carries the
//!   root's trace id, every parent link resolves inside the trace, and the
//!   keep-list serves it from `GET /_dpc/trace/recent` at the entry node.
//! * Durations — spans are timestamped from `dpc_net::Clock`, so a
//!   virtual-clock advance inside a page fill pins exact span and
//!   retention durations.
//! * Flash crowd — concurrent requests coalescing on one page flight
//!   record a leader span and waiter spans whose `detail` names the
//!   leader's span id, across their distinct traces.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dpc_appserver::apps::paper_site::PaperSiteParams;
use dpc_core::fnv1a;
use dpc_http::{Client, Request};
use dpc_net::Clock;
use dpc_proxy::page_cache::{PageCache, PageServe};
use dpc_proxy::testbed::{Testbed, TestbedConfig};
use dpc_proxy::{ProxyMode, RingCluster, RingConfig};
use dpc_trace::{enter_ctx, Layer, RetainReason, SpanStatus, TraceConfig, Tracer};

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

#[test]
fn one_request_stitches_front_owner_and_origin_into_one_trace() {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let cluster = Arc::new(RingCluster::new(
        tb.net(),
        3,
        RingConfig {
            // Page tiers on every node so the trace crosses them; retain
            // every trace (the virtual clock never moves, so the slow
            // threshold alone would retain nothing).
            page_tier: true,
            trace: TraceConfig {
                sample_one_in: 1,
                ..TraceConfig::default()
            },
            ..RingConfig::default()
        },
    ));
    cluster.connect_origin(tb.engine().bem());
    let _front = cluster.spawn_front("trace-front");
    let client = Client::new(Arc::new(tb.net().connector()));

    // Warm every node's share. The front caches nothing itself, so the
    // post-join serve goes to the new owner.
    for _ in 0..2 {
        for p in 0..12 {
            let resp = client
                .request("trace-front", Request::get(page(p)))
                .unwrap();
            assert_eq!(resp.status.0, 200);
        }
    }
    let newcomer = cluster.join();
    let taken: Vec<usize> = (0..12)
        .filter(|p| cluster.owner_of(&page(*p)) == Some(newcomer))
        .collect();
    assert!(!taken.is_empty(), "newcomer owns some of 12 pages");

    let req = Request::get(page(taken[0])).with_header("X-DPC-Trace", "1");
    let resp = client.request("trace-front", req).unwrap();
    assert_eq!(resp.status.0, 200);
    assert_eq!(resp.headers.get("X-Cache"), Some("dpc-assembled"));
    let journey = resp.headers.get("X-DPC-Trace").unwrap();
    let id_hex = journey
        .strip_prefix("id=")
        .and_then(|rest| rest.split(' ').next())
        .expect("journey leads with id=<hex>");
    let trace_id = u64::from_str_radix(id_hex, 16).unwrap();

    let rec = cluster
        .tracer()
        .recorder()
        .expect("ring tracing defaults on");
    let spans = rec.spans_of(trace_id);

    // The origin records its legs in its own recorder, under the same
    // trace id.
    let origin = tb
        .proxy()
        .tracer()
        .recorder()
        .expect("testbed tracing defaults on")
        .spans_of(trace_id);

    // Exactly one root — the front's HTTP span — and every other span's
    // parent resolves inside the trace, across both recorders.
    let all: Vec<_> = spans.iter().chain(&origin).collect();
    let roots: Vec<_> = all.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one trace, one root: {all:?}");
    assert_eq!(roots[0].layer, Layer::Http);
    assert_eq!(roots[0].node, 0, "the front records as node 0");
    let ids: HashSet<u64> = all.iter().map(|s| s.span_id).collect();
    for s in &all {
        assert!(
            s.parent_id == 0 || ids.contains(&s.parent_id),
            "span {s:?} parents outside its own trace"
        );
    }

    // The journey crosses every serving layer: the owner's page-tier
    // probe and assembly…
    for layer in [Layer::TierL2, Layer::Assembly] {
        assert!(
            spans.iter().any(|s| s.layer == layer && s.node == newcomer),
            "the owner records a {layer:?} span"
        );
    }
    // …and, at the origin, directory lookups that parent under the
    // owner's leg. The joiner has stored none of the page's fragments, so
    // each lookup is a node miss.
    let owner_ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert!(
        origin.iter().any(|s| owner_ids.contains(&s.parent_id)),
        "the origin leg parents under the owner: {origin:?}"
    );
    let lookups: Vec<_> = origin
        .iter()
        .filter(|s| s.layer == Layer::Directory)
        .collect();
    assert!(!lookups.is_empty(), "the origin records its lookups");
    assert!(
        lookups.iter().all(|s| s.status == SpanStatus::Miss),
        "the joiner's first template SETs every fragment: {lookups:?}"
    );

    // The entry node serves the retained trace as JSON.
    let recent = client
        .request("trace-front", Request::get("/_dpc/trace/recent"))
        .unwrap();
    assert_eq!(recent.status.0, 200);
    assert_eq!(recent.headers.get("Content-Type"), Some("application/json"));
    let body = std::str::from_utf8(&recent.body.to_vec())
        .unwrap()
        .to_owned();
    assert!(
        body.contains(&format!("\"trace_id\":\"{trace_id:016x}\"")),
        "the stitched trace is in the keep-list"
    );
    assert!(body.contains("\"layer\":\"assembly\""));
}

#[test]
fn spans_pin_exact_virtual_clock_durations_and_slow_retention() {
    let (clock, vclock) = Clock::virtual_clock();
    let tracer = Tracer::from_config(
        TraceConfig {
            slow_threshold_nanos: 5_000,
            ..TraceConfig::default()
        },
        clock.clone(),
    );
    let rec = Arc::clone(tracer.recorder().unwrap());
    let cache = PageCache::new(clock, Duration::from_secs(60), 16);
    cache.set_tracer(tracer.clone());

    // A miss whose fill takes exactly 7 µs of virtual time.
    let ctx = tracer.begin_request(Layer::Http, None).unwrap();
    {
        let _enter = enter_ctx(Some(ctx));
        let vclock = Arc::clone(&vclock);
        let serve = cache.get_or_fill("/pinned", move || {
            vclock.advance(Duration::from_nanos(7_000));
            Some((Bytes::from_static(b"page"), "text/html".to_owned()))
        });
        assert!(matches!(serve, PageServe::Led));
    }
    tracer.finish_root(ctx, SpanStatus::Ok);

    let spans = rec.spans_of(ctx.trace_id);
    let probe = spans
        .iter()
        .find(|s| s.layer == Layer::TierL2 && s.status == SpanStatus::Miss)
        .expect("miss probe span");
    let flight = spans
        .iter()
        .find(|s| s.layer == Layer::Flight && s.status == SpanStatus::Leader)
        .expect("leader flight span");
    let root = spans.iter().find(|s| s.layer == Layer::Http).unwrap();
    // The probe closed before the fill; the clock moved only inside it.
    assert_eq!(probe.duration_nanos(), 0);
    assert_eq!(flight.duration_nanos(), 7_000);
    assert_eq!(root.duration_nanos(), 7_000);
    assert_eq!(flight.parent_id, root.span_id);

    // 7 µs > the 5 µs threshold: retained as slow, with the exact
    // duration.
    let recent = rec.recent();
    assert_eq!(recent.len(), 1);
    assert_eq!(recent[0].trace_id, ctx.trace_id);
    assert_eq!(recent[0].reason, RetainReason::Slow);
    assert_eq!(recent[0].duration_nanos, 7_000);

    // The repeat is a hit: zero-duration probe span, fast trace, not
    // retained.
    let ctx = tracer.begin_request(Layer::Http, None).unwrap();
    {
        let _enter = enter_ctx(Some(ctx));
        let serve = cache.get_or_fill("/pinned", || panic!("hit must not fill"));
        assert!(matches!(serve, PageServe::Hit(_, _)));
    }
    tracer.finish_root(ctx, SpanStatus::Ok);
    let spans = rec.spans_of(ctx.trace_id);
    let hit = spans
        .iter()
        .find(|s| s.layer == Layer::TierL2 && s.status == SpanStatus::Hit)
        .expect("hit probe span");
    assert_eq!(hit.duration_nanos(), 0);
    assert_eq!(rec.recent().len(), 1, "a fast healthy trace is not kept");
}

#[test]
fn flash_crowd_waiter_spans_name_the_leaders_flight_span() {
    const CROWD: usize = 4;
    let (clock, _vclock) = Clock::virtual_clock();
    let tracer = Tracer::from_config(TraceConfig::default(), clock.clone());
    let rec = Arc::clone(tracer.recorder().unwrap());
    let cache = Arc::new(PageCache::new(clock, Duration::from_secs(60), 16));
    cache.set_tracer(tracer.clone());
    let fills = Arc::new(AtomicU64::new(0));

    // Each crowd member is its own request: distinct traces, one flight.
    let leader_ctx = tracer.begin_request(Layer::Http, None).unwrap();
    let waiter_ctxs: Vec<_> = (0..CROWD - 1)
        .map(|_| tracer.begin_request(Layer::Http, None).unwrap())
        .collect();

    // Leader: the fill blocks until the rest of the crowd has parked.
    let leader = {
        let cache = Arc::clone(&cache);
        let fills = Arc::clone(&fills);
        std::thread::spawn(move || {
            let _ctx = enter_ctx(Some(leader_ctx));
            let gate = Arc::clone(&cache);
            cache.get_or_fill("/hot", move || {
                fills.fetch_add(1, Ordering::Relaxed);
                let ident = fnv1a(b"/hot");
                let start = std::time::Instant::now();
                while gate.flight().parked_waiters(ident) < (CROWD - 1) as u32 {
                    assert!(
                        start.elapsed() < Duration::from_secs(30),
                        "crowd never parked"
                    );
                    std::thread::yield_now();
                }
                Some((Bytes::from_static(b"hot-page"), "t".to_owned()))
            })
        })
    };
    let crowd: Vec<_> = waiter_ctxs
        .iter()
        .map(|ctx| {
            let cache = Arc::clone(&cache);
            let fills = Arc::clone(&fills);
            let ctx = *ctx;
            std::thread::spawn(move || {
                let _ctx = enter_ctx(Some(ctx));
                let ident = fnv1a(b"/hot");
                let start = std::time::Instant::now();
                while !cache.flight().in_flight(ident) {
                    assert!(
                        start.elapsed() < Duration::from_secs(30),
                        "flight never began"
                    );
                    std::thread::yield_now();
                }
                cache.get_or_fill("/hot", move || {
                    fills.fetch_add(1, Ordering::Relaxed);
                    Some((Bytes::from_static(b"hot-page"), "t".to_owned()))
                })
            })
        })
        .collect();

    assert!(matches!(leader.join().unwrap(), PageServe::Led));
    for t in crowd {
        match t.join().unwrap() {
            PageServe::Coalesced(body, _) => assert_eq!(&body[..], b"hot-page"),
            other => panic!("expected coalesced serve, got {other:?}"),
        }
    }
    assert_eq!(fills.load(Ordering::Relaxed), 1, "one fill for the crowd");
    tracer.finish_root(leader_ctx, SpanStatus::Ok);
    for ctx in &waiter_ctxs {
        tracer.finish_root(*ctx, SpanStatus::Ok);
    }

    let leader_spans = rec.spans_of(leader_ctx.trace_id);
    let lead_flight = leader_spans
        .iter()
        .find(|s| s.layer == Layer::Flight && s.status == SpanStatus::Leader)
        .expect("leader records its flight span");
    assert_eq!(lead_flight.parent_id, leader_ctx.span_id);
    for ctx in &waiter_ctxs {
        let spans = rec.spans_of(ctx.trace_id);
        let wait = spans
            .iter()
            .find(|s| s.layer == Layer::Flight && s.status == SpanStatus::Waiter)
            .expect("each waiter records its flight span");
        assert_eq!(
            wait.parent_id, ctx.span_id,
            "waiter parents under its own root"
        );
        assert_eq!(
            wait.detail, lead_flight.span_id,
            "a waiter span names the leader span it coalesced behind"
        );
    }
}
