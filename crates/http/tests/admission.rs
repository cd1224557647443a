//! Write-side admission control and multi-loop lifecycle tests.
//!
//! The two-level output budget (per-connection cap + global budget) and
//! slow-client eviction exist so a reader that never drains cannot balloon
//! server memory; the `LoopSet` exists so the front scales across cores.
//! These tests pin the externally observable contracts: a never-draining
//! pipelining client is evicted with bounded server memory while other
//! connections are unaffected, and `stop()` with several loops full of
//! active connections joins deterministically without losing in-flight
//! responses.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpc_http::{Client, Handler, Request, Response, Server};
use dpc_net::{Connector, MeterRegistry, ProtocolModel, SimNetwork};

/// A handler serving a fixed 8 KiB page.
fn page_handler() -> Arc<dyn Handler> {
    static PAGE: &[u8] = &[b'p'; 8 * 1024];
    Arc::new(|_req: Request| Response::html(PAGE))
}

#[test]
fn never_draining_pipeliner_is_evicted_with_bounded_memory() {
    // Small transport buffers so the server's writes actually block (on
    // the default unbounded pipes everything would "flush" instantly and
    // no backlog could build).
    let net = SimNetwork::with_stream_capacity(
        MeterRegistry::new(),
        ProtocolModel::default(),
        Some(2048),
    );
    let listener = net.listen("web");
    const CONN_CAP: usize = 16 * 1024;
    const GLOBAL_CAP: usize = 1 << 20;
    let handle = Server::new(Box::new(listener), page_handler())
        .with_output_caps(CONN_CAP, GLOBAL_CAP)
        .spawn();

    // The abuser pipelines requests forever and never reads a byte of the
    // responses. Each response is 8 KiB, the connection cap 16 KiB: the
    // backlog crosses the cap after a couple of requests, further sends
    // earn strikes, and the server cuts the connection.
    let mut abuser = net.connector().connect("web").unwrap();
    let mut evicted = false;
    for i in 0..100_000 {
        let req = format!("GET /a{i} HTTP/1.1\r\n\r\n");
        if abuser.write_all(req.as_bytes()).is_err() {
            evicted = true;
            break;
        }
    }
    assert!(evicted, "a never-draining pipeliner must be cut off");
    assert_eq!(handle.evictions(), 1);
    // Bounded memory: the queued output the abuser left behind was
    // discarded and credited back; what remains is far below the global
    // budget (zero, since no other connection is in flight).
    assert!(
        handle.output_buffered() < CONN_CAP as u64,
        "evicted connection must not keep charging the budget (buffered {})",
        handle.output_buffered()
    );

    // Other connections are unaffected by the eviction.
    let client = Client::new(Arc::new(net.connector()));
    for i in 0..5 {
        let resp = client
            .request("web", Request::get(format!("/ok{i}")))
            .unwrap();
        assert_eq!(resp.status.0, 200);
        assert_eq!(resp.body.len(), 8 * 1024);
    }
    assert_eq!(
        handle.evictions(),
        1,
        "well-behaved clients are never evicted"
    );
}

#[test]
fn slow_but_draining_client_is_not_evicted() {
    let net = SimNetwork::with_stream_capacity(
        MeterRegistry::new(),
        ProtocolModel::default(),
        Some(1024),
    );
    let listener = net.listen("web");
    let handle = Server::new(Box::new(listener), page_handler())
        .with_output_caps(4 * 1024, 1 << 20)
        .spawn();
    // Pipeline a burst that far exceeds the 4 KiB connection cap, but keep
    // reading: flush progress must reset the strikes, so the client gets
    // every response and is never evicted.
    let mut raw = net.connector().connect("web").unwrap();
    const REQS: usize = 10;
    let burst: String = (0..REQS)
        .map(|i| format!("GET /s{i} HTTP/1.1\r\n\r\n"))
        .collect();
    raw.write_all(burst.as_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(raw);
    for i in 0..REQS {
        let resp = dpc_http::parse::read_response(&mut reader).unwrap();
        assert_eq!(resp.body.len(), 8 * 1024, "response {i}");
    }
    assert_eq!(handle.evictions(), 0);
    assert_eq!(handle.requests(), REQS as u64);
}

#[test]
fn global_budget_sheds_load_but_serves_drainers() {
    // Several abusers hold output hostage while one good client drains:
    // the global budget plus per-connection strikes evict the abusers, the
    // drainer is served, and buffered output returns to ~0.
    let net = SimNetwork::with_stream_capacity(
        MeterRegistry::new(),
        ProtocolModel::default(),
        Some(2048),
    );
    let listener = net.listen("web");
    const GLOBAL_CAP: usize = 32 * 1024;
    let handle = Server::new(Box::new(listener), page_handler())
        .with_output_caps(usize::MAX >> 1, GLOBAL_CAP) // only the global cap binds
        .spawn();
    let mut abusers: Vec<_> = (0..4)
        .map(|a| Some((a, net.connector().connect("web").unwrap())))
        .collect::<Vec<_>>();
    for i in 0..100_000 {
        let mut any_alive = false;
        for slot in abusers.iter_mut() {
            let Some((a, abuser)) = slot else { continue };
            let req = format!("GET /g{a}x{i} HTTP/1.1\r\n\r\n");
            if abuser.write_all(req.as_bytes()).is_err() {
                *slot = None; // evicted: stop writing to this one
            } else {
                any_alive = true;
            }
        }
        if !any_alive {
            break;
        }
    }
    assert_eq!(handle.evictions(), 4, "global pressure must evict abusers");
    // The well-behaved client still gets full responses afterwards.
    let client = Client::new(Arc::new(net.connector()));
    let resp = client.request("web", Request::get("/after")).unwrap();
    assert_eq!(resp.body.len(), 8 * 1024);
    // With every abuser evicted and the good client drained, the queued
    // output they held was discarded and credited back.
    assert!(
        handle.output_buffered() < GLOBAL_CAP as u64,
        "buffered output must fall back under the global budget (got {})",
        handle.output_buffered()
    );
}

#[test]
fn four_loop_stop_joins_deterministically_without_losing_responses() {
    const LOOPS: usize = 4;
    const CLIENTS: usize = 8;
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let started = Arc::new(AtomicUsize::new(0));
    let started_h = Arc::clone(&started);
    let handle = Server::new(
        Box::new(listener),
        Arc::new(move |req: Request| {
            started_h.fetch_add(1, Ordering::SeqCst);
            // Long enough that stop() lands while the last of these run.
            std::thread::sleep(Duration::from_millis(50));
            Response::html(format!("done {}", req.target))
        }),
    )
    .with_loops(LOOPS)
    .spawn();
    assert_eq!(handle.loops(), LOOPS);

    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let conn = net.connector();
        joins.push(std::thread::spawn(move || {
            let mut raw = conn.connect("web").unwrap();
            write!(raw, "GET /c{c} HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = std::io::BufReader::new(raw);
            let resp = dpc_http::parse::read_response(&mut reader).expect("in-flight response");
            assert_eq!(resp.body, format!("done /c{c}").into_bytes());
            // After the drained response the server closes: clean EOF.
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty());
        }));
    }
    // Wait until every request has reached its handler (two after one
    // another on each of the 4 loops).
    while started.load(Ordering::SeqCst) < CLIENTS {
        std::thread::sleep(Duration::from_millis(1));
    }
    let live = handle.live_per_loop();
    assert_eq!(live.iter().sum::<u64>(), CLIENTS as u64);
    assert!(
        live.iter().all(|&l| l == (CLIENTS / LOOPS) as u64),
        "least-connections placement must balance: {live:?}"
    );
    // Stop with every connection active: the drop must join all loops
    // deterministically and every in-flight response must still arrive.
    let start = Instant::now();
    drop(handle);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "multi-loop stop must join deterministically"
    );
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn multi_loop_inline_mode_serves() {
    // Inline handlers compose with loops > 1: each loop runs its
    // handlers on its own thread.
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(
        Box::new(listener),
        Arc::new(|req: Request| Response::html(req.target.to_string())),
    )
    .with_loops(2)
    .spawn();
    let mut joins = Vec::new();
    for t in 0..4 {
        let conn = net.connector();
        joins.push(std::thread::spawn(move || {
            let client = Client::new(Arc::new(conn));
            for i in 0..10 {
                let resp = client
                    .request("web", Request::get(format!("/t{t}/{i}")))
                    .unwrap();
                assert_eq!(resp.body, format!("/t{t}/{i}").into_bytes());
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(handle.requests(), 40);
    // Cumulative per-loop placement (the clients have disconnected, so the
    // live gauge is back to zero): 4 connections spread 2 + 2.
    let placed: Vec<u64> = handle
        .stats()
        .per_loop()
        .iter()
        .map(|l| l.connections.load(Ordering::Relaxed))
        .collect();
    assert_eq!(placed, vec![2, 2]);
}
