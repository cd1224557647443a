//! Integration tests for the readiness-driven server's connection state
//! machine: slow-loris partial heads, pipelined requests, partial-write
//! resumption under backpressure, and the headline scaling property —
//! idle keep-alive connections cost registrations, not threads.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use dpc_http::{Body, Client, Handler, Request, Response, Server};
use dpc_net::{Connector, MeterRegistry, ProtocolModel, SimNetwork};

fn echo_handler() -> Arc<dyn Handler> {
    Arc::new(|req: Request| Response::html(format!("{} {}", req.method, req.target)))
}

/// Threads of this process per `/proc/self/status` (Linux); `None` where
/// unavailable.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn slow_loris_partial_headers_do_not_stall_other_clients() {
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(Box::new(listener), echo_handler()).spawn();

    // The loris dribbles a request head byte-group by byte-group with
    // pauses, never completing for a while.
    let mut loris = net.connector().connect("web").unwrap();
    let head = b"GET /slow HTTP/1.1\r\nHost: a\r\nX-Pad: 0123456789\r\n\r\n";
    let (dribble, rest) = head.split_at(20);
    for chunk in dribble.chunks(3) {
        loris.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // Meanwhile, fast clients are served promptly: the loris holds a
        // buffer on the event loop, not the loop itself.
        let client = Client::new(Arc::new(net.connector()));
        let resp = client.request("web", Request::get("/fast")).unwrap();
        assert_eq!(resp.body, *b"GET /fast");
    }
    // The loris finally completes and still gets its answer.
    loris.write_all(rest).unwrap();
    let mut reader = std::io::BufReader::new(loris);
    let resp = dpc_http::parse::read_response(&mut reader).unwrap();
    assert_eq!(resp.body, *b"GET /slow");
    assert!(handle.requests() >= 8);
}

#[test]
fn oversized_header_line_is_rejected_not_buffered_forever() {
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let _handle = Server::new(Box::new(listener), echo_handler()).spawn();
    let mut raw = net.connector().connect("web").unwrap();
    // A loris that never sends a newline: the parser caps the head size and
    // answers 400 instead of buffering without bound.
    let blob = vec![b'a'; 70 * 1024];
    raw.write_all(b"GET /x HTTP/1.1\r\nX-Big: ").unwrap();
    let _ = raw.write_all(&blob); // may fail once the server closes: fine
    let mut out = Vec::new();
    raw.read_to_end(&mut out).unwrap();
    let s = String::from_utf8_lossy(&out);
    assert!(s.starts_with("HTTP/1.1 400"), "got {s:.60}");
}

#[test]
fn nul_in_the_target_or_a_header_value_is_answered_400() {
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(Box::new(listener), echo_handler()).spawn();
    for head in [
        &b"GET /paper/page.jsp?p=0\0x HTTP/1.1\r\n\r\n"[..],
        b"GET /paper/page.jsp?p=0 HTTP/1.1\r\nCookie: session=\0\r\n\r\n",
    ] {
        let mut raw = net.connector().connect("web").unwrap();
        raw.write_all(head).unwrap();
        let mut out = Vec::new();
        raw.read_to_end(&mut out).unwrap();
        let s = String::from_utf8_lossy(&out);
        assert!(s.starts_with("HTTP/1.1 400"), "got {s:.60}");
    }
    assert_eq!((handle.requests(), handle.parse_errors()), (0, 2));
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(Box::new(listener), echo_handler()).spawn();
    let mut raw = net.connector().connect("web").unwrap();
    // Three requests in a single write, including a POST with a body.
    let burst = b"GET /one HTTP/1.1\r\n\r\n\
                  POST /two HTTP/1.1\r\nContent-Length: 7\r\n\r\npayload\
                  GET /three HTTP/1.1\r\nConnection: close\r\n\r\n";
    raw.write_all(burst).unwrap();
    let mut reader = std::io::BufReader::new(raw);
    let r1 = dpc_http::parse::read_response(&mut reader).unwrap();
    let r2 = dpc_http::parse::read_response(&mut reader).unwrap();
    let r3 = dpc_http::parse::read_response(&mut reader).unwrap();
    assert_eq!(r1.body, *b"GET /one");
    assert_eq!(r2.body, *b"POST /two");
    assert_eq!(r3.body, *b"GET /three");
    // `Connection: close` on the last one closes the stream.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(handle.connections(), 1);
    assert_eq!(handle.requests(), 3);
}

#[test]
fn mid_body_partial_writes_resume_under_backpressure() {
    // 1 KiB of send buffer per direction: a 256 KiB response forces the
    // server through hundreds of WouldBlock → writable-event resumptions.
    let net = SimNetwork::with_stream_capacity(
        MeterRegistry::new(),
        ProtocolModel::default(),
        Some(1024),
    );
    let listener = net.listen("web");
    let big = vec![b'z'; 256 * 1024];
    let big_for_handler = big.clone();
    let _handle = Server::new(
        Box::new(listener),
        Arc::new(move |_req: Request| {
            // A rope body, so the resumption also walks segment boundaries.
            let half = big_for_handler.len() / 2;
            let mut resp = Response::html("");
            resp.body = Body::Rope(vec![
                bytes::Bytes::from(big_for_handler[..half].to_vec()),
                bytes::Bytes::from(big_for_handler[half..].to_vec()),
            ]);
            resp
        }),
    )
    .spawn();
    let mut raw = net.connector().connect("web").unwrap();
    raw.write_all(b"GET /big HTTP/1.1\r\n\r\n").unwrap();
    // Read deliberately slowly in small chunks; the server must keep
    // resuming its flush as space frees.
    let mut reader = std::io::BufReader::new(raw);
    let resp = dpc_http::parse::read_response(&mut reader).unwrap();
    assert_eq!(resp.body.len(), big.len());
    assert_eq!(resp.body, big);
}

#[test]
fn large_chunked_post_is_framed_once_not_reparsed_per_chunk() {
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let _handle = Server::new(
        Box::new(listener),
        Arc::new(|req: Request| Response::html(format!("got {}", req.body.len()))),
    )
    .spawn();
    // An 8 MiB upload delivered in 16 KiB chunks: ~512 readable events.
    // The framing gate must wait for the declared Content-Length instead
    // of re-running the parser (and re-allocating the body) per event —
    // that quadratic regime would take minutes here, not milliseconds.
    let body = vec![b'b'; 8 * 1024 * 1024];
    let mut raw = net.connector().connect("web").unwrap();
    let start = std::time::Instant::now();
    write!(
        raw,
        "POST /up HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    for chunk in body.chunks(16 * 1024) {
        raw.write_all(chunk).unwrap();
    }
    let mut reader = std::io::BufReader::new(raw);
    let resp = dpc_http::parse::read_response(&mut reader).unwrap();
    assert_eq!(resp.body, format!("got {}", body.len()).into_bytes());
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "chunked upload took {:?} — framing gate regressed to per-chunk reparse?",
        start.elapsed()
    );
}

#[test]
fn large_body_in_one_write_is_read_past_the_initial_budget() {
    // A 200 KiB POST serialized as ONE transport write (exactly what the
    // pooling client does): only a single readiness event is ever pushed,
    // so the server must re-read under the enlarged budget after framing
    // the head — returning to wait for another event would deadlock.
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let _handle = Server::new(
        Box::new(listener),
        Arc::new(|req: Request| Response::html(format!("got {}", req.body.len()))),
    )
    .spawn();
    let client = Client::new(Arc::new(net.connector()));
    let body = vec![b'p'; 200 * 1024];
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        let resp = client
            .request("web", Request::post("/up", body))
            .expect("response");
        tx.send(resp).unwrap();
    });
    let resp = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server stalled on a large single-write body");
    assert_eq!(resp.body, format!("got {}", 200 * 1024).into_bytes());
    t.join().unwrap();
}

#[test]
fn pipelined_burst_larger_than_read_budget_is_fully_served() {
    // 300 pipelined requests (~6 KiB each of response) written in one
    // burst, exceeding the per-connection read budget: the server must
    // park the excess in the transport and resume as it drains.
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(Box::new(listener), echo_handler()).spawn();
    let mut burst = Vec::new();
    for i in 0..300 {
        let pad = "x".repeat(256);
        write!(burst, "GET /burst{i}?pad={pad} HTTP/1.1\r\n\r\n").unwrap();
    }
    let mut raw = net.connector().connect("web").unwrap();
    raw.write_all(&burst).unwrap();
    let mut reader = std::io::BufReader::new(raw);
    for i in 0..300 {
        let resp = dpc_http::parse::read_response(&mut reader).unwrap();
        let flat = resp.body.flatten();
        let got = String::from_utf8_lossy(&flat);
        assert!(
            got.starts_with(&format!("GET /burst{i}?")),
            "response {i}: {got:.40}"
        );
    }
    assert_eq!(handle.requests(), 300);
}

#[test]
fn thousand_idle_keep_alive_connections_stay_thread_bounded() {
    const CONNS: usize = 1000;
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(Box::new(listener), echo_handler()).spawn();
    let before = process_threads();
    // Open 1000 keep-alive connections; each proves liveness with one
    // request, then sits idle (registered with the poller).
    let connector = net.connector();
    let mut idle = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut conn = connector.connect("web").unwrap();
        write!(conn, "GET /warm{i} HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(conn);
        let resp = dpc_http::parse::read_response(&mut reader).unwrap();
        assert_eq!(resp.body, format!("GET /warm{i}").into_bytes());
        idle.push(reader);
    }
    assert_eq!(handle.connections(), CONNS as u64);
    // The headline property: connections are poller registrations, not
    // threads. Allow generous slack for the test harness's own threads.
    if let (Some(before), Some(after)) = (before, process_threads()) {
        assert!(
            after <= before + 8,
            "thread count grew from {before} to {after} with {CONNS} idle connections"
        );
    }
    // All 1000 are still live: a request on an arbitrary idle connection
    // round-trips.
    let reader = &mut idle[CONNS / 2];
    write!(reader.get_mut(), "GET /still-alive HTTP/1.1\r\n\r\n").unwrap();
    let resp = dpc_http::parse::read_response(reader).unwrap();
    assert_eq!(resp.body, *b"GET /still-alive");
    assert_eq!(handle.requests(), CONNS as u64 + 1);
}

/// "Push-only pollers never arm the tick", for real TCP: a default server
/// on Linux — accepts, requests, and an idle stretch long past the 1 ms
/// fallback period — finishes with zero fallback-tick waits, because its
/// loop attached epoll when the listener registered and the kernel pushes
/// readiness. That the counter does move for polled sources is pinned by
/// `poll.rs`'s `polled_sources_resurface_every_tick` and
/// `push_only_poller_never_arms_the_tick`.
#[cfg(target_os = "linux")]
#[test]
fn tcp_workload_under_os_backend_never_ticks() {
    use dpc_net::TcpListenerAdapter;

    let listener = TcpListenerAdapter::bind("127.0.0.1:0").unwrap();
    let handle = Server::new(Box::new(listener), echo_handler()).spawn();
    let mut idle = Vec::new();
    for i in 0..32 {
        let conn = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut reader = std::io::BufReader::new(conn);
        write!(reader.get_mut(), "GET /warm{i} HTTP/1.1\r\n\r\n").unwrap();
        let resp = dpc_http::parse::read_response(&mut reader).unwrap();
        assert_eq!(resp.body, format!("GET /warm{i}").into_bytes());
        idle.push(reader);
    }
    // Idle stretch: dozens of fallback periods with nothing to do.
    std::thread::sleep(Duration::from_millis(60));
    let reader = &mut idle[7];
    write!(reader.get_mut(), "GET /after-idle HTTP/1.1\r\n\r\n").unwrap();
    let resp = dpc_http::parse::read_response(reader).unwrap();
    assert_eq!(resp.body, *b"GET /after-idle");
    assert_eq!(
        handle.stats().tick_waits(),
        0,
        "TCP on epoll must never tick"
    );
}

#[test]
fn rope_responses_survive_the_wire_through_keep_alive() {
    // A handler that alternates Single and Rope bodies on one connection:
    // framing (Content-Length from rope length) must stay exact.
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let _handle = Server::new(
        Box::new(listener),
        Arc::new(|req: Request| {
            if req.target.starts_with("/rope") {
                let mut resp = Response::html("");
                resp.body = Body::Rope(vec![
                    bytes::Bytes::from_static(b"<a>"),
                    bytes::Bytes::from_static(b"frag"),
                    bytes::Bytes::from_static(b"</a>"),
                ]);
                resp
            } else {
                Response::html("single")
            }
        }),
    )
    .spawn();
    let client = Client::new(Arc::new(net.connector()));
    for i in 0..6 {
        let (target, want): (&str, &[u8]) = if i % 2 == 0 {
            ("/rope", b"<a>frag</a>")
        } else {
            ("/single", b"single")
        };
        let resp = client.request("web", Request::get(target)).unwrap();
        assert_eq!(resp.body, want, "iteration {i}");
    }
}

#[test]
fn panicking_handler_answers_500_and_its_loop_keeps_serving() {
    // One loop owns every connection and the listener: if a handler's
    // panic unwound the loop, nothing would be served after it.
    let net = SimNetwork::with_defaults();
    let listener = net.listen("web");
    let handle = Server::new(
        Box::new(listener),
        Arc::new(|req: Request| {
            if req.target == "/boom" {
                panic!("handler bug on {}", req.target);
            }
            Response::html(req.target)
        }),
    )
    .with_loops(1)
    .spawn();
    let connector = net.connector();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut raw = connector.connect("web").unwrap();
        raw.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(raw);
        let first = dpc_http::parse::read_response(&mut reader);
        // The panicking request's connection closes after its 500.
        let mut rest = Vec::new();
        let closed = reader.read_to_end(&mut rest).is_ok() && rest.is_empty();
        let second = Client::new(Arc::new(connector)).request("web", Request::get("/after"));
        let _ = tx.send((first, closed, second));
    });
    let (first, closed, second) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the loop stopped serving after a handler panic");
    let first = first.expect("the panicking request gets a response");
    assert_eq!(first.status.0, 500);
    assert!(first.headers.connection_close());
    assert!(closed, "the panicking request's connection closes");
    let second = second.expect("a second connection is served");
    assert_eq!(second.status.0, 200);
    assert_eq!(second.body, *b"/after");
    assert_eq!(handle.requests(), 2);
}
