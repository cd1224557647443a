//! Heap allocations per request, process-wide, pinned exactly.
//!
//! A counting global allocator sees every thread of the process: the
//! proxy's event loop, the origin's, and this test's raw-stream client,
//! which writes prebuilt request bytes and reads each response into one
//! reused buffer, so it adds only the simulated wire's own chunk per write.
//! Each configuration is warmed up first (cold fragments, the first tier
//! fill, every buffer's growth to its steady size), then counted over
//! `REQUESTS` GETs of one page on one connection. The counts must be exact
//! multiples of the request count: a path whose allocations depend on
//! timing (a buffer taken and regrown per wake, a slice list built per
//! flush attempt) breaks the pin under load instead of drifting silently.
//!
//! All three pins run in one test so no other test thread allocates
//! beside them. A change that moves a count updates the pin and says why
//! in CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use dpc_net::{BoxStream, Connector};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::ProxyMode;

/// Counts every heap acquisition (`alloc`, `alloc_zeroed`, `realloc`) of
/// every thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests counted per configuration.
const REQUESTS: u64 = 500;
/// Requests before counting starts.
const WARM_UP: usize = 300;
const TARGET: &str = "/paper/page.jsp?p=3";

/// A client that allocates nothing of its own per request: the request is
/// serialized once, and every response lands in one buffer.
struct RawClient {
    stream: BoxStream,
    buf: Vec<u8>,
}

/// Position of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The value of header `name` (spelled as sent) in a response head.
fn header<'a>(head: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    head.split(|b| *b == b'\n').find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(b": ")?;
        Some(rest.strip_suffix(b"\r").unwrap_or(rest))
    })
}

impl RawClient {
    fn connect(tb: &Testbed) -> RawClient {
        RawClient {
            stream: tb.net().connector().connect(PROXY_ADDR).expect("connect"),
            buf: vec![0; 1 << 20],
        }
    }

    /// Send `request` and read one whole response; returns its head
    /// length and total length in `buf`.
    fn roundtrip(&mut self, request: &[u8]) -> (usize, usize) {
        self.stream.write_all(request).expect("write request");
        let mut filled = 0;
        let head = loop {
            let n = self.stream.read(&mut self.buf[filled..]).expect("read");
            assert!(n > 0, "proxy closed the connection");
            filled += n;
            if let Some(end) = find(&self.buf[..filled], b"\r\n\r\n") {
                break end + 4;
            }
        };
        let length: usize = header(&self.buf[..head], b"Content-Length")
            .map(|v| std::str::from_utf8(v).unwrap().parse().unwrap())
            .expect("Content-Length");
        while filled < head + length {
            let n = self.stream.read(&mut self.buf[filled..]).expect("read");
            assert!(n > 0, "proxy closed mid-body");
            filled += n;
        }
        assert_eq!(filled, head + length, "one response per request");
        (head, filled)
    }

    /// Round-trip `request`, checking the status line and `X-Cache`.
    fn expect(&mut self, request: &[u8], status: &[u8], x_cache: &[u8]) {
        let (head, _) = self.roundtrip(request);
        let head = &self.buf[..head];
        assert!(
            head.starts_with(status),
            "{}",
            String::from_utf8_lossy(head)
        );
        assert_eq!(header(head, b"X-Cache"), Some(x_cache));
    }
}

fn testbed(tier: bool) -> Testbed {
    Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        l1_budget_bytes: if tier { 1 << 20 } else { 0 },
        ..TestbedConfig::default()
    })
}

/// Allocations over `REQUESTS` round trips of `request`, each answered
/// with `status` and `x_cache`, after `WARM_UP` uncounted ones.
fn allocations(client: &mut RawClient, request: &[u8], status: &[u8], x_cache: &[u8]) -> u64 {
    for _ in 0..WARM_UP {
        client.expect(request, status, x_cache);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..REQUESTS {
        client.expect(request, status, x_cache);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Pinned allocations per request. Before the compact header block they
/// read 27, 140.06 and 26 (the assembled count not even a whole number).
const PAGE_TIER_HIT: u64 = 9;
const ASSEMBLED: u64 = 83;
const NOT_MODIFIED: u64 = 9;

#[test]
fn allocations_per_request_are_pinned() {
    let get = format!("GET {TARGET} HTTP/1.1\r\nHost: dpc\r\n\r\n").into_bytes();

    let tb = testbed(false);
    let mut client = RawClient::connect(&tb);
    let assembled = allocations(&mut client, &get, b"HTTP/1.1 200", b"dpc-assembled");
    drop(client);
    drop(tb);

    let tb = testbed(true);
    let mut client = RawClient::connect(&tb);
    let (head, _) = client.roundtrip(&get);
    let etag = header(&client.buf[..head], b"ETag").expect("ETag").to_vec();
    let hit = allocations(&mut client, &get, b"HTTP/1.1 200", b"dpc-l2");
    let mut conditional =
        format!("GET {TARGET} HTTP/1.1\r\nHost: dpc\r\nIf-None-Match: ").into_bytes();
    conditional.extend_from_slice(&etag);
    conditional.extend_from_slice(b"\r\n\r\n");
    let not_modified = allocations(&mut client, &conditional, b"HTTP/1.1 304", b"dpc-l2");

    let per = |total: u64| total as f64 / REQUESTS as f64;
    eprintln!(
        "allocations per request: page-tier hit {}, assembled {}, 304 {}",
        per(hit),
        per(assembled),
        per(not_modified)
    );
    assert_eq!(hit, PAGE_TIER_HIT * REQUESTS, "page-tier hit");
    assert_eq!(assembled, ASSEMBLED * REQUESTS, "assembled GET");
    assert_eq!(not_modified, NOT_MODIFIED * REQUESTS, "304");
}
