//! Every production front runs its handler inline on its event loops:
//! the testbed's origin and proxy fronts and the ring's HTTP front. Two
//! guards for that:
//!
//! * **No deadlock, no wrong byte under a crowd.** Sixteen clients, one
//!   connection each, released by a barrier at one cold page, at one and
//!   at two loops per front. Every body matches a pass-through testbed,
//!   the crowd finishes under a deadline (a wedged loop fails the test
//!   instead of hanging it), and on one loop no two handlers overlap, so
//!   no flight waiter ever parks. Three crowds cover the three kinds of
//!   blocking a front handler does: the DPC proxy waiting on the origin
//!   (whose BEM flight is the park), the `PageCache` proxy whose page
//!   flight parks a proxy loop, and the ring front, which right after a
//!   join waits on the origin's node-miss `SET`s on its own loop.
//! * **Counted-work equivalence.** A fixed request/update sequence moves
//!   exactly the origin bytes, packets, requests and BEM hits/misses that
//!   the worker-pool origin moved: running inline changes which thread
//!   does the work, never the work.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_http::{Client, Request};
use dpc_net::SimNetwork;
use dpc_proxy::ring_cluster::{RingCluster, RingConfig};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::ProxyMode;

const CROWD: usize = 16;
const DEADLINE: Duration = Duration::from_secs(10);
const COLD_PAGE: &str = "/paper/page.jsp?p=5";
const PAGES: usize = 16;

fn params() -> PaperSiteParams {
    PaperSiteParams {
        pages: PAGES,
        ..PaperSiteParams::default()
    }
}

fn page(p: usize) -> String {
    format!("/paper/page.jsp?p={p}")
}

/// Run `f` on its own thread and fail if it has not returned within
/// [`DEADLINE`]. A deadlocked `f` is leaked with everything it owns, so
/// its testbed is never dropped and the test reports instead of hanging.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(v) => {
            runner.join().expect("runner exits after sending");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: not done within {DEADLINE:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
    }
}

/// The bytes a pass-through testbed serves for `target`: the oracle.
fn oracle(target: &str) -> Vec<u8> {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::PassThrough,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    tb.get(target, None).body.to_vec()
}

/// Release [`CROWD`] clients, one connection each, at once at `target`
/// on the server at `addr`; returns each client's status and body.
fn release_crowd(net: &Arc<SimNetwork>, addr: &str, target: &str) -> Vec<(u16, Vec<u8>)> {
    let start = Barrier::new(CROWD);
    thread::scope(|s| {
        let handles: Vec<_> = (0..CROWD)
            .map(|_| {
                let client = Client::new(Arc::new(net.connector()));
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let resp = client
                        .request(addr, Request::get(target))
                        .expect("front request failed");
                    (resp.status.0, resp.body.to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crowd thread panicked"))
            .collect()
    })
}

/// Every client got a `200` with exactly `expected`.
fn assert_bodies(what: &str, bodies: &[(u16, Vec<u8>)], expected: &[u8]) {
    assert_eq!(bodies.len(), CROWD, "{what}");
    for (i, (status, body)) in bodies.iter().enumerate() {
        assert_eq!(*status, 200, "{what}, client {i}");
        assert!(*body == expected, "{what}, client {i}: wrong bytes");
    }
}

/// What one crowd observed.
struct CrowdRun {
    bodies: Vec<(u16, Vec<u8>)>,
    invariants: Result<(), String>,
    coalesced_waits: u64,
}

/// Release [`CROWD`] clients at once at [`COLD_PAGE`] on a fresh DPC
/// testbed with `loops` loops per front and the page tier off.
fn crowd(loops: usize) -> CrowdRun {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        loops,
        ..TestbedConfig::default()
    });
    let bem = tb.engine().bem();
    let before = bem.stats().snapshot();
    let bodies = release_crowd(tb.net(), PROXY_ADDR, COLD_PAGE);
    CrowdRun {
        bodies,
        invariants: bem.directory().check_invariants(),
        coalesced_waits: bem.stats().snapshot().coalesced_waits - before.coalesced_waits,
    }
}

#[test]
fn cold_page_crowd_on_the_inline_origin() {
    let expected = oracle(COLD_PAGE);
    for loops in [1, 2] {
        let run = within_deadline(&format!("crowd at loops {loops}"), move || crowd(loops));
        assert_bodies(&format!("loops {loops}"), &run.bodies, &expected);
        run.invariants
            .unwrap_or_else(|e| panic!("loops {loops}: directory invariant: {e}"));
        if loops == 1 {
            assert_eq!(
                run.coalesced_waits, 0,
                "one inline origin loop runs one handler at a time: nothing parks"
            );
        }
    }
}

/// Release [`CROWD`] clients at once at [`COLD_PAGE`] on a fresh
/// `PageCache`-mode testbed with `loops` loops per front: the proxy's
/// page flight parks followers on their proxy loop while the leader
/// fetches from the origin. Returns the bodies and the page cache's
/// coalesced waits, with its invariants checked.
fn page_cache_crowd(loops: usize) -> (Vec<(u16, Vec<u8>)>, u64) {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::PageCache,
        paper_params: params(),
        loops,
        ..TestbedConfig::default()
    });
    let bodies = release_crowd(tb.net(), PROXY_ADDR, COLD_PAGE);
    (bodies, tb.proxy().page_cache().stats().coalesced_waits)
}

#[test]
fn cold_page_crowd_on_the_inline_page_cache_proxy() {
    let expected = oracle(COLD_PAGE);
    for loops in [1, 2] {
        let (bodies, coalesced_waits) =
            within_deadline(&format!("page-cache crowd at loops {loops}"), move || {
                page_cache_crowd(loops)
            });
        assert_bodies(&format!("page cache, loops {loops}"), &bodies, &expected);
        if loops == 1 {
            assert_eq!(
                coalesced_waits, 0,
                "one inline proxy loop runs one handler at a time: nothing parks"
            );
        }
    }
}

/// What one ring-front crowd observed.
struct RingRun {
    target: String,
    bodies: Vec<(u16, Vec<u8>)>,
    /// The newcomer's `asm_sets` after the crowd.
    sets: u64,
}

/// A two-node ring behind an HTTP front with `loops` loops: every page is
/// served once, a third node joins, and [`CROWD`] clients are released at
/// once through the front at a page the newcomer now owns. The newcomer
/// has never served it, so the crowd's first requests fetch its fragments
/// as node-miss `SET`s from the origin — on the front's event loop.
fn ring_front_crowd(loops: usize) -> RingRun {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let cluster = Arc::new(RingCluster::new(
        tb.net(),
        2,
        RingConfig {
            loops,
            ..RingConfig::default()
        },
    ));
    let _front = cluster.spawn_front("ring-front");
    for p in 0..PAGES {
        assert_eq!(cluster.get(&page(p), None).status.0, 200, "warm page {p}");
    }
    let newcomer = cluster.join();
    let target = (0..PAGES)
        .map(page)
        .find(|t| cluster.owner_of(t) == Some(newcomer))
        .expect("the newcomer owns one of the pages");
    let bodies = release_crowd(tb.net(), "ring-front", &target);
    let sets = cluster
        .proxy(newcomer)
        .expect("newcomer alive")
        .stats()
        .asm_sets
        .load(Ordering::Relaxed);
    RingRun {
        target,
        bodies,
        sets,
    }
}

#[test]
fn cold_page_crowd_on_the_inline_ring_front() {
    for loops in [1, 2] {
        let run = within_deadline(&format!("ring-front crowd at loops {loops}"), move || {
            ring_front_crowd(loops)
        });
        let what = format!("ring front, loops {loops}, {}", run.target);
        assert_bodies(&what, &run.bodies, &oracle(&run.target));
        assert!(
            run.sets > 0,
            "{what}: the newcomer must SET the slots it never stored"
        );
    }
}

/// Counted work of one fixed sequence: origin wire (payload, wire,
/// packets), origin requests, BEM hits and misses.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    payload_bytes: u64,
    wire_bytes: u64,
    packets: u64,
    origin_requests: u64,
    bem_hits: u64,
    bem_misses: u64,
}

/// 200 requests over 16 pages as two users, with a fragment update
/// (slot 0 or 1, both cacheable) before every 50th request.
fn counted_run(l1_budget_bytes: usize) -> Work {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes,
        ..TestbedConfig::default()
    });
    for i in 0..200usize {
        if i % 50 == 25 {
            paper_site::invalidate_fragment(tb.engine().repo(), (i * 3) % 16, (i / 50) % 2);
        }
        let user = if i % 3 == 0 { "alice" } else { "bob" };
        let resp = tb.get(&format!("/paper/page.jsp?p={}", (i * 7) % 16), Some(user));
        assert_eq!(resp.status.0, 200, "request {i}");
    }
    let wire = tb.origin_wire();
    let bem = tb.engine().bem().stats().snapshot();
    Work {
        payload_bytes: wire.payload_bytes,
        wire_bytes: wire.wire_bytes,
        packets: wire.packets,
        origin_requests: tb.origin_requests(),
        bem_hits: bem.hits,
        bem_misses: bem.misses,
    }
}

/// The exact counts the same sequence produced while the origin ran on a
/// 64-thread worker pool, less the tag bytes the directory's single key
/// sequence saves (its keys have fewer decimal digits).
#[test]
fn inline_origin_moves_the_parent_origin_bytes() {
    // 32 cacheable fragments cold, plus one regeneration per update.
    let tier_off = Work {
        payload_bytes: 578_167,
        wire_bytes: 620_527,
        packets: 1_059,
        origin_requests: 200,
        bem_hits: 364,
        bem_misses: 36,
    };
    // The page tier answers 180 of the 200 requests itself. Paper-site
    // pages never read the session, so alice and bob share one copy of
    // each page: 16 pages cold. Each of the four updates unserves only the
    // one page that read the row, and `p = 7i mod 16` asks for every page
    // once in any 16 requests, so each is refetched: 20 origin requests.
    // A refetch misses on its updated slot and hits on the other, so the
    // BEM counts 4 hits and the tier-off run's 32 + 4 misses.
    let tier_on = Work {
        payload_bytes: 92_659,
        wire_bytes: 99_019,
        packets: 159,
        origin_requests: 20,
        bem_hits: 4,
        bem_misses: 36,
    };
    assert_eq!(
        [counted_run(0), counted_run(64 << 10)],
        [tier_off, tier_on],
        "page tier off, then at 64 KiB"
    );
}
