//! The testbed's origin front runs its script engine inline on its event
//! loops (`workers: 0`). Two guards for that:
//!
//! * **No deadlock, no wrong byte under a crowd.** Sixteen clients, one
//!   connection each, released by a barrier at one cold page, at one and
//!   at two origin loops. Every body matches a pass-through testbed, the
//!   crowd finishes under a deadline (a wedged loop fails the test instead
//!   of hanging it), and the directory invariants hold. On one loop no two
//!   origin handlers overlap, so no BEM flight waiter ever parks.
//! * **Counted-work equivalence.** A fixed request/update sequence moves
//!   exactly the origin bytes, packets, requests and BEM hits/misses that
//!   the worker-pool origin moved: running inline changes which thread
//!   does the work, never the work.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_http::{Client, Request};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::ProxyMode;

const CROWD: usize = 16;
const DEADLINE: Duration = Duration::from_secs(10);
const COLD_PAGE: &str = "/paper/page.jsp?p=5";

fn params() -> PaperSiteParams {
    PaperSiteParams {
        pages: 16,
        ..PaperSiteParams::default()
    }
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
    let start = Barrier::new(CROWD);
    let bodies = thread::scope(|s| {
        let handles: Vec<_> = (0..CROWD)
            .map(|_| {
                let client = Client::new(Arc::new(tb.net().connector()));
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let resp = client
                        .request(PROXY_ADDR, Request::get(COLD_PAGE))
                        .expect("proxy request failed");
                    (resp.status.0, resp.body.to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crowd thread panicked"))
            .collect()
    });
    CrowdRun {
        bodies,
        invariants: bem.directory().check_invariants(),
        coalesced_waits: bem.stats().snapshot().coalesced_waits - before.coalesced_waits,
    }
}

#[test]
fn cold_page_crowd_on_the_inline_origin() {
    let oracle = Testbed::build(TestbedConfig {
        mode: ProxyMode::PassThrough,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let expected = oracle.get(COLD_PAGE, None).body.to_vec();
    for loops in [1, 2] {
        let run = within_deadline(&format!("crowd at loops {loops}"), move || crowd(loops));
        assert_eq!(run.bodies.len(), CROWD);
        for (i, (status, body)) in run.bodies.iter().enumerate() {
            assert_eq!(*status, 200, "loops {loops}, client {i}");
            assert!(*body == expected, "loops {loops}, client {i}: wrong bytes");
        }
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
/// 64-thread worker pool.
#[test]
fn inline_origin_moves_the_parent_origin_bytes() {
    // 32 cacheable fragments cold, plus one regeneration per update.
    let tier_off = Work {
        payload_bytes: 579_064,
        wire_bytes: 621_424,
        packets: 1_059,
        origin_requests: 200,
        bem_hits: 364,
        bem_misses: 36,
    };
    // The page tier answers 60 of the 200 requests itself.
    let tier_on = Work {
        payload_bytes: 416_564,
        wire_bytes: 446_924,
        packets: 759,
        origin_requests: 140,
        bem_hits: 244,
        bem_misses: 36,
    };
    assert_eq!(
        [counted_run(0), counted_run(64 << 10)],
        [tier_off, tier_on],
        "page tier off, then at 64 KiB"
    );
}
