//! The histogram observe path must not allocate: it is two relaxed
//! `fetch_add`s into a fixed bucket array, called once per request from
//! every event loop. This test pins that with a per-thread counting
//! allocator — if someone adds per-observe boxing, lazy bucket growth, or
//! a labels map on the hot path, the count moves and this fails.

use dpc_metrics::{Counter, Gauge, Outcome, OutcomeHistograms};

#[path = "../../../tests/support/thread_alloc.rs"]
mod thread_alloc;

#[test]
fn observe_does_not_allocate() {
    // Construction may allocate (the arrays live inline, but the harness
    // might); everything after the warm-up must not.
    let hist = OutcomeHistograms::new();
    let counter = Counter::new();
    let gauge = Gauge::new();

    // Warm-up: pay any lazy one-time cost outside the measured window.
    for outcome in Outcome::ALL {
        hist.observe(outcome, 1);
    }
    counter.inc();
    gauge.set(1);

    let before = thread_alloc::allocs();
    for round in 0..10_000u64 {
        for outcome in Outcome::ALL {
            hist.observe(outcome, round * 37 + outcome.index() as u64);
        }
        counter.add(round);
        gauge.set(round);
    }
    let during = thread_alloc::allocs() - before;
    assert_eq!(
        during, 0,
        "metrics hot path allocated {during} times in 70000 observes"
    );
    // Classification (the per-request header match) is also hot-path.
    let before = thread_alloc::allocs();
    for _ in 0..10_000u64 {
        let o = Outcome::classify(true, false, Some("dpc-l2"));
        hist.observe(o, 5);
    }
    let during = thread_alloc::allocs() - before;
    assert_eq!(during, 0, "classify+observe allocated {during} times");
}
