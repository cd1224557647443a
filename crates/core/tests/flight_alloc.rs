//! The uncontended miss path must not allocate: a zero-waiter flight is
//! an insert into a pre-reserved map and a remove, nothing more. This test
//! pins that with a per-thread counting allocator — if someone adds a
//! per-flight `Arc`, boxes the state, or lets the map grow in steady
//! state, the count moves and this fails.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dpc_core::{FlightGroup, Publish, Wait};

#[path = "../../../tests/support/thread_alloc.rs"]
mod thread_alloc;

#[test]
fn uncontended_flights_do_not_allocate() {
    let group: FlightGroup<u64, u64> = FlightGroup::new();

    // Warm-up: lazy one-time costs (map buckets, lock internals) are paid
    // here, outside the measured window.
    for key in 0..32u64 {
        let leader = group.begin(key);
        assert_eq!(leader.publish(key), Publish::Delivered(0));
    }

    let before = thread_alloc::allocs();
    for round in 0..100u64 {
        for key in 0..32u64 {
            // The hit-path probe (lock-free when nothing is in flight).
            assert!(matches!(group.wait(key), Wait::NoFlight));
            // A full zero-waiter flight: begin, probe while in flight,
            // publish.
            let leader = group.begin(key);
            assert!(group.in_flight(key));
            assert_eq!(leader.publish(round), Publish::Delivered(0));
            // Invalidation on a quiet key is also allocation-free.
            group.invalidate(key);
        }
    }
    let during = thread_alloc::allocs() - before;
    assert_eq!(
        during, 0,
        "uncontended single-flight path allocated {during} times in 3200 flights"
    );
    group.check_invariants().unwrap();
}

/// Pins the counter the three allocation tests share: a second thread
/// allocates for the whole measured window and the measuring thread still
/// reads zero. A process-wide counter (which also saw the libtest harness
/// thread, and made these tests fail under load) fails here every run.
#[test]
fn another_threads_allocations_are_not_counted() {
    let stop = AtomicBool::new(false);
    let noise = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(Box::new(0u64));
                noise.fetch_add(1, Ordering::Relaxed);
            }
        });
        // The window opens only once the neighbour is allocating and
        // closes only after it has allocated a thousand times more.
        while noise.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let noise_before = noise.load(Ordering::Relaxed);
        let before = thread_alloc::allocs();
        while noise.load(Ordering::Relaxed) < noise_before + 1000 {
            std::thread::yield_now();
        }
        let during = thread_alloc::allocs() - before;
        stop.store(true, Ordering::Relaxed);
        assert_eq!(
            during, 0,
            "measuring thread was charged {during} allocations made by its neighbour"
        );
    });
}
