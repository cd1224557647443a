//! Deterministic flash-crowd scenarios: many threads, one hot fragment, a
//! dependency invalidated mid-burst. The acceptance bar is the paper-scale
//! property that appserver work is O(invalidations), not O(requests): the
//! code block runs `invalidations + 1` times per coalesced burst instead
//! of once per request.
//!
//! Determinism comes from orchestration, not sleeps: a designated leader's
//! produce closure holds the flight open until the whole crowd has parked
//! on it (`FlightGroup::parked_waiters`), and the crowd only starts once
//! the flight is provably in progress (`FlightGroup::in_flight`). The
//! window where a hit races the leader's `SET` to the store surfaces as
//! `MissingFragment`; like the proxy front end, the serve loop retries it.
//!
//! A discrete-tick model of the same burst ([`flash_crowd`], at the end)
//! states the claim analytically and checks it at crowd sizes no thread
//! test could reach.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dpc_core::prelude::*;
use dpc_core::AssembleError;

const THREADS: usize = 16;
/// Directory capacity: small enough to exercise key recycling under the
/// crowd without the tests caring (flights are keyed by fragment
/// identity, not dpcKey).
const CAP: usize = 8;

fn hot_id() -> FragmentId {
    FragmentId::new("hot")
}

fn spin_until(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

/// Waiters parked on the hot fragment's flight. Flights are keyed by
/// fragment identity (stable for the life of the system), so the hot
/// flight is directly addressable — no key-space scan.
fn parked(bem: &Bem) -> u32 {
    let fkey = bem.directory().flight_key(&hot_id());
    bem.directory().flight().parked_waiters(fkey)
}

fn any_in_flight(bem: &Bem) -> bool {
    let fkey = bem.directory().flight_key(&hot_id());
    bem.directory().flight().in_flight(fkey)
}

/// Serve the hot fragment once and assemble the resulting template against
/// `store`. A `MissingFragment` means a directory hit raced the leader's
/// `SET` to the store; retry, as the proxy's bypass path would.
fn serve(bem: &Bem, store: &FragmentStore, produce: &(dyn Fn(&mut Vec<u8>) + Sync)) -> Vec<u8> {
    let start = Instant::now();
    loop {
        let mut w = bem.template_writer();
        w.fragment(
            &hot_id(),
            FragmentPolicy::ttl(Duration::from_secs(600)).with_deps(&["tbl/hot"]),
            |b| produce(b),
        );
        let template = w.finish();
        match assemble_rope(&template, store) {
            Ok(rope) => return rope.to_vec(),
            Err(AssembleError::MissingFragment(_)) => {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "slot never filled after a raced GET"
                );
                std::thread::yield_now();
            }
            Err(e) => panic!("flash-crowd template failed to assemble: {e}"),
        }
    }
}

fn crowd_bem() -> Arc<Bem> {
    Arc::new(Bem::new(BemConfig::default().with_capacity(CAP)))
}

/// One synchronized burst: the whole crowd hits the same cold fragment and
/// the code block runs exactly once.
#[test]
fn flash_crowd_runs_produce_once() {
    let bem = crowd_bem();
    let store = Arc::new(FragmentStore::new(CAP));
    let produce_calls = Arc::new(AtomicU64::new(0));

    // Designated leader: takes the miss, then holds the flight open until
    // the other THREADS-1 requesters have parked on it.
    let leader = {
        let bem = Arc::clone(&bem);
        let store = Arc::clone(&store);
        let calls = Arc::clone(&produce_calls);
        std::thread::spawn(move || {
            let bem2 = Arc::clone(&bem);
            serve(&bem, &store, &move |b: &mut Vec<u8>| {
                calls.fetch_add(1, Ordering::Relaxed);
                spin_until("crowd to park", || parked(&bem2) == (THREADS - 1) as u32);
                b.extend_from_slice(b"HOT-CONTENT");
            })
        })
    };
    // The crowd enters only once the leader's flight is in progress, so
    // every one of them parks (none can slip into the pre-begin window).
    let waiters: Vec<_> = (0..THREADS - 1)
        .map(|_| {
            let bem = Arc::clone(&bem);
            let store = Arc::clone(&store);
            let calls = Arc::clone(&produce_calls);
            std::thread::spawn(move || {
                spin_until("flight to start", || any_in_flight(&bem));
                serve(&bem, &store, &move |b: &mut Vec<u8>| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    b.extend_from_slice(b"HOT-CONTENT");
                })
            })
        })
        .collect();

    let mut pages = vec![leader.join().unwrap()];
    pages.extend(waiters.into_iter().map(|t| t.join().unwrap()));

    assert_eq!(
        produce_calls.load(Ordering::Relaxed),
        1,
        "one leader produced for the whole crowd"
    );
    for page in &pages {
        assert_eq!(
            page, b"HOT-CONTENT",
            "every requester got the leader's rope"
        );
    }
    let snap = bem.stats().snapshot();
    assert_eq!(snap.misses, 1);
    assert_eq!(snap.flight_leaders, 1);
    assert_eq!(
        snap.coalesced_waits,
        (THREADS - 1) as u64,
        "everyone but the leader was served off the flight"
    );
    bem.check_invariants().unwrap();
}

/// The headline scenario: the dependency is invalidated *mid-flight*,
/// while the leader is producing with the whole crowd parked. The stale
/// rope must never reach a requester, and produce runs exactly
/// `invalidations + 1` times.
#[test]
fn mid_burst_invalidation_costs_exactly_one_extra_produce() {
    let bem = crowd_bem();
    let store = Arc::new(FragmentStore::new(CAP));
    let produce_calls = Arc::new(AtomicU64::new(0));
    let invalidated = Arc::new(AtomicU64::new(0));

    let make_produce = |bem: &Arc<Bem>| {
        let bem = Arc::clone(bem);
        let calls = Arc::clone(&produce_calls);
        let inv = Arc::clone(&invalidated);
        move |b: &mut Vec<u8>| {
            let call = calls.fetch_add(1, Ordering::Relaxed) + 1;
            if call == 1 {
                // First leader: wait for the full crowd, then take the
                // mid-flight invalidation before returning. This result
                // belongs to a dead generation and must be discarded.
                spin_until("crowd to park", || parked(&bem) == (THREADS - 1) as u32);
                // Flag first: the update wakes parked waiters, and one of
                // them may reach the fresh-generation produce immediately.
                inv.store(1, Ordering::Release);
                assert_eq!(bem.on_data_update("tbl/hot"), 1);
                b.extend_from_slice(b"STALE-GENERATION");
            } else {
                assert_eq!(
                    inv.load(Ordering::Acquire),
                    1,
                    "fresh lap runs after the update"
                );
                b.extend_from_slice(b"FRESH-GENERATION");
            }
        }
    };

    let leader = {
        let bem = Arc::clone(&bem);
        let store = Arc::clone(&store);
        let produce = make_produce(&bem);
        std::thread::spawn(move || serve(&bem, &store, &produce))
    };
    let waiters: Vec<_> = (0..THREADS - 1)
        .map(|_| {
            let bem = Arc::clone(&bem);
            let store = Arc::clone(&store);
            let produce = make_produce(&bem);
            std::thread::spawn(move || {
                spin_until("flight to start", || any_in_flight(&bem));
                serve(&bem, &store, &produce)
            })
        })
        .collect();

    let mut pages = vec![leader.join().unwrap()];
    pages.extend(waiters.into_iter().map(|t| t.join().unwrap()));

    let invalidations = 1u64;
    assert_eq!(
        produce_calls.load(Ordering::Relaxed),
        invalidations + 1,
        "produce is O(invalidations), not O(requests)"
    );
    for page in &pages {
        assert_eq!(
            page, b"FRESH-GENERATION",
            "the stale rope must never reach a requester"
        );
    }
    let snap = bem.stats().snapshot();
    assert_eq!(snap.misses, 2, "one produce-running leader per generation");
    assert_eq!(snap.flight_leaders, 2);
    assert!(
        snap.flight_retries >= 1,
        "the stale lap was observed and retried"
    );
    bem.check_invariants().unwrap();
}

/// Leader failure: the producing closure panics with the whole crowd
/// parked. The flight is poisoned, exactly one waiter draws the orphan
/// claim and re-leads, and every surviving thread is served — nobody
/// hangs on the dead leader.
#[test]
fn leader_panic_elects_a_new_leader_and_serves_everyone() {
    let bem = crowd_bem();
    let store = Arc::new(FragmentStore::new(CAP));
    let produce_calls = Arc::new(AtomicU64::new(0));

    let leader = {
        let bem = Arc::clone(&bem);
        let store = Arc::clone(&store);
        let calls = Arc::clone(&produce_calls);
        std::thread::spawn(move || {
            let bem2 = Arc::clone(&bem);
            let attempt = move || {
                serve(&bem, &store, &move |b: &mut Vec<u8>| {
                    let call = calls.fetch_add(1, Ordering::Relaxed) + 1;
                    if call == 1 {
                        spin_until("crowd to park", || parked(&bem2) == (THREADS - 1) as u32);
                        panic!("leader dies mid-produce");
                    }
                    b.extend_from_slice(b"RECOVERED");
                })
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
        })
    };
    let waiters: Vec<_> = (0..THREADS - 1)
        .map(|_| {
            let bem = Arc::clone(&bem);
            let store = Arc::clone(&store);
            let calls = Arc::clone(&produce_calls);
            std::thread::spawn(move || {
                spin_until("flight to start", || any_in_flight(&bem));
                serve(&bem, &store, &move |b: &mut Vec<u8>| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    b.extend_from_slice(b"RECOVERED");
                })
            })
        })
        .collect();

    assert!(
        leader.join().unwrap().is_err(),
        "the panicking leader's serve unwound"
    );
    for t in waiters {
        assert_eq!(
            t.join().unwrap(),
            b"RECOVERED",
            "survivors all served the recovery rope"
        );
    }
    // The dead generation plus the recovery leader; the benign same-key
    // recycle race (the orphan's repair invalidation landing after a
    // racing re-lookup already re-claimed the key) can add one more
    // regeneration, never a storm.
    let produced = produce_calls.load(Ordering::Relaxed) - 1; // minus the panicked call
    assert!(
        (1..=3).contains(&produced),
        "recovery took {produced} produce runs"
    );
    assert_eq!(
        bem.directory().flight().counters().poisoned,
        1,
        "the dropped guard poisoned its flight"
    );
    bem.directory().check_invariants().unwrap();
    bem.directory().flight().check_invariants().unwrap();
}

/// The 10k-request acceptance scenario, running free (no latches): 16
/// threads serve one hot key 625 times each while a dependency update
/// lands mid-burst. Without coalescing this is ~10k code-block runs; with
/// it the count must stay O(invalidations) — bounded here at 0.5% of
/// requests, orders of magnitude under the dogpile.
#[test]
fn ten_k_requests_cost_order_invalidations_produces() {
    let bem = crowd_bem();
    let store = Arc::new(FragmentStore::new(CAP));
    let produce_calls = Arc::new(AtomicU64::new(0));
    const REQS: usize = 625; // 16 threads x 625 = 10_000 requests
    let start = Arc::new(Barrier::new(THREADS + 1));

    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let bem = Arc::clone(&bem);
            let store = Arc::clone(&store);
            let calls = Arc::clone(&produce_calls);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..REQS {
                    let page = serve(&bem, &store, &|b: &mut Vec<u8>| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        b.extend_from_slice(b"TEN-K");
                    });
                    assert_eq!(page, b"TEN-K");
                }
            })
        })
        .collect();
    start.wait();
    // One dependency update from outside, while the burst is provably
    // still in progress.
    spin_until("burst to get going", || {
        bem.pages_served() > (THREADS * REQS / 4) as u64
    });
    assert_eq!(bem.on_data_update("tbl/hot"), 1);
    for t in threads {
        t.join().unwrap();
    }

    let produced = produce_calls.load(Ordering::Relaxed);
    let total = (THREADS * REQS) as u64;
    assert!(produced >= 2, "the update forced at least one regeneration");
    assert!(
        produced <= total / 200,
        "dogpile: {produced} produce calls for {total} requests (1 invalidation)"
    );
    let snap = bem.stats().snapshot();
    assert_eq!(
        snap.misses,
        snap.flight_leaders + snap.uncoalesced_misses,
        "every produce-running miss held flight leadership or was a \
         counted final-lap fallback"
    );
    bem.check_invariants().unwrap();
}

/// Outcome of one [`flash_crowd`] run: the same deterministic burst
/// costed with and without single-flight miss coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlashCrowdResult {
    /// Requests that arrived over the burst.
    requests: u64,
    /// Invalidations that landed mid-burst.
    invalidations: u64,
    /// Produce calls with single-flight coalescing: one leader per
    /// absence interval, plus one repair per mid-flight invalidation.
    coalesced_produces: u64,
    /// Produce calls without coalescing: every request that finds the
    /// value absent (or a produce in progress) launches its own.
    uncoalesced_produces: u64,
}

/// Cost a flash crowd analytically: a discrete-tick model of `requests`
/// arrivals (at `arrivals_per_tick`) against one hot key whose produce
/// takes `produce_ticks`, with invalidations landing at the given ticks.
///
/// This is the analytic twin of the threaded tests above: those prove the
/// real `FlightGroup` delivers these numbers under actual threads; this
/// model makes the *claim* itself — coalesced produces = invalidations +
/// 1, independent of crowd size — checkable at any scale in microseconds.
///
/// Model: a produce started at tick `t` completes at `t + produce_ticks`
/// and installs a fresh value unless an invalidation landed after `t`.
/// Coalesced, a mid-flight invalidation marks the flight stale and the
/// leader relaunches on completion (the waiters stay parked); uncoalesced,
/// every arrival that misses launches a produce of its own.
fn flash_crowd(
    requests: u64,
    arrivals_per_tick: u64,
    produce_ticks: u64,
    invalidate_at: &[u64],
) -> FlashCrowdResult {
    assert!(arrivals_per_tick > 0 && produce_ticks > 0);
    let mut result = FlashCrowdResult {
        requests,
        invalidations: 0,
        coalesced_produces: 0,
        uncoalesced_produces: 0,
    };
    // Shared arrival schedule; independent cache state per discipline.
    let mut co_fresh = false;
    let mut co_flight: Option<u64> = None; // completion tick
    let mut co_stale = false;
    let mut un_fresh = false;
    let mut un_completions: Vec<(u64, u64)> = Vec::new(); // (start, end)
    let mut arrived = 0u64;
    let mut tick = 0u64;
    let mut last_invalidation: Option<u64> = None;
    while arrived < requests || co_flight.is_some() || !un_completions.is_empty() {
        if invalidate_at.contains(&tick) {
            result.invalidations += 1;
            last_invalidation = Some(tick);
            co_fresh = false;
            un_fresh = false;
            if co_flight.is_some() {
                co_stale = true;
            }
        }
        // Completions land before this tick's arrivals.
        if co_flight == Some(tick) {
            if co_stale {
                // The leader observed the stale stamp: relaunch, waiters
                // keep waiting. This is the "+1 per invalidation".
                co_stale = false;
                result.coalesced_produces += 1;
                co_flight = Some(tick + produce_ticks);
            } else {
                co_fresh = true;
                co_flight = None;
            }
        }
        un_completions.retain(|&(start, end)| {
            if end != tick {
                return true;
            }
            if last_invalidation.is_none_or(|inv| start > inv) {
                un_fresh = true;
            }
            false
        });
        let batch = arrivals_per_tick.min(requests - arrived);
        for _ in 0..batch {
            if !co_fresh && co_flight.is_none() {
                result.coalesced_produces += 1;
                co_flight = Some(tick + produce_ticks);
                co_stale = false;
            }
            if !un_fresh {
                result.uncoalesced_produces += 1;
                un_completions.push((tick, tick + produce_ticks));
            }
        }
        arrived += batch;
        tick += 1;
    }
    result
}

#[test]
fn flash_crowd_coalesced_cost_is_invalidations_plus_one() {
    // 10k requests at 100/tick against one hot key with a 20-tick
    // produce; invalidations land while the value is *fresh* (tick 30,
    // after the first flight completes) and again at tick 61.
    let r = flash_crowd(10_000, 100, 20, &[30, 61]);
    assert_eq!(r.requests, 10_000);
    assert_eq!(r.invalidations, 2);
    assert_eq!(r.coalesced_produces, r.invalidations + 1);
    assert!(
        r.uncoalesced_produces > r.requests / 2,
        "dogpile should burn most of the crowd: {} of {}",
        r.uncoalesced_produces,
        r.requests
    );
}

#[test]
fn flash_crowd_mid_flight_invalidation_costs_one_relaunch() {
    // The invalidation lands at tick 10, squarely inside the first
    // flight (ticks 0..20): the leader relaunches once on completion.
    let r = flash_crowd(10_000, 100, 20, &[10]);
    assert_eq!(r.invalidations, 1);
    assert_eq!(r.coalesced_produces, 2);
    // Crowd size does not change the coalesced cost.
    let bigger = flash_crowd(1_000_000, 10_000, 20, &[10]);
    assert_eq!(bigger.coalesced_produces, 2);
    assert!(bigger.uncoalesced_produces > 100_000);
}
