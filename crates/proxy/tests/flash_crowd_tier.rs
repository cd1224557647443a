//! Flash crowd against the page tier: the hot page is **resident in the
//! node's page cache, and every serving thread has hit it**, when the
//! invalidation lands. The acceptance properties mirror `dpc-core`'s
//! flash-crowd suite, one level up the hierarchy:
//!
//! * no thread observes pre-invalidation bytes once the invalidation has
//!   completed — the tiered page self-evicts on its next touch via the
//!   coherency epoch;
//! * the appserver code block still runs `invalidations + 1` times for
//!   the whole burst (the BEM's single-flight coalesces the post-
//!   invalidation regeneration exactly as it does without the tier).
//!
//! Determinism comes from barriers, not sleeps: the crowd only serves
//! after the invalidation has fully landed, so any stale byte anywhere
//! would be a real coherence bug, not a race artifact.

use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dpc_core::prelude::*;
use dpc_core::{AssembleError, CoherencyEpoch};
use dpc_proxy::{page_key, PageCache};

const THREADS: usize = 16;
const CAP: usize = 8;
const TARGET: &str = "/hot-page";
const SESSION: &str = "crowd-session";

fn hot_id() -> FragmentId {
    FragmentId::new("hot")
}

/// One BEM-coalesced assembly of the hot page (the `dpc-core` flash-crowd
/// serve loop: a raced `SET` surfaces as `MissingFragment` and retries).
fn assemble_once(
    bem: &Bem,
    store: &FragmentStore,
    produce: &(dyn Fn(&mut Vec<u8>) + Sync),
) -> Vec<u8> {
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
            Err(e) => panic!("hot template failed to assemble: {e}"),
        }
    }
}

/// The tiered serve path as the front's handler runs it: probe the page
/// cache, and on a miss assemble (BEM-coalesced) and install stamped.
fn serve_tiered(
    pc: &PageCache,
    bem: &Bem,
    store: &FragmentStore,
    produce: &(dyn Fn(&mut Vec<u8>) + Sync),
) -> Vec<u8> {
    let key = page_key(TARGET, SESSION);
    if let Some(page) = pc.lookup(&[&key]) {
        return page.body.to_vec();
    }
    // Stamp read BEFORE assembly: if the invalidation races the produce,
    // the page is already outdated and the install refuses it.
    let stamp = pc.coherence_stamp();
    let page = assemble_once(bem, store, produce);
    pc.install(
        &key,
        Bytes::from(page.clone()),
        "text/html",
        Some(stamp),
        None,
    );
    page
}

#[test]
fn crowd_with_tier_resident_page_sees_no_stale_bytes_after_invalidation() {
    let epoch = CoherencyEpoch::new();
    let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(CAP)));
    let store = Arc::new(FragmentStore::new(CAP));
    // The production wiring: the BEM bumps the updated dep's stripe of
    // the tier epoch inside the update, as the testbed and the ring
    // install it, and leaves the freed key's old bytes in the slot store.
    bem.set_invalidation_sink(epoch.clone());
    let pc = Arc::new(PageCache::new(
        dpc_net::Clock::real(),
        Duration::from_secs(600),
        64,
        epoch,
    ));
    let produce_calls = Arc::new(AtomicU64::new(0));
    let invalidated = Arc::new(AtomicU64::new(0));
    let produce = {
        let calls = Arc::clone(&produce_calls);
        let inv = Arc::clone(&invalidated);
        move |b: &mut Vec<u8>| {
            calls.fetch_add(1, Ordering::Relaxed);
            if inv.load(Ordering::Acquire) == 0 {
                b.extend_from_slice(b"PRE-INVALIDATION");
            } else {
                b.extend_from_slice(b"FRESH-GENERATION");
            }
        }
    };

    // Warm the page cache so every crowd thread's first serve is a hit.
    for _ in 0..2 {
        let page = serve_tiered(&pc, &bem, &store, &produce);
        assert_eq!(page, b"PRE-INVALIDATION");
    }
    assert_eq!(produce_calls.load(Ordering::Relaxed), 1);

    let warmed = Arc::new(Barrier::new(THREADS + 1));
    let inv_landed = Arc::new(Barrier::new(THREADS + 1));
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let pc = Arc::clone(&pc);
            let bem = Arc::clone(&bem);
            let store = Arc::clone(&store);
            let produce = produce.clone();
            let warmed = Arc::clone(&warmed);
            let inv_landed = Arc::clone(&inv_landed);
            std::thread::spawn(move || {
                let page = serve_tiered(&pc, &bem, &store, &produce);
                assert_eq!(page, b"PRE-INVALIDATION");
                assert!(
                    pc.lookup(&[&page_key(TARGET, SESSION)]).is_some(),
                    "hot page must be tier-resident before the invalidation"
                );
                warmed.wait();
                // ... the invalidation lands here, in the main thread ...
                inv_landed.wait();
                let page = serve_tiered(&pc, &bem, &store, &produce);
                assert_eq!(
                    page, b"FRESH-GENERATION",
                    "a thread observed pre-invalidation bytes from the tier"
                );
            })
        })
        .collect();

    warmed.wait();
    // The invalidation lands while the page is tier-resident and all 16
    // threads have hit it: flag first (a woken thread may produce immediately), then
    // the data update — which frees the directory key AND bumps the epoch
    // through the sink.
    invalidated.store(1, Ordering::Release);
    assert_eq!(bem.on_data_update("tbl/hot"), 1);
    inv_landed.wait();
    for t in threads {
        t.join().unwrap();
    }

    let invalidations = 1;
    assert_eq!(
        produce_calls.load(Ordering::Relaxed),
        invalidations + 1,
        "produce is O(invalidations) even with every thread a tier hit"
    );
    let stats = pc.stats();
    assert!(
        stats.stale_evictions >= 1,
        "the tiered page self-evicted: {stats:?}"
    );
    assert!(stats.hits >= 2 * THREADS as u64, "{stats:?}");
    bem.check_invariants().unwrap();
}
