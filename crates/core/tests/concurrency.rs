//! Multi-threaded stress test: 8 threads hammer one `Bem` + `FragmentStore`
//! through mixed SET/GET/invalidate/evict churn, and every assembled page
//! must be byte-exact against the uncached oracle.
//!
//! Fragment content is a pure function of the fragment id, so any
//! interleaving of renders must splice exactly the oracle bytes. Keys move
//! between fragments freely: invalidations send them back on the freeList,
//! the directory holds half as many keys as there are fragments so LRU
//! replacement hands them over, and a simulated proxy restart empties the
//! store. A template rendered before a key moved can therefore reach the
//! store after the key's next `SET` — the reassignment window. Every tag
//! names its entry's generation, so such a `GET` finds the slot holding
//! another generation and fails with `MissingFragment` instead of
//! splicing the other fragment's bytes, and such a `SET` never overwrites
//! the newer generation.
//!
//! A render whose assembly fails with `MissingFragment` (a `SET` that had
//! not reached the store yet, a moved key, a restart) falls back to a
//! bypass render, mirroring `dpc-proxy`'s last rung — and that page, too,
//! must be byte-exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use dpc_core::prelude::*;
use dpc_core::AssembleError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const FRAGMENTS: usize = 48;
const PAGES: usize = 16;
const FRAGS_PER_PAGE: usize = 3;
const RENDER_THREADS: usize = 6;
const INVALIDATOR_THREADS: usize = 2;
const ITERS_PER_THREAD: usize = 400;
/// Directory keys and store slots.
const CAPACITY: usize = FRAGMENTS / 2;

fn fragment_id(f: usize) -> FragmentId {
    FragmentId::with_params("frag", &[("f", &f.to_string())])
}

/// Deterministic fragment body; varied lengths exercise slot reuse with
/// different sizes.
fn fragment_content(f: usize) -> Vec<u8> {
    format!("<frag {f}>{}</frag>", "x".repeat(17 * (f % 11) + 1)).into_bytes()
}

fn page_fragments(p: usize) -> impl Iterator<Item = usize> {
    (0..FRAGS_PER_PAGE).map(move |i| (p * 7 + i * 5) % FRAGMENTS)
}

/// The uncached oracle: what the origin emits with the BEM disabled.
fn oracle(p: usize) -> Vec<u8> {
    let mut out = format!("<page {p}>").into_bytes();
    for f in page_fragments(p) {
        out.extend_from_slice(&fragment_content(f));
    }
    out.extend_from_slice(b"</page>");
    out
}

fn render(bem: &Bem, p: usize, bypass: bool) -> Vec<u8> {
    let mut w = if bypass {
        bem.bypass_writer()
    } else {
        bem.template_writer()
    };
    w.literal(format!("<page {p}>").as_bytes());
    for f in page_fragments(p) {
        let policy = FragmentPolicy::pinned().with_deps(&[&format!("tbl/{f}")]);
        w.fragment(&fragment_id(f), policy, move |out| {
            out.extend_from_slice(&fragment_content(f))
        });
    }
    w.literal(b"</page>");
    w.finish()
}

fn run_stress(store_shards: usize) {
    // Half as many keys as fragments: LRU replacement moves keys between
    // fragments while renders are in flight.
    let bem = Arc::new(Bem::new(
        BemConfig::default()
            .with_capacity(CAPACITY)
            .with_replace(ReplacePolicy::Lru),
    ));
    let store = Arc::new(FragmentStore::with_shards(CAPACITY, store_shards));
    let barrier = Arc::new(Barrier::new(RENDER_THREADS + INVALIDATOR_THREADS));
    let bypasses = Arc::new(AtomicU64::new(0));
    let invalidations = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for t in 0..RENDER_THREADS {
        let bem = Arc::clone(&bem);
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        let bypasses = Arc::clone(&bypasses);
        joins.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xD1CE + t as u64);
            barrier.wait();
            for _ in 0..ITERS_PER_THREAD {
                let p = rng.random_range(0..PAGES);
                let expected = oracle(p);
                let template = render(&bem, p, false);
                match assemble_rope(&template, &store) {
                    Ok(rope) => {
                        assert_eq!(
                            rope.to_vec(),
                            expected,
                            "thread {t} page {p}: assembled page diverged from oracle"
                        );
                    }
                    Err(AssembleError::MissingFragment(_)) => {
                        // Raced a SET that had not reached the store yet,
                        // or a key that moved: bypass, like the proxy's
                        // last rung.
                        bypasses.fetch_add(1, Ordering::Relaxed);
                        let page = render(&bem, p, true);
                        assert_eq!(page, expected, "thread {t} page {p}: bypass diverged");
                    }
                    Err(e) => panic!("thread {t} page {p}: unexpected assembly error {e}"),
                }
            }
        }));
    }
    for t in 0..INVALIDATOR_THREADS {
        let bem = Arc::clone(&bem);
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        let invalidations = Arc::clone(&invalidations);
        joins.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xBAD + t as u64);
            barrier.wait();
            for i in 0..ITERS_PER_THREAD {
                let f = rng.random_range(0..FRAGMENTS);
                let n = match rng.random_range(0..10u32) {
                    // Data-source update: invalidate every dependent.
                    0..=6 => bem.on_data_update(&format!("tbl/{f}")),
                    // Direct fragment invalidation.
                    7 | 8 => usize::from(bem.directory().invalidate(&fragment_id(f))),
                    // Simulated proxy restart: slots gone, directory not.
                    _ => {
                        store.clear();
                        0
                    }
                };
                invalidations.fetch_add(n as u64, Ordering::Relaxed);
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    bem.directory().check_invariants().unwrap();
    let stats = bem.directory_stats();
    assert!(stats.hits > 0, "churn never produced a hit: {stats:?}");
    assert!(
        stats.misses as usize >= FRAGMENTS.min(PAGES * FRAGS_PER_PAGE),
        "too few misses: {stats:?}"
    );
    assert!(
        stats.evictions > 0,
        "replacement never moved a key: {stats:?}"
    );
    assert!(
        invalidations.load(Ordering::Relaxed) > 0,
        "invalidators never invalidated anything"
    );
    // The store only ever held real fragment content.
    let (sets, gets, _missing) = store.counters();
    assert!(sets > 0 && gets > 0);
}

#[test]
fn stress_sharded_directory_and_store() {
    // The directory is one lock; "sharded" is the store's default stripes.
    run_stress(dpc_core::DEFAULT_SHARDS);
}

#[test]
fn stress_single_shard_baseline() {
    // The same churn against a one-stripe store: the semantics (not the
    // scaling) must be identical.
    run_stress(1);
}
