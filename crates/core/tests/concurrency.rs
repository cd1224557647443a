//! Multi-threaded stress test: 8 threads hammer one `Bem` + `FragmentStore`
//! through mixed SET/GET/invalidate churn, and every assembled page must be
//! byte-exact against the uncached oracle.
//!
//! Fragment content is a pure function of the fragment id, so any
//! interleaving of renders must splice exactly the oracle bytes. The one
//! coherence hazard the DPC design accepts is key *reassignment*: when an
//! invalidated fragment's key is handed to a different fragment, the slot
//! holds the old fragment's bytes until the new `SET` arrives, and a
//! concurrent directory Hit in that window splices stale bytes with no
//! error raised (the slot is non-empty, so the MissingFragment bypass
//! cannot catch it). The BEM cannot scrub the DPC's slots — they live on
//! the other box — so the window is inherent to the split design; it is
//! bounded by one request round-trip.
//!
//! For a byte-exact oracle the test therefore excludes exactly that
//! window and nothing else: invalidators take the churn write lock
//! (renders hold read locks) and, before unlocking, *re-claim* any key
//! they freed by re-looking-up the same fragment and installing its
//! content — so the freeList is empty whenever renders run, and no key
//! ever migrates between fragments mid-flight. Replacement is disabled so
//! keys also never move via eviction. SET/SET and SET/GET races between
//! renderer threads remain fully live and are exactly what the
//! directory's one lock and the store's stripes must survive: every
//! renderer and invalidator serializes on the directory.
//!
//! A render that hits a not-yet-populated slot (`MissingFragment`: the
//! directory said Hit before the originating SET reached the store) falls
//! back to a bypass render, mirroring `dpc-proxy`'s bypass refetch — and
//! that page, too, must be byte-exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, RwLock};

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
    let bem = Arc::new(Bem::new(
        BemConfig::default()
            .with_capacity(FRAGMENTS * 4)
            // No replacement: keys only ever move through explicit
            // invalidation, which the churn lock brackets (see module doc).
            .with_replace(ReplacePolicy::None),
    ));
    let store = Arc::new(FragmentStore::with_shards(FRAGMENTS * 4, store_shards));
    let churn = Arc::new(RwLock::new(()));
    let barrier = Arc::new(Barrier::new(RENDER_THREADS + INVALIDATOR_THREADS));
    let bypasses = Arc::new(AtomicU64::new(0));
    let invalidations = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for t in 0..RENDER_THREADS {
        let bem = Arc::clone(&bem);
        let store = Arc::clone(&store);
        let churn = Arc::clone(&churn);
        let barrier = Arc::clone(&barrier);
        let bypasses = Arc::clone(&bypasses);
        joins.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xD1CE + t as u64);
            barrier.wait();
            for _ in 0..ITERS_PER_THREAD {
                let p = rng.random_range(0..PAGES);
                let expected = oracle(p);
                let _guard = churn.read().unwrap();
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
                        // Raced a SET that had not reached the store yet:
                        // bypass, like the proxy front end.
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
        let churn = Arc::clone(&churn);
        let barrier = Arc::clone(&barrier);
        let invalidations = Arc::clone(&invalidations);
        joins.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xBAD + t as u64);
            barrier.wait();
            for i in 0..ITERS_PER_THREAD {
                let _guard = churn.write().unwrap();
                let f = rng.random_range(0..FRAGMENTS);
                let n = match rng.random_range(0..10u32) {
                    // Data-source update: invalidate every dependent.
                    0..=6 => bem.on_data_update(&format!("tbl/{f}")),
                    // Direct fragment invalidation.
                    7 | 8 => usize::from(bem.directory().invalidate(&fragment_id(f))),
                    // Simulated proxy restart: slots gone, directory not.
                    // Empty slots are safe (MissingFragment -> bypass).
                    _ => {
                        store.clear();
                        0
                    }
                };
                // Re-claim the freed key before renders resume (see module
                // doc): look the fragment straight back up and install its
                // content, so the freeList never leaks a key to a
                // different fragment while a stale slot still holds this
                // one's bytes.
                if n > 0 {
                    if let dpc_core::Lookup::Miss(key) = bem.directory().lookup(
                        &fragment_id(f),
                        std::time::Duration::from_secs(u64::MAX / 4),
                        &[format!("tbl/{f}")],
                    ) {
                        store.set(key, bytes::Bytes::from(fragment_content(f)));
                    }
                }
                invalidations.fetch_add(n as u64, Ordering::Relaxed);
                drop(_guard);
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
