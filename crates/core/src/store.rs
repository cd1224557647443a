//! The DPC's fragment store — a striped slot array.
//!
//! The paper: *"The structure of the DPC cache is straightforward: it is
//! implemented as an in-memory array of pointers to cached fragments, where
//! the DpcKey serves as the array index."* That is exactly what this is — a
//! slot array of reference-counted byte buffers ([`bytes::Bytes`], the Rust
//! analogue of "pointer to cached fragment"). Slots are overwritten by
//! `SET`s and never explicitly cleared: an invalidated fragment's stale
//! bytes simply sit unused until the BEM reassigns the key, as described in
//! the paper's freeList discussion (§4.3.3).
//!
//! ## Generations
//!
//! Each slot is stamped with the generation of the `SET` that filled it
//! (the directory entry's sequence number, carried in the tag), and a
//! `GET` names the generation it wants. So stale bytes can sit unused
//! safely: a reassigned key's `GET` names the new generation and finds
//! the slot missing, never the old fragment. A `SET` installs only over
//! an older or equal generation, so a late `SET` from a render before an
//! update cannot overwrite the bytes rendered after it.
//!
//! ## Stripes
//!
//! The array is striped over N locks ([`DEFAULT_SHARDS`] unless built
//! with [`FragmentStore::with_shards`]): slot `k` lives in stripe `k % N`
//! at offset `k / N`, each stripe behind its own `RwLock`. The stripes are
//! the store's alone — the BEM's directory is one table under one lock —
//! and no worker pool contends on them: every front runs its handlers
//! inline on its event loops. They stay because the benchmark builds its
//! store through `with_shards(.., DEFAULT_SHARDS)`.
//!
//! Every public operation is keyed by a single slot and touches exactly
//! one stripe lock; whole-store walks (`occupied`, `bytes_used`, `clear`)
//! visit stripes one at a time.
//!
//! ## Content hashes
//!
//! Each slot holds its bytes together with their [`content_hash`], taken
//! once when the slot is installed and never supplied by a caller, so the
//! two cannot disagree. A reader that needs the content's identity — the
//! page assembler's ETag — reads it with [`FragmentStore::get_hashed`]
//! instead of rehashing bytes.

use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::key::DpcKey;
use crate::policy::content_hash;

/// Default stripe count of a [`FragmentStore`] (clamped to its capacity).
pub const DEFAULT_SHARDS: usize = 16;

/// Stripe count for a store of `capacity` slots: at least 1, at most
/// `capacity`, rounded down to a power of two (mask-friendly).
fn effective_shards(requested: usize, capacity: usize) -> usize {
    let clamped = requested.clamp(1, capacity.max(1));
    // Largest power of two <= clamped.
    1 << (usize::BITS - 1 - clamped.leading_zeros())
}

/// One occupied slot: the fragment's bytes, their [`content_hash`], and
/// the generation of the `SET` that installed them.
#[derive(Clone)]
struct Slot {
    bytes: Bytes,
    hash: u64,
    gen: u64,
}

/// Striped slot-array fragment store, shared by a node's event loops.
pub struct FragmentStore {
    shards: Box<[RwLock<Vec<Option<Slot>>>]>,
    /// `log2(shards.len())`; slot `k` lives in shard `k & (len-1)` at
    /// offset `k >> shard_shift`.
    shard_shift: u32,
    capacity: usize,
    sets: AtomicU64,
    gets: AtomicU64,
    missing_gets: AtomicU64,
}

impl FragmentStore {
    /// A store with `capacity` slots (the BEM's directory capacity must not
    /// exceed this) and the default stripe count.
    pub fn new(capacity: usize) -> FragmentStore {
        FragmentStore::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A store with `capacity` slots striped over `shards` locks. The
    /// count is clamped to `capacity` (so no shard is empty) and rounded
    /// down to a power of two, making slot location a mask + shift instead
    /// of two divisions on the hot path.
    pub fn with_shards(capacity: usize, shards: usize) -> FragmentStore {
        let n = effective_shards(shards, capacity);
        let shard_vec: Vec<RwLock<Vec<Option<Slot>>>> = (0..n)
            .map(|i| {
                // Shard i holds slots {k : k % n == i}: ceil((capacity-i)/n).
                let len = (capacity + n - 1 - i) / n;
                RwLock::new(vec![None; len])
            })
            .collect();
        FragmentStore {
            shards: shard_vec.into_boxed_slice(),
            shard_shift: n.trailing_zeros(),
            capacity,
            sets: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            missing_gets: AtomicU64::new(0),
        }
    }

    #[inline]
    fn locate(&self, key: DpcKey) -> (usize, usize) {
        let mask = self.shards.len() - 1;
        (key.index() & mask, key.index() >> self.shard_shift)
    }

    /// Store `content` under `key` as generation `gen`, unless the slot
    /// holds a newer generation (a late `SET` of an older render leaves
    /// the newer bytes in place). Returns false (and stores nothing) when
    /// the key is out of range.
    pub fn set(&self, key: DpcKey, gen: u64, content: Bytes) -> bool {
        let hash = content_hash(&content);
        self.set_hashed(key, gen, content, hash)
    }

    /// [`FragmentStore::set`] for a caller that has just hashed `content`
    /// itself (the assembler's `SET` arm folds the same hash into the
    /// page identity). Crate-private: `hash` must be
    /// `content_hash(&content)`.
    pub(crate) fn set_hashed(&self, key: DpcKey, gen: u64, bytes: Bytes, hash: u64) -> bool {
        if key.index() >= self.capacity {
            return false;
        }
        debug_assert_eq!(hash, content_hash(&bytes));
        self.sets.fetch_add(1, Ordering::Relaxed);
        let (shard, slot) = self.locate(key);
        let slot = &mut self.shards[shard].write()[slot];
        if slot.as_ref().is_none_or(|held| held.gen <= gen) {
            *slot = Some(Slot { bytes, hash, gen });
        }
        true
    }

    /// Fetch the fragment stored under `key` if its slot holds generation
    /// `gen` (cheap clone of a refcounted buffer).
    pub fn get(&self, key: DpcKey, gen: u64) -> Option<Bytes> {
        self.get_hashed(key, gen).map(|(bytes, _)| bytes)
    }

    /// Fetch the fragment stored under `key` as generation `gen`, together
    /// with its [`content_hash`], taken when the slot was installed. An
    /// empty slot, an out-of-range key and a slot holding any other
    /// generation all read `None`.
    pub fn get_hashed(&self, key: DpcKey, gen: u64) -> Option<(Bytes, u64)> {
        let out = if key.index() < self.capacity {
            let (shard, slot) = self.locate(key);
            self.shards[shard].read()[slot]
                .as_ref()
                .filter(|held| held.gen == gen)
                .map(|held| (held.bytes.clone(), held.hash))
        } else {
            None
        };
        let counter = if out.is_some() {
            &self.gets
        } else {
            &self.missing_gets
        };
        counter.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Drop all cached fragments (proxy restart in tests).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut slots = shard.write();
            for s in slots.iter_mut() {
                *s = None;
            }
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock shards the slot array is striped over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().iter().filter(|s| s.is_some()).count())
            .sum()
    }

    /// Total bytes of cached fragment content.
    pub fn bytes_used(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .iter()
                    .filter_map(|s| s.as_ref().map(|held| held.bytes.len()))
                    .sum::<usize>()
            })
            .sum()
    }

    /// (sets, successful gets, gets on empty, out-of-range or
    /// other-generation slots).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.sets.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
            self.missing_gets.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let store = FragmentStore::new(8);
        assert!(store.set(DpcKey(3), 1, Bytes::from_static(b"abc")));
        assert_eq!(store.get(DpcKey(3), 1).unwrap(), Bytes::from_static(b"abc"));
    }

    #[test]
    fn slot_hash_follows_every_install() {
        let store = FragmentStore::new(8);
        assert!(store.get_hashed(DpcKey(1), 1).is_none());
        store.set(DpcKey(1), 1, Bytes::from_static(b"old"));
        let (bytes, hash) = store.get_hashed(DpcKey(1), 1).unwrap();
        assert_eq!((bytes.as_ref(), hash), (&b"old"[..], content_hash(b"old")));
        store.set(DpcKey(1), 2, Bytes::from_static(b"new"));
        assert_eq!(
            store.get_hashed(DpcKey(1), 2).unwrap().1,
            content_hash(b"new")
        );
        assert_eq!(store.counters(), (2, 2, 1), "get_hashed counts like get");
    }

    #[test]
    fn get_empty_slot_is_none_and_counted() {
        let store = FragmentStore::new(8);
        assert!(store.get(DpcKey(0), 1).is_none());
        assert_eq!(store.counters().2, 1);
    }

    #[test]
    fn out_of_range_set_rejected() {
        let store = FragmentStore::new(2);
        assert!(!store.set(DpcKey(2), 1, Bytes::from_static(b"x")));
        assert!(store.get(DpcKey(2), 1).is_none());
    }

    #[test]
    fn overwrite_replaces_content() {
        let store = FragmentStore::new(4);
        store.set(DpcKey(1), 1, Bytes::from_static(b"old"));
        store.set(DpcKey(1), 2, Bytes::from_static(b"new"));
        assert_eq!(store.get(DpcKey(1), 2).unwrap(), Bytes::from_static(b"new"));
        assert_eq!(store.occupied(), 1);
    }

    #[test]
    fn a_slot_serves_only_its_generation_and_keeps_the_newest() {
        let store = FragmentStore::new(4);
        store.set(DpcKey(1), 5, Bytes::from_static(b"five"));
        assert!(store.get(DpcKey(1), 4).is_none(), "an older GET");
        assert!(store.get(DpcKey(1), 6).is_none(), "a reassigned key's GET");
        // A late SET of an older generation leaves the newer bytes.
        store.set(DpcKey(1), 4, Bytes::from_static(b"four"));
        assert_eq!(
            store.get(DpcKey(1), 5).unwrap(),
            Bytes::from_static(b"five")
        );
        // An equal generation reinstalls (a refresh re-SETs it).
        store.set(DpcKey(1), 5, Bytes::from_static(b"five"));
        store.set(DpcKey(1), 6, Bytes::from_static(b"six"));
        assert!(store.get(DpcKey(1), 5).is_none());
        assert_eq!(store.get(DpcKey(1), 6).unwrap(), Bytes::from_static(b"six"));
        assert_eq!(store.counters(), (4, 2, 3));
    }

    #[test]
    fn accounting() {
        let store = FragmentStore::new(4);
        store.set(DpcKey(0), 1, Bytes::from(vec![1u8; 100]));
        store.set(DpcKey(1), 2, Bytes::from(vec![2u8; 50]));
        assert_eq!(store.bytes_used(), 150);
        assert_eq!(store.occupied(), 2);
        store.clear();
        assert_eq!(store.bytes_used(), 0);
        assert_eq!(store.occupied(), 0);
    }

    #[test]
    fn every_slot_addressable_at_every_shard_count() {
        for capacity in [1usize, 2, 7, 16, 33] {
            for shards in [1usize, 2, 3, 8, 16, 64] {
                let store = FragmentStore::with_shards(capacity, shards);
                for k in 0..capacity as u32 {
                    let content = Bytes::from(vec![k as u8; 4]);
                    assert!(
                        store.set(DpcKey(k), 1, content.clone()),
                        "cap {capacity} shards {shards} key {k}"
                    );
                    assert_eq!(store.get(DpcKey(k), 1).unwrap(), content);
                }
                assert_eq!(store.occupied(), capacity);
                assert!(!store.set(DpcKey(capacity as u32), 1, Bytes::from_static(b"x")));
            }
        }
    }

    #[test]
    fn shard_count_clamps() {
        assert_eq!(FragmentStore::with_shards(4, 16).shard_count(), 4);
        assert_eq!(FragmentStore::with_shards(0, 16).shard_count(), 1);
        assert_eq!(FragmentStore::new(4096).shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let store = Arc::new(FragmentStore::new(64));
        let mut joins = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            joins.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let key = DpcKey((t * 8 + i % 8) % 64);
                    store.set(key, u64::from(i), Bytes::from(vec![t as u8; 16]));
                    let _ = store.get(key, u64::from(i));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(store.occupied() > 0);
    }
}
