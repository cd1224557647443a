//! The cache-replacement policies.
//!
//! The paper's *cache replacement manager* "monitors the size of the cache
//! directory and selects fragments for replacement when the directory size
//! exceeds some specified threshold" without fixing a policy. This module
//! holds the [`Replacer`] contract the serving caches drive and the four
//! policies a [`ReplacePolicy`] can select. It also hosts the workspace's
//! key and content hashes ([`fnv1a`], [`content_hash`], [`hash_fold`]).
//!
//! ## The contract
//!
//! A replacer tracks the *resident* set of a cache by key. The cache
//! drives it with five calls:
//!
//! * [`Replacer::admit`] when a key becomes resident (a new fragment or
//!   page was cached).
//! * [`Replacer::touch`] on every hit.
//! * [`Replacer::remove`] when a key leaves the resident set for a reason
//!   that is *not* replacement — invalidation or TTL expiry. Removals are
//!   never eviction decisions and must not be accounted as such.
//! * [`Replacer::pick_victim`] when the cache is full: the policy names a
//!   victim and stops tracking it.
//! * [`Replacer::len`] for the caches' invariant checks.
//!
//! Keys are generic ([`Key`]): the BEM directory drives one
//! `Replacer<DpcKey>`; the proxy page cache holds an
//! [`LruReplacer<u64>`] keyed by URL hash, so its hit path stays
//! allocation-free. Byte accounting is the caches' own: no policy here
//! reads sizes.
//!
//! ## The menu
//!
//! | policy | type | evicts |
//! |---|---|---|
//! | LRU (default) | [`LruReplacer`] | the least recently admitted or touched |
//! | CLOCK | [`ClockReplacer`] | the first unreferenced entry in a second-chance sweep |
//! | FIFO | [`FifoReplacer`] | the oldest admitted, ignoring touches |
//! | None | [`NoReplacer`] | nothing: a full cache serves misses uncached |

pub mod classic;

pub use classic::{ClockReplacer, FifoReplacer, LruReplacer, NoReplacer};

use std::hash::Hash;

/// Bounds a cache key must satisfy to be tracked by a [`Replacer`].
pub trait Key: Clone + Eq + Hash + Send {}
impl<T: Clone + Eq + Hash + Send> Key for T {}

/// Replacement policy driven by a cache. See the module docs for the
/// protocol.
// `len` feeds the caches' invariant checks; no cache asks for emptiness.
#[allow(clippy::len_without_is_empty)]
pub trait Replacer<K: Key>: Send {
    /// A key becomes resident. Admitting a tracked key again keeps one
    /// entry.
    fn admit(&mut self, key: K);

    /// A resident key was hit. Unknown keys are a no-op.
    fn touch(&mut self, key: &K);

    /// A key left the resident set by invalidation/expiry (not
    /// replacement). Idempotent; unknown keys are a no-op.
    fn remove(&mut self, key: &K);

    /// Choose and untrack a victim. None when nothing is tracked, or
    /// always for a policy that never evicts.
    fn pick_victim(&mut self) -> Option<K>;

    /// Number of tracked residents.
    fn len(&self) -> usize;
}

/// Which replacement policy a cache runs. Every consumer that lets the
/// policy vary builds its replacer through [`ReplacePolicy::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacePolicy {
    /// Least recently used (default).
    #[default]
    Lru,
    /// CLOCK / second chance.
    Clock,
    /// First in, first out.
    Fifo,
    /// No replacement: allocations fail when the cache is full. Misses
    /// then serve content inline without caching (degraded but correct).
    None,
}

impl ReplacePolicy {
    /// Every selectable policy.
    pub const ALL: [ReplacePolicy; 4] = [
        ReplacePolicy::Lru,
        ReplacePolicy::Clock,
        ReplacePolicy::Fifo,
        ReplacePolicy::None,
    ];

    /// Stable lowercase name (reports, JSON).
    pub fn name(self) -> &'static str {
        match self {
            ReplacePolicy::Lru => "lru",
            ReplacePolicy::Clock => "clock",
            ReplacePolicy::Fifo => "fifo",
            ReplacePolicy::None => "none",
        }
    }

    /// Instantiate the replacer.
    pub fn build<K: Key + 'static>(self) -> Box<dyn Replacer<K>> {
        match self {
            ReplacePolicy::Lru => Box::new(LruReplacer::new()),
            ReplacePolicy::Clock => Box::new(ClockReplacer::new()),
            ReplacePolicy::Fifo => Box::new(FifoReplacer::new()),
            ReplacePolicy::None => Box::new(NoReplacer::default()),
        }
    }
}

/// FNV-1a over a short byte string — the workspace's deterministic hash
/// for keys and idents (URLs, fragment ids, dependency names).
/// Byte-at-a-time: hash *content* with [`content_hash`] instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P0: u64 = 0xa076_1d64_78bd_642f;
const P1: u64 = 0xe703_7ed1_a0b4_28db;
const P2: u64 = 0x8ebc_6af0_9c88_c6e3;

/// 64×64→128-bit multiply, folded back to 64 bits by xoring the halves,
/// so high input bits reach low output bits (a bare multiply only
/// carries upwards).
#[inline]
fn folded_mul(a: u64, b: u64) -> u64 {
    let r = u128::from(a) * u128::from(b);
    (r as u64) ^ ((r >> 64) as u64)
}

/// The identity of a byte string's *content*: fragment bodies, literal
/// runs, anything whose hash is a validator (ETags). Seeded with the
/// length, it takes 8 bytes per step through a
/// folded multiply (wyhash-style): one multiply per word where byte-wise
/// [`fnv1a`] pays one per byte. Not for keys: it is a content
/// fingerprint, compared for equality only.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut h = folded_mul(len ^ P0, P1);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = folded_mul(h ^ w, P1);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Zero-padded: the seeded length tells "ab" from "ab\0".
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = folded_mul(h ^ u64::from_le_bytes(last), P1);
    }
    folded_mul(h ^ P2, P0)
}

/// Fold one segment's `(hash, len)` into an ordered running identity: the
/// page assembler's combiner over per-segment [`content_hash`]es. Order-
/// and length-sensitive, so swapping, merging or resizing segments changes
/// the result.
pub fn hash_fold(acc: u64, segment_hash: u64, segment_len: u64) -> u64 {
    folded_mul(acc ^ segment_hash, segment_len ^ P1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names = ReplacePolicy::ALL.map(ReplacePolicy::name);
        assert_eq!(names, ["lru", "clock", "fifo", "none"]);
        assert_eq!(ReplacePolicy::default(), ReplacePolicy::Lru);
    }

    #[test]
    fn content_hash_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..37u8).collect();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(content_hash(&base)));
        // Every single-bit flip, in the word loop and in the tail alike.
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert!(seen.insert(content_hash(&flipped)), "byte {i} bit {bit}");
            }
        }
        // Zero padding of the tail is not a collision: every prefix of a
        // zero run, the empty string included, hashes apart.
        for n in 0..=17 {
            assert!(seen.insert(content_hash(&vec![0u8; n])), "{n} zeros");
        }
    }

    #[test]
    fn hash_fold_is_order_and_length_sensitive() {
        let (a, b) = (content_hash(b"a"), content_hash(b"b"));
        let ab = hash_fold(hash_fold(0, a, 1), b, 1);
        assert_ne!(ab, hash_fold(hash_fold(0, b, 1), a, 1));
        assert_ne!(ab, hash_fold(hash_fold(0, a, 1), b, 2));
    }
}
