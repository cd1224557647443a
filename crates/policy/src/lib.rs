//! # dpc-policy — the pluggable cache-replacement engine
//!
//! The paper's *cache replacement manager* "monitors the size of the cache
//! directory and selects fragments for replacement when the directory size
//! exceeds some specified threshold" without fixing a policy. This crate
//! makes the policy a first-class subsystem: a generic [`Replacer`]
//! contract with size- and cost-aware signals, seven implementations, and
//! a deterministic trace-driven hit-ratio lab ([`lab`]) that measures them
//! against each other before any of them touches a serving tier.
//!
//! ## The contract
//!
//! A replacer tracks the *resident* set of a cache by key. The cache
//! drives it:
//!
//! * [`Replacer::admit`] when a key becomes resident (a new fragment was
//!   cached). Admission may be *refused* by admission-controlled policies;
//!   the caller then serves the content uncached.
//! * [`Replacer::touch`] on every hit.
//! * [`Replacer::remove`] when a key leaves the resident set for a reason
//!   that is *not* replacement — invalidation or TTL expiry. Removals are
//!   never eviction decisions and must not be accounted as such.
//! * [`Replacer::evict_for`] when the cache is full and a candidate wants
//!   in: the policy either names a victim or rejects the candidate.
//! * [`Replacer::evict_until`] when a byte budget must be recovered
//!   (size-aware stores).
//!
//! Keys are generic ([`Key`]): the BEM directory drives a
//! `Replacer<DpcKey>`; the proxy page cache and the lab drive
//! `Replacer<u64>` (the page cache keys by URL hash so its hit path
//! stays allocation-free). Because low-level caches recycle their keys (a
//! `dpcKey` freed by invalidation is reassigned to unrelated content),
//! every signal also carries an `ident` — a stable 64-bit identity of the
//! *content* (e.g. a hash of the fragment id). Frequency-based policies
//! (TinyLFU, 2Q's ghost queue) accumulate history by ident, never by key,
//! so key recycling cannot launder one fragment's popularity into
//! another's.
//!
//! ## The menu
//!
//! | policy | module | keeps | resists |
//! |---|---|---|---|
//! | LRU | [`classic`] | recently used | — |
//! | CLOCK | [`classic`] | recently used (approx.) | — |
//! | FIFO | [`classic`] | newest inserted | — |
//! | GDSF | [`gdsf`] | small + frequent (size-aware greedy-dual) | large one-shot objects |
//! | 2Q | [`twoq`] | re-referenced (A1in/A1out ghost probation) | sequential scans |
//! | TinyLFU | [`tinylfu`] | frequent (count-min sketch + doorkeeper) | scans and one-hit wonders |

pub mod classic;
pub mod gdsf;
pub mod lab;
pub mod tinylfu;
pub mod twoq;

mod book;

pub use classic::{ClockReplacer, FifoReplacer, LruReplacer, NoReplacer};
pub use gdsf::GdsfReplacer;
pub use tinylfu::TinyLfuReplacer;
pub use twoq::TwoQReplacer;

use std::hash::Hash;

/// Bounds a cache key must satisfy to be tracked by a [`Replacer`].
pub trait Key: Clone + Eq + Hash + Send {}
impl<T: Clone + Eq + Hash + Send> Key for T {}

/// Replacement policy driven by a cache. See the crate docs for the
/// protocol; `ident` is the stable content identity, `bytes` the resident
/// size (pass 1 for slot-based caches that count entries, and correct it
/// later with [`Replacer::update_bytes`] once the size is known).
pub trait Replacer<K: Key>: Send {
    /// A key becomes resident. Returns false when the policy refuses
    /// admission (the caller must then not cache the content). Policies
    /// shipped here always admit once a slot has been granted —
    /// admission control happens in [`Replacer::evict_for`] — but the
    /// contract allows refusal so custom policies can gate the free-space
    /// path too.
    fn admit(&mut self, key: K, ident: u64, bytes: u64) -> bool;

    /// A resident key was hit. Unknown keys are a no-op.
    fn touch(&mut self, key: &K);

    /// A key left the resident set by invalidation/expiry (not
    /// replacement). Idempotent; unknown keys are a no-op.
    fn remove(&mut self, key: &K);

    /// The resident size of `key` became known or changed.
    fn update_bytes(&mut self, key: &K, bytes: u64);

    /// Unconditionally choose and untrack a victim (byte-budget recovery,
    /// generic pressure). None when nothing is tracked.
    fn pick_victim(&mut self) -> Option<K>;

    /// The cache is full and candidate (`ident`, `bytes`) wants in:
    /// either name a victim (now untracked; the caller frees it and then
    /// calls [`Replacer::admit`] for the candidate) or return None to
    /// reject the candidate. The default accepts every candidate and
    /// evicts [`Replacer::pick_victim`].
    fn evict_for(&mut self, ident: u64, bytes: u64) -> Option<K> {
        let _ = (ident, bytes);
        self.pick_victim()
    }

    /// Evict victims until at least `need_bytes` of resident bytes have
    /// been released or nothing is left; returns the victims in eviction
    /// order.
    fn evict_until(&mut self, need_bytes: u64) -> Vec<K> {
        let mut freed = 0u64;
        let mut victims = Vec::new();
        while freed < need_bytes {
            let before = self.resident_bytes();
            match self.pick_victim() {
                Some(victim) => {
                    freed += before - self.resident_bytes();
                    victims.push(victim);
                }
                None => break,
            }
        }
        victims
    }

    /// Whether this policy ever *refuses* candidates in
    /// [`Replacer::evict_for`] (admission control, e.g. TinyLFU). Callers
    /// use this to account a `None` from a non-empty cache as an
    /// admission rejection rather than a plain capacity refusal (the
    /// `None` policy also returns no victim, but that is not an
    /// admission decision).
    fn is_admission_controlled(&self) -> bool {
        false
    }

    /// Total bytes of tracked residents.
    fn resident_bytes(&self) -> u64;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Number of tracked residents.
    fn len(&self) -> usize;

    /// True when nothing is tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which replacement policy a cache runs. Selecting a policy is pure
/// configuration: every consumer builds its replacer through
/// [`ReplacePolicy::build`], so new policies land here without touching
/// any cache internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacePolicy {
    /// Least recently used (default).
    #[default]
    Lru,
    /// CLOCK / second chance.
    Clock,
    /// First in, first out.
    Fifo,
    /// Greedy-Dual-Size-Frequency: size-aware, favours small + frequently
    /// hit objects; the inflation clock ages stale value away.
    Gdsf,
    /// 2Q: a FIFO probation queue (A1in) plus a ghost queue of recently
    /// evicted identities (A1out); only re-referenced content reaches the
    /// protected LRU. Scan-resistant.
    TwoQ,
    /// TinyLFU admission over a resident LRU: a count-min sketch with
    /// doorkeeper estimates frequencies, and a candidate only displaces
    /// the LRU victim when it is more popular. Periodic halving ages the
    /// sketch. Scan-resistant.
    TinyLfu,
    /// No replacement: allocations fail when the cache is full. Misses
    /// then serve content inline without caching (degraded but correct).
    None,
}

impl ReplacePolicy {
    /// Every selectable policy.
    pub const ALL: [ReplacePolicy; 7] = [
        ReplacePolicy::Lru,
        ReplacePolicy::Clock,
        ReplacePolicy::Fifo,
        ReplacePolicy::Gdsf,
        ReplacePolicy::TwoQ,
        ReplacePolicy::TinyLfu,
        ReplacePolicy::None,
    ];

    /// The policies that actually evict (everything but `None`) — the
    /// set the lab and the contract suite compare.
    pub const EVICTING: [ReplacePolicy; 6] = [
        ReplacePolicy::Lru,
        ReplacePolicy::Clock,
        ReplacePolicy::Fifo,
        ReplacePolicy::Gdsf,
        ReplacePolicy::TwoQ,
        ReplacePolicy::TinyLfu,
    ];

    /// Stable lowercase name (reports, JSON).
    pub fn name(self) -> &'static str {
        match self {
            ReplacePolicy::Lru => "lru",
            ReplacePolicy::Clock => "clock",
            ReplacePolicy::Fifo => "fifo",
            ReplacePolicy::Gdsf => "gdsf",
            ReplacePolicy::TwoQ => "2q",
            ReplacePolicy::TinyLfu => "tinylfu",
            ReplacePolicy::None => "none",
        }
    }

    /// Instantiate the replacer. `capacity_hint` is the rough number of
    /// residents the cache holds at capacity; policies with internal
    /// structure (2Q queue quotas, TinyLFU sketch width and sample
    /// period) size themselves from it. Policies without such structure
    /// ignore it.
    pub fn build<K: Key + 'static>(self, capacity_hint: usize) -> Box<dyn Replacer<K>> {
        match self {
            ReplacePolicy::Lru => Box::new(LruReplacer::new()),
            ReplacePolicy::Clock => Box::new(ClockReplacer::new()),
            ReplacePolicy::Fifo => Box::new(FifoReplacer::new()),
            ReplacePolicy::Gdsf => Box::new(GdsfReplacer::new()),
            ReplacePolicy::TwoQ => Box::new(TwoQReplacer::new(capacity_hint)),
            ReplacePolicy::TinyLfu => Box::new(TinyLfuReplacer::new(capacity_hint)),
            ReplacePolicy::None => Box::new(NoReplacer::default()),
        }
    }
}

/// FNV-1a over a short byte string — the workspace's deterministic hash
/// for keys and idents (URLs, fragment ids, dependency names), also used
/// to derive the identities [`Replacer`] signals carry. Byte-at-a-time:
/// hash *content* with [`content_hash`] instead.
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
/// runs, anything whose hash is a validator (ETags, the peer leg's
/// `known`). Seeded with the length, it takes 8 bytes per step through a
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
        let mut seen = std::collections::HashSet::new();
        for p in ReplacePolicy::ALL {
            assert!(seen.insert(p.name()), "duplicate name {}", p.name());
            let r: Box<dyn Replacer<u64>> = p.build(16);
            assert_eq!(r.name(), p.name());
        }
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

    #[test]
    fn evicting_excludes_none() {
        assert!(!ReplacePolicy::EVICTING.contains(&ReplacePolicy::None));
        assert_eq!(ReplacePolicy::EVICTING.len() + 1, ReplacePolicy::ALL.len());
    }
}
