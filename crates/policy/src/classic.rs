//! The classical recency/insertion-order policies: LRU, CLOCK, FIFO, and
//! the degenerate `None`.
//!
//! Each policy counts membership from the map it already keeps. CLOCK and
//! FIFO keep their queues *lazily*: removal just drops the key from that
//! map, and stale queue entries (whose generation no longer matches) are
//! skipped when the sweep reaches them. This keeps `touch` and `remove`
//! O(1) regardless of resident count; the textbook retain-on-remove queue
//! would be quadratic under invalidation churn.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::{Key, Replacer};

/// Policy `None`: tracks membership (for the invariants) but never evicts.
pub struct NoReplacer<K> {
    residents: HashSet<K>,
}

impl<K: Key> Default for NoReplacer<K> {
    fn default() -> Self {
        NoReplacer {
            residents: HashSet::new(),
        }
    }
}

impl<K: Key> Replacer<K> for NoReplacer<K> {
    fn admit(&mut self, key: K) {
        self.residents.insert(key);
    }

    fn touch(&mut self, _key: &K) {}

    fn remove(&mut self, key: &K) {
        self.residents.remove(key);
    }

    fn pick_victim(&mut self) -> Option<K> {
        None
    }

    fn len(&self) -> usize {
        self.residents.len()
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used: evicts the key with the oldest touch stamp.
pub struct LruReplacer<K> {
    stamp: u64,
    by_stamp: BTreeMap<u64, K>,
    stamp_of: HashMap<K, u64>,
}

impl<K: Key> Default for LruReplacer<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> LruReplacer<K> {
    pub fn new() -> Self {
        LruReplacer {
            stamp: 0,
            by_stamp: BTreeMap::new(),
            stamp_of: HashMap::new(),
        }
    }

    fn bump(&mut self, key: K) {
        if let Some(old) = self.stamp_of.remove(&key) {
            self.by_stamp.remove(&old);
        }
        self.stamp += 1;
        self.by_stamp.insert(self.stamp, key.clone());
        self.stamp_of.insert(key, self.stamp);
    }
}

impl<K: Key> Replacer<K> for LruReplacer<K> {
    fn admit(&mut self, key: K) {
        self.bump(key);
    }

    fn touch(&mut self, key: &K) {
        if self.stamp_of.contains_key(key) {
            self.bump(key.clone());
        }
    }

    fn remove(&mut self, key: &K) {
        if let Some(old) = self.stamp_of.remove(key) {
            self.by_stamp.remove(&old);
        }
    }

    fn pick_victim(&mut self) -> Option<K> {
        let (_, key) = self.by_stamp.pop_first()?;
        self.stamp_of.remove(&key);
        Some(key)
    }

    fn len(&self) -> usize {
        self.stamp_of.len()
    }
}

// ---------------------------------------------------------------------------
// CLOCK (second chance)
// ---------------------------------------------------------------------------

/// CLOCK: a circular sweep giving touched entries a second chance. Cheaper
/// per-touch bookkeeping than LRU (a flag write, no reordering), at
/// slightly worse hit rate.
pub struct ClockReplacer<K> {
    /// Sweep ring of (key, generation); entries whose generation no longer
    /// matches `state` are stale and skipped.
    ring: VecDeque<(K, u64)>,
    /// Current (generation, referenced) per resident.
    state: HashMap<K, (u64, bool)>,
    generation: u64,
}

impl<K: Key> Default for ClockReplacer<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> ClockReplacer<K> {
    pub fn new() -> Self {
        ClockReplacer {
            ring: VecDeque::new(),
            state: HashMap::new(),
            generation: 0,
        }
    }

    /// Drop stale ring entries once they outnumber live ones. Removal only
    /// marks entries stale (O(1)); without this, a workload whose entries
    /// always leave via `remove` — invalidation churn on a directory that
    /// never fills — would grow the ring forever. Amortized O(1) per
    /// admission.
    fn maybe_compact(&mut self) {
        if self.ring.len() > (2 * self.state.len()).max(16) {
            self.ring
                .retain(|(k, g)| self.state.get(k).is_some_and(|(cur, _)| cur == g));
        }
    }
}

impl<K: Key> Replacer<K> for ClockReplacer<K> {
    fn admit(&mut self, key: K) {
        if !self.state.contains_key(&key) {
            self.generation += 1;
            self.state.insert(key.clone(), (self.generation, false));
            self.ring.push_back((key, self.generation));
            self.maybe_compact();
        }
    }

    fn touch(&mut self, key: &K) {
        if let Some((_, referenced)) = self.state.get_mut(key) {
            *referenced = true;
        }
    }

    fn remove(&mut self, key: &K) {
        self.state.remove(key);
    }

    fn pick_victim(&mut self) -> Option<K> {
        while let Some((key, generation)) = self.ring.pop_front() {
            match self.state.get_mut(&key) {
                Some((g, referenced)) if *g == generation => {
                    if *referenced {
                        *referenced = false; // second chance
                        self.ring.push_back((key, generation));
                    } else {
                        self.state.remove(&key);
                        return Some(key);
                    }
                }
                // Stale ring entry (removed or re-admitted since): skip.
                _ => continue,
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.state.len()
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// FIFO: evicts in insertion order, ignoring touches.
pub struct FifoReplacer<K> {
    queue: VecDeque<(K, u64)>,
    generation_of: HashMap<K, u64>,
    generation: u64,
}

impl<K: Key> Default for FifoReplacer<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> FifoReplacer<K> {
    pub fn new() -> Self {
        FifoReplacer {
            queue: VecDeque::new(),
            generation_of: HashMap::new(),
            generation: 0,
        }
    }

    /// Same stale-entry bound as [`ClockReplacer::maybe_compact`].
    fn maybe_compact(&mut self) {
        if self.queue.len() > (2 * self.generation_of.len()).max(16) {
            self.queue
                .retain(|(k, g)| self.generation_of.get(k) == Some(g));
        }
    }
}

impl<K: Key> Replacer<K> for FifoReplacer<K> {
    fn admit(&mut self, key: K) {
        if !self.generation_of.contains_key(&key) {
            self.generation += 1;
            self.generation_of.insert(key.clone(), self.generation);
            self.queue.push_back((key, self.generation));
            self.maybe_compact();
        }
    }

    fn touch(&mut self, _key: &K) {}

    fn remove(&mut self, key: &K) {
        self.generation_of.remove(key);
    }

    fn pick_victim(&mut self) -> Option<K> {
        while let Some((key, generation)) = self.queue.pop_front() {
            if self.generation_of.get(&key) == Some(&generation) {
                self.generation_of.remove(&key);
                return Some(key);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.generation_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u32) -> u64 {
        n as u64
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = LruReplacer::new();
        r.admit(k(1));
        r.admit(k(2));
        r.admit(k(3));
        r.touch(&k(1)); // 2 is now oldest
        assert_eq!(r.pick_victim(), Some(k(2)));
        assert_eq!(r.pick_victim(), Some(k(3)));
        assert_eq!(r.pick_victim(), Some(k(1)));
        assert_eq!(r.pick_victim(), None);
    }

    #[test]
    fn lru_remove_excludes_key() {
        let mut r = LruReplacer::new();
        r.admit(k(1));
        r.admit(k(2));
        r.remove(&k(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pick_victim(), Some(k(2)));
        assert_eq!(r.pick_victim(), None);
    }

    #[test]
    fn lru_touch_of_unknown_key_is_noop() {
        let mut r = LruReplacer::<u64>::new();
        r.touch(&k(9));
        assert_eq!(r.len(), 0);
        assert_eq!(r.pick_victim(), None);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut r = ClockReplacer::new();
        r.admit(k(1));
        r.admit(k(2));
        r.admit(k(3));
        r.touch(&k(1));
        // 1 is referenced: sweep skips it once and evicts 2.
        assert_eq!(r.pick_victim(), Some(k(2)));
        // 1 lost its reference bit during the sweep; 3 comes first now.
        assert_eq!(r.pick_victim(), Some(k(3)));
        assert_eq!(r.pick_victim(), Some(k(1)));
    }

    #[test]
    fn clock_all_referenced_still_terminates() {
        let mut r = ClockReplacer::new();
        for i in 0..4 {
            r.admit(k(i));
            r.touch(&k(i));
        }
        assert!(r.pick_victim().is_some());
    }

    #[test]
    fn clock_readmission_invalidates_stale_ring_entry() {
        let mut r = ClockReplacer::new();
        r.admit(k(1));
        r.admit(k(2));
        r.remove(&k(1));
        r.admit(k(1)); // fresh generation; old ring slot is stale
        assert_eq!(r.len(), 2);
        assert_eq!(r.pick_victim(), Some(k(2)));
        assert_eq!(r.pick_victim(), Some(k(1)));
        assert_eq!(r.pick_victim(), None);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut r = FifoReplacer::new();
        r.admit(k(1));
        r.admit(k(2));
        r.touch(&k(1));
        assert_eq!(r.pick_victim(), Some(k(1)));
    }

    #[test]
    fn lazy_queues_stay_bounded_under_remove_churn() {
        // Entries that only ever leave via `remove` (invalidation churn on
        // a never-full directory) must not grow the sweep queues: removal
        // marks entries stale, and admission compacts once stale outnumber
        // live.
        let mut clock = ClockReplacer::new();
        let mut fifo = FifoReplacer::new();
        for i in 0..10_000u64 {
            clock.admit(i);
            clock.remove(&i);
            fifo.admit(i);
            fifo.remove(&i);
        }
        assert!(
            clock.ring.len() <= 32,
            "clock ring {} entries",
            clock.ring.len()
        );
        assert!(
            fifo.queue.len() <= 32,
            "fifo queue {} entries",
            fifo.queue.len()
        );
        assert_eq!(clock.len() + fifo.len(), 0);
    }

    fn evicting() -> [(&'static str, Box<dyn Replacer<u64>>); 3] {
        [
            ("lru", Box::new(LruReplacer::new())),
            ("clock", Box::new(ClockReplacer::new())),
            ("fifo", Box::new(FifoReplacer::new())),
        ]
    }

    #[test]
    fn double_insert_is_idempotent() {
        for (name, mut r) in evicting() {
            r.admit(k(7));
            r.admit(k(7));
            assert_eq!(r.len(), 1, "{name}");
            assert_eq!(r.pick_victim(), Some(k(7)), "{name}");
            assert_eq!(r.pick_victim(), None, "{name}");
        }
    }

    #[test]
    fn remove_unknown_is_noop() {
        for (name, mut r) in evicting() {
            r.remove(&k(42));
            assert_eq!(r.len(), 0, "{name}");
        }
    }
}
