//! The BEM's cache directory and freeList.
//!
//! Paper, §4.3.3: the directory tracks, per fragment, the `fragmentID`, the
//! `dpcKey`, an `isValid` flag and a `ttl`. Keys are drawn from a
//! **freeList** whose size is at least the maximum cache size; invalidated
//! fragments are *not* removed from the DPC — their key simply returns to
//! the freeList and the slot's stale bytes sit unused until the key is
//! reassigned and the next `SET` overwrites them. This gives coherence with
//! zero proxy-bound messages.
//!
//! The directory is that one table: a single mutex over every entry, the
//! freeList, the fresh-key cursor over `0..capacity`, the dependency index
//! and one replacement manager. Its callers are the origin's event loops,
//! the update paths and the TTL sweeper; a hit holds the lock for one map
//! probe and a replacer touch.
//!
//! Three events retire a valid entry:
//!
//! * **TTL expiry** — checked lazily on lookup and eagerly by
//!   [`CacheDirectory::sweep_expired`].
//! * **Data-source invalidation** — an update to an underlying table/key
//!   invalidates every fragment registered as depending on it.
//! * **Replacement** — when all keys are valid and a new fragment needs
//!   one, the replacement manager picks a victim (policy-pluggable, see
//!   [`dpc_policy`]).

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dpc_net::Clock;

use crate::config::BemConfig;
use crate::flight::FlightGroup;
use crate::key::{DpcKey, FragmentId};
use dpc_policy::{fnv1a, Replacer};

/// Directories keep invalidated entries around (the paper's `isValid`
/// flag). To bound memory on long runs, a directory whose entry count
/// exceeds its capacity (at least 16) times this factor garbage-collects
/// its invalid entries oldest-first.
const GARBAGE_FACTOR: usize = 4;

/// Outcome of a directory lookup for a cacheable fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Fragment is cached and valid, and the requesting node's slot holds
    /// it (or is empty): emit a `GET key` instruction.
    Hit(DpcKey),
    /// Fragment was absent/invalid/expired; a key has been allocated and
    /// the entry marked valid: generate content and emit `SET key`.
    Miss(DpcKey),
    /// Every key is valid and the replacement policy yielded no victim:
    /// generate content inline, uncached.
    Uncacheable,
}

/// Per-fragment directory entry (the paper's table in §4.3.3).
#[derive(Debug, Clone)]
struct Entry {
    dpc_key: DpcKey,
    is_valid: bool,
    /// Content size in bytes, 0 until the producing code block reports it
    /// via [`CacheDirectory::note_fragment_bytes`] (the directory issues
    /// the key *before* content exists). Feeds the resident-bytes gauges.
    bytes: u64,
    /// Bitmask of DPC nodes whose slot array holds this fragment. In the
    /// paper's reverse-proxy configuration there is a single node (bit 0);
    /// the §7 forward-proxy extension runs up to 64 distributed DPCs whose
    /// stores are populated independently — the directory tracks which
    /// nodes have seen the `SET` so a node that has not yet stored the
    /// fragment is served a fresh `SET` instead of a dangling `GET`.
    ///
    /// A set bit means "that node's slot holds this entry's bytes, or is
    /// empty" — never an older generation's bytes. A ring's scrub may
    /// empty the slot behind the bit; the node then names the key in a
    /// refresh and [`CacheDirectory::forget_stored`] clears the bit.
    stored_nodes: u64,
    /// Absolute expiry in clock-nanos (`u64::MAX` = never).
    expires_at: u64,
    /// Data-source dependencies registered for invalidation.
    deps: Vec<String>,
    hits: u64,
    /// Monotonic insertion sequence, for garbage-collecting stale invalid
    /// entries oldest-first.
    seq: u64,
}

/// Counter snapshot for the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    pub hits: u64,
    pub misses: u64,
    /// Valid fragments that had to be re-`SET` for a DPC node that had not
    /// stored them yet (multi-node/forward-proxy operation only).
    pub node_misses: u64,
    pub expirations: u64,
    pub invalidations: u64,
    /// Victims chosen by the replacement policy to make room. Disjoint
    /// from `invalidations`/`expirations`: a slot freed by invalidation
    /// returns its key through the freeList and is never double-counted
    /// here.
    pub evictions: u64,
    pub uncacheable: u64,
    /// Known content bytes of currently valid fragments (entries whose
    /// producer has not reported a size yet count 0).
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the directory's lifetime.
    pub resident_bytes_hwm: u64,
    /// Single-flight leaderships taken against this directory's flight
    /// group (one per produce-running miss on a coalesced arm).
    pub flight_leaders: u64,
    /// Misses served by parking on an in-flight leader's computation.
    pub coalesced_waits: u64,
    /// Flight laps retried (mid-flight invalidation or leader failure).
    pub flight_retries: u64,
    /// Gauges at snapshot time.
    pub valid_entries: usize,
    pub total_entries: usize,
    pub free_keys: usize,
}

impl DirectoryStats {
    /// Measured hit ratio `h` over cacheable lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.uncacheable;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Mutable state of the directory, all under its one mutex.
struct Inner {
    entries: HashMap<FragmentId, Entry>,
    /// Owner of each *valid* key.
    key_owner: HashMap<DpcKey, FragmentId>,
    free_list: VecDeque<DpcKey>,
    /// Keys `0..next_fresh` have been handed out at least once.
    next_fresh: u32,
    replacer: Box<dyn Replacer<DpcKey>>,
    dep_index: HashMap<String, HashSet<FragmentId>>,
    seq: u64,
    hits: u64,
    misses: u64,
    node_misses: u64,
    expirations: u64,
    invalidations: u64,
    evictions: u64,
    uncacheable: u64,
    resident_bytes: u64,
    resident_bytes_hwm: u64,
}

/// Thread-safe cache directory.
pub struct CacheDirectory {
    clock: Clock,
    capacity: usize,
    garbage_limit: usize,
    inner: Mutex<Inner>,
    /// Every directory lock acquisition. Not a stat for tuning; it exists
    /// so tests can pin lock-freedom claims (the proxy's page tier asserts
    /// its hit path takes zero directory locks by diffing this counter).
    lock_acquisitions: AtomicU64,
    /// Single-flight group for miss coalescing, keyed by the
    /// fragment-identity hash ([`CacheDirectory::flight_key`]) — NOT by
    /// the `DpcKey` slot index, which is recycled through the freeList
    /// and could wake a waiter parked on one fragment with a different
    /// fragment's bytes once the key was reassigned. The directory owns
    /// the group because the directory owns every path that retires an
    /// entry (invalidation, eviction, TTL expiry) — each of those stamps
    /// any in-flight computation for the fragment stale, so a result
    /// produced against a dead generation is never published. Flight
    /// state is taken as a leaf lock (the directory lock may be held; the
    /// flight mutex never wraps it).
    flight: FlightGroup<u64, Bytes>,
}

fn fragment_hash(id: &FragmentId) -> u64 {
    fnv1a(id.as_str().as_bytes())
}

impl CacheDirectory {
    /// Build a directory from the BEM configuration.
    pub fn new(config: &BemConfig) -> CacheDirectory {
        CacheDirectory {
            clock: config.clock.clone(),
            capacity: config.capacity,
            garbage_limit: config.capacity.max(16).saturating_mul(GARBAGE_FACTOR),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                key_owner: HashMap::new(),
                free_list: VecDeque::new(),
                next_fresh: 0,
                replacer: config.replace.build(),
                dep_index: HashMap::new(),
                seq: 0,
                hits: 0,
                misses: 0,
                node_misses: 0,
                expirations: 0,
                invalidations: 0,
                evictions: 0,
                uncacheable: 0,
                resident_bytes: 0,
                resident_bytes_hwm: 0,
            }),
            lock_acquisitions: AtomicU64::new(0),
            flight: FlightGroup::new(),
        }
    }

    /// The directory's single-flight group (miss coalescing). Writers take
    /// leadership after a `Lookup::Miss` and park on it from hit paths
    /// whose slot is still being produced.
    pub fn flight(&self) -> &FlightGroup<u64, Bytes> {
        &self.flight
    }

    /// The flight-group key for `id`: the fragment-identity hash. Flights
    /// are keyed by fragment identity, which is stable for the life of the
    /// system, rather than by `DpcKey` — slot indices cycle through the
    /// freeList, and a waiter keyed on a bare index could park on one
    /// fragment's flight and be woken with another fragment's bytes after
    /// a recycle.
    pub fn flight_key(&self, id: &FragmentId) -> u64 {
        fragment_hash(id)
    }

    /// `id`'s key if the fragment is currently valid and unexpired. This
    /// is the coalesced-wait re-validation hook: a waiter that parked on
    /// `id`'s flight re-checks that the key it looked up still belongs to
    /// `id` before emitting a `SET` under it — the key may have been
    /// freed and reassigned to another fragment while the waiter was
    /// parked. One lock and one map probe.
    pub fn current_key(&self, id: &FragmentId) -> Option<DpcKey> {
        let now = self.clock.now_nanos();
        self.lock_inner()
            .entries
            .get(id)
            .filter(|e| e.is_valid && e.expires_at > now)
            .map(|e| e.dpc_key)
    }

    /// Maximum number of simultaneously valid fragments (= DPC slots).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Take the directory mutex, counting the acquisition. Every
    /// directory path goes through here so
    /// [`lock_acquisitions`](CacheDirectory::lock_acquisitions) is an
    /// exact census, not a sample.
    #[inline]
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }

    /// Total directory lock acquisitions since construction. Lets tests
    /// pin that a code path is directory-lock-free: snapshot, run the
    /// path, assert zero delta.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Look up `id`; on miss, allocate a key, register `deps`, and mark the
    /// entry valid with expiry `now + ttl`. Single-node (reverse-proxy)
    /// form of [`CacheDirectory::lookup_node`].
    pub fn lookup(&self, id: &FragmentId, ttl: Duration, deps: &[String]) -> Lookup {
        self.lookup_node(id, ttl, deps, 0)
    }

    /// Multi-node lookup: `node` identifies which DPC's slot store will
    /// interpret the emitted instruction (0–63). A fragment that is valid
    /// in the directory but not yet stored on `node` is re-emitted as a
    /// `SET` under its existing key — a *node miss* — so every distributed
    /// DPC converges without any proxy-bound coherence traffic (§7).
    pub fn lookup_node(
        &self,
        id: &FragmentId,
        ttl: Duration,
        deps: &[String],
        node: u32,
    ) -> Lookup {
        assert!(node < 64, "at most 64 DPC nodes are supported");
        let node_bit = 1u64 << node;
        let now = self.clock.now_nanos();
        let mut inner = self.lock_inner();
        let inner = &mut *inner;

        if let Some(entry) = inner.entries.get_mut(id) {
            if entry.is_valid {
                if entry.expires_at > now {
                    entry.hits += 1;
                    inner.replacer.touch(&entry.dpc_key);
                    if entry.stored_nodes & node_bit != 0 {
                        inner.hits += 1;
                        return Lookup::Hit(entry.dpc_key);
                    }
                    // Node miss: this DPC has not stored the fragment yet.
                    // Re-emit a SET under the existing key and set its bit:
                    // a node installs every SET its template carries.
                    entry.stored_nodes |= node_bit;
                    inner.node_misses += 1;
                    return Lookup::Miss(entry.dpc_key);
                }
                // Lazy TTL expiry: retire the entry, then fall through to
                // the miss path (which will typically reuse the same key).
                let key = entry.dpc_key;
                entry.is_valid = false;
                entry.stored_nodes = 0;
                inner.resident_bytes -= entry.bytes;
                entry.bytes = 0;
                inner.expirations += 1;
                inner.key_owner.remove(&key);
                inner.free_list.push_back(key);
                inner.replacer.remove(&key);
                let deps = std::mem::take(&mut entry.deps);
                Self::unregister_deps(&mut inner.dep_index, id, &deps);
                self.flight.invalidate(fragment_hash(id));
            }
        }
        // Miss path: allocate a key (freeList, then fresh keys, then
        // replacement).
        let Some(key) = self.allocate_key(inner) else {
            inner.uncacheable += 1;
            return Lookup::Uncacheable;
        };
        inner.replacer.admit(key);
        inner.misses += 1;
        inner.seq += 1;
        let expires_at = match ttl.as_nanos().try_into() {
            Ok(n) => now.saturating_add(n),
            Err(_) => u64::MAX,
        };
        let entry = Entry {
            dpc_key: key,
            is_valid: true,
            bytes: 0,
            expires_at,
            deps: deps.to_vec(),
            hits: 0,
            stored_nodes: node_bit,
            seq: inner.seq,
        };
        for dep in deps {
            inner
                .dep_index
                .entry(dep.clone())
                .or_default()
                .insert(id.clone());
        }
        inner.entries.insert(id.clone(), entry);
        inner.key_owner.insert(key, id.clone());
        Self::collect_garbage(inner, self.garbage_limit);
        Lookup::Miss(key)
    }

    /// Clear `node`'s stored bit on the valid entries that currently own
    /// `keys`, so the node's next lookup of each is a node-miss `SET`.
    /// A node calls this (through a refresh request) for keys whose `GET`
    /// found its slot empty. Keys that are free, out of range, or whose
    /// entry lacks the bit are skipped. Returns the number of bits
    /// cleared.
    ///
    /// A key reassigned since the node saw it clears the bit of the new
    /// owner instead: harmless, since a cleared bit only costs a `SET`.
    pub fn forget_stored(&self, node: u32, keys: &[DpcKey]) -> usize {
        assert!(node < 64, "at most 64 DPC nodes are supported");
        let node_bit = 1u64 << node;
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let mut cleared = 0;
        for key in keys {
            let Some(id) = inner.key_owner.get(key) else {
                continue;
            };
            let entry = inner
                .entries
                .get_mut(id)
                .expect("key_owner points at a missing entry");
            if entry.stored_nodes & node_bit != 0 {
                entry.stored_nodes &= !node_bit;
                cleared += 1;
            }
        }
        cleared
    }

    /// Register additional data dependencies on a *valid* entry after the
    /// fact. Returns false when the entry is absent or invalid.
    ///
    /// This powers deferred dependency registration: a code block that only
    /// learns its dependencies while producing content (e.g. which headline
    /// rows it rendered) does `lookup(id, ttl, &[])`, runs on the miss
    /// path, then registers the discovered deps — so the dependency query
    /// is never executed on the hit path.
    pub fn add_deps(&self, id: &FragmentId, deps: &[String]) -> bool {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let Some(entry) = inner.entries.get_mut(id) else {
            return false;
        };
        if !entry.is_valid {
            return false;
        }
        for dep in deps {
            if !entry.deps.contains(dep) {
                entry.deps.push(dep.clone());
            }
            inner
                .dep_index
                .entry(dep.clone())
                .or_default()
                .insert(id.clone());
        }
        true
    }

    /// Report the produced content size of a *valid* entry for the
    /// resident-bytes gauges. The directory issues keys before content
    /// exists; the BEM calls this right after the code block runs.
    /// Returns false when the entry is absent or invalid.
    pub fn note_fragment_bytes(&self, id: &FragmentId, bytes: u64) -> bool {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let Some(entry) = inner.entries.get_mut(id) else {
            return false;
        };
        if !entry.is_valid {
            return false;
        }
        inner.resident_bytes = inner.resident_bytes - entry.bytes + bytes;
        entry.bytes = bytes;
        inner.resident_bytes_hwm = inner.resident_bytes_hwm.max(inner.resident_bytes);
        true
    }

    /// Mark `id` invalid, returning its key to the freeList. Returns true
    /// when the entry was valid.
    pub fn invalidate(&self, id: &FragmentId) -> bool {
        self.invalidate_locked(&mut self.lock_inner(), id)
    }

    /// Invalidate `id` only if it is currently valid under `key` — the
    /// orphan-repair path after a flight leader died: the waiter that drew
    /// the repair claim retires the generation it was parked on (so its
    /// re-lookup misses and it becomes the new leader) without clobbering
    /// an entry that has already moved on to a different key.
    pub fn invalidate_if_key(&self, id: &FragmentId, key: DpcKey) -> bool {
        let mut inner = self.lock_inner();
        match inner.entries.get(id) {
            Some(e) if e.is_valid && e.dpc_key == key => {}
            _ => return false,
        }
        self.invalidate_locked(&mut inner, id)
    }

    /// Invalidate every fragment registered as depending on `dep`.
    /// Returns the number of fragments invalidated.
    pub fn invalidate_dep(&self, dep: &str) -> usize {
        self.invalidate_dep_keys(dep).len()
    }

    /// Like [`invalidate_dep`](Self::invalidate_dep), but returns the
    /// dpcKeys the invalidation returned to the freeList. A ring scrubs
    /// these from every DPC node's slot store, so a reassigned key finds
    /// an empty slot (a detectable `MissingFragment`) instead of splicing
    /// the old fragment's bytes.
    pub fn invalidate_dep_keys(&self, dep: &str) -> Vec<DpcKey> {
        let mut inner = self.lock_inner();
        // Only valid entries are registered, so every dependent is
        // invalidated and the dep's index entry can go with it.
        let Some(ids) = inner.dep_index.remove(dep) else {
            return Vec::new();
        };
        let mut freed = Vec::with_capacity(ids.len());
        for id in ids {
            let key = inner.entries.get(&id).map(|e| e.dpc_key);
            if self.invalidate_locked(&mut inner, &id) {
                freed.push(key.expect("invalidated entry must exist"));
            }
        }
        freed
    }

    /// The *epoch* of `id`'s current valid entry, or `None` when the
    /// fragment is absent, invalid, or expired. The epoch is the entry's
    /// insertion sequence, one counter for the whole directory that only
    /// grows, so two observations of the same fragment compare
    /// meaningfully — a larger epoch means the content was regenerated in
    /// between.
    ///
    /// Cost: one lock and one map probe — cheap enough for anti-entropy
    /// sweeps to call per fragment.
    pub fn fragment_epoch(&self, id: &FragmentId) -> Option<u64> {
        let now = self.clock.now_nanos();
        self.lock_inner()
            .entries
            .get(id)
            .filter(|e| e.is_valid && e.expires_at > now)
            .map(|e| e.seq)
    }

    /// Invalidate everything (origin data reload).
    pub fn invalidate_all(&self) -> usize {
        let mut inner = self.lock_inner();
        let ids: Vec<FragmentId> = inner.key_owner.values().cloned().collect();
        ids.iter()
            .filter(|id| self.invalidate_locked(&mut inner, id))
            .count()
    }

    /// Eagerly expire all valid entries whose TTL has passed. Returns the
    /// number expired. (The lazy check in [`lookup`](Self::lookup) makes
    /// this optional; a background sweeper keeps directory gauges honest.)
    pub fn sweep_expired(&self) -> usize {
        let now = self.clock.now_nanos();
        let mut inner = self.lock_inner();
        let expired: Vec<FragmentId> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.is_valid && e.expires_at <= now)
            .map(|(id, _)| id.clone())
            .collect();
        let mut n = 0;
        for id in &expired {
            if self.invalidate_locked(&mut inner, id) {
                inner.invalidations -= 1; // reclassify:
                inner.expirations += 1; // it expired, wasn't invalidated
                n += 1;
            }
        }
        n
    }

    /// Counter/gauge snapshot.
    pub fn stats(&self) -> DirectoryStats {
        let flight = self.flight.counters();
        let inner = self.lock_inner();
        DirectoryStats {
            hits: inner.hits,
            misses: inner.misses,
            node_misses: inner.node_misses,
            expirations: inner.expirations,
            invalidations: inner.invalidations,
            evictions: inner.evictions,
            uncacheable: inner.uncacheable,
            resident_bytes: inner.resident_bytes,
            resident_bytes_hwm: inner.resident_bytes_hwm,
            flight_leaders: flight.leaders,
            coalesced_waits: flight.waits_served,
            flight_retries: flight.wait_retries + flight.stale_discards,
            valid_entries: inner.key_owner.len(),
            total_entries: inner.entries.len(),
            free_keys: inner.free_list.len(),
        }
    }

    /// Verify internal invariants; returns a description of the first
    /// violation. Used heavily by the randomized property tests.
    ///
    /// 1. every key in `0..capacity` is in exactly one of {valid
    ///    (key_owner), freeList, never-allocated};
    /// 2. the freeList contains no duplicates and only allocated keys;
    /// 3. the replacer tracks exactly the valid keys;
    /// 4. at most `capacity` keys have been allocated.
    pub fn check_invariants(&self) -> Result<(), String> {
        let inner = self.lock_inner();
        let allocated = inner.next_fresh as usize;
        if allocated > self.capacity {
            return Err(format!(
                "allocated {allocated} keys > capacity {}",
                self.capacity
            ));
        }
        let mut seen = HashSet::new();
        for key in &inner.free_list {
            if key.0 >= inner.next_fresh {
                return Err(format!("freeList holds never-allocated key {key}"));
            }
            if !seen.insert(*key) {
                return Err(format!("freeList holds duplicate key {key}"));
            }
            if inner.key_owner.contains_key(key) {
                return Err(format!("key {key} is both free and valid"));
            }
        }
        if inner.key_owner.len() + inner.free_list.len() != allocated {
            return Err(format!(
                "key conservation violated: {} valid + {} free != {} allocated",
                inner.key_owner.len(),
                inner.free_list.len(),
                allocated
            ));
        }
        if inner.replacer.len() != inner.key_owner.len() {
            return Err(format!(
                "replacer tracks {} keys but {} are valid",
                inner.replacer.len(),
                inner.key_owner.len()
            ));
        }
        let valid_bytes: u64 = inner
            .entries
            .values()
            .filter(|e| e.is_valid)
            .map(|e| e.bytes)
            .sum();
        if valid_bytes != inner.resident_bytes {
            return Err(format!(
                "resident_bytes {} != sum of valid entry bytes {}",
                inner.resident_bytes, valid_bytes
            ));
        }
        if inner.resident_bytes > inner.resident_bytes_hwm {
            return Err(format!(
                "resident_bytes {} exceeds its high-water mark {}",
                inner.resident_bytes, inner.resident_bytes_hwm
            ));
        }
        for (key, id) in &inner.key_owner {
            match inner.entries.get(id) {
                Some(e) if e.is_valid && e.dpc_key == *key => {}
                _ => return Err(format!("key_owner[{key}] = {id} is inconsistent")),
            }
        }
        drop(inner);
        self.flight.check_invariants()
    }

    // -- internals ----------------------------------------------------------

    fn allocate_key(&self, inner: &mut Inner) -> Option<DpcKey> {
        if let Some(key) = inner.free_list.pop_front() {
            return Some(key);
        }
        if (inner.next_fresh as usize) < self.capacity {
            let key = DpcKey(inner.next_fresh);
            inner.next_fresh += 1;
            return Some(key);
        }
        // Every key is in use and valid: the replacement manager names a
        // victim, whose key is taken over directly (no freeList round
        // trip). Policy `None` names none, and the caller serves the
        // fragment inline.
        let victim_key = inner.replacer.pick_victim()?;
        let victim_id = inner
            .key_owner
            .remove(&victim_key)
            .expect("replacer returned an untracked key");
        let entry = inner
            .entries
            .get_mut(&victim_id)
            .expect("key_owner points at a missing entry");
        entry.is_valid = false;
        entry.stored_nodes = 0;
        inner.resident_bytes -= entry.bytes;
        entry.bytes = 0;
        let deps = std::mem::take(&mut entry.deps);
        Self::unregister_deps(&mut inner.dep_index, &victim_id, &deps);
        inner.evictions += 1;
        // The victim's key is about to be reassigned: any in-flight
        // produce of the victim fragment must not publish.
        self.flight.invalidate(fragment_hash(&victim_id));
        Some(victim_key)
    }

    fn invalidate_locked(&self, inner: &mut Inner, id: &FragmentId) -> bool {
        let Some(entry) = inner.entries.get_mut(id) else {
            return false;
        };
        if !entry.is_valid {
            return false;
        }
        let key = entry.dpc_key;
        entry.is_valid = false;
        entry.stored_nodes = 0;
        inner.resident_bytes -= entry.bytes;
        entry.bytes = 0;
        let deps = std::mem::take(&mut entry.deps);
        inner.invalidations += 1;
        inner.key_owner.remove(&key);
        inner.free_list.push_back(key);
        // An invalidation-freed slot is a *removal*, never an eviction:
        // the replacer just forgets the key and `evictions` stays put.
        inner.replacer.remove(&key);
        Self::unregister_deps(&mut inner.dep_index, id, &deps);
        self.flight.invalidate(fragment_hash(id));
        true
    }

    /// Drop `id`'s registrations from the dep index, removing a dep's
    /// entry once its last dependent is gone.
    fn unregister_deps(
        dep_index: &mut HashMap<String, HashSet<FragmentId>>,
        id: &FragmentId,
        deps: &[String],
    ) {
        for dep in deps {
            if let Some(set) = dep_index.get_mut(dep) {
                set.remove(id);
                if set.is_empty() {
                    dep_index.remove(dep);
                }
            }
        }
    }

    fn collect_garbage(inner: &mut Inner, limit: usize) {
        if inner.entries.len() <= limit {
            return;
        }
        // Drop the oldest invalid entries until we are at half the limit.
        let mut invalid: Vec<(u64, FragmentId)> = inner
            .entries
            .iter()
            .filter(|(_, e)| !e.is_valid)
            .map(|(id, e)| (e.seq, id.clone()))
            .collect();
        invalid.sort_unstable_by_key(|(seq, _)| *seq);
        let target = limit / 2;
        let excess = inner.entries.len().saturating_sub(target);
        for (_, id) in invalid.into_iter().take(excess) {
            inner.entries.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplacePolicy;

    fn dir_with(capacity: usize) -> CacheDirectory {
        CacheDirectory::new(&BemConfig::default().with_capacity(capacity))
    }

    fn fid(i: usize) -> FragmentId {
        FragmentId::with_params("f", &[("i", &i.to_string())])
    }

    #[test]
    fn keys_are_unique_across_shards() {
        let dir = dir_with(64);
        let mut keys = HashSet::new();
        for i in 0..64 {
            match dir.lookup(&fid(i), Duration::from_secs(60), &[]) {
                // Two *live* fragments never share a key.
                Lookup::Miss(k) => {
                    assert!(k.index() < 64, "key {k} out of range");
                    assert!(keys.insert(k), "key {k} issued twice");
                }
                other => panic!("expected a miss, got {other:?}"),
            }
        }
        dir.check_invariants().unwrap();
    }

    #[test]
    fn capacity_is_one_pool_of_keys() {
        // Every key of the default-config directory serves any fragment:
        // `capacity` distinct fragments fit without a single eviction.
        let dir = CacheDirectory::new(&BemConfig::default().with_capacity(64));
        let ttl = Duration::from_secs(600);
        let mut keys = Vec::new();
        for i in 0..64 {
            let Lookup::Miss(k) = dir.lookup(&fid(i), ttl, &[]) else {
                panic!("fragment {i} must miss");
            };
            keys.push(k);
        }
        let stats = dir.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.valid_entries, 64);
        assert_eq!(stats.free_keys, 0);
        // Touch fragment 0 so fragment 1 is the least recently touched.
        assert_eq!(dir.lookup(&fid(0), ttl, &[]), Lookup::Hit(keys[0]));
        // The 65th fragment evicts exactly one entry, and takes its key.
        assert_eq!(dir.lookup(&fid(64), ttl, &[]), Lookup::Miss(keys[1]));
        let stats = dir.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.valid_entries, 64);
        assert_eq!(
            dir.current_key(&fid(1)),
            None,
            "the LRU entry is the victim"
        );
        for i in (0..64).filter(|&i| i != 1) {
            assert_eq!(dir.current_key(&fid(i)), Some(keys[i]), "fragment {i}");
        }
        dir.check_invariants().unwrap();
    }

    #[test]
    fn lookup_is_sticky_to_one_key() {
        let dir = dir_with(32);
        let id = FragmentId::new("navbar");
        let Lookup::Miss(k) = dir.lookup(&id, Duration::from_secs(60), &[]) else {
            panic!("first lookup must miss");
        };
        for _ in 0..5 {
            assert_eq!(
                dir.lookup(&id, Duration::from_secs(60), &[]),
                Lookup::Hit(k)
            );
        }
    }

    #[test]
    fn invalidate_returns_key_to_owning_shard() {
        let dir = dir_with(32);
        let id = FragmentId::new("victim");
        let Lookup::Miss(k) = dir.lookup(&id, Duration::from_secs(60), &[]) else {
            panic!("must miss");
        };
        assert!(dir.invalidate(&id));
        dir.check_invariants().unwrap();
        // The same fragment re-misses and reuses the freed key (it pops the
        // freeList before fresh space).
        assert_eq!(
            dir.lookup(&id, Duration::from_secs(60), &[]),
            Lookup::Miss(k)
        );
    }

    #[test]
    fn dep_invalidation_reaches_all_shards() {
        let dir = dir_with(256);
        // Many fragments sharing one dependency.
        for i in 0..100 {
            let id = FragmentId::with_params("row", &[("i", &i.to_string())]);
            let _ = dir.lookup(&id, Duration::from_secs(600), &["tbl/all".to_owned()]);
        }
        assert_eq!(dir.invalidate_dep("tbl/all"), 100);
        assert_eq!(dir.stats().valid_entries, 0);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_dep_skips_shards_without_dependents() {
        let dir = dir_with(256);
        let id = FragmentId::new("lonely");
        let _ = dir.lookup(&id, Duration::from_secs(600), &["tbl/one".to_owned()]);
        // Plenty of unrelated fragments.
        for i in 0..128 {
            let other = FragmentId::with_params("noise", &[("i", &i.to_string())]);
            let _ = dir.lookup(&other, Duration::from_secs(600), &[]);
        }
        let locks = dir.lock_acquisitions();
        assert_eq!(dir.invalidate_dep("tbl/one"), 1);
        assert_eq!(dir.lock_acquisitions() - locks, 1, "one update, one lock");
        assert_eq!(dir.current_key(&id), None);
        assert_eq!(dir.stats().valid_entries, 128, "bystanders stay valid");
        dir.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_unknown_dep_locks_no_shards() {
        let dir = dir_with(256);
        for i in 0..64 {
            let _ = dir.lookup(&fid(i), Duration::from_secs(600), &["tbl/known".to_owned()]);
        }
        assert_eq!(dir.invalidate_dep("tbl/unknown"), 0);
        let stats = dir.stats();
        assert_eq!((stats.valid_entries, stats.invalidations), (64, 0));
    }

    #[test]
    fn dep_shard_index_is_cleaned_and_rebuilt() {
        let dir = dir_with(256);
        let dep = "tbl/cycle".to_owned();
        let id = FragmentId::new("cycling");
        let ttl = Duration::from_secs(600);
        let _ = dir.lookup(&id, ttl, std::slice::from_ref(&dep));
        assert_eq!(dir.invalidate_dep(&dep), 1);
        // The index entry is gone: a second update finds nothing.
        assert_eq!(dir.invalidate_dep(&dep), 0);
        // Re-registration rebuilds it and invalidation works again.
        let Lookup::Miss(k) = dir.lookup(&id, ttl, std::slice::from_ref(&dep)) else {
            panic!("must re-miss");
        };
        assert_eq!(dir.invalidate_dep_keys(&dep), vec![k]);
        assert_eq!(dir.stats().invalidations, 2);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn plain_invalidate_clears_dep_shard_bit() {
        let dir = dir_with(256);
        let dep = "tbl/direct".to_owned();
        let id = FragmentId::new("direct");
        let ttl = Duration::from_secs(600);
        let _ = dir.lookup(&id, ttl, std::slice::from_ref(&dep));
        // Direct (non-dep) invalidation unregisters the dependency too: the
        // fragment's next generation, produced without that dependency, is
        // not retired by an update to it.
        assert!(dir.invalidate(&id));
        let Lookup::Miss(k) = dir.lookup(&id, ttl, &[]) else {
            panic!("must re-miss");
        };
        assert_eq!(dir.invalidate_dep(&dep), 0);
        assert_eq!(dir.current_key(&id), Some(k));
        assert_eq!(dir.stats().invalidations, 1);
    }

    #[test]
    fn add_deps_registers_in_shard_index() {
        let dir = dir_with(256);
        let id = FragmentId::new("deferred");
        let ttl = Duration::from_secs(600);
        let _ = dir.lookup(&id, ttl, &[]);
        assert!(dir.add_deps(&id, &["tbl/late".to_owned()]));
        assert_eq!(dir.invalidate_dep("tbl/late"), 1);
        assert!(matches!(dir.lookup(&id, ttl, &[]), Lookup::Miss(_)));
    }

    #[test]
    fn full_directory_with_no_replacement_is_uncacheable() {
        let dir = CacheDirectory::new(
            &BemConfig::default()
                .with_capacity(4)
                .with_replace(ReplacePolicy::None),
        );
        for i in 0..4 {
            assert!(matches!(
                dir.lookup(&fid(i), Duration::from_secs(60), &[]),
                Lookup::Miss(_)
            ));
        }
        let id = FragmentId::new("overflow");
        assert_eq!(
            dir.lookup(&id, Duration::from_secs(60), &[]),
            Lookup::Uncacheable
        );
        assert_eq!(dir.stats().uncacheable, 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn a_node_lookup_sets_until_the_node_holds_the_entry() {
        let dir = dir_with(32);
        let ttl = Duration::from_secs(60);
        let id = FragmentId::new("shared");
        let Lookup::Miss(k) = dir.lookup_node(&id, ttl, &[], 0) else {
            panic!("node 0 must miss first");
        };
        // Requester's own bit set: a plain GET.
        assert_eq!(dir.lookup_node(&id, ttl, &[], 0), Lookup::Hit(k));
        // Another node has not stored it: a node-miss SET under the same
        // key, which sets its bit…
        assert_eq!(dir.lookup_node(&id, ttl, &[], 3), Lookup::Miss(k));
        // …so its next lookup is a plain GET.
        assert_eq!(dir.lookup_node(&id, ttl, &[], 3), Lookup::Hit(k));
        let stats = dir.stats();
        assert_eq!(stats.node_misses, 1, "only node 3's first lookup");
        assert_eq!(stats.misses, 1);
        // Invalidation clears every bit: the next lookup is a fresh miss,
        // even from a node that held the old entry.
        assert!(dir.invalidate(&id));
        assert_eq!(dir.lookup_node(&id, ttl, &[], 3), Lookup::Miss(k));
        assert_eq!(dir.stats().node_misses, 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn forget_stored_turns_the_next_lookup_into_a_node_miss() {
        let dir = dir_with(64);
        let ttl = Duration::from_secs(60);
        let ids: Vec<FragmentId> = (0..8)
            .map(|i| FragmentId::with_params("f", &[("i", &i.to_string())]))
            .collect();
        let keys: Vec<DpcKey> = ids
            .iter()
            .map(|id| match dir.lookup_node(id, ttl, &[], 1) {
                Lookup::Miss(k) => k,
                other => panic!("first lookup must miss: {other:?}"),
            })
            .collect();
        // A free key and an out-of-range key are skipped.
        assert!(dir.invalidate(&ids[7]));
        let named = [keys[0], keys[3], keys[6], keys[7], DpcKey(1000)];
        assert_eq!(dir.forget_stored(1, &named), 3);
        assert_eq!(dir.forget_stored(1, &named), 0, "bits already clear");
        assert_eq!(dir.forget_stored(2, &[keys[1]]), 0, "node 2 never held it");
        for (i, id) in ids.iter().enumerate().take(7) {
            let want = if [0, 3, 6].contains(&i) {
                Lookup::Miss(keys[i])
            } else {
                Lookup::Hit(keys[i])
            };
            assert_eq!(dir.lookup_node(id, ttl, &[], 1), want, "fragment {i}");
        }
        assert_eq!(dir.stats().node_misses, 3);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_dep_keys_returns_exactly_the_freed_keys() {
        let dir = dir_with(256);
        let mut expected = HashSet::new();
        for i in 0..24 {
            let id = FragmentId::with_params("row", &[("i", &i.to_string())]);
            let Lookup::Miss(k) = dir.lookup(&id, Duration::from_secs(600), &["tbl/x".to_owned()])
            else {
                panic!("must miss");
            };
            expected.insert(k);
        }
        // An unrelated dependent must not be freed.
        let other = FragmentId::new("bystander");
        let _ = dir.lookup(&other, Duration::from_secs(600), &["tbl/y".to_owned()]);
        let freed: HashSet<DpcKey> = dir.invalidate_dep_keys("tbl/x").into_iter().collect();
        assert_eq!(freed, expected);
        assert_eq!(dir.stats().valid_entries, 1);
        // Freed keys really are back on the freeLists.
        assert_eq!(dir.stats().free_keys, 24);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn fragment_epoch_is_monotonic_per_fragment() {
        let dir = dir_with(64);
        let id = FragmentId::new("versioned");
        assert_eq!(dir.fragment_epoch(&id), None, "absent fragment");
        let _ = dir.lookup(&id, Duration::from_secs(600), &[]);
        let e1 = dir.fragment_epoch(&id).expect("valid after miss");
        // A hit does not change the epoch.
        let _ = dir.lookup(&id, Duration::from_secs(600), &[]);
        assert_eq!(dir.fragment_epoch(&id), Some(e1));
        // Invalidation hides it; regeneration bumps it.
        assert!(dir.invalidate(&id));
        assert_eq!(dir.fragment_epoch(&id), None, "invalid fragment");
        let _ = dir.lookup(&id, Duration::from_secs(600), &[]);
        let e2 = dir.fragment_epoch(&id).expect("valid after re-miss");
        assert!(e2 > e1, "regenerated epoch {e2} must exceed {e1}");
    }

    #[test]
    fn invalidation_freed_slots_are_not_counted_as_evictions() {
        // A full directory whose entries are freed by *invalidation*
        // must report zero evictions — freed keys return through the
        // freeList, and reusing them is not a replacement decision.
        let dir = dir_with(8);
        for i in 0..8 {
            let id = FragmentId::with_params("row", &[("i", &i.to_string())]);
            let _ = dir.lookup(&id, Duration::from_secs(600), &["tbl/all".to_owned()]);
        }
        assert_eq!(dir.invalidate_dep("tbl/all"), 8);
        let stats = dir.stats();
        assert_eq!(stats.invalidations, 8);
        assert_eq!(
            stats.evictions, 0,
            "invalidation double-counted as eviction"
        );
        // Refill through the freeList: still no evictions.
        for i in 8..16 {
            let id = FragmentId::with_params("row", &[("i", &i.to_string())]);
            assert!(matches!(
                dir.lookup(&id, Duration::from_secs(600), &[]),
                Lookup::Miss(_)
            ));
        }
        let stats = dir.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.free_keys, 0);
        // One more forces a genuine replacement: now exactly one eviction.
        let _ = dir.lookup(&FragmentId::new("straw"), Duration::from_secs(600), &[]);
        assert_eq!(dir.stats().evictions, 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn resident_bytes_track_noted_content_and_keep_a_high_water_mark() {
        let dir = dir_with(32);
        let a = FragmentId::new("a");
        let b = FragmentId::new("b");
        let _ = dir.lookup(&a, Duration::from_secs(600), &[]);
        let _ = dir.lookup(&b, Duration::from_secs(600), &[]);
        assert_eq!(dir.stats().resident_bytes, 0, "unreported content counts 0");
        assert!(dir.note_fragment_bytes(&a, 1000));
        assert!(dir.note_fragment_bytes(&b, 500));
        let stats = dir.stats();
        assert_eq!(stats.resident_bytes, 1500);
        assert_eq!(stats.resident_bytes_hwm, 1500);
        // Regeneration can shrink content; the mark remembers the peak.
        assert!(dir.note_fragment_bytes(&a, 100));
        let stats = dir.stats();
        assert_eq!(stats.resident_bytes, 600);
        assert_eq!(stats.resident_bytes_hwm, 1500);
        assert!(dir.invalidate(&a));
        assert_eq!(dir.stats().resident_bytes, 500);
        // Absent/invalid entries refuse the report.
        assert!(!dir.note_fragment_bytes(&a, 9));
        assert!(!dir.note_fragment_bytes(&FragmentId::new("ghost"), 9));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn resident_bytes_hwm_is_the_directory_peak() {
        // The mark is the peak of the directory's own resident bytes, not
        // a sum of peaks reached at different times.
        let dir = CacheDirectory::new(&BemConfig::default().with_capacity(64));
        let (a, b) = (FragmentId::new("a"), FragmentId::new("b"));
        let _ = dir.lookup(&a, Duration::from_secs(600), &[]);
        assert!(dir.note_fragment_bytes(&a, 1000));
        assert!(dir.invalidate(&a));
        let _ = dir.lookup(&b, Duration::from_secs(600), &[]);
        assert!(dir.note_fragment_bytes(&b, 1000));
        let stats = dir.stats();
        assert_eq!(stats.resident_bytes, 1000);
        assert_eq!(stats.resident_bytes_hwm, 1000);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn every_policy_serves_the_directory_workload() {
        // Smoke the whole menu through lookup/hit/invalidate/evict cycles;
        // the invariant checker is the oracle.
        for policy in ReplacePolicy::ALL {
            let dir =
                CacheDirectory::new(&BemConfig::default().with_capacity(16).with_replace(policy));
            for round in 0..6 {
                for i in 0..24 {
                    let id = FragmentId::with_params("f", &[("i", &(i % 24).to_string())]);
                    let lookup = dir.lookup(&id, Duration::from_secs(600), &[]);
                    if matches!(lookup, Lookup::Miss(_)) {
                        dir.note_fragment_bytes(&id, 64 + i as u64);
                    }
                    if i % 7 == 0 {
                        dir.invalidate(&id);
                    }
                }
                dir.check_invariants()
                    .unwrap_or_else(|e| panic!("{policy:?} round {round}: {e}"));
            }
            let stats = dir.stats();
            assert!(stats.valid_entries <= 16, "{policy:?}");
        }
    }

    #[test]
    fn every_key_freeing_path_stamps_the_flight_stale() {
        use crate::flight::Publish;
        // Invalidation.
        let dir = dir_with(8);
        let id = FragmentId::new("inv");
        let Lookup::Miss(_) = dir.lookup(&id, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        let leader = dir.flight().begin(dir.flight_key(&id));
        assert!(dir.invalidate(&id));
        assert_eq!(leader.publish(Bytes::from_static(b"stale")), Publish::Stale);

        // Lazy TTL expiry.
        let (clock, handle) = Clock::virtual_clock();
        let dir = CacheDirectory::new(&BemConfig::default().with_capacity(8).with_clock(clock));
        let id = FragmentId::new("ttl");
        let Lookup::Miss(_) = dir.lookup(&id, Duration::from_secs(1), &[]) else {
            panic!("must miss");
        };
        let leader = dir.flight().begin(dir.flight_key(&id));
        handle.advance(Duration::from_secs(2));
        // The expiring lookup frees the key (and typically reassigns it to
        // the new generation of the same fragment).
        assert!(matches!(
            dir.lookup(&id, Duration::from_secs(1), &[]),
            Lookup::Miss(_)
        ));
        assert_eq!(leader.publish(Bytes::from_static(b"old")), Publish::Stale);

        // Replacement eviction.
        let dir = dir_with(2);
        let a = FragmentId::new("a");
        let Lookup::Miss(_) = dir.lookup(&a, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        let _ = dir.lookup(&FragmentId::new("b"), Duration::from_secs(600), &[]);
        let leader = dir.flight().begin(dir.flight_key(&a));
        // Shard full and `a` is LRU: the next distinct fragment evicts it.
        let _ = dir.lookup(&FragmentId::new("c"), Duration::from_secs(600), &[]);
        assert_eq!(
            leader.publish(Bytes::from_static(b"evicted")),
            Publish::Stale
        );
        assert_eq!(dir.stats().evictions, 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn recycled_key_does_not_cross_wire_flights() {
        use crate::flight::{Publish, Wait};
        // Fragment `a` is invalidated mid-flight and its dpcKey recycled to
        // fragment `b`, whose leader begins its own flight. Because flights
        // are keyed by fragment identity rather than slot index, the two
        // flights are independent: `a`'s stale result is discarded, `b`'s
        // lands, and a probe for `a` never observes `b`'s bytes.
        let dir = dir_with(1);
        let a = FragmentId::new("a");
        let b = FragmentId::new("b");
        let Lookup::Miss(ka) = dir.lookup(&a, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        let leader_a = dir.flight().begin(dir.flight_key(&a));
        assert!(dir.invalidate(&a));
        let Lookup::Miss(kb) = dir.lookup(&b, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        assert_eq!(ka, kb, "capacity 1 forces the key to recycle");
        let leader_b = dir.flight().begin(dir.flight_key(&b));
        assert!(
            !matches!(dir.flight().wait(dir.flight_key(&a)), Wait::Value(..)),
            "a probe for `a` must never see `b`'s flight"
        );
        assert_eq!(leader_a.publish(Bytes::from_static(b"A")), Publish::Stale);
        assert_eq!(
            leader_b.publish(Bytes::from_static(b"B")),
            Publish::Delivered(0)
        );
        dir.check_invariants().unwrap();
    }

    #[test]
    fn current_key_tracks_validity() {
        let dir = dir_with(8);
        let id = FragmentId::new("cur");
        assert_eq!(dir.current_key(&id), None, "absent fragment");
        let Lookup::Miss(k) = dir.lookup(&id, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        assert_eq!(dir.current_key(&id), Some(k));
        assert!(dir.invalidate(&id));
        assert_eq!(dir.current_key(&id), None, "invalid fragment");
    }

    #[test]
    fn invalidate_if_key_only_hits_the_named_generation() {
        let dir = dir_with(8);
        let id = FragmentId::new("gen");
        let Lookup::Miss(k) = dir.lookup(&id, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        // Wrong key: no-op.
        assert!(!dir.invalidate_if_key(&id, DpcKey(k.0 + 1)));
        assert!(matches!(
            dir.lookup(&id, Duration::from_secs(600), &[]),
            Lookup::Hit(_)
        ));
        // Right key: retires the entry.
        assert!(dir.invalidate_if_key(&id, k));
        assert!(matches!(
            dir.lookup(&id, Duration::from_secs(600), &[]),
            Lookup::Miss(_)
        ));
        dir.check_invariants().unwrap();
    }
}
