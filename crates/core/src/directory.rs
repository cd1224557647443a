//! The BEM's cache directory and freeList — sharded for multi-core scaling.
//!
//! Paper, §4.3.3: the directory tracks, per fragment, the `fragmentID`, the
//! `dpcKey`, an `isValid` flag and a `ttl`. Keys are drawn from a
//! **freeList** whose size is at least the maximum cache size; invalidated
//! fragments are *not* removed from the DPC — their key simply returns to
//! the freeList and the slot's stale bytes sit unused until the key is
//! reassigned and the next `SET` overwrites them. This gives coherence with
//! zero proxy-bound messages.
//!
//! ## Sharding
//!
//! The 2002 system ran one request at a time per CPU; a production origin
//! runs tens of worker threads, and a single directory mutex caps the whole
//! BEM at one effective core. The directory is therefore split into N
//! shards (configured by [`BemConfig::shards`], clamped to `capacity`):
//!
//! * a fragment belongs to the shard selected by a hash of its
//!   `FragmentId`, so all state for one fragment — entry, dependency
//!   registrations, replacement bookkeeping — lives under exactly one
//!   shard lock;
//! * the global key space `0..capacity` is partitioned into contiguous
//!   segments, one per shard; each shard allocates keys only from its own
//!   segment and keeps its own freeList, so key conservation holds
//!   per-shard and therefore globally;
//! * each shard runs its own replacement manager: eviction decisions never
//!   take a cross-shard lock.
//!
//! The paper's coherence argument is untouched: a `dpcKey` still means
//! "slot *k* at the DPC" regardless of which shard issued it, keys still
//! cycle through {valid, freeList} within their owning shard, and a key is
//! never live in two shards because segments are disjoint. Operations that
//! are cross-fragment by nature (full sweeps, stats) visit shards one at a
//! time; they are off the request hot path. Dependency invalidation is
//! narrower still: a directory-level dep → shard-set index records which
//! shards hold dependents, so `invalidate_dep` locks only those shards —
//! with sparse fan-out a data-source update touches one shard, not N.
//!
//! Three events retire a valid entry:
//!
//! * **TTL expiry** — checked lazily on lookup and eagerly by
//!   [`CacheDirectory::sweep_expired`].
//! * **Data-source invalidation** — an update to an underlying table/key
//!   invalidates every fragment registered as depending on it.
//! * **Replacement** — when all of a shard's keys are valid and a new
//!   fragment needs one, the shard's replacement manager picks a victim
//!   (policy-pluggable, see [`dpc_policy`]).

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
/// flag). To bound memory on long runs, a shard whose entry count exceeds
/// its key share (at least 16) times this factor garbage-collects its
/// invalid entries oldest-first.
const GARBAGE_FACTOR: usize = 4;

/// Outcome of a directory lookup for a cacheable fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Fragment is cached and valid: emit a `GET key` instruction.
    Hit(DpcKey),
    /// Fragment was absent/invalid/expired; a key has been allocated and
    /// the entry marked valid: generate content and emit `SET key`.
    Miss(DpcKey),
    /// The shard is full and the replacement policy yielded no victim:
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

/// Counter snapshot for the directory (aggregated over all shards).
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
    /// High-water mark of `resident_bytes` over the directory's lifetime,
    /// summed per shard.
    pub resident_bytes_hwm: u64,
    /// Shard locks taken by [`CacheDirectory::invalidate_dep`] calls. With
    /// the dep → shard-set index this counts only shards that (possibly)
    /// held dependents — the back-pressure win over walking all N shards.
    pub dep_shard_scans: u64,
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
    /// Number of lock shards the directory runs.
    pub shards: usize,
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

/// Per-shard counters surfaced by [`CacheDirectory::shard_stats`] —
/// replacement behaviour is per-shard state, so imbalance (one hot shard
/// evicting while others idle) is only visible at this granularity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub evictions: u64,
    pub resident_bytes: u64,
    pub resident_bytes_hwm: u64,
    pub valid_entries: usize,
    pub free_keys: usize,
}

/// Mutable state of one shard, all under a single mutex.
struct Inner {
    entries: HashMap<FragmentId, Entry>,
    /// Owner of each *valid* key in this shard's segment.
    key_owner: HashMap<DpcKey, FragmentId>,
    free_list: VecDeque<DpcKey>,
    /// Keys `key_lo..next_fresh` have been handed out at least once.
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

/// One lock shard: a contiguous key segment plus its directory state.
struct Shard {
    /// First key this shard allocates (inclusive).
    key_lo: u32,
    /// One past the last key this shard allocates.
    key_hi: u32,
    garbage_limit: usize,
    inner: Mutex<Inner>,
}

impl Shard {
    fn capacity(&self) -> usize {
        (self.key_hi - self.key_lo) as usize
    }
}

/// Bitmask over shard indices (shard counts can exceed 64, so the mask is
/// a small word vector).
#[derive(Clone)]
struct ShardSet {
    words: Vec<u64>,
}

impl ShardSet {
    fn new(shards: usize) -> ShardSet {
        ShardSet {
            words: vec![0; shards.div_ceil(64)],
        }
    }

    fn set(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
    }

    fn clear(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1 << (idx % 64));
    }

    fn contains(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Thread-safe, sharded cache directory.
pub struct CacheDirectory {
    clock: Clock,
    capacity: usize,
    shards: Box<[Shard]>,
    /// Invalidation back-pressure index: dep → set of shards that (may)
    /// hold fragments depending on it. Registration sets a shard's bit
    /// under that shard's lock *before* releasing it; bits are cleared when
    /// a shard's last dependent for the dep unregisters (again under the
    /// shard lock), so [`invalidate_dep`](CacheDirectory::invalidate_dep)
    /// can skip shards with no dependents instead of locking all N.
    ///
    /// The index itself is sharded by `hash(dep)` (a power-of-two stripe
    /// count matching the directory's). Registration runs *inside* shard
    /// critical sections on the miss/SET path, so a single index-level
    /// mutex would partially re-serialize the directory shards under
    /// dep-heavy churn — two misses on different shards registering
    /// different deps would still collide on the one index lock. Striping
    /// by dep makes them collide only when the deps themselves collide.
    ///
    /// Lock ordering: shard `inner` before any `dep_shards` stripe, never
    /// the reverse — `invalidate_dep` snapshots the mask without holding
    /// any shard lock, and no path ever holds two stripes at once.
    dep_shards: Box<[Mutex<HashMap<String, ShardSet>>]>,
    /// Shard locks taken by `invalidate_dep` (see `DirectoryStats`).
    dep_shard_scans: AtomicU64,
    /// Every directory lock acquisition — shard `inner` mutexes and dep
    /// stripes alike. Not a stat for tuning; it exists so tests can pin
    /// lock-freedom claims (the proxy's L1 page tier asserts its hit path
    /// takes zero directory locks by diffing this counter).
    lock_acquisitions: AtomicU64,
    /// Single-flight group for miss coalescing, keyed by the
    /// fragment-identity hash ([`CacheDirectory::flight_key`]) — NOT by
    /// the `DpcKey` slot index, which is recycled through the freeLists
    /// and could wake a waiter parked on one fragment with a different
    /// fragment's bytes once the key was reassigned. The directory owns
    /// the group because the directory owns every path that retires an
    /// entry (invalidation, eviction, TTL expiry) — each of those stamps
    /// any in-flight computation for the fragment stale, so a result
    /// produced against a dead generation is never published. Flight
    /// state is taken as a leaf lock (shard `inner` may be held; the
    /// flight mutex never wraps a shard lock).
    flight: FlightGroup<u64, Bytes>,
}

fn shard_hash(id: &FragmentId) -> u64 {
    fnv1a(id.as_str().as_bytes())
}

impl CacheDirectory {
    /// Build a directory from the BEM configuration.
    pub fn new(config: &BemConfig) -> CacheDirectory {
        let capacity = config.capacity;
        let n = config.effective_shards();
        let shards: Vec<Shard> = (0..n)
            .map(|i| {
                // Contiguous segments [i*cap/n, (i+1)*cap/n): they tile the
                // key space exactly, so per-shard key conservation implies
                // the global invariant.
                let key_lo = (capacity * i / n) as u32;
                let key_hi = (capacity * (i + 1) / n) as u32;
                let shard_cap = (key_hi - key_lo) as usize;
                Shard {
                    key_lo,
                    key_hi,
                    garbage_limit: shard_cap.max(16).saturating_mul(GARBAGE_FACTOR),
                    inner: Mutex::new(Inner {
                        entries: HashMap::new(),
                        key_owner: HashMap::new(),
                        free_list: VecDeque::new(),
                        next_fresh: key_lo,
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
                }
            })
            .collect();
        let dep_stripes = (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        CacheDirectory {
            clock: config.clock.clone(),
            capacity,
            shards: shards.into_boxed_slice(),
            dep_shards: dep_stripes,
            dep_shard_scans: AtomicU64::new(0),
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

    /// The flight-group key for `id`: the fragment-identity hash (the same
    /// FNV that selects the shard). Flights are keyed by fragment
    /// identity, which is stable for the life of the system, rather than
    /// by `DpcKey` — slot indices cycle through the freeLists, and a
    /// waiter keyed on a bare index could park on one fragment's flight
    /// and be woken with another fragment's bytes after a recycle.
    pub fn flight_key(&self, id: &FragmentId) -> u64 {
        shard_hash(id)
    }

    /// `id`'s key if the fragment is currently valid and unexpired. This
    /// is the coalesced-wait re-validation hook: a waiter that parked on
    /// `id`'s flight re-checks that the key it looked up still belongs to
    /// `id` before emitting a `SET` under it — the key may have been
    /// freed and reassigned to another fragment while the waiter was
    /// parked. One shard lock and one map probe.
    pub fn current_key(&self, id: &FragmentId) -> Option<DpcKey> {
        let now = self.clock.now_nanos();
        let shard_idx = self.shard_index_for(id);
        let inner = self.lock_inner(&self.shards[shard_idx]);
        inner
            .entries
            .get(id)
            .filter(|e| e.is_valid && e.expires_at > now)
            .map(|e| e.dpc_key)
    }

    /// Maximum number of simultaneously valid fragments (= DPC slots).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index_for(&self, id: &FragmentId) -> usize {
        self.shard_index_of_hash(shard_hash(id))
    }

    /// Shard owning a precomputed fragment hash. Shard counts are powers
    /// of two (see `BemConfig::effective_shards`), so selection is a
    /// mask, not a division.
    fn shard_index_of_hash(&self, hash: u64) -> usize {
        (hash & (self.shards.len() as u64 - 1)) as usize
    }

    /// Index stripe holding `dep`'s shard set. Stripe count is a power of
    /// two (it equals the directory shard count), so selection is a mask.
    fn dep_stripe(&self, dep: &str) -> &Mutex<HashMap<String, ShardSet>> {
        let idx = (fnv1a(dep.as_bytes()) & (self.dep_shards.len() as u64 - 1)) as usize;
        &self.dep_shards[idx]
    }

    /// Take `shard`'s inner mutex, counting the acquisition. Every
    /// directory path that locks a shard goes through here so
    /// [`lock_acquisitions`](CacheDirectory::lock_acquisitions) is an
    /// exact census, not a sample.
    #[inline]
    fn lock_inner<'a>(&self, shard: &'a Shard) -> std::sync::MutexGuard<'a, Inner> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        shard.inner.lock()
    }

    /// Take the stripe mutex holding `dep`'s shard set, counting the
    /// acquisition.
    #[inline]
    fn lock_dep_stripe(&self, dep: &str) -> std::sync::MutexGuard<'_, HashMap<String, ShardSet>> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.dep_stripe(dep).lock()
    }

    /// Total directory lock acquisitions (shard inner mutexes plus dep
    /// stripes) since construction. Lets tests pin that a code path is
    /// directory-lock-free: snapshot, run the path, assert zero delta.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Record that shard `idx` (may) hold a dependent of `dep`. Must be
    /// called while holding shard `idx`'s lock so the bit is visible before
    /// any later `invalidate_dep` can lock the shard.
    fn mark_dep_shard(&self, dep: &str, idx: usize) {
        let mut stripe = self.lock_dep_stripe(dep);
        stripe
            .entry(dep.to_owned())
            .or_insert_with(|| ShardSet::new(self.shards.len()))
            .set(idx);
    }

    /// Record that shard `idx` no longer holds any dependent of `dep`.
    /// Must be called while holding shard `idx`'s lock.
    fn clear_dep_shard(&self, dep: &str, idx: usize) {
        let mut stripe = self.lock_dep_stripe(dep);
        if let Some(set) = stripe.get_mut(dep) {
            set.clear(idx);
            if set.is_empty() {
                stripe.remove(dep);
            }
        }
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
        self.lookup_node_inner(id, ttl, deps, node, false)
    }

    /// Multi-node lookup for a *peer-fetching* DPC node: a valid entry is a
    /// Hit even when `node` has not stored the fragment, so the template
    /// carries a `GET` instead of a node-miss `SET`. The node repairs an
    /// empty slot itself — peer-fetch from the previous ring owner, origin
    /// bypass as the last resort — which is what makes cluster joins a
    /// lazy, origin-free key-range handoff instead of a re-`SET` storm.
    pub fn lookup_node_trusting(
        &self,
        id: &FragmentId,
        ttl: Duration,
        deps: &[String],
        node: u32,
    ) -> Lookup {
        self.lookup_node_inner(id, ttl, deps, node, true)
    }

    fn lookup_node_inner(
        &self,
        id: &FragmentId,
        ttl: Duration,
        deps: &[String],
        node: u32,
        trusting: bool,
    ) -> Lookup {
        assert!(node < 64, "at most 64 DPC nodes are supported");
        let node_bit = 1u64 << node;
        let now = self.clock.now_nanos();
        // One hash serves shard selection and the fragment's flight key.
        let ident = shard_hash(id);
        let shard_idx = self.shard_index_of_hash(ident);
        let shard = &self.shards[shard_idx];
        let mut inner = self.lock_inner(shard);
        let inner = &mut *inner;

        if let Some(entry) = inner.entries.get_mut(id) {
            if entry.is_valid {
                if entry.expires_at > now {
                    entry.hits += 1;
                    inner.replacer.touch(&entry.dpc_key);
                    if trusting || entry.stored_nodes & node_bit != 0 {
                        inner.hits += 1;
                        return Lookup::Hit(entry.dpc_key);
                    }
                    // Node miss: this DPC has not stored the fragment yet.
                    // Re-emit a SET under the existing key.
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
                self.unregister_deps(&mut inner.dep_index, shard_idx, id, &deps);
                self.flight.invalidate(ident);
            }
        }
        // Miss path: allocate a key (freeList, then the shard's fresh key
        // segment, then replacement).
        let Some(key) = self.allocate_key(inner, shard_idx, shard.key_hi) else {
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
            self.mark_dep_shard(dep, shard_idx);
        }
        inner.entries.insert(id.clone(), entry);
        inner.key_owner.insert(key, id.clone());
        Self::collect_garbage(inner, shard.garbage_limit);
        Lookup::Miss(key)
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
        let shard_idx = self.shard_index_for(id);
        let mut inner = self.lock_inner(&self.shards[shard_idx]);
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
            self.mark_dep_shard(dep, shard_idx);
        }
        true
    }

    /// Report the produced content size of a *valid* entry for the
    /// resident-bytes gauges. The directory issues keys before content
    /// exists; the BEM calls this right after the code block runs.
    /// Returns false when the entry is absent or invalid.
    pub fn note_fragment_bytes(&self, id: &FragmentId, bytes: u64) -> bool {
        let shard_idx = self.shard_index_for(id);
        let mut inner = self.lock_inner(&self.shards[shard_idx]);
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

    /// Mark `id` invalid, returning its key to its shard's freeList.
    /// Returns true when the entry was valid.
    pub fn invalidate(&self, id: &FragmentId) -> bool {
        let shard_idx = self.shard_index_for(id);
        let mut inner = self.lock_inner(&self.shards[shard_idx]);
        self.invalidate_locked(&mut inner, shard_idx, id)
    }

    /// Invalidate `id` only if it is currently valid under `key` — the
    /// orphan-repair path after a flight leader died: the waiter that drew
    /// the repair claim retires the generation it was parked on (so its
    /// re-lookup misses and it becomes the new leader) without clobbering
    /// an entry that has already moved on to a different key.
    pub fn invalidate_if_key(&self, id: &FragmentId, key: DpcKey) -> bool {
        let shard_idx = self.shard_index_for(id);
        let mut inner = self.lock_inner(&self.shards[shard_idx]);
        match inner.entries.get(id) {
            Some(e) if e.is_valid && e.dpc_key == key => {}
            _ => return false,
        }
        self.invalidate_locked(&mut inner, shard_idx, id)
    }

    /// Invalidate every fragment registered as depending on `dep`.
    /// Returns the number of fragments invalidated.
    ///
    /// Dependents may live in any shard (the dep index is shard-local to
    /// keep registration on the miss path lock-free across shards), but
    /// this does *not* walk all N shards: the directory keeps a dep →
    /// shard-set index, so only shards that registered a dependent are
    /// locked. With sparse dependency fan-out — the common production shape,
    /// where one table row feeds a handful of fragments — a data-source
    /// update touches one or two shard locks instead of stalling all of
    /// them ([`DirectoryStats::dep_shard_scans`] counts the locks taken).
    pub fn invalidate_dep(&self, dep: &str) -> usize {
        self.invalidate_dep_keys(dep).len()
    }

    /// Like [`invalidate_dep`](Self::invalidate_dep), but returns the
    /// dpcKeys the invalidation returned to the freeLists. Cluster tiers
    /// gossip these so every DPC node can scrub the freed slots before the
    /// keys are reassigned (a scrubbed slot turns the silent stale-splice
    /// hazard into a detectable `MissingFragment`).
    pub fn invalidate_dep_keys(&self, dep: &str) -> Vec<DpcKey> {
        // Snapshot the shard set without holding any shard lock (lock
        // order: shard inner before dep_shards). A registration that lands
        // after this read linearizes after the whole invalidation.
        let Some(mask) = self.lock_dep_stripe(dep).get(dep).cloned() else {
            return Vec::new();
        };
        let mut freed = Vec::new();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            if !mask.contains(shard_idx) {
                continue;
            }
            self.dep_shard_scans.fetch_add(1, Ordering::Relaxed);
            let mut inner = self.lock_inner(shard);
            let Some(ids) = inner.dep_index.get(dep).cloned() else {
                // Stale bit (dependents expired/evicted since it was set):
                // clean it up so the next update skips this shard too.
                self.clear_dep_shard(dep, shard_idx);
                continue;
            };
            for id in ids {
                let key = inner.entries.get(&id).map(|e| e.dpc_key);
                if self.invalidate_locked(&mut inner, shard_idx, &id) {
                    freed.push(key.expect("invalidated entry must exist"));
                }
            }
        }
        freed
    }

    /// The *epoch* of `id`'s current valid entry, or `None` when the
    /// fragment is absent, invalid, or expired. The epoch is the entry's
    /// insertion sequence in its owning shard: it is strictly monotonic
    /// *per fragment* (a fragment always hashes to the same shard, and the
    /// shard's counter only grows), so two observations of the same
    /// fragment compare meaningfully — a larger epoch means the content
    /// was regenerated in between. Epochs of *different* fragments are not
    /// comparable (different shards count independently).
    ///
    /// Cost: one shard lock and one map probe — cheap enough for
    /// anti-entropy sweeps to call per fragment.
    pub fn fragment_epoch(&self, id: &FragmentId) -> Option<u64> {
        let now = self.clock.now_nanos();
        let shard_idx = self.shard_index_for(id);
        let inner = self.lock_inner(&self.shards[shard_idx]);
        inner
            .entries
            .get(id)
            .filter(|e| e.is_valid && e.expires_at > now)
            .map(|e| e.seq)
    }

    /// Invalidate everything (origin data reload).
    pub fn invalidate_all(&self) -> usize {
        let mut n = 0;
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let mut inner = self.lock_inner(shard);
            let ids: Vec<FragmentId> = inner
                .entries
                .iter()
                .filter(|(_, e)| e.is_valid)
                .map(|(id, _)| id.clone())
                .collect();
            for id in &ids {
                if self.invalidate_locked(&mut inner, shard_idx, id) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Eagerly expire all valid entries whose TTL has passed. Returns the
    /// number expired. (The lazy check in [`lookup`](Self::lookup) makes
    /// this optional; a background sweeper keeps directory gauges honest.)
    /// Shards are swept one at a time, so concurrent lookups on other
    /// shards proceed unblocked.
    pub fn sweep_expired(&self) -> usize {
        let now = self.clock.now_nanos();
        let mut n = 0;
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let mut inner = self.lock_inner(shard);
            let expired: Vec<FragmentId> = inner
                .entries
                .iter()
                .filter(|(_, e)| e.is_valid && e.expires_at <= now)
                .map(|(id, _)| id.clone())
                .collect();
            for id in &expired {
                if self.invalidate_locked(&mut inner, shard_idx, id) {
                    inner.invalidations -= 1; // reclassify:
                    inner.expirations += 1; // it expired, wasn't invalidated
                    n += 1;
                }
            }
        }
        n
    }

    /// Counter/gauge snapshot, aggregated over all shards.
    pub fn stats(&self) -> DirectoryStats {
        let flight = self.flight.counters();
        let mut stats = DirectoryStats {
            shards: self.shards.len(),
            dep_shard_scans: self.dep_shard_scans.load(Ordering::Relaxed),
            flight_leaders: flight.leaders,
            coalesced_waits: flight.waits_served,
            flight_retries: flight.wait_retries + flight.stale_discards,
            ..DirectoryStats::default()
        };
        for shard in &self.shards {
            let inner = self.lock_inner(shard);
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.node_misses += inner.node_misses;
            stats.expirations += inner.expirations;
            stats.invalidations += inner.invalidations;
            stats.evictions += inner.evictions;
            stats.uncacheable += inner.uncacheable;
            stats.resident_bytes += inner.resident_bytes;
            stats.resident_bytes_hwm += inner.resident_bytes_hwm;
            stats.valid_entries += inner.key_owner.len();
            stats.total_entries += inner.entries.len();
            stats.free_keys += inner.free_list.len();
        }
        stats
    }

    /// Per-shard replacement counters (see [`ShardStats`]): eviction
    /// pressure is a per-shard phenomenon — a skewed key
    /// population can have one shard evicting under pressure while the
    /// rest sit half empty, which the aggregate in
    /// [`stats`](Self::stats) averages away.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| {
                let inner = self.lock_inner(shard);
                ShardStats {
                    evictions: inner.evictions,
                    resident_bytes: inner.resident_bytes,
                    resident_bytes_hwm: inner.resident_bytes_hwm,
                    valid_entries: inner.key_owner.len(),
                    free_keys: inner.free_list.len(),
                }
            })
            .collect()
    }

    /// Number of valid entries per shard — balance diagnostics for tests
    /// and benches.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| self.lock_inner(s).key_owner.len())
            .collect()
    }

    /// Verify internal invariants; returns a description of the first
    /// violation. Used heavily by the randomized property tests.
    ///
    /// Invariants, per shard (their conjunction gives the global ones,
    /// because shard key segments tile `0..capacity` disjointly):
    /// 1. every key in the shard's segment is in exactly one of {valid
    ///    (key_owner), freeList, never-allocated};
    /// 2. the freeList contains no duplicates and only keys from the
    ///    shard's own allocated range;
    /// 3. the replacer tracks exactly the valid keys;
    /// 4. at most `segment` keys exist in the shard — hence at most
    ///    `capacity` in total.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut total_allocated = 0usize;
        for (s, shard) in self.shards.iter().enumerate() {
            let inner = self.lock_inner(shard);
            let allocated = (inner.next_fresh - shard.key_lo) as usize;
            total_allocated += allocated;
            if allocated > shard.capacity() {
                return Err(format!(
                    "shard {s} allocated {allocated} keys > segment {}",
                    shard.capacity()
                ));
            }
            let mut seen = HashSet::new();
            for key in &inner.free_list {
                if key.0 < shard.key_lo || key.0 >= inner.next_fresh {
                    return Err(format!(
                        "shard {s} freeList holds out-of-segment or never-allocated key {key}"
                    ));
                }
                if !seen.insert(*key) {
                    return Err(format!("shard {s} freeList holds duplicate key {key}"));
                }
                if inner.key_owner.contains_key(key) {
                    return Err(format!("shard {s}: key {key} is both free and valid"));
                }
            }
            if inner.key_owner.len() + inner.free_list.len() != allocated {
                return Err(format!(
                    "shard {s} key conservation violated: {} valid + {} free != {} allocated",
                    inner.key_owner.len(),
                    inner.free_list.len(),
                    allocated
                ));
            }
            if inner.replacer.len() != inner.key_owner.len() {
                return Err(format!(
                    "shard {s} replacer tracks {} keys but {} are valid",
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
                    "shard {s} resident_bytes {} != sum of valid entry bytes {}",
                    inner.resident_bytes, valid_bytes
                ));
            }
            if inner.resident_bytes > inner.resident_bytes_hwm {
                return Err(format!(
                    "shard {s} resident_bytes {} exceeds its high-water mark {}",
                    inner.resident_bytes, inner.resident_bytes_hwm
                ));
            }
            for (key, id) in &inner.key_owner {
                match inner.entries.get(id) {
                    Some(e) if e.is_valid && e.dpc_key == *key => {}
                    _ => return Err(format!("shard {s} key_owner[{key}] = {id} is inconsistent")),
                }
            }
        }
        if total_allocated > self.capacity {
            return Err(format!(
                "allocated {total_allocated} keys > capacity {}",
                self.capacity
            ));
        }
        self.flight.check_invariants()
    }

    // -- internals ----------------------------------------------------------

    fn allocate_key(&self, inner: &mut Inner, shard_idx: usize, key_hi: u32) -> Option<DpcKey> {
        if let Some(key) = inner.free_list.pop_front() {
            return Some(key);
        }
        if inner.next_fresh < key_hi {
            let key = DpcKey(inner.next_fresh);
            inner.next_fresh += 1;
            return Some(key);
        }
        // All of this shard's keys are in use and valid: the shard's
        // replacement manager names a victim, whose key is taken over
        // directly (no freeList round trip). Policy `None` names none, and
        // the caller serves the fragment inline.
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
        self.unregister_deps(&mut inner.dep_index, shard_idx, &victim_id, &deps);
        inner.evictions += 1;
        // The victim's key is about to be reassigned: any in-flight
        // produce of the victim fragment must not publish.
        self.flight.invalidate(shard_hash(&victim_id));
        Some(victim_key)
    }

    fn invalidate_locked(&self, inner: &mut Inner, shard_idx: usize, id: &FragmentId) -> bool {
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
        self.unregister_deps(&mut inner.dep_index, shard_idx, id, &deps);
        self.flight.invalidate(shard_hash(id));
        true
    }

    /// Drop `id`'s registrations from the shard-local dep index; when a dep
    /// loses its last dependent in this shard, clear the shard's bit in the
    /// directory-level dep → shard-set index (the caller holds the shard
    /// lock, which is what makes the bit transition safe).
    fn unregister_deps(
        &self,
        dep_index: &mut HashMap<String, HashSet<FragmentId>>,
        shard_idx: usize,
        id: &FragmentId,
        deps: &[String],
    ) {
        for dep in deps {
            if let Some(set) = dep_index.get_mut(dep) {
                set.remove(id);
                if set.is_empty() {
                    dep_index.remove(dep);
                    self.clear_dep_shard(dep, shard_idx);
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

    fn dir_with(capacity: usize, shards: usize) -> CacheDirectory {
        CacheDirectory::new(
            &BemConfig::default()
                .with_capacity(capacity)
                .with_shards(shards),
        )
    }

    #[test]
    fn segments_tile_the_key_space() {
        for (cap, n) in [(1usize, 16usize), (7, 3), (16, 16), (4096, 16), (10, 4)] {
            let dir = dir_with(cap, n);
            let mut covered = 0usize;
            let mut prev_hi = 0u32;
            for shard in dir.shards.iter() {
                assert_eq!(shard.key_lo, prev_hi, "segments must be contiguous");
                prev_hi = shard.key_hi;
                covered += shard.capacity();
            }
            assert_eq!(covered, cap, "cap {cap} shards {n}");
            assert_eq!(prev_hi as usize, cap);
        }
    }

    #[test]
    fn capacity_one_collapses_to_one_shard() {
        let dir = dir_with(1, 16);
        assert_eq!(dir.shard_count(), 1);
    }

    #[test]
    fn keys_are_unique_across_shards() {
        let dir = dir_with(64, 8);
        let mut keys = HashSet::new();
        let mut reissued = 0usize;
        for i in 0..64 {
            let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
            match dir.lookup(&id, Duration::from_secs(60), &[]) {
                // A key may only come back when its shard evicted the
                // previous owner (hash imbalance overfilling a segment);
                // two *live* fragments never share one.
                Lookup::Miss(k) => {
                    assert!(k.index() < 64, "key {k} out of range");
                    if !keys.insert(k) {
                        reissued += 1;
                    }
                }
                other => panic!("expected a miss, got {other:?}"),
            }
        }
        let stats = dir.stats();
        assert_eq!(
            reissued as u64, stats.evictions,
            "reissue requires eviction"
        );
        assert_eq!(keys.len() + reissued, 64);
        assert_eq!(stats.valid_entries, 64 - reissued);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn lookup_is_sticky_to_one_key() {
        let dir = dir_with(32, 4);
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
        let dir = dir_with(32, 8);
        let id = FragmentId::new("victim");
        let Lookup::Miss(k) = dir.lookup(&id, Duration::from_secs(60), &[]) else {
            panic!("must miss");
        };
        assert!(dir.invalidate(&id));
        dir.check_invariants().unwrap();
        // The same fragment re-misses and reuses the freed key (it pops the
        // shard's freeList before fresh space).
        assert_eq!(
            dir.lookup(&id, Duration::from_secs(60), &[]),
            Lookup::Miss(k)
        );
    }

    #[test]
    fn dep_invalidation_reaches_all_shards() {
        let dir = dir_with(256, 16);
        // Many fragments sharing one dependency, scattered across shards.
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
        let dir = dir_with(256, 16);
        // One dependent fragment: exactly one shard holds it.
        let id = FragmentId::new("lonely");
        let _ = dir.lookup(&id, Duration::from_secs(600), &["tbl/one".to_owned()]);
        // Plenty of unrelated fragments spread over every shard.
        for i in 0..128 {
            let other = FragmentId::with_params("noise", &[("i", &i.to_string())]);
            let _ = dir.lookup(&other, Duration::from_secs(600), &[]);
        }
        assert_eq!(dir.stats().dep_shard_scans, 0);
        assert_eq!(dir.invalidate_dep("tbl/one"), 1);
        assert_eq!(
            dir.stats().dep_shard_scans,
            1,
            "one dependent must cost one shard lock, not 16"
        );
        dir.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_unknown_dep_locks_no_shards() {
        let dir = dir_with(256, 16);
        for i in 0..64 {
            let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
            let _ = dir.lookup(&id, Duration::from_secs(600), &["tbl/known".to_owned()]);
        }
        assert_eq!(dir.invalidate_dep("tbl/unknown"), 0);
        assert_eq!(dir.stats().dep_shard_scans, 0);
    }

    #[test]
    fn dep_shard_index_is_cleaned_and_rebuilt() {
        let dir = dir_with(256, 16);
        let dep = "tbl/cycle".to_owned();
        let id = FragmentId::new("cycling");
        let _ = dir.lookup(&id, Duration::from_secs(600), std::slice::from_ref(&dep));
        assert_eq!(dir.invalidate_dep(&dep), 1);
        let after_first = dir.stats().dep_shard_scans;
        // The index entry is gone: a second update is free.
        assert_eq!(dir.invalidate_dep(&dep), 0);
        assert_eq!(dir.stats().dep_shard_scans, after_first);
        // Re-registration rebuilds the bit and invalidation works again.
        let _ = dir.lookup(&id, Duration::from_secs(600), std::slice::from_ref(&dep));
        assert_eq!(dir.invalidate_dep(&dep), 1);
        assert_eq!(dir.stats().dep_shard_scans, after_first + 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn plain_invalidate_clears_dep_shard_bit() {
        let dir = dir_with(256, 16);
        let dep = "tbl/direct".to_owned();
        let id = FragmentId::new("direct");
        let _ = dir.lookup(&id, Duration::from_secs(600), std::slice::from_ref(&dep));
        // Direct (non-dep) invalidation unregisters the dependency too, so
        // the following dep update must not lock any shard.
        assert!(dir.invalidate(&id));
        assert_eq!(dir.invalidate_dep(&dep), 0);
        assert_eq!(dir.stats().dep_shard_scans, 0);
    }

    #[test]
    fn add_deps_registers_in_shard_index() {
        let dir = dir_with(256, 16);
        let id = FragmentId::new("deferred");
        let _ = dir.lookup(&id, Duration::from_secs(600), &[]);
        assert!(dir.add_deps(&id, &["tbl/late".to_owned()]));
        assert_eq!(dir.invalidate_dep("tbl/late"), 1);
        assert_eq!(dir.stats().dep_shard_scans, 1);
    }

    #[test]
    fn shard_occupancy_is_reasonably_balanced() {
        let dir = dir_with(4096, 16);
        for i in 0..1024 {
            let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
            let _ = dir.lookup(&id, Duration::from_secs(600), &[]);
        }
        let occ = dir.shard_occupancy();
        assert_eq!(occ.iter().sum::<usize>(), 1024);
        let max = *occ.iter().max().unwrap();
        let min = *occ.iter().min().unwrap();
        // FNV over distinct ids: expect no shard more than ~3x the mean.
        assert!(max <= 3 * (1024 / 16), "max {max} min {min} occ {occ:?}");
        assert!(min > 0, "occ {occ:?}");
    }

    #[test]
    fn full_shard_with_no_replacement_is_uncacheable() {
        let dir = CacheDirectory::new(
            &BemConfig::default()
                .with_capacity(4)
                .with_shards(1)
                .with_replace(ReplacePolicy::None),
        );
        for i in 0..4 {
            let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
            assert!(matches!(
                dir.lookup(&id, Duration::from_secs(60), &[]),
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
    fn trusting_lookup_hits_for_unseen_nodes() {
        let dir = dir_with(32, 4);
        let id = FragmentId::new("shared");
        let Lookup::Miss(k) = dir.lookup_node(&id, Duration::from_secs(60), &[], 0) else {
            panic!("node 0 must miss first");
        };
        // Classic §7 behaviour: node 1 gets a node-miss SET…
        assert_eq!(
            dir.lookup_node(&id, Duration::from_secs(60), &[], 1),
            Lookup::Miss(k)
        );
        // …but a peer-fetching node 2 gets a GET and repairs itself.
        assert_eq!(
            dir.lookup_node_trusting(&id, Duration::from_secs(60), &[], 2),
            Lookup::Hit(k)
        );
        let stats = dir.stats();
        assert_eq!(stats.node_misses, 1, "trusting lookups are not node misses");
        // Invalidation still forces a SET on the trusting path.
        assert!(dir.invalidate(&id));
        assert_eq!(
            dir.lookup_node_trusting(&id, Duration::from_secs(60), &[], 2),
            Lookup::Miss(k)
        );
    }

    #[test]
    fn invalidate_dep_keys_returns_exactly_the_freed_keys() {
        let dir = dir_with(256, 16);
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
        let dir = dir_with(64, 8);
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
    fn dep_index_stripes_agree_with_single_stripe_semantics() {
        // The same registration/invalidation sequence against many deps
        // lands in different stripes but must behave exactly as before:
        // each dep invalidates only its own dependents.
        let dir = dir_with(512, 16);
        for d in 0..64 {
            for i in 0..3 {
                let id =
                    FragmentId::with_params("f", &[("d", &d.to_string()), ("i", &i.to_string())]);
                let _ = dir.lookup(&id, Duration::from_secs(600), &[format!("tbl/{d}")]);
            }
        }
        for d in 0..64 {
            assert_eq!(dir.invalidate_dep(&format!("tbl/{d}")), 3, "dep {d}");
        }
        assert_eq!(dir.stats().valid_entries, 0);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn invalidation_freed_slots_are_not_counted_as_evictions() {
        // A shard-full directory whose entries are freed by *invalidation*
        // must report zero evictions — freed keys return through the
        // freeList, and reusing them is not a replacement decision.
        let dir = CacheDirectory::new(&BemConfig::default().with_capacity(8).with_shards(1));
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
        let dir = dir_with(32, 4);
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
        let per_shard = dir.shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.resident_bytes).sum::<u64>(), 500);
        assert_eq!(
            per_shard.iter().map(|s| s.resident_bytes_hwm).sum::<u64>(),
            dir.stats().resident_bytes_hwm
        );
        dir.check_invariants().unwrap();
    }

    #[test]
    fn every_policy_serves_the_directory_workload() {
        // Smoke the whole menu through lookup/hit/invalidate/evict cycles;
        // the invariant checker is the oracle.
        for policy in ReplacePolicy::ALL {
            let dir = CacheDirectory::new(
                &BemConfig::default()
                    .with_capacity(16)
                    .with_shards(4)
                    .with_replace(policy),
            );
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
        let dir = dir_with(8, 1);
        let id = FragmentId::new("inv");
        let Lookup::Miss(_) = dir.lookup(&id, Duration::from_secs(600), &[]) else {
            panic!("must miss");
        };
        let leader = dir.flight().begin(dir.flight_key(&id));
        assert!(dir.invalidate(&id));
        assert_eq!(leader.publish(Bytes::from_static(b"stale")), Publish::Stale);

        // Lazy TTL expiry.
        let (clock, handle) = Clock::virtual_clock();
        let dir = CacheDirectory::new(
            &BemConfig::default()
                .with_capacity(8)
                .with_shards(1)
                .with_clock(clock),
        );
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
        let dir = dir_with(2, 1);
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
        let dir = dir_with(1, 1);
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
        let dir = dir_with(8, 1);
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
        let dir = dir_with(8, 1);
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

    #[test]
    fn stats_aggregate_across_shards() {
        let dir = dir_with(64, 8);
        for i in 0..32 {
            let id = FragmentId::with_params("f", &[("i", &i.to_string())]);
            let _ = dir.lookup(&id, Duration::from_secs(60), &[]);
            let _ = dir.lookup(&id, Duration::from_secs(60), &[]);
        }
        let stats = dir.stats();
        assert_eq!(stats.misses, 32);
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.valid_entries, 32);
        assert_eq!(stats.shards, 8);
    }
}
