//! Single-flight miss coalescing — dogpile protection for every miss arm.
//!
//! When a popular dependency is invalidated, every concurrent request for
//! the affected fragment misses at the same instant and independently
//! re-runs the same `produce` closure (or whole-page regeneration). A
//! [`FlightGroup`] collapses that storm: the first
//! requester becomes the **leader** and computes the value; everyone else
//! **parks** on the in-flight entry and receives a clone of the leader's
//! result when it is published. Appserver work then scales
//! O(invalidations), not O(requests).
//!
//! Three rules make this safe rather than merely fast:
//!
//! * **Poisoning** — the leader holds an RAII [`FlightLeader`] guard. If
//!   it unwinds (the `produce` closure panicked) or otherwise drops the
//!   guard without publishing, the flight is marked poisoned and all
//!   parked waiters wake with [`Wait::Orphaned`]/[`Join::Retry`]; exactly
//!   one observer is handed the orphan claim so it can become the new
//!   leader. Nobody hangs on a dead leader.
//! * **Generation staleness** — [`FlightGroup::invalidate`] stamps an
//!   in-flight computation stale. The leader's eventual
//!   [`FlightLeader::publish`] returns [`Publish::Stale`] and the value
//!   is discarded instead of broadcast; waiters are woken at invalidation
//!   time and retry against the fresh generation. A result computed
//!   before the invalidation can never be published after it.
//! * **Sequence stamps** — every flight instance carries a unique `seq`.
//!   A guard can only publish/poison the flight it started, and a parked
//!   waiter only consumes a result from the generation it parked on.
//!   Note what the stamp does *not* do: it binds a waiter to a flight
//!   *instance*, not a flight to the underlying cache entry — so callers
//!   must choose `K` to be a **stable identity** for the computed value.
//!   The BEM keys its group by the fragment-identity hash
//!   ([`CacheDirectory::flight_key`](crate::directory::CacheDirectory::flight_key)),
//!   never by the recyclable `DpcKey` slot index: a bare slot index can
//!   be freed and reassigned to a different fragment while a waiter is
//!   parked, and the waiter would be woken with the other fragment's
//!   bytes.
//!
//! The uncontended path is deliberately cost-free: key and state live
//! inline in a pre-reserved map (no per-flight allocation), one group
//! mutex guards the map, and probes first check a lock-free live-flight
//! counter so hit-path callers skip the mutex entirely while no miss is
//! in flight. A zero-waiter flight is insert + remove, nothing retained.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Entries pre-reserved in the in-flight map so steady-state flights never
/// allocate. More than this many *concurrent* distinct-key misses (per
/// group) is already a cold-start storm where one map growth is noise.
const RESERVED_FLIGHTS: usize = 64;

/// One in-flight (or just-landed) computation.
enum Flight<V> {
    /// Leader is computing. `waiters` counts parked threads; `stale`
    /// means an invalidation arrived mid-flight and the result must not
    /// be published. `tag` is the leader's opaque annotation (see
    /// [`FlightLeader::annotate`]), handed to every waiter with the value.
    Pending {
        seq: u64,
        waiters: u32,
        stale: bool,
        tag: u64,
    },
    /// Leader published; `remaining` parked waiters have yet to collect.
    /// Removed when the last one drains.
    Done {
        seq: u64,
        value: V,
        remaining: u32,
        tag: u64,
    },
    /// Leader died without publishing. `claimed` hands the repair role to
    /// exactly one observer; removed when the parked waiters drain.
    Poisoned {
        seq: u64,
        remaining: u32,
        claimed: bool,
    },
}

/// Monotonic counters describing a group's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightCounters {
    /// Flights started (leaderships taken).
    pub leaders: u64,
    /// Results broadcast (or returned with zero waiters).
    pub published: u64,
    /// Results discarded because the flight went stale mid-computation.
    pub stale_discards: u64,
    /// Leader guards dropped without publishing (panic/abandon).
    pub poisoned: u64,
    /// Values served to parked or probing waiters.
    pub waits_served: u64,
    /// Waiters sent back to retry (stale, superseded, or poisoned flight).
    pub wait_retries: u64,
}

/// Outcome of [`FlightLeader::publish`].
#[derive(Debug, PartialEq, Eq)]
pub enum Publish {
    /// Broadcast to `n` parked waiters (0 = uncontended, entry removed).
    Delivered(u32),
    /// An invalidation landed mid-flight: the value was discarded and the
    /// caller must treat its own copy as stale (recompute, don't emit a
    /// cacheable SET).
    Stale,
}

/// Outcome of [`FlightGroup::wait`] (probe-only entry, used on hit paths).
#[derive(Debug)]
pub enum Wait<V> {
    /// No flight for this key — proceed normally.
    NoFlight,
    /// A leader's published value, paired with the leader's annotation
    /// tag (0 if the leader never annotated) — tracing uses it to point
    /// waiter spans at the leader's span.
    Value(V, u64),
    /// The flight went stale or was superseded — re-run the lookup.
    Retry,
    /// The leader died and this caller drew the repair claim: it should
    /// invalidate the underlying entry and become the new leader.
    Orphaned,
}

/// Outcome of [`FlightGroup::join`] (lead-or-wait entry, used on miss
/// paths that have no separate directory to arbitrate leadership).
pub enum Join<'a, K: Eq + Hash + Copy, V: Clone> {
    /// This caller is the leader and must compute, then publish or drop.
    Lead(FlightLeader<'a, K, V>),
    /// A concurrent leader's published value plus its annotation tag
    /// (see [`Wait::Value`]).
    Value(V, u64),
    /// Flight went stale/poisoned under us — loop and join again.
    Retry,
}

struct Inner<K, V> {
    flights: HashMap<K, Flight<V>>,
}

/// A keyed single-flight group. `K` is the coalescing identity (a
/// `DpcKey` index, URL hash, …); `V` is the broadcast value, cloned once
/// per waiter (use a refcounted type like `Bytes`).
pub struct FlightGroup<K, V> {
    inner: Mutex<Inner<K, V>>,
    cv: Condvar,
    /// Live map entries; hit-path probes check this without locking.
    active: AtomicU64,
    /// Flight instance stamp source.
    next_seq: AtomicU64,
    leaders: AtomicU64,
    published: AtomicU64,
    stale_discards: AtomicU64,
    poisoned: AtomicU64,
    waits_served: AtomicU64,
    wait_retries: AtomicU64,
}

impl<K: Eq + Hash + Copy, V: Clone> Default for FlightGroup<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy, V: Clone> FlightGroup<K, V> {
    pub fn new() -> FlightGroup<K, V> {
        FlightGroup {
            inner: Mutex::new(Inner {
                flights: HashMap::with_capacity(RESERVED_FLIGHTS),
            }),
            cv: Condvar::new(),
            active: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            leaders: AtomicU64::new(0),
            published: AtomicU64::new(0),
            stale_discards: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            waits_served: AtomicU64::new(0),
            wait_retries: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        // A waiter panicking while parked cannot leave shared state
        // inconsistent (it only reads), so poisoning is ignored — matching
        // the workspace's vendored parking_lot semantics.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Take unconditional leadership of `key`'s flight. Any existing
    /// flight for the key is superseded (its waiters wake and retry) —
    /// callers use this when an external arbiter (the cache directory)
    /// has already decided exactly one thread runs the miss.
    pub fn begin(&self, key: K) -> FlightLeader<'_, K, V> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.lock();
        let previous = inner.flights.insert(
            key,
            Flight::Pending {
                seq,
                waiters: 0,
                stale: false,
                tag: 0,
            },
        );
        match previous {
            None => {
                // Release pairs with the Acquire fast-path loads in
                // `wait`/`in_flight`; those probes are best-effort (see
                // `wait`), but the ordering keeps the counter itself
                // coherent with the map for whoever does take the mutex.
                self.active.fetch_add(1, Ordering::Release);
            }
            Some(Flight::Pending { waiters, .. }) if waiters > 0 => self.cv.notify_all(),
            Some(Flight::Done { remaining, .. }) | Some(Flight::Poisoned { remaining, .. })
                if remaining > 0 =>
            {
                self.cv.notify_all()
            }
            Some(_) => {}
        }
        drop(inner);
        self.leaders.fetch_add(1, Ordering::Relaxed);
        FlightLeader {
            group: self,
            key,
            seq,
            settled: false,
        }
    }

    /// Lead-or-wait: become the leader if nobody is flying `key`,
    /// otherwise park until the flight lands. Used by arms (the page cache)
    /// where the flight map itself arbitrates leadership.
    pub fn join(&self, key: K) -> Join<'_, K, V> {
        {
            let inner = self.lock();
            if !inner.flights.contains_key(&key) {
                drop(inner);
                return Join::Lead(self.begin(key));
            }
        }
        match self.wait(key) {
            Wait::NoFlight => Join::Retry, // landed between probe and park
            Wait::Value(v, tag) => Join::Value(v, tag),
            Wait::Retry | Wait::Orphaned => Join::Retry,
        }
    }

    /// Probe `key`'s flight from a hit path: park if a leader is
    /// computing, collect the value if one just landed, or report that no
    /// flight exists. Never takes leadership.
    pub fn wait(&self, key: K) -> Wait<V> {
        // Lock-free fast path: with no flight anywhere in the group, a hit
        // is just a hit. This is best-effort — a probe racing a concurrent
        // `begin` may read 0 and skip a brand-new flight, which only costs
        // a missed coalesce (the caller serves uncoalesced), never
        // correctness. Paths that carry a guarantee (`invalidate`) always
        // take the mutex instead.
        if self.active.load(Ordering::Acquire) == 0 {
            return Wait::NoFlight;
        }
        let mut inner = self.lock();
        let mut parked_seq: Option<u64> = None;
        loop {
            match inner.flights.get_mut(&key) {
                None => {
                    return if parked_seq.is_some() {
                        // Our flight vanished (stale publish or drained
                        // poison tombstone) — re-run the lookup.
                        self.wait_retries.fetch_add(1, Ordering::Relaxed);
                        Wait::Retry
                    } else {
                        Wait::NoFlight
                    };
                }
                Some(Flight::Pending {
                    seq,
                    waiters,
                    stale,
                    ..
                }) => {
                    match parked_seq {
                        Some(mine) if mine != *seq => {
                            // Superseded by a newer generation we were
                            // never counted in.
                            self.wait_retries.fetch_add(1, Ordering::Relaxed);
                            return Wait::Retry;
                        }
                        _ => {}
                    }
                    if *stale {
                        if parked_seq.is_some() {
                            *waiters -= 1;
                        }
                        self.wait_retries.fetch_add(1, Ordering::Relaxed);
                        return Wait::Retry;
                    }
                    if parked_seq.is_none() {
                        parked_seq = Some(*seq);
                        *waiters += 1;
                    }
                    inner = match self.cv.wait(inner) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                Some(Flight::Done {
                    seq,
                    value,
                    remaining,
                    tag,
                }) => {
                    if let Some(mine) = parked_seq {
                        if mine != *seq {
                            self.wait_retries.fetch_add(1, Ordering::Relaxed);
                            return Wait::Retry;
                        }
                    }
                    let v = value.clone();
                    let t = *tag;
                    if parked_seq.is_some() {
                        *remaining -= 1;
                        if *remaining == 0 {
                            inner.flights.remove(&key);
                            self.active.fetch_sub(1, Ordering::Release);
                        }
                    }
                    self.waits_served.fetch_add(1, Ordering::Relaxed);
                    return Wait::Value(v, t);
                }
                Some(Flight::Poisoned {
                    seq,
                    remaining,
                    claimed,
                }) => {
                    let ours = parked_seq.is_none() || parked_seq == Some(*seq);
                    let claim = ours && !*claimed;
                    if claim {
                        *claimed = true;
                    }
                    if parked_seq == Some(*seq) {
                        *remaining -= 1;
                        if *remaining == 0 {
                            inner.flights.remove(&key);
                            self.active.fetch_sub(1, Ordering::Release);
                        }
                    }
                    self.wait_retries.fetch_add(1, Ordering::Relaxed);
                    return if claim { Wait::Orphaned } else { Wait::Retry };
                }
            }
        }
    }

    /// Stamp any in-flight computation for `key` stale and drop any
    /// landed-but-uncollected result. Called from every path that frees
    /// or invalidates the underlying entry, so a result computed before
    /// the invalidation can never be served after it.
    pub fn invalidate(&self, key: K) {
        // Always take the mutex — no fast path. The never-publish-after-
        // invalidate guarantee needs a synchronizing edge with `begin`
        // (whose counter increment alone establishes none), and the mutex
        // provides it: a flight begun before this acquisition is observed
        // and stamped; one begun after computes against post-invalidation
        // data. Invalidation is off the hot path, so the lock is cheap.
        let mut inner = self.lock();
        match inner.flights.get_mut(&key) {
            Some(Flight::Pending { waiters, stale, .. }) => {
                *stale = true;
                if *waiters > 0 {
                    self.cv.notify_all();
                }
            }
            Some(Flight::Done { remaining, .. }) => {
                let wake = *remaining > 0;
                inner.flights.remove(&key);
                self.active.fetch_sub(1, Ordering::Release);
                if wake {
                    self.cv.notify_all();
                }
            }
            Some(Flight::Poisoned { .. }) | None => {}
        }
    }

    /// [`FlightGroup::invalidate`] for every live flight — the bulk-drop
    /// hook (cache `clear`, node scrub), where enumerating keys on the
    /// caller's side is impossible because in-flight misses have no
    /// installed entry yet.
    pub fn invalidate_all(&self) {
        // Same contract as `invalidate`: no fast path, the mutex is the
        // synchronizing edge.
        let mut inner = self.lock();
        let mut wake = false;
        let mut drained: Vec<K> = Vec::new();
        for (key, flight) in inner.flights.iter_mut() {
            match flight {
                Flight::Pending { waiters, stale, .. } => {
                    *stale = true;
                    wake |= *waiters > 0;
                }
                Flight::Done { remaining, .. } => {
                    wake |= *remaining > 0;
                    drained.push(*key);
                }
                Flight::Poisoned { .. } => {}
            }
        }
        for key in drained {
            inner.flights.remove(&key);
            self.active.fetch_sub(1, Ordering::Release);
        }
        drop(inner);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Parked waiters on `key`'s current flight (0 if none). Test and
    /// orchestration hook — lets a deterministic scenario hold the leader
    /// until the whole crowd has parked.
    pub fn parked_waiters(&self, key: K) -> u32 {
        match self.lock().flights.get(&key) {
            Some(Flight::Pending { waiters, .. }) => *waiters,
            _ => 0,
        }
    }

    /// True if a leader is currently computing `key`.
    pub fn in_flight(&self, key: K) -> bool {
        if self.active.load(Ordering::Acquire) == 0 {
            return false;
        }
        matches!(
            self.lock().flights.get(&key),
            Some(Flight::Pending { stale: false, .. })
        )
    }

    /// Lifetime counters.
    pub fn counters(&self) -> FlightCounters {
        FlightCounters {
            leaders: self.leaders.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            stale_discards: self.stale_discards.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            waits_served: self.waits_served.load(Ordering::Relaxed),
            wait_retries: self.wait_retries.load(Ordering::Relaxed),
        }
    }

    /// Structural self-check: the live-flight counter tracks the map, per
    /// entry state is sane, and every leadership is accounted for
    /// (published, discarded, poisoned, or still in flight).
    pub fn check_invariants(&self) -> Result<(), String> {
        let inner = self.lock();
        let live = inner.flights.len() as u64;
        let active = self.active.load(Ordering::Relaxed);
        if active != live {
            return Err(format!(
                "flight active counter {active} != live entries {live}"
            ));
        }
        let mut pending = 0u64;
        for flight in inner.flights.values() {
            match flight {
                Flight::Pending { .. } => pending += 1,
                Flight::Done { remaining, .. } => {
                    if *remaining == 0 {
                        return Err("landed flight retained with no waiters".into());
                    }
                }
                Flight::Poisoned {
                    remaining, claimed, ..
                } => {
                    if *remaining == 0 && *claimed {
                        return Err("claimed poison tombstone not removed".into());
                    }
                }
            }
        }
        drop(inner);
        let c = self.counters();
        let settled = c.published + c.stale_discards + c.poisoned;
        // `pending` flights still hold their guard; everything else must
        // have settled exactly once. Guards alive between begin() and
        // publish() make this an inequality outside quiescence.
        if settled + pending > c.leaders {
            return Err(format!(
                "flight accounting leak: published {} + stale {} + poisoned {} + pending {pending} > leaders {}",
                c.published, c.stale_discards, c.poisoned, c.leaders
            ));
        }
        Ok(())
    }
}

/// RAII leadership of one flight. Either consume it with
/// [`FlightLeader::publish`] or let it drop to poison the flight (waking
/// waiters so one of them can take over).
pub struct FlightLeader<'a, K: Eq + Hash + Copy, V: Clone> {
    group: &'a FlightGroup<K, V>,
    key: K,
    seq: u64,
    settled: bool,
}

impl<K: Eq + Hash + Copy, V: Clone> FlightLeader<'_, K, V> {
    /// The unique stamp of this flight instance.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Attach an opaque annotation to the flight — delivered to every
    /// waiter alongside the published value ([`Wait::Value`]'s second
    /// element). Tracing stores the leader's span id here so waiter spans
    /// can name the span they coalesced behind. A no-op if the flight was
    /// superseded or already settled.
    pub fn annotate(&self, tag: u64) {
        let mut inner = self.group.lock();
        if let Some(Flight::Pending { seq, tag: slot, .. }) = inner.flights.get_mut(&self.key) {
            if *seq == self.seq {
                *slot = tag;
            }
        }
    }

    /// Land the flight: broadcast `value` to parked waiters, or report
    /// [`Publish::Stale`] if an invalidation arrived mid-flight (the
    /// value is discarded and the caller must recompute).
    pub fn publish(mut self, value: V) -> Publish {
        self.settled = true;
        let group = self.group;
        let mut inner = group.lock();
        match inner.flights.get_mut(&self.key) {
            Some(Flight::Pending {
                seq,
                waiters,
                stale,
                tag,
            }) if *seq == self.seq => {
                let tag = *tag;
                if *stale {
                    inner.flights.remove(&self.key);
                    group.active.fetch_sub(1, Ordering::Release);
                    drop(inner);
                    group.stale_discards.fetch_add(1, Ordering::Relaxed);
                    group.cv.notify_all();
                    Publish::Stale
                } else if *waiters == 0 {
                    // Zero-waiter flight: nothing retained, nobody woken.
                    inner.flights.remove(&self.key);
                    group.active.fetch_sub(1, Ordering::Release);
                    drop(inner);
                    group.published.fetch_add(1, Ordering::Relaxed);
                    Publish::Delivered(0)
                } else {
                    let n = *waiters;
                    *inner.flights.get_mut(&self.key).expect("entry present") = Flight::Done {
                        seq: self.seq,
                        value,
                        remaining: n,
                        tag,
                    };
                    drop(inner);
                    group.published.fetch_add(1, Ordering::Relaxed);
                    group.cv.notify_all();
                    Publish::Delivered(n)
                }
            }
            // Superseded: a newer begin() took the key. Our result belongs
            // to a dead generation.
            _ => {
                drop(inner);
                group.stale_discards.fetch_add(1, Ordering::Relaxed);
                Publish::Stale
            }
        }
    }
}

impl<K: Eq + Hash + Copy, V: Clone> Drop for FlightLeader<'_, K, V> {
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        let group = self.group;
        let mut inner = group.lock();
        if let Some(Flight::Pending { seq, waiters, .. }) = inner.flights.get(&self.key) {
            if *seq == self.seq {
                let waiters = *waiters;
                if waiters == 0 {
                    inner.flights.remove(&self.key);
                    group.active.fetch_sub(1, Ordering::Release);
                } else {
                    *inner.flights.get_mut(&self.key).expect("entry present") = Flight::Poisoned {
                        seq: self.seq,
                        remaining: waiters,
                        claimed: false,
                    };
                }
                drop(inner);
                group.poisoned.fetch_add(1, Ordering::Relaxed);
                if waiters > 0 {
                    group.cv.notify_all();
                }
                return;
            }
        }
        // Superseded before settling — count the leadership as settled so
        // the accounting invariant still balances.
        drop(inner);
        group.poisoned.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    fn spin_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(start.elapsed() < deadline, "condition never became true");
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_waiter_flight_inserts_and_removes() {
        let g: FlightGroup<u64, u64> = FlightGroup::new();
        let leader = g.begin(7);
        assert!(g.in_flight(7));
        assert_eq!(leader.publish(42), Publish::Delivered(0));
        assert!(!g.in_flight(7));
        let c = g.counters();
        assert_eq!((c.leaders, c.published), (1, 1));
        g.check_invariants().unwrap();
    }

    #[test]
    fn waiters_receive_published_value() {
        let g: Arc<FlightGroup<u64, String>> = Arc::new(FlightGroup::new());
        let leader = g.begin(1);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || match g.wait(1) {
                    Wait::Value(v, _) => v,
                    other => panic!("expected value, got {other:?}"),
                })
            })
            .collect();
        spin_until(Duration::from_secs(5), || g.parked_waiters(1) == 4);
        assert_eq!(leader.publish("rope".to_owned()), Publish::Delivered(4));
        for t in threads {
            assert_eq!(t.join().unwrap(), "rope");
        }
        assert!(!g.in_flight(1), "entry drained after last waiter");
        let c = g.counters();
        assert_eq!(c.waits_served, 4);
        g.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_mid_flight_discards_result() {
        let g: Arc<FlightGroup<u64, u64>> = Arc::new(FlightGroup::new());
        let leader = g.begin(9);
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || matches!(g.wait(9), Wait::Retry))
        };
        spin_until(Duration::from_secs(5), || g.parked_waiters(9) == 1);
        g.invalidate(9);
        assert!(waiter.join().unwrap(), "waiter retries on stale flight");
        assert_eq!(leader.publish(1), Publish::Stale, "stale result discarded");
        assert!(!g.in_flight(9));
        let c = g.counters();
        assert_eq!(c.stale_discards, 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn dropped_leader_poisons_and_one_waiter_claims() {
        let g: Arc<FlightGroup<u64, u64>> = Arc::new(FlightGroup::new());
        let leader = g.begin(3);
        let orphans = Arc::new(AtomicUsize::new(0));
        let retries = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let g = Arc::clone(&g);
                let orphans = Arc::clone(&orphans);
                let retries = Arc::clone(&retries);
                std::thread::spawn(move || match g.wait(3) {
                    Wait::Orphaned => {
                        orphans.fetch_add(1, Ordering::Relaxed);
                    }
                    Wait::Retry => {
                        retries.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected {other:?}"),
                })
            })
            .collect();
        spin_until(Duration::from_secs(5), || g.parked_waiters(3) == 3);
        drop(leader); // poison
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(orphans.load(Ordering::Relaxed), 1, "exactly one claimant");
        assert_eq!(retries.load(Ordering::Relaxed), 2);
        assert!(!g.in_flight(3), "tombstone drained");
        assert_eq!(g.counters().poisoned, 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn begin_supersedes_stale_flight() {
        let g: FlightGroup<u64, u64> = FlightGroup::new();
        let old = g.begin(5);
        g.invalidate(5);
        let new = g.begin(5); // recycled key, fresh generation
        assert_eq!(old.publish(1), Publish::Stale, "old generation rejected");
        assert_eq!(new.publish(2), Publish::Delivered(0));
        g.check_invariants().unwrap();
    }

    #[test]
    fn join_elects_exactly_one_leader() {
        let g: Arc<FlightGroup<u64, u64>> = Arc::new(FlightGroup::new());
        let leaders = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                let leaders = Arc::clone(&leaders);
                let served = Arc::clone(&served);
                std::thread::spawn(move || loop {
                    match g.join(11) {
                        Join::Lead(guard) => {
                            leaders.fetch_add(1, Ordering::Relaxed);
                            // Give the crowd a moment to pile in.
                            std::thread::sleep(Duration::from_millis(20));
                            guard.publish(77);
                            return 77;
                        }
                        Join::Value(v, _) => {
                            served.fetch_add(1, Ordering::Relaxed);
                            return v;
                        }
                        Join::Retry => continue,
                    }
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 77);
        }
        // Stragglers that joined after the flight landed re-lead; the
        // point is that waiters who *did* coalesce all saw 77.
        assert!(leaders.load(Ordering::Relaxed) >= 1);
        assert_eq!(
            leaders.load(Ordering::Relaxed) + served.load(Ordering::Relaxed),
            8
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn annotation_tag_reaches_every_waiter() {
        let g: Arc<FlightGroup<u64, u64>> = Arc::new(FlightGroup::new());
        let leader = g.begin(2);
        leader.annotate(0xABCD);
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || match g.wait(2) {
                    Wait::Value(v, tag) => (v, tag),
                    other => panic!("expected value, got {other:?}"),
                })
            })
            .collect();
        spin_until(Duration::from_secs(5), || g.parked_waiters(2) == 3);
        assert_eq!(leader.publish(5), Publish::Delivered(3));
        for t in threads {
            assert_eq!(t.join().unwrap(), (5, 0xABCD));
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn wait_without_flight_is_noflight() {
        let g: FlightGroup<u64, u64> = FlightGroup::new();
        assert!(matches!(g.wait(1), Wait::NoFlight));
        g.check_invariants().unwrap();
    }
}
