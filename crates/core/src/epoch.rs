//! Node-local coherence epoch: one monotonic sequence, striped by what a
//! cached page read, that stamps assembled-page cache entries (the
//! proxy's page tier) and lets any invalidation path — page purge,
//! origin data update, dependency purge — make the affected stamped entries
//! self-evict on next touch without enumerating them.
//!
//! Every bump advances the one sequence. A *stripe* bump also records the
//! new value against one of [`STRIPES`] stripes, the stripe a dependency
//! label hashes to ([`stripe_of`]); a *coarse* bump records it against
//! the whole node. A page's [`Stamp`] is the sequence read before the
//! page was produced, plus the stripes of its read set — the labels of
//! every row and dependency its render read, its *determination
//! provenance*. The page stays a hit while no coarse bump and no bump of
//! one of its stripes has landed since the stamp, so an update unserves
//! only the pages that read what it changed (§3.2.1: a price tick must
//! not regenerate what it did not touch).
//!
//! A stamp whose read set is unknown (`reads: None`) keeps the coarse
//! rule: any bump at all outdates it. Two labels that share a stripe only
//! over-invalidate; a conservative stamp can make a fresh page
//! re-assemble but can never serve a stale one. Validation is a handful
//! of atomic loads, so the hot hit path takes no locks.

use crate::fnv1a;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stripes of the epoch. A label maps to one by hash; with a page's few
/// labels against this many stripes, an unrelated update shares a stripe
/// with a page rarely (about 0.4 % of updates at 8 reads per page and 2
/// labels per update).
pub const STRIPES: usize = 4096;

/// Most stripes one read set may name. A longer read set is treated as
/// unknown: validating it would cost more than re-assembling the page
/// after the next update would.
pub const MAX_READ_STRIPES: usize = 64;

/// The stripe dependency label `label` (`table/key`, `table/*`) bumps and
/// reads.
pub fn stripe_of(label: &str) -> u16 {
    (fnv1a(label.as_bytes()) % STRIPES as u64) as u16
}

/// What a cached page was produced under: the epoch sequence read
/// *before* production, and the stripes of its read set (`None` when the
/// read set is unknown, which validates under the coarse rule).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stamp {
    pub seq: u64,
    pub reads: Option<Arc<[u16]>>,
}

impl Stamp {
    /// This stamp, judged by the stripes of `reads` (`None`: unknown).
    pub fn with_reads(self, reads: Option<Arc<[u16]>>) -> Stamp {
        Stamp { reads, ..self }
    }

    /// True when the stamp carries no read set and so validates under the
    /// coarse rule.
    pub fn is_coarse(&self) -> bool {
        self.reads.is_none()
    }
}

/// Orderings: a bump's stores release (`AcqRel`) and every validation
/// load acquires, so a validation that starts after a bump returned sees
/// that bump, and with it whatever the invalidation wrote before bumping.
struct Inner {
    /// The sequence every bump advances.
    seq: AtomicU64,
    /// The sequence value of the latest coarse bump.
    coarse: AtomicU64,
    /// Per stripe, the sequence value of its latest bump.
    stripes: Box<[AtomicU64]>,
}

/// Cloneable handle to a shared striped epoch.
///
/// Clones observe the same sequence and stripes; [`bump`](Self::bump) and
/// [`bump_label`](Self::bump_label) are the invalidation edges and
/// [`validates`](Self::validates) the read. A [`Stamp`] captured with
/// [`stamp`](Self::stamp) *before* the content it caches was produced is
/// servable exactly while no bump it depends on has landed since.
#[derive(Clone)]
pub struct CoherencyEpoch {
    inner: Arc<Inner>,
}

impl Default for CoherencyEpoch {
    fn default() -> Self {
        CoherencyEpoch {
            inner: Arc::new(Inner {
                seq: AtomicU64::new(0),
                coarse: AtomicU64::new(0),
                stripes: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }
}

impl std::fmt::Debug for CoherencyEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoherencyEpoch")
            .field("seq", &self.value())
            .finish_non_exhaustive()
    }
}

impl CoherencyEpoch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current sequence. Stamp captures must happen *before* the cached
    /// content is produced, so a bump racing the fill lands after the
    /// stamp and the entry fails validation.
    #[inline]
    pub fn value(&self) -> u64 {
        self.inner.seq.load(Ordering::Acquire)
    }

    /// A coarse stamp at the current sequence; attach the read set with
    /// [`Stamp::with_reads`] once it is known.
    #[inline]
    pub fn stamp(&self) -> Stamp {
        Stamp {
            seq: self.value(),
            reads: None,
        }
    }

    /// Coarse bump: outdates every stamp taken before it. Returns the new
    /// sequence value.
    #[inline]
    pub fn bump(&self) -> u64 {
        let seq = self.inner.seq.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner.coarse.fetch_max(seq, Ordering::AcqRel);
        seq
    }

    /// Stripe bump for dependency label `label`: outdates the stamps taken
    /// before it that read the label's stripe, and every coarse stamp.
    /// Returns the new sequence value.
    #[inline]
    pub fn bump_label(&self, label: &str) -> u64 {
        let seq = self.inner.seq.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner.stripes[usize::from(stripe_of(label))].fetch_max(seq, Ordering::AcqRel);
        seq
    }

    /// True while no bump `stamp` depends on has landed since it was
    /// taken: no bump at all for a coarse stamp; no coarse bump and no
    /// bump of one of its stripes otherwise.
    #[inline]
    pub fn validates(&self, stamp: &Stamp) -> bool {
        let inner = &*self.inner;
        match &stamp.reads {
            None => inner.seq.load(Ordering::Acquire) == stamp.seq,
            Some(reads) => {
                inner.coarse.load(Ordering::Acquire) <= stamp.seq
                    && reads.iter().all(|&s| {
                        inner.stripes[usize::from(s)].load(Ordering::Acquire) <= stamp.seq
                    })
            }
        }
    }
}

/// A read set being recorded: the stripes of every label noted so far,
/// or unknown once something was read that cannot be named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadSet(Option<Vec<u16>>);

impl Default for ReadSet {
    /// The empty, known read set.
    fn default() -> Self {
        ReadSet(Some(Vec::new()))
    }
}

impl ReadSet {
    /// The page read dependency label `label`.
    pub fn note(&mut self, label: &str) {
        if let Some(stripes) = &mut self.0 {
            stripes.push(stripe_of(label));
        }
    }

    /// The page read something no label names.
    pub fn mark_unknown(&mut self) {
        self.0 = None;
    }

    /// The stripes noted (repeats kept), or `None` when unknown.
    pub fn stripes(&self) -> Option<&[u16]> {
        self.0.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two labels on different stripes.
    fn distinct_labels() -> (&'static str, &'static str) {
        let (a, b) = ("paper/p1-f0", "paper/p2-f0");
        assert_ne!(stripe_of(a), stripe_of(b));
        (a, b)
    }

    fn reading(epoch: &CoherencyEpoch, labels: &[&str]) -> Stamp {
        let reads: Vec<u16> = labels.iter().map(|l| stripe_of(l)).collect();
        epoch.stamp().with_reads(Some(reads.into()))
    }

    #[test]
    fn clones_share_the_counter() {
        let a = CoherencyEpoch::new();
        let b = a.clone();
        let stamp = a.stamp();
        assert!(b.validates(&stamp));
        b.bump();
        assert!(
            !a.validates(&stamp),
            "bump through one clone invalidates the other's stamp"
        );
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn bump_is_monotonic() {
        let e = CoherencyEpoch::new();
        let mut last = e.value();
        for i in 0..10 {
            let next = if i % 2 == 0 {
                e.bump()
            } else {
                e.bump_label("t/k")
            };
            assert!(next > last);
            last = next;
        }
    }

    #[test]
    fn a_stripe_bump_unserves_only_the_stamps_that_read_it() {
        let e = CoherencyEpoch::new();
        let (a, b) = distinct_labels();
        let reads_a = reading(&e, &[a]);
        let reads_b = reading(&e, &[b]);
        let coarse = e.stamp();
        e.bump_label(a);
        assert!(!e.validates(&reads_a), "the stamp that read the label");
        assert!(e.validates(&reads_b), "a stamp on another stripe");
        assert!(!e.validates(&coarse), "an unknown read set");
        // A stamp taken after the bump reads the new rows.
        assert!(e.validates(&reading(&e, &[a])));
    }

    #[test]
    fn a_coarse_bump_unserves_every_stamp() {
        let e = CoherencyEpoch::new();
        let (a, _) = distinct_labels();
        let empty = e.stamp().with_reads(Some(Arc::from([])));
        let reads_a = reading(&e, &[a]);
        e.bump();
        assert!(!e.validates(&empty));
        assert!(!e.validates(&reads_a));
        assert!(e.validates(&e.stamp().with_reads(Some(Arc::from([])))));
    }

    #[test]
    fn read_sets_round_trip_and_hostile_values_read_as_unknown() {
        use crate::proto::Provenance;
        // A render that observed the session: the Reads value is the bare set.
        let recorded = |stripes: Vec<u16>| Provenance::recorded(&ReadSet(Some(stripes)), true);
        let set = recorded(vec![7, 3, 7, 4095]).format();
        assert_eq!(set, "3,7,4095");
        assert_eq!(
            Provenance::parse(&set).reads.as_deref(),
            Some(&[3, 7, 4095][..])
        );
        assert_eq!(Provenance::parse("").reads.as_deref(), Some(&[][..]));
        assert_eq!(Provenance::recorded(&ReadSet(None), true).format(), "*");
        for hostile in ["*", "1,x", "4096", "-1", "1,,2", "70000"] {
            assert_eq!(Provenance::parse(hostile).reads, None, "{hostile:?}");
        }
        let too_many: Vec<u16> = (0..=MAX_READ_STRIPES as u16).collect();
        assert_eq!(recorded(too_many.clone()).format(), "*");
        let listed = too_many
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(Provenance::parse(&listed).reads, None);
        let at_cap = too_many[..MAX_READ_STRIPES].to_vec();
        assert!(Provenance::parse(&recorded(at_cap).format())
            .reads
            .is_some());
    }
}
