//! BEM-level byte and fragment accounting.
//!
//! These counters measure the quantities the paper's analytical model talks
//! about — generated content bytes, tag bytes, emitted response bytes — so
//! the experimental benches can report measured values for `g`, `h`, and
//! response sizes rather than assumed ones.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated across all template writers of a BEM.
#[derive(Default, Debug)]
pub struct BemStats {
    /// Tagged code blocks encountered (hits + misses + uncacheable).
    pub fragments: AtomicU64,
    /// Directory hits (GET emitted, code block skipped).
    pub hits: AtomicU64,
    /// Directory misses (code block ran, SET emitted).
    pub misses: AtomicU64,
    /// Fragments declared uncacheable at design time.
    pub uncacheable_fragments: AtomicU64,
    /// Cacheable fragments served inline because the directory was full.
    pub overflow_fragments: AtomicU64,
    /// Hits demoted to misses by the controlled-hit-ratio hook.
    pub forced_misses: AtomicU64,
    /// Misses served by parking on another requester's in-flight produce
    /// (the code block did NOT run; the leader's rope was reused).
    pub coalesced_waits: AtomicU64,
    /// Misses where this writer led the flight and ran the code block
    /// (equals `misses` when coalescing is enabled — the invariant the
    /// directory checker enforces).
    pub flight_leaders: AtomicU64,
    /// Flight laps retried: a mid-flight invalidation went off (leader's
    /// result discarded, waiters re-looked-up) or a leader died.
    pub flight_retries: AtomicU64,
    /// Misses served on the final, deliberately uncoalesced lap after the
    /// flight-lap cap was exhausted (pathological invalidation storm).
    /// These run `produce` without taking a leadership, so the checker's
    /// balance is `misses == flight_leaders + uncoalesced_misses`.
    pub uncoalesced_misses: AtomicU64,
    /// Stored bits cleared by refresh requests that named keys whose
    /// `GET` found the requester's slot empty.
    pub missing_keys: AtomicU64,
    /// Bytes of content produced by running code blocks.
    pub generated_bytes: AtomicU64,
    /// Bytes of layout/uncacheable literal content written.
    pub literal_bytes: AtomicU64,
    /// Bytes of GET/SET instruction framing emitted (the measured `g`).
    pub tag_bytes: AtomicU64,
    /// Total bytes of finished responses (templates or plain pages).
    pub emitted_bytes: AtomicU64,
}

/// Point-in-time copy of [`BemStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BemStatsSnapshot {
    pub fragments: u64,
    pub hits: u64,
    pub misses: u64,
    pub uncacheable_fragments: u64,
    pub overflow_fragments: u64,
    pub forced_misses: u64,
    pub coalesced_waits: u64,
    pub flight_leaders: u64,
    pub flight_retries: u64,
    pub uncoalesced_misses: u64,
    pub missing_keys: u64,
    pub generated_bytes: u64,
    pub literal_bytes: u64,
    pub tag_bytes: u64,
    pub emitted_bytes: u64,
}

impl BemStats {
    pub fn snapshot(&self) -> BemStatsSnapshot {
        BemStatsSnapshot {
            fragments: self.fragments.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            uncacheable_fragments: self.uncacheable_fragments.load(Ordering::Relaxed),
            overflow_fragments: self.overflow_fragments.load(Ordering::Relaxed),
            forced_misses: self.forced_misses.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            flight_leaders: self.flight_leaders.load(Ordering::Relaxed),
            flight_retries: self.flight_retries.load(Ordering::Relaxed),
            uncoalesced_misses: self.uncoalesced_misses.load(Ordering::Relaxed),
            missing_keys: self.missing_keys.load(Ordering::Relaxed),
            generated_bytes: self.generated_bytes.load(Ordering::Relaxed),
            literal_bytes: self.literal_bytes.load(Ordering::Relaxed),
            tag_bytes: self.tag_bytes.load(Ordering::Relaxed),
            emitted_bytes: self.emitted_bytes.load(Ordering::Relaxed),
        }
    }
}

impl BemStatsSnapshot {
    /// Hit ratio over cacheable fragment lookups (the measured `h`).
    pub fn hit_ratio(&self) -> f64 {
        let cacheable = self.hits + self.misses;
        if cacheable == 0 {
            0.0
        } else {
            self.hits as f64 / cacheable as f64
        }
    }

    /// Average tag bytes per instruction (the measured `g`).
    pub fn avg_tag_bytes(&self) -> f64 {
        // hits emit 1 tag, misses emit an open+close pair.
        let tags = self.hits + 2 * self.misses;
        if tags == 0 {
            0.0
        } else {
            self.tag_bytes as f64 / tags as f64
        }
    }

    /// Difference `self - earlier`, counter-wise.
    pub fn since(&self, earlier: &BemStatsSnapshot) -> BemStatsSnapshot {
        BemStatsSnapshot {
            fragments: self.fragments - earlier.fragments,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            uncacheable_fragments: self.uncacheable_fragments - earlier.uncacheable_fragments,
            overflow_fragments: self.overflow_fragments - earlier.overflow_fragments,
            forced_misses: self.forced_misses - earlier.forced_misses,
            coalesced_waits: self.coalesced_waits - earlier.coalesced_waits,
            flight_leaders: self.flight_leaders - earlier.flight_leaders,
            flight_retries: self.flight_retries - earlier.flight_retries,
            uncoalesced_misses: self.uncoalesced_misses - earlier.uncoalesced_misses,
            missing_keys: self.missing_keys - earlier.missing_keys,
            generated_bytes: self.generated_bytes - earlier.generated_bytes,
            literal_bytes: self.literal_bytes - earlier.literal_bytes,
            tag_bytes: self.tag_bytes - earlier.tag_bytes,
            emitted_bytes: self.emitted_bytes - earlier.emitted_bytes,
        }
    }
}

impl fmt::Display for BemStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fragments={} hits={} misses={} (h={:.3})",
            self.fragments,
            self.hits,
            self.misses,
            self.hit_ratio()
        )?;
        writeln!(
            f,
            "uncacheable={} overflow={} forced_misses={}",
            self.uncacheable_fragments, self.overflow_fragments, self.forced_misses
        )?;
        writeln!(
            f,
            "flight: leaders={} coalesced_waits={} retries={} uncoalesced={}",
            self.flight_leaders, self.coalesced_waits, self.flight_retries, self.uncoalesced_misses
        )?;
        write!(
            f,
            "bytes: generated={} literal={} tag={} (g≈{:.1}) emitted={}",
            self.generated_bytes,
            self.literal_bytes,
            self.tag_bytes,
            self.avg_tag_bytes(),
            self.emitted_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_ratios() {
        let stats = BemStats::default();
        stats.hits.store(8, Ordering::Relaxed);
        stats.misses.store(2, Ordering::Relaxed);
        stats.tag_bytes.store(120, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert!((snap.hit_ratio() - 0.8).abs() < 1e-12);
        // 8 GET tags + 2 SET pairs = 12 tags -> 10 bytes average.
        assert!((snap.avg_tag_bytes() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let snap = BemStats::default().snapshot();
        assert_eq!(snap.hit_ratio(), 0.0);
        assert_eq!(snap.avg_tag_bytes(), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let stats = BemStats::default();
        stats.hits.store(5, Ordering::Relaxed);
        let a = stats.snapshot();
        stats.hits.store(9, Ordering::Relaxed);
        stats.emitted_bytes.store(100, Ordering::Relaxed);
        let d = stats.snapshot().since(&a);
        assert_eq!(d.hits, 4);
        assert_eq!(d.emitted_bytes, 100);
    }

    #[test]
    fn display_contains_key_fields() {
        let stats = BemStats::default();
        stats.hits.store(1, Ordering::Relaxed);
        let s = stats.snapshot().to_string();
        assert!(s.contains("hits=1"));
        assert!(s.contains("bytes:"));
    }
}
