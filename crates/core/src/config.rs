//! BEM/DPC configuration.

use dpc_net::Clock;

/// Which replacement policy the directory's replacement manager uses —
/// re-exported from [`dpc_policy`], where the whole replacement engine
/// lives (LRU/CLOCK/FIFO plus the size-aware GDSF and the scan-resistant
/// 2Q/TinyLFU). Selecting a policy is pure configuration; no directory
/// internals are involved.
pub use dpc_policy::ReplacePolicy;

/// Configuration for a [`crate::bem::Bem`].
#[derive(Clone)]
pub struct BemConfig {
    /// Maximum number of fragments tracked — also the DPC slot-array size.
    pub capacity: usize,
    /// Replacement policy when the directory is full.
    pub replace: ReplacePolicy,
    /// When false the BEM is disabled: template writers emit fully expanded
    /// pages with no instructions (the paper's "no cache" configuration).
    pub enabled: bool,
    /// Controlled-hit-ratio hook for experiments: with probability `p`, a
    /// directory hit is forcibly treated as a miss (the entry is
    /// invalidated first). `None` disables the hook. This is how the
    /// evaluation pins the hit ratio `h` of Table 2 / Figure 5, mirroring
    /// the paper's "test environment that attempts to simulate the
    /// conditions described in Section 5".
    pub force_miss_probability: Option<f64>,
    /// Seed for the force-miss Bernoulli draws (deterministic experiments).
    pub seed: u64,
    /// Clock used for TTLs (virtual in tests/benches).
    pub clock: Clock,
    /// Number of lock shards for the cache directory and the DPC slot
    /// store. Each shard owns a contiguous segment of the key space with
    /// its own lock, freeList segment, and replacement manager, so proxy
    /// workers touching different fragments never contend. Clamped to
    /// `capacity` at construction (a directory of capacity 1 is one shard).
    pub shards: usize,
}

/// Default shard count: enough to spread 8–16 proxy worker threads with
/// negligible collision probability, cheap enough for tiny directories
/// (construction clamps to `capacity`).
pub const DEFAULT_SHARDS: usize = 16;

/// Shared clamping rule for directory and store shard counts: at least 1,
/// at most `capacity`, rounded down to a power of two (mask-friendly).
pub(crate) fn effective_shards(requested: usize, capacity: usize) -> usize {
    let clamped = requested.clamp(1, capacity.max(1));
    // Largest power of two <= clamped.
    1 << (usize::BITS - 1 - clamped.leading_zeros())
}

impl Default for BemConfig {
    fn default() -> Self {
        BemConfig {
            capacity: 4096,
            replace: ReplacePolicy::Lru,
            enabled: true,
            force_miss_probability: None,
            seed: 0x5EED_CAFE,
            clock: Clock::real(),
            shards: DEFAULT_SHARDS,
        }
    }
}

impl BemConfig {
    /// Builder: set capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Builder: set replacement policy.
    pub fn with_replace(mut self, replace: ReplacePolicy) -> Self {
        self.replace = replace;
        self
    }

    /// Builder: set the clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Builder: pin the hit ratio (see `force_miss_probability`). A target
    /// hit ratio `h` corresponds to a force-miss probability of `1 - h`
    /// once the cache is warm.
    pub fn with_forced_hit_ratio(mut self, h: f64) -> Self {
        assert!((0.0..=1.0).contains(&h), "hit ratio must be in [0,1]");
        self.force_miss_probability = Some(1.0 - h);
        self
    }

    /// Builder: enable/disable the BEM entirely.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Builder: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the directory/store shard count (min 1; clamped to
    /// `capacity` at construction).
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        self.shards = shards;
        self
    }

    /// Effective shard count for this configuration: never more shards
    /// than keys, never zero, and rounded down to a power of two so shard
    /// selection is a mask instead of a division on the hot path.
    pub fn effective_shards(&self) -> usize {
        effective_shards(self.shards, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = BemConfig::default()
            .with_capacity(16)
            .with_replace(ReplacePolicy::Fifo)
            .with_enabled(false)
            .with_seed(7)
            .with_forced_hit_ratio(0.8);
        assert_eq!(cfg.capacity, 16);
        assert_eq!(cfg.replace, ReplacePolicy::Fifo);
        assert!(!cfg.enabled);
        assert_eq!(cfg.seed, 7);
        let p = cfg.force_miss_probability.unwrap();
        assert!((p - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hit ratio")]
    fn forced_hit_ratio_rejects_out_of_range() {
        let _ = BemConfig::default().with_forced_hit_ratio(1.5);
    }

    #[test]
    fn effective_shards_clamps_to_capacity() {
        let cfg = BemConfig::default().with_capacity(4).with_shards(16);
        assert_eq!(cfg.effective_shards(), 4);
        let cfg = BemConfig::default().with_capacity(4096).with_shards(8);
        assert_eq!(cfg.effective_shards(), 8);
        let cfg = BemConfig::default().with_capacity(0);
        assert_eq!(cfg.effective_shards(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = BemConfig::default().with_shards(0);
    }
}
