//! BEM/DPC configuration.

use dpc_net::Clock;

/// Which replacement policy the directory's replacement manager uses —
/// re-exported from [`crate::policy`], where the policies live (LRU,
/// CLOCK, FIFO, or none). Selecting a policy is pure configuration; no directory
/// internals are involved.
pub use crate::policy::ReplacePolicy;

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
}
