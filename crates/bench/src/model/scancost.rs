//! Scan-cost comparison and Result 1 (§5).
//!
//! Without the DPC the firewall scans every byte once: `scanCost_nc =
//! B_nc·y`. With the DPC the response is scanned by the firewall *and* by
//! the DPC's assembler; since both are linear-time (KMP-class) scans,
//! `z ≈ y` and `scanCost_c = B_c·(y+z) = 2·B_c·y`.
//!
//! **Result 1**: it is preferable to use the dynamic proxy cache when the
//! expected bytes served with no cache are more than twice the expected
//! bytes served with cache.

use crate::model::bytes::ResponseSizes;

/// Scan costs for the two configurations, in byte-scan units (`y = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanCosts {
    /// `B_nc · y`.
    pub no_cache: f64,
    /// `B_c · (y + z)` with `z = y`.
    pub with_cache: f64,
}

impl ScanCosts {
    /// Derive from expected byte counts with the default `z = y`
    /// assumption.
    pub fn from_bytes(sizes: &ResponseSizes) -> ScanCosts {
        ScanCosts::with_z_ratio(sizes, 1.0)
    }

    /// Derive with an explicit `z/y` ratio (ablation knob: how much cheaper
    /// or dearer the DPC scan is than the firewall's).
    pub fn with_z_ratio(sizes: &ResponseSizes, z_over_y: f64) -> ScanCosts {
        ScanCosts {
            no_cache: sizes.no_cache,
            with_cache: sizes.with_cache * (1.0 + z_over_y),
        }
    }

    /// Percentage savings in scan cost (negative = the DPC costs more scan
    /// work than it saves — the lower curve of Figure 3(a)).
    pub fn savings_percent(&self) -> f64 {
        (1.0 - self.with_cache / self.no_cache) * 100.0
    }
}

/// Result 1: prefer the DPC iff `B_nc > 2·B_c`.
pub fn prefer_dpc(sizes: &ResponseSizes) -> bool {
    sizes.no_cache > 2.0 * sizes.with_cache
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::bytes::expected_bytes;
    use crate::model::params::ModelParams;

    #[test]
    fn result1_boundary() {
        let even = ResponseSizes {
            no_cache: 200.0,
            with_cache: 100.0,
        };
        assert!(!prefer_dpc(&even)); // strict inequality
        let better = ResponseSizes {
            no_cache: 201.0,
            with_cache: 100.0,
        };
        assert!(prefer_dpc(&better));
    }

    #[test]
    fn scan_savings_sign_matches_result1() {
        for (b_nc, b_c) in [(4500.0, 2608.8), (1000.0, 600.0), (1000.0, 400.0)] {
            let sizes = ResponseSizes {
                no_cache: b_nc,
                with_cache: b_c,
            };
            let costs = ScanCosts::from_bytes(&sizes);
            assert_eq!(
                costs.savings_percent() > 0.0,
                prefer_dpc(&sizes),
                "B_nc={b_nc} B_c={b_c}"
            );
        }
    }

    #[test]
    fn table2_baseline_scan_cost_is_net_positive() {
        // At the Table 2 baseline (ratio ≈ 0.58), 2·0.58 > 1 so the scan
        // cost with the DPC *exceeds* the firewall-only cost: Result 1 says
        // don't cache at cacheability 0.6 with these sizes — exactly the
        // paper's "if the cacheability ratio is less than about 50% [under
        // the 3(a) calibration] it is not worth caching".
        let p = ModelParams::table2().with_fragment_bytes(1000.0);
        let sizes = expected_bytes(&p);
        let costs = ScanCosts::from_bytes(&sizes);
        assert!(costs.savings_percent() < 0.0);
        assert!(!prefer_dpc(&sizes));
    }

    #[test]
    fn fig3a_calibrated_break_even_near_half() {
        // With h=1, f=0: firewall savings = 1 − 2(1 − 0.99·x), zero at
        // x ≈ 0.505 — the paper's "about 50%" crossover.
        let base = ModelParams::table2()
            .with_fragment_bytes(1000.0)
            .fig3a_calibrated();
        let at = |x: f64| {
            ScanCosts::from_bytes(&expected_bytes(&base.with_cacheability(x))).savings_percent()
        };
        assert!(at(0.45) < 0.0);
        assert!(at(0.55) > 0.0);
        // Crossover within a point of 0.505.
        let mut lo = 0.4;
        let mut hi = 0.6;
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if at(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let x_star = (lo + hi) / 2.0;
        assert!((x_star - 0.505).abs() < 0.01, "x* = {x_star}");
    }

    #[test]
    fn z_ratio_knob() {
        let sizes = ResponseSizes {
            no_cache: 1000.0,
            with_cache: 600.0,
        };
        // A free DPC scan (z = 0) always saves when bytes shrink.
        assert!(ScanCosts::with_z_ratio(&sizes, 0.0).savings_percent() > 0.0);
        // An expensive DPC scan (z = 2y) flips the verdict.
        assert!(ScanCosts::with_z_ratio(&sizes, 2.0).savings_percent() < 0.0);
    }
}
