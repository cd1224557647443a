//! Analytical curve generators for the paper's figures.
//!
//! Each generator sweeps one model parameter and returns `(x, y)` points,
//! ready for `dpc_bench::paper` to print as aligned tables. Where the
//! published curve needs the per-figure calibration (see the crate docs),
//! generators offer both the Table-2-default and calibrated variants.

use crate::model::bytes::expected_bytes;
use crate::model::params::ModelParams;
use crate::model::scancost::ScanCosts;

/// One point of a plotted series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    pub x: f64,
    pub y: f64,
}

/// Figure 2(a): `B_c/B_nc` against fragment size (bytes), Table 2
/// parameters.
pub fn fig2a(base: &ModelParams, sizes: &[f64]) -> Vec<CurvePoint> {
    sizes
        .iter()
        .map(|&s| CurvePoint {
            x: s,
            y: expected_bytes(&base.with_fragment_bytes(s)).ratio(),
        })
        .collect()
}

/// Figure 2(b): percentage savings in bytes served against hit ratio.
pub fn fig2b(base: &ModelParams, hit_ratios: &[f64]) -> Vec<CurvePoint> {
    hit_ratios
        .iter()
        .map(|&h| CurvePoint {
            x: h,
            y: expected_bytes(&base.with_hit_ratio(h)).savings_percent(),
        })
        .collect()
}

/// Figure 3(a), upper curve: network (bytes-served) savings against
/// cacheability.
pub fn fig3a_network(base: &ModelParams, cacheabilities: &[f64]) -> Vec<CurvePoint> {
    cacheabilities
        .iter()
        .map(|&x| CurvePoint {
            x,
            y: expected_bytes(&base.with_cacheability(x)).savings_percent(),
        })
        .collect()
}

/// Figure 3(a), lower curve: firewall scan-cost savings against
/// cacheability (`z = y`).
pub fn fig3a_firewall(base: &ModelParams, cacheabilities: &[f64]) -> Vec<CurvePoint> {
    cacheabilities
        .iter()
        .map(|&x| CurvePoint {
            x,
            y: ScanCosts::from_bytes(&expected_bytes(&base.with_cacheability(x))).savings_percent(),
        })
        .collect()
}

/// Evenly spaced sweep values over `[lo, hi]` inclusive.
pub fn sweep(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "a sweep needs at least two points");
    let step = (hi - lo) / (steps - 1) as f64;
    (0..steps).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelParams {
        ModelParams::table2().with_fragment_bytes(1000.0)
    }

    #[test]
    fn sweep_endpoints_and_spacing() {
        let s = sweep(0.0, 1.0, 5);
        assert_eq!(s, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn fig2a_shape_matches_paper() {
        // Steep drop below 1 KB, ratio > 1 near zero, flattening above —
        // Figure 2(a)'s published shape.
        let pts = fig2a(&base(), &sweep(1.0, 5120.0, 50));
        assert!(pts.first().unwrap().y > 1.0, "tiny fragments: ratio > 1");
        assert!(pts.last().unwrap().y < 0.6, "large fragments: big savings");
        for w in pts.windows(2) {
            assert!(w[1].y <= w[0].y + 1e-12, "monotonically decreasing");
        }
    }

    #[test]
    fn fig2b_shape_matches_paper() {
        // Negative at h=0, crossing near h≈0.02, increasing to the peak.
        let pts = fig2b(&base(), &sweep(0.0, 1.0, 101));
        assert!(pts[0].y < 0.0);
        assert!(pts.last().unwrap().y > 40.0);
        for w in pts.windows(2) {
            assert!(w[1].y >= w[0].y, "monotonically increasing");
        }
        // The crossing sits below h = 0.05 (paper says ≈1%; exact 2g/(s+2g)
        // ≈ 2% for s=1000, g=10).
        let crossing = pts.iter().find(|p| p.y >= 0.0).unwrap().x;
        assert!(crossing <= 0.05, "crossing at {crossing}");
    }

    #[test]
    fn fig3a_curves_match_paper_ranges() {
        let cal = base().fig3a_calibrated();
        let xs = sweep(0.2, 1.0, 81);
        let net = fig3a_network(&cal, &xs);
        let fw = fig3a_firewall(&cal, &xs);
        // Network savings positive over the whole range ("this savings is
        // positive over the entire range").
        for p in &net {
            assert!(p.y > 0.0, "network savings at x={} is {}", p.x, p.y);
        }
        // Network savings approaches ~99% at full cacheability.
        assert!(net.last().unwrap().y > 95.0);
        // Firewall savings negative at x=0.2 (≈ −60%), positive at 1.0.
        assert!(fw[0].y < -50.0);
        assert!(fw.last().unwrap().y > 30.0);
    }

    #[test]
    fn firewall_curve_below_network_curve() {
        // scanCost_c doubles B_c, so the firewall curve always sits below.
        let cal = base().fig3a_calibrated();
        let xs = sweep(0.2, 1.0, 17);
        let net = fig3a_network(&cal, &xs);
        let fw = fig3a_firewall(&cal, &xs);
        for (n, f) in net.iter().zip(&fw) {
            assert!(f.y < n.y);
        }
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn sweep_requires_two_points() {
        let _ = sweep(0.0, 1.0, 1);
    }
}
