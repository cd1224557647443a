//! Expected-bytes-served closed forms (§5).

use crate::model::params::ModelParams;

/// Composition of one page: per-fragment sizes and cacheability indicators.
///
/// The general form of the model; [`PageSpec::uniform`] builds the
/// homogeneous pages of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSpec {
    /// `(s_ej, X_j)` for each fragment on the page.
    pub fragments: Vec<(f64, bool)>,
    /// Header bytes `f`.
    pub header_bytes: f64,
}

impl PageSpec {
    /// A page of `m` fragments of `s` bytes each. The first
    /// `round(m·cacheability)` fragments are cacheable — for homogeneous
    /// fragments only the count matters, and rounding to a whole number of
    /// fragments mirrors "cacheability is determined at design time".
    pub fn uniform(m: usize, s: f64, cacheability: f64, header_bytes: f64) -> PageSpec {
        let cacheable_count = (m as f64 * cacheability).round() as usize;
        PageSpec {
            fragments: (0..m).map(|j| (s, j < cacheable_count)).collect(),
            header_bytes,
        }
    }

    /// `S_nc`: response size without the DPC.
    pub fn size_no_cache(&self) -> f64 {
        self.fragments.iter().map(|(s, _)| s).sum::<f64>() + self.header_bytes
    }

    /// `S_c`: expected response size with the DPC at hit ratio `h` and tag
    /// size `g`.
    pub fn size_with_cache(&self, h: f64, g: f64) -> f64 {
        self.fragments
            .iter()
            .map(|&(s, cacheable)| {
                if cacheable {
                    h * g + (1.0 - h) * (s + 2.0 * g)
                } else {
                    s
                }
            })
            .sum::<f64>()
            + self.header_bytes
    }
}

/// Aggregate expected bytes for a whole application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseSizes {
    /// `B_nc`: expected bytes served without the cache.
    pub no_cache: f64,
    /// `B_c`: expected bytes served with the cache.
    pub with_cache: f64,
}

impl ResponseSizes {
    /// The headline ratio `B_c / B_nc` plotted in Figures 2(a)/3(b).
    pub fn ratio(&self) -> f64 {
        self.with_cache / self.no_cache
    }

    /// Percentage savings in bytes served, plotted in Figures 2(b)/5/6.
    pub fn savings_percent(&self) -> f64 {
        (1.0 - self.ratio()) * 100.0
    }
}

/// Fractional-expectation variant of [`PageSpec::uniform`]: instead of
/// rounding to a whole number of cacheable fragments, treat `X_j` as a
/// Bernoulli with mean `cacheability` and use its expectation directly.
/// This is the form the paper's smooth cacheability sweeps (Figure 3(a))
/// require.
fn expected_page_sizes(p: &ModelParams) -> (f64, f64) {
    let m = p.fragments_per_page as f64;
    let s = p.fragment_bytes;
    let x = p.cacheability;
    let h = p.hit_ratio;
    let g = p.tag_bytes;
    let s_nc = m * s + p.header_bytes;
    let per_fragment = x * (h * g + (1.0 - h) * (s + 2.0 * g)) + (1.0 - x) * s;
    let s_c = m * per_fragment + p.header_bytes;
    (s_nc, s_c)
}

/// Expected bytes served over the observation interval for both
/// configurations, `B = Σ_i P(i)·R·S(c_i)`.
///
/// With Table 2's homogeneous pages every page has the same size, so the
/// Zipf weights cancel in the ratio — but `B` itself (and the absolute
/// savings the deployment study quotes) still scales with `R`.
pub fn expected_bytes(p: &ModelParams) -> ResponseSizes {
    let (s_nc, s_c) = expected_page_sizes(p);
    // Zipf over pages: weights sum to 1, so Σ_i P(i)·R·S = R·S for
    // homogeneous pages. Computed explicitly to keep the general form.
    let weights = zipf_weights(p.pages, p.zipf_alpha);
    let r = p.requests as f64;
    let b_nc: f64 = weights.iter().map(|w| w * r * s_nc).sum();
    let b_c: f64 = weights.iter().map(|w| w * r * s_c).sum();
    ResponseSizes {
        no_cache: b_nc,
        with_cache: b_c,
    }
}

/// Expected bytes for an explicit heterogeneous page population with access
/// weights (the fully general model).
pub fn expected_bytes_for_pages(
    pages: &[PageSpec],
    weights: &[f64],
    requests: u64,
    h: f64,
    g: f64,
) -> ResponseSizes {
    assert_eq!(pages.len(), weights.len(), "one weight per page");
    let r = requests as f64;
    let mut b_nc = 0.0;
    let mut b_c = 0.0;
    for (page, w) in pages.iter().zip(weights) {
        b_nc += w * r * page.size_no_cache();
        b_c += w * r * page.size_with_cache(h, g);
    }
    ResponseSizes {
        no_cache: b_nc,
        with_cache: b_c,
    }
}

/// Normalized Zipf weights for `n` pages with exponent `alpha`.
pub fn zipf_weights(n: usize, alpha: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(alpha)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    /// Table 2 parameters with s_e = 1000 B (the paper's "1K bytes" read as
    /// a round kilobyte for hand-checkable arithmetic).
    fn table2_1000() -> ModelParams {
        ModelParams::table2().with_fragment_bytes(1000.0)
    }

    #[test]
    fn hand_computed_baseline_sizes() {
        // S_nc = 4·1000 + 500 = 4500
        // per cacheable fragment: 0.8·10 + 0.2·(1000+20) = 212
        // S_c  = 4·(0.6·212 + 0.4·1000) + 500 = 4·527.2 + 500 = 2608.8
        let p = table2_1000();
        let sizes = expected_bytes(&p);
        let r = p.requests as f64;
        assert!((sizes.no_cache / r - 4500.0).abs() < EPS);
        assert!((sizes.with_cache / r - 2608.8).abs() < EPS);
        assert!((sizes.ratio() - 2608.8 / 4500.0).abs() < EPS);
        // ≈ 42% savings at the Table 2 baseline.
        assert!((sizes.savings_percent() - 42.026666).abs() < 1e-3);
    }

    #[test]
    fn savings_negative_at_zero_hit_ratio() {
        // h = 0: every cacheable fragment costs s + 2g, i.e. tags are pure
        // overhead — the paper's "there is a cost to use the dynamic proxy
        // cache in this case".
        let p = table2_1000().with_hit_ratio(0.0);
        assert!(expected_bytes(&p).savings_percent() < 0.0);
    }

    #[test]
    fn break_even_hit_ratio_is_small() {
        // Zero savings when h·g + (1−h)(s+2g) = s  ⇒  h = 2g/(s+2g)·…
        // For s=1000, g=10: h* = 20/1010 ≈ 0.0198.
        let p = table2_1000();
        let h_star = 20.0 / 1010.0;
        let below = expected_bytes(&p.with_hit_ratio(h_star - 0.005));
        let above = expected_bytes(&p.with_hit_ratio(h_star + 0.005));
        assert!(below.savings_percent() < 0.0);
        assert!(above.savings_percent() > 0.0);
    }

    #[test]
    fn ratio_exceeds_one_for_tiny_fragments() {
        // Figure 2(a): "the ratio is greater than 1 as the fragment size
        // approaches 0".
        let p = table2_1000().with_fragment_bytes(1.0);
        assert!(expected_bytes(&p).ratio() > 1.0);
    }

    #[test]
    fn ratio_decreases_with_fragment_size() {
        let p = table2_1000();
        let r1 = expected_bytes(&p.with_fragment_bytes(500.0)).ratio();
        let r2 = expected_bytes(&p.with_fragment_bytes(2000.0)).ratio();
        let r3 = expected_bytes(&p.with_fragment_bytes(5000.0)).ratio();
        assert!(r1 > r2 && r2 > r3);
    }

    #[test]
    fn savings_increase_with_hit_ratio_and_cacheability() {
        let p = table2_1000();
        assert!(
            expected_bytes(&p.with_hit_ratio(0.9)).savings_percent()
                > expected_bytes(&p.with_hit_ratio(0.5)).savings_percent()
        );
        assert!(
            expected_bytes(&p.with_cacheability(0.9)).savings_percent()
                > expected_bytes(&p.with_cacheability(0.3)).savings_percent()
        );
    }

    #[test]
    fn page_spec_matches_closed_form() {
        let p = table2_1000();
        // cacheability 0.5 → exactly 2 of 4 fragments cacheable: integer
        // rounding agrees with the fractional expectation.
        let p = p.with_cacheability(0.5);
        let spec = PageSpec::uniform(4, 1000.0, 0.5, 500.0);
        let sizes = expected_bytes(&p);
        let r = p.requests as f64;
        assert!((spec.size_no_cache() - sizes.no_cache / r).abs() < EPS);
        assert!(
            (spec.size_with_cache(p.hit_ratio, p.tag_bytes) - sizes.with_cache / r).abs() < EPS
        );
    }

    #[test]
    fn heterogeneous_pages_weighted() {
        let cheap = PageSpec::uniform(1, 100.0, 1.0, 0.0);
        let costly = PageSpec::uniform(1, 10_000.0, 1.0, 0.0);
        // All traffic to the cheap page vs all to the costly page.
        let a = expected_bytes_for_pages(
            &[cheap.clone(), costly.clone()],
            &[1.0, 0.0],
            100,
            1.0,
            10.0,
        );
        let b = expected_bytes_for_pages(&[cheap, costly], &[0.0, 1.0], 100, 1.0, 10.0);
        assert!(b.no_cache > a.no_cache * 50.0);
    }

    #[test]
    fn zipf_weights_normalized_and_decreasing() {
        let w = zipf_weights(10, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < EPS);
        for i in 1..w.len() {
            assert!(w[i] < w[i - 1]);
        }
    }

    #[test]
    fn calibrated_fig2b_peak_savings_near_paper() {
        // Paper's Figure 2(b) peaks a bit above 70% at h=1; the calibrated
        // parameters reproduce that.
        let p = ModelParams::table2()
            .fig2b_calibrated()
            .with_fragment_bytes(1000.0)
            .with_hit_ratio(1.0);
        let savings = expected_bytes(&p).savings_percent();
        assert!(
            (68.0..75.0).contains(&savings),
            "calibrated peak savings {savings}"
        );
    }
}
