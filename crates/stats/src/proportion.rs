//! Binomial proportions, confidence intervals and the two-sample
//! proportion z-test.
//!
//! The paper's conditional-probability figures carry 95% confidence
//! intervals and use two-sample hypothesis tests to decide whether the
//! probability in a window following a failure differs significantly
//! from the probability in a random window. [`Proportion`] packages a
//! `successes / trials` pair with exactly those operations.

use crate::special::{inverse_normal_cdf, standard_normal_cdf};

/// A two-sided confidence interval on a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound (clamped to 0).
    pub low: f64,
    /// Upper bound (clamped to 1).
    pub high: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval half-width.
    pub fn half_width(&self) -> f64 {
        (self.high - self.low) / 2.0
    }
}

/// Result of a two-sided two-sample proportion z-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionTest {
    /// The z statistic (pooled standard error).
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl ProportionTest {
    /// `true` if the difference is significant at level `alpha`
    /// (e.g. 0.05 or 0.01).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// An observed binomial proportion: `successes` out of `trials`.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::proportion::Proportion;
///
/// let p = Proportion::new(204, 10_000); // 2.04% weekly failure probability
/// assert!((p.estimate() - 0.0204).abs() < 1e-12);
/// let ci = p.wilson_ci(0.95);
/// assert!(ci.low < 0.0204 && 0.0204 < ci.high);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// Creates a proportion.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "successes {successes} exceed trials {trials}"
        );
        Proportion { successes, trials }
    }

    /// An empty observation (0 of 0); its estimate is defined as 0.
    pub const EMPTY: Proportion = Proportion {
        successes: 0,
        trials: 0,
    };

    /// Number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate `successes / trials`, or 0 when `trials == 0`.
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Merges two observations (sums successes and trials).
    pub fn merge(self, other: Proportion) -> Proportion {
        Proportion {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }

    /// Wilson score interval — well-behaved even for extreme proportions
    /// and small samples, which the paper's rare-event probabilities
    /// (e.g. 0.21% memory-failure weeks) require.
    ///
    /// Returns the degenerate interval `[0, 1]` when there are no trials.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside the open interval `(0, 1)`.
    pub fn wilson_ci(&self, level: f64) -> ConfidenceInterval {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0,1), got {level}"
        );
        if self.trials == 0 {
            return ConfidenceInterval {
                low: 0.0,
                high: 1.0,
                level,
            };
        }
        let z = inverse_normal_cdf(1.0 - (1.0 - level) / 2.0);
        let n = self.trials as f64;
        let p = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        // At the boundaries the Wilson bound is exactly 0 or 1; snap to
        // avoid floating-point roundoff excluding the point estimate.
        let low = if self.successes == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        };
        let high = if self.successes == self.trials {
            1.0
        } else {
            (center + half).min(1.0)
        };
        ConfidenceInterval { low, high, level }
    }

    /// Two-sided two-sample z-test of `H0: p_self = p_other` with a
    /// pooled standard error — the significance test the paper applies
    /// to every conditional-vs-baseline comparison.
    ///
    /// Degenerate inputs (no trials on either side, or a pooled
    /// proportion of exactly 0 or 1) yield `z = 0`, `p = 1`.
    pub fn two_sample_z_test(&self, other: Proportion) -> ProportionTest {
        if self.trials == 0 || other.trials == 0 {
            return ProportionTest {
                z: 0.0,
                p_value: 1.0,
            };
        }
        let n1 = self.trials as f64;
        let n2 = other.trials as f64;
        let pooled = (self.successes + other.successes) as f64 / (n1 + n2);
        let se = (pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)).sqrt();
        if se == 0.0 {
            return ProportionTest {
                z: 0.0,
                p_value: 1.0,
            };
        }
        let z = (self.estimate() - other.estimate()) / se;
        let p_value = 2.0 * standard_normal_cdf(-z.abs());
        ProportionTest {
            z,
            p_value: p_value.min(1.0),
        }
    }

    /// The multiplicative increase of this proportion over `baseline`
    /// (the "7.2x" annotations in the paper's figures).
    ///
    /// Returns `None` when the baseline estimate is zero.
    pub fn factor_over(&self, baseline: Proportion) -> Option<f64> {
        let b = baseline.estimate();
        if b == 0.0 {
            None
        } else {
            Some(self.estimate() / b)
        }
    }
}

impl Default for Proportion {
    fn default() -> Self {
        Proportion::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_and_record() {
        let mut p = Proportion::default();
        assert_eq!(p.estimate(), 0.0);
        for success in [1, 0, 1] {
            p = p.merge(Proportion::new(success, 1));
        }
        assert_eq!(p.successes(), 2);
        assert_eq!(p.trials(), 3);
        assert!((p.estimate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums() {
        let a = Proportion::new(3, 10).merge(Proportion::new(7, 90));
        assert_eq!(a, Proportion::new(10, 100));
    }

    #[test]
    fn wilson_interval_reference() {
        // Wilson 95% CI for 10/100: approx (0.0552, 0.1744).
        let ci = Proportion::new(10, 100).wilson_ci(0.95);
        assert!((ci.low - 0.05522914).abs() < 1e-5, "low {}", ci.low);
        assert!((ci.high - 0.17436566).abs() < 1e-5, "high {}", ci.high);
    }

    #[test]
    fn wilson_interval_zero_successes_nonzero_low() {
        let ci = Proportion::new(0, 50).wilson_ci(0.95);
        assert_eq!(ci.low, 0.0);
        assert!(ci.high > 0.0 && ci.high < 0.1);
    }

    #[test]
    fn interval_contains_estimate() {
        for &(s, n) in &[(0u64, 10u64), (5, 10), (10, 10), (1, 1000)] {
            let p = Proportion::new(s, n);
            for level in [0.9, 0.95, 0.99] {
                let ci = p.wilson_ci(level);
                let e = p.estimate();
                assert!(ci.low <= e && e <= ci.high, "{s}/{n} at {level}");
                assert!(ci.half_width() >= 0.0);
            }
        }
    }

    #[test]
    fn higher_level_widens_interval() {
        let p = Proportion::new(30, 200);
        assert!(p.wilson_ci(0.99).half_width() > p.wilson_ci(0.90).half_width());
    }

    #[test]
    fn z_test_detects_large_difference() {
        let t = Proportion::new(72, 1000).two_sample_z_test(Proportion::new(31, 10_000));
        assert!(t.z > 5.0);
        assert!(t.significant_at(0.01));
    }

    #[test]
    fn z_test_no_difference() {
        let t = Proportion::new(50, 1000).two_sample_z_test(Proportion::new(50, 1000));
        assert_eq!(t.z, 0.0);
        assert!((t.p_value - 1.0).abs() < 1e-12);
        assert!(!t.significant_at(0.05));
    }

    #[test]
    fn z_test_degenerate_inputs() {
        let t = Proportion::EMPTY.two_sample_z_test(Proportion::new(1, 2));
        assert_eq!(t.p_value, 1.0);
        let t = Proportion::new(0, 10).two_sample_z_test(Proportion::new(0, 20));
        assert_eq!(t.p_value, 1.0);
        let t = Proportion::new(10, 10).two_sample_z_test(Proportion::new(20, 20));
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn z_test_symmetry() {
        let a = Proportion::new(30, 100);
        let b = Proportion::new(10, 100);
        let t1 = a.two_sample_z_test(b);
        let t2 = b.two_sample_z_test(a);
        assert!((t1.z + t2.z).abs() < 1e-12);
        assert!((t1.p_value - t2.p_value).abs() < 1e-12);
    }

    #[test]
    fn factor_over_baseline() {
        let cond = Proportion::new(72, 1000);
        let base = Proportion::new(31, 10_000);
        let f = cond.factor_over(base).unwrap();
        assert!((f - (0.072 / 0.0031)).abs() < 1e-9);
        assert_eq!(cond.factor_over(Proportion::new(0, 100)), None);
    }

    #[test]
    #[should_panic(expected = "exceed trials")]
    fn successes_cannot_exceed_trials() {
        let _ = Proportion::new(5, 4);
    }
}
