//! Hypothesis tests: the chi-square test for equal proportions and
//! likelihood-ratio (ANOVA) tests for nested models.
//!
//! Section IV of the paper uses a chi-square test for differences
//! between proportions to reject "all nodes fail at equal rates";
//! Section VI compares a saturated per-user Poisson model against a
//! common-rate model with an ANOVA (likelihood-ratio) test.

use crate::dist::{ChiSquared, Distribution};

/// A generic test result: statistic, degrees of freedom and p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// Degrees of freedom of the reference distribution.
    pub df: f64,
    /// The p-value.
    pub p_value: f64,
}

impl TestResult {
    /// `true` if the null hypothesis is rejected at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Chi-square test of the null hypothesis that `k` groups share a common
/// event rate, given per-group event `counts` and per-group `exposure`
/// (observation time or trial counts).
///
/// Expected counts under H0 are `exposure_i * sum(counts) / sum(exposure)`;
/// the statistic is `sum (obs - exp)^2 / exp` with `k - 1` degrees of
/// freedom. This is the paper's "chi-square test for differences between
/// proportions" applied to per-node failure counts.
///
/// # Panics
///
/// Panics if the slices have different lengths, fewer than 2 groups,
/// or any exposure is not strictly positive.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::htest::chi_square_equal_proportions;
///
/// // One node with 10x the failures of its peers.
/// let counts = [100.0, 10.0, 9.0, 11.0, 10.0];
/// let exposure = [1.0; 5];
/// let t = chi_square_equal_proportions(&counts, &exposure);
/// assert!(t.significant_at(0.01));
/// ```
pub fn chi_square_equal_proportions(counts: &[f64], exposure: &[f64]) -> TestResult {
    assert_eq!(
        counts.len(),
        exposure.len(),
        "counts and exposure lengths differ"
    );
    assert!(counts.len() >= 2, "need at least two groups");
    assert!(
        exposure.iter().all(|&e| e > 0.0),
        "exposures must be positive"
    );
    let total_count: f64 = counts.iter().sum();
    let total_exposure: f64 = exposure.iter().sum();
    let rate = total_count / total_exposure;
    let mut stat = 0.0;
    for (&obs, &exp_time) in counts.iter().zip(exposure) {
        let expected = rate * exp_time;
        if expected > 0.0 {
            stat += (obs - expected) * (obs - expected) / expected;
        }
    }
    let df = (counts.len() - 1) as f64;
    let p_value = if total_count == 0.0 {
        1.0
    } else {
        ChiSquared::new(df).sf(stat)
    };
    TestResult {
        statistic: stat,
        df,
        p_value,
    }
}

/// Likelihood-ratio (analysis-of-deviance) test between two nested
/// models: the deviance drop `2 (ll_full - ll_reduced)` is chi-square
/// with `df_full - df_reduced` degrees of freedom under H0.
///
/// This is the ANOVA the paper applies in Section VI to show the
/// saturated per-user failure-rate model beats the common-rate model.
///
/// # Panics
///
/// Panics if `df_full <= df_reduced`.
pub fn anova_lrt(ll_full: f64, df_full: usize, ll_reduced: f64, df_reduced: usize) -> TestResult {
    assert!(df_full > df_reduced, "full model must have more parameters");
    let statistic = (2.0 * (ll_full - ll_reduced)).max(0.0);
    let df = (df_full - df_reduced) as f64;
    TestResult {
        statistic,
        df,
        p_value: ChiSquared::new(df).sf(statistic),
    }
}

/// Log-likelihood of independent Poisson counts with per-group rates
/// `rate_i = counts_i / exposure_i` (the saturated model).
///
/// Groups with zero counts contribute `-0` (their MLE rate is 0).
/// Constant `ln(y!)` terms are included so likelihoods are comparable
/// across models.
///
/// # Panics
///
/// Panics if lengths differ or any exposure is not strictly positive.
pub fn poisson_saturated_ll(counts: &[f64], exposure: &[f64]) -> f64 {
    assert_eq!(
        counts.len(),
        exposure.len(),
        "counts and exposure lengths differ"
    );
    assert!(
        exposure.iter().all(|&e| e > 0.0),
        "exposures must be positive"
    );
    counts
        .iter()
        .zip(exposure)
        .map(|(&y, &t)| poisson_ll_term(y, if y > 0.0 { y } else { 0.0 }, t))
        .sum()
}

/// Log-likelihood of independent Poisson counts under a single common
/// rate `sum(counts) / sum(exposure)`.
///
/// # Panics
///
/// Panics if lengths differ or any exposure is not strictly positive.
pub fn poisson_common_rate_ll(counts: &[f64], exposure: &[f64]) -> f64 {
    assert_eq!(
        counts.len(),
        exposure.len(),
        "counts and exposure lengths differ"
    );
    assert!(
        exposure.iter().all(|&e| e > 0.0),
        "exposures must be positive"
    );
    let rate = counts.iter().sum::<f64>() / exposure.iter().sum::<f64>();
    counts
        .iter()
        .zip(exposure)
        .map(|(&y, &t)| poisson_ll_term(y, rate * t, t))
        .sum()
}

/// One Poisson log-likelihood term `y ln(mu) - mu - ln(y!)`, where `mu`
/// is the expected count. `mu = 0` with `y = 0` contributes 0.
fn poisson_ll_term(y: f64, mu: f64, _exposure: f64) -> f64 {
    let ln_fact = crate::special::ln_gamma(y + 1.0);
    if mu == 0.0 {
        if y == 0.0 {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        y * mu.ln() - mu - ln_fact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_rates_not_rejected() {
        let counts = [10.0, 11.0, 9.0, 10.0, 12.0, 8.0];
        let exposure = [1.0; 6];
        let t = chi_square_equal_proportions(&counts, &exposure);
        assert!(!t.significant_at(0.05), "p = {}", t.p_value);
        assert_eq!(t.df, 5.0);
    }

    #[test]
    fn outlier_node_rejected() {
        // Node 0 with ~19x the average failures, as in System 20.
        let mut counts = vec![10.0; 100];
        counts[0] = 190.0;
        let exposure = vec![1.0; 100];
        let t = chi_square_equal_proportions(&counts, &exposure);
        assert!(t.significant_at(0.01));
        assert!(t.p_value < 1e-10);
    }

    #[test]
    fn unequal_exposure_handled() {
        // Same rate, different exposures: should not reject.
        let counts = [20.0, 10.0, 40.0];
        let exposure = [2.0, 1.0, 4.0];
        let t = chi_square_equal_proportions(&counts, &exposure);
        assert!((t.statistic).abs() < 1e-12);
        assert!(t.p_value > 0.99);
    }

    #[test]
    fn zero_counts_give_p_one() {
        let t = chi_square_equal_proportions(&[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn lrt_detects_heterogeneous_users() {
        // 10 users with very different rates.
        let counts: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
        let exposure = vec![100.0; 10];
        let full = poisson_saturated_ll(&counts, &exposure);
        let reduced = poisson_common_rate_ll(&counts, &exposure);
        assert!(full >= reduced);
        let t = anova_lrt(full, 10, reduced, 1);
        assert_eq!(t.df, 9.0);
        assert!(t.significant_at(0.01));
    }

    #[test]
    fn lrt_homogeneous_users_not_significant() {
        let counts = vec![10.0; 8];
        let exposure = vec![100.0; 8];
        let full = poisson_saturated_ll(&counts, &exposure);
        let reduced = poisson_common_rate_ll(&counts, &exposure);
        // Identical rates: the models coincide.
        assert!((full - reduced).abs() < 1e-9);
        let t = anova_lrt(full, 8, reduced, 1);
        assert!(!t.significant_at(0.05));
    }

    #[test]
    fn saturated_ll_dominates_common_rate() {
        let counts = [3.0, 0.0, 12.0, 7.0];
        let exposure = [10.0, 20.0, 5.0, 8.0];
        assert!(
            poisson_saturated_ll(&counts, &exposure) >= poisson_common_rate_ll(&counts, &exposure)
        );
    }

    #[test]
    #[should_panic(expected = "more parameters")]
    fn lrt_requires_nesting() {
        let _ = anova_lrt(0.0, 1, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn chi_square_length_mismatch() {
        let _ = chi_square_equal_proportions(&[1.0, 2.0], &[1.0]);
    }
}
