//! The shared conditional-vs-baseline estimate.

use hpcfail_stats::proportion::{ConfidenceInterval, Proportion, ProportionTest};
use hpcfail_store::query::WindowCounts;
use std::fmt;

/// A conditional probability compared against its empirical baseline —
/// the unit of every bar in the paper's Figures 1-3, 6, 10, 11 and 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConditionalEstimate {
    /// Probability of the target event in the window following a
    /// trigger.
    pub conditional: Proportion,
    /// Probability of the target event in a random window of the same
    /// length.
    pub baseline: Proportion,
}

impl ConditionalEstimate {
    /// Builds an estimate from raw window counts.
    pub fn from_counts(conditional: WindowCounts, baseline: WindowCounts) -> Self {
        ConditionalEstimate {
            conditional: Proportion::new(conditional.hits, conditional.total),
            baseline: Proportion::new(baseline.hits, baseline.total),
        }
    }

    /// Merges two estimates (e.g. across the systems of a group).
    pub fn merge(self, other: ConditionalEstimate) -> Self {
        ConditionalEstimate {
            conditional: self.conditional.merge(other.conditional),
            baseline: self.baseline.merge(other.baseline),
        }
    }

    /// The factor increase over the baseline — the "7.2x" annotations.
    /// `None` when the baseline is zero.
    pub fn factor(&self) -> Option<f64> {
        self.conditional.factor_over(self.baseline)
    }

    /// 95% Wilson interval on the conditional probability.
    pub fn conditional_ci(&self) -> ConfidenceInterval {
        self.conditional.wilson_ci(0.95)
    }

    /// Two-sample proportion z-test of conditional vs baseline — the
    /// paper's significance test for every conditional comparison.
    pub fn test(&self) -> ProportionTest {
        self.conditional.two_sample_z_test(self.baseline)
    }

    /// `true` if the conditional probability differs significantly from
    /// the baseline at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.test().significant_at(alpha)
    }

    /// An empty estimate (no triggers observed).
    pub fn empty() -> Self {
        ConditionalEstimate {
            conditional: Proportion::EMPTY,
            baseline: Proportion::EMPTY,
        }
    }

    /// `true` when no trigger windows were observed.
    pub fn is_empty(&self) -> bool {
        self.conditional.trials() == 0
    }
}

impl fmt::Display for ConditionalEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let factor = self
            .factor()
            .map_or("NA".to_owned(), |x| format!("{x:.1}x"));
        write!(
            f,
            "{:.4} vs {:.4} ({factor}, n={})",
            self.conditional.estimate(),
            self.baseline.estimate(),
            self.conditional.trials(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_and_factor() {
        let e = ConditionalEstimate::from_counts(
            WindowCounts {
                hits: 72,
                total: 1000,
            },
            WindowCounts {
                hits: 31,
                total: 10_000,
            },
        );
        let f = e.factor().unwrap();
        assert!((f - 0.072 / 0.0031).abs() < 1e-9);
        assert!(e.significant_at(0.01));
    }

    #[test]
    fn merge_pools_counts() {
        let a = ConditionalEstimate::from_counts(
            WindowCounts { hits: 1, total: 10 },
            WindowCounts {
                hits: 2,
                total: 100,
            },
        );
        let b = ConditionalEstimate::from_counts(
            WindowCounts { hits: 3, total: 10 },
            WindowCounts {
                hits: 1,
                total: 100,
            },
        );
        let m = a.merge(b);
        assert_eq!(m.conditional.trials(), 20);
        assert_eq!(m.conditional.successes(), 4);
        assert_eq!(m.baseline.trials(), 200);
    }

    #[test]
    fn empty_estimate_behaviour() {
        let e = ConditionalEstimate::empty();
        assert!(e.is_empty());
        assert_eq!(e.factor(), None);
        assert!(!e.significant_at(0.05));
        assert_eq!(e.to_string(), "0.0000 vs 0.0000 (NA, n=0)");
    }

    #[test]
    fn display_format() {
        let e = ConditionalEstimate::from_counts(
            WindowCounts {
                hits: 5,
                total: 100,
            },
            WindowCounts {
                hits: 1,
                total: 100,
            },
        );
        assert_eq!(e.to_string(), "0.0500 vs 0.0100 (5.0x, n=100)");
    }
}
