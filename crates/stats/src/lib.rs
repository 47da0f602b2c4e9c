//! Statistics substrate for the `hpcfail` workspace.
//!
//! The Rust ecosystem lacks a GLM/statistics stack suitable for the
//! analyses in El-Sayed & Schroeder (DSN 2013), so this crate implements
//! everything the paper's methodology needs, from scratch:
//!
//! - [`special`] — special functions: log-gamma, digamma/trigamma,
//!   error function, regularized incomplete gamma and beta.
//! - [`dist`] — probability distributions (normal, chi-square, Student-t,
//!   F, Poisson, negative binomial, gamma, exponential, Weibull) with
//!   CDFs and `rand`-based samplers.
//! - [`linalg`] — small dense matrices with a Cholesky solver.
//! - [`summary`] — descriptive statistics.
//! - [`proportion`] — binomial proportions with Wilson/Wald confidence
//!   intervals and the two-sample proportion z-test the paper uses for
//!   significance of conditional-probability increases.
//! - [`htest`] — chi-square equal-proportions test (Section IV's
//!   "do nodes fail at equal rates?"), likelihood-ratio / ANOVA tests.
//! - [`corr`] — Pearson and Spearman correlation (Section V).
//! - [`glm`] — Poisson and negative-binomial regression via IRLS
//!   (Sections VI, VIII, X).
//! - [`mle`] — inter-arrival distribution fitting (exponential,
//!   Weibull, lognormal, gamma) with KS goodness of fit and AIC
//!   ranking, for the failure-modeling companion analyses.
//! - [`timeseries`] — autocorrelation and the Ljung-Box test for daily
//!   failure-count series.
//!
//! # Examples
//!
//! ```
//! use hpcfail_stats::proportion::Proportion;
//!
//! let post_failure = Proportion::new(72, 1000);   // 7.2% after a failure
//! let random_day = Proportion::new(31, 10_000);   // 0.31% on a random day
//! let test = post_failure.two_sample_z_test(random_day);
//! assert!(test.p_value < 0.01); // significantly different
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod dist;
pub mod glm;
pub mod htest;
pub mod linalg;
pub mod mle;
pub mod proportion;
pub mod special;
pub mod summary;
pub mod timeseries;

/// The most frequently used items.
pub mod prelude {
    pub use crate::corr::{pearson, spearman};
    pub use crate::dist::{
        ChiSquared, Distribution, Exponential, GammaDist, LogNormal, NegativeBinomial, Normal,
        Poisson, Weibull,
    };
    pub use crate::glm::{Family, GlmFit, GlmModel};
    pub use crate::htest::{anova_lrt, chi_square_equal_proportions, TestResult};
    pub use crate::linalg::Matrix;
    pub use crate::mle::{rank_fits, FittedDistribution, RankedFit};
    pub use crate::proportion::{ConfidenceInterval, Proportion};
    pub use crate::summary::Summary;
    pub use crate::timeseries::{acf, ljung_box};
}
