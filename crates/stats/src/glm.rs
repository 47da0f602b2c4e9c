//! Generalized linear models with a log link: Poisson and
//! negative-binomial regression via iteratively reweighted least
//! squares (IRLS).
//!
//! Sections VI, VIII and X of the paper fit Poisson and negative-
//! binomial regressions of per-node outage counts on usage, temperature
//! and layout predictors, and read significance off Wald z-tests
//! (Tables II and III). This module reproduces that machinery, including
//! maximum-likelihood estimation of the negative-binomial dispersion
//! `theta` (the equivalent of R's `MASS::glm.nb`).
//!
//! # Examples
//!
//! Fitting a Poisson rate model with an exposure offset:
//!
//! ```
//! use hpcfail_stats::glm::{Family, GlmModel};
//!
//! // Counts observed over different exposure times, one binary predictor.
//! let y = [12.0, 15.0, 9.0, 30.0, 28.0, 35.0];
//! let group = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
//! let exposure = [10.0f64, 12.0, 8.0, 10.0, 9.0, 11.0];
//! let offset: Vec<f64> = exposure.iter().map(|t| t.ln()).collect();
//!
//! let fit = GlmModel::new(Family::Poisson)
//!     .term("group", &group)
//!     .offset(&offset)
//!     .fit(&y)?;
//! assert!(fit.coefficient("group").unwrap().estimate > 0.5); // higher rate
//! # Ok::<(), hpcfail_stats::glm::GlmError>(())
//! ```

use crate::linalg::{LinalgError, Matrix};
use crate::special::{digamma, ln_gamma, standard_normal_cdf, trigamma};
use std::fmt;

/// Maximum IRLS iterations before reporting non-convergence.
const MAX_IRLS_ITER: usize = 100;
/// Maximum outer theta-estimation iterations for `glm.nb`-style fits.
const MAX_THETA_ITER: usize = 50;
/// Convergence tolerance on relative deviance change.
const DEVIANCE_TOL: f64 = 1e-10;
/// Linear-predictor clamp keeping `exp` finite and weights positive.
const ETA_CLAMP: f64 = 30.0;

/// Errors from model specification or fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GlmError {
    /// The response is empty or all terms/rows are inconsistent lengths.
    DimensionMismatch {
        /// Description of the offending input.
        what: String,
    },
    /// The response contains a negative or non-finite value.
    InvalidResponse {
        /// Index of the offending observation.
        index: usize,
    },
    /// Fewer observations than parameters.
    Underdetermined,
    /// The weighted normal equations are singular (collinear predictors).
    Singular,
    /// IRLS failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for GlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlmError::DimensionMismatch { what } => {
                write!(f, "dimension mismatch in {what}")
            }
            GlmError::InvalidResponse { index } => {
                write!(
                    f,
                    "response value at index {index} is negative or non-finite"
                )
            }
            GlmError::Underdetermined => f.write_str("fewer observations than parameters"),
            GlmError::Singular => f.write_str("design matrix is singular (collinear predictors)"),
            GlmError::NoConvergence { iterations } => {
                write!(f, "IRLS did not converge in {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for GlmError {}

impl From<LinalgError> for GlmError {
    fn from(_: LinalgError) -> Self {
        GlmError::Singular
    }
}

/// The response family (and so the variance function) of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Poisson counts: variance = mean.
    Poisson,
    /// Negative binomial with *fixed* dispersion: variance
    /// = mean + mean²/theta.
    NegativeBinomial {
        /// The (fixed) dispersion parameter.
        theta: f64,
    },
}

impl Family {
    /// IRLS working weight at mean `mu` (prior weight 1).
    fn weight(self, mu: f64) -> f64 {
        match self {
            Family::Poisson => mu,
            Family::NegativeBinomial { theta } => mu / (1.0 + mu / theta),
        }
    }

    /// Unit deviance contribution of observation `(y, mu)`.
    fn deviance_term(self, y: f64, mu: f64) -> f64 {
        match self {
            Family::Poisson => {
                if y > 0.0 {
                    2.0 * (y * (y / mu).ln() - (y - mu))
                } else {
                    2.0 * mu
                }
            }
            Family::NegativeBinomial { theta } => {
                let a = if y > 0.0 { y * (y / mu).ln() } else { 0.0 };
                2.0 * (a - (y + theta) * ((y + theta) / (mu + theta)).ln())
            }
        }
    }

    /// Log-likelihood contribution of observation `(y, mu)`.
    fn ll_term(self, y: f64, mu: f64) -> f64 {
        match self {
            Family::Poisson => y * mu.ln() - mu - ln_gamma(y + 1.0),
            Family::NegativeBinomial { theta } => {
                ln_gamma(y + theta) - ln_gamma(theta) - ln_gamma(y + 1.0)
                    + theta * (theta / (theta + mu)).ln()
                    + y * (mu / (theta + mu)).ln()
            }
        }
    }

    /// Number of distribution parameters beyond the coefficients
    /// (1 for the estimated NB theta when counted in AIC).
    fn extra_params(self) -> usize {
        match self {
            Family::Poisson => 0,
            Family::NegativeBinomial { .. } => 1,
        }
    }
}

/// One fitted coefficient with its Wald test, a row of Tables II/III.
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficient {
    /// Term name (`"(Intercept)"` for the intercept).
    pub name: String,
    /// Point estimate on the log scale.
    pub estimate: f64,
    /// Standard error from the Fisher information.
    pub std_error: f64,
    /// Wald z statistic, `estimate / std_error`.
    pub z_value: f64,
    /// Two-sided p-value `Pr(>|z|)`.
    pub p_value: f64,
}

impl Coefficient {
    /// `true` if the coefficient differs from zero at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// A fitted GLM.
#[derive(Debug, Clone, PartialEq)]
pub struct GlmFit {
    /// The family the model was fitted with (for NB fits with estimated
    /// theta, this carries the final theta).
    pub family: Family,
    /// Fitted coefficients, intercept first.
    pub coefficients: Vec<Coefficient>,
    /// Residual deviance.
    pub deviance: f64,
    /// Deviance of the intercept-only model on the same data.
    pub null_deviance: f64,
    /// Maximized log-likelihood.
    pub log_likelihood: f64,
    /// Akaike information criterion.
    pub aic: f64,
    /// IRLS iterations used.
    pub iterations: usize,
    /// Number of observations.
    pub n: usize,
    /// Fitted means, one per observation.
    pub fitted: Vec<f64>,
}

impl GlmFit {
    /// Looks up a coefficient by term name.
    pub fn coefficient(&self, name: &str) -> Option<&Coefficient> {
        self.coefficients.iter().find(|c| c.name == name)
    }
}

/// A GLM specification under construction (non-consuming builder).
///
/// Terms are added column-by-column after an intercept, which every
/// model includes. Call [`GlmModel::fit`] with the response to estimate.
#[derive(Debug, Clone)]
pub struct GlmModel {
    family: Family,
    names: Vec<String>,
    columns: Vec<Vec<f64>>,
    offset: Option<Vec<f64>>,
}

impl GlmModel {
    /// Starts a model for the given family.
    pub fn new(family: Family) -> Self {
        GlmModel {
            family,
            names: Vec::new(),
            columns: Vec::new(),
            offset: None,
        }
    }

    /// Adds a predictor column.
    pub fn term(&mut self, name: &str, values: &[f64]) -> &mut Self {
        self.names.push(name.to_owned());
        self.columns.push(values.to_vec());
        self
    }

    /// Sets a per-observation offset on the linear predictor, e.g.
    /// `ln(exposure)` for rate models.
    pub fn offset(&mut self, values: &[f64]) -> &mut Self {
        self.offset = Some(values.to_vec());
        self
    }

    /// Fits the model to the response `y` by IRLS.
    ///
    /// # Errors
    ///
    /// Returns a [`GlmError`] for inconsistent dimensions, invalid
    /// responses, singular designs or non-convergence.
    pub fn fit(&self, y: &[f64]) -> Result<GlmFit, GlmError> {
        let (x, names) = self.design(y.len())?;
        validate_response(y)?;
        let offset = self.effective_offset(y.len())?;
        let (fit, _) = irls(self.family, &x, &names, y, &offset)?;
        Ok(fit)
    }

    /// Builds the design matrix and term names.
    fn design(&self, n: usize) -> Result<(Matrix, Vec<String>), GlmError> {
        if n == 0 {
            return Err(GlmError::DimensionMismatch {
                what: "empty response".into(),
            });
        }
        for (name, col) in self.names.iter().zip(&self.columns) {
            if col.len() != n {
                return Err(GlmError::DimensionMismatch {
                    what: format!("term {name:?}"),
                });
            }
            if col.iter().any(|v| !v.is_finite()) {
                return Err(GlmError::DimensionMismatch {
                    what: format!("non-finite value in term {name:?}"),
                });
            }
        }
        let p = self.columns.len() + 1;
        if n < p {
            return Err(GlmError::Underdetermined);
        }
        let mut x = Matrix::zeros(n, p);
        let mut names = Vec::with_capacity(p);
        for i in 0..n {
            x[(i, 0)] = 1.0;
        }
        names.push("(Intercept)".to_owned());
        for (j, (name, col)) in self.names.iter().zip(&self.columns).enumerate() {
            for i in 0..n {
                x[(i, 1 + j)] = col[i];
            }
            names.push(name.clone());
        }
        Ok((x, names))
    }

    fn effective_offset(&self, n: usize) -> Result<Vec<f64>, GlmError> {
        match &self.offset {
            Some(o) if o.len() != n => Err(GlmError::DimensionMismatch {
                what: "offset".into(),
            }),
            Some(o) => Ok(o.clone()),
            None => Ok(vec![0.0; n]),
        }
    }
}

fn validate_response(y: &[f64]) -> Result<(), GlmError> {
    for (i, &v) in y.iter().enumerate() {
        if !v.is_finite() || v < 0.0 {
            return Err(GlmError::InvalidResponse { index: i });
        }
    }
    Ok(())
}

/// Core IRLS loop. Returns the fit and the final coefficient vector.
fn irls(
    family: Family,
    x: &Matrix,
    names: &[String],
    y: &[f64],
    offset: &[f64],
) -> Result<(GlmFit, Vec<f64>), GlmError> {
    let n = y.len();
    let p = x.cols();

    // Initialize the linear predictor from the response.
    let mut eta: Vec<f64> = y.iter().map(|&v| (v + 0.5).ln()).collect();
    let mut beta = vec![0.0; p];
    let mut deviance = f64::INFINITY;
    let mut iterations = 0;

    for iter in 1..=MAX_IRLS_ITER {
        iterations = iter;
        let mu: Vec<f64> = eta
            .iter()
            .map(|&e| e.clamp(-ETA_CLAMP, ETA_CLAMP).exp())
            .collect();

        // Weighted normal equations: (X' W X) beta = X' W z.
        let mut xtwx = Matrix::zeros(p, p);
        let mut xtwz = vec![0.0; p];
        for i in 0..n {
            let w = family.weight(mu[i]).max(1e-12);
            let z = eta[i] - offset[i] + (y[i] - mu[i]) / mu[i];
            let row = x.row(i);
            for a in 0..p {
                let wa = w * row[a];
                xtwz[a] += wa * z;
                for b in a..p {
                    xtwx[(a, b)] += wa * row[b];
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..p {
            for b in 0..a {
                xtwx[(a, b)] = xtwx[(b, a)];
            }
        }

        beta = xtwx.solve_spd(&xtwz).map_err(|_| GlmError::Singular)?;
        for i in 0..n {
            let lin: f64 = x.row(i).iter().zip(&beta).map(|(a, b)| a * b).sum();
            eta[i] = (lin + offset[i]).clamp(-ETA_CLAMP, ETA_CLAMP);
        }

        let new_dev: f64 = y
            .iter()
            .zip(eta.iter().map(|&e| e.exp()))
            .map(|(&yi, mui)| family.deviance_term(yi, mui))
            .sum();
        if (deviance - new_dev).abs() < DEVIANCE_TOL * (new_dev.abs() + 0.1) {
            deviance = new_dev;
            break;
        }
        deviance = new_dev;
        if iter == MAX_IRLS_ITER {
            return Err(GlmError::NoConvergence { iterations: iter });
        }
    }

    let mu: Vec<f64> = eta.iter().map(|&e| e.exp()).collect();

    // Fisher information and standard errors.
    let mut xtwx = Matrix::zeros(p, p);
    for (i, &m) in mu.iter().enumerate() {
        let w = family.weight(m).max(1e-12);
        let row = x.row(i);
        for a in 0..p {
            for b in a..p {
                xtwx[(a, b)] += w * row[a] * row[b];
            }
        }
    }
    for a in 0..p {
        for b in 0..a {
            xtwx[(a, b)] = xtwx[(b, a)];
        }
    }
    let cov = xtwx.inverse_spd().map_err(|_| GlmError::Singular)?;

    let coefficients: Vec<Coefficient> = (0..p)
        .map(|j| {
            let estimate = beta[j];
            let std_error = cov[(j, j)].max(0.0).sqrt();
            let z_value = if std_error > 0.0 {
                estimate / std_error
            } else {
                0.0
            };
            let p_value = (2.0 * standard_normal_cdf(-z_value.abs())).min(1.0);
            Coefficient {
                name: names[j].clone(),
                estimate,
                std_error,
                z_value,
                p_value,
            }
        })
        .collect();

    let log_likelihood: f64 = y
        .iter()
        .zip(&mu)
        .map(|(&yi, &mui)| family.ll_term(yi, mui))
        .sum();
    let aic = -2.0 * log_likelihood + 2.0 * (p + family.extra_params()) as f64;

    // Null deviance: intercept-only model with the same offset.
    let null_deviance = null_deviance(family, y, offset);

    Ok((
        GlmFit {
            family,
            coefficients,
            deviance,
            null_deviance,
            log_likelihood,
            aic,
            iterations,
            n,
            fitted: mu,
        },
        beta,
    ))
}

/// Deviance of the intercept-only model, solved by a 1-parameter IRLS.
fn null_deviance(family: Family, y: &[f64], offset: &[f64]) -> f64 {
    let n = y.len();
    // With a log link and offset, the intercept-only MLE satisfies
    // sum(y) = sum(exp(b0 + o_i)); solve for b0 by Newton.
    let sum_y: f64 = y.iter().sum();
    if sum_y == 0.0 {
        return y
            .iter()
            .zip(offset)
            .map(|(&yi, &o)| family.deviance_term(yi, (o - ETA_CLAMP).exp()))
            .sum();
    }
    let mut b0 = (sum_y / offset.iter().map(|&o| o.exp()).sum::<f64>()).ln();
    for _ in 0..50 {
        let s: f64 = offset.iter().map(|&o| (b0 + o).exp()).sum();
        let step = (sum_y / s).ln();
        b0 += step;
        if step.abs() < 1e-12 {
            break;
        }
    }
    let _ = n;
    y.iter()
        .zip(offset)
        .map(|(&yi, &o)| family.deviance_term(yi, (b0 + o).exp()))
        .sum()
}

/// Fits a negative-binomial GLM with `theta` estimated by maximum
/// likelihood (alternating IRLS and Newton steps on the profile
/// likelihood), like R's `MASS::glm.nb`.
///
/// The returned fit's [`GlmFit::family`] carries the estimated theta.
///
/// # Errors
///
/// Propagates [`GlmError`] from the inner IRLS fits; also fails with
/// [`GlmError::NoConvergence`] if theta does not stabilize.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::glm::{fit_negative_binomial, Family, GlmModel};
///
/// let y = [0.0, 2.0, 1.0, 4.0, 9.0, 3.0, 0.0, 7.0, 2.0, 5.0];
/// let x: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
/// let mut model = GlmModel::new(Family::Poisson); // family is replaced
/// model.term("x", &x);
/// let fit = fit_negative_binomial(&model, &y)?;
/// assert!(matches!(fit.family, Family::NegativeBinomial { .. }));
/// # Ok::<(), hpcfail_stats::glm::GlmError>(())
/// ```
pub fn fit_negative_binomial(model: &GlmModel, y: &[f64]) -> Result<GlmFit, GlmError> {
    validate_response(y)?;
    let n = y.len();
    let (x, names) = model.design(n)?;
    let offset = model.effective_offset(n)?;

    // Moment-based initial theta from a Poisson fit's residuals.
    let (poisson_fit, _) = irls(Family::Poisson, &x, &names, y, &offset)?;
    let mut theta = initial_theta(y, &poisson_fit.fitted);

    for _ in 0..MAX_THETA_ITER {
        let family = Family::NegativeBinomial { theta };
        let (fit, _) = irls(family, &x, &names, y, &offset)?;
        let new_theta = newton_theta(y, &fit.fitted, theta);
        let done = (new_theta - theta).abs() < 1e-8 * (theta + 1.0);
        theta = new_theta;
        if done {
            break;
        }
    }
    // Re-fit once at the final theta so coefficients and theta agree.
    let family = Family::NegativeBinomial { theta };
    let (fit, _) = irls(family, &x, &names, y, &offset)?;
    Ok(fit)
}

/// Moment estimator of theta: `mean^2 / (var - mean)`, clamped to a
/// sane range.
fn initial_theta(y: &[f64], mu: &[f64]) -> f64 {
    let n = y.len() as f64;
    // Pearson-style moment estimate using fitted means.
    let mut num = 0.0;
    for (yi, mi) in y.iter().zip(mu) {
        num += (yi - mi) * (yi - mi) / mi.max(1e-12) - 1.0;
    }
    let disp = (num / n).max(1e-4);
    let mean = y.iter().sum::<f64>() / n;
    (mean / disp).clamp(1e-3, 1e7)
}

/// One-dimensional Newton iteration on the profile log-likelihood in
/// theta, holding the fitted means fixed.
fn newton_theta(y: &[f64], mu: &[f64], mut theta: f64) -> f64 {
    for _ in 0..50 {
        let mut score = 0.0;
        let mut info = 0.0;
        for (&yi, &mi) in y.iter().zip(mu) {
            score += digamma(yi + theta) - digamma(theta) + (theta / (theta + mi)).ln() + 1.0
                - (yi + theta) / (theta + mi);
            info += trigamma(yi + theta) - trigamma(theta) + 1.0 / theta - 2.0 / (theta + mi)
                + (yi + theta) / ((theta + mi) * (theta + mi));
        }
        if info.abs() < 1e-300 {
            break;
        }
        let step = score / info;
        let new_theta = (theta - step)
            .clamp(theta / 10.0, theta * 10.0)
            .clamp(1e-3, 1e7);
        if (new_theta - theta).abs() < 1e-10 * (theta + 1.0) {
            return new_theta;
        }
        theta = new_theta;
    }
    theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, NegativeBinomial, Poisson as PoissonDist};
    use crate::htest::anova_lrt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn intercept_only_poisson_recovers_log_mean() {
        let y = [2.0, 4.0, 3.0, 5.0, 6.0];
        let fit = GlmModel::new(Family::Poisson).fit(&y).unwrap();
        let b0 = fit.coefficient("(Intercept)").unwrap();
        close(b0.estimate, 4.0f64.ln(), 1e-8);
        // SE of intercept-only Poisson = 1/sqrt(sum y).
        close(b0.std_error, 1.0 / 20.0f64.sqrt(), 1e-8);
    }

    #[test]
    fn binary_covariate_recovers_log_rate_ratio() {
        let y = [10.0, 12.0, 8.0, 30.0, 33.0, 27.0];
        let g = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let fit = GlmModel::new(Family::Poisson)
            .term("g", &g)
            .fit(&y)
            .unwrap();
        close(
            fit.coefficient("(Intercept)").unwrap().estimate,
            10.0f64.ln(),
            1e-8,
        );
        close(
            fit.coefficient("g").unwrap().estimate,
            (30.0f64 / 10.0).ln(),
            1e-8,
        );
        assert!(fit.coefficient("g").unwrap().significant_at(0.01));
    }

    #[test]
    fn offset_rate_model() {
        // Same underlying rate 2.0 per unit exposure everywhere.
        let exposure = [1.0, 2.0, 5.0, 10.0];
        let y = [2.0, 4.0, 10.0, 20.0];
        let offset: Vec<f64> = exposure.iter().map(|t: &f64| t.ln()).collect();
        let fit = GlmModel::new(Family::Poisson)
            .offset(&offset)
            .fit(&y)
            .unwrap();
        close(
            fit.coefficient("(Intercept)").unwrap().estimate,
            2.0f64.ln(),
            1e-8,
        );
    }

    #[test]
    fn simulated_poisson_recovery() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let b0 = 0.5;
        let b1 = 0.8;
        let b2 = -0.4;
        let mut x1 = Vec::with_capacity(n);
        let mut x2 = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let v1 = (i as f64 / n as f64) * 2.0 - 1.0;
            let v2 = ((i * 7919) % 1000) as f64 / 1000.0 - 0.5;
            let mu = (b0 + b1 * v1 + b2 * v2).exp();
            y.push(PoissonDist::new(mu).sample(&mut rng));
            x1.push(v1);
            x2.push(v2);
        }
        let fit = GlmModel::new(Family::Poisson)
            .term("x1", &x1)
            .term("x2", &x2)
            .fit(&y)
            .unwrap();
        close(fit.coefficient("(Intercept)").unwrap().estimate, b0, 0.1);
        close(fit.coefficient("x1").unwrap().estimate, b1, 0.1);
        close(fit.coefficient("x2").unwrap().estimate, b2, 0.2);
        assert!(fit.coefficient("x1").unwrap().significant_at(0.01));
    }

    #[test]
    fn deviance_decreases_with_informative_term() {
        let y = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let with_x = GlmModel::new(Family::Poisson)
            .term("x", &x)
            .fit(&y)
            .unwrap();
        assert!(with_x.deviance < with_x.null_deviance);
        assert!(with_x.deviance < 1e-6); // exact exponential growth
    }

    #[test]
    fn lrt_between_nested_models() {
        let y = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let full = GlmModel::new(Family::Poisson)
            .term("x", &x)
            .fit(&y)
            .unwrap();
        let reduced = GlmModel::new(Family::Poisson).fit(&y).unwrap();
        let t = anova_lrt(
            full.log_likelihood,
            full.coefficients.len(),
            reduced.log_likelihood,
            reduced.coefficients.len(),
        );
        assert_eq!(t.df, 1.0);
        assert!(t.statistic > 10.0);
        assert!(t.p_value < 0.001);
    }

    #[test]
    fn nb_fixed_theta_matches_poisson_for_large_theta() {
        let y = [3.0, 5.0, 2.0, 8.0, 6.0, 4.0, 7.0, 3.0];
        let x: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        let pois = GlmModel::new(Family::Poisson)
            .term("x", &x)
            .fit(&y)
            .unwrap();
        let nb = GlmModel::new(Family::NegativeBinomial { theta: 1e8 })
            .term("x", &x)
            .fit(&y)
            .unwrap();
        close(
            pois.coefficient("x").unwrap().estimate,
            nb.coefficient("x").unwrap().estimate,
            1e-5,
        );
    }

    #[test]
    fn nb_theta_estimation_recovers_dispersion() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 4000;
        let theta_true = 2.0;
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let v = (i as f64 / n as f64) * 2.0 - 1.0;
            let mu = (1.0 + 0.5 * v).exp();
            y.push(NegativeBinomial::new(mu, theta_true).sample(&mut rng));
            x.push(v);
        }
        let mut model = GlmModel::new(Family::Poisson);
        model.term("x", &x);
        let fit = fit_negative_binomial(&model, &y).unwrap();
        let Family::NegativeBinomial { theta } = fit.family else {
            panic!("expected NB family");
        };
        close(theta, theta_true, 0.5);
        close(fit.coefficient("x").unwrap().estimate, 0.5, 0.1);
        // NB standard errors should exceed Poisson's on overdispersed data.
        let pois = GlmModel::new(Family::Poisson)
            .term("x", &x)
            .fit(&y)
            .unwrap();
        assert!(fit.coefficient("x").unwrap().std_error > pois.coefficient("x").unwrap().std_error);
    }

    #[test]
    fn collinear_design_reports_singular() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let x = [1.0, 2.0, 3.0, 4.0];
        let x2 = [2.0, 4.0, 6.0, 8.0]; // exactly 2 * x
        let err = GlmModel::new(Family::Poisson)
            .term("x", &x)
            .term("x2", &x2)
            .fit(&y)
            .unwrap_err();
        assert_eq!(err, GlmError::Singular);
    }

    #[test]
    fn dimension_errors() {
        let err = GlmModel::new(Family::Poisson)
            .term("x", &[1.0])
            .fit(&[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, GlmError::DimensionMismatch { .. }));
        let err = GlmModel::new(Family::Poisson).fit(&[]).unwrap_err();
        assert!(matches!(err, GlmError::DimensionMismatch { .. }));
        let err = GlmModel::new(Family::Poisson)
            .fit(&[1.0, -2.0])
            .unwrap_err();
        assert_eq!(err, GlmError::InvalidResponse { index: 1 });
    }

    #[test]
    fn underdetermined_detected() {
        let err = GlmModel::new(Family::Poisson)
            .term("a", &[1.0])
            .term("b", &[2.0])
            .fit(&[3.0])
            .unwrap_err();
        assert_eq!(err, GlmError::Underdetermined);
    }

    #[test]
    fn zero_counts_handled() {
        let y = [0.0, 0.0, 1.0, 2.0, 0.0, 3.0];
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let fit = GlmModel::new(Family::Poisson)
            .term("x", &x)
            .fit(&y)
            .unwrap();
        assert!(fit.coefficient("x").unwrap().estimate > 0.0);
        assert!(fit.log_likelihood.is_finite());
        assert!(fit.deviance.is_finite());
    }

    #[test]
    fn aic_penalizes_parameters() {
        let y = [3.0, 4.0, 3.0, 5.0, 4.0, 3.0, 4.0, 5.0];
        let noise: Vec<f64> = (0..8).map(|i| ((i * 31) % 7) as f64).collect();
        let base = GlmModel::new(Family::Poisson).fit(&y).unwrap();
        let with_noise = GlmModel::new(Family::Poisson)
            .term("noise", &noise)
            .fit(&y)
            .unwrap();
        // The useless term should not improve AIC by more than ~2.
        assert!(with_noise.aic > base.aic - 2.0);
    }

    #[test]
    fn fitted_values_match_mean_structure() {
        let y = [10.0, 12.0, 8.0, 30.0, 33.0, 27.0];
        let g = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let fit = GlmModel::new(Family::Poisson)
            .term("g", &g)
            .fit(&y)
            .unwrap();
        close(fit.fitted[0], 10.0, 1e-6);
        close(fit.fitted[3], 30.0, 1e-6);
    }
}
