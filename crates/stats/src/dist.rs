//! Probability distributions with CDFs and `rand`-based samplers.
//!
//! Every distribution implements [`Distribution`], which exposes the
//! density/mass, CDF, survival function, mean and variance; continuous
//! distributions additionally sample through [`Distribution::sample`].
//!
//! These back both the hypothesis tests (chi-square and normal tails)
//! and the synthetic trace generator (Poisson counts, gamma frailty,
//! Weibull/lognormal job durations).

use crate::special::{
    ln_factorial, ln_gamma, reg_beta, reg_gamma_p, reg_gamma_q, standard_normal_cdf,
};
use rand::Rng;

/// Common interface for the distributions in this module.
pub trait Distribution {
    /// Probability density (continuous) or mass (discrete) at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Survival function `P(X > x) = 1 - cdf(x)`, computed to preserve
    /// accuracy in the tail where possible.
    fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// The distribution mean.
    fn mean(&self) -> f64;

    /// The distribution variance.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// Normal (Gaussian) distribution.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::dist::{Distribution, Normal};
///
/// let z = Normal::standard();
/// assert!((z.cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((z.cdf(1.96) - 0.975).abs() < 0.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard
    /// deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0` or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite(),
            "normal parameters must be finite"
        );
        assert!(sigma > 0.0, "normal sigma must be positive, got {sigma}");
        Normal { mu, sigma }
    }

    /// The standard normal distribution (mean 0, standard deviation 1).
    pub fn standard() -> Self {
        Normal {
            mu: 0.0,
            sigma: 1.0,
        }
    }
}

impl Distribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        standard_normal_cdf((x - self.mu) / self.sigma)
    }

    fn sf(&self, x: f64) -> f64 {
        standard_normal_cdf(-(x - self.mu) / self.sigma)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia polar method.
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chi-squared
// ---------------------------------------------------------------------------

/// Chi-squared distribution with `k` degrees of freedom.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::dist::{ChiSquared, Distribution};
///
/// let chi2 = ChiSquared::new(1.0);
/// // P(X > 3.841) ~ 0.05 for 1 df.
/// assert!((chi2.sf(3.841458820694124) - 0.05).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates a chi-squared distribution with `k > 0` degrees of freedom.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0` or not finite.
    pub fn new(k: f64) -> Self {
        assert!(
            k.is_finite() && k > 0.0,
            "chi-squared df must be positive, got {k}"
        );
        ChiSquared { k }
    }
}

impl Distribution for ChiSquared {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let half_k = self.k / 2.0;
        ((half_k - 1.0) * x.ln() - x / 2.0 - half_k * (2f64).ln() - ln_gamma(half_k)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_gamma_p(self.k / 2.0, x / 2.0)
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            reg_gamma_q(self.k / 2.0, x / 2.0)
        }
    }

    fn mean(&self) -> f64 {
        self.k
    }

    fn variance(&self) -> f64 {
        2.0 * self.k
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        GammaDist::new(self.k / 2.0, 2.0).sample(rng)
    }
}

// ---------------------------------------------------------------------------
// Student t
// ---------------------------------------------------------------------------

/// Gamma distribution with shape `alpha` and scale `theta`.
///
/// The synthetic fleet uses unit-mean gamma draws
/// ([`GammaDist::unit_mean`]) as node "frailty" multipliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaDist {
    alpha: f64,
    theta: f64,
}

impl GammaDist {
    /// Creates a gamma distribution with shape `alpha > 0` and scale
    /// `theta > 0`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn new(alpha: f64, theta: f64) -> Self {
        assert!(
            alpha > 0.0 && theta > 0.0,
            "gamma parameters must be positive"
        );
        GammaDist { alpha, theta }
    }

    /// A gamma distribution with mean 1 and variance `1 / alpha`.
    pub fn unit_mean(alpha: f64) -> Self {
        GammaDist::new(alpha, 1.0 / alpha)
    }
}

impl Distribution for GammaDist {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        ((self.alpha - 1.0) * x.ln()
            - x / self.theta
            - self.alpha * self.theta.ln()
            - ln_gamma(self.alpha))
        .exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_gamma_p(self.alpha, x / self.theta)
        }
    }

    fn mean(&self) -> f64 {
        self.alpha * self.theta
    }

    fn variance(&self) -> f64 {
        self.alpha * self.theta * self.theta
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia-Tsang squeeze method; boost for alpha < 1.
        let alpha = self.alpha;
        if alpha < 1.0 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let boosted = GammaDist::new(alpha + 1.0, self.theta).sample(rng);
            return boosted * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard().sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v * self.theta;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// Exponential distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exponential { lambda }
    }
}

impl Distribution for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * x).exp()
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x < 0.0 {
            1.0
        } else {
            (-self.lambda * x).exp()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    fn variance(&self) -> f64 {
        1.0 / (self.lambda * self.lambda)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / self.lambda
    }
}

// ---------------------------------------------------------------------------
// Weibull
// ---------------------------------------------------------------------------

/// Weibull distribution with shape `k` and scale `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    k: f64,
    lambda: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with shape `k > 0` and scale
    /// `lambda > 0`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn new(k: f64, lambda: f64) -> Self {
        assert!(
            k > 0.0 && lambda > 0.0,
            "weibull parameters must be positive"
        );
        Weibull { k, lambda }
    }
}

impl Distribution for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let z = x / self.lambda;
        self.k / self.lambda * z.powf(self.k - 1.0) * (-z.powf(self.k)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.lambda).powf(self.k)).exp()
        }
    }

    fn mean(&self) -> f64 {
        self.lambda * (ln_gamma(1.0 + 1.0 / self.k)).exp()
    }

    fn variance(&self) -> f64 {
        let g1 = (ln_gamma(1.0 + 1.0 / self.k)).exp();
        let g2 = (ln_gamma(1.0 + 2.0 / self.k)).exp();
        self.lambda * self.lambda * (g2 - g1 * g1)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.lambda * (-u.ln()).powf(1.0 / self.k)
    }
}

// ---------------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------------

/// Log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Creates a log-normal distribution whose logarithm has mean `mu`
    /// and standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }
}

impl Distribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.normal.pdf(x.ln()) / x
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.normal.cdf(x.ln())
        }
    }

    fn mean(&self) -> f64 {
        (self.normal.mean() + self.normal.variance() / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let v = self.normal.variance();
        ((v).exp() - 1.0) * (2.0 * self.normal.mean() + v).exp()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// Poisson distribution with mean `lambda`.
///
/// The synthetic fleet draws per-day failure counts from this
/// distribution; the GLM engine uses its log-likelihood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0` or not finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "poisson mean must be positive, got {lambda}"
        );
        Poisson { lambda }
    }

    /// The probability mass at integer `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        (k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)).exp()
    }

    /// Draws an integer count. Knuth's method for small means,
    /// normal approximation with continuity correction for large means.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen_range(0.0..1.0);
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation, adequate for the simulator's needs.
            let z = Normal::standard().sample(rng);
            let x = self.lambda + z * self.lambda.sqrt() + 0.5;
            if x < 0.0 {
                0
            } else {
                x.floor() as u64
            }
        }
    }
}

impl Distribution for Poisson {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 || x.fract() != 0.0 {
            0.0
        } else {
            self.pmf(x as u64)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            // P(X <= k) = Q(k+1, lambda).
            reg_gamma_q(x.floor() + 1.0, self.lambda)
        }
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_count(rng) as f64
    }
}

// ---------------------------------------------------------------------------
// Negative binomial
// ---------------------------------------------------------------------------

/// Negative binomial distribution in the GLM (`mu`, `theta`)
/// parameterization: mean `mu`, variance `mu + mu^2 / theta`.
///
/// Equivalent to a gamma-Poisson mixture: `Poisson(G)` with
/// `G ~ Gamma(theta, mu/theta)`, which is also how sampling works.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    mu: f64,
    theta: f64,
}

impl NegativeBinomial {
    /// Creates a negative binomial with mean `mu > 0` and dispersion
    /// `theta > 0` (larger theta = closer to Poisson).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn new(mu: f64, theta: f64) -> Self {
        assert!(
            mu > 0.0 && theta > 0.0,
            "negative binomial parameters must be positive"
        );
        NegativeBinomial { mu, theta }
    }

    /// The probability mass at integer `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        let (mu, th) = (self.mu, self.theta);
        let kf = k as f64;
        (ln_gamma(kf + th) - ln_gamma(th) - ln_factorial(k)
            + th * (th / (th + mu)).ln()
            + kf * (mu / (th + mu)).ln())
        .exp()
    }

    /// Draws an integer count via the gamma-Poisson mixture.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let g = GammaDist::new(self.theta, self.mu / self.theta).sample(rng);
        if g <= 0.0 {
            0
        } else {
            Poisson::new(g.max(1e-12)).sample_count(rng)
        }
    }
}

impl Distribution for NegativeBinomial {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 || x.fract() != 0.0 {
            0.0
        } else {
            self.pmf(x as u64)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        // P(X <= k) = I_{theta/(theta+mu)}(theta, k+1).
        reg_beta(
            self.theta,
            x.floor() + 1.0,
            self.theta / (self.theta + self.mu),
        )
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.mu + self.mu * self.mu / self.theta
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_count(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "{a} vs {b} (tol {tol})"
        );
    }

    fn sample_moments<D: Distribution>(d: &D, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn normal_cdf_and_quantile() {
        let n = Normal::new(10.0, 2.0);
        close(n.cdf(10.0), 0.5, 1e-12);
        close(n.cdf(13.92), 0.975, 1e-3);
        close(n.sf(12.0) + n.cdf(12.0), 1.0, 1e-12);
    }

    #[test]
    fn normal_sampling_moments() {
        let n = Normal::new(-3.0, 1.5);
        let (m, v) = sample_moments(&n, 100_000, 1);
        close(m, -3.0, 0.02);
        close(v, 2.25, 0.05);
    }

    #[test]
    fn chi_squared_critical_values() {
        // Standard textbook 95th percentiles.
        close(ChiSquared::new(1.0).cdf(3.841), 0.95, 1e-3);
        close(ChiSquared::new(5.0).cdf(11.070), 0.95, 1e-3);
        close(ChiSquared::new(10.0).cdf(18.307), 0.95, 1e-3);
    }

    #[test]
    fn chi_squared_sampling_moments() {
        let c = ChiSquared::new(4.0);
        let (m, v) = sample_moments(&c, 100_000, 2);
        close(m, 4.0, 0.03);
        close(v, 8.0, 0.08);
    }

    #[test]
    fn gamma_moments_and_sampling() {
        let g = GammaDist::new(3.0, 2.0);
        assert_eq!(g.mean(), 6.0);
        assert_eq!(g.variance(), 12.0);
        let (m, v) = sample_moments(&g, 100_000, 3);
        close(m, 6.0, 0.02);
        close(v, 12.0, 0.08);
    }

    #[test]
    fn gamma_small_shape_sampling() {
        let g = GammaDist::new(0.5, 1.0);
        let (m, v) = sample_moments(&g, 200_000, 4);
        close(m, 0.5, 0.03);
        close(v, 0.5, 0.08);
    }

    #[test]
    fn gamma_unit_mean_frailty() {
        let g = GammaDist::unit_mean(4.0);
        close(g.mean(), 1.0, 1e-12);
        close(g.variance(), 0.25, 1e-12);
    }

    #[test]
    fn exponential_cdf_and_sampling() {
        let e = Exponential::new(2.0);
        close(e.cdf(0.5), 1.0 - (-1.0f64).exp(), 1e-12);
        close(e.sf(1.0), (-2.0f64).exp(), 1e-12);
        let (m, _) = sample_moments(&e, 100_000, 5);
        close(m, 0.5, 0.02);
    }

    #[test]
    fn weibull_reduces_to_exponential() {
        let w = Weibull::new(1.0, 2.0);
        let e = Exponential::new(0.5);
        for &x in &[0.1, 1.0, 3.0] {
            close(w.cdf(x), e.cdf(x), 1e-12);
        }
    }

    #[test]
    fn weibull_sampling_moments() {
        let w = Weibull::new(2.0, 1.0);
        let (m, v) = sample_moments(&w, 100_000, 6);
        close(m, w.mean(), 0.02);
        close(v, w.variance(), 0.05);
    }

    #[test]
    fn lognormal_moments() {
        let ln = LogNormal::new(0.0, 0.5);
        let (m, v) = sample_moments(&ln, 200_000, 7);
        close(m, ln.mean(), 0.02);
        close(v, ln.variance(), 0.1);
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let p = Poisson::new(4.2);
        let total: f64 = (0..100).map(|k| p.pmf(k)).sum();
        close(total, 1.0, 1e-12);
    }

    #[test]
    fn poisson_cdf_matches_pmf_sum() {
        let p = Poisson::new(3.0);
        let sum: f64 = (0..=5).map(|k| p.pmf(k)).sum();
        close(p.cdf(5.0), sum, 1e-10);
    }

    #[test]
    fn poisson_sampling_small_and_large_mean() {
        for &(lambda, seed) in &[(0.3, 8u64), (5.0, 9), (120.0, 10)] {
            let p = Poisson::new(lambda);
            let (m, v) = sample_moments(&p, 100_000, seed);
            close(m, lambda, 0.03);
            close(v, lambda, 0.05);
        }
    }

    #[test]
    fn negative_binomial_pmf_and_moments() {
        let nb = NegativeBinomial::new(3.0, 2.0);
        let total: f64 = (0..500).map(|k| nb.pmf(k)).sum();
        close(total, 1.0, 1e-10);
        assert_eq!(nb.mean(), 3.0);
        close(nb.variance(), 3.0 + 4.5, 1e-12);
    }

    #[test]
    fn negative_binomial_cdf_matches_pmf_sum() {
        let nb = NegativeBinomial::new(2.0, 1.5);
        let sum: f64 = (0..=4).map(|k| nb.pmf(k)).sum();
        close(nb.cdf(4.0), sum, 1e-9);
    }

    #[test]
    fn negative_binomial_sampling_moments() {
        let nb = NegativeBinomial::new(4.0, 2.0);
        let (m, v) = sample_moments(&nb, 200_000, 11);
        close(m, 4.0, 0.03);
        close(v, nb.variance(), 0.08);
    }

    #[test]
    fn negative_binomial_converges_to_poisson() {
        let nb = NegativeBinomial::new(3.0, 1e7);
        let p = Poisson::new(3.0);
        for k in 0..10 {
            close(nb.pmf(k), p.pmf(k), 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn normal_rejects_zero_sigma() {
        let _ = Normal::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn poisson_rejects_zero_mean() {
        let _ = Poisson::new(0.0);
    }
}
