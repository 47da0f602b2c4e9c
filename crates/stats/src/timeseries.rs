//! Time-series tools: autocorrelation and the Ljung-Box portmanteau
//! test.
//!
//! The correlation-modeling literature the paper contrasts itself with
//! (Section I) characterizes failure processes through the
//! autocorrelation function of the failure sequence; the toolkit
//! provides it for daily failure-count series.

use crate::dist::{ChiSquared, Distribution};
use crate::htest::TestResult;

/// Sample autocorrelation function at lags `0..=max_lag`.
///
/// Uses the standard biased estimator (normalizing by `n`), which keeps
/// the sequence positive semi-definite. `acf[0]` is always 1.
///
/// # Panics
///
/// Panics if the series is shorter than `max_lag + 2` or constant.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::timeseries::acf;
///
/// // Alternating series: perfect negative lag-1 correlation.
/// let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let r = acf(&xs, 2);
/// assert!((r[0] - 1.0).abs() < 1e-12);
/// assert!(r[1] < -0.9);
/// assert!(r[2] > 0.9);
/// ```
pub fn acf(xs: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(
        xs.len() >= max_lag + 2,
        "series too short for lag {max_lag}"
    );
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    assert!(var > 0.0, "constant series has no autocorrelation");
    (0..=max_lag)
        .map(|lag| {
            let cov: f64 = xs[..xs.len() - lag]
                .iter()
                .zip(&xs[lag..])
                .map(|(a, b)| (a - mean) * (b - mean))
                .sum::<f64>()
                / n;
            cov / var
        })
        .collect()
}

/// The Ljung-Box portmanteau test of "no autocorrelation up to
/// `max_lag`": `Q = n(n+2) sum_k r_k^2 / (n-k)`, chi-square with
/// `max_lag` degrees of freedom under H0.
///
/// # Panics
///
/// Panics under the same conditions as [`acf`], or when `max_lag == 0`.
pub fn ljung_box(xs: &[f64], max_lag: usize) -> TestResult {
    assert!(max_lag > 0, "need at least one lag");
    let r = acf(xs, max_lag);
    let n = xs.len() as f64;
    let q: f64 = (1..=max_lag)
        .map(|k| r[k] * r[k] / (n - k as f64))
        .sum::<f64>()
        * n
        * (n + 2.0);
    TestResult {
        statistic: q,
        df: max_lag as f64,
        p_value: ChiSquared::new(max_lag as f64).sf(q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// AR(1) process x_t = phi x_{t-1} + e_t.
    fn ar1(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = phi * x + rng.gen_range(-1.0..1.0);
            xs.push(x);
        }
        xs
    }

    #[test]
    fn acf_lag0_is_one() {
        let xs = white_noise(500, 1);
        let r = acf(&xs, 10);
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert_eq!(r.len(), 11);
    }

    #[test]
    fn white_noise_acf_small() {
        let xs = white_noise(5000, 2);
        let r = acf(&xs, 20);
        // The 95% white-noise band, ±1.96 / sqrt(n).
        let band = 1.96 / (xs.len() as f64).sqrt();
        let outside = r[1..].iter().filter(|v| v.abs() > band).count();
        // ~5% expected outside; allow up to 15%.
        assert!(outside <= 3, "{outside} of 20 lags outside the band");
    }

    #[test]
    fn ar1_acf_decays_geometrically() {
        let xs = ar1(20_000, 0.7, 3);
        let r = acf(&xs, 5);
        assert!((r[1] - 0.7).abs() < 0.05, "lag1 {}", r[1]);
        assert!((r[2] - 0.49).abs() < 0.06, "lag2 {}", r[2]);
        assert!(r[1] > r[2] && r[2] > r[3]);
    }

    #[test]
    fn ljung_box_rejects_ar1_accepts_noise() {
        let correlated = ar1(2000, 0.5, 4);
        let t = ljung_box(&correlated, 10);
        assert!(t.significant_at(0.001), "p {}", t.p_value);

        let noise = white_noise(2000, 5);
        let t = ljung_box(&noise, 10);
        assert!(!t.significant_at(0.01), "p {}", t.p_value);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_series_rejected() {
        let _ = acf(&[1.0, 2.0, 3.0], 5);
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn constant_series_rejected() {
        let _ = acf(&[2.0; 50], 3);
    }
}
