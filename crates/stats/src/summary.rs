//! Descriptive statistics: mean, variance, quantiles, ranks.

/// Summary statistics of a sample.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::summary::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert!((s.variance - 5.0 / 3.0).abs() < 1e-12); // sample variance
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance (`n - 1` denominator); 0 for n < 2.
    pub variance: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Sum of all values.
    pub sum: f64,
}

impl Summary {
    /// Computes summary statistics over `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains non-finite values.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty sample");
        assert!(
            xs.iter().all(|x| x.is_finite()),
            "summary requires finite values"
        );
        let n = xs.len();
        let sum: f64 = xs.iter().sum();
        let mean = sum / n as f64;
        let variance = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            variance,
            min,
            max,
            sum,
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample using linear interpolation
/// between order statistics (type-7, the R default).
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::summary::quantile;
///
/// let xs = [3.0, 1.0, 2.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), 2.5);
/// assert_eq!(quantile(&xs, 0.0), 1.0);
/// assert_eq!(quantile(&xs, 1.0), 4.0);
/// ```
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level must be in [0,1], got {q}"
    );
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("quantile requires comparable values")
    });
    let h = (sorted.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Midranks of a sample (average ranks for ties), 1-based, as used by
/// Spearman correlation.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::summary::ranks;
///
/// assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
/// ```
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .expect("ranks require comparable values")
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.n, 8);
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn summary_rejects_nan() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.1), 1.4);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
    }

    #[test]
    fn ranks_no_ties() {
        assert_eq!(ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_all_tied() {
        assert_eq!(ranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn ranks_empty() {
        assert!(ranks(&[]).is_empty());
    }
}
