//! Special functions: log-gamma, digamma, trigamma, error function,
//! regularized incomplete gamma and beta, and the inverse normal CDF.
//!
//! Implementations follow the classic Lanczos / Numerical-Recipes style
//! series and continued-fraction expansions. Accuracy targets are
//! ~1e-10 relative error over the argument ranges the analyses use,
//! verified against high-precision reference values in the unit tests.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), accurate to
/// ~1e-13 relative error for positive arguments.
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::special::ln_gamma;
///
/// assert!((ln_gamma(1.0)).abs() < 1e-12);            // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10); // Γ(5) = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Log-factorial `ln(n!)` computed through [`ln_gamma`].
pub fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// The digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Uses the recurrence `ψ(x) = ψ(x+1) - 1/x` to push the argument above 6,
/// then the asymptotic series. Accurate to ~1e-12.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // Asymptotic expansion: ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
    result + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// The trigamma function `ψ'(x)` for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn trigamma(x: f64) -> f64 {
    assert!(x > 0.0, "trigamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 6.0 {
        result += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ψ'(x) ~ 1/x + 1/(2x²) + sum B_{2n} / x^{2n+1}.
    result
        + inv
            * (1.0
                + inv
                    * (0.5
                        + inv
                            * (1.0 / 6.0
                                - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0)))))
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, where
/// `erf(x) = sign(x) · P(1/2, x²)`.
///
/// Uses the continued-fraction tail for large positive `x`, avoiding the
/// catastrophic cancellation of computing `1 - erf(x)` directly.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x == 0.0 {
        1.0
    } else {
        reg_gamma_q(0.5, x * x)
    }
}

const GAMMA_EPS: f64 = 1e-15;
const GAMMA_MAX_ITER: usize = 500;

/// Regularized lower incomplete gamma function `P(a, x)` for `a > 0`,
/// `x >= 0`.
///
/// `P(a, x) = γ(a, x) / Γ(a)`; the chi-square CDF with `k` degrees of
/// freedom is `P(k/2, x/2)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_contfrac(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_contfrac(a, x)
    }
}

/// Series expansion of P(a, x), convergent for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..GAMMA_MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * GAMMA_EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction (Lentz) expansion of Q(a, x), convergent for x >= a + 1.
fn gamma_q_contfrac(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=GAMMA_MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < GAMMA_EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `0 <= x <= 1`.
///
/// The Student-t and F CDFs are thin wrappers around this function.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0`, or `x` is outside `[0, 1]`.
pub fn reg_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "reg_beta requires a, b > 0, got a={a}, b={b}"
    );
    assert!(
        (0.0..=1.0).contains(&x),
        "reg_beta requires 0 <= x <= 1, got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_contfrac(a, b, x) / a
    } else {
        1.0 - (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + b * (1.0 - x).ln() + a * x.ln()).exp()
            * beta_contfrac(b, a, 1.0 - x)
            / b
    }
}

/// Lentz continued fraction for the incomplete beta function.
fn beta_contfrac(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=GAMMA_MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < GAMMA_EPS {
            break;
        }
    }
    h
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Uses Acklam's rational approximation (relative error < 1.15e-9)
/// followed by one Halley refinement step, giving near machine precision.
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::special::inverse_normal_cdf;
///
/// assert!(inverse_normal_cdf(0.5).abs() < 1e-12);
/// assert!((inverse_normal_cdf(0.975) - 1.959963984540054).abs() < 1e-8);
/// ```
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inverse_normal_cdf requires 0 < p < 1, got {p}"
    );
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against the accurate CDF.
    let e = standard_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// CDF of the standard normal distribution, `Φ(x)`.
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "{a} vs {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (i, &f) in facts.iter().enumerate() {
            close(ln_gamma(i as f64 + 1.0), f.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half_integers() {
        let pi = std::f64::consts::PI;
        close(ln_gamma(0.5), (pi.sqrt()).ln(), 1e-12); // Γ(1/2) = √π
        close(ln_gamma(1.5), (pi.sqrt() / 2.0).ln(), 1e-12);
        close(ln_gamma(2.5), (3.0 * pi.sqrt() / 4.0).ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_large_argument_stirling() {
        // Compare against Stirling with correction terms at x = 1000.
        let x: f64 = 1000.0;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
                - 1.0 / (360.0 * x * x * x);
        close(ln_gamma(x), stirling, 1e-12);
    }

    #[test]
    fn ln_factorial_matches() {
        close(ln_factorial(10), (3_628_800f64).ln(), 1e-12);
        close(ln_factorial(0), 0.0, 1e-14);
    }

    #[test]
    fn digamma_known_values() {
        const EULER: f64 = 0.577_215_664_901_532_9;
        close(digamma(1.0), -EULER, 1e-11);
        close(digamma(2.0), 1.0 - EULER, 1e-11);
        close(digamma(0.5), -EULER - 2.0 * (2f64).ln(), 1e-11);
        // ψ(10) reference from tables.
        close(digamma(10.0), 2.251_752_589_066_721, 1e-11);
    }

    #[test]
    fn digamma_recurrence_property() {
        for &x in &[0.3, 1.7, 4.2, 11.0] {
            close(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
        }
    }

    #[test]
    fn trigamma_known_values() {
        let pi = std::f64::consts::PI;
        close(trigamma(1.0), pi * pi / 6.0, 1e-10);
        close(trigamma(0.5), pi * pi / 2.0, 1e-10);
    }

    #[test]
    fn trigamma_recurrence_property() {
        for &x in &[0.4, 2.3, 7.7] {
            close(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-10);
        }
    }

    #[test]
    fn erf_reference_values() {
        // erf(x) = 1 - erfc(x).
        close(1.0 - erfc(0.5), 0.520_499_877_813_046_5, 1e-10);
        close(1.0 - erfc(1.0), 0.842_700_792_949_714_9, 1e-10);
        close(1.0 - erfc(2.0), 0.995_322_265_018_952_7, 1e-10);
        close(1.0 - erfc(-2.0), -0.995_322_265_018_952_7, 1e-10);
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) is ~2.21e-5; naive 1 - erf would lose digits.
        close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-9);
        close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-7);
        close(erfc(0.0), 1.0, 1e-14);
    }

    #[test]
    fn incomplete_gamma_complement() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 9.0), (10.0, 3.0)] {
            close(reg_gamma_p(a, x) + reg_gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}.
        for &x in &[0.1, 1.0, 2.5, 10.0] {
            close(reg_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 * 0.2;
            let p = reg_gamma_p(3.0, x);
            assert!(p >= prev);
            prev = p;
        }
        assert!(prev > 0.999); // approaches 1
    }

    #[test]
    fn incomplete_beta_reference_values() {
        // I_x(a,b) symmetric identity: I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.3), (5.0, 1.0, 0.9)] {
            close(reg_beta(a, b, x), 1.0 - reg_beta(b, a, 1.0 - x), 1e-12);
        }
        // I_x(1,1) = x (uniform CDF).
        close(reg_beta(1.0, 1.0, 0.73), 0.73, 1e-12);
        // I_x(1,b) = 1-(1-x)^b.
        close(reg_beta(1.0, 4.0, 0.2), 1.0 - 0.8f64.powi(4), 1e-12);
        // I_x(0.5, 0.5) = (2/π) asin(√x).
        close(
            reg_beta(0.5, 0.5, 0.25),
            2.0 / std::f64::consts::PI * (0.25f64).sqrt().asin(),
            1e-10,
        );
    }

    #[test]
    fn incomplete_beta_bounds() {
        assert_eq!(reg_beta(2.0, 2.0, 0.0), 0.0);
        assert_eq!(reg_beta(2.0, 2.0, 1.0), 1.0);
    }

    #[test]
    fn normal_cdf_symmetry_and_values() {
        close(standard_normal_cdf(0.0), 0.5, 1e-14);
        close(standard_normal_cdf(1.96), 0.975_002_104_851_780, 1e-9);
        for &x in &[0.1, 0.7, 1.3, 2.8] {
            close(standard_normal_cdf(x) + standard_normal_cdf(-x), 1.0, 1e-12);
        }
    }

    #[test]
    fn inverse_normal_roundtrip() {
        for &p in &[1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1.0 - 1e-6] {
            let x = inverse_normal_cdf(p);
            close(standard_normal_cdf(x), p, 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    #[should_panic(expected = "requires 0 < p < 1")]
    fn probit_rejects_boundary() {
        let _ = inverse_normal_cdf(1.0);
    }
}
