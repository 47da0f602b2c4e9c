//! Property-based tests for the statistics substrate.

use hpcfail_stats::corr::{pearson, spearman};
use hpcfail_stats::dist::{ChiSquared, Distribution, Normal, Poisson};
use hpcfail_stats::glm::{Family, GlmModel};
use hpcfail_stats::linalg::Matrix;
use hpcfail_stats::proportion::Proportion;
use hpcfail_stats::special::{
    digamma, inverse_normal_cdf, ln_gamma, reg_beta, reg_gamma_p, reg_gamma_q, standard_normal_cdf,
};
use hpcfail_stats::summary::{quantile, ranks, Summary};
use proptest::prelude::*;

proptest! {
    #[test]
    fn gamma_pq_complement(a in 0.05f64..50.0, x in 0.0f64..100.0) {
        let sum = reg_gamma_p(a, x) + reg_gamma_q(a, x);
        prop_assert!((sum - 1.0).abs() < 1e-9, "P + Q = {sum}");
    }

    #[test]
    fn gamma_p_monotone_in_x(a in 0.1f64..20.0, x in 0.0f64..50.0, dx in 0.01f64..5.0) {
        prop_assert!(reg_gamma_p(a, x + dx) >= reg_gamma_p(a, x) - 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.05f64..80.0) {
        // ln Γ(x+1) = ln Γ(x) + ln x.
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }

    #[test]
    fn digamma_increasing(x in 0.1f64..50.0, dx in 0.01f64..5.0) {
        prop_assert!(digamma(x + dx) > digamma(x));
    }

    #[test]
    fn beta_symmetry(a in 0.1f64..20.0, b in 0.1f64..20.0, x in 0.0f64..1.0) {
        let lhs = reg_beta(a, b, x);
        let rhs = 1.0 - reg_beta(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-8);
    }

    #[test]
    fn normal_cdf_bounds_and_symmetry(x in -8.0f64..8.0) {
        let p = standard_normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + standard_normal_cdf(-x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn normal_quantile_roundtrip(p in 0.0001f64..0.9999) {
        let x = inverse_normal_cdf(p);
        prop_assert!((Normal::standard().cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn chi_squared_cdf_monotone(k in 0.5f64..30.0, x in 0.0f64..60.0, dx in 0.01f64..10.0) {
        let d = ChiSquared::new(k);
        prop_assert!(d.cdf(x + dx) >= d.cdf(x));
    }

    #[test]
    fn poisson_cdf_reaches_one(lambda in 0.01f64..40.0) {
        let p = Poisson::new(lambda);
        prop_assert!(p.cdf(lambda + 20.0 * (lambda.sqrt() + 1.0)) > 0.999);
    }

    #[test]
    fn wilson_ci_contains_estimate(s in 0u64..500, extra in 0u64..500) {
        let p = Proportion::new(s, s + extra.max(1));
        let ci = p.wilson_ci(0.95);
        prop_assert!(ci.low <= p.estimate() + 1e-12);
        prop_assert!(ci.high >= p.estimate() - 1e-12);
        prop_assert!(ci.low >= 0.0 && ci.high <= 1.0);
    }

    #[test]
    fn wilson_narrows_with_n(s in 1u64..50, scale in 2u64..20) {
        let small = Proportion::new(s, s * 2);
        let large = Proportion::new(s * scale, s * 2 * scale);
        prop_assert!(
            large.wilson_ci(0.95).half_width() < small.wilson_ci(0.95).half_width() + 1e-12
        );
    }

    #[test]
    fn z_test_p_value_valid(a in 0u64..100, na in 1u64..200, b in 0u64..100, nb in 1u64..200) {
        let pa = Proportion::new(a.min(na), na);
        let pb = Proportion::new(b.min(nb), nb);
        let t = pa.two_sample_z_test(pb);
        prop_assert!((0.0..=1.0).contains(&t.p_value));
        // Symmetry.
        let t2 = pb.two_sample_z_test(pa);
        prop_assert!((t.p_value - t2.p_value).abs() < 1e-12);
    }

    #[test]
    fn pearson_bounded_and_scale_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 3..40),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + 1.0).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            // Affine transforms with positive scale preserve r.
            let zs: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
            if let Some(r2) = pearson(&zs, &ys) {
                prop_assert!((r - r2).abs() < 1e-6, "r {r} vs {r2}");
            }
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(
        xs in prop::collection::vec(-50.0f64..50.0, 3..30),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        let cubed: Vec<f64> = xs.iter().map(|x| x * x * x).collect();
        let a = spearman(&xs, &ys);
        let b = spearman(&cubed, &ys);
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ranks_are_permutation_of_averages(xs in prop::collection::vec(-10.0f64..10.0, 1..50)) {
        let r = ranks(&xs);
        let n = xs.len() as f64;
        let sum: f64 = r.iter().sum();
        // Ranks always sum to n(n+1)/2 regardless of ties.
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_within_range(xs in prop::collection::vec(-100.0f64..100.0, 1..50), q in 0.0f64..1.0) {
        let v = quantile(&xs, q);
        let s = Summary::of(&xs);
        prop_assert!(v >= s.min - 1e-9 && v <= s.max + 1e-9);
    }

    #[test]
    fn summary_mean_between_min_max(xs in prop::collection::vec(-1000.0f64..1000.0, 1..60)) {
        let s = Summary::of(&xs);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
    }

    #[test]
    fn spd_solve_roundtrip(vals in prop::collection::vec(-2.0f64..2.0, 9), rhs in prop::collection::vec(-5.0f64..5.0, 3)) {
        // Build SPD matrix A = B Bᵀ + I.
        let b = Matrix::from_vec(3, 3, vals);
        let mut a = b.matmul(&b.transpose()).expect("3x3");
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let x = a.solve_spd(&rhs).expect("SPD solvable");
        let back = a.matvec(&x).expect("dims");
        for i in 0..3 {
            prop_assert!((back[i] - rhs[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn glm_intercept_only_recovers_log_mean(
        ys in prop::collection::vec(0u32..40, 5..40),
    ) {
        let y: Vec<f64> = ys.iter().map(|&v| v as f64).collect();
        let total: f64 = y.iter().sum();
        prop_assume!(total > 0.0);
        let fit = GlmModel::new(Family::Poisson).fit(&y).expect("fits");
        let mean = total / y.len() as f64;
        let b0 = fit.coefficient("(Intercept)").expect("intercept").estimate;
        prop_assert!((b0 - mean.ln()).abs() < 1e-6, "b0 {b0} vs ln mean {}", mean.ln());
    }
}

mod mle_properties {
    use hpcfail_stats::mle::{ks_test, rank_fits};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rank_fits_never_panics_and_orders_by_aic(
            xs in prop::collection::vec(0.001f64..1000.0, 10..200),
        ) {
            if let Ok(ranked) = rank_fits(&xs) {
                prop_assert!(!ranked.is_empty());
                for pair in ranked.windows(2) {
                    prop_assert!(pair[0].aic <= pair[1].aic);
                }
                for fit in &ranked {
                    prop_assert!((0.0..=1.0).contains(&fit.ks_p_value));
                    prop_assert!((0.0..=1.0).contains(&fit.ks_statistic));
                    prop_assert!(fit.log_likelihood.is_finite());
                }
            }
        }

        #[test]
        fn ks_statistic_bounded(
            xs in prop::collection::vec(0.01f64..100.0, 5..100),
            rate in 0.01f64..10.0,
        ) {
            let dist = hpcfail_stats::mle::FittedDistribution::Exponential { rate };
            let (d, p) = ks_test(&xs, &dist);
            prop_assert!((0.0..=1.0).contains(&d));
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}

mod timeseries_properties {
    use hpcfail_stats::timeseries::{acf, ljung_box};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn acf_bounded_and_lag0_one(
            xs in prop::collection::vec(-100.0f64..100.0, 12..120),
        ) {
            // Skip near-constant series (acf panics by contract there).
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
            prop_assume!(var > 1e-6);
            let r = acf(&xs, 5);
            prop_assert!((r[0] - 1.0).abs() < 1e-12);
            for &v in &r {
                prop_assert!(v.abs() <= 1.0 + 1e-9);
            }
            let t = ljung_box(&xs, 5);
            prop_assert!((0.0..=1.0).contains(&t.p_value));
            prop_assert!(t.statistic >= 0.0);
        }
    }
}
