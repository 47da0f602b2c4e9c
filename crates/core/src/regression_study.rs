//! Section X: putting it all together — the joint regression of node
//! outages on usage, physical location and temperature (Tables I-III).
//!
//! The response is the total number of outages in a node's lifetime;
//! the predictors are Table I's: `avg_temp`, `max_temp`, `temp_var`,
//! `num_hightemp`, `num_jobs`, `util` and `PIR` (position in rack).
//! Both Poisson and negative-binomial (ML-theta) models are fitted,
//! optionally with node 0 removed (the paper's robustness check).

use hpcfail_stats::glm::{fit_negative_binomial, Family, GlmError, GlmFit, GlmModel};
use hpcfail_store::features::{node_features, NodeFeatures};
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;

/// Which regression family to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyFamily {
    /// Poisson regression (Table II).
    Poisson,
    /// Negative-binomial regression with ML-estimated theta (Table III).
    NegativeBinomial,
}

impl StudyFamily {
    /// Both families in table order.
    pub const ALL: [StudyFamily; 2] = [StudyFamily::Poisson, StudyFamily::NegativeBinomial];

    /// The wire label (`poisson` / `negative-binomial`).
    pub const fn label(self) -> &'static str {
        match self {
            StudyFamily::Poisson => "poisson",
            StudyFamily::NegativeBinomial => "negative-binomial",
        }
    }
}

impl std::fmt::Display for StudyFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`StudyFamily`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFamilyError(String);

impl std::fmt::Display for ParseFamilyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown regression family {:?}, expected poisson or negative-binomial",
            self.0
        )
    }
}

impl std::error::Error for ParseFamilyError {}

impl std::str::FromStr for StudyFamily {
    type Err = ParseFamilyError;

    /// Accepts the wire labels with `-`/`_`/space treated
    /// interchangeably, plus the shorthand `nb`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut key = s.to_ascii_lowercase();
        key.retain(|c| !matches!(c, '-' | '_' | ' '));
        match key.as_str() {
            "poisson" => Ok(StudyFamily::Poisson),
            "negativebinomial" | "negbin" | "nb" => Ok(StudyFamily::NegativeBinomial),
            _ => Err(ParseFamilyError(s.to_owned())),
        }
    }
}

/// The Table I predictor names, in table order.
pub const PREDICTORS: [&str; 7] = [
    "avg_temp",
    "max_temp",
    "temp_var",
    "num_hightemp",
    "num_jobs",
    "util",
    "PIR",
];

/// The Section X joint regression study.
#[derive(Debug, Clone, Copy)]
pub struct RegressionStudy<'a> {
    trace: &'a Trace,
}

impl<'a> RegressionStudy<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::regression`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        RegressionStudy { trace }
    }

    /// The assembled Table I feature matrix for a system (only nodes
    /// with temperature samples and a layout placement yield rows).
    pub fn features(&self, system: SystemId) -> Vec<NodeFeatures> {
        match self.trace.system(system) {
            Some(s) => node_features(s),
            None => Vec::new(),
        }
    }

    /// Fits the joint model.
    ///
    /// # Errors
    ///
    /// [`GlmError`] when the system lacks the required data or the fit
    /// fails (e.g. collinear predictors).
    pub fn fit(
        &self,
        system: SystemId,
        family: StudyFamily,
        exclude_node0: bool,
    ) -> Result<GlmFit, GlmError> {
        let mut rows = self.features(system);
        if exclude_node0 {
            rows.retain(|r| r.node != NodeId::new(0));
        }
        if rows.len() < PREDICTORS.len() + 1 {
            return Err(GlmError::Underdetermined);
        }
        let y: Vec<f64> = rows.iter().map(|r| r.fails_count as f64).collect();
        let columns: [(&str, Vec<f64>); 7] = [
            ("avg_temp", rows.iter().map(|r| r.avg_temp).collect()),
            ("max_temp", rows.iter().map(|r| r.max_temp).collect()),
            ("temp_var", rows.iter().map(|r| r.temp_var).collect()),
            (
                "num_hightemp",
                rows.iter().map(|r| r.num_hightemp).collect(),
            ),
            ("num_jobs", rows.iter().map(|r| r.num_jobs).collect()),
            ("util", rows.iter().map(|r| r.util).collect()),
            ("PIR", rows.iter().map(|r| r.pir).collect()),
        ];
        let mut model = GlmModel::new(Family::Poisson);
        for (name, values) in &columns {
            // Constant columns (e.g. no node ever crossed the 40 C
            // warning threshold) are not estimable; drop them rather
            // than fail on a singular design.
            let first = values[0];
            if values.iter().any(|v| (v - first).abs() > 1e-12) {
                model.term(name, values);
            }
        }
        match family {
            StudyFamily::Poisson => model.fit(&y),
            StudyFamily::NegativeBinomial => fit_negative_binomial(&model, &y),
        }
    }

    /// The paper's follow-up: refit keeping only the predictors that
    /// were significant at `alpha` in `previous` ("when rerunning the
    /// model with only the significant predictors, the significance
    /// level of max_temp drops").
    ///
    /// # Errors
    ///
    /// [`GlmError::Underdetermined`] when no predictor was significant;
    /// otherwise propagates fitting errors.
    pub fn refit_significant_only(
        &self,
        system: SystemId,
        family: StudyFamily,
        previous: &GlmFit,
        alpha: f64,
    ) -> Result<GlmFit, GlmError> {
        let keep = Self::significant_predictors(previous, alpha);
        if keep.is_empty() {
            return Err(GlmError::Underdetermined);
        }
        let rows = self.features(system);
        if rows.len() < keep.len() + 1 {
            return Err(GlmError::Underdetermined);
        }
        let y: Vec<f64> = rows.iter().map(|r| r.fails_count as f64).collect();
        let mut model = GlmModel::new(Family::Poisson);
        for name in keep {
            let values: Vec<f64> = rows
                .iter()
                .map(|r| match name {
                    "avg_temp" => r.avg_temp,
                    "max_temp" => r.max_temp,
                    "temp_var" => r.temp_var,
                    "num_hightemp" => r.num_hightemp,
                    "num_jobs" => r.num_jobs,
                    "util" => r.util,
                    "PIR" => r.pir,
                    _ => unreachable!("PREDICTORS is exhaustive"),
                })
                .collect();
            model.term(name, &values);
        }
        match family {
            StudyFamily::Poisson => model.fit(&y),
            StudyFamily::NegativeBinomial => fit_negative_binomial(&model, &y),
        }
    }

    /// Names of predictors significant at `alpha` in a fit, in table
    /// order.
    pub fn significant_predictors(fit: &GlmFit, alpha: f64) -> Vec<&'static str> {
        PREDICTORS
            .into_iter()
            .filter(|name| {
                fit.coefficient(name)
                    .is_some_and(|c| c.significant_at(alpha))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 60 nodes with layout + temperature + jobs; failures driven by
    /// num_jobs, not by temperature or PIR.
    pub(super) fn build() -> Trace {
        let config = SystemConfig {
            id: SystemId::new(20),
            name: "t".into(),
            nodes: 60,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(500.0),
            has_layout: true,
            has_job_log: true,
            has_temperature: true,
        };
        let mut b = SystemTraceBuilder::new(config);
        let sys = SystemId::new(20);
        let mut rng = StdRng::seed_from_u64(5);
        let layout: MachineLayout = (0..60u32)
            .map(|n| {
                (
                    NodeId::new(n),
                    NodeLocation {
                        rack: RackId::new((n / 5) as u16),
                        position_in_rack: (n % 5 + 1) as u8,
                        room_row: 0,
                        room_col: (n / 5) as u16,
                    },
                )
            })
            .collect();
        b.layout(layout);
        let mut job_id = 0u64;
        for n in 0..60u32 {
            // Temperature unrelated to anything.
            for d in 0..25 {
                b.push_temperature(TemperatureSample {
                    system: sys,
                    node: NodeId::new(n),
                    time: Timestamp::from_days(d as f64 * 20.0),
                    celsius: 25.0 + rng.gen_range(-3.0..3.0),
                });
            }
            // Jobs: node index determines load; durations random so
            // utilization is not collinear with job count.
            let jobs = (n % 10 + 1) as usize;
            for k in 0..jobs {
                let run = rng.gen_range(2.0..30.0);
                b.push_job(JobRecord {
                    system: sys,
                    job_id: JobId::new(job_id),
                    user: UserId::new(1),
                    submit: Timestamp::from_days(k as f64 * 40.0),
                    dispatch: Timestamp::from_days(k as f64 * 40.0 + 0.1),
                    end: Timestamp::from_days(k as f64 * 40.0 + 0.1 + run),
                    procs: 4,
                    nodes: vec![NodeId::new(n)],
                });
                job_id += 1;
            }
            // Failures proportional to job count plus noise.
            let mu = jobs as f64 * 1.5;
            let count = (mu + rng.gen_range(0.0..2.0)) as u32;
            for k in 0..count {
                b.push_failure(FailureRecord::new(
                    sys,
                    NodeId::new(n),
                    Timestamp::from_days(7.0 + k as f64 * 43.0 + (n % 7) as f64),
                    RootCause::Hardware,
                    SubCause::None,
                ));
            }
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn features_assembled_for_all_nodes() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let rows = study.features(SystemId::new(20));
        assert_eq!(rows.len(), 60);
        assert!(rows.iter().all(|r| r.pir >= 1.0 && r.pir <= 5.0));
        assert!(rows.iter().any(|r| r.fails_count > 0));
    }

    #[test]
    fn usage_significant_temperature_not() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let fit = study
            .fit(SystemId::new(20), StudyFamily::Poisson, false)
            .unwrap();
        let sig = RegressionStudy::significant_predictors(&fit, 0.01);
        assert!(
            sig.contains(&"num_jobs") || sig.contains(&"util"),
            "sig = {sig:?}"
        );
        assert!(!sig.contains(&"avg_temp"), "sig = {sig:?}");
        assert!(!sig.contains(&"PIR"), "sig = {sig:?}");
    }

    #[test]
    fn nb_table_fits_too() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let pois = study
            .fit(SystemId::new(20), StudyFamily::Poisson, false)
            .unwrap();
        let nb = study
            .fit(SystemId::new(20), StudyFamily::NegativeBinomial, false)
            .unwrap();
        // Intercept + 7 predictors, minus any constant column that was
        // dropped (num_hightemp is all zero in this fixture).
        assert_eq!(pois.coefficients.len(), 7);
        assert!(pois.coefficient("num_hightemp").is_none());
        assert_eq!(nb.coefficients.len(), 7);
        assert!(matches!(nb.family, Family::NegativeBinomial { .. }));
        // Same sign on the load coefficient.
        let p = pois.coefficient("num_jobs").unwrap().estimate;
        let n = nb.coefficient("num_jobs").unwrap().estimate;
        assert!(p * n > 0.0);
    }

    #[test]
    fn refit_significant_only_keeps_signal() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let full = study
            .fit(SystemId::new(20), StudyFamily::Poisson, false)
            .unwrap();
        let refit = study
            .refit_significant_only(SystemId::new(20), StudyFamily::Poisson, &full, 0.01)
            .unwrap();
        // Fewer parameters, and the load signal survives.
        assert!(refit.coefficients.len() < full.coefficients.len());
        assert!(refit
            .coefficient("num_jobs")
            .is_some_and(|c| c.significant_at(0.01)));
    }

    #[test]
    fn refit_with_nothing_significant_errors() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let full = study
            .fit(SystemId::new(20), StudyFamily::Poisson, false)
            .unwrap();
        // Absurd alpha: nothing passes.
        let err = study
            .refit_significant_only(SystemId::new(20), StudyFamily::Poisson, &full, 1e-300)
            .unwrap_err();
        assert_eq!(err, GlmError::Underdetermined);
    }

    #[test]
    fn exclude_node0_still_fits() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let fit = study
            .fit(SystemId::new(20), StudyFamily::Poisson, true)
            .unwrap();
        assert_eq!(fit.n, 59);
    }

    #[test]
    fn unknown_system_underdetermined() {
        let trace = build();
        let study = RegressionStudy::over(&trace);
        let err = study
            .fit(SystemId::new(9), StudyFamily::Poisson, false)
            .unwrap_err();
        assert_eq!(err, GlmError::Underdetermined);
    }
}

#[cfg(test)]
mod debug_fit {
    use super::*;

    #[test]
    #[ignore]
    fn print_fit() {
        let trace = super::tests::build();
        let study = RegressionStudy::over(&trace);
        let fit = study
            .fit(SystemId::new(20), StudyFamily::Poisson, false)
            .unwrap();
        for c in &fit.coefficients {
            println!(
                "{}: est {:.5} se {:.5} z {:.2} p {:.4}",
                c.name, c.estimate, c.std_error, c.z_value, c.p_value
            );
        }
    }
}
