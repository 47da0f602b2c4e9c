//! Companion analysis: the statistical-model view of the failure
//! process.
//!
//! The paper deliberately avoids formal models ("rather than building
//! formal statistical models of correlations..."), but positions itself
//! against a literature that characterizes failure inter-arrival times
//! and autocorrelation. A toolkit should offer both views: this module
//! fits the classic inter-arrival distributions (exponential, Weibull,
//! lognormal, gamma) with AIC ranking — a Weibull shape below 1 is the
//! model-world counterpart of the paper's "failures cluster" finding —
//! and tests the daily failure-count series for autocorrelation.

use hpcfail_stats::htest::TestResult;
use hpcfail_stats::mle::{rank_fits, FitError, RankedFit};
use hpcfail_stats::timeseries::{acf, ljung_box};
use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::{SystemTrace, Trace};
use hpcfail_types::prelude::*;
use std::fmt;

/// Inter-arrival and time-series characterization of one system.
#[derive(Debug, Clone)]
pub struct ArrivalProfile {
    /// The system.
    pub system: SystemId,
    /// Number of inter-arrival gaps analyzed.
    pub gaps: usize,
    /// Mean time between failures (hours), system-wide.
    pub mtbf_hours: f64,
    /// Candidate fits ranked by AIC (best first).
    pub fits: Vec<RankedFit>,
    /// Sample autocorrelation of daily failure counts at lags 1..=7.
    pub daily_acf: Vec<f64>,
    /// Ljung-Box test of "no autocorrelation up to lag 7".
    pub ljung_box: TestResult,
}

impl ArrivalProfile {
    /// The AIC-best fit.
    pub fn best_fit(&self) -> &RankedFit {
        &self.fits[0]
    }

    /// `true` when the best Weibull/gamma-style fit has a decreasing
    /// hazard — the model-world signature of failure clustering.
    pub fn clustering_detected(&self) -> bool {
        self.fits
            .iter()
            .filter_map(|f| f.dist.decreasing_hazard())
            .next()
            .unwrap_or(false)
            || self.ljung_box.significant_at(0.01)
    }
}

/// The inter-arrival analysis over a trace.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> ArrivalAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::arrivals`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        ArrivalAnalysis { trace }
    }

    /// Characterizes one system's failure process.
    ///
    /// # Errors
    ///
    /// [`ArrivalError`] when the system is unknown, has too few
    /// failures of the class, or no candidate family fits.
    pub fn profile(
        &self,
        system: SystemId,
        class: FailureClass,
    ) -> Result<ArrivalProfile, ArrivalError> {
        let s = self
            .trace
            .system(system)
            .ok_or_else(|| ArrivalError::NotEnoughData(format!("unknown system {system}")))?;
        let gaps = interarrival_hours(s, class);
        if gaps.len() < 30 {
            return Err(ArrivalError::NotEnoughData(format!(
                "system {system} has only {} inter-arrival gaps",
                gaps.len()
            )));
        }
        let fits = rank_fits(&gaps)?;
        let counts = daily_counts(s, class);
        let max_lag = 7.min(counts.len().saturating_sub(2));
        if max_lag == 0 {
            return Err(ArrivalError::NotEnoughData(
                "observation span too short".into(),
            ));
        }
        let r = acf(&counts, max_lag);
        let lb = ljung_box(&counts, max_lag);
        let mtbf_hours = gaps.iter().sum::<f64>() / gaps.len() as f64;
        Ok(ArrivalProfile {
            system,
            gaps: gaps.len(),
            mtbf_hours,
            fits,
            daily_acf: r[1..].to_vec(),
            ljung_box: lb,
        })
    }
}

/// Errors from the inter-arrival analysis.
#[derive(Debug)]
pub enum ArrivalError {
    /// Too few failures (or an unknown system) to characterize.
    NotEnoughData(String),
    /// No candidate distribution family could be fitted.
    Fit(FitError),
}

impl fmt::Display for ArrivalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalError::NotEnoughData(what) => write!(f, "not enough data: {what}"),
            ArrivalError::Fit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArrivalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArrivalError::NotEnoughData(_) => None,
            ArrivalError::Fit(e) => Some(e),
        }
    }
}

impl From<FitError> for ArrivalError {
    fn from(e: FitError) -> Self {
        ArrivalError::Fit(e)
    }
}

/// System-wide inter-arrival gaps (hours) between consecutive failures
/// of `class`.
fn interarrival_hours(system: &SystemTrace, class: FailureClass) -> Vec<f64> {
    let times: Vec<i64> = system
        .failure_columns()
        .events(ClassCode::new(class))
        .map(|(time, _)| time.as_seconds())
        .collect();
    times
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 3600.0)
        .filter(|&gap| gap > 0.0)
        .collect()
}

/// Daily failure counts of `class` over the observation span.
fn daily_counts(system: &SystemTrace, class: FailureClass) -> Vec<f64> {
    let days = system.config().observation_days().max(0) as usize;
    let start = system.config().start;
    let mut counts = vec![0.0; days];
    for (time, _) in system.failure_columns().events(ClassCode::new(class)) {
        let d = (time - start).as_seconds() / 86_400;
        if (0..days as i64).contains(&d) {
            counts[d as usize] += 1.0;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_stats::dist::Distribution;
    use hpcfail_store::trace::SystemTraceBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(days: f64) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(1),
            name: "t".into(),
            nodes: 8,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(days),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        }
    }

    fn trace_with_gaps(gaps_hours: &[f64]) -> Trace {
        let mut b = SystemTraceBuilder::new(config(3000.0));
        let mut t = 0.0;
        for &g in gaps_hours {
            t += g;
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(0),
                Timestamp::from_seconds((t * 3600.0) as i64),
                RootCause::Hardware,
                SubCause::None,
            ));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn exponential_gaps_keep_exponential_competitive() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = hpcfail_stats::dist::Exponential::new(1.0 / 24.0);
        let gaps: Vec<f64> = (0..1500).map(|_| d.sample(&mut rng)).collect();
        let trace = trace_with_gaps(&gaps);
        let profile = ArrivalAnalysis::over(&trace)
            .profile(SystemId::new(1), FailureClass::Any)
            .unwrap();
        assert!(profile.gaps > 1000);
        assert!((profile.mtbf_hours - 24.0).abs() < 2.0);
        let exp_rank = profile
            .fits
            .iter()
            .position(|f| f.dist.family() == "exponential")
            .unwrap();
        assert!(exp_rank <= 1, "exponential ranked {exp_rank}");
    }

    #[test]
    fn clustered_gaps_detected_as_decreasing_hazard() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = hpcfail_stats::dist::Weibull::new(0.55, 24.0);
        let gaps: Vec<f64> = (0..1500).map(|_| d.sample(&mut rng).max(0.01)).collect();
        let trace = trace_with_gaps(&gaps);
        let profile = ArrivalAnalysis::over(&trace)
            .profile(SystemId::new(1), FailureClass::Any)
            .unwrap();
        assert!(profile.clustering_detected());
        assert_ne!(profile.best_fit().dist.family(), "exponential");
    }

    #[test]
    fn too_few_failures_is_an_error() {
        let trace = trace_with_gaps(&[24.0, 48.0]);
        let err = ArrivalAnalysis::over(&trace)
            .profile(SystemId::new(1), FailureClass::Any)
            .unwrap_err();
        assert!(err.to_string().contains("not enough data"), "{err}");
    }

    #[test]
    fn unknown_system_is_an_error() {
        let trace = trace_with_gaps(&[24.0; 100]);
        assert!(ArrivalAnalysis::over(&trace)
            .profile(SystemId::new(42), FailureClass::Any)
            .is_err());
    }

    #[test]
    fn daily_acf_has_requested_lags() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = hpcfail_stats::dist::Exponential::new(1.0 / 10.0);
        let gaps: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let trace = trace_with_gaps(&gaps);
        let profile = ArrivalAnalysis::over(&trace)
            .profile(SystemId::new(1), FailureClass::Any)
            .unwrap();
        assert_eq!(profile.daily_acf.len(), 7);
    }
}
