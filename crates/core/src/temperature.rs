//! Section VIII: how does temperature affect failures?
//!
//! Two halves: (a) regressions of per-node outage counts on average /
//! maximum / variance of temperature — which the paper (and [El-Sayed
//! et al., SIGMETRICS 2012]) find *insignificant*; (b) the effect of
//! fan and chiller failures, whose brief extreme-temperature periods
//! sharply raise subsequent hardware failure rates (Figure 13).
//!
//! The conditionals in (b) route through [`CorrelationAnalysis`], whose
//! baselines come from the store's memoized timeline index
//! (`hpcfail_store::index`) — repeated (class, window) queries share one
//! build.

use crate::correlation::{CorrelationAnalysis, Scope};
use crate::estimate::ConditionalEstimate;
use hpcfail_stats::glm::{fit_negative_binomial, Family, GlmError, GlmFit, GlmModel};
use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;

/// Which temperature aggregate a regression uses as its predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TempPredictor {
    /// The node's mean reported temperature.
    Average,
    /// The node's maximum reported temperature.
    Maximum,
    /// The variance of the node's reported temperatures.
    Variance,
}

impl TempPredictor {
    /// All predictors the paper tests.
    pub const ALL: [TempPredictor; 3] = [
        TempPredictor::Average,
        TempPredictor::Maximum,
        TempPredictor::Variance,
    ];

    /// Table-friendly name.
    pub const fn label(self) -> &'static str {
        match self {
            TempPredictor::Average => "avg_temp",
            TempPredictor::Maximum => "max_temp",
            TempPredictor::Variance => "temp_var",
        }
    }
}

impl std::fmt::Display for TempPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`TempPredictor`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePredictorError(String);

impl std::fmt::Display for ParsePredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown temperature predictor {:?}, expected avg_temp, max_temp or temp_var",
            self.0
        )
    }
}

impl std::error::Error for ParsePredictorError {}

impl std::str::FromStr for TempPredictor {
    type Err = ParsePredictorError;

    /// Accepts the table labels (`avg_temp`, ...) with `-`/`_`/space
    /// treated interchangeably, plus `average`/`maximum`/`variance`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut key = s.to_ascii_lowercase();
        key.retain(|c| !matches!(c, '-' | '_' | ' '));
        match key.as_str() {
            "avgtemp" | "avg" | "average" => Ok(TempPredictor::Average),
            "maxtemp" | "max" | "maximum" => Ok(TempPredictor::Maximum),
            "tempvar" | "var" | "variance" => Ok(TempPredictor::Variance),
            _ => Err(ParsePredictorError(s.to_owned())),
        }
    }
}

/// The two temperature-excursion triggers of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TempTrigger {
    /// A node fan failure.
    Fan,
    /// A machine-room chiller failure.
    Chiller,
}

impl TempTrigger {
    /// Both triggers.
    pub const ALL: [TempTrigger; 2] = [TempTrigger::Fan, TempTrigger::Chiller];

    /// The failure class identifying the trigger in the log.
    pub fn class(self) -> FailureClass {
        match self {
            TempTrigger::Fan => FailureClass::Hw(HardwareComponent::Fan),
            TempTrigger::Chiller => FailureClass::Env(EnvironmentCause::Chiller),
        }
    }

    /// Figure label.
    pub const fn label(self) -> &'static str {
        match self {
            TempTrigger::Fan => "FanFail",
            TempTrigger::Chiller => "ChillerFail",
        }
    }
}

/// The components Figure 13 (right) reports — note MSC boards and
/// midplanes, which power problems did not affect.
pub const FIG13_COMPONENTS: [HardwareComponent; 7] = [
    HardwareComponent::PowerSupply,
    HardwareComponent::MemoryDimm,
    HardwareComponent::NodeBoard,
    HardwareComponent::Fan,
    HardwareComponent::Cpu,
    HardwareComponent::MscBoard,
    HardwareComponent::Midplane,
];

/// The Section VIII temperature analysis.
#[derive(Debug, Clone, Copy)]
pub struct TemperatureAnalysis<'a> {
    trace: &'a Trace,
    correlation: CorrelationAnalysis<'a>,
}

impl<'a> TemperatureAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::temperature`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        TemperatureAnalysis {
            trace,
            correlation: CorrelationAnalysis::over(trace),
        }
    }

    /// Regresses per-node counts of `target` failures on one
    /// temperature aggregate, with the given family (the paper runs
    /// both Poisson and negative binomial).
    ///
    /// # Errors
    ///
    /// [`GlmError`] when the system lacks temperature data (reported as
    /// a dimension mismatch) or the fit fails.
    pub fn regression(
        &self,
        system: SystemId,
        predictor: TempPredictor,
        target: FailureClass,
        family: Family,
    ) -> Result<GlmFit, GlmError> {
        let (xs, ys) = self.regression_data(system, predictor, target)?;
        let mut model = GlmModel::new(family);
        model.term(predictor.label(), &xs);
        match family {
            Family::Poisson => model.fit(&ys),
            // A negative-binomial request estimates theta by ML.
            Family::NegativeBinomial { .. } => fit_negative_binomial(&model, &ys),
        }
    }

    fn regression_data(
        &self,
        system: SystemId,
        predictor: TempPredictor,
        target: FailureClass,
    ) -> Result<(Vec<f64>, Vec<f64>), GlmError> {
        let s = self
            .trace
            .system(system)
            .ok_or_else(|| GlmError::DimensionMismatch {
                what: format!("unknown system {system}"),
            })?;
        // Memoized in the trace's timeline index: each predictor/target
        // regression reads the same per-node aggregates.
        let aggregates = s.indexed_temperature();
        let code = ClassCode::new(target);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for node in s.nodes() {
            let Some(agg) = aggregates.get(node.index()).copied().flatten() else {
                continue;
            };
            let x = match predictor {
                TempPredictor::Average => agg.avg,
                TempPredictor::Maximum => agg.max,
                TempPredictor::Variance => agg.variance,
            };
            xs.push(x);
            ys.push(s.failure_columns().node_events(node, code).count() as f64);
        }
        if xs.is_empty() {
            return Err(GlmError::DimensionMismatch {
                what: format!("system {system} has no temperature samples"),
            });
        }
        Ok((xs, ys))
    }

    /// Figure 13 (left): hardware-failure probability in the window
    /// after a fan or chiller failure, fleet-pooled.
    pub fn figure13_left(&self) -> Vec<(TempTrigger, Window, ConditionalEstimate)> {
        let mut out = Vec::new();
        for window in Window::ALL {
            for trigger in TempTrigger::ALL {
                out.push((
                    trigger,
                    window,
                    self.correlation.fleet_conditional(
                        trigger.class(),
                        FailureClass::Root(RootCause::Hardware),
                        window,
                        Scope::SameNode,
                    ),
                ));
            }
        }
        out
    }

    /// Figure 13 (right): per-component failure probability in the
    /// month after a fan or chiller failure.
    pub fn figure13_right(&self) -> Vec<(TempTrigger, HardwareComponent, ConditionalEstimate)> {
        let mut out = Vec::new();
        for component in FIG13_COMPONENTS {
            for trigger in TempTrigger::ALL {
                out.push((
                    trigger,
                    component,
                    self.correlation.fleet_conditional(
                        trigger.class(),
                        FailureClass::Hw(component),
                        Window::Month,
                        Scope::SameNode,
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(temp_effect: bool) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(20),
            name: "t".into(),
            nodes: 40,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(400.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: true,
        };
        let mut b = SystemTraceBuilder::new(config);
        let sys = SystemId::new(20);
        let mut rng = StdRng::seed_from_u64(17);
        for n in 0..40u32 {
            let base_temp = 24.0 + (n % 7) as f64; // varies across nodes
            for d in 0..40 {
                b.push_temperature(TemperatureSample {
                    system: sys,
                    node: NodeId::new(n),
                    time: Timestamp::from_days(d as f64 * 10.0),
                    celsius: base_temp + rng.gen_range(-1.0..1.0),
                });
            }
            // Failures: either unrelated to temperature, or strongly
            // increasing with it.
            let lambda = if temp_effect {
                (n % 7) as f64 * 1.5 + 0.2
            } else {
                2.0
            };
            let count = lambda.round() as u32;
            for k in 0..count {
                b.push_failure(FailureRecord::new(
                    sys,
                    NodeId::new(n),
                    Timestamp::from_days(5.0 + k as f64 * 37.0 + (n as f64) * 0.7),
                    RootCause::Hardware,
                    SubCause::Hardware(HardwareComponent::Cpu),
                ));
            }
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn no_effect_when_failures_flat() {
        let trace = build(false);
        let a = TemperatureAnalysis::over(&trace);
        let fit = a
            .regression(
                SystemId::new(20),
                TempPredictor::Average,
                FailureClass::Root(RootCause::Hardware),
                Family::Poisson,
            )
            .unwrap();
        let coef = fit.coefficient("avg_temp").unwrap();
        assert!(!coef.significant_at(0.05), "p = {}", coef.p_value);
    }

    #[test]
    fn effect_detected_when_planted() {
        let trace = build(true);
        let a = TemperatureAnalysis::over(&trace);
        let fit = a
            .regression(
                SystemId::new(20),
                TempPredictor::Average,
                FailureClass::Root(RootCause::Hardware),
                Family::Poisson,
            )
            .unwrap();
        let coef = fit.coefficient("avg_temp").unwrap();
        assert!(coef.estimate > 0.0);
        assert!(coef.significant_at(0.01));
    }

    #[test]
    fn negative_binomial_regression_runs() {
        let trace = build(false);
        let a = TemperatureAnalysis::over(&trace);
        let fit = a
            .regression(
                SystemId::new(20),
                TempPredictor::Maximum,
                FailureClass::Root(RootCause::Hardware),
                Family::NegativeBinomial { theta: 1.0 },
            )
            .unwrap();
        assert!(matches!(fit.family, Family::NegativeBinomial { .. }));
    }

    #[test]
    fn regression_without_temperature_errors() {
        let trace = build(false);
        let a = TemperatureAnalysis::over(&trace);
        let err = a
            .regression(
                SystemId::new(99),
                TempPredictor::Average,
                FailureClass::Any,
                Family::Poisson,
            )
            .unwrap_err();
        assert!(matches!(err, GlmError::DimensionMismatch { .. }));
    }

    #[test]
    fn figure13_shapes() {
        let trace = build(false);
        let a = TemperatureAnalysis::over(&trace);
        assert_eq!(a.figure13_left().len(), 6); // 2 triggers x 3 windows
        assert_eq!(a.figure13_right().len(), 14); // 7 components x 2
    }

    #[test]
    fn fan_failure_triggers_counted() {
        let config = SystemConfig {
            id: SystemId::new(2),
            name: "t".into(),
            nodes: 2,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        b.push_failure(FailureRecord::new(
            SystemId::new(2),
            NodeId::new(0),
            Timestamp::from_days(10.0),
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::Fan),
        ));
        b.push_failure(FailureRecord::new(
            SystemId::new(2),
            NodeId::new(0),
            Timestamp::from_days(12.0),
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::MscBoard),
        ));
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let a = TemperatureAnalysis::over(&trace);
        let msc = a
            .figure13_right()
            .into_iter()
            .find(|(t, c, _)| *t == TempTrigger::Fan && *c == HardwareComponent::MscBoard)
            .unwrap()
            .2;
        assert_eq!(msc.conditional.successes(), 1);
        assert_eq!(msc.conditional.trials(), 1);
    }
}
