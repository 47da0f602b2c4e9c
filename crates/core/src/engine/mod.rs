//! The unified analysis engine: one typed entry point for every
//! analysis in the crate.
//!
//! An [`Engine`] owns a shared, immutable [`Trace`] and answers with
//! the trace's content fingerprint. Analyses are reached two ways:
//!
//! * **Views** — [`Engine::correlation`], [`Engine::power`], … return
//!   the familiar per-section analysis values, borrowing the engine's
//!   trace. They are the only way to construct the analysis structs.
//! * **Requests** — [`Engine::run`] answers a serializable
//!   [`AnalysisRequest`] with an [`AnalysisResult`]. This is the wire
//!   API of `hpcfail-serve` and the programmatic API of the `repro`
//!   harness; both produce byte-identical JSON for equal requests.
//!
//! The engine is [`Clone`] (the trace sits behind an [`Arc`]) and all
//! of its methods take `&self`, so one engine can serve concurrent
//! queries from many threads.
//!
//! ```
//! use hpcfail_core::engine::{AnalysisRequest, Engine};
//! use hpcfail_store::trace::Trace;
//!
//! let engine = Engine::new(Trace::new());
//! let result = engine.run(&AnalysisRequest::TraceSummary);
//! assert!(result.to_json().pretty().contains("fingerprint"));
//! ```

mod request;
mod result;

pub use request::{AnalysisRequest, RequestError, DEFAULT_HEAVIEST_USERS, REQUEST_KINDS};
pub use result::{
    AnalysisResult, ArrivalSummary, CosmicSummary, EnvShare, FitSummary, GlmSummary, RootShare,
    TraceSummary, UsageSummary, UserSummary,
};

use crate::availability::AvailabilityAnalysis;
use crate::checkpoint::CheckpointSimulator;
use crate::correlation::CorrelationAnalysis;
use crate::cosmic::{series_correlations, CosmicAnalysis};
use crate::interarrival::ArrivalAnalysis;
use crate::nodes::NodeAnalysis;
use crate::pairwise::PairwiseAnalysis;
use crate::power::PowerAnalysis;
use crate::predict::AlarmRule;
use crate::regression_study::{RegressionStudy, StudyFamily};
use crate::temperature::TemperatureAnalysis;
use crate::usage::UsageAnalysis;
use crate::users::UserAnalysis;
use hpcfail_stats::glm::Family;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;
use std::sync::Arc;

/// The unified entry point to every analysis.
///
/// See the [module docs](self) for the two access styles. Cloning is
/// cheap: clones share the trace and its fingerprint.
#[derive(Debug, Clone)]
pub struct Engine {
    trace: Arc<Trace>,
}

impl Engine {
    /// Builds an engine over a trace.
    pub fn new(trace: Trace) -> Self {
        Engine::from_arc(Arc::new(trace))
    }

    /// Builds an engine over an already-shared trace.
    pub fn from_arc(trace: Arc<Trace>) -> Self {
        // Hash now, so no query pays for it. A trace decoded from a
        // snapshot already holds the value decode checked.
        trace.fingerprint();
        Engine { trace }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// A shareable handle to the underlying trace.
    pub fn shared_trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    /// The trace's content fingerprint ([`Trace::fingerprint`]): it
    /// covers every field a snapshot carries, so two engines have equal
    /// fingerprints exactly when their traces hold equal content, which
    /// is what lets a result cache be keyed on (fingerprint, request).
    pub fn fingerprint(&self) -> u64 {
        self.trace.fingerprint()
    }

    /// The fingerprint as 16 lowercase hex digits.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Section III: the correlation analysis.
    pub fn correlation(&self) -> CorrelationAnalysis<'_> {
        CorrelationAnalysis::over(&self.trace)
    }

    /// Section III-A: pairwise class-to-class correlation.
    pub fn pairwise(&self) -> PairwiseAnalysis<'_> {
        PairwiseAnalysis::over(&self.trace)
    }

    /// Section IV: spatial distribution across nodes.
    pub fn nodes(&self) -> NodeAnalysis<'_> {
        NodeAnalysis::over(&self.trace)
    }

    /// Section V: workload intensity and failures.
    pub fn usage(&self) -> UsageAnalysis<'_> {
        UsageAnalysis::over(&self.trace)
    }

    /// Section VI: users and failures.
    pub fn users(&self) -> UserAnalysis<'_> {
        UserAnalysis::over(&self.trace)
    }

    /// Section VII: power problems and their after-effects.
    pub fn power(&self) -> PowerAnalysis<'_> {
        PowerAnalysis::over(&self.trace)
    }

    /// Section VIII: temperature and failures.
    pub fn temperature(&self) -> TemperatureAnalysis<'_> {
        TemperatureAnalysis::over(&self.trace)
    }

    /// Section IX: cosmic-ray flux and failures.
    pub fn cosmic(&self) -> CosmicAnalysis<'_> {
        CosmicAnalysis::over(&self.trace)
    }

    /// Section X: the joint regression study.
    pub fn regression(&self) -> RegressionStudy<'_> {
        RegressionStudy::over(&self.trace)
    }

    /// Extension: inter-arrival distribution fitting.
    pub fn arrivals(&self) -> ArrivalAnalysis<'_> {
        ArrivalAnalysis::over(&self.trace)
    }

    /// Extension: availability accounting.
    pub fn availability(&self) -> AvailabilityAnalysis<'_> {
        AvailabilityAnalysis::over(&self.trace)
    }

    /// Answers one typed request.
    ///
    /// Never panics on well-formed requests: analyses that cannot run
    /// on this trace (unknown system, degenerate data) answer with
    /// empty/`None`/`Err` payloads inside the result, mirroring the
    /// underlying per-analysis APIs.
    pub fn run(&self, request: &AnalysisRequest) -> AnalysisResult {
        let span = hpcfail_obs::span(&format!("engine.run.{}", request.kind()));
        span.attr("kind", request.kind());
        let _span = span;
        hpcfail_obs::counter("engine.requests").inc();
        match request {
            AnalysisRequest::TraceSummary => AnalysisResult::TraceSummary(TraceSummary {
                systems: self.trace.systems().map(|s| s.config().id.raw()).collect(),
                failures: self.trace.total_failures() as u64,
                fingerprint: self.fingerprint_hex(),
            }),
            AnalysisRequest::Conditional {
                group,
                trigger,
                target,
                window,
                scope,
            } => AnalysisResult::Conditional(
                self.correlation()
                    .group_conditional(*group, *trigger, *target, *window, *scope),
            ),
            AnalysisRequest::FleetConditional {
                trigger,
                target,
                window,
                scope,
            } => AnalysisResult::Conditional(
                self.correlation()
                    .fleet_conditional(*trigger, *target, *window, *scope),
            ),
            AnalysisRequest::SameTypeSummaries {
                group,
                window,
                scope,
            } => AnalysisResult::SameType(
                self.pairwise().same_type_summaries(*group, *window, *scope),
            ),
            AnalysisRequest::NodeFailureCounts { system } => {
                AnalysisResult::NodeFailureCounts(self.nodes().failure_counts(*system))
            }
            AnalysisRequest::EqualRatesTest {
                system,
                class,
                exclude_node0,
            } => {
                let exclude: &[NodeId] = if *exclude_node0 {
                    &[NodeId::new(0)]
                } else {
                    &[]
                };
                AnalysisResult::Test(self.nodes().equal_rates_test(*system, *class, exclude))
            }
            AnalysisRequest::NodeVsRest {
                system,
                node,
                class,
                window,
            } => AnalysisResult::NodeVsRest(
                self.nodes().node_vs_rest(*system, *node, *class, *window),
            ),
            AnalysisRequest::RootCauseShares { system, nodes } => AnalysisResult::RootCauseShares(
                self.nodes()
                    .root_cause_shares(*system, nodes)
                    .into_iter()
                    .map(|(root, share)| RootShare { root, share })
                    .collect(),
            ),
            AnalysisRequest::UsageCorrelations { system } => {
                let usage = self.usage();
                AnalysisResult::Usage(UsageSummary {
                    jobs_pearson: usage.jobs_failures_pearson(*system),
                    util_pearson: usage.util_failures_pearson(*system),
                    jobs_spearman: usage.jobs_failures_spearman(*system),
                })
            }
            AnalysisRequest::HeaviestUsers { system, k } => {
                let users = self.users();
                let stats = users.heaviest_users(*system, *k);
                let heterogeneity = users.heterogeneity_test(&stats);
                AnalysisResult::Users(UserSummary {
                    stats,
                    heterogeneity,
                })
            }
            AnalysisRequest::EnvBreakdown => {
                let power = self.power();
                let counts = power.env_breakdown();
                let shares = power.env_shares();
                AnalysisResult::EnvBreakdown(
                    counts
                        .into_iter()
                        .map(|(cause, count)| EnvShare {
                            cause,
                            count,
                            share: shares.get(&cause).copied().unwrap_or(0.0),
                        })
                        .collect(),
                )
            }
            AnalysisRequest::PowerConditional {
                problem,
                target,
                window,
            } => AnalysisResult::Conditional(
                self.power().conditional_after(*problem, *target, *window),
            ),
            AnalysisRequest::MaintenanceAfterPower { problem } => {
                AnalysisResult::Conditional(self.power().maintenance_after(*problem))
            }
            AnalysisRequest::TemperatureRegression {
                system,
                predictor,
                target,
                family,
            } => {
                // The NB theta seed is re-estimated by the fitter, so
                // any positive value maps StudyFamily onto Family.
                let family = match family {
                    StudyFamily::Poisson => Family::Poisson,
                    StudyFamily::NegativeBinomial => Family::NegativeBinomial { theta: 1.0 },
                };
                AnalysisResult::Glm(
                    self.temperature()
                        .regression(*system, *predictor, *target, family)
                        .map(|fit| GlmSummary::from_fit(&fit))
                        .map_err(|e| e.to_string()),
                )
            }
            AnalysisRequest::CosmicCorrelation { system, class } => {
                let series = self.cosmic().monthly_series(*system, *class);
                let (pearson, spearman) = series_correlations(&series);
                AnalysisResult::Cosmic(CosmicSummary {
                    months: series.len(),
                    pearson,
                    spearman,
                })
            }
            AnalysisRequest::RegressionStudy {
                system,
                family,
                exclude_node0,
            } => AnalysisResult::Glm(
                self.regression()
                    .fit(*system, *family, *exclude_node0)
                    .map(|fit| GlmSummary::from_fit(&fit))
                    .map_err(|e| e.to_string()),
            ),
            AnalysisRequest::ArrivalProfile { system, class } => AnalysisResult::Arrival(
                self.arrivals()
                    .profile(*system, *class)
                    .map(|p| ArrivalSummary::from_profile(&p))
                    .map_err(|e| e.to_string()),
            ),
            AnalysisRequest::AlarmEvaluation {
                group,
                trigger,
                window,
            } => {
                let rule = AlarmRule {
                    trigger: *trigger,
                    window: *window,
                };
                AnalysisResult::Alarm(rule.evaluate_group(&self.trace, *group))
            }
            AnalysisRequest::CheckpointReplay { group, policy } => AnalysisResult::Checkpoint(
                CheckpointSimulator::typical().replay_group(&self.trace, *group, *policy),
            ),
            AnalysisRequest::Availability { system } => {
                AnalysisResult::Availability(match system {
                    Some(id) => self.availability().report(*id).into_iter().collect(),
                    None => self.availability().all_reports(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        hpcfail_synth::FleetSpec::demo().generate(42).into_store()
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = Engine::new(demo_trace());
        let b = Engine::new(demo_trace());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_hex().len(), 16);

        let other = Engine::new(hpcfail_synth::FleetSpec::demo().generate(43).into_store());
        assert_ne!(a.fingerprint(), other.fingerprint());

        let empty = Engine::new(Trace::new());
        assert_ne!(a.fingerprint(), empty.fingerprint());
    }

    #[test]
    fn clones_share_the_trace() {
        let engine = Engine::new(demo_trace());
        let clone = engine.clone();
        assert!(std::ptr::eq(engine.trace(), clone.trace()));
        assert_eq!(engine.fingerprint(), clone.fingerprint());
    }

    #[test]
    fn every_request_kind_round_trips_and_runs() {
        let engine = Engine::new(demo_trace());
        for request in sample_requests() {
            let wire = request.canonical();
            let back = AnalysisRequest::parse(&wire).expect("wire form parses back");
            assert_eq!(back, request, "round trip for {}", request.kind());
            let result = engine.run(&request);
            // Serialization must be deterministic.
            assert_eq!(
                result.to_json().pretty(),
                engine.run(&request).to_json().pretty(),
                "deterministic result for {}",
                request.kind()
            );
        }
    }

    #[test]
    fn kinds_table_matches_requests() {
        let mut kinds: Vec<&str> = sample_requests()
            .iter()
            .map(AnalysisRequest::kind)
            .collect();
        kinds.dedup();
        assert_eq!(kinds, REQUEST_KINDS.to_vec());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(AnalysisRequest::parse("not json").is_err());
        assert!(AnalysisRequest::parse("[]").is_err());
        assert!(AnalysisRequest::parse(r#"{"analysis": "no-such-kind"}"#).is_err());
        assert!(AnalysisRequest::parse(r#"{"analysis": "conditional"}"#).is_err());
        assert!(AnalysisRequest::parse(
            r#"{"analysis": "equal-rates-test", "system": 2, "class": "bogus"}"#
        )
        .is_err());
        let err = AnalysisRequest::parse(r#"{"analysis": "node-vs-rest", "system": "x"}"#)
            .expect_err("mistyped system");
        assert!(err.to_string().contains("system"));
    }

    #[test]
    fn checkpoint_intervals_below_the_floor_are_refused() {
        let uniform = |hours: &str| {
            format!(
                r#"{{"analysis": "checkpoint-replay", "group": "group-1", "policy": {{"kind": "uniform", "interval_hours": {hours}}}}}"#
            )
        };
        let adaptive = |base: &str, flagged: &str| {
            format!(
                r#"{{"analysis": "checkpoint-replay", "group": "group-2", "policy": {{"kind": "adaptive", "base_hours": {base}, "flagged_hours": {flagged}, "trigger": "any", "window": "week"}}}}"#
            )
        };
        let cases = |bad: &str| {
            [
                ("interval_hours", uniform(bad)),
                ("base_hours", adaptive(bad, "1")),
                ("flagged_hours", adaptive("1", bad)),
            ]
        };
        for bad in ["0.001", "0", "-1", "1e999", "-1e999"] {
            for (field, text) in cases(bad) {
                let err = AnalysisRequest::parse(&text).expect_err(&text);
                assert!(
                    err.to_string().contains(&format!("field {field} must be")),
                    "{text}: {err}"
                );
            }
        }
        // The floor itself is accepted, and replays as written.
        for (_, text) in cases("0.01") {
            let request = AnalysisRequest::parse(&text).expect("at the floor");
            assert_eq!(AnalysisRequest::parse(&request.canonical()), Ok(request));
        }
    }

    /// One request per kind, in [`REQUEST_KINDS`] order.
    pub(super) fn sample_requests() -> Vec<AnalysisRequest> {
        use crate::checkpoint::CheckpointPolicy;
        use crate::correlation::Scope;
        use crate::power::PowerProblem;
        use crate::temperature::TempPredictor;
        vec![
            AnalysisRequest::TraceSummary,
            AnalysisRequest::Conditional {
                group: SystemGroup::Group1,
                trigger: FailureClass::Any,
                target: FailureClass::Any,
                window: Window::Day,
                scope: Scope::SameNode,
            },
            AnalysisRequest::FleetConditional {
                trigger: FailureClass::Root(RootCause::Hardware),
                target: FailureClass::Root(RootCause::Software),
                window: Window::Week,
                scope: Scope::SameSystem,
            },
            AnalysisRequest::SameTypeSummaries {
                group: SystemGroup::Group2,
                window: Window::Day,
                scope: Scope::SameNode,
            },
            AnalysisRequest::NodeFailureCounts {
                system: SystemId::new(2),
            },
            AnalysisRequest::EqualRatesTest {
                system: SystemId::new(2),
                class: FailureClass::Any,
                exclude_node0: true,
            },
            AnalysisRequest::NodeVsRest {
                system: SystemId::new(2),
                node: NodeId::new(0),
                class: FailureClass::Any,
                window: Window::Month,
            },
            AnalysisRequest::RootCauseShares {
                system: SystemId::new(2),
                nodes: vec![NodeId::new(0), NodeId::new(1)],
            },
            AnalysisRequest::UsageCorrelations {
                system: SystemId::new(2),
            },
            AnalysisRequest::HeaviestUsers {
                system: SystemId::new(2),
                k: 5,
            },
            AnalysisRequest::EnvBreakdown,
            AnalysisRequest::PowerConditional {
                problem: PowerProblem::Outage,
                target: FailureClass::Any,
                window: Window::Day,
            },
            AnalysisRequest::MaintenanceAfterPower {
                problem: PowerProblem::Spike,
            },
            AnalysisRequest::TemperatureRegression {
                system: SystemId::new(2),
                predictor: TempPredictor::Average,
                target: FailureClass::Any,
                family: StudyFamily::Poisson,
            },
            AnalysisRequest::CosmicCorrelation {
                system: SystemId::new(2),
                class: FailureClass::Any,
            },
            AnalysisRequest::RegressionStudy {
                system: SystemId::new(2),
                family: StudyFamily::Poisson,
                exclude_node0: false,
            },
            AnalysisRequest::ArrivalProfile {
                system: SystemId::new(2),
                class: FailureClass::Any,
            },
            AnalysisRequest::AlarmEvaluation {
                group: SystemGroup::Group1,
                trigger: FailureClass::Any,
                window: Window::Day,
            },
            AnalysisRequest::CheckpointReplay {
                group: SystemGroup::Group1,
                policy: CheckpointPolicy::Uniform {
                    interval_hours: 6.0,
                },
            },
            AnalysisRequest::Availability { system: None },
        ]
    }
}
