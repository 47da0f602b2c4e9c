//! The serializable request taxonomy of the analysis engine.
//!
//! An [`AnalysisRequest`] names one question from the paper (or one of
//! the repo's extensions) together with its parameters. Requests
//! round-trip through the JSON wire form ([`AnalysisRequest::to_json`]
//! / [`AnalysisRequest::from_json`]) used by `hpcfail-serve`, and the
//! canonical wire form doubles as the result-cache key.

use crate::checkpoint::{CheckpointPolicy, MIN_INTERVAL_HOURS};
use crate::correlation::Scope;
use crate::power::PowerProblem;
use crate::predict::AlarmRule;
use crate::regression_study::StudyFamily;
use crate::temperature::TempPredictor;
use hpcfail_obs::json::Json;
use hpcfail_types::prelude::*;
use std::fmt;

/// Default `k` for [`AnalysisRequest::HeaviestUsers`]: the paper
/// examines the 50 heaviest users (Figure 8).
pub const DEFAULT_HEAVIEST_USERS: usize = 50;

/// One typed analysis question, covering every paper section
/// (III–X) plus the repo's extensions.
///
/// Construct directly, or parse the JSON wire form with
/// [`AnalysisRequest::parse`]. Every request is answered by
/// [`crate::engine::Engine::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisRequest {
    /// Trace metadata: systems, failure count, fingerprint.
    TraceSummary,
    /// Section III: P(`target` within `window` after `trigger`) at
    /// `scope`, pooled over the systems of `group`.
    Conditional {
        /// Which hardware group to pool over.
        group: SystemGroup,
        /// The trigger failure class.
        trigger: FailureClass,
        /// The follow-up failure class.
        target: FailureClass,
        /// How long after the trigger to look.
        window: Window,
        /// Where to look for the follow-up.
        scope: Scope,
    },
    /// Section III pooled over *every* system with a stratified
    /// baseline (the Section VII/VIII "LANL nodes" pooling).
    FleetConditional {
        /// The trigger failure class.
        trigger: FailureClass,
        /// The follow-up failure class.
        target: FailureClass,
        /// How long after the trigger to look.
        window: Window,
        /// Where to look for the follow-up.
        scope: Scope,
    },
    /// Section III-A.3 (Figure 1(b)/2(right)): same-type vs any-type
    /// follow-up probability for each Figure 1 class.
    SameTypeSummaries {
        /// Which hardware group to pool over.
        group: SystemGroup,
        /// How long after the trigger to look.
        window: Window,
        /// Where to look for the follow-up.
        scope: Scope,
    },
    /// Section IV (Figure 4): failures per node id.
    NodeFailureCounts {
        /// The system to count over.
        system: SystemId,
    },
    /// Section IV: chi-square test of "all nodes fail at equal rates",
    /// optionally excluding node 0 as the paper does.
    EqualRatesTest {
        /// The system to test.
        system: SystemId,
        /// Which failures to count.
        class: FailureClass,
        /// Repeat the paper's robustness check without node 0.
        exclude_node0: bool,
    },
    /// Section IV (Figure 6): per-class failure probability of one
    /// node against the pooled rest of the system.
    NodeVsRest {
        /// The system.
        system: SystemId,
        /// The singled-out node.
        node: NodeId,
        /// Which failures to count.
        class: FailureClass,
        /// The window length of the probability.
        window: Window,
    },
    /// Section IV (Figure 5): relative root-cause breakdown over a set
    /// of nodes.
    RootCauseShares {
        /// The system.
        system: SystemId,
        /// The nodes whose failures are pooled.
        nodes: Vec<NodeId>,
    },
    /// Section V (Figure 7): correlation of per-node failure counts
    /// with utilization and job counts.
    UsageCorrelations {
        /// The system (needs a job log).
        system: SystemId,
    },
    /// Section VI (Figure 8): the `k` heaviest users with their
    /// failure exposure, plus the ANOVA heterogeneity test.
    HeaviestUsers {
        /// The system (needs a job log).
        system: SystemId,
        /// How many users, ranked by processor-days.
        k: usize,
    },
    /// Section VII (Figure 9): breakdown of environmental failures by
    /// sub-cause, fleet-wide.
    EnvBreakdown,
    /// Section VII (Figures 10/11 left): P(`target` after a power
    /// `problem`), fleet-pooled on the same node.
    PowerConditional {
        /// The power-problem trigger.
        problem: PowerProblem,
        /// The follow-up failure class.
        target: FailureClass,
        /// How long after the trigger to look.
        window: Window,
    },
    /// Section VII-A.2: unscheduled hardware maintenance after a power
    /// problem.
    MaintenanceAfterPower {
        /// The power-problem trigger.
        problem: PowerProblem,
    },
    /// Section VIII-A: regression of per-node `target` counts on one
    /// temperature aggregate.
    TemperatureRegression {
        /// The system (needs temperature data).
        system: SystemId,
        /// Which temperature aggregate predicts.
        predictor: TempPredictor,
        /// The response failure class.
        target: FailureClass,
        /// Poisson or negative-binomial response.
        family: StudyFamily,
    },
    /// Section IX (Figure 14): correlation of monthly failure
    /// probability with neutron flux.
    CosmicCorrelation {
        /// The system.
        system: SystemId,
        /// Which failures to count.
        class: FailureClass,
    },
    /// Section X (Tables II/III): the joint regression of outages on
    /// usage, layout and temperature features.
    RegressionStudy {
        /// The system (needs job log and temperature data).
        system: SystemId,
        /// Poisson (Table II) or negative-binomial (Table III).
        family: StudyFamily,
        /// Drop node 0 before fitting.
        exclude_node0: bool,
    },
    /// Extension: inter-arrival distribution fits and autocorrelation.
    ArrivalProfile {
        /// The system.
        system: SystemId,
        /// Which failures to profile.
        class: FailureClass,
    },
    /// Extension: precision/recall of the alarm rule "flag a node for
    /// `window` after a `trigger` failure".
    AlarmEvaluation {
        /// Which hardware group to evaluate over.
        group: SystemGroup,
        /// What raises the alarm.
        trigger: FailureClass,
        /// How long a node stays flagged.
        window: Window,
    },
    /// Extension: replay a checkpoint policy over the failure timeline
    /// with the typical cost model.
    CheckpointReplay {
        /// Which hardware group to replay over.
        group: SystemGroup,
        /// The policy to replay.
        policy: CheckpointPolicy,
    },
    /// Extension: MTBF / MTTR / availability, for one system or all.
    Availability {
        /// Restrict to one system; `None` reports every system.
        system: Option<SystemId>,
    },
}

/// Every request kind's wire discriminator, in declaration order.
/// `GET /schema` on the server lists these.
pub const REQUEST_KINDS: [&str; 20] = [
    "trace-summary",
    "conditional",
    "fleet-conditional",
    "same-type-summaries",
    "node-failure-counts",
    "equal-rates-test",
    "node-vs-rest",
    "root-cause-shares",
    "usage-correlations",
    "heaviest-users",
    "env-breakdown",
    "power-conditional",
    "maintenance-after-power",
    "temperature-regression",
    "cosmic-correlation",
    "regression-study",
    "arrival-profile",
    "alarm-evaluation",
    "checkpoint-replay",
    "availability",
];

/// A malformed analysis request (unknown kind, missing or mistyped
/// field, unparseable label). The message is safe to return verbatim
/// to a client as a 4xx body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    message: String,
}

impl RequestError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        RequestError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid analysis request: {}", self.message)
    }
}

impl std::error::Error for RequestError {}

impl AnalysisRequest {
    /// The wire discriminator (one of [`REQUEST_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisRequest::TraceSummary => "trace-summary",
            AnalysisRequest::Conditional { .. } => "conditional",
            AnalysisRequest::FleetConditional { .. } => "fleet-conditional",
            AnalysisRequest::SameTypeSummaries { .. } => "same-type-summaries",
            AnalysisRequest::NodeFailureCounts { .. } => "node-failure-counts",
            AnalysisRequest::EqualRatesTest { .. } => "equal-rates-test",
            AnalysisRequest::NodeVsRest { .. } => "node-vs-rest",
            AnalysisRequest::RootCauseShares { .. } => "root-cause-shares",
            AnalysisRequest::UsageCorrelations { .. } => "usage-correlations",
            AnalysisRequest::HeaviestUsers { .. } => "heaviest-users",
            AnalysisRequest::EnvBreakdown => "env-breakdown",
            AnalysisRequest::PowerConditional { .. } => "power-conditional",
            AnalysisRequest::MaintenanceAfterPower { .. } => "maintenance-after-power",
            AnalysisRequest::TemperatureRegression { .. } => "temperature-regression",
            AnalysisRequest::CosmicCorrelation { .. } => "cosmic-correlation",
            AnalysisRequest::RegressionStudy { .. } => "regression-study",
            AnalysisRequest::ArrivalProfile { .. } => "arrival-profile",
            AnalysisRequest::AlarmEvaluation { .. } => "alarm-evaluation",
            AnalysisRequest::CheckpointReplay { .. } => "checkpoint-replay",
            AnalysisRequest::Availability { .. } => "availability",
        }
    }

    /// The canonical JSON wire form. Round-trips through
    /// [`AnalysisRequest::from_json`]; because every field is emitted
    /// (including defaults) and object keys serialize sorted, the
    /// pretty-printed form is a stable cache key.
    pub fn to_json(&self) -> Json {
        let kind = Json::Str(self.kind().to_owned());
        match self {
            AnalysisRequest::TraceSummary | AnalysisRequest::EnvBreakdown => {
                Json::obj([("analysis", kind)])
            }
            AnalysisRequest::Conditional {
                group,
                trigger,
                target,
                window,
                scope,
            } => Json::obj([
                ("analysis", kind),
                ("group", Json::Str(group.wire().to_owned())),
                ("trigger", Json::Str(trigger.wire())),
                ("target", Json::Str(target.wire())),
                ("window", Json::Str(window.label().to_owned())),
                ("scope", Json::Str(scope.label().to_owned())),
            ]),
            AnalysisRequest::FleetConditional {
                trigger,
                target,
                window,
                scope,
            } => Json::obj([
                ("analysis", kind),
                ("trigger", Json::Str(trigger.wire())),
                ("target", Json::Str(target.wire())),
                ("window", Json::Str(window.label().to_owned())),
                ("scope", Json::Str(scope.label().to_owned())),
            ]),
            AnalysisRequest::SameTypeSummaries {
                group,
                window,
                scope,
            } => Json::obj([
                ("analysis", kind),
                ("group", Json::Str(group.wire().to_owned())),
                ("window", Json::Str(window.label().to_owned())),
                ("scope", Json::Str(scope.label().to_owned())),
            ]),
            AnalysisRequest::NodeFailureCounts { system } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
            ]),
            AnalysisRequest::EqualRatesTest {
                system,
                class,
                exclude_node0,
            } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("class", Json::Str(class.wire())),
                ("exclude_node0", Json::Bool(*exclude_node0)),
            ]),
            AnalysisRequest::NodeVsRest {
                system,
                node,
                class,
                window,
            } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("node", Json::Num(f64::from(node.raw()))),
                ("class", Json::Str(class.wire())),
                ("window", Json::Str(window.label().to_owned())),
            ]),
            AnalysisRequest::RootCauseShares { system, nodes } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                (
                    "nodes",
                    Json::Arr(
                        nodes
                            .iter()
                            .map(|n| Json::Num(f64::from(n.raw())))
                            .collect(),
                    ),
                ),
            ]),
            AnalysisRequest::UsageCorrelations { system } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
            ]),
            AnalysisRequest::HeaviestUsers { system, k } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("k", Json::Num(*k as f64)),
            ]),
            AnalysisRequest::PowerConditional {
                problem,
                target,
                window,
            } => Json::obj([
                ("analysis", kind),
                ("problem", Json::Str(problem.label().to_owned())),
                ("target", Json::Str(target.wire())),
                ("window", Json::Str(window.label().to_owned())),
            ]),
            AnalysisRequest::MaintenanceAfterPower { problem } => Json::obj([
                ("analysis", kind),
                ("problem", Json::Str(problem.label().to_owned())),
            ]),
            AnalysisRequest::TemperatureRegression {
                system,
                predictor,
                target,
                family,
            } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("predictor", Json::Str(predictor.label().to_owned())),
                ("target", Json::Str(target.wire())),
                ("family", Json::Str(family.label().to_owned())),
            ]),
            AnalysisRequest::CosmicCorrelation { system, class } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("class", Json::Str(class.wire())),
            ]),
            AnalysisRequest::RegressionStudy {
                system,
                family,
                exclude_node0,
            } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("family", Json::Str(family.label().to_owned())),
                ("exclude_node0", Json::Bool(*exclude_node0)),
            ]),
            AnalysisRequest::ArrivalProfile { system, class } => Json::obj([
                ("analysis", kind),
                ("system", Json::Num(f64::from(system.raw()))),
                ("class", Json::Str(class.wire())),
            ]),
            AnalysisRequest::AlarmEvaluation {
                group,
                trigger,
                window,
            } => Json::obj([
                ("analysis", kind),
                ("group", Json::Str(group.wire().to_owned())),
                ("trigger", Json::Str(trigger.wire())),
                ("window", Json::Str(window.label().to_owned())),
            ]),
            AnalysisRequest::CheckpointReplay { group, policy } => Json::obj([
                ("analysis", kind),
                ("group", Json::Str(group.wire().to_owned())),
                ("policy", policy_to_json(policy)),
            ]),
            AnalysisRequest::Availability { system } => Json::obj([
                ("analysis", kind),
                (
                    "system",
                    match system {
                        Some(id) => Json::Num(f64::from(id.raw())),
                        None => Json::Null,
                    },
                ),
            ]),
        }
    }

    /// Parses the JSON wire form.
    ///
    /// # Errors
    ///
    /// [`RequestError`] naming the offending field when the object is
    /// missing `analysis`, names an unknown kind, or any parameter is
    /// missing, mistyped or unparseable.
    pub fn from_json(json: &Json) -> Result<Self, RequestError> {
        let o = as_obj(json)?;
        let kind = str_field(o, "analysis")?;
        match kind {
            "trace-summary" => Ok(AnalysisRequest::TraceSummary),
            "conditional" => Ok(AnalysisRequest::Conditional {
                group: parse_field(o, "group")?,
                trigger: parse_field(o, "trigger")?,
                target: parse_field(o, "target")?,
                window: parse_field(o, "window")?,
                scope: parse_field(o, "scope")?,
            }),
            "fleet-conditional" => Ok(AnalysisRequest::FleetConditional {
                trigger: parse_field(o, "trigger")?,
                target: parse_field(o, "target")?,
                window: parse_field(o, "window")?,
                scope: parse_field(o, "scope")?,
            }),
            "same-type-summaries" => Ok(AnalysisRequest::SameTypeSummaries {
                group: parse_field(o, "group")?,
                window: parse_field(o, "window")?,
                scope: parse_field(o, "scope")?,
            }),
            "node-failure-counts" => Ok(AnalysisRequest::NodeFailureCounts {
                system: system_field(o)?,
            }),
            "equal-rates-test" => Ok(AnalysisRequest::EqualRatesTest {
                system: system_field(o)?,
                class: parse_field(o, "class")?,
                exclude_node0: bool_field(o, "exclude_node0")?,
            }),
            "node-vs-rest" => Ok(AnalysisRequest::NodeVsRest {
                system: system_field(o)?,
                node: NodeId::new(int_field(o, "node")? as u32),
                class: parse_field(o, "class")?,
                window: parse_field(o, "window")?,
            }),
            "root-cause-shares" => {
                let nodes = match o.get("nodes") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .map(|n| NodeId::new(n as u32))
                                .ok_or_else(|| RequestError::new("nodes entries must be integers"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err(RequestError::new("field nodes must be an array")),
                    None => return Err(RequestError::new("missing field nodes")),
                };
                Ok(AnalysisRequest::RootCauseShares {
                    system: system_field(o)?,
                    nodes,
                })
            }
            "usage-correlations" => Ok(AnalysisRequest::UsageCorrelations {
                system: system_field(o)?,
            }),
            "heaviest-users" => Ok(AnalysisRequest::HeaviestUsers {
                system: system_field(o)?,
                k: match o.get("k") {
                    None | Some(Json::Null) => DEFAULT_HEAVIEST_USERS,
                    Some(v) => v.as_u64().ok_or_else(|| {
                        RequestError::new("field k must be a non-negative integer")
                    })? as usize,
                },
            }),
            "env-breakdown" => Ok(AnalysisRequest::EnvBreakdown),
            "power-conditional" => Ok(AnalysisRequest::PowerConditional {
                problem: parse_field(o, "problem")?,
                target: parse_field(o, "target")?,
                window: parse_field(o, "window")?,
            }),
            "maintenance-after-power" => Ok(AnalysisRequest::MaintenanceAfterPower {
                problem: parse_field(o, "problem")?,
            }),
            "temperature-regression" => Ok(AnalysisRequest::TemperatureRegression {
                system: system_field(o)?,
                predictor: parse_field(o, "predictor")?,
                target: parse_field(o, "target")?,
                family: match o.get("family") {
                    None | Some(Json::Null) => StudyFamily::Poisson,
                    Some(_) => parse_field(o, "family")?,
                },
            }),
            "cosmic-correlation" => Ok(AnalysisRequest::CosmicCorrelation {
                system: system_field(o)?,
                class: parse_field(o, "class")?,
            }),
            "regression-study" => Ok(AnalysisRequest::RegressionStudy {
                system: system_field(o)?,
                family: parse_field(o, "family")?,
                exclude_node0: bool_field(o, "exclude_node0")?,
            }),
            "arrival-profile" => Ok(AnalysisRequest::ArrivalProfile {
                system: system_field(o)?,
                class: parse_field(o, "class")?,
            }),
            "alarm-evaluation" => Ok(AnalysisRequest::AlarmEvaluation {
                group: parse_field(o, "group")?,
                trigger: parse_field(o, "trigger")?,
                window: parse_field(o, "window")?,
            }),
            "checkpoint-replay" => Ok(AnalysisRequest::CheckpointReplay {
                group: parse_field(o, "group")?,
                policy: policy_from_json(
                    o.get("policy")
                        .ok_or_else(|| RequestError::new("missing field policy"))?,
                )?,
            }),
            "availability" => Ok(AnalysisRequest::Availability {
                system: match o.get("system") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(system_field(o)?),
                },
            }),
            other => Err(RequestError::new(format!(
                "unknown analysis kind {other:?}; valid kinds: {}",
                REQUEST_KINDS.join(", ")
            ))),
        }
    }

    /// Parses a request from JSON text.
    ///
    /// # Errors
    ///
    /// [`RequestError`] on malformed JSON or on any problem
    /// [`AnalysisRequest::from_json`] reports.
    pub fn parse(text: &str) -> Result<Self, RequestError> {
        let json = hpcfail_obs::json::parse(text)
            .map_err(|e| RequestError::new(format!("malformed JSON: {e}")))?;
        AnalysisRequest::from_json(&json)
    }

    /// The canonical serialized form: pretty-printed JSON of
    /// [`AnalysisRequest::to_json`]. Identical requests always produce
    /// identical bytes, which is what the serve layer caches on.
    pub fn canonical(&self) -> String {
        self.to_json().pretty()
    }
}

fn policy_to_json(policy: &CheckpointPolicy) -> Json {
    match policy {
        CheckpointPolicy::Uniform { interval_hours } => Json::obj([
            ("kind", Json::Str("uniform".to_owned())),
            ("interval_hours", Json::Num(*interval_hours)),
        ]),
        CheckpointPolicy::Adaptive {
            base_hours,
            flagged_hours,
            rule,
        } => Json::obj([
            ("kind", Json::Str("adaptive".to_owned())),
            ("base_hours", Json::Num(*base_hours)),
            ("flagged_hours", Json::Num(*flagged_hours)),
            ("trigger", Json::Str(rule.trigger.wire())),
            ("window", Json::Str(rule.window.label().to_owned())),
        ]),
    }
}

fn policy_from_json(json: &Json) -> Result<CheckpointPolicy, RequestError> {
    let o = as_obj(json)?;
    match str_field(o, "kind")? {
        "uniform" => Ok(CheckpointPolicy::Uniform {
            interval_hours: interval_field(o, "interval_hours")?,
        }),
        "adaptive" => Ok(CheckpointPolicy::Adaptive {
            base_hours: interval_field(o, "base_hours")?,
            flagged_hours: interval_field(o, "flagged_hours")?,
            rule: AlarmRule {
                trigger: parse_field(o, "trigger")?,
                window: parse_field(o, "window")?,
            },
        }),
        other => Err(RequestError::new(format!(
            "unknown checkpoint policy kind {other:?}, expected uniform or adaptive"
        ))),
    }
}

/// `json` itself, when it is an object: the field readers below look
/// keys up with [`Json::get`].
fn as_obj(json: &Json) -> Result<&Json, RequestError> {
    match json {
        Json::Obj(_) => Ok(json),
        _ => Err(RequestError::new("request must be a JSON object")),
    }
}

fn str_field<'a>(o: &'a Json, key: &str) -> Result<&'a str, RequestError> {
    match o.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(RequestError::new(format!("field {key} must be a string"))),
        None => Err(RequestError::new(format!("missing field {key}"))),
    }
}

fn int_field(o: &Json, key: &str) -> Result<u64, RequestError> {
    match o.get(key) {
        Some(v) => v.as_u64().ok_or_else(|| {
            RequestError::new(format!("field {key} must be a non-negative integer"))
        }),
        None => Err(RequestError::new(format!("missing field {key}"))),
    }
}

fn f64_field(o: &Json, key: &str) -> Result<f64, RequestError> {
    match o.get(key) {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| RequestError::new(format!("field {key} must be a number"))),
        None => Err(RequestError::new(format!("missing field {key}"))),
    }
}

/// A checkpoint interval: finite and at least [`MIN_INTERVAL_HOURS`].
fn interval_field(o: &Json, key: &str) -> Result<f64, RequestError> {
    let hours = f64_field(o, key)?;
    if hours.is_finite() && hours >= MIN_INTERVAL_HOURS {
        Ok(hours)
    } else {
        Err(RequestError::new(format!(
            "field {key} must be a finite number of hours of at least {MIN_INTERVAL_HOURS}, got {hours}"
        )))
    }
}

/// Absent fields default to `false`; present fields must be booleans.
fn bool_field(o: &Json, key: &str) -> Result<bool, RequestError> {
    match o.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        Some(Json::Null) | None => Ok(false),
        Some(_) => Err(RequestError::new(format!("field {key} must be a boolean"))),
    }
}

fn system_field(o: &Json) -> Result<SystemId, RequestError> {
    Ok(SystemId::new(int_field(o, "system")? as u16))
}

/// Parses a string field through the target type's `FromStr`.
fn parse_field<T>(o: &Json, key: &str) -> Result<T, RequestError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    str_field(o, key)?
        .parse()
        .map_err(|e| RequestError::new(format!("field {key}: {e}")))
}
