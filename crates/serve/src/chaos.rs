//! Deterministic chaos injection for the serving path.
//!
//! The serving-side dual of `hpcfail-synth`'s CSV corruptor: a seeded
//! [`ChaosConfig`] (`hpcfail-serve serve --chaos spec.json`) injects
//! latency, worker stalls, typed errors, handler panics, connection
//! drops and forced sheds at four named points in the request path, so
//! overload and fault-storm recovery are provable in tests rather than
//! asserted in prose.
//!
//! # Injection points and the faults each accepts
//!
//! | point | where in the path | faults |
//! |---|---|---|
//! | `accept` | right after `accept()`, before the request is read | `latency`, `stall`, `drop` |
//! | `admission` | before the admission gate classifies the request | `latency`, `error`, `shed` |
//! | `engine` | between admission and the analysis run | `latency`, `stall`, `error`, `panic` |
//! | `respond` | before the response bytes are written | `latency`, `drop` |
//!
//! The parser rejects any other point/fault pairing (a `drop` inside
//! the engine would be indistinguishable from a crash; an `error`
//! before the request is read has no one to answer). A `panic` unwinds
//! the handler as a bug in an analysis would: the server's
//! `catch_unwind` answers it with a typed 500 of kind `panic`, and the
//! admission permit it held is released on the unwind.
//!
//! # Determinism
//!
//! Whether the *n*-th arrival at a point faults is a pure function of
//! `(seed, point, rule index, n)` — a chained [`mix64`] hash compared
//! against the rule's probability — never of wall time or thread
//! interleaving. Same seed + same traffic ⇒ same fault schedule, which
//! is what lets the chaos suite assert *exact* shed/retry counts. A
//! rule's optional `max` caps total firings; with concurrent workers
//! the cap itself stays exact but *which* hash-selected arrival wins
//! the last slot can race, so count-exact tests drive one thread.

use hpcfail_obs::json::{self, Json};
use hpcfail_obs::rng::{fraction, mix64};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Seeds must stay exactly representable in the JSON number model
/// (f64), so a spec round-trips without changing its schedule.
const MAX_SEED: u64 = 1 << 53;

/// A malformed or invalid chaos spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// The document is not valid JSON.
    Json(String),
    /// A value is missing, mistyped or out of range. `path` names the
    /// offending location (e.g. `rules[2].probability`).
    Schema {
        /// Where in the document the problem is.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// An object contains a key the schema does not define.
    UnknownKey {
        /// The object containing the stray key.
        path: String,
        /// The stray key itself.
        key: String,
    },
    /// A chaos spec file could not be read.
    Io {
        /// The path that failed to load.
        path: String,
        /// The I/O error text.
        message: String,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Json(message) => write!(f, "chaos spec is not valid JSON: {message}"),
            ChaosError::Schema { path, message } => {
                write!(f, "invalid chaos spec at {path}: {message}")
            }
            ChaosError::UnknownKey { path, key } => write!(f, "unknown key {key:?} in {path}"),
            ChaosError::Io { path, message } => {
                write!(f, "cannot read chaos spec {path}: {message}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// A named point in the request path where faults may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// Right after `accept()`, before any bytes are read.
    Accept,
    /// Before the admission gate sees the request.
    Admission,
    /// Between admission and the analysis run.
    Engine,
    /// Before the response bytes are written.
    Respond,
}

impl ChaosPoint {
    /// The wire label (`accept` / `admission` / `engine` / `respond`).
    pub fn label(self) -> &'static str {
        match self {
            ChaosPoint::Accept => "accept",
            ChaosPoint::Admission => "admission",
            ChaosPoint::Engine => "engine",
            ChaosPoint::Respond => "respond",
        }
    }

    fn index(self) -> usize {
        match self {
            ChaosPoint::Accept => 0,
            ChaosPoint::Admission => 1,
            ChaosPoint::Engine => 2,
            ChaosPoint::Respond => 3,
        }
    }

    fn parse(label: &str) -> Option<ChaosPoint> {
        match label {
            "accept" => Some(ChaosPoint::Accept),
            "admission" => Some(ChaosPoint::Admission),
            "engine" => Some(ChaosPoint::Engine),
            "respond" => Some(ChaosPoint::Respond),
            _ => None,
        }
    }
}

/// What a firing rule does to the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Sleep `ms` before continuing (network / queueing delay).
    Latency {
        /// Added delay, milliseconds.
        ms: u64,
    },
    /// Sleep `ms` while *holding* the worker (a wedged worker, not a
    /// slow network); distinct from latency in counters.
    Stall {
        /// Stall length, milliseconds.
        ms: u64,
    },
    /// Answer with a typed HTTP error instead of running the request.
    Error {
        /// The injected status code (4xx or 5xx).
        status: u16,
    },
    /// Close the connection without a response (the one deliberately
    /// untyped fault — it exists so tests can prove retries cover it).
    Drop,
    /// Force the admission gate to shed (typed 503, chaos reason).
    Shed,
    /// Panic inside the handler (typed 500, kind `panic`).
    Panic,
}

impl ChaosFault {
    /// The wire label (`latency` / `stall` / `error` / `drop` / `shed` /
    /// `panic`).
    pub fn label(self) -> &'static str {
        match self {
            ChaosFault::Latency { .. } => "latency",
            ChaosFault::Stall { .. } => "stall",
            ChaosFault::Error { .. } => "error",
            ChaosFault::Drop => "drop",
            ChaosFault::Shed => "shed",
            ChaosFault::Panic => "panic",
        }
    }

    /// `true` when `self` may inject at `point` (see the module table).
    pub fn valid_at(self, point: ChaosPoint) -> bool {
        matches!(
            (point, self),
            (
                ChaosPoint::Accept,
                ChaosFault::Latency { .. } | ChaosFault::Stall { .. } | ChaosFault::Drop
            ) | (
                ChaosPoint::Admission,
                ChaosFault::Latency { .. } | ChaosFault::Error { .. } | ChaosFault::Shed
            ) | (
                ChaosPoint::Engine,
                ChaosFault::Latency { .. }
                    | ChaosFault::Stall { .. }
                    | ChaosFault::Error { .. }
                    | ChaosFault::Panic
            ) | (
                ChaosPoint::Respond,
                ChaosFault::Latency { .. } | ChaosFault::Drop
            )
        )
    }
}

/// One injection rule: fire `fault` at `point` for the fraction
/// `probability` of arrivals, at most `max` times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRule {
    /// Where the fault injects.
    pub point: ChaosPoint,
    /// What happens when it fires.
    pub fault: ChaosFault,
    /// Fraction of arrivals that fire, in `[0, 1]`.
    pub probability: f64,
    /// Total-firings cap; `None` is unlimited.
    pub max: Option<u64>,
}

/// A parsed, validated chaos spec: a seed plus a rule list.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The schedule seed; equal seeds + equal traffic ⇒ equal faults.
    pub seed: u64,
    /// The rules, in file order (first matching rule wins per arrival).
    pub rules: Vec<ChaosRule>,
}

impl ChaosConfig {
    /// Parses and validates a chaos spec document.
    ///
    /// # Errors
    ///
    /// A typed [`ChaosError`] naming the JSON path of the first
    /// problem: invalid JSON, unknown keys, missing or mistyped
    /// fields, out-of-range probabilities, or a fault the named point
    /// does not accept.
    pub fn parse(text: &str) -> Result<ChaosConfig, ChaosError> {
        let doc = json::parse(text).map_err(|e| ChaosError::Json(e.to_string()))?;
        let Json::Obj(top) = &doc else {
            return Err(schema("$", "chaos spec must be a JSON object"));
        };
        for (key, _) in top {
            if key != "seed" && key != "rules" {
                return Err(ChaosError::UnknownKey {
                    path: "$".to_owned(),
                    key: key.to_string(),
                });
            }
        }
        let seed = require_u64(&doc, "$", "seed")?;
        if seed > MAX_SEED {
            return Err(schema("$.seed", "seed must be at most 2^53"));
        }
        let rules_json = doc
            .get("rules")
            .ok_or_else(|| schema("$", "missing required key \"rules\""))?;
        let Json::Arr(items) = rules_json else {
            return Err(schema("$.rules", "rules must be an array"));
        };
        let mut rules = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            rules.push(parse_rule(item, &format!("rules[{i}]"))?);
        }
        Ok(ChaosConfig { seed, rules })
    }

    /// Reads and parses a chaos spec file.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Io`] when the file cannot be read, otherwise as
    /// [`ChaosConfig::parse`].
    pub fn load(path: &str) -> Result<ChaosConfig, ChaosError> {
        let text = std::fs::read_to_string(path).map_err(|e| ChaosError::Io {
            path: path.to_owned(),
            message: e.to_string(),
        })?;
        ChaosConfig::parse(&text)
    }
}

fn schema(path: &str, message: &str) -> ChaosError {
    ChaosError::Schema {
        path: path.to_owned(),
        message: message.to_owned(),
    }
}

fn require_u64(obj: &Json, path: &str, key: &str) -> Result<u64, ChaosError> {
    let value = obj
        .get(key)
        .ok_or_else(|| schema(path, &format!("missing required key {key:?}")))?;
    value
        .as_u64()
        .ok_or_else(|| schema(&format!("{path}.{key}"), "must be a non-negative integer"))
}

fn parse_rule(item: &Json, path: &str) -> Result<ChaosRule, ChaosError> {
    let Json::Obj(fields) = item else {
        return Err(schema(path, "each rule must be a JSON object"));
    };
    const KNOWN: [&str; 6] = ["point", "fault", "probability", "ms", "status", "max"];
    for (key, _) in fields {
        if !KNOWN.contains(&key.as_ref()) {
            return Err(ChaosError::UnknownKey {
                path: path.to_owned(),
                key: key.to_string(),
            });
        }
    }
    let point_label = item
        .get("point")
        .ok_or_else(|| schema(path, "missing required key \"point\""))?
        .as_str()
        .ok_or_else(|| schema(&format!("{path}.point"), "must be a string"))?;
    let point = ChaosPoint::parse(point_label).ok_or_else(|| {
        schema(
            &format!("{path}.point"),
            "must be one of \"accept\", \"admission\", \"engine\", \"respond\"",
        )
    })?;
    let fault_label = item
        .get("fault")
        .ok_or_else(|| schema(path, "missing required key \"fault\""))?
        .as_str()
        .ok_or_else(|| schema(&format!("{path}.fault"), "must be a string"))?;
    let needs_ms = matches!(fault_label, "latency" | "stall");
    let needs_status = fault_label == "error";
    if !needs_ms && item.get("ms").is_some() {
        return Err(schema(
            &format!("{path}.ms"),
            "only latency and stall faults take \"ms\"",
        ));
    }
    if !needs_status && item.get("status").is_some() {
        return Err(schema(
            &format!("{path}.status"),
            "only error faults take \"status\"",
        ));
    }
    let fault = match fault_label {
        "latency" => ChaosFault::Latency {
            ms: require_u64(item, path, "ms")?,
        },
        "stall" => ChaosFault::Stall {
            ms: require_u64(item, path, "ms")?,
        },
        "error" => {
            let status = require_u64(item, path, "status")?;
            if !(400..600).contains(&status) {
                return Err(schema(
                    &format!("{path}.status"),
                    "injected status must be 4xx or 5xx",
                ));
            }
            ChaosFault::Error {
                status: status as u16,
            }
        }
        "drop" => ChaosFault::Drop,
        "shed" => ChaosFault::Shed,
        "panic" => ChaosFault::Panic,
        _ => {
            return Err(schema(
                &format!("{path}.fault"),
                "must be one of \"latency\", \"stall\", \"error\", \"drop\", \"shed\", \
                 \"panic\"",
            ))
        }
    };
    if !fault.valid_at(point) {
        return Err(schema(
            path,
            &format!(
                "fault \"{}\" cannot inject at point \"{}\"",
                fault.label(),
                point.label()
            ),
        ));
    }
    let probability = item
        .get("probability")
        .ok_or_else(|| schema(path, "missing required key \"probability\""))?
        .as_f64()
        .ok_or_else(|| schema(&format!("{path}.probability"), "must be a number"))?;
    if !(0.0..=1.0).contains(&probability) {
        return Err(schema(
            &format!("{path}.probability"),
            "must be within [0, 1]",
        ));
    }
    let max = match item.get("max") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| schema(&format!("{path}.max"), "must be a non-negative integer"))?,
        ),
    };
    Ok(ChaosRule {
        point,
        fault,
        probability,
        max,
    })
}

/// What the request path must do after asking the engine about an
/// arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Sleep, then continue normally (latency and stall faults).
    Delay(Duration),
    /// Answer with this injected HTTP status.
    Fail {
        /// The injected status code.
        status: u16,
    },
    /// Close the connection without answering.
    Drop,
    /// Shed through the admission gate (typed 503, chaos reason).
    Shed,
    /// Panic, unwinding the handler.
    Panic,
}

/// The runtime side of a chaos spec: per-point arrival counters plus
/// the deterministic fire/skip decision.
pub struct ChaosEngine {
    config: ChaosConfig,
    arrivals: [AtomicU64; 4],
    fired: Vec<AtomicU64>,
}

impl ChaosEngine {
    /// An engine for `config`, all counters at zero.
    pub fn new(config: ChaosConfig) -> ChaosEngine {
        let fired = config.rules.iter().map(|_| AtomicU64::new(0)).collect();
        ChaosEngine {
            config,
            arrivals: [const { AtomicU64::new(0) }; 4],
            fired,
        }
    }

    /// Registers one arrival at `point` and decides whether it faults.
    ///
    /// The first rule (in file order) whose hash fires and whose `max`
    /// cap is not exhausted wins; its action is returned and counted
    /// as `serve.chaos.<point>.<fault>`.
    pub fn decide(&self, point: ChaosPoint) -> Option<ChaosAction> {
        let n = self.arrivals[point.index()].fetch_add(1, Ordering::SeqCst);
        for (rule_idx, rule) in self.config.rules.iter().enumerate() {
            if rule.point != point {
                continue;
            }
            let mut h = mix64(self.config.seed);
            h = mix64(h ^ point.index() as u64);
            h = mix64(h ^ rule_idx as u64);
            h = mix64(h ^ n);
            if fraction(h) >= rule.probability {
                continue;
            }
            let cap_ok = match rule.max {
                None => {
                    self.fired[rule_idx].fetch_add(1, Ordering::SeqCst);
                    true
                }
                Some(max) => self.fired[rule_idx]
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                        (v < max).then_some(v + 1)
                    })
                    .is_ok(),
            };
            if !cap_ok {
                continue;
            }
            hpcfail_obs::counter(&format!(
                "serve.chaos.{}.{}",
                point.label(),
                rule.fault.label()
            ))
            .inc();
            return Some(match rule.fault {
                ChaosFault::Latency { ms } | ChaosFault::Stall { ms } => {
                    ChaosAction::Delay(Duration::from_millis(ms))
                }
                ChaosFault::Error { status } => ChaosAction::Fail { status },
                ChaosFault::Drop => ChaosAction::Drop,
                ChaosFault::Shed => ChaosAction::Shed,
                ChaosFault::Panic => ChaosAction::Panic,
            });
        }
        None
    }

    /// Firings per rule, in rule order.
    pub fn fired(&self) -> Vec<u64> {
        self.fired
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }
}

impl fmt::Debug for ChaosEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosEngine")
            .field("seed", &self.config.seed)
            .field("rules", &self.config.rules.len())
            .field("fired", &self.fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ChaosConfig {
        ChaosConfig::parse(text).expect("valid spec")
    }

    #[test]
    fn parses_a_full_spec() {
        let config = spec(
            r#"{
              "seed": 7,
              "rules": [
                {"point": "accept", "fault": "drop", "probability": 0.1, "max": 3},
                {"point": "engine", "fault": "latency", "probability": 0.5, "ms": 20},
                {"point": "admission", "fault": "error", "probability": 0.25, "status": 503},
                {"point": "admission", "fault": "shed", "probability": 1.0},
                {"point": "respond", "fault": "drop", "probability": 0.0}
              ]
            }"#,
        );
        assert_eq!(config.seed, 7);
        assert_eq!(config.rules.len(), 5);
        assert_eq!(config.rules[0].max, Some(3));
        assert_eq!(config.rules[1].fault, ChaosFault::Latency { ms: 20 });
        assert_eq!(config.rules[2].fault, ChaosFault::Error { status: 503 });
    }

    #[test]
    fn rejects_schema_drift_with_paths() {
        let cases: [(&str, &str); 8] = [
            (r#"{"rules": []}"#, "seed"),
            (r#"{"seed": 1, "rules": [], "surprise": 1}"#, "surprise"),
            (
                r#"{"seed": 1, "rules": [{"point": "nowhere", "fault": "drop", "probability": 0.1}]}"#,
                "rules[0].point",
            ),
            (
                r#"{"seed": 1, "rules": [{"point": "accept", "fault": "explode", "probability": 0.1}]}"#,
                "rules[0].fault",
            ),
            (
                r#"{"seed": 1, "rules": [{"point": "accept", "fault": "drop", "probability": 1.5}]}"#,
                "rules[0].probability",
            ),
            (
                r#"{"seed": 1, "rules": [{"point": "engine", "fault": "latency", "probability": 0.1}]}"#,
                "ms",
            ),
            (
                r#"{"seed": 1, "rules": [{"point": "engine", "fault": "error", "probability": 0.1, "status": 200}]}"#,
                "rules[0].status",
            ),
            (
                r#"{"seed": 1, "rules": [{"point": "accept", "fault": "drop", "probability": 0.1, "ms": 5}]}"#,
                "rules[0].ms",
            ),
        ];
        for (text, needle) in cases {
            let err = ChaosConfig::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn rejects_faults_the_point_does_not_accept() {
        for (point, fault, extra) in [
            ("accept", "error", r#", "status": 500"#),
            ("accept", "shed", ""),
            ("accept", "panic", ""),
            ("admission", "stall", r#", "ms": 5"#),
            ("admission", "drop", ""),
            ("admission", "panic", ""),
            ("engine", "drop", ""),
            ("engine", "shed", ""),
            ("respond", "error", r#", "status": 500"#),
            ("respond", "stall", r#", "ms": 5"#),
            ("respond", "shed", ""),
            ("respond", "panic", ""),
        ] {
            let text = format!(
                r#"{{"seed": 1, "rules": [{{"point": "{point}", "fault": "{fault}", "probability": 0.5{extra}}}]}}"#
            );
            let err = ChaosConfig::parse(&text).expect_err(&text).to_string();
            assert!(
                err.contains("cannot inject"),
                "{point}/{fault}: got {err:?}"
            );
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_arrival() {
        let text = r#"{
          "seed": 42,
          "rules": [
            {"point": "engine", "fault": "error", "probability": 0.3, "status": 500},
            {"point": "engine", "fault": "latency", "probability": 0.3, "ms": 1}
          ]
        }"#;
        let a = ChaosEngine::new(spec(text));
        let b = ChaosEngine::new(spec(text));
        let schedule_a: Vec<_> = (0..500).map(|_| a.decide(ChaosPoint::Engine)).collect();
        let schedule_b: Vec<_> = (0..500).map(|_| b.decide(ChaosPoint::Engine)).collect();
        assert_eq!(schedule_a, schedule_b);
        assert_eq!(a.fired(), b.fired());
        let fails = schedule_a
            .iter()
            .filter(|d| matches!(d, Some(ChaosAction::Fail { .. })))
            .count();
        // p=0.3 over 500 arrivals: the schedule must be neither empty
        // nor saturated, and the first rule shadows the second.
        assert!((100..200).contains(&fails), "{fails} fails");
        assert!(schedule_a.iter().any(|d| d.is_none()));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let rule = r#""rules": [{"point": "accept", "fault": "drop", "probability": 0.5}]"#;
        let a = ChaosEngine::new(spec(&format!(r#"{{"seed": 1, {rule}}}"#)));
        let b = ChaosEngine::new(spec(&format!(r#"{{"seed": 2, {rule}}}"#)));
        let schedule_a: Vec<_> = (0..256).map(|_| a.decide(ChaosPoint::Accept)).collect();
        let schedule_b: Vec<_> = (0..256).map(|_| b.decide(ChaosPoint::Accept)).collect();
        assert_ne!(schedule_a, schedule_b);
    }

    #[test]
    fn schedule_is_independent_of_arrival_interleaving() {
        // The *set* of firing arrival ordinals is fixed by the hash;
        // racing threads only change which thread observes which
        // ordinal. Summing fired counts across threads must therefore
        // match the sequential run exactly (no max caps here).
        let text = r#"{
          "seed": 9,
          "rules": [{"point": "admission", "fault": "shed", "probability": 0.2}]
        }"#;
        let sequential = ChaosEngine::new(spec(text));
        for _ in 0..400 {
            sequential.decide(ChaosPoint::Admission);
        }
        let concurrent = ChaosEngine::new(spec(text));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        concurrent.decide(ChaosPoint::Admission);
                    }
                });
            }
        });
        assert_eq!(sequential.fired(), concurrent.fired());
    }

    #[test]
    fn max_caps_total_firings_exactly() {
        let engine = ChaosEngine::new(spec(
            r#"{
              "seed": 3,
              "rules": [{"point": "accept", "fault": "drop", "probability": 1.0, "max": 5}]
            }"#,
        ));
        let fired = (0..100)
            .filter(|_| engine.decide(ChaosPoint::Accept).is_some())
            .count();
        assert_eq!(fired, 5);
        assert_eq!(engine.fired(), vec![5]);
    }

    #[test]
    fn zero_probability_never_fires() {
        let engine = ChaosEngine::new(spec(
            r#"{
              "seed": 3,
              "rules": [{"point": "respond", "fault": "drop", "probability": 0.0}]
            }"#,
        ));
        assert!((0..1000).all(|_| engine.decide(ChaosPoint::Respond).is_none()));
    }
}
