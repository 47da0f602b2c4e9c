//! Declarative scenario packs: fleets as data, not code.
//!
//! A scenario is a JSON document (parsed with the workspace's std-only
//! [`hpcfail_obs::json`] reader) describing a fleet to simulate: a
//! name, a seed, and a list of systems that start from one of the two
//! calibrated templates ([`SystemSpec::smp`] / [`SystemSpec::numa`])
//! and override any generation parameter — base rates, event rates,
//! excitation, workload, temperature, and scripted [`Episode`]
//! elevations. New failure phenomenology (a 100k-node fleet, a
//! cascading power event, a firmware-rollout regression wave, a
//! network partition) is therefore a new data file, not new Rust.
//!
//! The parser is strict: unknown keys anywhere, negative rates, empty
//! or zero-node fleets, and out-of-range episodes are typed
//! [`ScenarioError`]s, never panics. [`Scenario::canonical`]
//! re-serializes the *effective* parameters (template + overrides) in
//! a stable key order, so `parse(canonical(s)) == s` and
//! `canonical(parse(canonical(s))) == canonical(s)` byte-for-byte.
//!
//! Four packs ship with the crate ([`builtin_names`]); `hpcfail-serve
//! serve --scenario`, `repro --scenario` and `hpcfail-load` all accept
//! either a pack name or a path to a scenario file.

use crate::sim::GeneratedFleet;
use crate::spec::{
    BaseRates, Episode, EventRates, ExcessCaps, FleetSpec, NeutronSpec, Node0Spec, SystemSpec,
    TemperatureSpec, WorkloadSpec,
};
use hpcfail_obs::json::Json;
use hpcfail_store::{MAX_NODES, MAX_SPAN_DAYS};
use hpcfail_types::prelude::*;
use std::fmt;

/// The scenario schema version this parser understands.
pub const SCENARIO_VERSION: u64 = 1;

/// Seeds must stay exactly representable in the JSON number model
/// (f64), so round-tripping a scenario can never change its fleet.
const MAX_SEED: u64 = 1 << 53;

/// A malformed or invalid scenario document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The document is not valid JSON.
    Json(String),
    /// A value is missing, mistyped or out of range. `path` names the
    /// offending location (e.g. `systems[2].episodes[0].multiplier`).
    Schema {
        /// Where in the document the problem is.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// An object contains a key the schema does not define — usually a
    /// typo that would otherwise silently fall back to a default.
    UnknownKey {
        /// The object containing the stray key.
        path: String,
        /// The stray key itself.
        key: String,
    },
    /// A scenario file could not be read.
    Io {
        /// The path that failed to load.
        path: String,
        /// The I/O error text.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(message) => write!(f, "scenario is not valid JSON: {message}"),
            ScenarioError::Schema { path, message } => {
                write!(f, "invalid scenario at {path}: {message}")
            }
            ScenarioError::UnknownKey { path, key } => {
                write!(f, "unknown key {key:?} in {path}")
            }
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario {path}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which calibrated baseline a scenario system starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// A group-1-style SMP system ([`SystemSpec::smp`]).
    Smp,
    /// A group-2-style NUMA system ([`SystemSpec::numa`]).
    Numa,
}

impl Template {
    /// The wire label (`"smp"` / `"numa"`).
    pub fn label(self) -> &'static str {
        match self {
            Template::Smp => "smp",
            Template::Numa => "numa",
        }
    }

    fn base(self, id: u16, nodes: u32, days: u32) -> SystemSpec {
        match self {
            Template::Smp => SystemSpec::smp(id, nodes, days),
            Template::Numa => SystemSpec::numa(id, nodes, days),
        }
    }
}

/// One system of a scenario: the template it starts from plus the
/// fully resolved generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSystem {
    /// The calibrated baseline the spec was built from.
    pub template: Template,
    /// The effective generation parameters.
    pub spec: SystemSpec,
}

/// A parsed scenario: a named, seeded fleet description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The scenario name (for humans and manifests).
    pub name: String,
    /// What the scenario models.
    pub description: String,
    /// The generation seed baked into the pack, so a pack always
    /// reproduces the same trace.
    pub seed: u64,
    /// The systems to simulate.
    pub systems: Vec<ScenarioSystem>,
    /// The neutron-monitor curve.
    pub neutron: NeutronSpec,
}

/// The scenario packs compiled into the crate, as `(name, JSON)`.
const BUILTIN_PACKS: &[(&str, &str)] = &[
    ("fleet-100k", include_str!("../packs/fleet-100k.json")),
    (
        "cascading-power",
        include_str!("../packs/cascading-power.json"),
    ),
    ("firmware-wave", include_str!("../packs/firmware-wave.json")),
    (
        "network-partition",
        include_str!("../packs/network-partition.json"),
    ),
];

/// Names of the packs compiled into the crate.
pub fn builtin_names() -> impl Iterator<Item = &'static str> {
    BUILTIN_PACKS.iter().map(|(name, _)| *name)
}

/// The JSON source of a builtin pack.
pub fn builtin_source(name: &str) -> Option<&'static str> {
    BUILTIN_PACKS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
}

/// Loads a scenario by builtin pack name or file path.
///
/// # Errors
///
/// [`ScenarioError::Io`] when `name_or_path` is neither a builtin pack
/// nor a readable file, plus everything [`Scenario::parse`] reports.
pub fn load(name_or_path: &str) -> Result<Scenario, ScenarioError> {
    let source = match builtin_source(name_or_path) {
        Some(source) => source.to_owned(),
        None => std::fs::read_to_string(name_or_path).map_err(|e| ScenarioError::Io {
            path: name_or_path.to_owned(),
            message: e.to_string(),
        })?,
    };
    Scenario::parse(&source)
}

impl Scenario {
    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] on malformed JSON, unknown keys, missing
    /// fields, or out-of-range values.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let json =
            hpcfail_obs::json::parse(text).map_err(|e| ScenarioError::Json(e.to_string()))?;
        let o = obj(&json, "scenario")?;
        known_keys(
            o,
            "scenario",
            &[
                "scenario",
                "version",
                "description",
                "seed",
                "systems",
                "neutron",
            ],
        )?;
        let version = require_u64(o, "scenario", "version")?;
        if version != SCENARIO_VERSION {
            return Err(schema(
                "scenario.version",
                format!("unsupported version {version}, expected {SCENARIO_VERSION}"),
            ));
        }
        let name = require_str(o, "scenario", "scenario")?;
        if name.is_empty() {
            return Err(schema("scenario.scenario", "name must not be empty"));
        }
        let description = opt_str(o, "scenario", "description")?.unwrap_or_default();
        let seed = require_u64(o, "scenario", "seed")?;
        if seed > MAX_SEED {
            return Err(schema(
                "scenario.seed",
                format!("seed must be at most 2^53 ({MAX_SEED}), got {seed}"),
            ));
        }
        let systems_json = match o.get("systems") {
            Some(Json::Arr(items)) => items,
            Some(_) => return Err(schema("scenario.systems", "must be an array")),
            None => return Err(schema("scenario", "missing field systems")),
        };
        if systems_json.is_empty() {
            return Err(schema("scenario.systems", "must list at least one system"));
        }
        let mut systems = Vec::with_capacity(systems_json.len());
        let mut total_nodes = 0u64;
        for (i, item) in systems_json.iter().enumerate() {
            let system = parse_system(item, &format!("systems[{i}]"))?;
            total_nodes += u64::from(system.spec.nodes);
            if total_nodes > u64::from(MAX_NODES) {
                return Err(schema(
                    format!("systems[{i}].nodes"),
                    format!(
                        "{} nodes take the fleet to {total_nodes}, over the limit of {MAX_NODES}",
                        system.spec.nodes
                    ),
                ));
            }
            systems.push(system);
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &systems {
            if !seen.insert(s.spec.id) {
                return Err(schema(
                    "scenario.systems",
                    format!("duplicate system id {}", s.spec.id),
                ));
            }
        }
        let neutron = match o.get("neutron") {
            Some(j) => parse_neutron(j, "neutron")?,
            None => NeutronSpec::default(),
        };
        Ok(Scenario {
            name: name.to_owned(),
            description,
            seed,
            systems,
            neutron,
        })
    }

    /// The fleet this scenario describes.
    pub fn fleet(&self) -> FleetSpec {
        FleetSpec {
            systems: self.systems.iter().map(|s| s.spec.clone()).collect(),
            neutron: self.neutron,
        }
    }

    /// Generates the scenario's trace with its baked-in seed.
    pub fn generate(&self) -> GeneratedFleet {
        self.fleet().generate(self.seed)
    }

    /// Serializes the scenario with every *effective* parameter spelled
    /// out, in stable (sorted) key order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::Str(self.name.clone())),
            ("version", Json::Num(SCENARIO_VERSION as f64)),
            ("description", Json::Str(self.description.clone())),
            ("seed", num_u64(self.seed)),
            (
                "systems",
                Json::Arr(self.systems.iter().map(system_to_json).collect()),
            ),
            ("neutron", neutron_to_json(&self.neutron)),
        ])
    }

    /// The canonical text form: [`Scenario::to_json`] pretty-printed.
    /// Parsing the canonical form yields an equal scenario, and
    /// re-canonicalizing it reproduces the same bytes.
    pub fn canonical(&self) -> String {
        self.to_json().pretty()
    }
}

fn schema(path: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema {
        path: path.into(),
        message: message.into(),
    }
}

/// `json` itself, when it is an object: the field readers below look
/// keys up with [`Json::get`].
fn obj<'a>(json: &'a Json, path: &str) -> Result<&'a Json, ScenarioError> {
    match json {
        Json::Obj(_) => Ok(json),
        _ => Err(schema(path, "must be an object")),
    }
}

fn known_keys(map: &Json, path: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    let Json::Obj(fields) = map else {
        return Ok(());
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_ref()) {
            return Err(ScenarioError::UnknownKey {
                path: path.to_owned(),
                key: key.to_string(),
            });
        }
    }
    Ok(())
}

fn require_str<'a>(map: &'a Json, path: &str, key: &str) -> Result<&'a str, ScenarioError> {
    match map.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(schema(format!("{path}.{key}"), "must be a string")),
        None => Err(schema(path, format!("missing field {key}"))),
    }
}

fn opt_str(map: &Json, path: &str, key: &str) -> Result<Option<String>, ScenarioError> {
    match map.get(key) {
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(schema(format!("{path}.{key}"), "must be a string")),
        None => Ok(None),
    }
}

fn require_u64(map: &Json, path: &str, key: &str) -> Result<u64, ScenarioError> {
    match map.get(key) {
        Some(v) => v.as_u64().ok_or_else(|| {
            schema(
                format!("{path}.{key}"),
                "must be a non-negative whole number",
            )
        }),
        None => Err(schema(path, format!("missing field {key}"))),
    }
}

fn opt_u64(map: &Json, path: &str, key: &str) -> Result<Option<u64>, ScenarioError> {
    match map.get(key) {
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            schema(
                format!("{path}.{key}"),
                "must be a non-negative whole number",
            )
        }),
        None => Ok(None),
    }
}

/// A finite, non-negative number.
fn opt_rate(map: &Json, path: &str, key: &str) -> Result<Option<f64>, ScenarioError> {
    match map.get(key) {
        Some(v) => match v.as_f64() {
            Some(n) if n.is_finite() && n >= 0.0 => Ok(Some(n)),
            _ => Err(schema(
                format!("{path}.{key}"),
                "must be a finite non-negative number",
            )),
        },
        None => Ok(None),
    }
}

/// A finite, strictly positive number.
fn opt_positive(map: &Json, path: &str, key: &str) -> Result<Option<f64>, ScenarioError> {
    match opt_rate(map, path, key)? {
        Some(n) if n > 0.0 => Ok(Some(n)),
        Some(_) => Err(schema(format!("{path}.{key}"), "must be greater than zero")),
        None => Ok(None),
    }
}

/// A number in `[0, 1]`.
fn opt_fraction(map: &Json, path: &str, key: &str) -> Result<Option<f64>, ScenarioError> {
    match opt_rate(map, path, key)? {
        Some(n) if n <= 1.0 => Ok(Some(n)),
        Some(_) => Err(schema(format!("{path}.{key}"), "must be between 0 and 1")),
        None => Ok(None),
    }
}

fn opt_bool(map: &Json, path: &str, key: &str) -> Result<Option<bool>, ScenarioError> {
    match map.get(key) {
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(schema(format!("{path}.{key}"), "must be a boolean")),
        None => Ok(None),
    }
}

/// An inclusive `[first, last]` range encoded as a two-element array.
fn range_field(map: &Json, path: &str, key: &str) -> Result<(u32, u32), ScenarioError> {
    let field = format!("{path}.{key}");
    let items = match map.get(key) {
        Some(Json::Arr(items)) if items.len() == 2 => items,
        Some(_) => return Err(schema(field, "must be a two-element [first, last] array")),
        None => return Err(schema(path, format!("missing field {key}"))),
    };
    let mut bounds = [0u32; 2];
    for (i, item) in items.iter().enumerate() {
        bounds[i] = item
            .as_u64()
            .filter(|&n| n <= u64::from(u32::MAX))
            .ok_or_else(|| schema(&field, "entries must be non-negative whole numbers"))?
            as u32;
    }
    if bounds[0] > bounds[1] {
        return Err(schema(field, "first must not exceed last"));
    }
    Ok((bounds[0], bounds[1]))
}

fn parse_system(json: &Json, path: &str) -> Result<ScenarioSystem, ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &[
            "id",
            "template",
            "name",
            "nodes",
            "days",
            "procs_per_node",
            "rates",
            "frailty_shape",
            "node0",
            "events",
            "undetermined_fraction",
            "workload",
            "temperature",
            "has_layout",
            "cpu_soft_fraction",
            "excitation_scale",
            "excess_caps",
            "event_peak_scale",
            "episodes",
        ],
    )?;
    let id = require_u64(o, path, "id")?;
    if id > u64::from(u16::MAX) {
        return Err(schema(format!("{path}.id"), "must fit in 16 bits"));
    }
    let template = match require_str(o, path, "template")? {
        "smp" => Template::Smp,
        "numa" => Template::Numa,
        other => {
            return Err(schema(
                format!("{path}.template"),
                format!("unknown template {other:?}, expected smp or numa"),
            ))
        }
    };
    let nodes = require_u64(o, path, "nodes")?;
    if nodes == 0 {
        return Err(schema(
            format!("{path}.nodes"),
            "must have at least one node",
        ));
    }
    if nodes > u64::from(u32::MAX) {
        return Err(schema(format!("{path}.nodes"), "must fit in 32 bits"));
    }
    let days = require_u64(o, path, "days")?;
    if days == 0 {
        return Err(schema(
            format!("{path}.days"),
            "must observe at least one day",
        ));
    }
    if days > MAX_SPAN_DAYS as u64 {
        return Err(schema(
            format!("{path}.days"),
            format!("{days} days is over the limit of {MAX_SPAN_DAYS}"),
        ));
    }

    let mut spec = template.base(id as u16, nodes as u32, days as u32);
    if let Some(name) = opt_str(o, path, "name")? {
        if name.is_empty() {
            return Err(schema(format!("{path}.name"), "must not be empty"));
        }
        spec.name = name;
    }
    if let Some(procs) = opt_u64(o, path, "procs_per_node")? {
        if procs == 0 || procs > u64::from(u32::MAX) {
            return Err(schema(
                format!("{path}.procs_per_node"),
                "must be a positive 32-bit count",
            ));
        }
        spec.procs_per_node = procs as u32;
    }
    if let Some(rates) = o.get("rates") {
        parse_rates(rates, &format!("{path}.rates"), &mut spec.rates)?;
    }
    if let Some(v) = opt_positive(o, path, "frailty_shape")? {
        spec.frailty_shape = v;
    }
    if let Some(node0) = o.get("node0") {
        parse_node0(node0, &format!("{path}.node0"), &mut spec.node0)?;
    }
    if let Some(events) = o.get("events") {
        parse_events(events, &format!("{path}.events"), &mut spec.events)?;
    }
    if let Some(v) = opt_fraction(o, path, "undetermined_fraction")? {
        spec.undetermined_fraction = v;
    }
    if let Some(workload) = o.get("workload") {
        spec.workload = Some(parse_workload(workload, &format!("{path}.workload"))?);
    }
    if let Some(temperature) = o.get("temperature") {
        spec.temperature = Some(parse_temperature(
            temperature,
            &format!("{path}.temperature"),
        )?);
    }
    if let Some(v) = opt_bool(o, path, "has_layout")? {
        spec.has_layout = v;
    }
    if let Some(v) = opt_fraction(o, path, "cpu_soft_fraction")? {
        spec.cpu_soft_fraction = v;
    }
    if let Some(v) = opt_rate(o, path, "excitation_scale")? {
        spec.excitation_scale = v;
    }
    if let Some(caps) = o.get("excess_caps") {
        parse_caps(caps, &format!("{path}.excess_caps"), &mut spec.excess_caps)?;
    }
    if let Some(v) = opt_rate(o, path, "event_peak_scale")? {
        spec.event_peak_scale = v;
    }
    if let Some(episodes) = o.get("episodes") {
        let Json::Arr(items) = episodes else {
            return Err(schema(format!("{path}.episodes"), "must be an array"));
        };
        for (i, item) in items.iter().enumerate() {
            spec.episodes.push(parse_episode(
                item,
                &format!("{path}.episodes[{i}]"),
                spec.nodes,
                spec.days,
            )?);
        }
    }
    Ok(ScenarioSystem { template, spec })
}

fn parse_rates(json: &Json, path: &str, rates: &mut BaseRates) -> Result<(), ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &["hardware", "software", "network", "human", "environment"],
    )?;
    for (key, slot) in [
        ("hardware", &mut rates.hardware),
        ("software", &mut rates.software),
        ("network", &mut rates.network),
        ("human", &mut rates.human),
        ("environment", &mut rates.environment),
    ] {
        if let Some(v) = opt_rate(o, path, key)? {
            *slot = v;
        }
    }
    Ok(())
}

fn parse_node0(json: &Json, path: &str, node0: &mut Node0Spec) -> Result<(), ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &[
            "environment",
            "network",
            "software",
            "hardware",
            "human",
            "logs_cluster_events",
        ],
    )?;
    for (key, slot) in [
        ("environment", &mut node0.environment),
        ("network", &mut node0.network),
        ("software", &mut node0.software),
        ("hardware", &mut node0.hardware),
        ("human", &mut node0.human),
    ] {
        if let Some(v) = opt_rate(o, path, key)? {
            *slot = v;
        }
    }
    if let Some(v) = opt_fraction(o, path, "logs_cluster_events")? {
        node0.logs_cluster_events = v;
    }
    Ok(())
}

fn parse_events(json: &Json, path: &str, events: &mut EventRates) -> Result<(), ScenarioError> {
    let o = obj(json, path)?;
    known_keys(o, path, &["power_outage", "power_spike", "ups", "chiller"])?;
    for (key, slot) in [
        ("power_outage", &mut events.power_outage),
        ("power_spike", &mut events.power_spike),
        ("ups", &mut events.ups),
        ("chiller", &mut events.chiller),
    ] {
        if let Some(v) = opt_rate(o, path, key)? {
            *slot = v;
        }
    }
    Ok(())
}

fn parse_caps(json: &Json, path: &str, caps: &mut ExcessCaps) -> Result<(), ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &["environment", "hardware", "software", "network", "human"],
    )?;
    for (key, slot) in [
        ("environment", &mut caps.environment),
        ("hardware", &mut caps.hardware),
        ("software", &mut caps.software),
        ("network", &mut caps.network),
        ("human", &mut caps.human),
    ] {
        if let Some(v) = opt_rate(o, path, key)? {
            *slot = v;
        }
    }
    Ok(())
}

fn parse_workload(json: &Json, path: &str) -> Result<WorkloadSpec, ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &[
            "users",
            "jobs_per_day",
            "mean_runtime_hours",
            "user_activity_shape",
            "user_risk_sigma",
            "node0_inclusion",
        ],
    )?;
    let mut spec = WorkloadSpec::default();
    if let Some(users) = opt_u64(o, path, "users")? {
        if users == 0 || users > u64::from(u32::MAX) {
            return Err(schema(
                format!("{path}.users"),
                "must be a positive 32-bit count",
            ));
        }
        spec.users = users as u32;
    }
    if let Some(v) = opt_rate(o, path, "jobs_per_day")? {
        spec.jobs_per_day = v;
    }
    if let Some(v) = opt_positive(o, path, "mean_runtime_hours")? {
        spec.mean_runtime_hours = v;
    }
    if let Some(v) = opt_positive(o, path, "user_activity_shape")? {
        spec.user_activity_shape = v;
    }
    if let Some(v) = opt_rate(o, path, "user_risk_sigma")? {
        spec.user_risk_sigma = v;
    }
    if let Some(v) = opt_fraction(o, path, "node0_inclusion")? {
        spec.node0_inclusion = v;
    }
    Ok(spec)
}

fn parse_temperature(json: &Json, path: &str) -> Result<TemperatureSpec, ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &[
            "samples_per_day",
            "base_celsius",
            "per_position",
            "noise_sigma",
        ],
    )?;
    let mut spec = TemperatureSpec::default();
    if let Some(samples) = opt_u64(o, path, "samples_per_day")? {
        if samples == 0 || samples > u64::from(u32::MAX) {
            return Err(schema(
                format!("{path}.samples_per_day"),
                "must be a positive 32-bit count",
            ));
        }
        spec.samples_per_day = samples as u32;
    }
    if let Some(v) = opt_rate(o, path, "base_celsius")? {
        spec.base_celsius = v;
    }
    if let Some(v) = opt_rate(o, path, "per_position")? {
        spec.per_position = v;
    }
    if let Some(v) = opt_rate(o, path, "noise_sigma")? {
        spec.noise_sigma = v;
    }
    Ok(spec)
}

fn parse_neutron(json: &Json, path: &str) -> Result<NeutronSpec, ScenarioError> {
    let o = obj(json, path)?;
    known_keys(
        o,
        path,
        &[
            "mean_counts",
            "cycle_amplitude",
            "cycle_days",
            "noise_sigma",
            "flares_per_year",
            "samples_per_day",
        ],
    )?;
    let mut spec = NeutronSpec::default();
    if let Some(v) = opt_positive(o, path, "mean_counts")? {
        spec.mean_counts = v;
    }
    if let Some(v) = opt_rate(o, path, "cycle_amplitude")? {
        spec.cycle_amplitude = v;
    }
    if let Some(v) = opt_positive(o, path, "cycle_days")? {
        spec.cycle_days = v;
    }
    if let Some(v) = opt_rate(o, path, "noise_sigma")? {
        spec.noise_sigma = v;
    }
    if let Some(v) = opt_rate(o, path, "flares_per_year")? {
        spec.flares_per_year = v;
    }
    if let Some(samples) = opt_u64(o, path, "samples_per_day")? {
        if samples == 0 || samples > u64::from(u32::MAX) {
            return Err(schema(
                format!("{path}.samples_per_day"),
                "must be a positive 32-bit count",
            ));
        }
        spec.samples_per_day = samples as u32;
    }
    Ok(spec)
}

fn channel_label(channel: RootCause) -> Option<&'static str> {
    match channel {
        RootCause::Hardware => Some("hardware"),
        RootCause::Software => Some("software"),
        RootCause::Network => Some("network"),
        RootCause::HumanError => Some("human"),
        RootCause::Environment => Some("environment"),
        RootCause::Undetermined => None,
    }
}

fn parse_episode(json: &Json, path: &str, nodes: u32, days: u32) -> Result<Episode, ScenarioError> {
    let o = obj(json, path)?;
    known_keys(o, path, &["days", "nodes", "channel", "multiplier"])?;
    let (first_day, last_day) = range_field(o, path, "days")?;
    if first_day >= days {
        return Err(schema(
            format!("{path}.days"),
            format!("starts on day {first_day}, past the {days}-day observation span"),
        ));
    }
    let (first_node, last_node) = range_field(o, path, "nodes")?;
    if last_node >= nodes {
        return Err(schema(
            format!("{path}.nodes"),
            format!("node {last_node} is outside the {nodes}-node system"),
        ));
    }
    let channel = match require_str(o, path, "channel")? {
        "hardware" => RootCause::Hardware,
        "software" => RootCause::Software,
        "network" => RootCause::Network,
        "human" => RootCause::HumanError,
        "environment" => RootCause::Environment,
        other => {
            return Err(schema(
                format!("{path}.channel"),
                format!(
                    "unknown channel {other:?}, expected hardware, software, network, human or environment"
                ),
            ))
        }
    };
    let multiplier = match opt_positive(o, path, "multiplier")? {
        Some(m) => m,
        None => return Err(schema(path, "missing field multiplier")),
    };
    Ok(Episode {
        first_day,
        last_day,
        first_node,
        last_node,
        channel,
        multiplier,
    })
}

fn num_u64(n: u64) -> Json {
    Json::Num(n as f64)
}

fn num_u32(n: u32) -> Json {
    Json::Num(f64::from(n))
}

fn system_to_json(system: &ScenarioSystem) -> Json {
    let spec = &system.spec;
    let mut fields = vec![
        ("id", num_u64(u64::from(spec.id))),
        ("template", Json::Str(system.template.label().to_owned())),
        ("name", Json::Str(spec.name.clone())),
        ("nodes", num_u32(spec.nodes)),
        ("days", num_u32(spec.days)),
        ("procs_per_node", num_u32(spec.procs_per_node)),
        (
            "rates",
            Json::obj([
                ("hardware", Json::Num(spec.rates.hardware)),
                ("software", Json::Num(spec.rates.software)),
                ("network", Json::Num(spec.rates.network)),
                ("human", Json::Num(spec.rates.human)),
                ("environment", Json::Num(spec.rates.environment)),
            ]),
        ),
        ("frailty_shape", Json::Num(spec.frailty_shape)),
        (
            "node0",
            Json::obj([
                ("environment", Json::Num(spec.node0.environment)),
                ("network", Json::Num(spec.node0.network)),
                ("software", Json::Num(spec.node0.software)),
                ("hardware", Json::Num(spec.node0.hardware)),
                ("human", Json::Num(spec.node0.human)),
                (
                    "logs_cluster_events",
                    Json::Num(spec.node0.logs_cluster_events),
                ),
            ]),
        ),
        (
            "events",
            Json::obj([
                ("power_outage", Json::Num(spec.events.power_outage)),
                ("power_spike", Json::Num(spec.events.power_spike)),
                ("ups", Json::Num(spec.events.ups)),
                ("chiller", Json::Num(spec.events.chiller)),
            ]),
        ),
        (
            "undetermined_fraction",
            Json::Num(spec.undetermined_fraction),
        ),
        ("has_layout", Json::Bool(spec.has_layout)),
        ("cpu_soft_fraction", Json::Num(spec.cpu_soft_fraction)),
        ("excitation_scale", Json::Num(spec.excitation_scale)),
        (
            "excess_caps",
            Json::obj([
                ("environment", Json::Num(spec.excess_caps.environment)),
                ("hardware", Json::Num(spec.excess_caps.hardware)),
                ("software", Json::Num(spec.excess_caps.software)),
                ("network", Json::Num(spec.excess_caps.network)),
                ("human", Json::Num(spec.excess_caps.human)),
            ]),
        ),
        ("event_peak_scale", Json::Num(spec.event_peak_scale)),
        (
            "episodes",
            Json::Arr(spec.episodes.iter().map(episode_to_json).collect()),
        ),
    ];
    if let Some(w) = &spec.workload {
        fields.push((
            "workload",
            Json::obj([
                ("users", num_u32(w.users)),
                ("jobs_per_day", Json::Num(w.jobs_per_day)),
                ("mean_runtime_hours", Json::Num(w.mean_runtime_hours)),
                ("user_activity_shape", Json::Num(w.user_activity_shape)),
                ("user_risk_sigma", Json::Num(w.user_risk_sigma)),
                ("node0_inclusion", Json::Num(w.node0_inclusion)),
            ]),
        ));
    }
    if let Some(t) = &spec.temperature {
        fields.push((
            "temperature",
            Json::obj([
                ("samples_per_day", num_u32(t.samples_per_day)),
                ("base_celsius", Json::Num(t.base_celsius)),
                ("per_position", Json::Num(t.per_position)),
                ("noise_sigma", Json::Num(t.noise_sigma)),
            ]),
        ));
    }
    Json::obj(fields)
}

fn episode_to_json(e: &Episode) -> Json {
    Json::obj([
        (
            "days",
            Json::Arr(vec![num_u32(e.first_day), num_u32(e.last_day)]),
        ),
        (
            "nodes",
            Json::Arr(vec![num_u32(e.first_node), num_u32(e.last_node)]),
        ),
        (
            "channel",
            Json::Str(channel_label(e.channel).unwrap_or("hardware").to_owned()),
        ),
        ("multiplier", Json::Num(e.multiplier)),
    ])
}

fn neutron_to_json(n: &NeutronSpec) -> Json {
    Json::obj([
        ("mean_counts", Json::Num(n.mean_counts)),
        ("cycle_amplitude", Json::Num(n.cycle_amplitude)),
        ("cycle_days", Json::Num(n.cycle_days)),
        ("noise_sigma", Json::Num(n.noise_sigma)),
        ("flares_per_year", Json::Num(n.flares_per_year)),
        ("samples_per_day", num_u32(n.samples_per_day)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_template_defaults() {
        let s = Scenario::parse(
            r#"{
                "scenario": "mini",
                "version": 1,
                "seed": 7,
                "systems": [
                    {"id": 9, "template": "smp", "nodes": 4, "days": 30}
                ]
            }"#,
        )
        .expect("parses");
        assert_eq!(s.name, "mini");
        assert_eq!(s.seed, 7);
        let base = SystemSpec::smp(9, 4, 30);
        assert_eq!(s.systems[0].spec, base);
        assert_eq!(s.neutron, NeutronSpec::default());
    }

    #[test]
    fn canonical_is_a_fixpoint() {
        let s = Scenario::parse(
            r#"{
                "scenario": "mini",
                "version": 1,
                "seed": 7,
                "systems": [
                    {"id": 9, "template": "numa", "nodes": 4, "days": 30,
                     "rates": {"network": 0.5},
                     "episodes": [
                        {"days": [3, 9], "nodes": [0, 1],
                         "channel": "network", "multiplier": 12.5}
                     ]}
                ]
            }"#,
        )
        .expect("parses");
        let canon = s.canonical();
        let reparsed = Scenario::parse(&canon).expect("canonical parses");
        assert_eq!(reparsed, s);
        assert_eq!(reparsed.canonical(), canon);
    }

    #[test]
    fn unknown_key_is_typed() {
        let err = Scenario::parse(
            r#"{"scenario": "x", "version": 1, "seed": 1, "bogus": true,
                "systems": [{"id": 1, "template": "smp", "nodes": 1, "days": 1}]}"#,
        )
        .expect_err("rejects");
        assert_eq!(
            err,
            ScenarioError::UnknownKey {
                path: "scenario".to_owned(),
                key: "bogus".to_owned(),
            }
        );
    }

    #[test]
    fn episodes_need_valid_ranges() {
        let err = Scenario::parse(
            r#"{"scenario": "x", "version": 1, "seed": 1,
                "systems": [{"id": 1, "template": "smp", "nodes": 4, "days": 10,
                  "episodes": [{"days": [0, 3], "nodes": [0, 9],
                                "channel": "hardware", "multiplier": 2}]}]}"#,
        )
        .expect_err("rejects");
        assert!(matches!(err, ScenarioError::Schema { .. }), "{err}");
    }
}
