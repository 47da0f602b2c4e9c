//! Satellite guarantee: scenario packs are well-behaved data.
//!
//! Every builtin pack must parse, re-serialize canonically (the
//! canonical form is a fixpoint, so a pack can be normalized once and
//! committed), and generate a non-trivial trace whose episodes are
//! visible in the failure record. Malformed documents — unknown keys,
//! negative rates, zero nodes, out-of-range episodes — must come back
//! as typed [`ScenarioError`]s, never panics, and so must arbitrary
//! text and single-byte or single-field mutations of the packs.

use hpcfail_obs::json::Json;
use hpcfail_store::snapshot::{decode_snapshot, snapshot_bytes};
use hpcfail_store::{MAX_NODES, MAX_SPAN_DAYS};
use hpcfail_synth::scenario::{self, Scenario, ScenarioError};
use hpcfail_types::ids::SystemId;
use proptest::prelude::*;

const PACKS: [&str; 4] = [
    "fleet-100k",
    "cascading-power",
    "firmware-wave",
    "network-partition",
];

#[test]
fn builtin_pack_registry_is_complete() {
    let mut names: Vec<&str> = scenario::builtin_names().collect();
    names.sort_unstable();
    let mut expected = PACKS.to_vec();
    expected.sort_unstable();
    assert_eq!(names, expected);
}

#[test]
fn builtin_packs_round_trip_canonically() {
    for pack in PACKS {
        let scenario = scenario::load(pack).expect(pack);
        assert_eq!(scenario.name, pack);
        let canonical = scenario.canonical();
        let reparsed = Scenario::parse(&canonical)
            .unwrap_or_else(|e| panic!("{pack}: canonical form must parse: {e}"));
        assert_eq!(reparsed, scenario, "{pack}: parse∘canonical is identity");
        assert_eq!(
            reparsed.canonical(),
            canonical,
            "{pack}: canonical is a fixpoint"
        );
    }
}

#[test]
fn packs_load_from_paths_too() {
    let scenario = scenario::load("crates/synth/packs/firmware-wave.json")
        .or_else(|_| scenario::load("packs/firmware-wave.json"))
        .expect("pack loads from its file path");
    assert_eq!(scenario.name, "firmware-wave");
    assert_eq!(
        scenario,
        scenario::load("firmware-wave").expect("builtin loads")
    );
    assert!(matches!(
        scenario::load("no-such-pack-or-file"),
        Err(ScenarioError::Io { .. })
    ));
}

#[test]
fn episodes_shape_the_generated_hazard() {
    // 40x network hazard on the first half of the nodes for one week
    // must concentrate network failures there; the same spec without
    // episodes stays roughly balanced.
    let base = r#"{
        "scenario": "episode-probe",
        "version": 1,
        "seed": 404,
        "systems": [
            {"id": 7, "template": "smp", "nodes": 64, "days": 365EPISODES}
        ]
    }"#;
    let with_episodes = base.replace(
        "EPISODES",
        r#",
            "episodes": [
                {"days": [100, 140], "nodes": [0, 31],
                 "channel": "network", "multiplier": 40}
            ]"#,
    );
    let without_episodes = base.replace("EPISODES", "");

    let count_network_by_half = |text: &str| {
        let trace = Scenario::parse(text)
            .expect("probe parses")
            .generate()
            .into_store();
        let system = trace.system(SystemId::new(7)).expect("system 7");
        let mut lower = 0u64;
        let mut upper = 0u64;
        for failure in system.failures() {
            if failure.root_cause == hpcfail_types::failure::RootCause::Network {
                if failure.node.raw() < 32 {
                    lower += 1;
                } else {
                    upper += 1;
                }
            }
        }
        (lower, upper)
    };

    let (lower_with, upper_with) = count_network_by_half(&with_episodes);
    let (lower_without, upper_without) = count_network_by_half(&without_episodes);
    assert!(
        lower_with > upper_with * 2,
        "episode must skew network failures to nodes 0-31: {lower_with} vs {upper_with}"
    );
    assert!(
        lower_with > lower_without * 2,
        "episode must add failures over the baseline: {lower_with} vs {lower_without}"
    );
    // And the untouched half stays at baseline scale.
    assert!(
        upper_with < lower_without.max(upper_without) * 3 + 30,
        "untouched nodes must stay near baseline: {upper_with}"
    );
}

fn parse_err(text: &str) -> ScenarioError {
    Scenario::parse(text).expect_err("document must be rejected")
}

fn probe(system_fields: &str) -> String {
    format!(
        r#"{{"scenario": "probe", "version": 1, "seed": 1,
            "systems": [{{"id": 3, "template": "smp", "nodes": 8, "days": 30{system_fields}}}]}}"#
    )
}

#[test]
fn rejection_battery_returns_typed_errors() {
    // Malformed JSON.
    assert!(matches!(parse_err("{"), ScenarioError::Json(_)));
    assert!(matches!(parse_err("[1, 2]"), ScenarioError::Schema { .. }));

    // Unknown keys, at every level, with a path.
    match parse_err(
        r#"{"scenario": "x", "version": 1, "seed": 1, "extra": 1,
            "systems": [{"id": 1, "template": "smp", "nodes": 1, "days": 1}]}"#,
    ) {
        ScenarioError::UnknownKey { path, key } => {
            assert_eq!(path, "scenario");
            assert_eq!(key, "extra");
        }
        other => panic!("expected UnknownKey, got {other}"),
    }
    match parse_err(&probe(r#", "turbo": true"#)) {
        ScenarioError::UnknownKey { path, key } => {
            assert_eq!(path, "systems[0]");
            assert_eq!(key, "turbo");
        }
        other => panic!("expected UnknownKey, got {other}"),
    }
    match parse_err(&probe(
        r#", "episodes": [{"days": [1, 2], "nodes": [0, 1],
            "channel": "hardware", "multiplier": 2, "color": "red"}]"#,
    )) {
        ScenarioError::UnknownKey { path, key } => {
            assert_eq!(path, "systems[0].episodes[0]");
            assert_eq!(key, "color");
        }
        other => panic!("expected UnknownKey, got {other}"),
    }

    // Version and structure.
    assert!(matches!(
        parse_err(r#"{"scenario": "x", "version": 2, "seed": 1, "systems": []}"#),
        ScenarioError::Schema { .. }
    ));
    assert!(matches!(
        parse_err(r#"{"scenario": "x", "version": 1, "seed": 1, "systems": []}"#),
        ScenarioError::Schema { .. }
    ));

    // Out-of-range values: each must be a Schema error naming a path.
    let bad_fields = [
        r#", "rates": {"hardware": -0.5}"#,           // negative rate
        r#", "rates": {"hardware": 1e400}"#,          // non-finite rate
        r#", "undetermined_fraction": 1.5"#,          // fraction > 1
        r#", "frailty_shape": 0"#,                    // non-positive shape
        r#", "excitation_scale": -1"#,                // negative scale
        r#", "events": {"chiller": -0.1}"#,           // negative event rate
        r#", "workload": {"users": 0}"#,              // zero users
        r#", "temperature": {"samples_per_day": 0}"#, // zero samples
        // episode day range beyond the observation span
        r#", "episodes": [{"days": [40, 50], "nodes": [0, 1],
             "channel": "hardware", "multiplier": 2}]"#,
        // episode node range beyond the system
        r#", "episodes": [{"days": [1, 2], "nodes": [0, 64],
             "channel": "hardware", "multiplier": 2}]"#,
        // zero multiplier
        r#", "episodes": [{"days": [1, 2], "nodes": [0, 1],
             "channel": "hardware", "multiplier": 0}]"#,
        // unknown channel
        r#", "episodes": [{"days": [1, 2], "nodes": [0, 1],
             "channel": "gremlins", "multiplier": 2}]"#,
    ];
    for fields in bad_fields {
        match parse_err(&probe(fields)) {
            ScenarioError::Schema { path, .. } => {
                assert!(
                    path.starts_with("systems[0]"),
                    "path {path:?} for {fields:?}"
                );
            }
            other => panic!("expected Schema error for {fields:?}, got {other}"),
        }
    }

    // Zero nodes / zero days / duplicate ids at the system level.
    assert!(matches!(
        parse_err(
            r#"{"scenario": "x", "version": 1, "seed": 1,
                "systems": [{"id": 1, "template": "smp", "nodes": 0, "days": 1}]}"#
        ),
        ScenarioError::Schema { .. }
    ));
    assert!(matches!(
        parse_err(
            r#"{"scenario": "x", "version": 1, "seed": 1,
                "systems": [{"id": 1, "template": "smp", "nodes": 1, "days": 0}]}"#
        ),
        ScenarioError::Schema { .. }
    ));
    assert!(matches!(
        parse_err(
            r#"{"scenario": "x", "version": 1, "seed": 1, "systems": [
                {"id": 1, "template": "smp", "nodes": 1, "days": 1},
                {"id": 1, "template": "numa", "nodes": 1, "days": 1}]}"#
        ),
        ScenarioError::Schema { .. }
    ));
    assert!(matches!(
        parse_err(&probe("").replace("\"smp\"", "\"mainframe\"")),
        ScenarioError::Schema { .. }
    ));
}

/// Every shipped pack's trace fits the store's node limit, so its
/// snapshot decodes back to the same trace.
#[test]
fn every_builtin_pack_round_trips_through_a_snapshot() {
    for pack in PACKS {
        let trace = scenario::load(pack).expect(pack).generate().into_store();
        let decoded = decode_snapshot(&snapshot_bytes(&trace))
            .unwrap_or_else(|e| panic!("{pack}: snapshot must decode: {e}"));
        assert_eq!(decoded.fingerprint(), trace.fingerprint(), "{pack}");
    }
}

/// A pack that declares more nodes than a trace may hold, alone or
/// summed over its systems, is refused at parse time with a typed error
/// naming the system that crosses the limit.
#[test]
fn packs_over_the_node_limit_are_refused_at_parse_time() {
    let fleet = |nodes: &[u64]| {
        let systems: Vec<String> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| format!(r#"{{"id": {i}, "template": "smp", "nodes": {n}, "days": 1}}"#))
            .collect();
        format!(
            r#"{{"scenario": "x", "version": 1, "seed": 1, "systems": [{}]}}"#,
            systems.join(", ")
        )
    };
    let max = u64::from(MAX_NODES);
    assert!(Scenario::parse(&fleet(&[max])).is_ok());
    assert!(Scenario::parse(&fleet(&[max / 2, max / 2])).is_ok());
    for (nodes, system) in [
        (vec![max + 1], 0),
        (vec![max / 2, max / 2 + 1], 1),
        (vec![1, max, 1], 1),
        (vec![u64::from(u32::MAX)], 0),
    ] {
        match parse_err(&fleet(&nodes)) {
            ScenarioError::Schema { path, message } => {
                assert_eq!(path, format!("systems[{system}].nodes"), "{nodes:?}");
                assert!(message.contains("over the limit"), "{message}");
            }
            other => panic!("expected a Schema error for {nodes:?}, got {other}"),
        }
    }
}

/// A pack that observes a system for longer than a trace may span is
/// refused at parse time with a typed error naming that system's days.
#[test]
fn packs_over_the_span_limit_are_refused_at_parse_time() {
    let fleet = |days: u64| {
        format!(
            r#"{{"scenario": "x", "version": 1, "seed": 1, "systems": [
                {{"id": 1, "template": "smp", "nodes": 4, "days": 30}},
                {{"id": 2, "template": "smp", "nodes": 4, "days": {days}}}]}}"#
        )
    };
    let max = MAX_SPAN_DAYS as u64;
    assert!(Scenario::parse(&fleet(max)).is_ok());
    for days in [max + 1, u64::from(u32::MAX), 1 << 53] {
        match parse_err(&fleet(days)) {
            ScenarioError::Schema { path, message } => {
                assert_eq!(path, "systems[1].days", "{days}");
                assert!(message.contains("over the limit"), "{message}");
            }
            other => panic!("expected a Schema error for {days} days, got {other}"),
        }
    }
}

/// Replaces the `n`-th scalar (in document order) of `json` with
/// `value`; returns `false` when the document has `n` or fewer scalars.
fn replace_nth_scalar(json: &mut Json, n: &mut usize, value: &Json) -> bool {
    match json {
        Json::Arr(items) => items.iter_mut().any(|v| replace_nth_scalar(v, n, value)),
        Json::Obj(fields) => fields
            .iter_mut()
            .any(|(_, v)| replace_nth_scalar(v, n, value)),
        scalar => {
            if *n == 0 {
                *scalar = value.clone();
                return true;
            }
            *n -= 1;
            false
        }
    }
}

/// One JSON value of each kind the schema could meet, picked by
/// `kind` and filled from `num` and `text`.
fn json_value(kind: u8, num: f64, text: &[u8]) -> Json {
    match kind % 9 {
        0 => Json::Null,
        1 => Json::Bool(num > 0.0),
        2 => Json::Num(num),
        3 => Json::Num(num.trunc()),
        4 => Json::Num(num * 1e300),
        5 => Json::Num(-num.abs()),
        6 => Json::Str(String::from_utf8_lossy(text).into_owned()),
        7 => Json::Arr(vec![Json::Num(num)]),
        _ => Json::Obj(Default::default()),
    }
}

/// Biases fuzz bytes toward JSON syntax so arbitrary text often gets
/// past the tokenizer into the schema checks.
fn jsonish(raw: Vec<u8>) -> String {
    const PALETTE: &[u8] = b"{}[]:,\"0.-e ";
    let bytes: Vec<u8> = raw
        .into_iter()
        .map(|b| match b % 3 {
            0 => PALETTE[(b as usize / 3) % PALETTE.len()],
            _ => b,
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text parses to a scenario or a typed error, never a
    /// panic.
    #[test]
    fn arbitrary_text_never_panics(raw in prop::collection::vec(0u8..=255, 0..300)) {
        let _ = Scenario::parse(&jsonish(raw));
    }

    /// A shipped pack with one byte changed parses or is refused with a
    /// typed error. Only parsed: a mutated `nodes` or `days` can ask
    /// for a fleet of any size.
    #[test]
    fn single_byte_mutations_of_the_packs_never_panic(
        pack in 0usize..4,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        let source = scenario::builtin_source(PACKS[pack]).expect("builtin");
        let mut bytes = source.as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = Scenario::parse(&String::from_utf8_lossy(&bytes));
    }

    /// A shipped pack with one scalar replaced by a value of any JSON
    /// kind parses or is refused with a typed error, and whatever
    /// parses stays within the node and span limits.
    #[test]
    fn single_field_mutations_of_the_packs_never_panic(
        pack in 0usize..4,
        field in 0usize..400,
        kind in 0u8..9,
        num in -1.0e6f64..1.0e6,
        text in prop::collection::vec(0u8..=255, 0..12),
    ) {
        let source = scenario::builtin_source(PACKS[pack]).expect("builtin");
        let mut json = hpcfail_obs::json::parse(source).expect("pack is JSON");
        let mut n = field % (count_scalars(&json));
        prop_assert!(replace_nth_scalar(&mut json, &mut n, &json_value(kind, num, &text)));
        if let Ok(parsed) = Scenario::parse(&json.pretty()) {
            let nodes: u64 = parsed.systems.iter().map(|s| u64::from(s.spec.nodes)).sum();
            prop_assert!(nodes <= u64::from(MAX_NODES));
            prop_assert!(parsed.systems.iter().all(|s| i64::from(s.spec.days) <= MAX_SPAN_DAYS));
        }
    }
}

fn count_scalars(json: &Json) -> usize {
    match json {
        Json::Arr(items) => items.iter().map(count_scalars).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| count_scalars(v)).sum(),
        _ => 1,
    }
}
