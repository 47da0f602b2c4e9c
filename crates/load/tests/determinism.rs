//! Satellite guarantee: the harness is deterministic.
//!
//! Same seed and mix ⇒ byte-identical planned request sequence and
//! identical per-kind counts — and because the plan is generated
//! before execution, the executed counts cannot depend on how many
//! worker threads later drain it. Both halves are pinned here: the
//! proptest covers the planner across random seeds and mix tweaks,
//! the executor test runs the same plan on 1, 2, and 8 threads.

use std::collections::BTreeMap;

use hpcfail_load::{build_corpus, execute, plan, CorpusSystem, InProcess, MixConfig, RunOptions};
use hpcfail_synth::{FleetSpec, Scenario};
use hpcfail_types::ids::SystemId;
use proptest::prelude::*;

fn corpus_systems() -> Vec<CorpusSystem> {
    vec![
        CorpusSystem {
            id: SystemId::new(2),
            nodes: 49,
        },
        CorpusSystem {
            id: SystemId::new(20),
            nodes: 512,
        },
    ]
}

proptest! {
    /// Planning is a pure function of (profile, seed): two expansions
    /// agree byte-for-byte, and per-kind counts follow.
    #[test]
    fn same_seed_and_mix_is_byte_identical(
        seed in 0u64..u64::MAX,
        profile_index in 0usize..MixConfig::PROFILES.len(),
    ) {
        let mut config = MixConfig::named(MixConfig::PROFILES[profile_index]).unwrap();
        config.seed = seed;
        let corpus = build_corpus(&corpus_systems(), config.corpus_size);
        let a = plan::build(&config, corpus.len()).unwrap();
        let b = plan::build(&config, corpus.len()).unwrap();
        prop_assert_eq!(
            plan::canonical_bytes(&a, &corpus),
            plan::canonical_bytes(&b, &corpus)
        );
        prop_assert_eq!(
            plan::per_kind_counts(&a, &corpus),
            plan::per_kind_counts(&b, &corpus)
        );
    }

    /// A different seed must actually change hot-key traffic (guards
    /// against the RNG being silently ignored).
    #[test]
    fn seed_reaches_the_plan(seed in 0u64..u64::MAX) {
        let config = {
            let mut c = MixConfig::smoke();
            c.seed = seed;
            c
        };
        let other = {
            let mut c = MixConfig::smoke();
            c.seed = seed.wrapping_add(1);
            c
        };
        let corpus = build_corpus(&corpus_systems(), config.corpus_size);
        let a = plan::build(&config, corpus.len()).unwrap();
        let b = plan::build(&other, corpus.len()).unwrap();
        prop_assert!(
            plan::canonical_bytes(&a, &corpus) != plan::canonical_bytes(&b, &corpus),
            "seed change must reach the plan"
        );
    }
}

/// Executing the same plan with 1, 2, or 8 workers issues exactly the
/// planned queries: per-kind counts match the plan on every thread
/// count, with no drops and no duplicates.
#[test]
fn thread_count_does_not_change_executed_traffic() {
    let scenario = Scenario::parse(
        r#"{
            "scenario": "determinism-fixture",
            "version": 1,
            "seed": 11,
            "systems": [
                {"id": 2, "template": "numa", "nodes": 12, "days": 90},
                {"id": 20, "template": "smp", "nodes": 24, "days": 90}
            ]
        }"#,
    )
    .expect("fixture parses");
    let config = MixConfig::smoke();
    let systems = hpcfail_load::systems_from_fleet(&scenario.fleet());
    let corpus = build_corpus(&systems, config.corpus_size);
    let load_plan = plan::build(&config, corpus.len()).expect("smoke profile plans");
    let planned = plan::per_kind_counts(&load_plan, &corpus);

    let mut executed: Vec<BTreeMap<String, u64>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let target = InProcess::new(scenario.generate().into_store(), 1024);
        let stats = execute(
            &corpus,
            &load_plan,
            &config,
            &target,
            RunOptions { threads },
        );
        assert_eq!(
            stats.items,
            load_plan.items.len() as u64,
            "{threads} threads"
        );
        assert_eq!(stats.queries, load_plan.queries as u64, "{threads} threads");
        assert_eq!(stats.errors, 0, "{threads} threads");
        executed.push(stats.executed_per_kind);
    }
    for counts in &executed {
        assert_eq!(counts, &planned, "executed counts must match the plan");
    }
}

/// The ci profile's traffic shape is pinned: over the 0.05-scale LANL
/// fleet it plans 544 items carrying 768 queries drawn from a
/// 512-entry corpus, with this exact per-kind split. A change to the
/// corpus, the mix or the planner moves these numbers and must say so.
#[test]
fn ci_profile_plans_the_pinned_traffic_shape() {
    let config = MixConfig::ci();
    let systems = hpcfail_load::systems_from_fleet(&FleetSpec::lanl_scaled(0.05));
    let corpus = build_corpus(&systems, config.corpus_size);
    assert_eq!(corpus.len(), 512);
    let load_plan = plan::build(&config, corpus.len()).expect("ci profile plans");
    assert_eq!(load_plan.items.len(), 544);
    assert_eq!(load_plan.queries, 768);

    let pinned: BTreeMap<String, u64> = [
        ("alarm-evaluation", 29),
        ("arrival-profile", 30),
        ("availability", 20),
        ("checkpoint-replay", 54),
        ("conditional", 38),
        ("cosmic-correlation", 35),
        ("env-breakdown", 28),
        ("equal-rates-test", 68),
        ("fleet-conditional", 20),
        ("heaviest-users", 30),
        ("maintenance-after-power", 54),
        ("node-failure-counts", 2),
        ("node-vs-rest", 62),
        ("power-conditional", 26),
        ("regression-study", 19),
        ("root-cause-shares", 35),
        ("same-type-summaries", 33),
        ("temperature-regression", 26),
        ("trace-summary", 151),
        ("usage-correlations", 8),
    ]
    .into_iter()
    .map(|(kind, count)| (kind.to_owned(), count))
    .collect();
    assert_eq!(plan::per_kind_counts(&load_plan, &corpus), pinned);
}
