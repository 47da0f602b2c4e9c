//! Satellite guarantee: the mixes shape cache behavior as designed.
//!
//! A zipfian hot-key mix recycles a small key set, so its hit rate
//! must clear a floor; a cold-cache phase never repeats a key, so its
//! hit rate must stay under a ceiling (exactly zero for the in-process
//! target, where distinct keys can neither hit nor coalesce).

use hpcfail_load::{
    build_corpus, execute, plan, systems_from_fleet, Arrival, InProcess, MixConfig, Phase,
    PhaseKind, RunOptions,
};
use hpcfail_synth::Scenario;

fn fixture() -> Scenario {
    Scenario::parse(
        r#"{
            "scenario": "cache-mix-fixture",
            "version": 1,
            "seed": 23,
            "systems": [
                {"id": 2, "template": "numa", "nodes": 12, "days": 120},
                {"id": 20, "template": "smp", "nodes": 32, "days": 120}
            ]
        }"#,
    )
    .expect("fixture parses")
}

fn run(config: &MixConfig) -> hpcfail_load::RunStats {
    let scenario = fixture();
    let systems = systems_from_fleet(&scenario.fleet());
    let corpus = build_corpus(&systems, config.corpus_size);
    let load_plan = plan::build(config, corpus.len()).expect("profile plans");
    let target = InProcess::new(scenario.generate().into_store(), 4096);
    execute(
        &corpus,
        &load_plan,
        config,
        &target,
        RunOptions { threads: 4 },
    )
}

#[test]
fn hot_key_mix_hit_rate_clears_the_floor() {
    let config = MixConfig {
        profile: "hot-only".to_owned(),
        seed: 99,
        corpus_size: 96,
        cold_reserve: 32,
        arrival: Arrival::Closed,
        phases: vec![Phase {
            kind: PhaseKind::HotKey {
                zipf_s: 1.2,
                hot_keys: 8,
            },
            requests: 200,
        }],
    };
    let stats = run(&config);
    assert_eq!(stats.errors(), 0);
    // 200 draws over at most 8 distinct keys: at least 192 hits even
    // if every key gets touched. Floor at 0.5 leaves a wide margin for
    // any future cache-eviction or coalescing changes.
    assert!(
        stats.hit_rate() >= 0.5,
        "hot-key mix hit rate {} below floor 0.5",
        stats.hit_rate()
    );
}

#[test]
fn cold_cache_mix_hit_rate_stays_under_the_ceiling() {
    let config = MixConfig {
        profile: "cold-only".to_owned(),
        seed: 99,
        corpus_size: 160,
        cold_reserve: 128,
        arrival: Arrival::Closed,
        phases: vec![Phase {
            kind: PhaseKind::ColdCache,
            requests: 128,
        }],
    };
    let stats = run(&config);
    assert_eq!(stats.errors(), 0);
    // Every cold request is a first sight of a distinct key, so in
    // process nothing hits or coalesces and the hit rate is exactly zero. The ceiling (rather
    // than equality) keeps the assertion honest for an HTTP variant.
    assert!(
        stats.hit_rate() <= 0.05,
        "cold-cache mix hit rate {} above ceiling 0.05",
        stats.hit_rate()
    );
    let (hits, misses, _) = stats.cache_totals();
    assert_eq!(hits, 0);
    assert_eq!(misses, 128);
}
