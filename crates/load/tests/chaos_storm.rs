//! Deterministic chaos storms: drive the load harness through a live
//! server whose seeded chaos spec sheds and delays traffic, and pin
//! down the overload-protection contract:
//!
//! - the same chaos seed + load seed produce the *identical* fault
//!   schedule, so shed/retry counts match exactly across reruns;
//! - every rejection is typed (429/503 recovered by the retrying
//!   client) — zero transport errors, zero silently dropped requests;
//! - admitted-request p99 stays bounded through the storm;
//! - once the storm dries up, `/healthz` reports a healthy SLO again.

use hpcfail_core::engine::Engine;
use hpcfail_load::run::quantile_us;
use hpcfail_load::{
    build_corpus, execute, plan, systems_from_fleet, Http, MixConfig, RunOptions, RunStats,
};
use hpcfail_serve::admission::{AdmissionConfig, ShedPolicy};
use hpcfail_serve::chaos::ChaosConfig;
use hpcfail_serve::client::Client;
use hpcfail_serve::retry::RetryPolicy;
use hpcfail_serve::server::{spawn, ServerConfig, ServerHandle};
use hpcfail_serve::slo::SloPolicy;
use hpcfail_synth::Scenario;
use std::time::Duration;

fn fixture() -> Scenario {
    Scenario::parse(
        r#"{
            "scenario": "chaos-storm-fixture",
            "version": 1,
            "seed": 31,
            "systems": [
                {"id": 2, "template": "numa", "nodes": 12, "days": 90},
                {"id": 20, "template": "smp", "nodes": 24, "days": 90}
            ]
        }"#,
    )
    .expect("fixture parses")
}

/// The storm: bounded shed bursts plus latency injection at two
/// points. Both shed rules carry a `max`, so the storm dries up and
/// the post-storm SLO check sees clean traffic.
fn storm_spec() -> ChaosConfig {
    ChaosConfig::parse(
        r#"{
          "seed": 2026,
          "rules": [
            {"point": "admission", "fault": "shed", "probability": 0.25, "max": 40},
            {"point": "admission", "fault": "latency", "probability": 0.2, "ms": 2},
            {"point": "engine", "fault": "latency", "probability": 0.3, "ms": 5}
          ]
        }"#,
    )
    .expect("storm spec parses")
}

fn storm_server() -> ServerHandle {
    spawn(
        Engine::new(fixture().generate().into_store()),
        ServerConfig {
            workers: 4,
            cache_capacity: 1024,
            admission: AdmissionConfig {
                max_inflight: 4,
                max_queued: 16,
                policy: ShedPolicy::Brownout,
                retry_after_ms: 2,
            },
            chaos: Some(storm_spec()),
            slo: SloPolicy {
                latency_budget_ms: 500,
                max_error_rate: 0.05,
                window_ms: 1_500,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

/// Runs the smoke profile through the storm with a retrying HTTP
/// target, single-threaded so the arrival order (and therefore the
/// seeded chaos schedule) is identical on every run.
fn run_storm(addr: &str) -> RunStats {
    let config = MixConfig::smoke();
    let scenario = fixture();
    let systems = systems_from_fleet(&scenario.fleet());
    let corpus = build_corpus(&systems, config.corpus_size);
    let load_plan = plan::build(&config, corpus.len()).expect("profile plans");
    let target = Http::with_retry(
        addr,
        RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 1,
            max_delay_ms: 20,
            budget: 10_000,
            seed: 7,
        },
    );
    execute(
        &corpus,
        &load_plan,
        &config,
        &target,
        RunOptions { threads: 1 },
    )
}

#[test]
fn seeded_storm_has_identical_counts_and_recovers_to_healthy_slo() {
    // Two independent servers, same chaos seed, same load seed: the
    // fault schedule and every derived count must match exactly.
    let first = {
        let handle = storm_server();
        let stats = run_storm(&handle.addr().to_string());
        handle.shutdown();
        stats
    };
    let handle = storm_server();
    let addr = handle.addr().to_string();
    let second = run_storm(&addr);

    assert!(first.sheds() > 0, "the storm must actually shed");
    assert!(first.retries() >= first.sheds(), "every shed was retried");
    assert_eq!(first.sheds(), second.sheds(), "shed schedule identical");
    assert_eq!(first.retries(), second.retries(), "retry counts identical");
    assert_eq!(first.gave_up(), second.gave_up());
    assert_eq!(first.errors(), second.errors());
    assert_eq!(first.timeouts(), second.timeouts());

    // Every rejection was typed and recovered: no transport errors, no
    // abandoned items, every plan item answered.
    assert_eq!(first.errors(), 0, "all rejections typed and recovered");
    assert_eq!(first.gave_up(), 0, "retry budget covers the storm");
    assert_eq!(first.timeouts(), 0);
    let config = MixConfig::smoke();
    let planned_items: u64 = config.phases.iter().map(|p| p.requests as u64).sum();
    assert_eq!(first.items(), planned_items, "no request silently dropped");

    // Admitted-request p99 stays bounded through the storm: retries
    // plus injected latency never push an item past 2 s.
    let sorted = second.sorted_latencies_us();
    let p99 = quantile_us(&sorted, 0.99);
    assert!(p99 < 2_000_000, "storm p99 {p99} us exceeds 2 s tripwire");

    // Post-storm recovery: the bounded shed rules are spent, so after
    // one SLO window of clean traffic /healthz reports ok again.
    std::thread::sleep(Duration::from_millis(1_600));
    let client = Client::new(addr);
    for _ in 0..10 {
        let response = client
            .post(
                "/v1/traces/default/query",
                r#"{"analysis": "trace-summary"}"#,
                &[],
            )
            .expect("clean query");
        assert_eq!(response.status, 200, "post-storm traffic is clean");
    }
    let health = client.get("/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let body = hpcfail_obs::json::parse(&health.body).expect("healthz json");
    let slo_status = body
        .get("slo")
        .and_then(|s| s.get("status"))
        .and_then(|s| s.as_str())
        .expect("slo status");
    assert_eq!(slo_status, "ok", "healthz after storm: {}", health.body);
    let shed_total = body
        .get("admission")
        .and_then(|a| a.get("shed_total"))
        .and_then(|s| s.as_u64())
        .expect("admission shed_total");
    assert_eq!(shed_total, second.sheds(), "healthz shed breakdown agrees");
    handle.shutdown();
}

/// The second storm run's report fields flow through to the schema-2
/// report: sheds/retries/gave_up land per phase and top-level.
#[test]
fn storm_counts_flow_into_the_schema_2_report() {
    let handle = storm_server();
    let stats = run_storm(&handle.addr().to_string());
    handle.shutdown();

    let config = MixConfig::smoke();
    let report = hpcfail_load::BenchReport::build(
        &config,
        &stats,
        "http",
        "scenario=chaos-storm-fixture",
        1,
        hpcfail_load::Budget::ci(),
    );
    assert_eq!(report.schema, 2);
    assert_eq!(report.sheds, stats.sheds());
    assert_eq!(report.retries, stats.retries());
    assert_eq!(report.gave_up, 0);
    let phase_sheds: u64 = report.phases.iter().map(|p| p.sheds).sum();
    assert_eq!(phase_sheds, report.sheds, "phase sheds sum to the total");
    // The round trip through the strict parser preserves the counts.
    let parsed = hpcfail_load::BenchReport::parse(&report.pretty()).expect("parses");
    assert_eq!(parsed, report);
    assert!(parsed.check().is_empty(), "storm run stays within budget");
}
