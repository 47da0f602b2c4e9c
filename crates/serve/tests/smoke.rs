//! End-to-end smoke of the query service: sustained concurrent load
//! must answer byte-identically to direct `Engine` calls, the cache
//! must actually hit, warm queries must be clearly cheaper than cold
//! ones, malformed traffic must get typed 4xx answers, and shutdown
//! must be clean.

use hpcfail_core::correlation::Scope;
use hpcfail_core::engine::{AnalysisRequest, Engine};
use hpcfail_core::power::PowerProblem;
use hpcfail_core::regression_study::StudyFamily;
use hpcfail_core::temperature::TempPredictor;
use hpcfail_serve::client::Client;
use hpcfail_serve::server::{spawn, ServerConfig};
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine() -> Engine {
    Engine::new(hpcfail_synth::FleetSpec::demo().generate(42).into_store())
}

/// A mixed bag of requests spanning cheap and expensive analyses.
fn query_mix() -> Vec<AnalysisRequest> {
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
            target: FailureClass::Any,
            window: Window::Week,
            scope: Scope::SameNode,
        },
        AnalysisRequest::SameTypeSummaries {
            group: SystemGroup::Group1,
            window: Window::Day,
            scope: Scope::SameNode,
        },
        AnalysisRequest::NodeFailureCounts {
            system: SystemId::new(20),
        },
        AnalysisRequest::EqualRatesTest {
            system: SystemId::new(20),
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
            system: SystemId::new(20),
            nodes: vec![NodeId::new(0), NodeId::new(1)],
        },
        AnalysisRequest::UsageCorrelations {
            system: SystemId::new(20),
        },
        AnalysisRequest::HeaviestUsers {
            system: SystemId::new(20),
            k: 10,
        },
        AnalysisRequest::EnvBreakdown,
        AnalysisRequest::PowerConditional {
            problem: PowerProblem::Outage,
            target: FailureClass::Any,
            window: Window::Day,
        },
        AnalysisRequest::TemperatureRegression {
            system: SystemId::new(20),
            predictor: TempPredictor::Average,
            target: FailureClass::Any,
            family: StudyFamily::Poisson,
        },
        AnalysisRequest::RegressionStudy {
            system: SystemId::new(20),
            family: StudyFamily::Poisson,
            exclude_node0: false,
        },
        AnalysisRequest::ArrivalProfile {
            system: SystemId::new(20),
            class: FailureClass::Any,
        },
        AnalysisRequest::Availability { system: None },
    ]
}

#[test]
fn concurrent_load_matches_direct_engine_calls() {
    let engine = engine();
    let mix = query_mix();
    // Ground truth computed in-process, before any serving.
    let expected: BTreeMap<String, String> = mix
        .iter()
        .map(|r| (r.canonical(), engine.run(r).to_json().pretty()))
        .collect();

    let handle = spawn(
        engine,
        ServerConfig {
            workers: 8,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    const CLIENTS: usize = 64;
    const QUERIES_PER_CLIENT: usize = 16;
    let mix = Arc::new(mix);
    let expected = Arc::new(expected);
    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let mix = Arc::clone(&mix);
        let expected = Arc::clone(&expected);
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let client = Client::new(addr);
            for q in 0..QUERIES_PER_CLIENT {
                let request = &mix[(c * 7 + q * 3) % mix.len()];
                let response = client
                    .post("/v1/traces/default/query", &request.canonical(), &[])
                    .expect("query round trip");
                assert_eq!(response.status, 200, "body: {}", response.body);
                assert!(
                    matches!(
                        response.header("x-cache"),
                        Some("hit" | "miss" | "coalesced")
                    ),
                    "x-cache header present"
                );
                let want = &expected[&request.canonical()];
                assert_eq!(
                    &response.body,
                    want,
                    "served bytes differ from direct engine call for {}",
                    request.kind()
                );
            }
        }));
    }
    for join in joins {
        join.join().expect("client thread");
    }

    // Counter assertions only make sense when instrumentation is compiled in.
    #[cfg(not(feature = "no-obs"))]
    {
        let snapshot = hpcfail_obs::snapshot();
        let hits = snapshot
            .counters
            .get("serve.cache.hit")
            .copied()
            .unwrap_or(0);
        let misses = snapshot
            .counters
            .get("serve.cache.miss")
            .copied()
            .unwrap_or(0);
        assert!(
            hits > 0,
            "1024 queries over 16 distinct requests must hit the cache"
        );
        assert!(misses > 0, "first-time queries must miss");
        assert!(
            snapshot
                .counters
                .get("serve.requests")
                .copied()
                .unwrap_or(0)
                >= (CLIENTS * QUERIES_PER_CLIENT) as u64,
            "every request counted"
        );
    }

    handle.shutdown();
}

#[test]
fn warm_queries_beat_cold_queries() {
    let handle = spawn(
        engine(),
        ServerConfig {
            workers: 4,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(handle.addr().to_string());
    // The heaviest query in the mix: 8 classes × 2 pooled estimates.
    let request = AnalysisRequest::SameTypeSummaries {
        group: SystemGroup::Group1,
        window: Window::Week,
        scope: Scope::SameNode,
    }
    .canonical();

    // Retry the timing comparison to keep scheduler noise from
    // flaking the test; the assertion is on the best observed ratio.
    let mut best_ratio = f64::INFINITY;
    for attempt in 0..3 {
        let cold_request = AnalysisRequest::SameTypeSummaries {
            group: SystemGroup::Group1,
            window: [Window::Day, Window::Week, Window::Month][attempt],
            scope: Scope::SameRack,
        }
        .canonical();
        let start = Instant::now();
        let cold = client
            .post("/v1/traces/default/query", &cold_request, &[])
            .expect("cold");
        let cold_elapsed = start.elapsed();
        assert_eq!(cold.header("x-cache"), Some("miss"));

        let mut warm_times = Vec::new();
        for _ in 0..11 {
            let start = Instant::now();
            let warm = client
                .post("/v1/traces/default/query", &cold_request, &[])
                .expect("warm");
            warm_times.push(start.elapsed());
            assert_eq!(warm.header("x-cache"), Some("hit"));
            assert_eq!(warm.body, cold.body, "warm bytes equal cold bytes");
        }
        warm_times.sort();
        let warm_median = warm_times[warm_times.len() / 2];
        let ratio = warm_median.as_secs_f64() / cold_elapsed.as_secs_f64().max(1e-9);
        best_ratio = best_ratio.min(ratio);
        println!(
            "attempt {attempt}: cold {:?}, warm median {:?}, ratio {ratio:.3}",
            cold_elapsed, warm_median
        );
        if best_ratio < 0.5 {
            break;
        }
    }
    assert!(
        best_ratio < 0.5,
        "warm-cache median must be well under cold latency (best ratio {best_ratio:.3})"
    );
    let _ = request;

    handle.shutdown();
}

#[test]
fn batch_answers_align_with_requests() {
    let engine = engine();
    let mix = query_mix();
    let expected: Vec<String> = mix
        .iter()
        .map(|r| engine.run(r).to_json().pretty())
        .collect();
    let handle = spawn(engine, ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());

    let batch = format!(
        "[{}]",
        mix.iter()
            .map(|r| r.to_json().pretty().trim_end().to_owned())
            .collect::<Vec<_>>()
            .join(",")
    );
    let response = client
        .post("/v1/traces/default/batch", &batch, &[])
        .expect("batch");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let json = hpcfail_obs::json::parse(&response.body).expect("valid JSON");
    let results = json
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results array");
    assert_eq!(results.len(), mix.len());
    for (i, (result, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(
            result.as_str(),
            Some(want.as_str()),
            "batch item {i} ({}) differs from direct call",
            mix[i].kind()
        );
    }

    handle.shutdown();
}

#[test]
fn malformed_traffic_gets_typed_errors_not_panics() {
    let handle = spawn(engine(), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());

    // Malformed JSON.
    let r = client
        .post("/v1/traces/default/query", "{nope", &[])
        .expect("round trip");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"error\""), "typed body: {}", r.body);

    // Valid JSON, unknown kind.
    let r = client
        .post(
            "/v1/traces/default/query",
            r#"{"analysis": "launch-missiles"}"#,
            &[],
        )
        .expect("round trip");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown analysis kind"));

    // Valid kind, missing field.
    let r = client
        .post(
            "/v1/traces/default/query",
            r#"{"analysis": "conditional"}"#,
            &[],
        )
        .expect("round trip");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("missing field"));

    // Mistyped field.
    let r = client
        .post(
            "/v1/traces/default/query",
            r#"{"analysis": "node-failure-counts", "system": "twenty"}"#,
            &[],
        )
        .expect("round trip");
    assert_eq!(r.status, 400);

    // Batch with one bad item names the index.
    let r = client
        .post(
            "/v1/traces/default/batch",
            r#"[{"analysis": "trace-summary"}, {"analysis": "nope"}]"#,
            &[],
        )
        .expect("round trip");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("batch item 1"));

    // Unknown path and wrong method.
    let r = client.get("/nope").expect("round trip");
    assert_eq!(r.status, 404);
    let r = client.get("/v1/traces/default/query").expect("round trip");
    assert_eq!(r.status, 405);

    // Raw protocol garbage: the server answers 400 (or drops the
    // connection) but keeps serving afterwards.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        raw.write_all(b"\x01\x02\x03 garbage\r\n\r\n")
            .expect("write");
        let mut out = String::new();
        let _ = raw.read_to_string(&mut out);
        assert!(out.is_empty() || out.starts_with("HTTP/1.1 400"));
    }
    let r = client.get("/v1/healthz").expect("server still alive");
    assert_eq!(r.status, 200);

    handle.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let handle = spawn(engine(), ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    let client = Client::new(addr.to_string());

    let health = client.get("/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("fingerprint"));

    let kinds = client.get("/v1/requests").expect("requests");
    assert!(kinds.body.contains("same-type-summaries"));

    let bye = client.post("/v1/shutdown", "", &[]).expect("shutdown ack");
    assert_eq!(bye.status, 200);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_shutting_down() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_shutting_down(), "shutdown flag set via endpoint");
    handle.shutdown();

    // The listener is gone: a fresh query must fail.
    let gone = Client::new(addr.to_string())
        .with_timeout(Duration::from_millis(500))
        .get("/v1/healthz");
    assert!(gone.is_err(), "server must stop accepting after shutdown");
}

#[test]
fn deadline_header_degrades_instead_of_blocking() {
    // A follower with an already-expired deadline must get a typed 504
    // rather than waiting. Simulate by claiming the flight directly —
    // driving a real slow leader through the socket would be timing-
    // dependent — then sending the query with a 1ms deadline while the
    // flight is held open.
    use hpcfail_serve::coalesce::{Claim, Coalescer};

    let coalescer = Coalescer::new();
    let key = ("default".to_owned(), 1u64, "q".to_owned());
    let _leader = match coalescer.claim(&key) {
        Claim::Leader(guard) => guard,
        Claim::Follower(_) => panic!("fresh key must lead"),
    };
    match coalescer.claim(&key) {
        Claim::Follower(flight) => {
            assert!(flight.wait(Instant::now()).is_none(), "expired deadline");
        }
        Claim::Leader(_) => panic!("second claim must follow"),
    }
}
