//! Overload-protection robustness: slow clients get typed timeouts,
//! a full gate sheds with typed 429/503 + `Retry-After` hints, the
//! retrying client recovers through a shed storm, and shutdown under
//! load drains admitted requests while shedding queued ones — no
//! request is ever silently dropped.

use hpcfail_core::engine::Engine;
use hpcfail_serve::admission::{AdmissionConfig, ShedPolicy, ShedReason};
use hpcfail_serve::chaos::ChaosConfig;
use hpcfail_serve::client::Client;
use hpcfail_serve::registry::TraceRegistry;
use hpcfail_serve::retry::{RetryPolicy, RetryingClient};
use hpcfail_serve::server::{spawn, spawn_with_registry, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn engine() -> Engine {
    Engine::new(hpcfail_synth::FleetSpec::demo().generate(42).into_store())
}

fn temp_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpcfail-serve-robustness");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}-{}.jsonl", std::process::id()))
}

/// A client that stalls mid-request must get exactly one typed 408 and
/// exactly one access-log line; an idle connection that never sends a
/// byte is closed silently with no log line. Either way the server
/// keeps serving.
#[test]
fn slow_loris_gets_one_typed_408_and_one_log_line() {
    let log_path = temp_log("slow-loris");
    std::fs::remove_file(&log_path).ok();
    let handle = spawn(
        engine(),
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_millis(200),
            access_log: Some(log_path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Idle keep-alive: connect, send nothing, wait out the timeout.
    {
        let mut idle = TcpStream::connect(handle.addr()).expect("connect");
        let mut out = Vec::new();
        let _ = idle.read_to_end(&mut out); // server closes silently
        assert!(out.is_empty(), "idle close must not write a response");
    }

    // Slow loris: half a request line, then stall past the timeout.
    let mut loris = TcpStream::connect(handle.addr()).expect("connect");
    loris
        .write_all(b"POST /query HTTP/1.1\r\ncontent-le")
        .expect("partial write");
    let mut out = String::new();
    loris.read_to_string(&mut out).expect("read response");
    assert!(
        out.starts_with("HTTP/1.1 408"),
        "stalled request gets a typed 408, got: {out:?}"
    );
    assert_eq!(
        out.matches("HTTP/1.1").count(),
        1,
        "exactly one response on the connection"
    );

    // The server is still healthy for well-formed traffic.
    let client = Client::new(handle.addr().to_string());
    assert_eq!(client.get("/v1/healthz").expect("healthz").status, 200);
    handle.shutdown();

    let log = std::fs::read_to_string(&log_path).expect("access log");
    let loris_lines: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"status\":408"))
        .collect();
    assert_eq!(
        loris_lines.len(),
        1,
        "exactly one 408 line (idle close logs nothing): {log}"
    );
    assert!(
        loris_lines[0].contains("\"kind\":\"http-error\""),
        "line: {}",
        loris_lines[0]
    );
    std::fs::remove_file(&log_path).ok();
}

/// With `max_inflight: 1` and the reject policy, a second concurrent
/// query gets a typed 429 with `Retry-After` hints and the shed shows
/// up in the gate's counters and `/healthz`.
#[test]
fn overload_sheds_typed_429_with_retry_hints() {
    // One engine-point stall (600 ms) pins the only inflight slot.
    let chaos = ChaosConfig::parse(
        r#"{
          "seed": 11,
          "rules": [
            {"point": "engine", "fault": "stall", "probability": 1.0, "ms": 600, "max": 1}
          ]
        }"#,
    )
    .expect("chaos spec");
    let handle = spawn(
        engine(),
        ServerConfig {
            workers: 4,
            admission: AdmissionConfig {
                max_inflight: 1,
                max_queued: 4,
                policy: ShedPolicy::Reject,
                retry_after_ms: 25,
            },
            chaos: Some(chaos),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    let stalled = std::thread::spawn({
        let addr = addr.clone();
        move || {
            Client::new(addr)
                .post(
                    "/v1/traces/default/query",
                    r#"{"analysis": "trace-summary"}"#,
                    &[],
                )
                .expect("stalled query")
        }
    });
    // Let the stalled query claim the slot, then overload.
    std::thread::sleep(Duration::from_millis(200));
    let shed = Client::new(addr.clone())
        .post(
            "/v1/traces/default/query",
            r#"{"analysis": "env-breakdown"}"#,
            &[],
        )
        .expect("shed round trip");
    assert_eq!(shed.status, 429, "body: {}", shed.body);
    assert_eq!(shed.header("x-shed"), Some("queue_full"));
    assert_eq!(shed.header("x-retry-after-ms"), Some("25"));
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("\"error\""), "typed body: {}", shed.body);

    // /healthz never passes the gate and reports the shed breakdown.
    let health = Client::new(addr).get("/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"queue_full\": 1"),
        "healthz admission breakdown: {}",
        health.body
    );
    assert_eq!(handle.admission().shed_count(ShedReason::QueueFull), 1);
    assert_eq!(handle.admission().shed_total(), 1);

    let ok = stalled.join().expect("stalled thread");
    assert_eq!(ok.status, 200, "the admitted request still answers");
    handle.shutdown();
}

/// A retrying client pointed at a server whose chaos spec sheds the
/// first two admission arrivals recovers on the third attempt, honoring
/// the server's `x-retry-after-ms` hint.
#[test]
fn retrying_client_recovers_through_a_shed_storm() {
    let chaos = ChaosConfig::parse(
        r#"{
          "seed": 5,
          "rules": [
            {"point": "admission", "fault": "shed", "probability": 1.0, "max": 2}
          ]
        }"#,
    )
    .expect("chaos spec");
    let handle = spawn(
        engine(),
        ServerConfig {
            workers: 2,
            admission: AdmissionConfig {
                max_inflight: 8,
                max_queued: 8,
                policy: ShedPolicy::Brownout,
                retry_after_ms: 5,
            },
            chaos: Some(chaos),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let client = RetryingClient::new(
        Client::new(handle.addr().to_string()),
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 1,
            max_delay_ms: 50,
            ..RetryPolicy::default()
        },
    );
    let outcome = client.post_detailed(
        "/v1/traces/default/query",
        r#"{"analysis": "trace-summary"}"#,
        &[],
    );
    let response = outcome.result.expect("recovered answer");
    assert_eq!(response.status, 200, "body: {}", response.body);
    assert_eq!(outcome.attempts, 3, "two chaos sheds, then success");
    assert_eq!(outcome.sheds, 2);
    assert!(!outcome.gave_up);
    assert_eq!(client.stats().retries, 2);
    assert_eq!(client.stats().gave_up, 0);
    assert_eq!(handle.admission().shed_count(ShedReason::Chaos), 2);
    handle.shutdown();
}

/// `/shutdown` while a request is mid-flight and others sit in the
/// admission queue: the admitted request finishes with 200, queued ones
/// shed with a typed `503 draining`, and every worker joins.
#[test]
fn shutdown_under_load_drains_admitted_and_sheds_queued() {
    let chaos = ChaosConfig::parse(
        r#"{
          "seed": 3,
          "rules": [
            {"point": "engine", "fault": "stall", "probability": 1.0, "ms": 800, "max": 1}
          ]
        }"#,
    )
    .expect("chaos spec");
    let handle = spawn(
        engine(),
        ServerConfig {
            workers: 6,
            admission: AdmissionConfig {
                max_inflight: 1,
                max_queued: 8,
                policy: ShedPolicy::Brownout,
                retry_after_ms: 10,
            },
            chaos: Some(chaos),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    // One admitted request, stalled at the engine point.
    let admitted = std::thread::spawn({
        let addr = addr.clone();
        move || {
            Client::new(addr)
                .post(
                    "/v1/traces/default/query",
                    r#"{"analysis": "trace-summary"}"#,
                    &[],
                )
                .expect("admitted query")
        }
    });
    std::thread::sleep(Duration::from_millis(200));

    // Two more queries queue behind the held slot.
    let queued: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                Client::new(addr)
                    .post(
                        "/v1/traces/default/query",
                        r#"{"analysis": "env-breakdown"}"#,
                        &[],
                    )
                    .expect("queued query")
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(3);
    while handle.admission().queued() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.admission().queued(), 2, "both waiters queued");

    // Shut down mid-storm via the endpoint.
    let bye = Client::new(addr)
        .post("/v1/shutdown", "", &[])
        .expect("ack");
    assert_eq!(bye.status, 200);

    for join in queued {
        let response = join.join().expect("queued thread");
        assert_eq!(response.status, 503, "body: {}", response.body);
        assert_eq!(response.header("x-shed"), Some("draining"));
    }
    let ok = admitted.join().expect("admitted thread");
    assert_eq!(ok.status, 200, "admitted request drains to completion");

    assert_eq!(handle.admission().shed_count(ShedReason::Draining), 2);
    let deadline = Instant::now() + Duration::from_secs(3);
    while handle.inflight() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.inflight(), 0, "inflight gauge fully decremented");
    assert_eq!(handle.admission().inflight(), 0, "no permit leaked");
    handle.shutdown(); // joins all workers; must not hang
}

/// Shutdown while an upload is mid-parse: uploads are admitted as
/// `Expensive`-class work *before* the heavy parse, so draining waits
/// for the in-progress upload to land (200, trace registered) while
/// work arriving after the drain began sheds with a typed
/// `503 draining`. No upload is half-registered or silently dropped.
#[test]
fn shutdown_waits_for_in_progress_upload_and_sheds_late_ones() {
    // One engine-point stall pins the upload after it holds its permit.
    let chaos = ChaosConfig::parse(
        r#"{
          "seed": 9,
          "rules": [
            {"point": "engine", "fault": "stall", "probability": 1.0, "ms": 800, "max": 1}
          ]
        }"#,
    )
    .expect("chaos spec");
    let handle = spawn_with_registry(
        TraceRegistry::new(0),
        ServerConfig {
            workers: 6,
            admission: AdmissionConfig {
                max_inflight: 1,
                max_queued: 4,
                policy: ShedPolicy::Brownout,
                retry_after_ms: 10,
            },
            chaos: Some(chaos),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    let snapshot = hpcfail_store::snapshot::snapshot_bytes(
        &hpcfail_synth::FleetSpec::demo().generate(7).into_store(),
    );
    let uploading = std::thread::spawn({
        let addr = addr.clone();
        let snapshot = snapshot.clone();
        move || {
            Client::new(addr)
                .post_bytes("/v1/traces/landing", &snapshot, &[])
                .expect("admitted upload")
        }
    });
    // Let the upload claim the only permit and hit the stall, then
    // queue a second upload behind it.
    std::thread::sleep(Duration::from_millis(200));
    let queued = std::thread::spawn({
        let addr = addr.clone();
        let snapshot = snapshot.clone();
        move || {
            Client::new(addr)
                .post_bytes("/v1/traces/too-late", &snapshot, &[])
                .expect("queued upload round trip")
        }
    });
    let deadline = Instant::now() + Duration::from_secs(3);
    while handle.admission().queued() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.admission().queued(), 1, "second upload queued");

    let bye = Client::new(addr)
        .post("/v1/shutdown", "", &[])
        .expect("ack");
    assert_eq!(bye.status, 200);

    // The queued upload sheds with a typed 503 instead of landing.
    let late = queued.join().expect("queued thread");
    assert_eq!(late.status, 503, "body: {}", late.body);
    assert_eq!(late.header("x-shed"), Some("draining"));

    // The admitted upload drains to completion and is registered.
    let landed = uploading.join().expect("upload thread");
    assert_eq!(landed.status, 200, "body: {}", landed.body);
    assert!(
        landed.body.contains("\"name\": \"landing\""),
        "{}",
        landed.body
    );
    assert!(handle.registry().contains("landing"), "upload landed");
    assert!(
        !handle.registry().contains("too-late"),
        "shed upload did not register"
    );

    assert_eq!(handle.admission().inflight(), 0, "no permit leaked");
    handle.shutdown(); // joins all workers; must not hang
}

/// A body of nothing but `[` used to recurse once per byte in the JSON
/// parser and overflow a worker's stack, aborting the whole server. It
/// now gets a typed 400 on both JSON endpoints, and the server keeps
/// answering on a fresh connection.
#[test]
fn deeply_nested_json_gets_a_typed_400_and_the_server_stays_up() {
    let handle = spawn(engine(), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    let body = "[".repeat(200_000);
    for path in ["/v1/traces/default/query", "/v1/traces/default/batch"] {
        let response = client.post(path, &body, &[]).expect("answered");
        assert_eq!(response.status, 400, "{path}: {}", response.body);
        let json = hpcfail_obs::json::parse(&response.body).expect("typed error body");
        let error = json.get("error").expect("error object");
        assert_eq!(
            error
                .get("status")
                .and_then(hpcfail_obs::json::Json::as_u64),
            Some(400)
        );
        assert!(
            error
                .get("message")
                .and_then(hpcfail_obs::json::Json::as_str)
                .is_some_and(|m| m.contains("nesting")),
            "{path}: {}",
            response.body
        );
    }
    let health = Client::new(handle.addr().to_string())
        .get("/v1/healthz")
        .expect("server still up");
    assert_eq!(health.status, 200);
    handle.shutdown();
}
