//! The versioned, trace-scoped serving API end to end: uploads through
//! the ingest machinery, multi-tenant byte-identity, epoch hot-swap
//! under concurrent load, cache isolation across re-uploads, typed
//! eviction, and `/v1` as the only surface.

use hpcfail_core::engine::{AnalysisRequest, Engine};
use hpcfail_serve::client::Client;
use hpcfail_serve::registry::{TraceRegistry, TraceSource};
use hpcfail_serve::server::{spawn, spawn_with_registry, ServerConfig};
use hpcfail_store::snapshot::snapshot_bytes;
use hpcfail_store::trace::{SystemTraceBuilder, Trace};
use hpcfail_synth::FleetSpec;
use hpcfail_types::ids::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLE_CSV: &str = "\
System,NodeNum,Prob Started,Prob Fixed,Cause,SubCause
20,0,10/23/2003 14:55,10/23/2003 18:20,Hardware,Memory Dimm
20,17,11/02/2003 03:10,,Facilities,Power Outage
2,5,01/15/1997 09:00,01/15/1997 10:30,Human Error,
";

fn small_trace(seed: u64) -> Trace {
    FleetSpec::lanl_scaled(0.02).generate(seed).into_store()
}

/// The server's exact body for `request_body` against `trace`.
fn direct_body(trace: Trace, request_body: &str) -> String {
    let request = AnalysisRequest::parse(request_body).expect("request");
    Engine::new(trace).run(&request).to_json().pretty()
}

/// Three named traces served concurrently: each query body is
/// byte-identical to a direct `Engine::run` against that trace, the
/// listing shows all three with distinct fingerprints, and the CSV
/// upload reports its ingest audit.
#[test]
fn three_named_traces_serve_with_byte_identity() {
    let handle = spawn_with_registry(TraceRegistry::new(0), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());

    // Empty registry: a query against any name is a typed 404.
    let miss = client
        .post(
            "/v1/traces/lanl/query",
            r#"{"analysis": "trace-summary"}"#,
            &[],
        )
        .expect("round trip");
    assert_eq!(miss.status, 404, "body: {}", miss.body);
    assert!(miss.body.contains("\"error\""), "typed: {}", miss.body);

    // Upload two snapshots and one CSV under distinct names.
    for (name, seed) in [("lanl", 1u64), ("fleet-b", 2u64)] {
        let bytes = snapshot_bytes(&small_trace(seed));
        let up = client
            .post_bytes(&format!("/v1/traces/{name}"), &bytes, &[])
            .expect("upload");
        assert_eq!(up.status, 200, "body: {}", up.body);
        assert!(up.body.contains("\"source\": \"snapshot\""), "{}", up.body);
    }
    let up = client
        .post_bytes(
            "/v1/traces/sample.csv",
            SAMPLE_CSV.as_bytes(),
            &[("x-ingest-policy", "strict")],
        )
        .expect("upload csv");
    assert_eq!(up.status, 200, "body: {}", up.body);
    assert!(up.body.contains("\"rows_ok\": 3"), "{}", up.body);
    assert!(up.body.contains("\"policy\": \"strict\""), "{}", up.body);
    assert!(up.body.contains("\"source\": \"csv\""), "{}", up.body);

    // Every trace answers with bytes identical to a direct engine run.
    for kind in ["trace-summary", "env-breakdown"] {
        let body = format!("{{\"analysis\": \"{kind}\"}}");
        for (name, seed) in [
            ("lanl", Some(1u64)),
            ("fleet-b", Some(2)),
            ("sample.csv", None),
        ] {
            let expected = match seed {
                Some(seed) => direct_body(small_trace(seed), &body),
                None => {
                    let read = hpcfail_store::lanl::read_lanl_failures_with(
                        SAMPLE_CSV.as_bytes(),
                        "test",
                        hpcfail_store::lanl::LanlImportOptions::default(),
                        hpcfail_store::ingest::IngestPolicy::Strict,
                    )
                    .expect("csv");
                    direct_body(
                        hpcfail_store::lanl::assemble_trace(read.records, &[]),
                        &body,
                    )
                }
            };
            let served = client
                .post(&format!("/v1/traces/{name}/query"), &body, &[])
                .expect("query");
            assert_eq!(served.status, 200, "{name}: {}", served.body);
            assert_eq!(served.body, expected, "byte identity for {name}/{kind}");
            assert!(
                served.header("x-api-deprecated").is_none(),
                "v1 responses carry no deprecation marker"
            );
        }
    }

    // The listing shows all three with distinct fingerprints.
    let listing = client.get("/v1/traces").expect("listing");
    assert_eq!(listing.status, 200);
    let json = hpcfail_obs::json::parse(&listing.body).expect("json");
    let rows = json.get("traces").and_then(|t| t.as_arr()).unwrap();
    assert_eq!(rows.len(), 3, "{}", listing.body);
    let mut fingerprints: Vec<String> = rows
        .iter()
        .map(|r| {
            r.get("fingerprint")
                .and_then(hpcfail_obs::json::Json::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    fingerprints.sort();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 3, "distinct per-trace fingerprints");

    // Registry gauges are live.
    assert_eq!(handle.registry().len(), 3);
    assert!(handle.registry().resident_bytes() > 0);
    handle.shutdown();
}

/// Satellite 2: re-uploading the *same name* with *different data*
/// never serves the predecessor's cached bytes — the epoch fingerprint
/// in the cache key isolates them — while a hit within one epoch still
/// works.
#[test]
fn reupload_never_serves_stale_cache() {
    let handle = spawn_with_registry(TraceRegistry::new(0), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    let body = r#"{"analysis": "trace-summary"}"#;

    let first_bytes = snapshot_bytes(&small_trace(7));
    let up = client
        .post_bytes("/v1/traces/t", &first_bytes, &[])
        .expect("upload 1");
    assert_eq!(up.status, 200, "{}", up.body);

    let miss = client.post("/v1/traces/t/query", body, &[]).expect("q1");
    assert_eq!(miss.header("x-cache"), Some("miss"));
    let hit = client.post("/v1/traces/t/query", body, &[]).expect("q2");
    assert_eq!(hit.header("x-cache"), Some("hit"));
    assert_eq!(hit.body, miss.body, "a hit returns the same bytes");

    // Swap in different data under the same name.
    let up = client
        .post_bytes("/v1/traces/t", &snapshot_bytes(&small_trace(8)), &[])
        .expect("upload 2");
    assert_eq!(up.status, 200, "{}", up.body);

    let fresh = client.post("/v1/traces/t/query", body, &[]).expect("q3");
    assert_eq!(
        fresh.header("x-cache"),
        Some("miss"),
        "new epoch must not hit the old epoch's cache"
    );
    assert_ne!(fresh.body, miss.body, "new data, new answer");
    assert_eq!(fresh.body, direct_body(small_trace(8), body));

    // Re-uploading *identical* data keeps the warm cache (same
    // fingerprint, same key).
    let up = client
        .post_bytes("/v1/traces/t", &snapshot_bytes(&small_trace(8)), &[])
        .expect("upload 3");
    assert_eq!(up.status, 200, "{}", up.body);
    let warm = client.post("/v1/traces/t/query", body, &[]).expect("q4");
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, fresh.body);
    handle.shutdown();
}

/// `trace` with every job moved to the next node up: the same failures,
/// users and times, but a different job→node assignment.
fn with_jobs_shifted(trace: &Trace) -> Trace {
    let mut out = Trace::new();
    for system in trace.systems() {
        let nodes = system.config().nodes;
        let mut builder = SystemTraceBuilder::new(system.config().clone());
        for f in system.failures() {
            builder.push_failure(f);
        }
        for job in system.jobs() {
            let mut job = job.clone();
            for node in &mut job.nodes {
                *node = NodeId::new((node.raw() + 1) % nodes);
            }
            builder.push_job(job);
        }
        for &t in system.temperatures() {
            builder.push_temperature(t);
        }
        for &m in system.maintenance() {
            builder.push_maintenance(m);
        }
        if let Some(layout) = system.layout() {
            builder.layout(layout.clone());
        }
        out.insert_system(builder.build());
    }
    out.set_neutron_samples(trace.neutron_samples().to_vec());
    out
}

/// Re-uploading a trace whose only change is which nodes its jobs ran
/// on must not be answered from the previous epoch's cache: the
/// fingerprint in the cache key covers job→node assignments, which the
/// per-user analysis joins against failures.
#[test]
fn reupload_with_moved_jobs_is_not_a_cache_hit() {
    let handle = spawn_with_registry(TraceRegistry::new(0), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    let first = small_trace(7);
    let moved = with_jobs_shifted(&first);
    let system = first
        .systems()
        .find(|s| !s.jobs().is_empty())
        .expect("a system with a job log")
        .id();
    let body = format!(
        r#"{{"analysis": "heaviest-users", "system": {}, "k": 10}}"#,
        system.raw()
    );
    let expected = direct_body(moved.clone(), &body);
    assert_ne!(
        direct_body(first.clone(), &body),
        expected,
        "moving jobs must change the per-user answer"
    );

    let up = client
        .post_bytes("/v1/traces/t", &snapshot_bytes(&first), &[])
        .expect("upload 1");
    assert_eq!(up.status, 200, "{}", up.body);
    let before = client.post("/v1/traces/t/query", &body, &[]).expect("q1");
    assert_eq!(before.status, 200, "{}", before.body);

    let up = client
        .post_bytes("/v1/traces/t", &snapshot_bytes(&moved), &[])
        .expect("upload 2");
    assert_eq!(up.status, 200, "{}", up.body);
    let after = client.post("/v1/traces/t/query", &body, &[]).expect("q2");
    assert_eq!(after.header("x-cache"), Some("miss"));
    assert_eq!(after.body, expected);
    handle.shutdown();
}

/// Eviction is typed end to end: DELETE answers with the evicted
/// summary, a second DELETE and any later query answer a typed 404,
/// and the registry gauge drops.
#[test]
fn evicted_traces_answer_typed_404() {
    let registry = TraceRegistry::new(0);
    registry.insert("doomed", small_trace(3), TraceSource::Boot);
    registry.insert("keeper", small_trace(4), TraceSource::Boot);
    let handle = spawn_with_registry(registry, ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());

    let gone = client.delete("/v1/traces/doomed").expect("evict");
    assert_eq!(gone.status, 200, "{}", gone.body);
    assert!(gone.body.contains("\"evicted\""), "{}", gone.body);
    assert!(gone.body.contains("\"name\": \"doomed\""), "{}", gone.body);

    let again = client.delete("/v1/traces/doomed").expect("re-evict");
    assert_eq!(again.status, 404, "{}", again.body);
    assert!(again.body.contains("\"error\""), "typed: {}", again.body);

    let query = client
        .post(
            "/v1/traces/doomed/query",
            r#"{"analysis": "trace-summary"}"#,
            &[],
        )
        .expect("query gone");
    assert_eq!(query.status, 404, "{}", query.body);
    assert!(query.body.contains("no trace named"), "{}", query.body);

    let show = client.get("/v1/traces/doomed").expect("show");
    assert_eq!(show.status, 404);

    // The survivor is untouched.
    let ok = client
        .post(
            "/v1/traces/keeper/query",
            r#"{"analysis": "trace-summary"}"#,
            &[],
        )
        .expect("survivor");
    assert_eq!(ok.status, 200);
    assert_eq!(handle.registry().len(), 1);
    handle.shutdown();
}

/// `/v1` is the only surface: each former unversioned `(method, path)`
/// pair answers a typed 404 carrying the path hint, and `/v1` answers
/// carry no deprecation marker in headers or bodies.
#[test]
fn former_unversioned_paths_answer_typed_404() {
    let engine = Engine::new(small_trace(5));
    let handle = spawn(engine, ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    let body = r#"{"analysis": "env-breakdown"}"#;

    for (method, path) in [
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("GET", "/requests"),
        ("POST", "/shutdown"),
        ("POST", "/query"),
        ("POST", "/batch"),
    ] {
        let response = if method == "GET" {
            client.get(path)
        } else {
            client.post(path, body, &[])
        }
        .expect(path);
        assert_eq!(response.status, 404, "{method} {path}: {}", response.body);
        let json = hpcfail_obs::json::parse(&response.body).expect("typed error body");
        let error = json.get("error").expect("error object");
        assert_eq!(
            error
                .get("status")
                .and_then(hpcfail_obs::json::Json::as_u64),
            Some(404)
        );
        assert_eq!(
            error
                .get("message")
                .and_then(hpcfail_obs::json::Json::as_str),
            Some(hpcfail_serve::routes::KNOWN_PATHS_HINT),
            "{method} {path}"
        );
    }

    // The 404 for `POST /shutdown` stopped nothing; the /v1 answers
    // carry no deprecation marker.
    let query = client
        .post("/v1/traces/default/query", body, &[])
        .expect("v1 query");
    assert_eq!(query.status, 200, "{}", query.body);
    assert!(query.header("x-api-deprecated").is_none());
    assert!(!query.body.contains("deprecation"));
    for path in ["/v1/healthz", "/v1/requests"] {
        let response = client.get(path).expect(path);
        assert_eq!(response.status, 200, "{path}");
        assert!(response.header("x-api-deprecated").is_none(), "{path}");
        assert!(
            !response.body.contains("\"deprecation\""),
            "{path}: {}",
            response.body
        );
    }
    handle.shutdown();
}

/// Unknown paths and wrong methods answer typed 404/405 (the 405 with
/// an `allow` header), matching the central route table.
#[test]
fn unmatched_routes_answer_typed_404_and_405() {
    let handle = spawn_with_registry(TraceRegistry::new(0), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());

    let missing = client.get("/v2/healthz").expect("404");
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("unknown path"), "{}", missing.body);

    let wrong = client.post("/v1/healthz", "", &[]).expect("405");
    assert_eq!(wrong.status, 405, "{}", wrong.body);
    assert_eq!(wrong.header("allow"), Some("GET"));

    let bad_name = client
        .post_bytes("/v1/traces/.hidden", b"x", &[])
        .expect("bad name");
    assert_eq!(bad_name.status, 400, "dot-names are rejected as invalid");
    assert!(
        bad_name.body.contains("invalid trace name"),
        "{}",
        bad_name.body
    );
    handle.shutdown();
}

/// The tentpole soak: hammer one name with concurrent queries while
/// re-uploading it mid-storm. Zero 5xx, zero torn responses (every
/// body is byte-identical to one of the two epochs' direct answers), a
/// query pinned to the old epoch still answers the old bytes, and the
/// old epoch's memory is released once its last pin drops.
#[test]
fn hot_swap_under_load_drops_nothing() {
    let registry = TraceRegistry::new(0);
    registry.insert("storm", small_trace(11), TraceSource::Boot);
    let handle = spawn_with_registry(
        registry,
        ServerConfig {
            workers: 8,
            // Disable the cache so every answer exercises the engine
            // (a cached body would mask a torn epoch).
            cache_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr().to_string();
    let body = r#"{"analysis": "env-breakdown"}"#;
    let old_expected = direct_body(small_trace(11), body);
    let new_expected = direct_body(small_trace(12), body);
    assert_ne!(old_expected, new_expected, "the swap must be observable");

    // Pin the old epoch the way an in-flight query does.
    let pinned = handle.registry().resolve("storm").expect("warm");
    let old_weak = Arc::downgrade(&pinned.engine);
    let baseline = handle.registry().resident_bytes();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let client = Client::new(addr);
                let mut statuses = Vec::new();
                let mut bodies = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let response = client
                        .post(
                            "/v1/traces/storm/query",
                            r#"{"analysis": "env-breakdown"}"#,
                            &[],
                        )
                        .expect("query round trip");
                    statuses.push(response.status);
                    bodies.push(response.body);
                }
                (statuses, bodies)
            })
        })
        .collect();

    // Re-upload mid-storm (twice, to exercise repeated swaps).
    std::thread::sleep(Duration::from_millis(100));
    let client = Client::new(addr.clone());
    for _ in 0..2 {
        let up = client
            .post_bytes("/v1/traces/storm", &snapshot_bytes(&small_trace(12)), &[])
            .expect("swap upload");
        assert_eq!(up.status, 200, "{}", up.body);
        std::thread::sleep(Duration::from_millis(100));
    }
    stop.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    for worker in workers {
        let (statuses, bodies) = worker.join().expect("load worker");
        for (status, body) in statuses.iter().zip(&bodies) {
            total += 1;
            assert_eq!(*status, 200, "zero non-200 under swap: {body}");
            assert!(
                body == &old_expected || body == &new_expected,
                "every body matches exactly one epoch, never a blend"
            );
        }
    }
    assert!(total > 0, "the storm actually issued queries");

    // The pin still answers the old epoch's bytes after both swaps.
    let request = AnalysisRequest::parse(body).expect("request");
    assert_eq!(
        pinned.engine.run(&request).to_json().pretty(),
        old_expected,
        "pinned epoch unaffected by the swaps"
    );

    // Dropping the pin releases the old epoch's memory.
    drop(pinned);
    let deadline = Instant::now() + Duration::from_secs(3);
    while old_weak.upgrade().is_some() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        old_weak.upgrade().is_none(),
        "old epoch freed once the last pin dropped"
    );
    // One trace resident, same data scale as the baseline: the swap
    // did not leak residency.
    assert_eq!(handle.registry().len(), 1);
    let now = handle.registry().resident_bytes();
    assert!(
        now > 0 && now < baseline.saturating_mul(3),
        "resident bytes near baseline after swaps: {now} vs {baseline}"
    );
    handle.shutdown();
}
