//! The `hpcfail-serve` binary's argument checks and boot-time audit
//! lines, run through the real executable.

use hpcfail_obs::json::Json;
use hpcfail_obs::manifest::RunManifest;
use hpcfail_serve::client::Client;
use hpcfail_serve::promtext::{Sample, Scrape};
use hpcfail_serve::retry::{RetryPolicy, RetryingClient};
use hpcfail_store::csv::save_trace;
use hpcfail_store::snapshot::write_snapshot;
use hpcfail_synth::FleetSpec;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A server child that is killed if the test fails before shutting it
/// down.
struct Server(Child);

impl Server {
    /// Spawns `command`, with stdout and stderr piped, under the guard.
    fn spawn(command: &mut Command) -> Server {
        Server(
            command
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("hpcfail-serve starts"),
        )
    }

    /// Waits at most a minute for the server to exit, then returns its
    /// exit code and everything it wrote to stderr.
    fn exit_code_and_stderr(&mut self, what: &str) -> (Option<i32>, String) {
        wait_at_most_a_minute(&mut self.0, what);
        let code = self.0.wait().expect("exit status").code();
        let mut stderr = String::new();
        if let Some(mut pipe) = self.0.stderr.take() {
            pipe.read_to_string(&mut stderr).ok();
        }
        (code, stderr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Waits for `child` to exit, killing it and failing the test if it is
/// still running after a minute.
fn wait_at_most_a_minute(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("hpcfail-serve {what} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads the server's `ADDR` readiness line from its piped stdout,
/// killing it and failing the test if none comes within a minute.
fn wait_for_addr(child: &mut Child) -> String {
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if let Some(addr) = line.strip_prefix("ADDR ") {
                tx.send(addr.to_owned()).ok();
            }
        }
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(addr) => addr,
        Err(_) => {
            child.kill().ok();
            let mut stderr = String::new();
            child
                .stderr
                .take()
                .map(|mut e| e.read_to_string(&mut stderr));
            panic!("no ADDR line within 60 s; stderr: {stderr}");
        }
    }
}

/// `--scale NaN` is refused with a usage error before any trace is
/// generated or any socket is bound.
#[test]
fn serve_refuses_nan_scale_with_a_usage_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
        .args(["serve", "--addr", "127.0.0.1:0", "--scale", "NaN"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hpcfail-serve starts");
    wait_at_most_a_minute(&mut child, "--scale NaN");
    let output = child.wait_with_output().expect("collect output");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--scale must be positive"), "{stderr}");
}

/// A corrupt snapshot beside a valid CSV directory boots the server
/// from the CSV, with one typed `ingest:` audit line on stderr.
#[test]
fn corrupt_snapshot_boots_from_csv_with_an_ingest_audit_line() {
    let root = std::env::temp_dir().join(format!("hpcfail-serve-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("trace");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    save_trace(&dir, &FleetSpec::demo().generate(3).into_store()).expect("save trace");
    let snapshot = root.join("fleet.hpcsnap");
    std::fs::write(&snapshot, b"NOTASNAP").expect("write bad snapshot");

    let mut server = Server::spawn(
        Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .arg("--snapshot")
            .arg(&snapshot)
            .arg("--trace")
            .arg(&dir),
    );
    let addr = wait_for_addr(&mut server.0);
    let shutdown = Client::new(addr).post("/v1/shutdown", "", &[]);
    let (code, stderr) = server.exit_code_and_stderr("after /v1/shutdown");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(shutdown.expect("shutdown answered").status, 200);
    assert_eq!(code, Some(0));
    let audit: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("ingest: "))
        .collect();
    assert_eq!(audit.len(), 1, "{stderr}");
    assert!(
        audit[0].contains("fleet.hpcsnap unusable, falling back to CSV"),
        "{stderr}"
    );
}

/// A server booted from a snapshot alone loads it without parsing any
/// CSV, answers `trace-summary` with the snapshot's fingerprint, and
/// shuts down cleanly on `/v1/shutdown`.
#[test]
fn snapshot_boot_answers_with_its_fingerprint_and_parses_no_csv() {
    let root = std::env::temp_dir().join(format!("hpcfail-serve-snap-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("create temp dir");
    let trace = FleetSpec::demo().generate(5).into_store();
    let snapshot = root.join("fleet.hpcsnap");
    write_snapshot(&snapshot, &trace).expect("write snapshot");
    let manifest = root.join("serve-manifest.json");

    let mut server = Server::spawn(
        Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .arg("--snapshot")
            .arg(&snapshot)
            .arg("--manifest")
            .arg(&manifest),
    );
    let client = Client::new(wait_for_addr(&mut server.0));
    let summary = client.post(
        "/v1/traces/default/query",
        r#"{"analysis": "trace-summary"}"#,
        &[],
    );
    let shutdown = client.post("/v1/shutdown", "", &[]);
    let (code, stderr) = server.exit_code_and_stderr("after /v1/shutdown");
    let written = read_manifest(&manifest);
    std::fs::remove_dir_all(&root).ok();

    let summary = summary.expect("trace-summary answered");
    assert_eq!(summary.status, 200, "{}", summary.body);
    let fingerprint = format!(r#""fingerprint": "{:016x}""#, trace.fingerprint());
    assert!(summary.body.contains(&fingerprint), "{}", summary.body);
    assert_eq!(shutdown.expect("shutdown answered").status, 200);
    assert_eq!(code, Some(0), "{stderr}");
    if hpcfail_obs::ENABLED {
        let spans = &written.snapshot.spans;
        assert!(spans.contains_key("store.snapshot.load"), "{spans:?}");
        assert!(!spans.contains_key("store.ingest.load"), "{spans:?}");
    }
}

fn read_manifest(path: &Path) -> RunManifest {
    let text = std::fs::read_to_string(path).expect("manifest written");
    RunManifest::from_json_str(&text).expect("manifest parses")
}

/// Runs `hpcfail-serve args...` to completion; fails the test unless it
/// exits 0. Returns its stdout and stderr.
fn serve_cli(args: &[&str]) -> (String, String) {
    let (ok, stdout, stderr) = serve_cli_status(args);
    assert!(ok, "{args:?}: {stdout}{stderr}");
    (stdout, stderr)
}

/// Runs `hpcfail-serve args...` to completion. Returns whether it
/// exited 0, its stdout and its stderr.
fn serve_cli_status(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
        .args(args)
        .output()
        .expect("hpcfail-serve runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn is_lower_hex(s: &str) -> bool {
    s.bytes()
        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// The live-telemetry path end to end: traffic from the CLI client, a
/// traced query, `check-metrics` over the scraped exposition, one `top`
/// frame, and an access log with one JSON object and a trace id per
/// request, protocol errors included.
#[test]
fn metrics_scrape_dashboard_and_access_log_cover_live_traffic() {
    let root = std::env::temp_dir().join(format!("hpcfail-serve-scrape-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("create temp dir");
    let access_log = root.join("access.jsonl");
    let mut server = Server::spawn(
        Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "4"])
            .args(["--scale", "0.05", "--seed", "42", "--access-log"])
            .arg(&access_log),
    );
    let addr = wait_for_addr(&mut server.0);
    let query = |extra: &[&str], body: &str| {
        let mut args = vec!["query", "--addr", &addr];
        args.extend_from_slice(extra);
        args.push(body);
        serve_cli(&args)
    };

    for _ in 0..5 {
        query(&[], r#"{"analysis": "trace-summary"}"#);
    }
    query(&[], r#"{"analysis": "env-breakdown"}"#);
    let (traced, trace_header) = query(&["--trace"], r#"{"analysis": "availability"}"#);
    assert!(
        trace_header.lines().any(|line| line
            .strip_prefix("x-trace-id: ")
            .is_some_and(|id| id.len() == 16 && is_lower_hex(id))),
        "{trace_header}"
    );
    // Under no-obs the body carries the trace id but no span tree.
    assert!(
        traced.contains("\"trace\"") || !hpcfail_obs::ENABLED,
        "{traced}"
    );

    // Under no-obs the per-kind series are compiled out.
    let per_kind = [
        r#"serve_requests_by_kind_total{kind="trace-summary"}"#,
        r#"serve_window_latency_ns{kind="trace-summary",quantile="0.99"}"#,
    ];
    let mut check = vec!["check-metrics", "--addr", &addr];
    for series in [
        "serve_requests_total",
        r#"serve_cache_requests_total{result="hit"}"#,
        "serve_slo_healthy",
        "serve_inflight",
    ]
    .into_iter()
    .chain(per_kind.into_iter().filter(|_| hpcfail_obs::ENABLED))
    {
        check.extend(["--require", series]);
    }
    serve_cli(&check);
    let (frame, _) = serve_cli(&["top", "--addr", &addr, "--frames", "1"]);
    assert!(frame.contains("hpcfail-serve top"), "{frame}");
    assert!(
        frame.contains("trace-summary") || !hpcfail_obs::ENABLED,
        "{frame}"
    );

    // A health check and a protocol error land in the access log too.
    let client = Client::new(addr.clone());
    assert_eq!(client.get("/v1/healthz").expect("healthz").status, 200);
    let mut garbage = std::net::TcpStream::connect(&addr).expect("connect");
    std::io::Write::write_all(&mut garbage, b"garbage\r\n\r\n").expect("send garbage");
    let mut answer = String::new();
    garbage.read_to_string(&mut answer).ok();
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 400"),
        "{answer}"
    );
    query(&[], r#"{"analysis": "trace-summary"}"#);

    let shutdown = client.post("/v1/shutdown", "", &[]);
    let (code, stderr) = server.exit_code_and_stderr("after /v1/shutdown");
    let log = std::fs::read_to_string(&access_log).expect("access log written");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(shutdown.expect("shutdown answered").status, 200);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(log.contains(r#""kind":"trace-summary""#), "{log}");
    assert!(log.contains(r#""kind":"http-error""#), "{log}");
    for line in log.lines() {
        let trace_id = line
            .split_once(r#""trace_id":""#)
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(id, _)| id);
        assert!(
            line.starts_with('{') && line.ends_with('}') && trace_id.is_some(),
            "{line}"
        );
        assert!(trace_id.is_some_and(is_lower_hex), "{line}");
    }
}

/// Boots `hpcfail-serve serve` with two workers and `args`, and waits
/// for its address. A `--workers` in `args` wins: the last value of a
/// flag counts.
fn boot(args: &[&str]) -> (Server, String) {
    let mut server = Server::spawn(
        Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(args),
    );
    let addr = wait_for_addr(&mut server.0);
    (server, addr)
}

/// Stops a server through `/v1/shutdown` and returns its exit code.
fn shut_down(mut server: Server, addr: &str) -> Option<i32> {
    let shutdown = Client::new(addr).post("/v1/shutdown", "", &[]);
    assert_eq!(shutdown.expect("shutdown answered").status, 200);
    server.exit_code_and_stderr("after /v1/shutdown").0
}

/// The multi-trace registry end to end through the CLI: CSV and
/// snapshot uploads into an empty server, the same bytes as a server
/// booted from that snapshot, typed 404s for unversioned paths and
/// evicted traces, the registry series, and the shutdown manifest.
#[test]
fn registry_uploads_queries_evictions_and_manifest_through_the_cli() {
    let root = std::env::temp_dir().join(format!("hpcfail-serve-registry-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("create temp dir");
    let snapshot = root.join("fleet.hpcsnap");
    write_snapshot(&snapshot, &FleetSpec::demo().generate(42).into_store())
        .expect("write snapshot");
    let snapshot = snapshot.to_str().expect("utf-8 path");
    let sample = "System,NodeNum,Prob Started,Prob Fixed,Cause,SubCause\n\
                  20,0,10/23/2003 14:55,10/23/2003 18:20,Hardware,Memory Dimm\n\
                  20,17,11/02/2003 03:10,,Facilities,Power Outage\n\
                  2,5,01/15/1997 09:00,01/15/1997 10:30,Human Error,\n";
    let csv = root.join("lanl.csv");
    std::fs::write(&csv, sample).expect("write csv");
    let csv = csv.to_str().expect("utf-8 path");
    // The same rows plus one that is not UTF-8.
    let dirty = root.join("dirty.csv");
    let mut bytes = sample.as_bytes().to_vec();
    bytes.extend_from_slice(b"20,3,11/05/2003 08:00,,Hard\xFFware,\n");
    std::fs::write(&dirty, bytes).expect("write dirty csv");
    let dirty = dirty.to_str().expect("utf-8 path");
    let manifest = root.join("registry-manifest.json");
    let manifest_arg = manifest.to_str().expect("utf-8 path");

    let (server, addr) = boot(&["--empty", "--manifest", manifest_arg]);
    let client = Client::new(addr.clone());
    let health = client.get("/v1/healthz").expect("healthz");
    assert!(health.body.contains(r#""traces": 0"#), "{}", health.body);

    let upload = |name: &str, source: &[&str]| {
        let mut args = vec!["upload", "--addr", &addr, "--name", name];
        args.extend_from_slice(source);
        serve_cli(&args).0
    };
    let strict = upload("lanl-sample", &["--csv", csv, "--policy", "strict"]);
    assert!(strict.contains(r#""rows_ok": 3"#), "{strict}");
    assert!(strict.contains(r#""source": "csv""#), "{strict}");
    // The default policy is lenient: the bad row costs only itself.
    let lenient = upload("lenient-sample", &["--csv", dirty]);
    assert!(lenient.contains(r#""rows_ok": 3"#), "{lenient}");
    assert!(lenient.contains(r#""quarantined": 1"#), "{lenient}");
    let uploaded = upload("fleet", &["--snapshot", snapshot]);
    assert!(uploaded.contains(r#""source": "snapshot""#), "{uploaded}");
    let (traces, _) = serve_cli(&["traces", "--addr", &addr]);
    for name in ["lanl-sample", "lenient-sample", "fleet"] {
        assert!(traces.contains(&format!(r#""name": "{name}""#)), "{traces}");
    }

    let (direct, direct_addr) = boot(&["--snapshot", snapshot]);
    for kind in ["trace-summary", "env-breakdown", "availability"] {
        let body = format!(r#"{{"analysis": "{kind}"}}"#);
        let (from_upload, _) =
            serve_cli(&["query", "--addr", &addr, "--trace-name", "fleet", &body]);
        let (from_boot, _) = serve_cli(&["query", "--addr", &direct_addr, &body]);
        assert_eq!(from_upload, from_boot, "{kind}");
    }
    assert_eq!(shut_down(direct, &direct_addr), Some(0));
    let summary = r#"{"analysis": "trace-summary"}"#;
    let (lanl, _) = serve_cli(&[
        "query",
        "--addr",
        &addr,
        "--trace-name",
        "lanl-sample",
        summary,
    ]);
    assert!(lanl.contains(r#""fingerprint""#), "{lanl}");

    assert_eq!(client.get("/healthz").expect("unversioned").status, 404);
    let health = client.get("/v1/healthz").expect("healthz");
    assert!(health.header("x-api-deprecated").is_none());

    let evict = ["evict", "--addr", &addr, "--name", "lanl-sample"];
    assert!(serve_cli(&evict).0.contains(r#""evicted""#));
    let (ok, again, _) = serve_cli_status(&evict);
    assert!(!ok && again.contains(r#""error""#), "{again}");
    let (ok, gone, _) = serve_cli_status(&[
        "query",
        "--addr",
        &addr,
        "--trace-name",
        "lanl-sample",
        summary,
    ]);
    assert!(!ok && gone.contains("no trace named"), "{gone}");

    // Under no-obs the registry series are compiled out.
    let mut check = vec![
        "check-metrics",
        "--addr",
        &addr,
        "--require",
        "serve_requests_total",
    ];
    if hpcfail_obs::ENABLED {
        for series in [
            "serve_registry_traces",
            "serve_registry_resident_bytes",
            "serve_registry_uploads_total",
            r#"serve_trace_requests_total{trace="fleet"}"#,
        ] {
            check.extend(["--require", series]);
        }
    }
    serve_cli(&check);

    assert_eq!(shut_down(server, &addr), Some(0));
    let written = read_manifest(&manifest);
    std::fs::remove_dir_all(&root).ok();
    if hpcfail_obs::ENABLED {
        let counters = &written.snapshot.counters;
        assert_eq!(
            counters.get("serve.registry.uploads"),
            Some(&3),
            "{counters:?}"
        );
        assert_eq!(
            counters.get("serve.registry.removals"),
            Some(&1),
            "{counters:?}"
        );
        let gauges = &written.snapshot.gauges;
        assert!(gauges.contains_key("serve.registry.traces"), "{gauges:?}");
    }
}

/// The eleven mixed queries of the serve smoke check: every analysis
/// family, both groups, and a checkpoint replay.
const SMOKE_QUERIES: [&str; 11] = [
    r#"{"analysis": "trace-summary"}"#,
    r#"{"analysis": "conditional", "group": "group1", "trigger": "any", "target": "any", "window": "week", "scope": "SameNode"}"#,
    r#"{"analysis": "conditional", "group": "group2", "trigger": "root:HW", "target": "any", "window": "day", "scope": "SameNode"}"#,
    r#"{"analysis": "fleet-conditional", "trigger": "any", "target": "any", "window": "week", "scope": "SameNode"}"#,
    r#"{"analysis": "same-type-summaries", "group": "group1", "window": "week", "scope": "SameNode"}"#,
    r#"{"analysis": "env-breakdown"}"#,
    r#"{"analysis": "power-conditional", "problem": "PowerOutage", "target": "root:HW", "window": "month"}"#,
    r#"{"analysis": "maintenance-after-power", "problem": "PowerOutage"}"#,
    r#"{"analysis": "alarm-evaluation", "group": "group1", "trigger": "any", "window": "week"}"#,
    r#"{"analysis": "checkpoint-replay", "group": "group1", "policy": {"kind": "uniform", "interval_hours": 24}}"#,
    r#"{"analysis": "availability"}"#,
];

/// Concurrent CLI clients against the real binary: one reference pass
/// of [`SMOKE_QUERIES`] through the `query` subcommand, then 64 client
/// threads re-ask all of them, each running one `query` child at a
/// time, and every body must be byte-identical to its reference. Then
/// `/v1/shutdown` stops the server cleanly, and its manifest counts the
/// requests and the cache hits.
#[test]
fn sixty_four_concurrent_cli_clients_get_byte_identical_answers() {
    let root = std::env::temp_dir().join(format!("hpcfail-serve-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("create temp dir");
    let manifest = root.join("serve-manifest.json");
    let manifest_arg = manifest.to_str().expect("utf-8 path");
    let (server, addr) = boot(&[
        "--workers",
        "8",
        "--scale",
        "0.05",
        "--seed",
        "42",
        "--manifest",
        manifest_arg,
    ]);

    // The reference pass also warms the cache.
    let reference: Vec<String> = SMOKE_QUERIES
        .iter()
        .map(|q| serve_cli(&["query", "--addr", &addr, q]).0)
        .collect();
    for (q, body) in SMOKE_QUERIES.iter().zip(&reference) {
        assert!(
            body.starts_with('{') && !body.contains(r#""error""#),
            "{q}: {body}"
        );
    }
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..64)
            .map(|client| {
                let (addr, reference) = (&addr, &reference);
                scope.spawn(move || {
                    SMOKE_QUERIES
                        .iter()
                        .zip(reference)
                        .enumerate()
                        .filter(|(_, (q, expected))| {
                            serve_cli(&["query", "--addr", addr, q]).0 != **expected
                        })
                        .map(|(i, _)| format!("client {client} query {i}"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert!(mismatches.is_empty(), "{mismatches:?}");

    assert_eq!(shut_down(server, &addr), Some(0));
    let written = read_manifest(&manifest);
    std::fs::remove_dir_all(&root).ok();
    // Under no-obs the counters are compiled out.
    if hpcfail_obs::ENABLED {
        let counters = &written.snapshot.counters;
        assert!(
            counters
                .get("serve.cache.hit")
                .is_some_and(|&hits| hits >= 1),
            "{counters:?}"
        );
        assert!(counters.contains_key("serve.requests"), "{counters:?}");
    }
}

/// Every `(series, label names)` pair of the server's own `serve_*`
/// families in one scrape. The engine's and the store's families are
/// left out: which of them appear depends on the host's parallelism.
fn serve_surface(scrape: &Scrape) -> BTreeSet<(String, Vec<String>)> {
    scrape
        .samples
        .iter()
        .filter(|sample| sample.name.starts_with("serve_"))
        .map(|sample| {
            let mut labels: Vec<String> = sample.labels.iter().map(|(n, _)| n.clone()).collect();
            labels.sort();
            (sample.name.clone(), labels)
        })
        .collect()
}

/// The `serve_*` surface of [`metrics_surface_and_its_identities_hold_for_fixed_traffic`]'s
/// scrape with instrumentation compiled in: series name, then label names.
const SERVE_SURFACE: &[(&str, &[&str])] = &[
    ("serve_admission_inflight", &[]),
    ("serve_admission_queued", &[]),
    ("serve_cache_requests_total", &["result"]),
    ("serve_inflight", &[]),
    ("serve_phase_us", &["phase", "quantile"]),
    ("serve_phase_us_count", &["phase"]),
    ("serve_phase_us_sum", &["phase"]),
    ("serve_registry_cold_traces", &[]),
    ("serve_registry_resident_bytes", &[]),
    ("serve_registry_traces", &[]),
    ("serve_registry_uploads_total", &[]),
    ("serve_request_latency_ns", &["kind", "quantile"]),
    ("serve_request_latency_ns_count", &["kind"]),
    ("serve_request_latency_ns_sum", &["kind"]),
    ("serve_requests_by_kind_total", &["kind"]),
    ("serve_requests_total", &[]),
    ("serve_responses_total", &["code"]),
    ("serve_slo_error_rate", &["kind"]),
    ("serve_slo_healthy", &[]),
    ("serve_slo_latency_burn", &["kind"]),
    ("serve_slo_ok", &["kind"]),
    ("serve_trace_requests_total", &["trace"]),
    ("serve_window_latency_ns", &["kind", "quantile"]),
    ("serve_window_latency_ns_count", &["kind"]),
    ("serve_window_latency_ns_sum", &["kind"]),
    ("serve_window_seconds", &[]),
];

/// The counter families whose every series the same scrape pins.
const COUNTED: [&str; 5] = [
    "serve_requests_total",
    "serve_cache_requests_total",
    "serve_responses_total",
    "serve_requests_by_kind_total",
    "serve_trace_requests_total",
];

/// Every series of the [`COUNTED`] families in that scrape, in
/// exposition order, as `name label=value,... count`.
const COUNTS: &[&str] = &[
    "serve_requests_total  9",
    "serve_cache_requests_total result=hit 2",
    "serve_cache_requests_total result=miss 4",
    "serve_cache_requests_total result=coalesced 0",
    "serve_responses_total code=200 7",
    "serve_responses_total code=404 1",
    "serve_requests_by_kind_total kind=batch 1",
    "serve_requests_by_kind_total kind=env-breakdown 1",
    "serve_requests_by_kind_total kind=healthz 1",
    "serve_requests_by_kind_total kind=other 1",
    "serve_requests_by_kind_total kind=trace-summary 3",
    "serve_requests_by_kind_total kind=upload 1",
    "serve_trace_requests_total trace=default 4",
    "serve_trace_requests_total trace=lanl 1",
];

/// The same scrape's `serve_*` surface under `no-obs`.
const SERVE_SURFACE_NO_OBS: &[(&str, &[&str])] = &[
    ("serve_cache_requests_total", &["result"]),
    ("serve_inflight", &[]),
    ("serve_requests_total", &[]),
    ("serve_slo_error_rate", &["kind"]),
    ("serve_slo_healthy", &[]),
    ("serve_slo_latency_burn", &["kind"]),
    ("serve_slo_ok", &["kind"]),
];

/// Fixed traffic against the real binary pins the `serve_*` surface of
/// `/v1/metrics` and the identities between its per-kind families: the
/// lifetime count, the windowed count and `/v1/healthz`'s SLO
/// `requests` agree for every kind, and every request but the scrape
/// in progress has its response counted.
#[test]
fn metrics_surface_and_its_identities_hold_for_fixed_traffic() {
    let (server, addr) = boot(&["--scale", "0.05", "--seed", "42"]);
    let client = Client::new(addr.clone());
    let sample = "System,NodeNum,Prob Started,Prob Fixed,Cause,SubCause\n\
                  20,0,10/23/2003 14:55,10/23/2003 18:20,Hardware,Memory Dimm\n";
    let upload = client.post("/v1/traces/lanl", sample, &[]).expect("upload");
    assert_eq!(upload.status, 200, "{}", upload.body);
    let summary = r#"{"analysis": "trace-summary"}"#;
    for (path, body) in [
        ("/v1/traces/default/query", summary),
        ("/v1/traces/default/query", summary),
        (
            "/v1/traces/default/query",
            r#"{"analysis": "env-breakdown"}"#,
        ),
        ("/v1/traces/lanl/query", summary),
        (
            "/v1/traces/default/batch",
            r#"[{"analysis": "trace-summary"}, {"analysis": "availability"}]"#,
        ),
    ] {
        let answer = client.post(path, body, &[]).expect(path);
        assert_eq!(answer.status, 200, "{path}: {}", answer.body);
    }
    assert_eq!(client.get("/v1/nope").expect("404").status, 404);
    assert_eq!(client.get("/v1/healthz").expect("healthz").status, 200);
    // An unparseable request gets its typed 400 and a trace id, but no
    // row in the request table: the counts below stay as pinned.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"garbage\r\n\r\n").expect("write");
    let mut answer = String::new();
    raw.read_to_string(&mut answer).expect("read");
    assert!(
        answer.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "{answer}"
    );
    assert!(answer.contains("\r\nx-trace-id: "), "{answer}");

    let text = client.get("/v1/metrics").expect("scrape").body;
    let health = client.get("/v1/healthz").expect("healthz").body;
    assert_eq!(shut_down(server, &addr), Some(0));
    let scrape = hpcfail_serve::promtext::parse(&text).expect("valid exposition");

    let want = if hpcfail_obs::ENABLED {
        SERVE_SURFACE
    } else {
        SERVE_SURFACE_NO_OBS
    };
    let want: BTreeSet<(String, Vec<String>)> = want
        .iter()
        .map(|(name, labels)| {
            let labels = labels.iter().map(|l| (*l).to_owned()).collect();
            ((*name).to_owned(), labels)
        })
        .collect();
    let got = serve_surface(&scrape);
    assert_eq!(got, want, "scraped surface:\n{got:#?}\n{text}");
    if !hpcfail_obs::ENABLED {
        return;
    }

    let health = hpcfail_obs::json::parse(&health).expect("healthz is JSON");
    let slo_kinds = health
        .get("slo")
        .and_then(|slo| slo.get("kinds"))
        .expect("healthz carries SLO kinds");
    let kinds: Vec<&Sample> = scrape.series("serve_requests_by_kind_total").collect();
    assert!(kinds.len() >= 6, "{text}");
    for sample in kinds {
        let kind = sample.label("kind").expect("kind label");
        let by_kind = sample.value;
        let lifetime = scrape.value("serve_request_latency_ns_count", &[("kind", kind)]);
        let window = scrape.value("serve_window_latency_ns_count", &[("kind", kind)]);
        let slo = slo_kinds
            .get(kind)
            .and_then(|k| k.get("requests"))
            .and_then(Json::as_u64);
        assert_eq!(lifetime, Some(by_kind), "{kind}: {text}");
        assert_eq!(window, Some(by_kind), "{kind}: {text}");
        assert_eq!(slo.map(|n| n as f64), Some(by_kind), "{kind}: {health:?}");
    }
    let counts: Vec<String> = scrape
        .samples
        .iter()
        .filter(|sample| COUNTED.contains(&sample.name.as_str()))
        .map(|sample| {
            let labels: Vec<String> = sample
                .labels
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            format!("{} {} {}", sample.name, labels.join(","), sample.value)
        })
        .collect();
    assert_eq!(counts, COUNTS, "{text}");
    let requests = scrape.value("serve_requests_total", &[]).expect("total");
    assert_eq!(
        scrape.sum("serve_responses_total"),
        requests - 1.0,
        "{text}"
    );
}

/// The pinned chaos storm: `tests/chaos/ci-storm.json` sheds some of a
/// retrying client's traffic and times none of it out, `/v1/healthz` is
/// healthy again once the storm has left the SLO window, and the shed
/// counters land in the run manifest on shutdown.
#[test]
fn a_seeded_chaos_storm_sheds_recovers_and_reaches_the_manifest() {
    let storm = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos/ci-storm.json");
    let manifest = std::env::temp_dir().join(format!(
        "hpcfail-serve-chaos-manifest-{}.json",
        std::process::id()
    ));
    let (mut server, addr) = boot(&[
        "--scale",
        "0.05",
        "--seed",
        "42",
        "--workers",
        "8",
        "--chaos",
        storm.to_str().expect("UTF-8 path"),
        "--max-inflight",
        "16",
        "--max-queued",
        "64",
        "--shed-policy",
        "brownout",
        "--slo-window-ms",
        "2000",
        "--manifest",
        manifest.to_str().expect("UTF-8 path"),
    ]);
    // Nine attempts a request, as `hpcfail-load run --retries 8`.
    let client = RetryingClient::new(
        Client::new(addr.clone()),
        RetryPolicy {
            max_attempts: 9,
            base_delay_ms: 1,
            seed: 7,
            ..RetryPolicy::default()
        },
    );
    let queries = [
        ("query", r#"{"analysis": "trace-summary"}"#),
        ("query", r#"{"analysis": "env-breakdown"}"#),
        ("query", r#"{"analysis": "availability"}"#),
        (
            "batch",
            r#"[{"analysis": "trace-summary"}, {"analysis": "availability"}]"#,
        ),
    ];
    // Four clients, 600 requests: at the storm's 20% shed rate that is
    // about twice its 60-shed cap, so the cap is spent before the SLO
    // window is read.
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|worker| {
                let client = &client;
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for i in 0..150 {
                        let (endpoint, body) = queries[(worker + i) % queries.len()];
                        let path = format!("/v1/traces/default/{endpoint}");
                        let outcome = client.post_detailed(&path, body, &[]);
                        match &outcome.result {
                            Ok(answer) if answer.status == 200 && !outcome.gave_up => {}
                            Ok(answer) => failures.push(format!(
                                "{path} {body}: {} after {} attempts",
                                answer.status, outcome.attempts
                            )),
                            Err(err) => failures.push(format!("{path} {body}: {err}")),
                        }
                    }
                    failures
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    // No give-up, no error and no 504 timeout, yet the storm shed.
    assert!(
        failures.is_empty(),
        "{} failed, first: {:?}",
        failures.len(),
        failures.first()
    );
    let stats = client.stats();
    assert!(stats.sheds >= 1, "{stats:?}");

    // One SLO window later the storm's errors have left it.
    std::thread::sleep(Duration::from_millis(3_000));
    for _ in 0..10 {
        let outcome = client.post_detailed(
            "/v1/traces/default/query",
            r#"{"analysis": "trace-summary"}"#,
            &[],
        );
        assert_eq!(outcome.result.expect("query").status, 200);
    }
    let health = client.get("/v1/healthz").expect("healthz");
    let health = hpcfail_obs::json::parse(&health.body).expect("healthz is JSON");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("ok"),
        "{health:?}"
    );
    let shed_total = health
        .get("admission")
        .and_then(|gate| gate.get("shed_total"))
        .and_then(Json::as_u64);
    assert!(shed_total.is_some_and(|n| n >= 1), "{health:?}");

    let shutdown = Client::new(addr).post("/v1/shutdown", "", &[]);
    assert_eq!(shutdown.expect("shutdown answered").status, 200);
    let (code, stderr) = server.exit_code_and_stderr("after /v1/shutdown");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("chaos: 3 rules under seed 2026"),
        "{stderr}"
    );
    let written = read_manifest(&manifest);
    std::fs::remove_file(&manifest).ok();
    // Under no-obs the counters are compiled out.
    if hpcfail_obs::ENABLED {
        let counters = &written.snapshot.counters;
        for name in ["serve.shed.chaos", "serve.shed.total"] {
            assert!(
                counters.get(name).is_some_and(|&n| n >= 1),
                "{name}: {counters:?}"
            );
        }
    }
}
