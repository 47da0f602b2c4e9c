//! The `hpcfail-load` binary end to end: `run` prints exactly one JSON
//! summary line on stdout, exits 1 only when an item errored or gave
//! up, and refuses a scale it cannot generate, or a trace source it
//! cannot plan a corpus from, with a usage error.

use std::net::TcpListener;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use hpcfail_obs::json::{self, Json};

/// Every key of the summary line, in the order the binary documents.
const SUMMARY_KEYS: [&str; 16] = [
    "profile", "target", "corpus", "threads", "items", "queries", "wall_ms", "qps", "p50_us",
    "p99_us", "hit_rate", "errors", "timeouts", "sheds", "retries", "gave_up",
];

/// A scenario small enough to generate and serve in well under a second.
const FIXTURE: &str = r#"{
    "scenario": "cli-fixture",
    "version": 1,
    "seed": 5,
    "systems": [
        {"id": 2, "template": "numa", "nodes": 8, "days": 60},
        {"id": 20, "template": "smp", "nodes": 16, "days": 60}
    ]
}"#;

/// Runs `hpcfail-load` with `args`, killing it and failing the test if
/// it is still running after a minute.
fn hpcfail_load(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcfail-load"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hpcfail-load starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("hpcfail-load {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// Parses the one stdout line and checks it carries every summary key.
fn summary(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "stdout must be one line: {stdout:?}");
    let summary = json::parse(lines[0]).expect("summary is JSON");
    let Json::Obj(map) = &summary else {
        panic!("summary is not an object: {}", lines[0]);
    };
    let mut keys: Vec<&str> = map.iter().map(|(key, _)| key.as_ref()).collect();
    let mut want = SUMMARY_KEYS.to_vec();
    keys.sort_unstable();
    want.sort_unstable();
    assert_eq!(keys, want);
    summary
}

fn count(summary: &Json, key: &str) -> u64 {
    summary.get(key).and_then(Json::as_u64).expect(key)
}

#[test]
fn in_process_run_prints_one_summary_line_and_exits_0() {
    let path = std::env::temp_dir().join(format!("hpcfail-load-cli-{}.json", std::process::id()));
    std::fs::write(&path, FIXTURE).expect("write fixture");
    let output = hpcfail_load(&[
        "run",
        "--in-process",
        "--profile",
        "smoke",
        "--scenario",
        path.to_str().expect("utf-8 temp path"),
        "--quiet",
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stderr.is_empty(), "--quiet leaves stderr empty");
    let summary = summary(&output);
    assert_eq!(summary.get("profile").and_then(Json::as_str), Some("smoke"));
    assert_eq!(
        summary.get("target").and_then(Json::as_str),
        Some("in-process")
    );
    assert_eq!(
        summary.get("corpus").and_then(Json::as_str),
        Some("scenario=cli-fixture")
    );
    assert_eq!(count(&summary, "items"), 170);
    assert_eq!(count(&summary, "errors") + count(&summary, "gave_up"), 0);
}

#[test]
fn in_process_smoke_over_a_builtin_pack_answers_every_item() {
    let output = hpcfail_load(&[
        "run",
        "--profile",
        "smoke",
        "--in-process",
        "--scenario",
        "firmware-wave",
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let summary = summary(&output);
    assert_eq!(
        summary.get("corpus").and_then(Json::as_str),
        Some("scenario=firmware-wave")
    );
    assert_eq!(count(&summary, "errors"), 0);
}

#[test]
fn run_against_a_dead_address_reports_errors_and_exits_1() {
    // Bind then drop a listener: nothing answers on that port.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("bind a free port")
        .to_string();
    let output = hpcfail_load(&[
        "run",
        "--addr",
        &addr,
        "--profile",
        "smoke",
        "--threads",
        "1",
        "--quiet",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let summary = summary(&output);
    // A refused connection is a transport failure the client gives up
    // on, so every item lands in `errors` or `gave_up`.
    assert_eq!(
        count(&summary, "errors") + count(&summary, "gave_up"),
        count(&summary, "items")
    );
}

#[test]
fn nan_scale_is_a_usage_error() {
    for scale in ["NaN", "nan"] {
        let output = hpcfail_load(&[
            "run",
            "--in-process",
            "--profile",
            "smoke",
            "--scale",
            scale,
        ]);
        assert_eq!(output.status.code(), Some(2), "--scale {scale}");
        assert!(output.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--scale must be positive"), "{stderr}");
    }
}

/// The corpus is planned from a fleet description, so a CSV directory
/// or a snapshot is refused before anything is read or sent.
#[test]
fn loaded_trace_sources_are_usage_errors() {
    for source in [
        &["--trace", "no-such-dir"][..],
        &["--snapshot", "no-such.hpcsnap"],
        &["--snapshot", "no-such.hpcsnap", "--trace", "no-such-dir"],
    ] {
        for target in [&["--in-process"][..], &["--addr", "127.0.0.1:9"]] {
            let mut args = vec!["run", "--profile", "smoke"];
            args.extend_from_slice(target);
            args.extend_from_slice(source);
            let output = hpcfail_load(&args);
            assert_eq!(output.status.code(), Some(2), "{args:?}");
            assert!(output.stdout.is_empty(), "{args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("not --trace DIR or --snapshot"),
                "{args:?}: {stderr}"
            );
        }
    }
}

/// `--trace-name` picks the server's trace; it needs an HTTP target.
#[test]
fn trace_name_needs_an_http_target() {
    let output = hpcfail_load(&[
        "run",
        "--in-process",
        "--profile",
        "smoke",
        "--trace-name",
        "lanl",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--trace-name needs an HTTP target"),
        "{stderr}"
    );
}
