//! End-to-end check of the `repro --manifest` flow: run the real
//! binary, parse the manifest it writes, and check it describes the
//! run.

use hpcfail_obs::manifest::RunManifest;
use std::process::Command;

fn manifest_from_run(args: &[&str], path: &std::path::Path) -> RunManifest {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--manifest")
        .arg(path)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(path).expect("manifest written");
    RunManifest::from_json_str(&text).expect("manifest parses")
}

#[test]
fn manifest_describes_the_run() {
    let path = std::env::temp_dir().join(format!("hpcfail-manifest-{}.json", std::process::id()));
    let manifest = manifest_from_run(
        &[
            "--scale", "0.05", "--seed", "7", "--quiet", "sec3a", "fig9", "fig14",
        ],
        &path,
    );
    std::fs::remove_file(&path).ok();

    // Run parameters round-trip.
    assert_eq!(manifest.seed, 7);
    assert!((manifest.scale - 0.05).abs() < 1e-12);

    if !hpcfail_obs::ENABLED {
        return; // under no-obs the manifest legitimately observes nothing
    }

    // One span per executed experiment, each entered exactly once.
    for id in ["sec3a", "fig9", "fig14"] {
        let span = manifest
            .snapshot
            .spans
            .get(&format!("exp.{id}"))
            .unwrap_or_else(|| panic!("missing span exp.{id}"));
        assert_eq!(span.count, 1, "exp.{id} entered once");
        assert!(span.total_ns > 0, "exp.{id} took time");
        assert!(span.self_ns <= span.total_ns);
    }
    let experiment_spans = manifest
        .snapshot
        .spans
        .keys()
        .filter(|k| k.starts_with("exp."))
        .count();
    assert_eq!(experiment_spans, 3, "exactly the executed experiments");
    assert_eq!(manifest.snapshot.counters["bench.experiments_run"], 3);

    // The pipeline stages underneath reported in.
    assert_eq!(manifest.snapshot.counters["synth.fleets_generated"], 1);
    assert!(manifest.snapshot.counters["synth.records.failure"] > 0);
    assert!(manifest.snapshot.counters["store.rows_scanned"] > 0);
    assert!(manifest.snapshot.spans.contains_key("repro.generate"));

    // Every system's timeline index is built with its trace, and each
    // build leaves one sample of its duration.
    let systems = hpcfail_synth::FleetSpec::lanl_scaled(0.05).systems.len() as u64;
    let builds = manifest
        .snapshot
        .histograms
        .get("store.index.build_ns")
        .expect("index builds are timed");
    assert!(
        builds.count >= systems,
        "{} index build samples for {systems} systems",
        builds.count
    );
    assert!(builds.sum > 0, "index builds took time");
}

/// A run from `--snapshot` loads the snapshot and parses no CSV.
#[test]
fn snapshot_run_loads_the_snapshot_and_parses_no_csv() {
    let dir = std::env::temp_dir().join(format!("hpcfail-manifest-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot = dir.join("fleet.hpcsnap");
    let written = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "0.05",
            "--seed",
            "42",
            "--quiet",
            "--write-snapshot",
        ])
        .arg(&snapshot)
        .output()
        .expect("repro runs");
    assert!(
        written.status.success(),
        "{}",
        String::from_utf8_lossy(&written.stderr)
    );
    let snapshot = snapshot.to_str().expect("utf-8 temp path");
    let manifest = manifest_from_run(
        &[
            "--snapshot",
            snapshot,
            "--scale",
            "0.05",
            "--seed",
            "42",
            "--quiet",
            "sec3a",
        ],
        &dir.join("manifest.json"),
    );
    std::fs::remove_dir_all(&dir).ok();

    if !hpcfail_obs::ENABLED {
        return;
    }
    let snapshot = &manifest.snapshot;
    assert!(snapshot.spans.contains_key("store.snapshot.load"));
    assert!(snapshot.counters["store.snapshot.bytes_read"] > 0);
    assert!(!snapshot.spans.contains_key("store.ingest.load"));
}

#[test]
fn written_manifest_round_trips_byte_identically() {
    let path =
        std::env::temp_dir().join(format!("hpcfail-manifest-rt-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.05", "--seed", "7", "--quiet", "sec3a"])
        .arg("--manifest")
        .arg(&path)
        .output()
        .expect("repro runs");
    assert!(output.status.success());
    let written = std::fs::read_to_string(&path).expect("manifest written");
    std::fs::remove_file(&path).ok();

    let parsed = RunManifest::from_json_str(&written).expect("manifest parses");
    assert_eq!(
        parsed.to_json().pretty(),
        written,
        "parse -> re-serialize reproduces the exact bytes on disk"
    );
}

#[test]
fn old_format_manifest_without_p95_still_parses() {
    // A manifest written before histograms carried p95 and before the
    // windows section existed. Tools must keep reading these.
    let old = r#"{
  "schema_version": 1,
  "seed": 7,
  "scale": 0.05,
  "git_describe": null,
  "spans": [
    {"name": "exp.sec3a", "count": 1, "total_ns": 10, "self_ns": 10}
  ],
  "counters": {"bench.experiments_run": 1},
  "gauges": {},
  "histograms": {
    "engine.lat_ns": {"count": 2, "sum": 30, "max": 20, "p50": 10.0, "p90": 20.0, "p99": 20.0}
  }
}"#;
    let manifest = RunManifest::from_json_str(old).expect("pre-p95 manifest parses");
    assert_eq!(manifest.seed, 7);
    let hist = &manifest.snapshot.histograms["engine.lat_ns"];
    assert_eq!(hist.count, 2);
    assert_eq!(hist.p95, 0.0, "absent p95 defaults to zero");
    assert!(
        manifest.snapshot.windows.is_empty(),
        "absent windows section defaults to empty"
    );
}
