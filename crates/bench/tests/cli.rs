//! `repro` over a corrupted CSV trace, run through the real binary:
//! the strict policy refuses it naming the damaged file, and the
//! lenient policy quarantines the damage and reports a degraded run.

use hpcfail_obs::manifest::RunManifest;
use hpcfail_store::csv::save_trace;
use hpcfail_synth::corrupt::{corrupt_file, MutationKind};
use hpcfail_synth::FleetSpec;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes a CSV trace directory whose `failures.csv` carries injected
/// garbage bytes; returns it and the lines that damage hit.
fn corrupted_trace(name: &str) -> (PathBuf, Vec<usize>) {
    let dir = std::env::temp_dir().join(format!("hpcfail-repro-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create trace dir");
    save_trace(&dir, &FleetSpec::demo().generate(42).into_store()).expect("save trace");
    let report = corrupt_file(dir.join("failures.csv"), MutationKind::GarbageUtf8, 7)
        .expect("corrupt failures.csv");
    assert!(report.changed && !report.damaged_lines.is_empty());
    (dir, report.damaged_lines)
}

/// Runs `repro --trace DIR args...`, then removes `DIR`.
fn repro(dir: PathBuf, args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--trace")
        .arg(&dir)
        .args(args)
        .output()
        .expect("repro runs");
    std::fs::remove_dir_all(&dir).ok();
    output
}

#[test]
fn strict_policy_refuses_a_corrupted_trace_naming_the_file() {
    let (dir, _) = corrupted_trace("strict");
    let output = repro(dir, &["--policy", "strict", "--quiet", "fig1a"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("cannot load trace from"), "{stderr}");
    assert!(stderr.contains("failures.csv"), "{stderr}");
}

#[test]
fn lenient_policy_degrades_with_exit_2_and_records_it() {
    let (dir, damaged_lines) = corrupted_trace("lenient");
    let manifest = dir.with_extension("manifest.json");
    let output = repro(
        dir,
        &[
            "--policy",
            "lenient",
            "--inject-failure",
            "fig5",
            "--manifest",
            manifest.to_str().expect("utf-8 temp path"),
            "fig1a",
            "fig5",
        ],
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("FAILED: injected failure"), "{stdout}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let damaged = damaged_lines.len();
    assert!(
        stderr.contains(&format!(
            "degraded run: 1 failed experiment(s) [fig5], 0 skipped, \
             {damaged} quarantined input line(s)"
        )),
        "{stderr}"
    );

    if !hpcfail_obs::ENABLED {
        return; // under no-obs the manifest legitimately observes nothing
    }
    let counters = RunManifest::from_json_str(&text)
        .expect("manifest parses")
        .snapshot
        .counters;
    assert_eq!(counters["ingest.quarantined"], damaged as u64);
    assert_eq!(counters["repro.failed.fig5"], 1);
    assert!(counters["ingest.rows_ok"] > 0);
}

#[test]
fn a_csv_trace_without_scale_is_validated_at_its_own_scale() {
    // What `corrupt --generate --scale 0.1 --seed 42 DIR` writes.
    let dir = std::env::temp_dir().join(format!("hpcfail-repro-scale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let trace = FleetSpec::lanl_scaled(0.1).generate(42).into_store();
    save_trace(&dir, &trace).expect("save trace");
    let inferred = hpcfail_synth::source::inferred_scale(&trace);
    let output = repro(dir, &["validate"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("6 of 6 checks passed"), "{stdout}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!(
            "scale {inferred} inferred from the trace's node count"
        )),
        "{stderr}"
    );
    assert!(inferred > 0.1 && inferred < 0.11, "{inferred}");
}
