//! The `corrupt` binary run through the real executable: it writes the
//! named trace source and damages one file, and a bad `--scale` is a
//! one-line error, never a panic.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `corrupt` with `args`, killing it and failing the test if it is
/// still running after a minute.
fn corrupt(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_corrupt"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("corrupt starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("corrupt {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn out_of_range_scale_is_an_error_not_a_panic() {
    let out = std::env::temp_dir().join(format!("hpcfail-corrupt-cli-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    for scale in ["NaN", "0", "2", "-1", "inf", "1.0000001"] {
        let output = corrupt(&["--out", out, "--generate", "--scale", scale]);
        assert_eq!(output.status.code(), Some(1), "--scale {scale}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            stderr.trim_end(),
            format!("corrupt: --scale must be positive and at most 1, got {scale:?}"),
        );
        assert!(output.stdout.is_empty(), "--scale {scale}");
        assert!(
            !std::path::Path::new(out).exists(),
            "nothing is written for --scale {scale}"
        );
    }
}

#[test]
fn generate_then_corrupt_writes_a_trace_and_reports_the_damage() {
    let out = std::env::temp_dir().join(format!("hpcfail-corrupt-gen-{}", std::process::id()));
    let out_str = out.to_str().expect("utf-8 temp path");
    let output = corrupt(&[
        "--out",
        out_str,
        "--generate",
        "--scale",
        "0.01",
        "--seed",
        "42",
        "--target",
        "failures.csv",
        "--kind",
        "garbage-utf8",
    ]);
    let written = std::fs::read_dir(&out).map_or(0, Iterator::count);
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(written, 7, "the seven trace CSV files");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0],
        format!("generated {out_str} (scale 0.01, seed 42)")
    );
    assert!(
        lines[1].starts_with("corrupted failures.csv kind=garbage-utf8 seed=7 damaged_lines=["),
        "{stdout}"
    );
    assert_eq!(lines.len(), 2, "{stdout}");
}

/// `--generate` writes the LANL-shaped fleet; every other trace source
/// is refused before anything is written.
#[test]
fn loaded_or_scenario_sources_are_refused() {
    let out = std::env::temp_dir().join(format!("hpcfail-corrupt-src-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    for source in [
        &["--scenario", "firmware-wave"][..],
        &["--trace", "no-such-dir"],
        &["--snapshot", "no-such.hpcsnap"],
    ] {
        let mut args = vec!["--out", out, "--generate"];
        args.extend_from_slice(source);
        let output = corrupt(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--generate writes the LANL-shaped fleet"),
            "{args:?}: {stderr}"
        );
        assert!(!std::path::Path::new(out).exists(), "{args:?}");
    }
}
