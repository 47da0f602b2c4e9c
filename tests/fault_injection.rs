//! The fault-injection suite: for every mutation kind and many seeds,
//! lenient ingestion must never panic, must quarantine exactly the
//! injected lines, and the surviving records must match the clean data
//! minus those lines.

use hpcfail_store::csv::{headers, save_trace, CsvError};
use hpcfail_store::ingest::{
    load_trace_with, read_failures_with, read_jobs_with, read_temperatures_with, IngestPolicy,
};
use hpcfail_synth::corrupt::{
    corrupt_csv, corrupt_file, CorruptionReport, MutationKind, TargetCsv,
};
use hpcfail_synth::FleetSpec;
use hpcfail_types::prelude::FailureRecord;
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::OnceLock;

const SEEDS: std::ops::Range<u64> = 0..10;

/// A scratch directory under the build's temp dir, unique to this
/// process and `name`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("hpcfail-fi-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The clean demo trace's CSV files, name and bytes, generated once
/// per test binary. The directory they were saved to is removed once
/// they are read, so a run leaves nothing behind.
fn clean_files() -> &'static [(OsString, Vec<u8>)] {
    static FILES: OnceLock<Vec<(OsString, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = scratch_dir("clean");
        let trace = FleetSpec::demo().generate(42).into_store();
        save_trace(&dir, &trace).expect("save demo trace");
        let files = std::fs::read_dir(&dir)
            .expect("list clean dir")
            .map(|entry| {
                let entry = entry.expect("dir entry");
                let bytes = std::fs::read(entry.path()).expect("read clean csv");
                (entry.file_name(), bytes)
            })
            .collect();
        std::fs::remove_dir_all(&dir).expect("cleanup");
        files
    })
}

fn clean_bytes(file: &str) -> Vec<u8> {
    clean_files()
        .iter()
        .find(|(name, _)| name == file)
        .map(|(_, bytes)| bytes.clone())
        .unwrap_or_else(|| panic!("the demo trace has no {file}"))
}

/// The failure records of a strict read.
fn read_failures(bytes: &[u8]) -> Result<Vec<FailureRecord>, CsvError> {
    read_failures_with(bytes, "failures.csv", IngestPolicy::Strict).map(|read| read.records)
}

/// Removes the given 1-based lines from a byte buffer, preserving the
/// remaining lines verbatim.
fn strip_lines(bytes: &[u8], damaged: &[usize]) -> Vec<u8> {
    let trailing = bytes.last() == Some(&b'\n');
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if trailing {
        lines.pop();
    }
    let kept: Vec<&[u8]> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| !damaged.contains(&(i + 1)))
        .map(|(_, l)| *l)
        .collect();
    let mut out = kept.join(&b'\n');
    if trailing && !out.is_empty() {
        out.push(b'\n');
    }
    out
}

#[test]
fn every_kind_and_seed_quarantines_exactly_the_injected_lines() {
    let clean = clean_bytes("failures.csv");
    let clean_records = read_failures(&clean[..]).expect("clean parses strict");
    for kind in MutationKind::ALL {
        for seed in SEEDS {
            let (bytes, report) = corrupt_csv(&clean, TargetCsv::Failures, kind, seed);
            assert!(report.changed, "{kind} seed {seed}: no opportunity");
            let read = read_failures_with(&bytes[..], "failures.csv", IngestPolicy::Lenient)
                .unwrap_or_else(|e| panic!("{kind} seed {seed}: lenient errored: {e}"));
            let quarantined: Vec<usize> = read.quarantined.iter().map(|q| q.line).collect();
            assert_eq!(
                quarantined, report.damaged_lines,
                "{kind} seed {seed}: quarantine must match the injected damage exactly"
            );
            match kind {
                MutationKind::TornFinalLine
                | MutationKind::SwapFields
                | MutationKind::GarbageUtf8
                | MutationKind::ForeignHeader => {
                    // Survivors = the clean data minus the damaged lines.
                    let expected = read_failures(&strip_lines(&clean, &report.damaged_lines)[..])
                        .expect("clean-minus-damaged parses strict");
                    assert_eq!(
                        read.records, expected,
                        "{kind} seed {seed}: survivors must match clean minus damaged"
                    );
                }
                MutationKind::DuplicateRecord => {
                    assert_eq!(
                        read.records, clean_records,
                        "{kind} seed {seed}: the duplicate must be dropped"
                    );
                    assert!(read.duplicates >= 1, "{kind} seed {seed}");
                }
                MutationKind::ShuffleTimestamps => {
                    // Every line still parses; only the order is wrong.
                    assert_eq!(
                        read.records.len(),
                        clean_records.len(),
                        "{kind} seed {seed}"
                    );
                    let strict = read_failures(&bytes[..]).expect("shuffled still parses strict");
                    assert_eq!(read.records, strict, "{kind} seed {seed}");
                }
            }
        }
    }
}

#[test]
fn strict_policy_rejects_every_damaging_kind() {
    let clean = clean_bytes("failures.csv");
    for kind in [
        MutationKind::TornFinalLine,
        MutationKind::SwapFields,
        MutationKind::GarbageUtf8,
        MutationKind::ForeignHeader,
    ] {
        for seed in SEEDS {
            let (bytes, report) = corrupt_csv(&clean, TargetCsv::Failures, kind, seed);
            assert!(report.changed);
            let err = read_failures_with(&bytes[..], "failures.csv", IngestPolicy::Strict)
                .expect_err(&format!("{kind} seed {seed}: strict must fail"));
            assert!(
                err.to_string().contains("failures.csv"),
                "{kind} seed {seed}: error names the file: {err}"
            );
        }
    }
}

#[test]
fn corrupted_directory_loads_leniently_with_audit_flags() {
    for (case, kind) in MutationKind::ALL.into_iter().enumerate() {
        let dir = scratch_dir(&format!("dir-{case}"));
        for (name, bytes) in clean_files() {
            std::fs::write(dir.join(name), bytes).expect("write csv");
        }
        let report = corrupt_file(dir.join("failures.csv"), kind, 3).expect("corrupt file");
        assert!(report.changed, "{kind}");

        let (trace, ingest) = load_trace_with(&dir, IngestPolicy::Lenient).unwrap_or_else(|e| {
            panic!("{kind}: lenient load must survive: {e}");
        });
        assert!(trace.total_failures() > 0, "{kind}");
        let quarantined: Vec<usize> = ingest.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(quarantined, report.damaged_lines, "{kind}");
        for q in &ingest.quarantined {
            assert_eq!(q.file, "failures.csv", "{kind}");
        }
        if report.expect_duplicates {
            assert!(ingest.quality.duplicate_records >= 1, "{kind}");
        }
        if report.expect_out_of_order {
            assert!(ingest.quality.out_of_order_timestamps >= 1, "{kind}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn other_trace_files_are_covered_too() {
    // temperatures.csv: garbage bytes.
    let temps = clean_bytes("temperatures.csv");
    assert!(
        temps.len() > headers::TEMPERATURES.len() + 2,
        "demo trace carries temperature samples"
    );
    for seed in SEEDS {
        let (bytes, report) = corrupt_csv(
            &temps,
            TargetCsv::Temperatures,
            MutationKind::GarbageUtf8,
            seed,
        );
        let read = read_temperatures_with(&bytes[..], "temperatures.csv", IngestPolicy::Lenient)
            .expect("lenient survives");
        let got: Vec<usize> = read.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(got, report.damaged_lines, "seed {seed}");
    }
    // jobs.csv: a deleted separator (the swap fallback for all-numeric
    // schemas).
    let jobs = clean_bytes("jobs.csv");
    for seed in SEEDS {
        let (bytes, report) = corrupt_csv(&jobs, TargetCsv::Jobs, MutationKind::SwapFields, seed);
        let read = read_jobs_with(&bytes[..], "jobs.csv", IngestPolicy::Lenient)
            .expect("lenient survives");
        let got: Vec<usize> = read.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(got, report.damaged_lines, "seed {seed}");
    }
}

#[test]
fn corruption_reports_are_deterministic() {
    let clean = clean_bytes("failures.csv");
    for kind in MutationKind::ALL {
        let runs: Vec<(Vec<u8>, CorruptionReport)> = (0..2)
            .map(|_| corrupt_csv(&clean, TargetCsv::Failures, kind, 77))
            .collect();
        assert_eq!(runs[0], runs[1], "{kind}");
    }
}
