//! Command-line reproduction harness.
//!
//! ```text
//! repro [--scale S] [--seed N] [--scenario NAME|PATH]
//!       [--trace DIR [--policy P]] [--snapshot PATH]
//!       [--quiet] [--manifest PATH] [--list] <experiment>... | all
//! ```
//!
//! The trace-source flags are parsed and loaded by
//! [`hpcfail_synth::source`], with the same rules as in `hpcfail-serve`
//! and `hpcfail-load`.
//!
//! Timing is collected by the `hpcfail-obs` layer: fleet generation and
//! every experiment run inside spans, and the run ends with a summary
//! table on stderr (suppressed by `--quiet`) and, under `--manifest`, a
//! machine-readable JSON run manifest.
//!
//! The harness degrades gracefully: experiments whose required data
//! channels are missing are skipped, a panicking experiment is caught
//! and reported (counter `repro.failed.<id>`) while the rest keep
//! running, and `--trace DIR --policy lenient` loads dirty CSV input
//! with per-line quarantine instead of aborting.
//!
//! Exit codes: `0` clean, `1` fatal (bad arguments, unreadable trace,
//! write failure), `2` degraded (at least one failed experiment or
//! quarantined input line — results were produced but are incomplete).

use hpcfail_bench::{experiment, Experiment, ExperimentOutcome, ReproContext, EXPERIMENTS};
use hpcfail_obs::manifest::{git_describe, ManifestSink};
use hpcfail_obs::sink::Sink;
use hpcfail_report::obs_sink::TableSink;
use hpcfail_store::snapshot::write_snapshot;
use hpcfail_synth::source::{SourceFlags, TraceInput};
use std::process::ExitCode;

const USAGE: &str = "\
usage: repro [options] <experiment>... | all

Regenerates the tables and figures of El-Sayed & Schroeder (DSN 2013)
against a synthetic LANL-like fleet, a scenario pack, a CSV trace
directory or a snapshot.

trace source (the same flags and rules as hpcfail-serve serve):
  --scale S        fleet scale in (0, 1], default 1.0 (full LANL size);
                   beside --trace/--snapshot it only labels the run
  --seed N         generation seed, default 42 (a label beside
                   --trace/--snapshot)
  --scenario NAME  generate a scenario pack (builtin name or path to a
                   scenario JSON file) with the pack's own seed; excludes
                   every other source flag
  --trace DIR      load a CSV trace directory (the save_trace layout)
  --policy P       ingest policy for --trace: strict (default), lenient
                   or best-effort
  --snapshot PATH  load a binary .hpcsnap snapshot; with --trace DIR,
                   an unusable snapshot falls back to the CSV directory

options:
  --write-snapshot PATH  after loading, write the trace to PATH as a
                   .hpcsnap snapshot; with no experiments given the run
                   writes the snapshot and exits
  --inject-failure ID  make experiment ID fail (degradation testing)
  --out DIR        also write each report to DIR/<id>.txt
  --manifest PATH  write a JSON run manifest (seed, scale, build,
                   per-span timings, counters) to PATH
  --quiet          suppress progress and the metrics summary on stderr
  --list           list experiments and exit

exit codes:
  0  clean run
  1  fatal error (bad arguments, unreadable trace, write failure)
  2  degraded run (failed experiments and/or quarantined input lines;
     a summary is printed to stderr)

experiments:
";

fn usage() -> String {
    let mut out = USAGE.to_owned();
    for e in EXPERIMENTS {
        out.push_str(&format!("  {:<8} {}\n", e.id, e.title));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source = SourceFlags::default();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut manifest_path: Option<std::path::PathBuf> = None;
    let mut write_snapshot_path: Option<std::path::PathBuf> = None;
    let mut inject_failure: Option<String> = None;
    let mut quiet = false;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match source.take(arg, &mut iter) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        }
        match arg.as_str() {
            "--out" | "--manifest" | "--write-snapshot" | "--inject-failure" => {
                let Some(value) = iter.next().cloned() else {
                    eprintln!("{arg} needs a value");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--out" => out_dir = Some(value.into()),
                    "--manifest" => manifest_path = Some(value.into()),
                    "--write-snapshot" => write_snapshot_path = Some(value.into()),
                    _ => inject_failure = Some(value),
                }
            }
            "--quiet" => quiet = true,
            "--list" | "-h" | "--help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_owned()),
        }
    }
    let source = match source.finish() {
        Ok(source) => source,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    // A bare snapshot-writing run is legal: load (or generate), write
    // the snapshot, exit without running any experiment.
    if ids.is_empty() && write_snapshot_path.is_none() {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|e| e.id.to_owned()).collect();
    }
    // Resolve ids before paying for generation; keeps the run loop
    // free of "already validated" lookups.
    let mut selected: Vec<&'static Experiment> = Vec::with_capacity(ids.len());
    for id in &ids {
        match experiment(id) {
            Some(e) => selected.push(e),
            None => {
                eprintln!("unknown experiment {id:?}; try --list");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(id) = &inject_failure {
        if experiment(id).is_none() {
            eprintln!("--inject-failure: unknown experiment {id:?}; try --list");
            return ExitCode::FAILURE;
        }
    }

    if !quiet {
        eprintln!("loading {}...", source.input);
    }
    let loaded = {
        let _span = hpcfail_obs::span(match source.input {
            TraceInput::Csv { .. } | TraceInput::Snapshot { .. } => "repro.load",
            TraceInput::Fleet { .. } | TraceInput::Scenario { .. } => "repro.generate",
        });
        hpcfail_synth::source::load(&source)
    };
    let loaded = match loaded {
        Ok(loaded) => loaded,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(fallback) = &loaded.fallback {
        eprintln!("ingest: {fallback}");
    }
    let read = matches!(
        source.input,
        TraceInput::Csv { .. } | TraceInput::Snapshot { .. }
    );
    if !quiet && read && source.scale.is_none() {
        eprintln!(
            "scale {} inferred from the trace's node count (pass --scale to set it)",
            loaded.scale
        );
    }
    let ctx = ReproContext::from_trace(loaded.trace, loaded.seed, loaded.scale);
    if !quiet {
        eprintln!(
            "loaded {} failures across {} systems\n",
            ctx.trace().total_failures(),
            ctx.trace().len(),
        );
        if let Some(report) = &loaded.report {
            eprintln!("{}", hpcfail_report::quality::render_ingest_report(report));
        }
    }

    if let Some(path) = &write_snapshot_path {
        if let Err(err) = write_snapshot(path, ctx.trace()) {
            eprintln!("cannot write snapshot {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote snapshot to {}", path.display());
        }
    }

    if let Some(dir) = &out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    // Experiments are pure functions of the read-only context, so they
    // run concurrently; parallel_map returns results in input order and
    // printing happens afterwards on this thread, keeping stdout
    // byte-identical to the sequential loop.
    let threads = hpcfail_core::parallel::default_threads();
    let inject = inject_failure.as_deref();
    // A panicking experiment is caught and rendered as FAILED; silence
    // the default hook so the raw panic message and backtrace don't
    // interleave with other experiments' progress on stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let reports = hpcfail_core::parallel::parallel_map(&selected, threads, |&e| {
        (e, e.execute_opts(&ctx, inject == Some(e.id)))
    });
    let _ = std::panic::take_hook();
    let mut failed: Vec<&str> = Vec::new();
    let mut skipped = 0usize;
    for (e, outcome) in &reports {
        let body = match outcome {
            ExperimentOutcome::Report(text) => text.clone(),
            ExperimentOutcome::Skipped { missing } => {
                skipped += 1;
                format!(
                    "SKIPPED: trace lacks required channels: {}",
                    missing.join(", ")
                )
            }
            ExperimentOutcome::Failed { message } => {
                failed.push(e.id);
                format!("FAILED: {message}")
            }
        };
        println!("==== {} ({}) ====", e.id, e.title);
        println!("{body}");
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.txt", e.id));
            if let Err(err) = hpcfail_obs::fs::write_atomic(&path, body.as_bytes()) {
                eprintln!("cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let snapshot = hpcfail_obs::snapshot();
    if !quiet {
        if let Err(err) = TableSink::new(std::io::stderr().lock()).export(&snapshot) {
            eprintln!("cannot render metrics summary: {err}");
        }
    }
    if let Some(path) = &manifest_path {
        let mut sink = ManifestSink::new(path, ctx.seed(), ctx.scale(), git_describe());
        if let Err(err) = sink.export(&snapshot) {
            eprintln!("cannot write manifest {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote run manifest to {}", path.display());
        }
    }

    let quarantined = loaded.report.as_ref().map_or(0, |r| r.quarantined.len());
    if !failed.is_empty() || quarantined > 0 {
        eprintln!(
            "degraded run: {} failed experiment(s){}{}, {} skipped, {} quarantined input line(s)",
            failed.len(),
            if failed.is_empty() { "" } else { " " },
            if failed.is_empty() {
                String::new()
            } else {
                format!("[{}]", failed.join(", "))
            },
            skipped,
            quarantined,
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
