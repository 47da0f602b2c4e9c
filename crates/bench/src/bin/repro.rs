//! Command-line reproduction harness.
//!
//! ```text
//! repro [--scale S] [--seed N] [--quiet] [--manifest PATH] [--list] <experiment>... | all
//! ```
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
use hpcfail_store::ingest::{load_trace_with, IngestPolicy, IngestReport};
use hpcfail_store::snapshot::{read_snapshot, write_snapshot};
use std::process::ExitCode;

fn usage() -> String {
    let mut out = String::from(
        "usage: repro [options] <experiment>... | all\n\n\
         Regenerates the tables and figures of El-Sayed & Schroeder (DSN 2013)\n\
         against a synthetic LANL-like fleet, or against a trace directory.\n\n\
         options:\n\
           --scale S        fleet scale in (0, 1], default 1.0 (full LANL size)\n\
           --seed N         generation seed, default 42\n\
           --trace DIR      load the trace from DIR (CSV layout written by\n\
                            save_trace) instead of generating a fleet\n\
           --policy P       ingestion policy for --trace: strict (default),\n\
                            lenient, or best-effort\n\
           --snapshot PATH  load the trace from a binary .hpcsnap snapshot\n\
                            (one bulk read, no CSV parse) instead of\n\
                            generating a fleet or reading --trace\n\
           --scenario NAME  generate a scenario pack (builtin name or path\n\
                            to a scenario JSON file) instead of the\n\
                            LANL-shaped fleet; the pack's own seed is used\n\
           --write-snapshot PATH  after loading, write the trace to PATH as\n\
                            a .hpcsnap snapshot; with no experiments given\n\
                            the run writes the snapshot and exits\n\
           --inject-failure ID  make experiment ID fail (degradation testing)\n\
           --out DIR        also write each report to DIR/<id>.txt\n\
           --manifest PATH  write a JSON run manifest (seed, scale, build,\n\
                            per-span timings, counters) to PATH\n\
           --quiet          suppress progress and the metrics summary on stderr\n\
           --list           list experiments and exit\n\n\
         exit codes:\n\
           0  clean run\n\
           1  fatal error (bad arguments, unreadable trace, write failure)\n\
           2  degraded run (failed experiments and/or quarantined input lines;\n\
              a summary is printed to stderr)\n\n\
         experiments:\n",
    );
    for e in EXPERIMENTS {
        out.push_str(&format!("  {:<8} {}\n", e.id, e.title));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut manifest_path: Option<std::path::PathBuf> = None;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut snapshot_path: Option<std::path::PathBuf> = None;
    let mut scenario_name: Option<String> = None;
    let mut write_snapshot_path: Option<std::path::PathBuf> = None;
    let mut policy = IngestPolicy::Strict;
    let mut inject_failure: Option<String> = None;
    let mut quiet = false;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = Some(dir.into()),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--manifest" => match iter.next() {
                Some(path) => manifest_path = Some(path.into()),
                None => {
                    eprintln!("--manifest needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match iter.next() {
                Some(dir) => trace_dir = Some(dir.into()),
                None => {
                    eprintln!("--trace needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--snapshot" => match iter.next() {
                Some(path) => snapshot_path = Some(path.into()),
                None => {
                    eprintln!("--snapshot needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--scenario" => match iter.next() {
                Some(name) => scenario_name = Some(name.clone()),
                None => {
                    eprintln!("--scenario needs a pack name or file path");
                    return ExitCode::FAILURE;
                }
            },
            "--write-snapshot" => match iter.next() {
                Some(path) => write_snapshot_path = Some(path.into()),
                None => {
                    eprintln!("--write-snapshot needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--policy" => match iter.next().map(|v| v.parse()) {
                Some(Ok(p)) => policy = p,
                Some(Err(err)) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--policy needs a value (strict, lenient, best-effort)");
                    return ExitCode::FAILURE;
                }
            },
            "--inject-failure" => match iter.next() {
                Some(id) => inject_failure = Some(id.clone()),
                None => {
                    eprintln!("--inject-failure needs an experiment id");
                    return ExitCode::FAILURE;
                }
            },
            "--quiet" => quiet = true,
            "--scale" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 && v <= 1.0 => scale = v,
                _ => {
                    eprintln!("--scale needs a value in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if snapshot_path.is_some() && trace_dir.is_some() {
        eprintln!("--snapshot and --trace are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if scenario_name.is_some() && (snapshot_path.is_some() || trace_dir.is_some()) {
        eprintln!("--scenario is mutually exclusive with --trace and --snapshot");
        return ExitCode::FAILURE;
    }
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

    let mut ingest_report: Option<IngestReport> = None;
    let ctx = if let Some(dir) = &trace_dir {
        if !quiet {
            eprintln!("loading trace from {} ({policy} policy)...", dir.display());
        }
        let loaded = {
            let _span = hpcfail_obs::span("repro.load");
            load_trace_with(dir, policy)
        };
        match loaded {
            Ok((trace, report)) => {
                ingest_report = Some(report);
                ReproContext::from_trace(trace, seed, scale)
            }
            Err(err) => {
                eprintln!("cannot load trace from {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = &snapshot_path {
        if !quiet {
            eprintln!("loading snapshot {}...", path.display());
        }
        let loaded = {
            let _span = hpcfail_obs::span("repro.load");
            read_snapshot(path)
        };
        match loaded {
            Ok(trace) => ReproContext::from_trace(trace, seed, scale),
            Err(err) => {
                eprintln!("cannot load snapshot {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(name) = &scenario_name {
        let scenario = match hpcfail_synth::scenario::load(name) {
            Ok(scenario) => scenario,
            Err(err) => {
                eprintln!("cannot load scenario {name:?}: {err}");
                return ExitCode::FAILURE;
            }
        };
        if !quiet {
            eprintln!(
                "generating scenario {} (seed {})...",
                scenario.name, scenario.seed
            );
        }
        let pack_seed = scenario.seed;
        let trace = {
            let _span = hpcfail_obs::span("repro.generate");
            scenario.generate().into_store()
        };
        ReproContext::from_trace(trace, pack_seed, scale)
    } else {
        if !quiet {
            eprintln!("generating fleet (scale {scale}, seed {seed})...");
        }
        let _span = hpcfail_obs::span("repro.generate");
        ReproContext::generate(scale, seed)
    };
    if !quiet {
        eprintln!(
            "loaded {} failures across {} systems\n",
            ctx.trace().total_failures(),
            ctx.trace().len(),
        );
        if let Some(report) = &ingest_report {
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
        let mut sink = ManifestSink::new(path, seed, scale, git_describe());
        if let Err(err) = sink.export(&snapshot) {
            eprintln!("cannot write manifest {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote run manifest to {}", path.display());
        }
    }

    let quarantined = ingest_report.as_ref().map_or(0, |r| r.quarantined.len());
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
