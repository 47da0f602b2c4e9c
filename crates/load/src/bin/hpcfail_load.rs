//! The `hpcfail-load` command: drive a query target with a named
//! traffic profile and write/check `BENCH_serve.json`.
//!
//! ```text
//! hpcfail-load run [--profile ci] [--addr HOST:PORT | --in-process]
//!                  [--trace NAME]
//!                  [--scale 0.05] [--seed 42 | --scenario NAME|PATH]
//!                  [--threads 4] [--cache 1024] [--out PATH]
//!                  [--retries N] [--retry-base-ms MS] [--retry-seed S]
//!                  [--shutdown] [--quiet]
//! hpcfail-load check PATH
//! hpcfail-load profiles
//! ```
//!
//! `--trace NAME` aims an HTTP run at a named trace in the server's
//! registry (it posts to `/v1/traces/NAME/query` and `.../batch`).
//! Defaults to `default`, which is where `hpcfail-serve serve` boots
//! its trace unless told otherwise. It is rejected with `--in-process`,
//! whose target answers from its own single engine.
//!
//! `--retries N` makes the HTTP target retry shed answers (429/503)
//! and transport failures up to N times per item, with seeded jittered
//! exponential backoff honoring the server's `Retry-After` hints; the
//! report's `sheds` / `retries` / `gave_up` counts come from this
//! path. Retry flags are rejected with `--in-process` (nothing to
//! retry against).
//!
//! `run` plans the profile's request sequence from its seed, executes
//! it against the target (a live server via `--addr`, or an engine
//! behind the server's own answer path via `--in-process`), writes the
//! report, and exits 1 if any budget line is violated. `check` parses
//! and budget-checks an existing report — CI runs it on the committed
//! copy so schema drift cannot land silently.
//!
//! Exit codes: 0 success, 1 budget/schema violation or runtime error,
//! 2 usage error.

use std::process::ExitCode;

use hpcfail_load::report::SCHEMA_VERSION;
use hpcfail_load::{
    build_corpus, execute, plan, systems_from_fleet, BenchReport, Budget, Http, InProcess,
    MixConfig, RunOptions, Target,
};
use hpcfail_serve::RetryPolicy;
use hpcfail_synth::FleetSpec;

const USAGE: &str = "usage:
  hpcfail-load run [--profile ci] [--addr HOST:PORT | --in-process]
                   [--trace NAME]
                   [--scale 0.05] [--seed 42 | --scenario NAME|PATH]
                   [--threads 4] [--cache 1024] [--out PATH]
                   [--retries N] [--retry-base-ms MS] [--retry-seed S]
                   [--shutdown] [--quiet]
  hpcfail-load check PATH
  hpcfail-load profiles";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("profiles") => {
            for name in MixConfig::PROFILES {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

/// Parses `--flag value` pairs; returns the value or an error message.
fn take_value<'a>(flag: &str, iter: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    iter.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

struct RunArgs {
    profile: String,
    addr: Option<String>,
    in_process: bool,
    trace: Option<String>,
    scale: f64,
    seed: u64,
    scenario: Option<String>,
    threads: usize,
    cache: usize,
    out: String,
    retries: Option<u32>,
    retry_base_ms: Option<u64>,
    retry_seed: Option<u64>,
    shutdown: bool,
    quiet: bool,
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut parsed = RunArgs {
        profile: "ci".to_owned(),
        addr: None,
        in_process: false,
        trace: None,
        scale: 0.05,
        seed: 42,
        scenario: None,
        threads: 4,
        cache: 1024,
        out: "BENCH_serve.json".to_owned(),
        retries: None,
        retry_base_ms: None,
        retry_seed: None,
        shutdown: false,
        quiet: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--profile" => {
                take_value("--profile", &mut iter).map(|v| parsed.profile = v.to_owned())
            }
            "--addr" => take_value("--addr", &mut iter).map(|v| parsed.addr = Some(v.to_owned())),
            "--in-process" => {
                parsed.in_process = true;
                Ok(())
            }
            "--trace" => take_value("--trace", &mut iter).and_then(|v| {
                if hpcfail_serve::registry::valid_name(v) {
                    parsed.trace = Some(v.to_owned());
                    Ok(())
                } else {
                    Err(format!("invalid --trace name {v:?}"))
                }
            }),
            "--scale" => take_value("--scale", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.scale = n)
                    .map_err(|_| format!("invalid --scale {v:?}"))
            }),
            "--seed" => take_value("--seed", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.seed = n)
                    .map_err(|_| format!("invalid --seed {v:?}"))
            }),
            "--scenario" => {
                take_value("--scenario", &mut iter).map(|v| parsed.scenario = Some(v.to_owned()))
            }
            "--threads" => take_value("--threads", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.threads = n)
                    .map_err(|_| format!("invalid --threads {v:?}"))
            }),
            "--cache" => take_value("--cache", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.cache = n)
                    .map_err(|_| format!("invalid --cache {v:?}"))
            }),
            "--out" => take_value("--out", &mut iter).map(|v| parsed.out = v.to_owned()),
            "--retries" => take_value("--retries", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.retries = Some(n))
                    .map_err(|_| format!("invalid --retries {v:?}"))
            }),
            "--retry-base-ms" => take_value("--retry-base-ms", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.retry_base_ms = Some(n))
                    .map_err(|_| format!("invalid --retry-base-ms {v:?}"))
            }),
            "--retry-seed" => take_value("--retry-seed", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| parsed.retry_seed = Some(n))
                    .map_err(|_| format!("invalid --retry-seed {v:?}"))
            }),
            "--shutdown" => {
                parsed.shutdown = true;
                Ok(())
            }
            "--quiet" => {
                parsed.quiet = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    if parsed.in_process == parsed.addr.is_some() {
        return usage_error("pick exactly one target: --addr HOST:PORT or --in-process");
    }
    let retry_flags =
        parsed.retries.is_some() || parsed.retry_base_ms.is_some() || parsed.retry_seed.is_some();
    if retry_flags && parsed.in_process {
        return usage_error("retry flags need an HTTP target (--addr)");
    }
    if parsed.trace.is_some() && parsed.in_process {
        return usage_error("--trace needs an HTTP target (--addr)");
    }
    if parsed.threads == 0 {
        return usage_error("--threads must be positive");
    }
    if parsed.scale <= 0.0 {
        return usage_error("--scale must be positive");
    }
    let Some(config) = MixConfig::named(&parsed.profile) else {
        return usage_error(&format!(
            "unknown profile {:?}; try: {}",
            parsed.profile,
            MixConfig::PROFILES.join(", ")
        ));
    };

    // The fleet description parameterizes the corpus; only the
    // in-process target additionally pays for trace generation.
    let scenario = match &parsed.scenario {
        Some(name) => match hpcfail_synth::scenario::load(name) {
            Ok(scenario) => Some(scenario),
            Err(err) => {
                eprintln!("cannot load scenario {name:?}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let (fleet, corpus_label) = match &scenario {
        Some(scenario) => (scenario.fleet(), format!("scenario={}", scenario.name)),
        None => {
            let spec = if parsed.scale >= 1.0 {
                FleetSpec::lanl()
            } else {
                FleetSpec::lanl_scaled(parsed.scale)
            };
            (spec, format!("scale={} seed={}", parsed.scale, parsed.seed))
        }
    };
    let systems = systems_from_fleet(&fleet);
    let corpus = build_corpus(&systems, config.corpus_size);
    let load_plan = match plan::build(&config, corpus.len()) {
        Ok(load_plan) => load_plan,
        Err(err) => {
            eprintln!("cannot plan profile {:?}: {err}", parsed.profile);
            return ExitCode::FAILURE;
        }
    };
    if !parsed.quiet {
        eprintln!(
            "profile {}: {} items / {} queries over a {}-entry corpus",
            parsed.profile,
            load_plan.items.len(),
            load_plan.queries,
            corpus.len()
        );
    }

    let target: Box<dyn Target> = if let Some(addr) = &parsed.addr {
        let trace_name = parsed
            .trace
            .as_deref()
            .unwrap_or(hpcfail_serve::DEFAULT_TRACE);
        if retry_flags {
            let default = RetryPolicy::default();
            let policy = RetryPolicy {
                // `--retries N` allows N retries: N + 1 total attempts.
                max_attempts: parsed
                    .retries
                    .map_or(default.max_attempts, |n| n.saturating_add(1)),
                base_delay_ms: parsed.retry_base_ms.unwrap_or(default.base_delay_ms),
                seed: parsed.retry_seed.unwrap_or(default.seed),
                ..default
            };
            Box::new(Http::with_retry(addr, policy).with_trace(trace_name))
        } else {
            Box::new(Http::new(addr).with_trace(trace_name))
        }
    } else {
        if !parsed.quiet {
            eprintln!("generating trace ({corpus_label})...");
        }
        let trace = match &scenario {
            // The scenario bakes in its own seed.
            Some(scenario) => scenario.generate().into_store(),
            None => fleet.generate(parsed.seed).into_store(),
        };
        Box::new(InProcess::new(trace, parsed.cache))
    };

    let stats = execute(
        &corpus,
        &load_plan,
        &config,
        target.as_ref(),
        RunOptions {
            threads: parsed.threads,
        },
    );
    let report = BenchReport::build(
        &config,
        &stats,
        target.label(),
        &corpus_label,
        parsed.threads,
        Budget::ci(),
    );
    if let Err(err) = std::fs::write(&parsed.out, report.pretty()) {
        eprintln!("cannot write {}: {err}", parsed.out);
        return ExitCode::FAILURE;
    }
    if !parsed.quiet {
        eprintln!(
            "{}: {} queries in {} ms ({:.0} qps), p50 {} us, p99 {} us, hit rate {:.2}, {} errors, {} timeouts, {} sheds / {} retries / {} gave up",
            parsed.out,
            report.queries,
            report.wall_ms,
            report.throughput_qps,
            report.latency.p50_us,
            report.latency.p99_us,
            report.hit_rate,
            report.errors,
            report.timeouts,
            report.sheds,
            report.retries,
            report.gave_up,
        );
    }

    if parsed.shutdown {
        if let Some(addr) = &parsed.addr {
            let client = hpcfail_serve::Client::new(addr.clone());
            if let Err(err) = client.post("/v1/shutdown", "", &[]) {
                eprintln!("shutdown request failed: {err}");
            }
        }
    }

    let violations = report.check();
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("budget violation: {violation}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage_error("check takes exactly one report path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let report = match BenchReport::parse(&text) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let violations = report.check();
    if violations.is_empty() {
        println!(
            "{path}: schema {SCHEMA_VERSION} ok, profile {}, {} queries, p50 {} us, within budget",
            report.profile, report.queries, report.latency.p50_us
        );
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("{path}: budget violation: {violation}");
        }
        ExitCode::FAILURE
    }
}
