//! The `hpcfail-load` command: drive a query target with a named
//! traffic profile and print what happened.
//!
//! ```text
//! hpcfail-load run [--profile ci] [--addr HOST:PORT | --in-process]
//!                  [--trace-name NAME]
//!                  [--scale 1.0] [--seed 42 | --scenario NAME|PATH]
//!                  [--threads 4] [--cache 1024]
//!                  [--retries N] [--retry-base-ms MS] [--retry-seed S]
//!                  [--quiet]
//! hpcfail-load profiles
//! ```
//!
//! The corpus is planned from a fleet description, so the trace source
//! is the LANL-shaped fleet (`--scale`/`--seed`, default 1.0 and 42, as
//! in `repro` and `hpcfail-serve`) or a scenario pack (`--scenario`),
//! parsed by [`hpcfail_synth::source`]. `--trace DIR` and `--snapshot`
//! are usage errors here.
//!
//! `--trace-name NAME` aims an HTTP run at a named trace in the server's
//! registry (it posts to `/v1/traces/NAME/query` and `.../batch`).
//! Defaults to `default`, which is where `hpcfail-serve serve` boots
//! its trace unless told otherwise. It is rejected with `--in-process`,
//! whose target answers from its own single engine.
//!
//! `--retries N` makes the HTTP target retry shed answers (429/503)
//! and transport failures up to N times per item, with seeded jittered
//! exponential backoff honoring the server's `Retry-After` hints; the
//! summary's `sheds` / `retries` / `gave_up` counts come from this
//! path. Retry flags are rejected with `--in-process` (nothing to
//! retry against).
//!
//! `run` plans the profile's request sequence from its seed, executes
//! it against the target (a live server via `--addr`, or an engine
//! behind the server's own answer path via `--in-process`), and prints
//! one JSON object on stdout: profile, target, corpus, threads, items,
//! queries, wall_ms, qps, p50_us, p99_us, hit_rate, errors, timeouts,
//! sheds, retries and gave_up. Progress goes to stderr unless
//! `--quiet`.
//!
//! Exit codes: 0 every item was answered, 1 an item errored or gave up
//! retrying (timeouts are reported but do not fail the run), or a
//! setup failure, 2 usage error.

use std::process::ExitCode;

use hpcfail_load::run::quantile_us;
use hpcfail_load::{
    build_corpus, execute, plan, systems_from_fleet, Http, InProcess, MixConfig, RunOptions, Target,
};
use hpcfail_obs::json::Json;
use hpcfail_serve::RetryPolicy;
use hpcfail_synth::source::SourceFlags;

const USAGE: &str = "usage:
  hpcfail-load run [--profile ci] [--addr HOST:PORT | --in-process]
                   [--trace-name NAME]
                   [--scale 1.0] [--seed 42 | --scenario NAME|PATH]
                   [--threads 4] [--cache 1024]
                   [--retries N] [--retry-base-ms MS] [--retry-seed S]
                   [--quiet]
  hpcfail-load profiles";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
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

/// Parses the value of `flag` as a `T`; returns it or an error message.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    iter: &mut std::slice::Iter<'_, String>,
) -> Result<T, String> {
    let value = take_value(flag, iter)?;
    value
        .parse()
        .map_err(|_| format!("invalid {flag} {value:?}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut profile = "ci".to_owned();
    let mut addr: Option<String> = None;
    let mut in_process = false;
    let mut trace_name: Option<String> = None;
    let mut source = SourceFlags::default();
    let mut threads: usize = 4;
    let mut cache: usize = 1024;
    let mut retries: Option<u32> = None;
    let mut retry_base_ms: Option<u64> = None;
    let mut retry_seed: Option<u64> = None;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match source.take(arg, &mut iter) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(err) => return usage_error(&err.to_string()),
        }
        let result: Result<(), String> = match arg.as_str() {
            "--profile" => take_value("--profile", &mut iter).map(|v| profile = v.to_owned()),
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            "--in-process" => {
                in_process = true;
                Ok(())
            }
            "--trace-name" => take_value("--trace-name", &mut iter).and_then(|v| {
                if hpcfail_serve::registry::valid_name(v) {
                    trace_name = Some(v.to_owned());
                    Ok(())
                } else {
                    Err(format!("invalid --trace-name {v:?}"))
                }
            }),
            "--threads" => parse_value("--threads", &mut iter).map(|n| threads = n),
            "--cache" => parse_value("--cache", &mut iter).map(|n| cache = n),
            "--retries" => parse_value("--retries", &mut iter).map(|n| retries = Some(n)),
            "--retry-base-ms" => {
                parse_value("--retry-base-ms", &mut iter).map(|n| retry_base_ms = Some(n))
            }
            "--retry-seed" => parse_value("--retry-seed", &mut iter).map(|n| retry_seed = Some(n)),
            "--quiet" => {
                quiet = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    if in_process == addr.is_some() {
        return usage_error("pick exactly one target: --addr HOST:PORT or --in-process");
    }
    let retry_flags = retries.is_some() || retry_base_ms.is_some() || retry_seed.is_some();
    if retry_flags && in_process {
        return usage_error("retry flags need an HTTP target (--addr)");
    }
    if trace_name.is_some() && in_process {
        return usage_error("--trace-name needs an HTTP target (--addr)");
    }
    if threads == 0 {
        return usage_error("--threads must be positive");
    }
    let source = match source.finish() {
        Ok(source) => source,
        Err(err) => return usage_error(&err.to_string()),
    };
    let Some(config) = MixConfig::named(&profile) else {
        return usage_error(&format!(
            "unknown profile {:?}; try: {}",
            profile,
            MixConfig::PROFILES.join(", ")
        ));
    };

    // The fleet description parameterizes the corpus; only the
    // in-process target additionally pays for trace generation.
    let generator = match source.input.generator() {
        Ok(Some(generator)) => generator,
        Ok(None) => {
            return usage_error(
                "hpcfail-load plans its corpus from a fleet description: \
                 use --scale/--seed or --scenario, not --trace DIR or --snapshot",
            )
        }
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    let systems = systems_from_fleet(&generator.spec);
    let corpus = build_corpus(&systems, config.corpus_size);
    let load_plan = match plan::build(&config, corpus.len()) {
        Ok(load_plan) => load_plan,
        Err(err) => {
            eprintln!("cannot plan profile {:?}: {err}", profile);
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        eprintln!(
            "profile {}: {} items / {} queries over a {}-entry corpus",
            profile,
            load_plan.items.len(),
            load_plan.queries,
            corpus.len()
        );
    }

    let target: Box<dyn Target> = if let Some(addr) = &addr {
        let trace_name = trace_name
            .as_deref()
            .unwrap_or(hpcfail_serve::DEFAULT_TRACE);
        if retry_flags {
            let default = RetryPolicy::default();
            let policy = RetryPolicy {
                // `--retries N` allows N retries: N + 1 total attempts.
                max_attempts: retries.map_or(default.max_attempts, |n| n.saturating_add(1)),
                base_delay_ms: retry_base_ms.unwrap_or(default.base_delay_ms),
                seed: retry_seed.unwrap_or(default.seed),
                ..default
            };
            Box::new(Http::with_retry(addr, policy).with_trace(trace_name))
        } else {
            Box::new(Http::new(addr).with_trace(trace_name))
        }
    } else {
        if !quiet {
            eprintln!("generating trace ({})...", generator.label);
        }
        let trace = generator.spec.generate(generator.seed).into_store();
        Box::new(InProcess::new(trace, cache))
    };

    let stats = execute(
        &corpus,
        &load_plan,
        &config,
        target.as_ref(),
        RunOptions { threads },
    );
    let sorted = stats.sorted_latencies_us();
    let wall_ms = stats.wall.as_millis().max(1) as u64;
    let summary = Json::obj([
        ("profile", Json::Str(config.profile.clone())),
        ("target", Json::Str(target.label().to_owned())),
        ("corpus", Json::Str(generator.label)),
        ("threads", Json::Num(threads as f64)),
        ("items", Json::Num(stats.items as f64)),
        ("queries", Json::Num(stats.queries as f64)),
        ("wall_ms", Json::Num(wall_ms as f64)),
        (
            "qps",
            Json::Num(stats.queries as f64 / (wall_ms as f64 / 1000.0)),
        ),
        ("p50_us", Json::Num(quantile_us(&sorted, 0.50) as f64)),
        ("p99_us", Json::Num(quantile_us(&sorted, 0.99) as f64)),
        ("hit_rate", Json::Num(stats.hit_rate())),
        ("errors", Json::Num(stats.errors as f64)),
        ("timeouts", Json::Num(stats.timeouts as f64)),
        ("sheds", Json::Num(stats.sheds as f64)),
        ("retries", Json::Num(stats.retries as f64)),
        ("gave_up", Json::Num(stats.gave_up as f64)),
    ]);
    println!("{}", summary.compact());
    if stats.errors + stats.gave_up > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
