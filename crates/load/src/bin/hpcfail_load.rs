//! The `hpcfail-load` command: drive a query target with a named
//! traffic profile and print what happened.
//!
//! ```text
//! hpcfail-load run [--profile ci] [--addr HOST:PORT | --in-process]
//!                  [--trace NAME]
//!                  [--scale 0.05] [--seed 42 | --scenario NAME|PATH]
//!                  [--threads 4] [--cache 1024]
//!                  [--retries N] [--retry-base-ms MS] [--retry-seed S]
//!                  [--quiet]
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
use hpcfail_synth::FleetSpec;

const USAGE: &str = "usage:
  hpcfail-load run [--profile ci] [--addr HOST:PORT | --in-process]
                   [--trace NAME]
                   [--scale 0.05] [--seed 42 | --scenario NAME|PATH]
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
    retries: Option<u32>,
    retry_base_ms: Option<u64>,
    retry_seed: Option<u64>,
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
        retries: None,
        retry_base_ms: None,
        retry_seed: None,
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
    if parsed.scale.is_nan() || parsed.scale <= 0.0 {
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
        None => (
            FleetSpec::lanl_scaled(parsed.scale.min(1.0)),
            format!("scale={} seed={}", parsed.scale, parsed.seed),
        ),
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
    let sorted = stats.sorted_latencies_us();
    let wall_ms = stats.wall.as_millis().max(1) as u64;
    let summary = Json::obj([
        ("profile", Json::Str(config.profile.clone())),
        ("target", Json::Str(target.label().to_owned())),
        ("corpus", Json::Str(corpus_label)),
        ("threads", Json::Num(parsed.threads as f64)),
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
