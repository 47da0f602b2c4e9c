//! The `hpcfail-serve` command: run the analysis query service, query
//! a running one, watch it live, or validate its metrics (no external
//! HTTP tooling needed).
//!
//! ```text
//! hpcfail-serve serve [--addr 127.0.0.1:7070] [--workers 4] [--cache 1024]
//!                     [--scale 0.1] [--seed 42] [--scenario NAME|PATH]
//!                     [--trace DIR [--policy strict|lenient|best-effort]]
//!                     [--snapshot PATH] [--empty] [--name NAME]
//!                     [--max-resident-bytes N]
//!                     [--manifest PATH] [--access-log PATH]
//!                     [--slo-latency-ms N] [--slo-error-rate F] [--slo-window-ms N]
//!                     [--max-inflight N] [--max-queued N] [--shed-policy reject|brownout]
//!                     [--read-timeout-ms N] [--chaos PATH]
//!                     [--inject-panic KIND] [--quiet]
//! hpcfail-serve query --addr HOST:PORT [--trace-name NAME] [--deadline-ms N]
//!                     [--batch] [--trace]
//!                     [--retries N] [--retry-base-ms N] [--retry-seed N] JSON|-
//! hpcfail-serve upload --addr HOST:PORT --name NAME (--csv PATH | --snapshot PATH)
//!                      [--policy strict|lenient|best-effort]
//! hpcfail-serve traces --addr HOST:PORT
//! hpcfail-serve evict --addr HOST:PORT --name NAME
//! hpcfail-serve top --addr HOST:PORT [--interval-ms 1000] [--frames N]
//! hpcfail-serve check-metrics (--addr HOST:PORT | --file PATH) [--require SERIES]...
//! hpcfail-serve requests
//! ```
//!
//! `serve` registers its boot trace under `--name` (default `default`)
//! or starts with an empty registry (`--empty`); further traces arrive
//! over `POST /v1/traces/{name}` (the `upload` subcommand). `query`
//! talks to the versioned trace-scoped API
//! (`/v1/traces/{name}/query`).
//!
//! Exit codes: 0 success, 1 runtime/server error, 2 usage error.

use hpcfail_core::engine::{AnalysisRequest, Engine, REQUEST_KINDS};
use hpcfail_obs::manifest::{git_describe, ManifestSink};
use hpcfail_obs::sink::Sink;
use hpcfail_serve::admission::{AdmissionConfig, ShedPolicy};
use hpcfail_serve::chaos::ChaosConfig;
use hpcfail_serve::client::Client;
use hpcfail_serve::registry::{TraceRegistry, TraceSource, DEFAULT_TRACE};
use hpcfail_serve::retry::{RetryPolicy, RetryingClient};
use hpcfail_serve::server::{spawn_with_registry, ServerConfig};
use hpcfail_serve::slo::SloPolicy;
use hpcfail_serve::{promtext, top};
use hpcfail_store::ingest::{load_trace_snapshot_first, load_trace_with, IngestPolicy};
use hpcfail_store::snapshot::read_snapshot;
use hpcfail_synth::FleetSpec;
use std::io::{IsTerminal, Read};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  hpcfail-serve serve [--addr 127.0.0.1:7070] [--workers 4] [--cache 1024]
                      [--scale 0.1] [--seed 42] [--scenario NAME|PATH]
                      [--trace DIR [--policy strict|lenient|best-effort]]
                      [--snapshot PATH] [--empty] [--name NAME]
                      [--max-resident-bytes N]
                      [--manifest PATH] [--access-log PATH]
                      [--slo-latency-ms N] [--slo-error-rate F] [--slo-window-ms N]
                      [--max-inflight N] [--max-queued N] [--shed-policy reject|brownout]
                      [--read-timeout-ms N] [--chaos PATH]
                      [--inject-panic KIND] [--quiet]
  hpcfail-serve query --addr HOST:PORT [--trace-name NAME] [--deadline-ms N]
                      [--batch] [--trace]
                      [--retries N] [--retry-base-ms N] [--retry-seed N] JSON|-
  hpcfail-serve upload --addr HOST:PORT --name NAME (--csv PATH | --snapshot PATH)
                       [--policy strict|lenient|best-effort]
  hpcfail-serve traces --addr HOST:PORT
  hpcfail-serve evict --addr HOST:PORT --name NAME
  hpcfail-serve top --addr HOST:PORT [--interval-ms 1000] [--frames N]
  hpcfail-serve check-metrics (--addr HOST:PORT | --file PATH) [--require SERIES]...
  hpcfail-serve requests";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("upload") => cmd_upload(&args[1..]),
        Some("traces") => cmd_traces(&args[1..]),
        Some("evict") => cmd_evict(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("check-metrics") => cmd_check_metrics(&args[1..]),
        Some("requests") => {
            for kind in REQUEST_KINDS {
                println!("{kind}");
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

struct ServeArgs {
    addr: String,
    workers: usize,
    cache: usize,
    scale: Option<f64>,
    seed: Option<u64>,
    scenario: Option<String>,
    trace_dir: Option<String>,
    snapshot: Option<String>,
    empty: bool,
    name: String,
    max_resident_bytes: u64,
    policy: IngestPolicy,
    manifest: Option<String>,
    access_log: Option<String>,
    slo_latency_ms: Option<u64>,
    slo_error_rate: Option<f64>,
    slo_window_ms: Option<u64>,
    max_inflight: Option<usize>,
    max_queued: Option<usize>,
    shed_policy: Option<ShedPolicy>,
    read_timeout_ms: Option<u64>,
    chaos: Option<String>,
    inject_panic: Option<String>,
    quiet: bool,
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

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut parsed = ServeArgs {
        addr: "127.0.0.1:7070".to_owned(),
        workers: 4,
        cache: 1024,
        scale: None,
        seed: None,
        scenario: None,
        trace_dir: None,
        snapshot: None,
        empty: false,
        name: DEFAULT_TRACE.to_owned(),
        max_resident_bytes: 0,
        policy: IngestPolicy::Strict,
        manifest: None,
        access_log: None,
        slo_latency_ms: None,
        slo_error_rate: None,
        slo_window_ms: None,
        max_inflight: None,
        max_queued: None,
        shed_policy: None,
        read_timeout_ms: None,
        chaos: None,
        inject_panic: None,
        quiet: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> =
            match arg.as_str() {
                "--addr" => take_value("--addr", &mut iter).map(|v| parsed.addr = v.to_owned()),
                "--workers" => take_value("--workers", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.workers = n)
                        .map_err(|_| format!("invalid --workers {v:?}"))
                }),
                "--cache" => take_value("--cache", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.cache = n)
                        .map_err(|_| format!("invalid --cache {v:?}"))
                }),
                "--scale" => take_value("--scale", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.scale = Some(n))
                        .map_err(|_| format!("invalid --scale {v:?}"))
                }),
                "--seed" => take_value("--seed", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.seed = Some(n))
                        .map_err(|_| format!("invalid --seed {v:?}"))
                }),
                "--scenario" => take_value("--scenario", &mut iter)
                    .map(|v| parsed.scenario = Some(v.to_owned())),
                "--trace" => {
                    take_value("--trace", &mut iter).map(|v| parsed.trace_dir = Some(v.to_owned()))
                }
                "--snapshot" => take_value("--snapshot", &mut iter)
                    .map(|v| parsed.snapshot = Some(v.to_owned())),
                "--empty" => {
                    parsed.empty = true;
                    Ok(())
                }
                "--name" => take_value("--name", &mut iter).and_then(|v| {
                    if hpcfail_serve::registry::valid_name(v) {
                        parsed.name = v.to_owned();
                        Ok(())
                    } else {
                        Err(format!("invalid --name {v:?}"))
                    }
                }),
                "--max-resident-bytes" => {
                    take_value("--max-resident-bytes", &mut iter).and_then(|v| {
                        v.parse()
                            .map(|n| parsed.max_resident_bytes = n)
                            .map_err(|_| format!("invalid --max-resident-bytes {v:?}"))
                    })
                }
                "--policy" => take_value("--policy", &mut iter)
                    .and_then(|v| v.parse().map(|p| parsed.policy = p)),
                "--manifest" => take_value("--manifest", &mut iter)
                    .map(|v| parsed.manifest = Some(v.to_owned())),
                "--access-log" => take_value("--access-log", &mut iter)
                    .map(|v| parsed.access_log = Some(v.to_owned())),
                "--slo-latency-ms" => take_value("--slo-latency-ms", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.slo_latency_ms = Some(n))
                        .map_err(|_| format!("invalid --slo-latency-ms {v:?}"))
                }),
                "--slo-error-rate" => take_value("--slo-error-rate", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.slo_error_rate = Some(n))
                        .map_err(|_| format!("invalid --slo-error-rate {v:?}"))
                }),
                "--slo-window-ms" => take_value("--slo-window-ms", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n: u64| parsed.slo_window_ms = Some(n.max(30)))
                        .map_err(|_| format!("invalid --slo-window-ms {v:?}"))
                }),
                "--max-inflight" => take_value("--max-inflight", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.max_inflight = Some(n))
                        .map_err(|_| format!("invalid --max-inflight {v:?}"))
                }),
                "--max-queued" => take_value("--max-queued", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n| parsed.max_queued = Some(n))
                        .map_err(|_| format!("invalid --max-queued {v:?}"))
                }),
                "--shed-policy" => take_value("--shed-policy", &mut iter)
                    .and_then(|v| v.parse().map(|p| parsed.shed_policy = Some(p))),
                "--read-timeout-ms" => take_value("--read-timeout-ms", &mut iter).and_then(|v| {
                    v.parse()
                        .map(|n: u64| parsed.read_timeout_ms = Some(n.max(1)))
                        .map_err(|_| format!("invalid --read-timeout-ms {v:?}"))
                }),
                "--chaos" => {
                    take_value("--chaos", &mut iter).map(|v| parsed.chaos = Some(v.to_owned()))
                }
                "--inject-panic" => take_value("--inject-panic", &mut iter)
                    .map(|v| parsed.inject_panic = Some(v.to_owned())),
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
    if (parsed.trace_dir.is_some() || parsed.snapshot.is_some())
        && (parsed.scale.is_some() || parsed.seed.is_some())
    {
        return usage_error("--scale/--seed and --trace/--snapshot are mutually exclusive");
    }
    if parsed.scenario.is_some()
        && (parsed.scale.is_some()
            || parsed.seed.is_some()
            || parsed.trace_dir.is_some()
            || parsed.snapshot.is_some())
    {
        return usage_error("--scenario excludes --scale/--seed/--trace/--snapshot");
    }
    if parsed.empty
        && (parsed.scale.is_some()
            || parsed.seed.is_some()
            || parsed.scenario.is_some()
            || parsed.trace_dir.is_some()
            || parsed.snapshot.is_some())
    {
        return usage_error("--empty excludes every trace source (traces arrive by upload)");
    }
    let scale = parsed.scale.unwrap_or(0.1);
    let seed = parsed.seed.unwrap_or(42);
    if scale <= 0.0 {
        return usage_error("--scale must be positive");
    }

    let engine = if parsed.empty {
        None
    } else {
        Some(match (&parsed.snapshot, &parsed.trace_dir) {
            (Some(path), Some(dir)) => {
                // Snapshot-first boot with a CSV safety net: a bad snapshot
                // is an audit line, never a dead server.
                match load_trace_snapshot_first(path, dir, parsed.policy) {
                    Ok((trace, report, fallback)) => {
                        if let Some(fallback) = &fallback {
                            eprintln!("ingest: {fallback}");
                        }
                        if let Some(report) = &report {
                            if !parsed.quiet && !report.quarantined.is_empty() {
                                eprintln!(
                                    "ingest: quarantined {} rows under {} policy",
                                    report.quarantined.len(),
                                    parsed.policy
                                );
                            }
                        }
                        Engine::new(trace)
                    }
                    Err(err) => {
                        eprintln!("failed to load trace from {dir:?}: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            (Some(path), None) => match read_snapshot(path) {
                Ok(trace) => Engine::new(trace),
                Err(err) => {
                    eprintln!("failed to load snapshot {path:?}: {err}");
                    return ExitCode::FAILURE;
                }
            },
            (None, Some(dir)) => match load_trace_with(dir, parsed.policy) {
                Ok((trace, report)) => {
                    if !parsed.quiet && !report.quarantined.is_empty() {
                        eprintln!(
                            "ingest: quarantined {} rows under {} policy",
                            report.quarantined.len(),
                            parsed.policy
                        );
                    }
                    Engine::new(trace)
                }
                Err(err) => {
                    eprintln!("failed to load trace from {dir:?}: {err}");
                    return ExitCode::FAILURE;
                }
            },
            (None, None) => {
                if let Some(name) = &parsed.scenario {
                    // Scenario packs bake in their own seed.
                    match hpcfail_synth::scenario::load(name) {
                        Ok(scenario) => Engine::new(scenario.generate().into_store()),
                        Err(err) => {
                            eprintln!("cannot load scenario {name:?}: {err}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    let spec = if scale >= 1.0 {
                        FleetSpec::lanl()
                    } else {
                        FleetSpec::lanl_scaled(scale)
                    };
                    Engine::new(spec.generate(seed).into_store())
                }
            }
        })
    };

    let chaos = match &parsed.chaos {
        Some(path) => match ChaosConfig::load(path) {
            Ok(config) => {
                if !parsed.quiet {
                    eprintln!(
                        "chaos: {} rules under seed {} from {path}",
                        config.rules.len(),
                        config.seed
                    );
                }
                Some(config)
            }
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let fingerprint = engine.as_ref().map_or_else(
        || "none (empty registry)".to_owned(),
        Engine::fingerprint_hex,
    );
    let default_slo = SloPolicy::default();
    let default_admission = AdmissionConfig::default();
    let default_config = ServerConfig::default();
    let config = ServerConfig {
        addr: parsed.addr.clone(),
        workers: parsed.workers,
        cache_capacity: parsed.cache,
        access_log: parsed.access_log.as_ref().map(Into::into),
        read_timeout: parsed
            .read_timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(default_config.read_timeout),
        slo: SloPolicy {
            latency_budget_ms: parsed
                .slo_latency_ms
                .unwrap_or(default_slo.latency_budget_ms),
            max_error_rate: parsed.slo_error_rate.unwrap_or(default_slo.max_error_rate),
            window_ms: parsed.slo_window_ms.unwrap_or(default_slo.window_ms),
        },
        admission: AdmissionConfig {
            max_inflight: parsed
                .max_inflight
                .unwrap_or(default_admission.max_inflight),
            max_queued: parsed.max_queued.unwrap_or(default_admission.max_queued),
            policy: parsed.shed_policy.unwrap_or(default_admission.policy),
            retry_after_ms: default_admission.retry_after_ms,
        },
        chaos,
        inject_panic_kind: parsed.inject_panic.clone(),
        max_resident_bytes: parsed.max_resident_bytes,
        ..ServerConfig::default()
    };
    let registry = TraceRegistry::new(parsed.max_resident_bytes);
    if let Some(engine) = engine {
        registry.insert_engine(&parsed.name, Arc::new(engine), TraceSource::Boot);
    }
    let handle = match spawn_with_registry(registry, config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("failed to bind {:?}: {err}", parsed.addr);
            return ExitCode::FAILURE;
        }
    };
    if !parsed.quiet {
        eprintln!(
            "hpcfail-serve: listening on {} (trace fingerprint {fingerprint}, {} workers, cache {})",
            handle.addr(),
            parsed.workers,
            parsed.cache
        );
    }
    // Machine-readable line for scripts that need the bound port.
    println!("ADDR {}", handle.addr());

    while !handle.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();

    if let Some(path) = &parsed.manifest {
        let snapshot = hpcfail_obs::snapshot();
        let mut sink = ManifestSink::new(path, seed, scale, git_describe());
        if let Err(err) = sink.export(&snapshot) {
            eprintln!("failed to write manifest {path:?}: {err}");
            return ExitCode::FAILURE;
        }
        if !parsed.quiet {
            eprintln!("wrote manifest to {path}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_query(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut trace_name = DEFAULT_TRACE.to_owned();
    let mut deadline_ms: Option<u64> = None;
    let mut batch = false;
    let mut trace = false;
    let mut retries: Option<u32> = None;
    let mut retry_base_ms: Option<u64> = None;
    let mut retry_seed: Option<u64> = None;
    let mut payload: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            "--trace-name" => take_value("--trace-name", &mut iter).and_then(|v| {
                if hpcfail_serve::registry::valid_name(v) {
                    trace_name = v.to_owned();
                    Ok(())
                } else {
                    Err(format!("invalid --trace-name {v:?}"))
                }
            }),
            "--deadline-ms" => take_value("--deadline-ms", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| deadline_ms = Some(n))
                    .map_err(|_| format!("invalid --deadline-ms {v:?}"))
            }),
            "--batch" => {
                batch = true;
                Ok(())
            }
            "--trace" => {
                trace = true;
                Ok(())
            }
            "--retries" => take_value("--retries", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| retries = Some(n))
                    .map_err(|_| format!("invalid --retries {v:?}"))
            }),
            "--retry-base-ms" => take_value("--retry-base-ms", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| retry_base_ms = Some(n))
                    .map_err(|_| format!("invalid --retry-base-ms {v:?}"))
            }),
            "--retry-seed" => take_value("--retry-seed", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n| retry_seed = Some(n))
                    .map_err(|_| format!("invalid --retry-seed {v:?}"))
            }),
            other if payload.is_none() && !other.starts_with("--") => {
                payload = Some(other.to_owned());
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let Some(addr) = addr else {
        return usage_error("query needs --addr HOST:PORT");
    };
    let Some(payload) = payload else {
        return usage_error("query needs a JSON request (or - for stdin)");
    };
    let body = if payload == "-" {
        let mut text = String::new();
        if let Err(err) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("failed to read stdin: {err}");
            return ExitCode::FAILURE;
        }
        text
    } else {
        payload
    };
    // Validate single queries locally for a friendlier error than a
    // round trip (batches are validated server-side per item).
    if !batch {
        if let Err(err) = AnalysisRequest::parse(&body) {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    }

    let default_policy = RetryPolicy::default();
    let policy = match retries {
        // Explicit `--retries 0` means one attempt, no retries.
        Some(n) => RetryPolicy {
            max_attempts: n + 1,
            base_delay_ms: retry_base_ms.unwrap_or(default_policy.base_delay_ms),
            seed: retry_seed.unwrap_or(default_policy.seed),
            ..default_policy
        },
        None if retry_base_ms.is_some() || retry_seed.is_some() => RetryPolicy {
            base_delay_ms: retry_base_ms.unwrap_or(default_policy.base_delay_ms),
            seed: retry_seed.unwrap_or(default_policy.seed),
            ..default_policy
        },
        None => RetryPolicy::none(),
    };
    let client = RetryingClient::new(Client::new(addr), policy);
    let mut headers: Vec<(String, String)> = Vec::new();
    if let Some(ms) = deadline_ms {
        headers.push(("x-deadline-ms".to_owned(), ms.to_string()));
    }
    if trace {
        headers.push(("x-trace".to_owned(), "1".to_owned()));
    }
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let path = if batch {
        format!("/v1/traces/{trace_name}/batch")
    } else {
        format!("/v1/traces/{trace_name}/query")
    };
    let outcome = client.post_detailed(&path, &body, &header_refs);
    if outcome.attempts > 1 {
        eprintln!(
            "retries: {} ({} shed answers{})",
            outcome.attempts - 1,
            outcome.sheds,
            if outcome.gave_up { ", gave up" } else { "" }
        );
    }
    match outcome.result {
        Ok(response) => {
            if let Some(cache) = response.header("x-cache") {
                eprintln!("x-cache: {cache}");
            }
            if let Some(trace_id) = response.header("x-trace-id") {
                eprintln!("x-trace-id: {trace_id}");
            }
            print!("{}", response.body);
            if response.status < 300 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("request to {path} failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_upload(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut policy: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            "--name" => take_value("--name", &mut iter).map(|v| name = Some(v.to_owned())),
            "--csv" => take_value("--csv", &mut iter).map(|v| csv = Some(v.to_owned())),
            "--snapshot" => {
                take_value("--snapshot", &mut iter).map(|v| snapshot = Some(v.to_owned()))
            }
            "--policy" => take_value("--policy", &mut iter).and_then(|v| {
                // Validate locally for a friendlier error than a round
                // trip; the server re-checks its x-ingest-policy header.
                v.parse::<IngestPolicy>()
                    .map(|_| policy = Some(v.to_owned()))
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let Some(addr) = addr else {
        return usage_error("upload needs --addr HOST:PORT");
    };
    let Some(name) = name else {
        return usage_error("upload needs --name NAME");
    };
    if !hpcfail_serve::registry::valid_name(&name) {
        return usage_error(&format!("invalid --name {name:?}"));
    }
    let path = match (&csv, &snapshot) {
        (Some(path), None) | (None, Some(path)) => path.clone(),
        _ => return usage_error("upload needs exactly one of --csv or --snapshot"),
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) => {
            eprintln!("failed to read {path:?}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(policy) = &policy {
        headers.push(("x-ingest-policy", policy));
    }
    let client = Client::new(addr);
    match client.post_bytes(&format!("/v1/traces/{name}"), &bytes, &headers) {
        Ok(response) => {
            print!("{}", response.body);
            if response.status < 300 {
                ExitCode::SUCCESS
            } else {
                eprintln!("upload answered {}", response.status);
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("upload to {name:?} failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_traces(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let Some(addr) = addr else {
        return usage_error("traces needs --addr HOST:PORT");
    };
    match Client::new(addr).get("/v1/traces") {
        Ok(response) => {
            print!("{}", response.body);
            if response.status < 300 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("trace listing failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_evict(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            "--name" => take_value("--name", &mut iter).map(|v| name = Some(v.to_owned())),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let Some(addr) = addr else {
        return usage_error("evict needs --addr HOST:PORT");
    };
    let Some(name) = name else {
        return usage_error("evict needs --name NAME");
    };
    match Client::new(addr).delete(&format!("/v1/traces/{name}")) {
        Ok(response) => {
            print!("{}", response.body);
            if response.status < 300 {
                ExitCode::SUCCESS
            } else {
                eprintln!("evict answered {}", response.status);
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("evict of {name:?} failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_top(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut interval_ms: u64 = 1000;
    let mut frames: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            "--interval-ms" => take_value("--interval-ms", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n: u64| interval_ms = n.max(10))
                    .map_err(|_| format!("invalid --interval-ms {v:?}"))
            }),
            "--frames" => take_value("--frames", &mut iter).and_then(|v| {
                v.parse()
                    .map(|n: u64| frames = Some(n.max(1)))
                    .map_err(|_| format!("invalid --frames {v:?}"))
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let Some(addr) = addr else {
        return usage_error("top needs --addr HOST:PORT");
    };
    let mut stdout = std::io::stdout();
    let options = top::TopOptions {
        addr,
        interval: Duration::from_millis(interval_ms),
        frames,
        // Only repaint in place on a real terminal; piped output (CI)
        // gets plain appended frames.
        clear: std::io::stdout().is_terminal() && frames != Some(1),
    };
    match top::run(&options, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("top failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check_metrics(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut file: Option<String> = None;
    let mut requires: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| addr = Some(v.to_owned())),
            "--file" => take_value("--file", &mut iter).map(|v| file = Some(v.to_owned())),
            "--require" => take_value("--require", &mut iter).map(|v| requires.push(v.to_owned())),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let text = match (&addr, &file) {
        (Some(addr), None) => match Client::new(addr.clone()).get("/v1/metrics") {
            Ok(response) if response.status == 200 => response.body,
            Ok(response) => {
                eprintln!("/v1/metrics answered {}", response.status);
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("scrape of {addr} failed: {err}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("failed to read {path:?}: {err}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage_error("check-metrics needs exactly one of --addr or --file"),
    };
    let scrape = match promtext::parse(&text) {
        Ok(scrape) => scrape,
        Err(err) => {
            eprintln!("invalid Prometheus exposition format: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut missing = 0;
    for spec in &requires {
        if check_require(&scrape, spec) {
            eprintln!("ok: {spec}");
        } else {
            eprintln!("MISSING: {spec}");
            missing += 1;
        }
    }
    println!(
        "valid: {} samples, {} type declarations, {}/{} required series present",
        scrape.samples.len(),
        scrape.types.len(),
        requires.len() - missing,
        requires.len()
    );
    if missing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A `--require` spec is `name` or `name{label="value",...}`; the
/// scrape satisfies it when some sample has that name and carries
/// every listed label pair.
fn check_require(scrape: &promtext::Scrape, spec: &str) -> bool {
    let (name, label_text) = match spec.split_once('{') {
        Some((name, rest)) => (name, rest.trim_end_matches('}')),
        None => (spec, ""),
    };
    let mut want: Vec<(String, String)> = Vec::new();
    for pair in label_text.split(',').filter(|p| !p.trim().is_empty()) {
        let Some((label, value)) = pair.split_once('=') else {
            return false;
        };
        want.push((
            label.trim().to_owned(),
            value.trim().trim_matches('"').to_owned(),
        ));
    }
    scrape.series(name).any(|s| s.matches(&want))
}
