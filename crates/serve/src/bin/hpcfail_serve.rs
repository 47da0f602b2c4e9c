//! The `hpcfail-serve` command: run the analysis query service, query
//! a running one, watch it live, or validate its metrics (no external
//! HTTP tooling needed).
//!
//! ```text
//! hpcfail-serve serve [--addr 127.0.0.1:7070] [--workers 4] [--cache 1024]
//!                     [--scale 1.0] [--seed 42] [--scenario NAME|PATH]
//!                     [--trace DIR [--policy strict|lenient|best-effort]]
//!                     [--snapshot PATH] [--empty] [--name NAME]
//!                     [--max-resident-bytes N]
//!                     [--manifest PATH] [--access-log PATH]
//!                     [--slo-latency-ms N] [--slo-error-rate F] [--slo-window-ms N]
//!                     [--max-inflight N] [--max-queued N] [--shed-policy reject|brownout]
//!                     [--read-timeout-ms N] [--chaos PATH] [--quiet]
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
//! `serve` reads its boot trace from the trace-source flags (`--scale`
//! through `--snapshot`) with [`hpcfail_synth::source`], under the same
//! rules as `repro`: the default is the full-scale fleet (scale 1.0),
//! and `--snapshot PATH --trace DIR` boots from the snapshot with the
//! CSV directory as fallback.
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
use hpcfail_serve::chaos::ChaosConfig;
use hpcfail_serve::client::Client;
use hpcfail_serve::registry::{TraceRegistry, TraceSource, DEFAULT_TRACE};
use hpcfail_serve::retry::{RetryPolicy, RetryingClient};
use hpcfail_serve::server::{spawn_with_registry, ServerConfig};
use hpcfail_serve::{promtext, top};
use hpcfail_store::ingest::IngestPolicy;
use hpcfail_synth::source::SourceFlags;
use std::io::{IsTerminal, Read};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  hpcfail-serve serve [--addr 127.0.0.1:7070] [--workers 4] [--cache 1024]
                      [--scale 1.0] [--seed 42] [--scenario NAME|PATH]
                      [--trace DIR [--policy strict|lenient|best-effort]]
                      [--snapshot PATH] [--empty] [--name NAME]
                      [--max-resident-bytes N]
                      [--manifest PATH] [--access-log PATH]
                      [--slo-latency-ms N] [--slo-error-rate F] [--slo-window-ms N]
                      [--max-inflight N] [--max-queued N] [--shed-policy reject|brownout]
                      [--read-timeout-ms N] [--chaos PATH] [--quiet]
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

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7070".to_owned(),
        ..ServerConfig::default()
    };
    let mut source = SourceFlags::default();
    let mut empty = false;
    let mut name = DEFAULT_TRACE.to_owned();
    let mut manifest: Option<String> = None;
    let mut chaos: Option<String> = None;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match source.take(arg, &mut iter) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(err) => return usage_error(&err.to_string()),
        }
        let slo = &mut config.slo;
        let admission = &mut config.admission;
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => take_value("--addr", &mut iter).map(|v| config.addr = v.to_owned()),
            "--workers" => parse_value("--workers", &mut iter).map(|n| config.workers = n),
            "--cache" => parse_value("--cache", &mut iter).map(|n| config.cache_capacity = n),
            "--empty" => {
                empty = true;
                Ok(())
            }
            "--name" => take_value("--name", &mut iter).and_then(|v| {
                if hpcfail_serve::registry::valid_name(v) {
                    name = v.to_owned();
                    Ok(())
                } else {
                    Err(format!("invalid --name {v:?}"))
                }
            }),
            "--max-resident-bytes" => parse_value("--max-resident-bytes", &mut iter)
                .map(|n| config.max_resident_bytes = n),
            "--manifest" => take_value("--manifest", &mut iter).map(|v| manifest = Some(v.into())),
            "--access-log" => {
                take_value("--access-log", &mut iter).map(|v| config.access_log = Some(v.into()))
            }
            "--slo-latency-ms" => {
                parse_value("--slo-latency-ms", &mut iter).map(|n| slo.latency_budget_ms = n)
            }
            "--slo-error-rate" => {
                parse_value("--slo-error-rate", &mut iter).map(|n| slo.max_error_rate = n)
            }
            "--slo-window-ms" => {
                parse_value("--slo-window-ms", &mut iter).map(|n: u64| slo.window_ms = n.max(30))
            }
            "--max-inflight" => {
                parse_value("--max-inflight", &mut iter).map(|n| admission.max_inflight = n)
            }
            "--max-queued" => {
                parse_value("--max-queued", &mut iter).map(|n| admission.max_queued = n)
            }
            "--shed-policy" => take_value("--shed-policy", &mut iter)
                .and_then(|v| v.parse().map(|p| admission.policy = p)),
            "--read-timeout-ms" => parse_value("--read-timeout-ms", &mut iter)
                .map(|n: u64| config.read_timeout = Duration::from_millis(n.max(1))),
            "--chaos" => take_value("--chaos", &mut iter).map(|v| chaos = Some(v.to_owned())),
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
    if empty && source.given() {
        return usage_error("--empty excludes every trace source (traces arrive by upload)");
    }
    let source = match source.finish() {
        Ok(source) => source,
        Err(err) => return usage_error(&err.to_string()),
    };

    let (engine, seed, scale) = if empty {
        (None, source.seed, source.scale.unwrap_or(1.0))
    } else {
        let loaded = match hpcfail_synth::source::load(&source) {
            Ok(loaded) => loaded,
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        };
        // A bad snapshot beside a CSV directory is an audit line, never
        // a dead server.
        if let Some(fallback) = &loaded.fallback {
            eprintln!("ingest: {fallback}");
        }
        if let Some(report) = loaded.report.as_ref().filter(|r| !r.quarantined.is_empty()) {
            if !quiet {
                eprintln!(
                    "ingest: quarantined {} rows under {} policy",
                    report.quarantined.len(),
                    report.policy
                );
            }
        }
        (Some(Engine::new(loaded.trace)), loaded.seed, loaded.scale)
    };

    if let Some(path) = &chaos {
        match ChaosConfig::load(path) {
            Ok(spec) => {
                if !quiet {
                    eprintln!(
                        "chaos: {} rules under seed {} from {path}",
                        spec.rules.len(),
                        spec.seed
                    );
                }
                config.chaos = Some(spec);
            }
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::from(2);
            }
        }
    }

    let fingerprint = engine.as_ref().map_or_else(
        || "none (empty registry)".to_owned(),
        Engine::fingerprint_hex,
    );
    let (addr, workers, cache) = (config.addr.clone(), config.workers, config.cache_capacity);
    let registry = TraceRegistry::new(config.max_resident_bytes);
    if let Some(engine) = engine {
        registry.insert_engine(&name, Arc::new(engine), TraceSource::Boot);
    }
    let handle = match spawn_with_registry(registry, config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("failed to bind {addr:?}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        eprintln!(
            "hpcfail-serve: listening on {} (trace fingerprint {fingerprint}, {workers} workers, cache {cache})",
            handle.addr(),
        );
    }
    // Machine-readable line for scripts that need the bound port.
    println!("ADDR {}", handle.addr());

    while !handle.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();

    if let Some(path) = &manifest {
        let snapshot = hpcfail_obs::snapshot();
        let mut sink = ManifestSink::new(path, seed, scale, git_describe());
        if let Err(err) = sink.export(&snapshot) {
            eprintln!("failed to write manifest {path:?}: {err}");
            return ExitCode::FAILURE;
        }
        if !quiet {
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
            "--deadline-ms" => {
                parse_value("--deadline-ms", &mut iter).map(|n| deadline_ms = Some(n))
            }
            "--batch" => {
                batch = true;
                Ok(())
            }
            "--trace" => {
                trace = true;
                Ok(())
            }
            "--retries" => parse_value("--retries", &mut iter).map(|n| retries = Some(n)),
            "--retry-base-ms" => {
                parse_value("--retry-base-ms", &mut iter).map(|n| retry_base_ms = Some(n))
            }
            "--retry-seed" => parse_value("--retry-seed", &mut iter).map(|n| retry_seed = Some(n)),
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
            "--interval-ms" => {
                parse_value("--interval-ms", &mut iter).map(|n: u64| interval_ms = n.max(10))
            }
            "--frames" => parse_value("--frames", &mut iter).map(|n: u64| frames = Some(n.max(1))),
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
