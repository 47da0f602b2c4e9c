//! End-to-end and per-layer benchmark of `hpcfail-serve`.
//!
//! ```text
//! hpcfail-servebench --server PATH --workload compute-mix|epoch-churn
//!                    --seed N --seconds S --trace 0|1
//! hpcfail-servebench --print-pins
//! ```
//!
//! Boots the release server as a child process, drives it from
//! [`inputs::CLIENTS`] closed-loop keep-alive clients through a fixed
//! seeded operation list, checks every answer against an in-process
//! reference, and prints one JSON line of metrics last on stdout:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `NOTES.md` for the workloads and the choices
//! behind them.

mod drive;
mod http;
mod inputs;
mod layers;
mod stats;

use drive::{ChurnClient, ChurnExpect, Samples};
use hpcfail_core::engine::Engine;
use hpcfail_store::csv::save_trace;
use hpcfail_store::snapshot::snapshot_bytes;
use inputs::{Expected, Plan, Workload, CACHE_ENTRIES, CHURN_WARM_CYCLES, CLIENTS};
use layers::Metric;
use stats::{median, quantile, tail_rule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: hpcfail-servebench --server PATH --workload compute-mix|epoch-churn \
--seed N --seconds S --trace 0|1\n       hpcfail-servebench --print-pins";

/// Server boots per session; `setup_s` is their median.
const BOOTS: usize = 15;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-pins"] {
        return match print_pins() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory inside the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let path = PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One generated trace with its CSV export.
struct Generated {
    trace: hpcfail_store::trace::Trace,
    csv: PathBuf,
}

/// Generates a trace, exports it as CSV and returns it with the
/// export's digest.
fn generate(trace_seed: u64, work: &Path) -> Result<(Generated, u64), String> {
    let trace = inputs::generate(trace_seed);
    let csv = work.join(format!("csv-{trace_seed}"));
    save_trace(&csv, &trace).map_err(|e| format!("CSV export: {e}"))?;
    let digest = inputs::csv_digest(&csv).map_err(|e| format!("CSV digest: {e}"))?;
    Ok((Generated { trace, csv }, digest))
}

fn print_pins() -> Result<(), String> {
    println!("# Digests of the benchmark's inputs; the benchmark refuses to run on a mismatch.");
    println!("# trace <seed>: the trace's CSV export. ops <workload> <variant>: its op list.");
    println!("# Regenerate with: hpcfail-servebench --print-pins");
    let work = WorkDir::create(Workload::ComputeMix)?;
    for trace_seed in inputs::TRACE_SEEDS {
        let (_, digest) = generate(trace_seed, &work.0)?;
        println!("{} {digest:016x}", inputs::trace_key(trace_seed));
    }
    for workload in Workload::ALL {
        for variant in 0..inputs::VARIANTS {
            let plan = Plan::build(workload, variant, 1);
            println!(
                "{} {:016x}",
                inputs::ops_key(workload, variant),
                plan.digest()
            );
        }
    }
    Ok(())
}

/// `POST {path}` with a JSON request as the body.
fn query_bytes(path: &str, request: &hpcfail_core::engine::AnalysisRequest) -> Vec<u8> {
    let body = request.to_json().compact();
    let mut bytes = http::post_head(path, body.len(), "application/json");
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Everything a workload needs to be served and checked.
enum Prepared {
    Queries {
        boot: Vec<String>,
        engine: Engine,
        requests: Vec<Vec<u8>>,
        kinds: Vec<&'static str>,
        expected: Vec<Expected>,
    },
    Churn {
        clients: Vec<ChurnClient>,
        snapshots: Vec<Vec<u8>>,
        expect: Vec<ChurnExpect>,
    },
}

impl Prepared {
    fn boot_args(&self) -> Vec<String> {
        match self {
            Prepared::Queries { boot, .. } => boot.clone(),
            // Uploads alternate between two snapshots, so a cache would
            // answer a panel from two epochs back; with none, every
            // panel query runs on the fresh epoch.
            Prepared::Churn { .. } => ["--empty", "--cache", "0"].map(String::from).to_vec(),
        }
    }
}

fn prepare(plan: &Plan, generated: &[Generated]) -> Prepared {
    match plan.workload {
        Workload::ComputeMix => {
            let first = &generated[0];
            let engine = Engine::new(first.trace.clone());
            let expected = inputs::references(&engine, &plan.requests, CLIENTS);
            let path = "/v1/traces/default/query";
            Prepared::Queries {
                boot: vec![
                    "--trace".to_owned(),
                    first.csv.display().to_string(),
                    "--cache".to_owned(),
                    CACHE_ENTRIES.to_string(),
                ],
                requests: plan.requests.iter().map(|r| query_bytes(path, r)).collect(),
                kinds: plan.requests.iter().map(|r| r.kind()).collect(),
                expected,
                engine,
            }
        }
        Workload::EpochChurn => {
            let snapshots: Vec<Vec<u8>> =
                generated.iter().map(|g| snapshot_bytes(&g.trace)).collect();
            let expect = generated
                .iter()
                .map(|g| {
                    let engine = Engine::new(g.trace.clone());
                    ChurnExpect {
                        fingerprint: engine.fingerprint_hex(),
                        panel: inputs::references(&engine, &plan.requests, CLIENTS),
                    }
                })
                .collect();
            let clients = (0..CLIENTS)
                .map(|c| {
                    let name = format!("churn-{c}");
                    let upload = format!("/v1/traces/{name}");
                    let query = format!("/v1/traces/{name}/query");
                    ChurnClient {
                        uploads: snapshots
                            .iter()
                            .map(|s| http::post_head(&upload, s.len(), "application/octet-stream"))
                            .collect(),
                        panel: plan
                            .requests
                            .iter()
                            .map(|r| query_bytes(&query, r))
                            .collect(),
                        panel_kinds: plan.requests.iter().map(|r| r.kind()).collect(),
                    }
                })
                .collect();
            Prepared::Churn {
                clients,
                snapshots,
                expect,
            }
        }
    }
}

/// Server-side counters, read from `/v1/metrics`.
#[derive(Default)]
struct Counters {
    requests: f64,
    cache: [f64; 3],
    kinds: BTreeMap<String, f64>,
}

const CACHE_OUTCOMES: [&str; 3] = ["hit", "miss", "coalesced"];

fn scrape(server: &http::Server) -> Result<Counters, String> {
    let reply = server.get("/v1/metrics")?;
    let text = String::from_utf8(reply.body).map_err(|_| "metrics are not UTF-8")?;
    let scrape = hpcfail_serve::promtext::parse(&text)?;
    let mut counters = Counters {
        requests: scrape.value("serve_requests_total", &[]).unwrap_or(0.0),
        ..Counters::default()
    };
    for (slot, outcome) in counters.cache.iter_mut().zip(CACHE_OUTCOMES) {
        *slot = scrape
            .value("serve_cache_requests_total", &[("result", outcome)])
            .unwrap_or(0.0);
    }
    for sample in scrape.series("serve_requests_by_kind_total") {
        if let Some(kind) = sample.label("kind") {
            counters.kinds.insert(kind.to_owned(), sample.value);
        }
    }
    Ok(counters)
}

fn sheds(server: &http::Server) -> Result<f64, String> {
    let reply = server.get("/v1/healthz")?;
    std::str::from_utf8(&reply.body)
        .ok()
        .and_then(|t| hpcfail_obs::json::parse(t).ok())
        .and_then(|j| j.get("admission")?.get("shed_total")?.as_f64())
        .ok_or_else(|| "healthz has no admission.shed_total".to_owned())
}

/// The server-side deltas over a timed run, against the client's own
/// counts.
struct CrossCheck {
    requests: f64,
    cache: [f64; 3],
    kinds: f64,
    sheds: f64,
    mismatches: Vec<String>,
}

fn cross_check(before: &Counters, after: &Counters, samples: &Samples, sheds: f64) -> CrossCheck {
    let mut mismatches = Vec::new();
    let requests = after.requests - before.requests;
    // The closing scrape counts itself before it renders.
    let sent = samples.requests();
    if requests != sent as f64 + 1.0 {
        mismatches.push(format!(
            "serve_requests_total grew {requests}, clients sent {sent} plus the closing scrape"
        ));
    }
    let client = [samples.hits, samples.misses, samples.coalesced];
    let mut cache = [0.0; 3];
    for i in 0..3 {
        cache[i] = after.cache[i] - before.cache[i];
        if cache[i] != client[i] as f64 {
            mismatches.push(format!(
                "serve_cache_requests_total{{result={}}} grew {}, clients saw {}",
                CACHE_OUTCOMES[i], cache[i], client[i]
            ));
        }
    }
    let mut kinds = 0.0;
    for (kind, &sent) in &samples.kinds {
        let grew = after.kinds.get(*kind).copied().unwrap_or(0.0)
            - before.kinds.get(*kind).copied().unwrap_or(0.0);
        kinds += grew;
        if grew != sent as f64 {
            mismatches.push(format!(
                "serve_requests_by_kind_total{{kind={kind}}} grew {grew}, clients sent {sent}"
            ));
        }
    }
    if sheds != 0.0 {
        mismatches.push(format!("the admission gate shed {sheds} requests"));
    }
    CrossCheck {
        requests,
        cache,
        kinds,
        sheds,
        mismatches,
    }
}

/// One measured session: boot, warm up, time the plan.
struct Session {
    setup_s: f64,
    peak_rss_mb: f64,
    samples: Samples,
    check: CrossCheck,
}

impl Session {
    /// Throughput, p50 and tail latency of each round.
    fn per_round(&self) -> Vec<[f64; 3]> {
        self.samples
            .rounds
            .iter()
            .filter(|r| !r.latency_ns.is_empty())
            .map(|r| {
                let mut sorted: Vec<f64> = r.latency_ns.iter().map(|&n| n as f64 / 1e3).collect();
                sorted.sort_by(f64::total_cmp);
                [
                    sorted.len() as f64 / r.wall.as_secs_f64().max(1e-9),
                    quantile(&sorted, 0.5),
                    quantile(&sorted, tail_rule(sorted.len()).0),
                ]
            })
            .collect()
    }

    fn over_rounds(&self, i: usize) -> f64 {
        median(&self.per_round().iter().map(|r| r[i]).collect::<Vec<_>>())
    }

    /// The end-to-end metrics.
    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            ("setup_s".to_owned(), self.setup_s, "s"),
            ("peak_rss_mb".to_owned(), self.peak_rss_mb, "MB"),
            ("ops_per_s".to_owned(), self.over_rounds(0), "1/s"),
            ("op_p50_us".to_owned(), self.over_rounds(1), "us"),
            ("op_tail_us".to_owned(), self.over_rounds(2), "us"),
        ]
    }

    /// Which percentile `op_tail_us` is: the highest with ten samples
    /// beyond it in a round.
    fn tail(&self) -> &'static str {
        let per_round = self
            .samples
            .rounds
            .first()
            .map_or(0, |r| r.latency_ns.len());
        tail_rule(per_round).1
    }
}

fn session(args: &Args, plan: &Plan, prepared: &Prepared, trace: bool) -> Result<Session, String> {
    // One worker per client connection. More workers serve the same
    // load, but each keeps its own allocator arena, and which of them
    // picks up a connection varies from run to run: with four, the
    // compute-mix peak RSS of one seed ranged 81-97 MB; with two,
    // 79-82 MB.
    let mut boot = prepared.boot_args();
    boot.extend(["--workers".to_owned(), CLIENTS.to_string()]);
    let mut setups = Vec::with_capacity(BOOTS);
    let mut server = None;
    for _ in 0..BOOTS {
        if let Some(previous) = server.take() {
            http::Server::shutdown(previous)?;
        }
        let booted = http::Server::boot(&args.server, &boot)?;
        setups.push(booted.setup.as_secs_f64());
        server = Some(booted);
    }
    let server = server.expect("at least one boot");
    let (warmup, before, mut samples) = match prepared {
        Prepared::Queries {
            requests,
            kinds,
            expected,
            ..
        } => {
            // One client, so that no two first computations overlap and
            // the memory they leave behind is the same on every run.
            let warmup = drive::run_queries(
                &server.addr,
                requests,
                kinds,
                expected,
                &[&plan.warmup],
                1,
                false,
            )?;
            let before = scrape(&server)?;
            let timed = drive::run_queries(
                &server.addr,
                requests,
                kinds,
                expected,
                &plan.rounds(),
                CLIENTS,
                trace,
            )?;
            (warmup, before, timed)
        }
        Prepared::Churn {
            clients,
            snapshots,
            expect,
        } => {
            // The warm-up cycles run inside `run_churn`, so that each
            // client keeps one connection; they are counted as sent.
            let before = scrape(&server)?;
            let timed = drive::run_churn(
                &server.addr,
                clients,
                snapshots,
                expect,
                CHURN_WARM_CYCLES,
                plan.cycles,
                trace,
            )?;
            (Samples::default(), before, timed)
        }
    };
    let after = scrape(&server)?;
    let check = cross_check(&before, &after, &samples, sheds(&server)?);
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;
    samples.attempted += warmup.attempted;
    samples.failed += warmup.failed;
    samples.errors.extend(warmup.errors);
    Ok(Session {
        setup_s: median(&setups),
        peak_rss_mb,
        samples,
        check,
    })
}

/// The result line and its human-readable echo.
struct Report {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        eprintln!("== {} ==", self.workload.name());
        for note in &self.notes {
            eprintln!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<44} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let plan = Plan::build(args.workload, args.seed, args.seconds);
    inputs::check_pin(&inputs::ops_key(plan.workload, plan.variant), plan.digest())?;
    let work = WorkDir::create(args.workload)?;
    let mut generated = Vec::new();
    for &trace_seed in plan.trace_seeds() {
        let (trace, digest) = generate(trace_seed, &work.0)?;
        inputs::check_pin(&inputs::trace_key(trace_seed), digest)?;
        generated.push(trace);
    }
    let prepared = prepare(&plan, &generated);
    eprintln!(
        "servebench: {} op-list variant {} ({} timed ops), inputs ready in {:.2}s",
        plan.workload.name(),
        plan.variant,
        plan.timed_ops(),
        started.elapsed().as_secs_f64()
    );

    let untraced = session(args, &plan, &prepared, false)?;
    let mut notes = vec![format!(
        "{} ops timed in {} rounds, metrics are medians over rounds; \
         ops with warm-up: {} attempted, {} succeeded, {} failed",
        untraced.samples.ops(),
        untraced.samples.rounds.len(),
        untraced.samples.attempted,
        untraced.samples.attempted - untraced.samples.failed,
        untraced.samples.failed
    )];
    notes.push(format!(
        "op_tail_us is each round's {}; setup_s is the median of {BOOTS} boots",
        untraced.tail()
    ));
    let mut attempted = untraced.samples.attempted;
    let mut failed = untraced.samples.failed;
    let mut problems: Vec<String> = untraced.samples.errors.clone();
    problems.extend(untraced.check.mismatches.iter().cloned());

    let metrics = if !args.trace {
        untraced.end_to_end()
    } else {
        let traced = session(args, &plan, &prepared, true)?;
        attempted += traced.samples.attempted;
        failed += traced.samples.failed;
        problems.extend(traced.samples.errors.iter().cloned());
        problems.extend(traced.check.mismatches.iter().cloned());
        let (metrics, replay_problems) =
            per_layer(&plan, &prepared, &generated[0], &untraced, &traced)?;
        problems.extend(replay_problems);
        metrics
    };
    notes.extend(problems.iter().map(|p| format!("problem: {p}")));
    notes.push(format!("run took {:.1}s", started.elapsed().as_secs_f64()));
    Ok(Report {
        workload: args.workload,
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn per_layer(
    plan: &Plan,
    prepared: &Prepared,
    generated: &Generated,
    untraced: &Session,
    traced: &Session,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut metrics: Vec<Metric> = Vec::new();
    let mut problems = Vec::new();

    // The client, from the traced HTTP run.
    let phase = |i: usize| {
        median(
            &traced
                .samples
                .phases
                .iter()
                .map(|p| p[i] as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let s = &traced.samples;
    metrics.extend([
        ("client.write_us".to_owned(), phase(0), "us"),
        ("client.ttfb_us".to_owned(), phase(1), "us"),
        ("client.body_us".to_owned(), phase(2), "us"),
        ("client.reconnects".to_owned(), s.reconnects as f64, "count"),
        ("client.requests".to_owned(), s.requests() as f64, "count"),
        ("client.cache_hits".to_owned(), s.hits as f64, "count"),
        ("client.cache_misses".to_owned(), s.misses as f64, "count"),
    ]);
    if s.reconnects != 0 {
        problems.push(format!("clients reconnected {} times", s.reconnects));
    }

    // The server's own counters over the traced run.
    let c = &traced.check;
    let answered = c.cache.iter().sum::<f64>().max(1.0);
    metrics.extend([
        (
            "server.requests_total.delta".to_owned(),
            c.requests,
            "count",
        ),
        (
            "server.cache_requests_total.hit.delta".to_owned(),
            c.cache[0],
            "count",
        ),
        (
            "server.cache_requests_total.miss.delta".to_owned(),
            c.cache[1],
            "count",
        ),
        (
            "server.cache_requests_total.coalesced.delta".to_owned(),
            c.cache[2],
            "count",
        ),
        (
            "server.requests_by_kind_total.delta".to_owned(),
            c.kinds,
            "count",
        ),
        (
            "serve.cache.hit_ratio".to_owned(),
            c.cache[0] / answered,
            "ratio",
        ),
        ("serve.coalesce.coalesced".to_owned(), c.cache[2], "count"),
        ("serve.admission.sheds".to_owned(), c.sheds, "count"),
    ]);

    // The in-process replay of the same op list.
    let replay = match prepared {
        Prepared::Queries {
            engine,
            requests,
            expected,
            ..
        } => layers::replay_queries(engine.clone(), plan, requests, expected, CACHE_ENTRIES)?,
        Prepared::Churn {
            clients,
            snapshots,
            expect,
        } => layers::replay_churn(plan, clients, snapshots, expect)?,
    };
    if replay.wrong != 0 {
        problems.push(format!(
            "{} replayed answers differ from the reference",
            replay.wrong
        ));
    }
    if replay.sheds != 0 {
        problems.push(format!("the replayed admission gate shed {}", replay.sheds));
    }
    metrics.extend(replay.metrics);

    // The store and engine below the server.
    let snapshot = snapshot_bytes(&generated.trace);
    let panel = Plan::build(Workload::EpochChurn, plan.variant, 1).requests;
    metrics.extend(layers::probe_store(&snapshot, &generated.csv, &panel)?);

    // Do the layers add up to what a client sees?
    let traced_p50 = traced.over_rounds(1);
    metrics.extend([
        ("replay.layer_sum_us".to_owned(), replay.layer_sum_us, "us"),
        ("http.traced_op_p50_us".to_owned(), traced_p50, "us"),
        (
            "transport.gap_us".to_owned(),
            traced_p50 - replay.layer_sum_us,
            "us",
        ),
    ]);

    // Tracing overhead: each end-to-end metric, untraced and traced.
    for ((name, plain, unit), (_, with, _)) in
        untraced.end_to_end().into_iter().zip(traced.end_to_end())
    {
        metrics.push((format!("overhead.{name}.untraced"), plain, unit));
        metrics.push((format!("overhead.{name}.traced"), with, unit));
        metrics.push((format!("overhead.{name}.diff"), with - plain, unit));
    }
    Ok((metrics, problems))
}
