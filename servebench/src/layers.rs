//! The per-layer trace: an in-process replay of a workload's operation
//! list through the server's public functions, in the order the server
//! calls them, plus probes of the store layers below the engine. Each
//! call is timed from here; the program itself is not instrumented.

use crate::drive::{ChurnClient, ChurnExpect};
use crate::inputs::{Expected, Plan, CHURN_WARM_CYCLES};
use crate::stats::{median, quantile};
use hpcfail_core::engine::{AnalysisRequest, Engine, REQUEST_KINDS};
use hpcfail_serve::admission::{AdmissionConfig, AdmissionGate, CostClass};
use hpcfail_serve::cache::{CacheKey, ResultCache};
use hpcfail_serve::coalesce::{Claim, Coalescer};
use hpcfail_serve::http;
use hpcfail_serve::registry::{TraceRegistry, TraceSource, DEFAULT_TRACE};
use hpcfail_serve::routes::{self, Endpoint, Routed};
use hpcfail_store::ingest::{load_trace_with, IngestPolicy};
use hpcfail_store::snapshot::decode_snapshot;
use hpcfail_store::trace::{SystemTrace, Trace};
use hpcfail_types::failure::FailureClass;
use hpcfail_types::time::Window;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

const MIB: f64 = 1024.0 * 1024.0;

/// Per-call timings of one replay, in microseconds.
#[derive(Default)]
struct Clock {
    calls: BTreeMap<&'static str, Vec<f64>>,
    /// Engine time per request kind.
    engine: BTreeMap<&'static str, Vec<f64>>,
    body_bytes: Vec<f64>,
    /// Summed layer time per timed operation.
    per_op: Vec<f64>,
    op: f64,
}

impl Clock {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(layer, started.elapsed());
        out
    }

    fn add(&mut self, layer: &'static str, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6;
        self.calls.entry(layer).or_default().push(us);
        self.op += us;
    }

    fn end_op(&mut self, timed: bool) {
        if timed {
            self.per_op.push(self.op);
        }
        self.op = 0.0;
    }

    fn p50(&self, layer: &str) -> f64 {
        self.calls.get(layer).map_or(0.0, |v| median(v))
    }
}

/// The server's shared state, rebuilt in-process.
struct Replay {
    registry: TraceRegistry,
    cache: ResultCache,
    coalescer: Coalescer,
    gate: AdmissionGate,
    clock: Clock,
    hits: u64,
    lookups: u64,
    sheds: u64,
    wrong: u64,
}

/// The body-size limit the server applies while reading a request.
fn body_limit(method: &str, path: &str) -> usize {
    match routes::resolve(method, path) {
        Routed::Matched(m) if m.endpoint == Endpoint::TraceUpload => http::MAX_UPLOAD_BODY,
        _ => http::MAX_BODY,
    }
}

impl Replay {
    fn new(cache_entries: usize) -> Self {
        Replay {
            registry: TraceRegistry::new(0),
            cache: ResultCache::new(cache_entries),
            coalescer: Coalescer::new(),
            gate: AdmissionGate::new(AdmissionConfig::default()),
            clock: Clock::default(),
            hits: 0,
            lookups: 0,
            sheds: 0,
            wrong: 0,
        }
    }

    fn read(&mut self, bytes: &mut impl std::io::BufRead) -> Result<http::Request, String> {
        self.clock
            .time("serve.http.read_request_us", || {
                http::read_request_with_limit(bytes, body_limit)
            })
            .map_err(|e| format!("replay: {}", e.message()))?
            .ok_or_else(|| "replay: empty request".to_owned())
    }

    fn route(&mut self, request: &http::Request) -> Result<String, String> {
        match self.clock.time("serve.routes.resolve_us", || {
            routes::resolve(&request.method, &request.path)
        }) {
            Routed::Matched(m) => Ok(m.trace.unwrap_or_else(|| DEFAULT_TRACE.to_owned())),
            _ => Err(format!("replay: {} does not route", request.path)),
        }
    }

    fn write(&mut self, body: &str, cache: &str) -> Result<(), String> {
        let mut out = Vec::with_capacity(body.len() + 160);
        self.clock
            .time("serve.http.write_response_us", || {
                http::write_response(
                    &mut out,
                    200,
                    "OK",
                    &[("x-trace-id", "0000000000000000"), ("x-cache", cache)],
                    body,
                    false,
                )
            })
            .map_err(|e| format!("replay write: {e}"))
    }

    /// One `/v1/traces/{name}/query`, as `handle_query` and `answer`
    /// run it.
    fn query(&mut self, bytes: &[u8], expected: &Expected) -> Result<(), String> {
        let request = self.read(&mut &bytes[..])?;
        let name = self.route(&request)?;
        let text = std::str::from_utf8(&request.body).map_err(|_| "replay: body not UTF-8")?;
        let parsed = self
            .clock
            .time("core.request.parse_us", || AnalysisRequest::parse(text))
            .map_err(|e| format!("replay: {e}"))?;
        let resolved = self
            .clock
            .time("serve.registry.resolve_us", || self.registry.resolve(&name))
            .ok_or("replay: trace not registered")?;
        let key: CacheKey = self.clock.time("core.request.canonical_us", || {
            (name.clone(), resolved.fingerprint, parsed.canonical())
        });
        let peek = self
            .clock
            .time("serve.cache.get_us", || self.cache.get(&key));
        let class = if peek.is_some() {
            CostClass::Cheap
        } else {
            CostClass::Expensive
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let permit = match self.clock.time("serve.admission.admit_us", || {
            self.gate.admit(class, deadline)
        }) {
            Ok(permit) => permit,
            Err(_) => {
                self.sheds += 1;
                return Err("replay: admission shed".to_owned());
            }
        };
        let key: CacheKey = self.clock.time("core.request.canonical_us", || {
            (name.clone(), resolved.fingerprint, parsed.canonical())
        });
        self.lookups += 1;
        let (body, outcome) = match self
            .clock
            .time("serve.cache.get_us", || self.cache.get(&key))
        {
            Some(body) => {
                self.hits += 1;
                (body, "hit")
            }
            None => match self
                .clock
                .time("serve.coalesce.claim_us", || self.coalescer.claim(&key))
            {
                Claim::Leader(guard) => {
                    let kind = parsed.kind();
                    let started = Instant::now();
                    let result = resolved.engine.run(&parsed);
                    let elapsed = started.elapsed();
                    self.clock.add("core.engine.run_us", elapsed);
                    self.clock
                        .engine
                        .entry(kind)
                        .or_default()
                        .push(elapsed.as_secs_f64() * 1e6);
                    let json = self
                        .clock
                        .time("core.result.to_json_us", || result.to_json());
                    let body = Arc::new(self.clock.time("core.result.pretty_us", || json.pretty()));
                    self.clock.body_bytes.push(body.len() as f64);
                    self.clock.time("serve.cache.put_us", || {
                        self.cache.put(key, Arc::clone(&body))
                    });
                    self.clock.time("serve.coalesce.complete_us", || {
                        self.coalescer.complete(guard, Arc::clone(&body))
                    });
                    (body, "miss")
                }
                Claim::Follower(_) => {
                    return Err("replay: a single-threaded replay cannot coalesce".to_owned());
                }
            },
        };
        drop(permit);
        if !expected.matches(body.as_bytes()) {
            self.wrong += 1;
        }
        self.write(&body, outcome)
    }

    /// One `POST /v1/traces/{name}` with a snapshot body, as
    /// `handle_upload` runs it. The caller ends the operation.
    fn upload(&mut self, head: &[u8], body: &[u8]) -> Result<(), String> {
        let request = self.read(&mut head.chain(body))?;
        let name = self.route(&request)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let permit = match self.clock.time("serve.admission.admit_us", || {
            self.gate.admit(CostClass::Expensive, deadline)
        }) {
            Ok(permit) => permit,
            Err(_) => {
                self.sheds += 1;
                return Err("replay: admission shed".to_owned());
            }
        };
        let trace = self
            .clock
            .time("store.snapshot.decode_us", || {
                decode_snapshot(&request.body)
            })
            .map_err(|e| format!("replay: {e}"))?;
        let summary = self.clock.time("serve.registry.insert_us", || {
            self.registry.insert(&name, trace, TraceSource::Snapshot)
        });
        drop(permit);
        let reply = hpcfail_obs::json::Json::obj([("trace", summary.to_json())]).pretty();
        self.write(&reply, "-")
    }
}

/// What the replay reports beside its per-layer metrics.
pub struct ReplayResult {
    pub metrics: Vec<Metric>,
    /// Median summed layer time per timed operation, microseconds.
    pub layer_sum_us: f64,
    /// Answers that differed from the reference.
    pub wrong: u64,
    pub sheds: u64,
}

/// Replays a read workload: warm-up, then the timed list, on one
/// thread against a registry holding `engine` as the default trace.
pub fn replay_queries(
    engine: Engine,
    plan: &Plan,
    requests: &[Vec<u8>],
    expected: &[Expected],
    cache_entries: usize,
) -> Result<ReplayResult, String> {
    let mut replay = Replay::new(cache_entries);
    replay
        .registry
        .insert_engine(DEFAULT_TRACE, Arc::new(engine), TraceSource::Boot);
    for (timed, list) in [(false, &plan.warmup), (true, &plan.timed)] {
        for &i in list {
            replay.query(&requests[i as usize], &expected[i as usize])?;
            replay.clock.end_op(timed);
        }
    }
    Ok(replay.finish())
}

/// Replays epoch-churn: each client's cycles in turn, interleaved.
pub fn replay_churn(
    plan: &Plan,
    clients: &[ChurnClient],
    snapshots: &[Vec<u8>],
    expect: &[ChurnExpect],
) -> Result<ReplayResult, String> {
    let mut replay = Replay::new(0);
    for k in 0..CHURN_WARM_CYCLES + plan.cycles {
        for (c, client) in clients.iter().enumerate() {
            let s = (k + c) % 2;
            replay.upload(&client.uploads[s], &snapshots[s])?;
            for (query, want) in client.panel.iter().zip(&expect[s].panel) {
                replay.query(query, want)?;
            }
            replay.clock.end_op(k >= CHURN_WARM_CYCLES);
        }
    }
    Ok(replay.finish())
}

impl Replay {
    fn finish(self) -> ReplayResult {
        let clock = &self.clock;
        let mut metrics: Vec<Metric> = Vec::new();
        for layer in [
            "serve.http.read_request_us",
            "serve.routes.resolve_us",
            "serve.registry.resolve_us",
            "serve.admission.admit_us",
            "serve.cache.get_us",
            "serve.cache.put_us",
            "serve.coalesce.claim_us",
            "serve.coalesce.complete_us",
            "serve.http.write_response_us",
            "core.request.parse_us",
            "core.request.canonical_us",
            "core.result.to_json_us",
            "core.result.pretty_us",
        ] {
            metrics.push((layer.to_owned(), clock.p50(layer), "us"));
        }
        metrics.push((
            "core.result.body_bytes".to_owned(),
            median(&clock.body_bytes),
            "bytes",
        ));
        metrics.push((
            "serve.cache.replay_hit_ratio".to_owned(),
            self.hits as f64 / self.lookups.max(1) as f64,
            "ratio",
        ));
        let busy: f64 = clock.engine.values().flatten().sum();
        for kind in REQUEST_KINDS {
            let runs = clock.engine.get(kind).map_or(&[][..], Vec::as_slice);
            metrics.push((format!("core.engine.run_us.{kind}"), median(runs), "us"));
            metrics.push((
                format!("core.engine.busy_share.{kind}"),
                runs.iter().sum::<f64>() / busy.max(1e-9),
                "ratio",
            ));
        }
        metrics.push((
            "serve.registry.resident_mb".to_owned(),
            self.registry.resident_bytes() as f64 / MIB,
            "MB",
        ));
        let mut per_op = clock.per_op.clone();
        per_op.sort_by(f64::total_cmp);
        ReplayResult {
            metrics,
            layer_sum_us: quantile(&per_op, 0.5),
            wrong: self.wrong,
            sheds: self.sheds,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Repetitions of each store probe; the median is reported.
const PROBE_REPEATS: usize = 3;

/// A slot of `store::index` and the calls that fill it for one system.
type SlotProbe = (&'static str, fn(&SystemTrace));

/// The index slots, each probed on every system.
const SLOTS: [SlotProbe; 6] = [
    ("failure_days", |s| {
        for node in s.nodes() {
            std::hint::black_box(s.indexed_failure_days(node, FailureClass::Any));
        }
    }),
    ("maintenance_days", |s| {
        for node in s.nodes() {
            std::hint::black_box(s.indexed_maintenance_days(node));
        }
    }),
    ("failure_baseline", |s| {
        for window in Window::ALL {
            std::hint::black_box(s.indexed_failure_baseline(FailureClass::Any, window));
        }
    }),
    ("maintenance_baseline", |s| {
        for window in Window::ALL {
            std::hint::black_box(s.indexed_maintenance_baseline(window));
        }
    }),
    ("usage", |s| {
        std::hint::black_box(s.indexed_usage());
    }),
    ("temperature", |s| {
        std::hint::black_box(s.indexed_temperature());
    }),
];

/// Probes of the store, engine construction and registry swap on the
/// workload's trace: the same calls on every workload.
pub fn probe_store(
    snapshot: &[u8],
    csv_dir: &Path,
    panel: &[AnalysisRequest],
) -> Result<Vec<Metric>, String> {
    let decode = || decode_snapshot(snapshot).map_err(|e| format!("probe decode: {e}"));
    let mut metrics: Vec<Metric> = vec![(
        "store.snapshot.bytes".to_owned(),
        snapshot.len() as f64,
        "bytes",
    )];
    let mut decode_ms = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut new_ms = Vec::new();
    let mut swap_ms = Vec::new();
    let mut extra_ms = Vec::new();
    let mut resident = 0.0;
    for _ in 0..PROBE_REPEATS {
        let (trace, took) = timed(decode);
        let trace = trace?;
        decode_ms.push(ms(took));
        resident = trace.resident_bytes() as f64 / MIB;

        let (loaded, took) = timed(|| load_trace_with(csv_dir, IngestPolicy::Strict));
        loaded.map_err(|e| format!("probe ingest: {e}"))?;
        ingest_ms.push(ms(took));

        let (engine, took) = timed(|| Engine::new(trace));
        new_ms.push(ms(took));

        // An epoch swap under one name, releasing the previous epoch.
        let registry = TraceRegistry::new(0);
        registry.insert_engine("probe", Arc::new(engine), TraceSource::Snapshot);
        let next = Arc::new(Engine::new(decode()?));
        let ((), took) = timed(|| {
            registry.insert_engine("probe", next, TraceSource::Snapshot);
        });
        swap_ms.push(ms(took));

        // A panel's first run on a fresh epoch against its second run.
        let engine = Engine::new(decode()?);
        let run_panel = || {
            for request in panel {
                std::hint::black_box(engine.run(request).to_json().pretty());
            }
        };
        let ((), cold) = timed(run_panel);
        let ((), warm) = timed(run_panel);
        extra_ms.push(ms(cold) - ms(warm));
    }
    for (name, values, unit) in [
        ("store.snapshot.decode_ms", &decode_ms, "ms"),
        ("store.ingest.load_trace_ms", &ingest_ms, "ms"),
        ("core.engine.new_ms", &new_ms, "ms"),
        ("serve.registry.swap_ms", &swap_ms, "ms"),
        ("core.engine.first_run_extra_ms", &extra_ms, "ms"),
    ] {
        metrics.push((name.to_owned(), median(values), unit));
    }
    metrics.push(("store.trace.resident_mb".to_owned(), resident, "MB"));

    for (slot, call) in SLOTS {
        let mut build = Vec::new();
        let mut hit = Vec::new();
        for _ in 0..PROBE_REPEATS {
            let trace: Trace = decode()?;
            let ((), first) = timed(|| trace.systems().for_each(call));
            let ((), second) = timed(|| trace.systems().for_each(call));
            build.push(ms(first));
            hit.push(second.as_secs_f64() * 1e6);
        }
        metrics.push((format!("store.index.{slot}.build_ms"), median(&build), "ms"));
        metrics.push((format!("store.index.{slot}.hit_us"), median(&hit), "us"));
    }
    Ok(metrics)
}
