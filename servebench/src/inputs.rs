//! The benchmark's inputs: the served traces, the request corpus, each
//! workload's fixed operation list, the reference answers and the
//! pinned digests that guard all of them against drift.

use crate::stats::{Fnv, SplitMix};
use hpcfail_core::engine::{AnalysisRequest, Engine, REQUEST_KINDS};
use hpcfail_load::{build_corpus, systems_from_fleet};
use hpcfail_store::trace::Trace;
use hpcfail_synth::FleetSpec;
use std::path::Path;

/// Fleet scale of every generated trace.
pub const SCALE: f64 = 0.05;
/// Distinct requests in the corpus, over all twenty kinds.
pub const CORPUS_SIZE: usize = 2048;
/// `--seed n` selects op-list variant `n % VARIANTS`; every variant's
/// operation list is pinned in `pins.txt`.
pub const VARIANTS: u64 = 16;
/// Synthesis seeds of the served traces. They are fixed: on variants
/// 0-5 of the trace alone, compute-mix throughput ranged over 2x, far
/// beyond any bound, so the seed varies the requests, not the data.
/// epoch-churn alternates between both traces; compute-mix serves the
/// first.
pub const TRACE_SEEDS: [u64; 2] = [42, 43];
/// Closed-loop client threads, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// The server's result-cache capacity on compute-mix: half the corpus.
pub const CACHE_ENTRIES: usize = 1024;
/// Untimed upload cycles each epoch-churn client runs first.
pub const CHURN_WARM_CYCLES: usize = 2;

// Plan sizes per second of `--seconds`, from the throughput of this
// design on a 2-core x86-64 box, so that a run measures about that long.
const MIX_OPS_PER_SECOND: f64 = 1_200.0;
const CHURN_CYCLES_PER_CLIENT_SECOND: f64 = 4.5;
/// 2 clients x 50 cycles keeps ten samples beyond the p90.
const MIN_CHURN_CYCLES: usize = 50;
/// Timed entries covered by an operation-list digest: no more than the
/// shortest plan holds (two compute-mix passes). Plans are prefix-stable
/// streams, so the pinned prefix is the same for every `--seconds`.
const DIGEST_PREFIX: usize = 2 * CORPUS_SIZE;
/// compute-mix reshuffles each pass within blocks of this many
/// positions. A key then has at least `CORPUS_SIZE - MIX_BLOCK` (1536)
/// other keys between two of its requests, so the 1024-entry LRU still
/// never hits, with room to spare for the two clients' overlap; and the
/// pairs of requests that run at the same time change from pass to
/// pass, so a run's median is not set by one ordering.
const MIX_BLOCK: usize = 512;

/// The discriminant seeds each workload's op-list stream; the values
/// are fixed so that the pinned lists do not depend on the variants'
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ComputeMix = 1,
    EpochChurn = 2,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ComputeMix, Workload::EpochChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ComputeMix => "compute-mix",
            Workload::EpochChurn => "epoch-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

pub fn fleet() -> FleetSpec {
    FleetSpec::lanl_scaled(SCALE)
}

/// The synthetic trace for one of [`TRACE_SEEDS`].
pub fn generate(trace_seed: u64) -> Trace {
    fleet().generate(trace_seed).into_store()
}

pub fn corpus() -> Vec<AnalysisRequest> {
    build_corpus(&systems_from_fleet(&fleet()), CORPUS_SIZE)
}

/// A workload's fixed operation list. Indices point into `requests`.
pub struct Plan {
    pub workload: Workload,
    pub variant: u64,
    pub requests: Vec<AnalysisRequest>,
    /// Sent once before timing, in order.
    pub warmup: Vec<u32>,
    /// compute-mix: the timed list; clients take the next entry from a
    /// shared cursor.
    pub timed: Vec<u32>,
    /// epoch-churn: the queries sent after every upload.
    pub panel: Vec<u32>,
    /// epoch-churn: timed upload cycles per client.
    pub cycles: usize,
    /// Timed entries per round (about a second's work); each round is
    /// measured on its own and the end-to-end metrics are medians
    /// over rounds.
    pub round_len: usize,
}

impl Plan {
    pub fn build(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let variant = variant(seed);
        let mut rng =
            SplitMix::new(variant ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let seconds = seconds.max(1) as f64;
        let corpus = corpus();
        match workload {
            Workload::ComputeMix => {
                let mut requests = corpus;
                rng.shuffle(&mut requests);
                let n = requests.len();
                let passes = ((seconds * MIX_OPS_PER_SECOND / n as f64).round() as usize).max(2);
                let warmup: Vec<u32> = (0..n as u32).collect();
                let mut timed = Vec::with_capacity(passes * n);
                for _ in 0..passes {
                    let mut pass = warmup.clone();
                    pass.chunks_mut(MIX_BLOCK).for_each(|b| rng.shuffle(b));
                    timed.extend(pass);
                }
                Plan {
                    workload,
                    variant,
                    warmup,
                    timed,
                    requests,
                    panel: Vec::new(),
                    cycles: 0,
                    round_len: n,
                }
            }
            Workload::EpochChurn => {
                let mut requests = panel(&corpus);
                rng.shuffle(&mut requests);
                let cycles = ((seconds * CHURN_CYCLES_PER_CLIENT_SECOND).ceil() as usize)
                    .max(MIN_CHURN_CYCLES);
                Plan {
                    workload,
                    variant,
                    panel: (0..requests.len() as u32).collect(),
                    requests,
                    warmup: Vec::new(),
                    timed: Vec::new(),
                    cycles,
                    round_len: 0,
                }
            }
        }
    }

    /// Timed operations: queries on the read workloads, upload + panel
    /// cycles on epoch-churn.
    pub fn timed_ops(&self) -> usize {
        match self.workload {
            Workload::ComputeMix => self.timed.len(),
            Workload::EpochChurn => self.cycles * CLIENTS,
        }
    }

    /// The timed list cut into rounds.
    pub fn rounds(&self) -> Vec<&[u32]> {
        self.timed.chunks(self.round_len.max(1)).collect()
    }

    /// The synthesis seeds of the traces this plan serves.
    pub fn trace_seeds(&self) -> &'static [u64] {
        match self.workload {
            Workload::ComputeMix => &TRACE_SEEDS[..1],
            Workload::EpochChurn => &TRACE_SEEDS,
        }
    }

    /// The pinned digest: everything but the plan's length.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.str(self.workload.name());
        h.u64(self.requests.len() as u64);
        for request in &self.requests {
            h.str(&request.canonical());
        }
        for list in [&self.warmup, &self.panel] {
            h.u64(list.len() as u64);
            list.iter().for_each(|&i| {
                h.u64(u64::from(i));
            });
        }
        for &i in self.timed.iter().take(DIGEST_PREFIX) {
            h.u64(u64::from(i));
        }
        h.finish()
    }
}

/// The epoch-churn panel: what a dashboard asks first about a freshly
/// uploaded trace. `usage-correlations` for every system (the usage
/// index build), then the first corpus request of every other kind.
fn panel(corpus: &[AnalysisRequest]) -> Vec<AnalysisRequest> {
    let mut panel: Vec<AnalysisRequest> = fleet()
        .systems
        .iter()
        .map(|s| AnalysisRequest::UsageCorrelations {
            system: hpcfail_types::ids::SystemId::new(s.id),
        })
        .collect();
    for kind in REQUEST_KINDS {
        if kind == "usage-correlations" {
            continue;
        }
        let first = corpus
            .iter()
            .find(|r| r.kind() == kind)
            .expect("corpus covers every kind");
        panel.push(first.clone());
    }
    panel
}

/// The reference answer for one request:
/// `Engine::run(request).to_json().pretty()`, compared byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected(pub String);

impl Expected {
    pub fn matches(&self, body: &[u8]) -> bool {
        body == self.0.as_bytes()
    }
}

/// Reference answers, computed in-process on `threads` threads.
pub fn references(engine: &Engine, requests: &[AnalysisRequest], threads: usize) -> Vec<Expected> {
    let threads = threads.max(1);
    let mut out = vec![Expected(String::new()); requests.len()];
    let parts: Vec<Vec<(usize, Expected)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..requests.len())
                        .step_by(threads)
                        .map(|i| (i, Expected(engine.run(&requests[i]).to_json().pretty())))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    for (i, expected) in parts.into_iter().flatten() {
        out[i] = expected;
    }
    out
}

/// Digest of a CSV export directory: every file, by sorted name.
pub fn csv_digest(dir: &Path) -> std::io::Result<u64> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<_, _>>()?;
    names.sort();
    let mut h = Fnv::default();
    for name in names {
        h.str(&name);
        h.bytes(&std::fs::read(dir.join(&name))?);
    }
    Ok(h.finish())
}

const PINS: &str = include_str!("../pins.txt");

/// The pinned digest for `key` (`trace <seed>` or
/// `ops <workload> <variant>`).
fn pinned(key: &str) -> Option<u64> {
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (k, v) = l.rsplit_once(' ')?;
        (k == key).then(|| u64::from_str_radix(v, 16).ok())?
    })
}

pub fn trace_key(trace_seed: u64) -> String {
    format!("trace {trace_seed}")
}

pub fn ops_key(workload: Workload, variant: u64) -> String {
    format!("ops {} {variant}", workload.name())
}

/// Refuses to go on when a generated input differs from its pin.
pub fn check_pin(key: &str, actual: u64) -> Result<(), String> {
    match pinned(key) {
        Some(want) if want == actual => Ok(()),
        Some(want) => Err(format!(
            "input drift: {key} has digest {actual:016x}, pinned {want:016x}; \
             the generators changed, so this is no longer the same workload"
        )),
        None => Err(format!("input drift: no pinned digest for {key}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_serve::cache::ResultCache;
    use std::sync::Arc;

    #[test]
    fn same_seed_gives_identical_op_lists() {
        for workload in Workload::ALL {
            let a = Plan::build(workload, 21, 2);
            let b = Plan::build(workload, 21, 2);
            assert_eq!(a.digest(), b.digest(), "{}", workload.name());
            assert_eq!(a.timed, b.timed);
            assert_eq!(a.cycles, b.cycles);
            let canon = |p: &Plan| p.requests.iter().map(|r| r.canonical()).collect::<Vec<_>>();
            assert_eq!(canon(&a), canon(&b));
        }
        assert_ne!(
            Plan::build(Workload::ComputeMix, 1, 2).digest(),
            Plan::build(Workload::ComputeMix, 2, 2).digest()
        );
    }

    #[test]
    fn digest_ignores_plan_length() {
        for workload in Workload::ALL {
            let digest = Plan::build(workload, 3, 1).digest();
            for seconds in [2, 5, 10, 60] {
                assert_eq!(Plan::build(workload, 3, seconds).digest(), digest);
            }
        }
    }

    #[test]
    fn pinned_digests_match_the_op_lists() {
        for workload in Workload::ALL {
            for variant in 0..VARIANTS {
                let plan = Plan::build(workload, variant, 1);
                check_pin(&ops_key(workload, variant), plan.digest()).expect("pinned");
            }
        }
    }

    /// Replays a plan's keys through a fresh cache the way the server
    /// does (look up, insert on a miss) and counts the hits.
    fn simulated_hits(plan: &Plan) -> usize {
        let cache = ResultCache::new(CACHE_ENTRIES);
        let body = Arc::new(String::new());
        let mut hits = 0;
        for &i in plan.warmup.iter().chain(&plan.timed) {
            let key = (
                "default".to_owned(),
                1,
                plan.requests[i as usize].canonical(),
            );
            if cache.get(&key).is_some() {
                hits += 1;
            } else {
                cache.put(key, Arc::clone(&body));
            }
        }
        hits
    }

    #[test]
    fn compute_mix_never_hits_a_fresh_cache() {
        let plan = Plan::build(Workload::ComputeMix, 9, 3);
        assert_eq!(plan.requests.len(), 2 * CACHE_ENTRIES);
        let rounds = plan.rounds();
        assert!(rounds.len() >= 2 && rounds[0] != rounds[1]);
        assert_eq!(simulated_hits(&plan), 0);
    }

    #[test]
    fn churn_panel_asks_usage_for_every_system_and_every_kind() {
        let plan = Plan::build(Workload::EpochChurn, 0, 1);
        let usage = plan
            .requests
            .iter()
            .filter(|r| r.kind() == "usage-correlations")
            .count();
        assert_eq!(usage, fleet().systems.len());
        for kind in REQUEST_KINDS {
            assert!(plan.requests.iter().any(|r| r.kind() == kind), "{kind}");
        }
        assert!(plan.timed_ops() >= 100, "p90 needs ten samples beyond it");
    }
}
