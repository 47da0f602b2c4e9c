//! The multi-tenant trace registry: named traces, epoch hot-swap and
//! residency budgets.
//!
//! Each registry slot maps a name to an [`Engine`] built from one
//! uploaded (or boot-time) trace. Re-uploading a name is an **epoch
//! swap**: the new engine is built off to the side, then swapped in
//! under the registry lock while the old `Arc<Engine>` stays alive for
//! exactly as long as in-flight queries hold it — a query pinned to
//! epoch N finishes against epoch N's data even if epoch N+1 arrives
//! mid-flight, and the old epoch's memory is released the moment the
//! last pin drops.
//!
//! Under a global `--max-resident-bytes` budget, the registry demotes
//! the least-recently-queried traces to **cold** state: the engine is
//! re-encoded as `.hpcsnap` bytes (a fraction of the warm footprint —
//! no indexes, no postings) and the warm engine dropped. The
//! next query against a cold trace rehydrates it transparently, which
//! may in turn demote some other idle trace. The trace being inserted
//! or queried is never its own eviction victim, so a single trace
//! larger than the budget still serves (the budget is best-effort, not
//! a hard ceiling).
//!
//! Everything is observable: `serve.registry.*` gauges (trace count,
//! warm resident bytes, cold count) and counters (uploads, swaps,
//! evictions, cold loads, removals) feed `/metrics` and the shutdown
//! manifest.

use hpcfail_core::engine::Engine;
use hpcfail_obs::json::Json;
use hpcfail_store::snapshot::{decode_snapshot, snapshot_bytes};
use hpcfail_store::trace::Trace;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The name a booted trace registers under: [`spawn`]'s engine and a
/// `--scale`/`--trace` server's boot trace, which the CLI's
/// `--trace-name` defaults to.
///
/// [`spawn`]: crate::server::spawn
pub const DEFAULT_TRACE: &str = "default";

/// `true` when `name` is usable as a registry slot: 1–64 characters,
/// each ASCII alphanumeric, `_`, `-` or `.` (never starting with a
/// dot). Names appear in URLs, metric names and manifests, so the
/// alphabet is deliberately narrow.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// Where a registry entry's data came from (shown in listings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// Loaded at server boot.
    Boot,
    /// Uploaded as CSV through the ingest machinery.
    Csv,
    /// Uploaded as a binary `.hpcsnap` body.
    Snapshot,
}

impl TraceSource {
    fn label(self) -> &'static str {
        match self {
            TraceSource::Boot => "boot",
            TraceSource::Csv => "csv",
            TraceSource::Snapshot => "snapshot",
        }
    }
}

enum State {
    /// Engine resident and answering queries.
    Warm(Arc<Engine>),
    /// Demoted to encoded snapshot bytes; rehydrated on next query.
    Cold(Arc<Vec<u8>>),
}

struct Entry {
    epoch: u64,
    fingerprint: u64,
    /// Warm heap footprint of the trace's event storage (retained
    /// while cold so listings and rehydration planning can see it).
    resident_bytes: u64,
    systems: usize,
    records: u64,
    source: TraceSource,
    state: State,
    /// Recency stamp; larger = more recently queried.
    last_used: u64,
}

impl Entry {
    fn is_warm(&self) -> bool {
        matches!(self.state, State::Warm(_))
    }
}

struct Inner {
    entries: BTreeMap<String, Entry>,
    next_epoch: u64,
    next_stamp: u64,
}

/// A resolved registry entry: the engine pinned to its epoch. Holding
/// the `Arc` keeps that epoch's data alive through the whole request,
/// whatever swaps or evictions happen meanwhile.
#[derive(Clone)]
pub struct ResolvedTrace {
    /// The epoch's engine.
    pub engine: Arc<Engine>,
    /// The registry epoch this resolution pinned.
    pub epoch: u64,
    /// The engine's structural fingerprint (the cache-key component).
    pub fingerprint: u64,
}

/// One entry's public description (the `/v1/traces` row).
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Registry slot name.
    pub name: String,
    /// Epoch counter value assigned at insert.
    pub epoch: u64,
    /// Structural fingerprint of the trace data.
    pub fingerprint: u64,
    /// Systems in the trace.
    pub systems: usize,
    /// Total failure records.
    pub records: u64,
    /// Warm heap footprint, bytes.
    pub resident_bytes: u64,
    /// `"warm"` or `"cold"`.
    pub state: &'static str,
    /// Provenance label (`boot`, `csv`, `snapshot`).
    pub source: &'static str,
}

impl TraceSummary {
    /// The listing row as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("epoch", Json::Num(self.epoch as f64)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("systems", Json::Num(self.systems as f64)),
            ("records", Json::Num(self.records as f64)),
            ("resident_bytes", Json::Num(self.resident_bytes as f64)),
            ("state", Json::Str(self.state.to_owned())),
            ("source", Json::Str(self.source.to_owned())),
        ])
    }
}

/// The named trace → engine map behind the serving API.
pub struct TraceRegistry {
    inner: Mutex<Inner>,
    max_resident_bytes: u64,
}

impl TraceRegistry {
    /// An empty registry under a warm-residency budget in bytes
    /// (0 = unlimited).
    pub fn new(max_resident_bytes: u64) -> Self {
        TraceRegistry {
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                next_epoch: 0,
                next_stamp: 0,
            }),
            max_resident_bytes,
        }
    }

    /// The configured warm-residency budget (0 = unlimited).
    pub fn max_resident_bytes(&self) -> u64 {
        self.max_resident_bytes
    }

    /// Inserts (or epoch-swaps) `name` with a freshly built engine.
    /// Returns the new entry's summary; the previous epoch's engine, if
    /// any, is dropped from the registry here and freed once its last
    /// in-flight query completes.
    pub fn insert(&self, name: &str, trace: Trace, source: TraceSource) -> TraceSummary {
        self.insert_engine(name, Arc::new(Engine::new(trace)), source)
    }

    /// [`insert`](TraceRegistry::insert) for an engine built elsewhere
    /// (server boot wraps its already-constructed engine this way).
    pub fn insert_engine(
        &self,
        name: &str,
        engine: Arc<Engine>,
        source: TraceSource,
    ) -> TraceSummary {
        let trace = engine.trace();
        let resident_bytes = trace.resident_bytes();
        let systems = trace.len();
        let records = trace.total_failures() as u64;
        let fingerprint = engine.fingerprint();

        let mut inner = self.inner.lock().expect("registry lock");
        let epoch = inner.next_epoch;
        inner.next_epoch += 1;
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        let replaced = inner.entries.insert(
            name.to_owned(),
            Entry {
                epoch,
                fingerprint,
                resident_bytes,
                systems,
                records,
                source,
                state: State::Warm(engine),
                last_used: stamp,
            },
        );
        hpcfail_obs::counter("serve.registry.uploads").inc();
        if replaced.is_some() {
            hpcfail_obs::counter("serve.registry.swaps").inc();
        }
        let demoted = self.enforce_budget(&mut inner, name);
        publish_gauges(&inner);
        let summary = summarize(name, &inner.entries[name]);
        // Free the replaced epoch and any demoted engines (if no query
        // still pins them) after unlocking: tearing down a large trace
        // takes milliseconds, and every resolve would wait behind it.
        drop(inner);
        drop(replaced);
        drop(demoted);
        summary
    }

    /// Resolves `name` to its current epoch's engine, bumping recency.
    /// A cold entry is rehydrated from its snapshot bytes first (the
    /// decode happens outside the registry lock, so concurrent queries
    /// against other traces never stall behind it).
    pub fn resolve(&self, name: &str) -> Option<ResolvedTrace> {
        let cold: Arc<Vec<u8>>;
        let cold_epoch: u64;
        {
            let mut inner = self.inner.lock().expect("registry lock");
            let stamp = inner.next_stamp;
            inner.next_stamp += 1;
            let entry = inner.entries.get_mut(name)?;
            entry.last_used = stamp;
            match &entry.state {
                State::Warm(engine) => {
                    return Some(ResolvedTrace {
                        engine: Arc::clone(engine),
                        epoch: entry.epoch,
                        fingerprint: entry.fingerprint,
                    });
                }
                State::Cold(bytes) => {
                    cold = Arc::clone(bytes);
                    cold_epoch = entry.epoch;
                }
            }
        }
        // Rehydrate outside the lock, then install if nothing changed
        // meanwhile (an interleaved upload wins — its epoch is newer).
        let trace = match decode_snapshot(&cold) {
            Ok(trace) => trace,
            Err(_) => {
                hpcfail_obs::counter("serve.registry.cold_load_failures").inc();
                return None;
            }
        };
        hpcfail_obs::counter("serve.registry.cold_loads").inc();
        let engine = Arc::new(Engine::new(trace));
        let mut inner = self.inner.lock().expect("registry lock");
        let entry = inner.entries.get_mut(name)?;
        if entry.epoch == cold_epoch && !entry.is_warm() {
            entry.state = State::Warm(Arc::clone(&engine));
            let resolved = ResolvedTrace {
                engine,
                epoch: entry.epoch,
                fingerprint: entry.fingerprint,
            };
            let demoted = self.enforce_budget(&mut inner, name);
            publish_gauges(&inner);
            // As in `insert_engine`, free demoted engines after unlocking.
            drop(inner);
            drop(demoted);
            return Some(resolved);
        }
        // The slot moved on while we decoded; answer from whatever is
        // there now (or fail if it was removed).
        match &entry.state {
            State::Warm(current) => Some(ResolvedTrace {
                engine: Arc::clone(current),
                epoch: entry.epoch,
                fingerprint: entry.fingerprint,
            }),
            State::Cold(_) => None,
        }
    }

    /// Removes `name` entirely. Returns the evicted entry's summary,
    /// or `None` if it was not present.
    pub fn remove(&self, name: &str) -> Option<TraceSummary> {
        let mut inner = self.inner.lock().expect("registry lock");
        let entry = inner.entries.remove(name)?;
        hpcfail_obs::counter("serve.registry.removals").inc();
        publish_gauges(&inner);
        // As in `insert_engine`, free the entry after unlocking.
        drop(inner);
        Some(summarize(name, &entry))
    }

    /// `true` when `name` is registered (warm or cold).
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .lock()
            .expect("registry lock")
            .entries
            .contains_key(name)
    }

    /// Number of registered traces.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry lock").entries.len()
    }

    /// `true` when no traces are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total warm resident bytes (the `serve.registry.resident_bytes`
    /// gauge).
    pub fn resident_bytes(&self) -> u64 {
        warm_bytes(&self.inner.lock().expect("registry lock"))
    }

    /// Every entry's summary, in name order.
    pub fn list(&self) -> Vec<TraceSummary> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .entries
            .iter()
            .map(|(name, entry)| summarize(name, entry))
            .collect()
    }

    /// One entry's summary.
    pub fn summary(&self, name: &str) -> Option<TraceSummary> {
        let inner = self.inner.lock().expect("registry lock");
        inner.entries.get(name).map(|entry| summarize(name, entry))
    }

    /// Demotes least-recently-queried warm entries (never `protect`)
    /// to cold snapshot bytes until warm residency fits the budget.
    /// Returns the demoted engines so the caller can drop them after
    /// releasing the registry lock.
    #[must_use = "drop the demoted engines after unlocking the registry"]
    fn enforce_budget(&self, inner: &mut Inner, protect: &str) -> Vec<Arc<Engine>> {
        let mut demoted = Vec::new();
        if self.max_resident_bytes == 0 {
            return demoted;
        }
        while warm_bytes(inner) > self.max_resident_bytes {
            let victim = inner
                .entries
                .iter()
                .filter(|(name, entry)| entry.is_warm() && name.as_str() != protect)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                break; // nothing evictable: only the protected trace is warm
            };
            let entry = inner.entries.get_mut(&victim).expect("victim present");
            if let State::Warm(engine) = &entry.state {
                let engine = Arc::clone(engine);
                entry.state = State::Cold(Arc::new(snapshot_bytes(engine.trace())));
                demoted.push(engine);
                hpcfail_obs::counter("serve.registry.evictions").inc();
            }
        }
        demoted
    }
}

fn warm_bytes(inner: &Inner) -> u64 {
    inner
        .entries
        .values()
        .filter(|e| e.is_warm())
        .map(|e| e.resident_bytes)
        .sum()
}

fn publish_gauges(inner: &Inner) {
    hpcfail_obs::gauge("serve.registry.traces").set(inner.entries.len() as f64);
    hpcfail_obs::gauge("serve.registry.resident_bytes").set(warm_bytes(inner) as f64);
    let cold = inner.entries.values().filter(|e| !e.is_warm()).count();
    hpcfail_obs::gauge("serve.registry.cold_traces").set(cold as f64);
}

fn summarize(name: &str, entry: &Entry) -> TraceSummary {
    TraceSummary {
        name: name.to_owned(),
        epoch: entry.epoch,
        fingerprint: entry.fingerprint,
        systems: entry.systems,
        records: entry.records,
        resident_bytes: entry.resident_bytes,
        state: if entry.is_warm() { "warm" } else { "cold" },
        source: entry.source.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_synth::FleetSpec;

    fn small_trace(seed: u64) -> Trace {
        FleetSpec::lanl_scaled(0.02).generate(seed).into_store()
    }

    #[test]
    fn names_are_validated() {
        for good in ["default", "lanl-96", "a", "fleet_100k", "v1.2"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "a/b", "a b", "ü", "..", ".hidden", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn insert_resolve_and_remove_round_trip() {
        let registry = TraceRegistry::new(0);
        assert!(registry.resolve("default").is_none());
        let summary = registry.insert("default", small_trace(1), TraceSource::Boot);
        assert_eq!(summary.state, "warm");
        assert!(summary.resident_bytes > 0);
        assert!(summary.records > 0);

        let resolved = registry.resolve("default").expect("registered");
        assert_eq!(resolved.fingerprint, summary.fingerprint);
        assert_eq!(resolved.epoch, summary.epoch);
        assert_eq!(registry.len(), 1);

        assert!(registry.remove("default").is_some());
        assert!(registry.remove("default").is_none());
        assert!(registry.resolve("default").is_none());
        assert!(registry.is_empty());
    }

    #[test]
    fn reupload_bumps_epoch_and_swaps_engine() {
        let registry = TraceRegistry::new(0);
        let first = registry.insert("t", small_trace(1), TraceSource::Csv);
        let pinned = registry.resolve("t").expect("warm");
        let weak = Arc::downgrade(&pinned.engine);

        let second = registry.insert("t", small_trace(2), TraceSource::Csv);
        assert!(second.epoch > first.epoch);
        assert_ne!(second.fingerprint, first.fingerprint);
        assert_eq!(registry.len(), 1);

        // The pinned resolution still answers against its own epoch...
        assert_eq!(pinned.fingerprint, first.fingerprint);
        assert!(weak.upgrade().is_some(), "pin keeps the old epoch alive");
        // ...and dropping the pin releases the old epoch's memory.
        drop(pinned);
        assert!(weak.upgrade().is_none(), "old epoch freed after last pin");

        let now = registry.resolve("t").expect("current epoch");
        assert_eq!(now.fingerprint, second.fingerprint);
    }

    #[test]
    fn budget_demotes_lru_to_cold_and_rehydrates() {
        let a = small_trace(1);
        let budget = a.resident_bytes() + a.resident_bytes() / 2;
        let registry = TraceRegistry::new(budget);
        let fp_a = registry.insert("a", a, TraceSource::Boot).fingerprint;
        // Touch "a" so "b"'s insert finds "a" most recently used — but
        // the inserted trace itself is protected, so "a" is demoted.
        registry.resolve("a").expect("warm");
        let fp_b = registry
            .insert("b", small_trace(2), TraceSource::Snapshot)
            .fingerprint;

        let states: BTreeMap<String, &'static str> = registry
            .list()
            .into_iter()
            .map(|s| (s.name, s.state))
            .collect();
        assert_eq!(states["a"], "cold");
        assert_eq!(states["b"], "warm");
        assert!(registry.resident_bytes() <= budget);

        // Cold resolution rehydrates with the same fingerprint and
        // demotes the other trace in turn.
        let back = registry.resolve("a").expect("rehydrated");
        assert_eq!(back.fingerprint, fp_a);
        let states: BTreeMap<String, &'static str> = registry
            .list()
            .into_iter()
            .map(|s| (s.name, s.state))
            .collect();
        assert_eq!(states["a"], "warm");
        assert_eq!(states["b"], "cold");
        assert_eq!(registry.resolve("b").expect("rehydrates").fingerprint, fp_b);
    }

    /// Runs `action` while a watcher waits for the last registry-held
    /// reference to `trace` to go, then reports whether the registry
    /// lock was free at that moment.
    fn lock_free_when_released(
        registry: &TraceRegistry,
        trace: Arc<Trace>,
        action: impl FnOnce(),
    ) -> bool {
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                while Arc::strong_count(&trace) > 1 {
                    std::hint::spin_loop();
                }
                registry.inner.try_lock().is_ok()
            });
            action();
            watcher.join().expect("watcher")
        })
    }

    #[test]
    fn demoted_engines_drop_after_the_registry_unlocks() {
        let a = small_trace(1);
        let budget = a.resident_bytes() + a.resident_bytes() / 2;
        let mut registry = TraceRegistry::new(0);
        registry.insert("a", a, TraceSource::Boot);
        registry.insert("b", small_trace(2), TraceSource::Boot);
        let trace_a = registry.resolve("a").expect("warm").engine.shared_trace();
        assert_eq!(Arc::strong_count(&trace_a), 2);

        // Demotion hands the engine back instead of dropping it under
        // the lock.
        registry.max_resident_bytes = budget;
        let mut inner = registry.inner.lock().expect("registry lock");
        let demoted = registry.enforce_budget(&mut inner, "a");
        assert!(!inner.entries["b"].is_warm());
        assert_eq!(demoted.len(), 1);
        drop(inner);
        let trace_b = demoted[0].shared_trace();
        drop(demoted);
        assert_eq!(Arc::strong_count(&trace_b), 1);

        // Both callers that demote release the lock before the demoted
        // engine goes: an upload that evicts "a" ...
        assert!(lock_free_when_released(&registry, trace_a, || {
            registry.insert("c", small_trace(3), TraceSource::Snapshot);
        }));
        assert_eq!(registry.summary("a").expect("listed").state, "cold");
        // ... and a rehydration that evicts "c".
        let trace_c = registry.resolve("c").expect("warm").engine.shared_trace();
        assert!(lock_free_when_released(&registry, trace_c, || {
            registry.resolve("b").expect("rehydrates");
        }));
        assert_eq!(registry.summary("c").expect("listed").state, "cold");
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let registry = TraceRegistry::new(0);
        registry.insert("a", small_trace(1), TraceSource::Boot);
        registry.insert("b", small_trace(2), TraceSource::Boot);
        assert!(registry.list().iter().all(|s| s.state == "warm"));
    }

    #[test]
    fn summaries_serialize_to_json() {
        let registry = TraceRegistry::new(0);
        let summary = registry.insert("lanl", small_trace(3), TraceSource::Csv);
        let json = summary.to_json();
        assert_eq!(json.get("name").and_then(Json::as_str), Some("lanl"));
        assert_eq!(json.get("source").and_then(Json::as_str), Some("csv"));
        assert_eq!(
            json.get("fingerprint").and_then(Json::as_str),
            Some(format!("{:016x}", summary.fingerprint).as_str())
        );
    }
}
