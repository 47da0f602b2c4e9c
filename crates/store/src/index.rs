//! The timeline index: lazily-built, thread-safe per-system caches of
//! day vectors, pooled window baselines and whole-system features.
//!
//! Every conditional in the paper divides by the same empirical
//! baseline — "probability of a type-Y failure in a random
//! day/week/month" — and every baseline is assembled from the same
//! per-(node, class) sorted day vectors. The direct-scan path in
//! [`query`](crate::query) re-derives both from raw records on every
//! call; this module memoizes them per system so the trace is indexed
//! once and queried many times:
//!
//! - **day vectors** — per `(node, FailureClass)` (and per node for
//!   unscheduled hardware maintenance), shared via `Arc` so cache hits
//!   are allocation-free;
//! - **baselines** — pooled [`WindowCounts`] per `(FailureClass,
//!   Window)` (and per `Window` for maintenance);
//! - **features** — whole-system usage, temperature and per-user
//!   exposure aggregates (one slot each), whose builders scan the job
//!   log and temperature samples — by far the largest record streams in
//!   the trace.
//!
//! # Keying and laziness
//!
//! Keyed caches are plain `HashMap`s keyed by `Copy` value types
//! (`FailureClass` and `Window` are `Eq + Hash`), populated on first
//! query. Nothing is built at trace construction time: a run that only
//! touches two (class, window) pairs pays for exactly those. The
//! feature slots stay lazy too: the per-user slot costs about 16 ms
//! per job-log system at fleet scale 0.05, which an eager build would
//! add to every snapshot upload, including those whose queries never
//! ask for it.
//!
//! # Thread safety
//!
//! Each keyed cache sits behind an `RwLock` with double-checked lookup:
//! a read lock serves hits concurrently; a miss upgrades to the write
//! lock, re-checks, and builds *while holding it*, so concurrent
//! `parallel_map` workers asking for the same key share one build
//! instead of racing to duplicate it. Each single-value feature slot
//! is one `OnceLock`: the first caller builds, callers racing it wait
//! for that build, and every later caller gets the stored `Arc`. The
//! values are cheap to clone (`Arc` vectors, `Copy` counts), so locks
//! are never held across caller code.
//!
//! Results are bit-identical to the direct-scan path — the builders
//! call into the same [`query`](crate::query) kernels
//! ([`covered_window_starts`], [`NodeEvents`]) — which the differential
//! property tests in `tests/properties.rs` assert over random traces.
//!
//! # Observability
//!
//! - `store.index.days.hits` / `store.index.days.misses` — day-vector
//!   cache outcomes;
//! - `store.index.baseline.hits` / `store.index.baseline.misses` —
//!   baseline cache outcomes;
//! - `store.index.features.hits` / `store.index.features.misses` —
//!   usage/temperature/user feature slot outcomes;
//! - `store.index.build_ns` — histogram of time spent building entries;
//! - `store.index.build_baseline` / `store.index.build_features` —
//!   spans around the expensive whole-system builds.

use crate::features::{
    compute_temperature, compute_usage, compute_user_stats, NodeUsage, TemperatureAggregate,
    UserStat,
};
use crate::query::{covered_window_starts, windows_per_node, NodeEvents, WindowCounts};
use crate::trace::SystemTrace;
use hpcfail_types::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A cached, sorted, deduplicated day vector, shared without copying.
pub type DayVec = Arc<Vec<i64>>;

/// Per-system caches of day vectors and pooled baselines.
///
/// Lives inside [`SystemTrace`]; query through the `indexed_*` methods
/// on the trace. Cloning a trace produces a *cold* index (the caches
/// are derived data and rebuild on demand), which also keeps clones
/// cheap.
#[derive(Debug, Default)]
pub struct TimelineIndex {
    failure_days: RwLock<HashMap<(FailureClass, u32), DayVec>>,
    maintenance_days: RwLock<HashMap<u32, DayVec>>,
    failure_baselines: RwLock<HashMap<(FailureClass, Window), WindowCounts>>,
    maintenance_baselines: RwLock<HashMap<Window, WindowCounts>>,
    usage: OnceLock<Arc<Vec<NodeUsage>>>,
    temperature: OnceLock<Arc<Vec<Option<TemperatureAggregate>>>>,
    users: OnceLock<Arc<Vec<UserStat>>>,
}

impl TimelineIndex {
    /// An empty (cold) index.
    pub(crate) fn new() -> Self {
        TimelineIndex::default()
    }
}

impl Clone for TimelineIndex {
    /// Clones start cold: caches are derived data, rebuilt on demand.
    fn clone(&self) -> Self {
        TimelineIndex::default()
    }
}

/// Double-checked cache lookup: serve hits under the read lock, build
/// misses under the write lock so concurrent workers share one build.
fn get_or_build<K, V>(
    map: &RwLock<HashMap<K, V>>,
    key: K,
    hit: &'static str,
    miss: &'static str,
    build: impl FnOnce() -> V,
) -> V
where
    K: Eq + Hash,
    V: Clone,
{
    // Cached values are immutable once built, so a poisoned lock (a
    // worker panicking mid-experiment) leaves the map consistent —
    // recover rather than cascade the panic.
    if let Some(v) = map
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
    {
        hpcfail_obs::counter(hit).inc();
        return v.clone();
    }
    let mut guard = map
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(v) = guard.get(&key) {
        hpcfail_obs::counter(hit).inc();
        return v.clone();
    }
    hpcfail_obs::counter(miss).inc();
    let v = timed_build(build);
    guard.insert(key, v.clone());
    v
}

/// Whole-system feature lookup: the first caller builds the slot,
/// callers racing it wait for that one build, and later callers share
/// the stored `Arc`.
fn get_or_build_feature<V>(slot: &OnceLock<Arc<V>>, build: impl FnOnce() -> V) -> Arc<V> {
    let mut built = false;
    let v = slot.get_or_init(|| {
        built = true;
        hpcfail_obs::counter("store.index.features.misses").inc();
        let _span = hpcfail_obs::span("store.index.build_features");
        Arc::new(timed_build(build))
    });
    if !built {
        hpcfail_obs::counter("store.index.features.hits").inc();
    }
    Arc::clone(v)
}

/// Runs `build`, recording its duration in `store.index.build_ns` when
/// instrumentation is compiled in.
fn timed_build<V>(build: impl FnOnce() -> V) -> V {
    if hpcfail_obs::ENABLED {
        let started = Instant::now();
        let v = build();
        hpcfail_obs::histogram("store.index.build_ns").record(started.elapsed().as_nanos() as u64);
        v
    } else {
        build()
    }
}

impl SystemTrace {
    /// Sorted, deduplicated day indices on which `node` had a failure
    /// of `class` — the memoized equivalent of
    /// [`NodeEvents::failure_days`].
    pub fn indexed_failure_days(&self, node: NodeId, class: FailureClass) -> DayVec {
        get_or_build(
            &self.index.failure_days,
            (class, node.raw()),
            "store.index.days.hits",
            "store.index.days.misses",
            || Arc::new(NodeEvents::new(self).failure_days(node, class)),
        )
    }

    /// Sorted, deduplicated day indices on which `node` had unscheduled
    /// hardware maintenance — the memoized equivalent of
    /// [`NodeEvents::unscheduled_hw_maintenance_days`].
    pub fn indexed_maintenance_days(&self, node: NodeId) -> DayVec {
        get_or_build(
            &self.index.maintenance_days,
            node.raw(),
            "store.index.days.hits",
            "store.index.days.misses",
            || Arc::new(NodeEvents::new(self).unscheduled_hw_maintenance_days(node)),
        )
    }

    /// The system-pooled baseline probability of a `class` failure in a
    /// random window — the memoized equivalent of
    /// [`BaselineEstimator::failure_probability`](crate::query::BaselineEstimator::failure_probability).
    pub fn indexed_failure_baseline(&self, class: FailureClass, window: Window) -> WindowCounts {
        get_or_build(
            &self.index.failure_baselines,
            (class, window),
            "store.index.baseline.hits",
            "store.index.baseline.misses",
            || {
                let _span = hpcfail_obs::span("store.index.build_baseline");
                let total_days = self.config().observation_days();
                let per_node = windows_per_node(total_days, window);
                let mut counts = WindowCounts::default();
                for node in self.nodes() {
                    let days = self.indexed_failure_days(node, class);
                    counts.hits += covered_window_starts(&days, total_days, window.days());
                    counts.total += per_node;
                }
                counts
            },
        )
    }

    /// The system-pooled baseline probability of unscheduled hardware
    /// maintenance in a random window — the memoized equivalent of
    /// [`BaselineEstimator::maintenance_probability`](crate::query::BaselineEstimator::maintenance_probability).
    pub fn indexed_maintenance_baseline(&self, window: Window) -> WindowCounts {
        get_or_build(
            &self.index.maintenance_baselines,
            window,
            "store.index.baseline.hits",
            "store.index.baseline.misses",
            || {
                let _span = hpcfail_obs::span("store.index.build_baseline");
                let total_days = self.config().observation_days();
                let per_node = windows_per_node(total_days, window);
                let mut counts = WindowCounts::default();
                for node in self.nodes() {
                    let days = self.indexed_maintenance_days(node);
                    counts.hits += covered_window_starts(&days, total_days, window.days());
                    counts.total += per_node;
                }
                counts
            },
        )
    }

    /// Per-node usage features, computed once per trace — the memoized
    /// equivalent of [`compute_usage`]. Figure 7 alone derives four
    /// statistics from the same scatter, each of which previously
    /// rescanned the multi-million-record job log.
    pub fn indexed_usage(&self) -> Arc<Vec<NodeUsage>> {
        get_or_build_feature(&self.index.usage, || compute_usage(self))
    }

    /// Per-node temperature aggregates, computed once per trace — the
    /// memoized equivalent of [`compute_temperature`], which every
    /// Section VIII regression previously recomputed per predictor.
    pub fn indexed_temperature(&self) -> Arc<Vec<Option<TemperatureAggregate>>> {
        get_or_build_feature(&self.index.temperature, || compute_temperature(self))
    }

    /// Per-user failure exposure, computed once per trace — the
    /// memoized equivalent of [`compute_user_stats`]. Every Section VI
    /// request otherwise re-walks the job log and rebuilds per-node job
    /// intervals, though only the number of users asked for differs.
    pub fn indexed_users(&self) -> Arc<Vec<UserStat>> {
        get_or_build_feature(&self.index.users, || compute_user_stats(self))
    }

    /// Baseline probability for one node, served from the cached day
    /// vector — the memoized equivalent of
    /// [`BaselineEstimator::node_failure_probability`](crate::query::BaselineEstimator::node_failure_probability).
    pub fn indexed_node_failure_baseline(
        &self,
        node: NodeId,
        class: FailureClass,
        window: Window,
    ) -> WindowCounts {
        let total_days = self.config().observation_days();
        let days = self.indexed_failure_days(node, class);
        WindowCounts {
            hits: covered_window_starts(&days, total_days, window.days()),
            total: windows_per_node(total_days, window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::BaselineEstimator;
    use crate::trace::SystemTraceBuilder;

    fn config(nodes: u32, days: f64) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(1),
            name: "idx".into(),
            nodes,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(days),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        }
    }

    fn failure(node: u32, day: f64) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_days(day),
            RootCause::Hardware,
            SubCause::None,
        )
    }

    fn build_sample() -> SystemTrace {
        let mut b = SystemTraceBuilder::new(config(3, 100.0));
        b.push_failure(failure(0, 10.0));
        b.push_failure(failure(0, 10.5));
        b.push_failure(failure(2, 50.0));
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(1),
            time: Timestamp::from_days(30.0),
            hardware_related: true,
            scheduled: false,
        });
        b.build()
    }

    #[test]
    fn indexed_baseline_matches_direct_scan() {
        let t = build_sample();
        let est = BaselineEstimator::new(&t);
        for window in Window::ALL {
            assert_eq!(
                t.indexed_failure_baseline(FailureClass::Any, window),
                est.failure_probability(FailureClass::Any, window),
            );
            assert_eq!(
                t.indexed_maintenance_baseline(window),
                est.maintenance_probability(window),
            );
        }
    }

    #[test]
    fn indexed_day_vectors_match_and_are_shared() {
        let t = build_sample();
        let events = NodeEvents::new(&t);
        for node in t.nodes() {
            assert_eq!(
                *t.indexed_failure_days(node, FailureClass::Any),
                events.failure_days(node, FailureClass::Any),
            );
        }
        // A second query returns the same allocation, not a copy.
        let a = t.indexed_failure_days(NodeId::new(0), FailureClass::Any);
        let b = t.indexed_failure_days(NodeId::new(0), FailureClass::Any);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn indexed_node_baseline_matches_direct_scan() {
        let t = build_sample();
        let est = BaselineEstimator::new(&t);
        for node in t.nodes() {
            assert_eq!(
                t.indexed_node_failure_baseline(node, FailureClass::Any, Window::Week),
                est.node_failure_probability(node, FailureClass::Any, Window::Week),
            );
        }
    }

    #[test]
    fn clone_starts_cold_but_agrees() {
        let t = build_sample();
        let warm = t.indexed_failure_baseline(FailureClass::Any, Window::Week);
        let cloned = t.clone();
        assert_eq!(
            cloned.indexed_failure_baseline(FailureClass::Any, Window::Week),
            warm
        );
    }

    #[test]
    fn concurrent_queries_agree() {
        let t = build_sample();
        let expected =
            BaselineEstimator::new(&t).failure_probability(FailureClass::Any, Window::Week);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(
                            t.indexed_failure_baseline(FailureClass::Any, Window::Week),
                            expected
                        );
                    }
                });
            }
        });
    }
}
