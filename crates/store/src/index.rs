//! The timeline index: each system's pooled baselines and temperature
//! aggregates, built once with the trace, plus two lazy job-log slots.
//!
//! Every conditional in the paper divides by the same empirical
//! baseline, "the probability of a type-Y failure in a random
//! day/week/month". The index is built when a [`SystemTrace`] is
//! assembled (by the builder or by snapshot decode) and counts every
//! such baseline once: covered window starts for every [`FailureClass`]
//! × [`Window`] in a fixed array indexed by class slot, the same for
//! unscheduled hardware maintenance, and the per-node temperature
//! aggregates. A baseline query is then a field read. The
//! build is one pass over the nodes that have postings, counted with
//! [`covered_window_starts`], the kernel of the direct scans in
//! [`query`](crate::query), so the values are bit-identical to them;
//! `tests/properties.rs` checks all 28 classes × 3 windows over random
//! traces. At fleet scale 0.05 the build took about 0.5 ms a trace,
//! against 5-6 ms to decode the same trace's format-5 snapshot (seeds
//! 42 and 43, release build, 2-core VM). With format 6 the whole decode
//! takes 1.8-2.1 ms, of which assembling the systems, this build
//! included, is 0.08-0.15 ms (min of 7, same seeds, one session).
//!
//! Usage and per-user exposure stay lazy: they walk the job columns.
//! At fleet scale 0.05 (seeds 42 and 43, release build, 2-core VM,
//! min of 5), usage takes 2.3-3.9 ms and the users table 8-23 ms per
//! system (systems 8 and 20, about 150,000-210,000 jobs each), which an
//! eager build would add to every upload. Each is one `OnceLock`: the
//! first caller builds
//! and every later caller gets the stored `Arc`. A cloned trace starts
//! with both slots empty.
//!
//! Telemetry: `store.index.build_ns` has one sample per system built;
//! `store.index.features.{hits,misses}` and the
//! `store.index.build_features` span cover the lazy slots.

use crate::columns::ClassCode;
use crate::features::{
    compute_temperature, compute_usage, compute_user_stats, NodeUsage, TemperatureAggregate,
    UserStat,
};
use crate::query::{covered_window_starts, record_scan, windows_per_node, WindowCounts};
use crate::trace::SystemTrace;
use hpcfail_types::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Class slots: `Any`, the 6 root causes, then the 10 hardware, 6
/// software and 5 environment sub-causes.
const CLASS_SLOTS: usize = 28;

/// The slot of a sub-cause code, `None` for `SubCause::None`.
fn sub_slot(sub: u16) -> Option<usize> {
    let namespace = usize::from(sub >> 8).checked_sub(1)?;
    [7, 17, 23]
        .get(namespace)
        .map(|base| base + usize::from(sub & 0xff))
}

/// The slot of a failure class in `0..CLASS_SLOTS`.
fn class_slot(class: FailureClass) -> usize {
    match ClassCode::new(class) {
        ClassCode::Any => 0,
        ClassCode::Root(root) => 1 + usize::from(root),
        ClassCode::Sub(sub) => sub_slot(sub).expect("a failure class names a sub-cause"),
    }
}

/// One system's baselines and features; see the module docs. Arrays
/// indexed by window follow [`Window::ALL`].
#[derive(Debug, Clone, Default)]
pub(crate) struct TimelineIndex {
    /// Windows examined per window length: nodes × windows per node.
    totals: [u64; 3],
    /// Covered window starts per class slot and window length.
    failure_hits: [[u64; 3]; CLASS_SLOTS],
    /// Covered window starts of unscheduled hardware maintenance.
    maintenance_hits: [u64; 3],
    temperature: Vec<Option<TemperatureAggregate>>,
    job_log: JobLogSlots,
}

/// The two slots that stay lazy. Clones start empty, which keeps
/// cloning a trace cheap.
#[derive(Debug, Default)]
struct JobLogSlots {
    usage: OnceLock<Arc<Vec<NodeUsage>>>,
    users: OnceLock<Arc<Vec<UserStat>>>,
}

impl Clone for JobLogSlots {
    fn clone(&self) -> Self {
        JobLogSlots::default()
    }
}

/// Adds the covered window starts of one node's non-decreasing event
/// days to `hits`, per window length.
fn add_hits(hits: &mut [u64; 3], days: &[i64], total_days: i64) {
    if days.is_empty() {
        return;
    }
    for (hits, window) in hits.iter_mut().zip(Window::ALL) {
        *hits += covered_window_starts(days, total_days, window.days());
    }
}

impl TimelineIndex {
    /// Counts every baseline of `system` and aggregates its
    /// temperatures, recording the time taken in `store.index.build_ns`.
    pub(crate) fn build(system: &SystemTrace) -> TimelineIndex {
        let started = hpcfail_obs::ENABLED.then(Instant::now);
        let total_days = system.config().observation_days();
        let nodes = u64::from(system.config().nodes);
        let mut index = TimelineIndex {
            totals: Window::ALL.map(|w| nodes * windows_per_node(total_days, w)),
            temperature: compute_temperature(system),
            ..TimelineIndex::default()
        };

        let columns = system.failure_columns();
        let (days, roots, subs) = (columns.days(), columns.roots(), columns.subs());
        let mut slot_days: [Vec<i64>; CLASS_SLOTS] = Default::default();
        for node in system.nodes() {
            let postings = columns.node_postings(node);
            if postings.is_empty() {
                continue;
            }
            // Postings are in time order, so every slot's days arrive
            // non-decreasing; the kernel tolerates the duplicates.
            for &i in postings {
                let i = i as usize;
                slot_days[0].push(days[i]);
                slot_days[1 + usize::from(roots[i])].push(days[i]);
                if let Some(slot) = sub_slot(subs[i]) {
                    slot_days[slot].push(days[i]);
                }
            }
            for (days, hits) in slot_days.iter_mut().zip(&mut index.failure_hits) {
                add_hits(hits, days, total_days);
                days.clear();
            }
        }
        record_scan(columns.len() as u64, columns.len() as u64);

        let maintenance = system.maintenance_columns();
        let mut days = Vec::new();
        let (mut scanned, mut matched) = (0, 0);
        for node in system.nodes() {
            days.clear();
            let (s, m) = maintenance.collect_unsched_hw_days(node, &mut days);
            (scanned, matched) = (scanned + s as u64, matched + m as u64);
            add_hits(&mut index.maintenance_hits, &days, total_days);
        }
        record_scan(scanned, matched);

        if let Some(started) = started {
            hpcfail_obs::histogram("store.index.build_ns")
                .record(started.elapsed().as_nanos() as u64);
        }
        index
    }
}

/// Lazy slot lookup: the first caller builds the slot, callers racing
/// it wait for that one build, and later callers share the stored
/// `Arc`.
fn lazy_slot<V>(slot: &OnceLock<Arc<V>>, build: impl FnOnce() -> V) -> Arc<V> {
    let mut built = false;
    let v = slot.get_or_init(|| {
        built = true;
        hpcfail_obs::counter("store.index.features.misses").inc();
        let _span = hpcfail_obs::span("store.index.build_features");
        Arc::new(build())
    });
    if !built {
        hpcfail_obs::counter("store.index.features.hits").inc();
    }
    Arc::clone(v)
}

impl SystemTrace {
    /// Sorted, deduplicated day indices (relative to the observation
    /// start) on which `node` had a failure of `class`, gathered from
    /// its column postings (already in time order).
    pub fn indexed_failure_days(&self, node: NodeId, class: FailureClass) -> Vec<i64> {
        let mut days = Vec::new();
        let (scanned, matched) =
            self.failure_columns()
                .collect_node_days(node, ClassCode::new(class), &mut days);
        record_scan(scanned as u64, matched as u64);
        days.dedup();
        days
    }

    /// Sorted, deduplicated day indices on which `node` had unscheduled
    /// hardware maintenance.
    pub fn indexed_maintenance_days(&self, node: NodeId) -> Vec<i64> {
        let mut days = Vec::new();
        let (scanned, matched) = self
            .maintenance_columns()
            .collect_unsched_hw_days(node, &mut days);
        record_scan(scanned as u64, matched as u64);
        days.dedup();
        days
    }

    /// The system-pooled baseline probability of a `class` failure in a
    /// random window, read from the table built with the trace; equal
    /// to
    /// [`BaselineEstimator::failure_probability`](crate::query::BaselineEstimator::failure_probability).
    pub fn indexed_failure_baseline(&self, class: FailureClass, window: Window) -> WindowCounts {
        WindowCounts {
            hits: self.index.failure_hits[class_slot(class)][window as usize],
            total: self.index.totals[window as usize],
        }
    }

    /// The system-pooled baseline probability of unscheduled hardware
    /// maintenance in a random window, read from the table built with
    /// the trace; equal to
    /// [`BaselineEstimator::maintenance_probability`](crate::query::BaselineEstimator::maintenance_probability).
    pub fn indexed_maintenance_baseline(&self, window: Window) -> WindowCounts {
        WindowCounts {
            hits: self.index.maintenance_hits[window as usize],
            total: self.index.totals[window as usize],
        }
    }

    /// Per-node temperature aggregates ([`compute_temperature`]), built
    /// with the trace.
    pub fn indexed_temperature(&self) -> &[Option<TemperatureAggregate>] {
        &self.index.temperature
    }

    /// Per-node usage ([`compute_usage`]), built on first use. Figure 7
    /// derives four statistics from it, each of which would otherwise
    /// rescan the job log.
    pub fn indexed_usage(&self) -> Arc<Vec<NodeUsage>> {
        lazy_slot(&self.index.job_log.usage, || compute_usage(self))
    }

    /// Per-user failure exposure ([`compute_user_stats`]), built on
    /// first use. Every Section VI request would otherwise re-walk the
    /// job log, though only the number of users asked for differs.
    pub fn indexed_users(&self) -> Arc<Vec<UserStat>> {
        lazy_slot(&self.index.job_log.users, || compute_user_stats(self))
    }

    /// Baseline probability for one node, counted from its column
    /// postings; equal to
    /// [`BaselineEstimator::node_failure_probability`](crate::query::BaselineEstimator::node_failure_probability).
    /// A node outside the system has no postings: `hits` is 0.
    pub fn indexed_node_failure_baseline(
        &self,
        node: NodeId,
        class: FailureClass,
        window: Window,
    ) -> WindowCounts {
        let total_days = self.config().observation_days();
        let mut days = Vec::new();
        self.failure_columns()
            .collect_node_days(node, ClassCode::new(class), &mut days);
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

    fn all_classes() -> Vec<FailureClass> {
        let mut all = vec![FailureClass::Any];
        all.extend(RootCause::ALL.map(FailureClass::Root));
        all.extend(HardwareComponent::ALL.map(FailureClass::Hw));
        all.extend(SoftwareCause::ALL.map(FailureClass::Sw));
        all.extend(EnvironmentCause::ALL.map(FailureClass::Env));
        all
    }

    #[test]
    fn class_slots_are_a_bijection_onto_the_table() {
        let mut slots: Vec<usize> = all_classes().into_iter().map(class_slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..CLASS_SLOTS).collect::<Vec<_>>());
        assert_eq!(sub_slot(0), None, "SubCause::None has no slot");
        assert_eq!(Window::ALL.map(|w| w as usize), [0, 1, 2]);
    }

    #[test]
    fn indexed_baseline_matches_direct_scan() {
        let t = build_sample();
        let est = BaselineEstimator::new(&t);
        for window in Window::ALL {
            for class in all_classes() {
                assert_eq!(
                    t.indexed_failure_baseline(class, window),
                    est.failure_probability(class, window),
                    "{class:?} {window:?}"
                );
            }
            assert_eq!(
                t.indexed_maintenance_baseline(window),
                est.maintenance_probability(window),
            );
        }
    }

    #[test]
    fn indexed_node_baseline_matches_direct_scan() {
        let t = build_sample();
        let est = BaselineEstimator::new(&t);
        for node in t.nodes().chain([NodeId::new(3), NodeId::new(u32::MAX)]) {
            assert_eq!(
                t.indexed_node_failure_baseline(node, FailureClass::Any, Window::Week),
                est.node_failure_probability(node, FailureClass::Any, Window::Week),
            );
        }
    }

    #[test]
    fn clone_carries_the_table() {
        let t = build_sample();
        let cloned = t.clone();
        for window in Window::ALL {
            for class in all_classes() {
                assert_eq!(
                    cloned.indexed_failure_baseline(class, window),
                    t.indexed_failure_baseline(class, window),
                );
            }
            assert_eq!(
                cloned.indexed_maintenance_baseline(window),
                t.indexed_maintenance_baseline(window),
            );
        }
        assert_eq!(cloned.indexed_temperature(), t.indexed_temperature());
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
