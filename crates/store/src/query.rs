//! Window queries and empirical baseline probabilities.
//!
//! The paper's baseline — "the probability that a random node fails in a
//! random day/week/month" — is computed empirically: over every
//! day-aligned window start in a node's observation span, the fraction
//! of windows containing at least one matching event. This module
//! implements that counting in `O(#events)` per node via interval
//! unions rather than scanning every day.
//!
//! The analyses read baselines from the timeline index
//! (`SystemTrace::indexed_*`). [`BaselineEstimator`] computes the same
//! counts by a direct scan of the columns and is the reference the index
//! is checked against: the `indexed_*` unit tests, the property tests
//! of `hpcfail-store` and `hpcfail-core` and the `analysis` criterion
//! bench all compare with it. It is public because integration tests
//! and benches are separate crates and cannot see `#[cfg(test)]` items.

use crate::columns::ClassCode;
use crate::trace::SystemTrace;
use hpcfail_types::prelude::*;

/// Hit/total counts from window counting; convert to a proportion in
/// the statistics layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounts {
    /// Windows containing at least one matching event.
    pub hits: u64,
    /// Total windows examined.
    pub total: u64,
}

impl WindowCounts {
    /// Adds another count.
    pub fn merge(self, other: WindowCounts) -> WindowCounts {
        WindowCounts {
            hits: self.hits + other.hits,
            total: self.total + other.total,
        }
    }

    /// The empirical probability, or 0 when no windows were examined.
    pub fn probability(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

/// Windows per node for a given observation length:
/// `observation_days - window_days + 1`, clamped at zero.
pub(crate) fn windows_per_node(observation_days: i64, window: Window) -> u64 {
    (observation_days - window.days() + 1).max(0) as u64
}

/// Feeds one filtered scan into the observability registry:
/// `store.rows_scanned` / `store.rows_matched` count rows, and
/// `store.filter_hit_rate` tracks the running matched/scanned ratio.
///
/// The published ratio is derived from one consistently captured pair
/// of totals (maintained under a lock), so concurrent scans can never
/// publish a transient matched > scanned ratio.
pub(crate) fn record_scan(scanned: u64, matched: u64) {
    if !hpcfail_obs::ENABLED {
        return;
    }
    hpcfail_obs::counter("store.rows_scanned").add(scanned);
    hpcfail_obs::counter("store.rows_matched").add(matched);
    static TOTALS: std::sync::Mutex<(u64, u64)> = std::sync::Mutex::new((0, 0));
    let (s, m) = {
        // Two plain additions can't leave the pair inconsistent, so
        // recover from poisoning instead of cascading a worker panic.
        let mut totals = TOTALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        totals.0 += scanned;
        totals.1 += matched;
        *totals
    };
    if s > 0 {
        hpcfail_obs::gauge("store.filter_hit_rate").set(m as f64 / s as f64);
    }
}

/// Number of day-aligned window starts `s` in `[0, total_days - window_days]`
/// whose window `[s, s + window_days)` contains at least one of the given
/// sorted event `days`.
///
/// Runs in `O(#days)` by unioning the per-event coverage intervals
/// `[day - window_days + 1, day]`.
///
/// # Panics
///
/// Panics if `window_days == 0` or `days` is not sorted.
pub fn covered_window_starts(days: &[i64], total_days: i64, window_days: i64) -> u64 {
    assert!(window_days > 0, "window must span at least one day");
    debug_assert!(
        days.windows(2).all(|w| w[0] <= w[1]),
        "event days must be sorted"
    );
    let max_start = total_days - window_days;
    if max_start < 0 {
        return 0;
    }
    let mut covered = 0i64;
    // Highest start index counted so far + 1 (so intervals never overlap).
    let mut next_free = 0i64;
    for &day in days {
        let lo = (day - window_days + 1).max(next_free).max(0);
        let hi = day.min(max_start);
        if hi >= lo {
            covered += hi - lo + 1;
            next_free = hi + 1;
        } else if day > max_start && next_free > max_start {
            break;
        }
    }
    covered as u64
}

/// Empirical baseline probabilities over one system, by a direct scan
/// of its columns.
///
/// This is the reference implementation of the baselines the timeline
/// index serves (see the [module docs](self)): tests and benches in
/// other crates compare the `indexed_*` answers with it, so it stays
/// public although no analysis calls it.
#[derive(Debug, Clone, Copy)]
pub struct BaselineEstimator<'a> {
    system: &'a SystemTrace,
}

impl<'a> BaselineEstimator<'a> {
    /// Creates an estimator over `system`.
    pub fn new(system: &'a SystemTrace) -> Self {
        BaselineEstimator { system }
    }

    /// The probability that a random node has at least one failure of
    /// `class` in a random window of the given length, with the counts
    /// backing it.
    ///
    /// Scans the columnar postings with one reused day buffer: the
    /// per-node gather is already time-sorted (duplicates are tolerated
    /// by [`covered_window_starts`]), so the loop does no sorting and no
    /// per-node allocation.
    pub fn failure_probability(&self, class: FailureClass, window: Window) -> WindowCounts {
        let columns = self.system.failure_columns();
        let code = ClassCode::new(class);
        let total_days = self.system.config().observation_days();
        let per_node = windows_per_node(total_days, window);
        let mut counts = WindowCounts::default();
        let mut days = Vec::new();
        let (mut scanned, mut matched) = (0u64, 0u64);
        for node in self.system.nodes() {
            days.clear();
            let (s, m) = columns.collect_node_days(node, code, &mut days);
            scanned += s as u64;
            matched += m as u64;
            counts.hits += covered_window_starts(&days, total_days, window.days());
            counts.total += per_node;
        }
        record_scan(scanned, matched);
        counts
    }

    /// Baseline probability of unscheduled hardware maintenance in a
    /// random window.
    pub fn maintenance_probability(&self, window: Window) -> WindowCounts {
        let columns = self.system.maintenance_columns();
        let total_days = self.system.config().observation_days();
        let per_node = windows_per_node(total_days, window);
        let mut counts = WindowCounts::default();
        let mut days = Vec::new();
        let (mut scanned, mut matched) = (0u64, 0u64);
        for node in self.system.nodes() {
            days.clear();
            let (s, m) = columns.collect_unsched_hw_days(node, &mut days);
            scanned += s as u64;
            matched += m as u64;
            counts.hits += covered_window_starts(&days, total_days, window.days());
            counts.total += per_node;
        }
        record_scan(scanned, matched);
        counts
    }

    /// Baseline probability for a single node (used by the Section IV
    /// node-0-versus-rest comparison).
    pub fn node_failure_probability(
        &self,
        node: NodeId,
        class: FailureClass,
        window: Window,
    ) -> WindowCounts {
        let total_days = self.system.config().observation_days();
        let days = self.system.indexed_failure_days(node, class);
        WindowCounts {
            hits: covered_window_starts(&days, total_days, window.days()),
            total: windows_per_node(total_days, window),
        }
    }

    /// Baseline probability over a subset of nodes.
    pub fn subset_failure_probability(
        &self,
        nodes: &[NodeId],
        class: FailureClass,
        window: Window,
    ) -> WindowCounts {
        nodes
            .iter()
            .map(|&n| self.node_failure_probability(n, class, window))
            .fold(WindowCounts::default(), WindowCounts::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SystemTraceBuilder;

    fn config(nodes: u32, days: f64) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(1),
            name: "t".into(),
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

    #[test]
    fn covered_starts_single_event() {
        // 10 days, window of 3, event on day 5: starts 3, 4, 5 covered.
        assert_eq!(covered_window_starts(&[5], 10, 3), 3);
        // Event on day 0: only start 0.
        assert_eq!(covered_window_starts(&[0], 10, 3), 1);
        // Event on last day 9: starts 7 only (max start = 7).
        assert_eq!(covered_window_starts(&[9], 10, 3), 1);
    }

    #[test]
    fn covered_starts_overlapping_events() {
        // Events on days 4 and 5, window 3: starts {2,3,4} ∪ {3,4,5} = 4.
        assert_eq!(covered_window_starts(&[4, 5], 10, 3), 4);
        // Same day twice after dedup would be [4]; duplicate input tolerated.
        assert_eq!(covered_window_starts(&[4, 4], 10, 3), 3);
    }

    #[test]
    fn covered_starts_disjoint_events() {
        // Window 2, max start 8. Day 0 covers start {0}; day 9 covers
        // starts [8, 9] clipped to {8}. Total 2.
        assert_eq!(covered_window_starts(&[0, 9], 10, 2), 2);
    }

    #[test]
    fn covered_starts_window_exceeds_span() {
        assert_eq!(covered_window_starts(&[1], 5, 7), 0);
        assert_eq!(covered_window_starts(&[], 10, 3), 0);
    }

    #[test]
    fn covered_starts_every_window_hit() {
        // Events every day: all starts covered.
        let days: Vec<i64> = (0..30).collect();
        assert_eq!(covered_window_starts(&days, 30, 7), 24);
    }

    #[test]
    fn baseline_single_failure_week() {
        // 100-day trace, 1 node, 1 failure at day 50, weekly window:
        // 94 window starts, 7 of them cover day 50.
        let mut b = SystemTraceBuilder::new(config(1, 100.0));
        b.push_failure(failure(0, 50.5));
        let t = b.build();
        let counts =
            BaselineEstimator::new(&t).failure_probability(FailureClass::Any, Window::Week);
        assert_eq!(counts.total, 94);
        assert_eq!(counts.hits, 7);
        assert!((counts.probability() - 7.0 / 94.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_scales_with_nodes() {
        let mut b = SystemTraceBuilder::new(config(10, 100.0));
        b.push_failure(failure(3, 20.0));
        let t = b.build();
        let day = BaselineEstimator::new(&t).failure_probability(FailureClass::Any, Window::Day);
        assert_eq!(day.total, 1000);
        assert_eq!(day.hits, 1);
    }

    #[test]
    fn baseline_class_filtering() {
        let mut b = SystemTraceBuilder::new(config(1, 50.0));
        b.push_failure(failure(0, 10.0)); // hardware
        let t = b.build();
        let est = BaselineEstimator::new(&t);
        assert_eq!(
            est.failure_probability(FailureClass::Root(RootCause::Network), Window::Day)
                .hits,
            0
        );
        assert_eq!(
            est.failure_probability(FailureClass::Root(RootCause::Hardware), Window::Day)
                .hits,
            1
        );
    }

    #[test]
    fn node_and_subset_baselines() {
        let mut b = SystemTraceBuilder::new(config(3, 50.0));
        b.push_failure(failure(0, 10.0));
        b.push_failure(failure(2, 20.0));
        let t = b.build();
        let est = BaselineEstimator::new(&t);
        let n0 = est.node_failure_probability(NodeId::new(0), FailureClass::Any, Window::Day);
        assert_eq!(n0.hits, 1);
        assert_eq!(n0.total, 50);
        let rest = est.subset_failure_probability(
            &[NodeId::new(1), NodeId::new(2)],
            FailureClass::Any,
            Window::Day,
        );
        assert_eq!(rest.hits, 1);
        assert_eq!(rest.total, 100);
    }

    #[test]
    fn maintenance_baseline() {
        let mut b = SystemTraceBuilder::new(config(1, 50.0));
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(0),
            time: Timestamp::from_days(25.0),
            hardware_related: true,
            scheduled: false,
        });
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(0),
            time: Timestamp::from_days(30.0),
            hardware_related: false,
            scheduled: false,
        });
        let t = b.build();
        let counts = BaselineEstimator::new(&t).maintenance_probability(Window::Day);
        assert_eq!(counts.hits, 1); // only the hardware-related one
    }

    #[test]
    fn failure_days_sorted_unique_from_out_of_order_pushes() {
        // Records pushed far out of time order; both day paths must come
        // back sorted and deduplicated regardless.
        let mut b = SystemTraceBuilder::new(config(1, 100.0));
        for day in [50.2, 10.0, 50.8, 30.0, 10.5] {
            b.push_failure(failure(0, day));
        }
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(0),
            time: Timestamp::from_days(40.0),
            hardware_related: true,
            scheduled: false,
        });
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(0),
            time: Timestamp::from_days(20.0),
            hardware_related: true,
            scheduled: false,
        });
        let t = b.build();
        let days = t.indexed_failure_days(NodeId::new(0), FailureClass::Any);
        assert_eq!(days, vec![10, 30, 50]);
        let maint = t.indexed_maintenance_days(NodeId::new(0));
        assert_eq!(maint, vec![20, 40]);
    }

    #[test]
    fn window_counts_merge_and_probability() {
        let a = WindowCounts { hits: 2, total: 10 };
        let b = WindowCounts { hits: 3, total: 10 };
        let m = a.merge(b);
        assert_eq!(m, WindowCounts { hits: 5, total: 20 });
        assert!((m.probability() - 0.25).abs() < 1e-12);
        assert_eq!(WindowCounts::default().probability(), 0.0);
    }
}
