//! Property-based tests for the trace store: window counting against a
//! brute-force oracle, the columnar query paths against row-struct
//! scans, snapshot round-trips, CSV round-trips over arbitrary records,
//! and usage-union invariants.

use hpcfail_store::csv;
use hpcfail_store::features::{compute_usage, UserStat};
use hpcfail_store::ingest::{read_failures_with, read_jobs_with, IngestPolicy};
use hpcfail_store::query::{covered_window_starts, BaselineEstimator, WindowCounts};
use hpcfail_store::snapshot::{decode_snapshot, snapshot_bytes};
use hpcfail_store::trace::{SystemTrace, SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Brute-force oracle for [`covered_window_starts`].
fn brute_force(days: &[i64], total_days: i64, window: i64) -> u64 {
    let mut count = 0;
    for start in 0..=(total_days - window).max(-1) {
        if days.iter().any(|&d| d >= start && d < start + window) {
            count += 1;
        }
    }
    count
}

fn config(nodes: u32, days: i64) -> SystemConfig {
    SystemConfig {
        id: SystemId::new(1),
        name: "prop".into(),
        nodes,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_seconds(days * 86_400),
        has_layout: false,
        has_job_log: false,
        has_temperature: false,
    }
}

fn root_cause(i: u8) -> RootCause {
    match i % 6 {
        0 => RootCause::Environment,
        1 => RootCause::Hardware,
        2 => RootCause::HumanError,
        3 => RootCause::Network,
        4 => RootCause::Software,
        _ => RootCause::Undetermined,
    }
}

/// A sub-cause consistent with `root`, varied by `pick`, so the
/// columnar class codes see every namespace.
fn sub_cause(root: RootCause, pick: u8) -> SubCause {
    match (root, pick % 3) {
        (RootCause::Hardware, 0) => SubCause::Hardware(HardwareComponent::Cpu),
        (RootCause::Hardware, 1) => SubCause::Hardware(HardwareComponent::MemoryDimm),
        (RootCause::Software, 0) => SubCause::Software(SoftwareCause::Os),
        (RootCause::Software, 1) => SubCause::Software(SoftwareCause::Pfs),
        (RootCause::Environment, 0) => SubCause::Environment(EnvironmentCause::PowerOutage),
        (RootCause::Environment, 1) => SubCause::Environment(EnvironmentCause::Ups),
        _ => SubCause::None,
    }
}

/// A sub-cause consistent with `root`, reaching every component of
/// its namespace (and `SubCause::None`) as `pick` varies.
fn any_sub_cause(root: RootCause, pick: u8) -> SubCause {
    let pick = usize::from(pick);
    let or_none = |n: usize| (pick % (n + 1)).checked_sub(1);
    match root {
        RootCause::Hardware => or_none(HardwareComponent::ALL.len()).map_or(SubCause::None, |i| {
            SubCause::Hardware(HardwareComponent::ALL[i])
        }),
        RootCause::Software => or_none(SoftwareCause::ALL.len()).map_or(SubCause::None, |i| {
            SubCause::Software(SoftwareCause::ALL[i])
        }),
        RootCause::Environment => or_none(EnvironmentCause::ALL.len())
            .map_or(SubCause::None, |i| {
                SubCause::Environment(EnvironmentCause::ALL[i])
            }),
        _ => SubCause::None,
    }
}

/// Every failure class: `Any`, the 6 root causes and the 21 sub-causes.
fn all_failure_classes() -> Vec<FailureClass> {
    let mut all = vec![FailureClass::Any];
    all.extend(RootCause::ALL.map(FailureClass::Root));
    all.extend(HardwareComponent::ALL.map(FailureClass::Hw));
    all.extend(SoftwareCause::ALL.map(FailureClass::Sw));
    all.extend(EnvironmentCause::ALL.map(FailureClass::Env));
    all
}

/// The failure classes a query can restrict to, spanning `Any`, root
/// and sub-cause granularity.
const QUERY_CLASSES: &[FailureClass] = &[
    FailureClass::Any,
    FailureClass::Root(RootCause::Hardware),
    FailureClass::Root(RootCause::Software),
    FailureClass::Root(RootCause::Environment),
    FailureClass::Root(RootCause::Undetermined),
    FailureClass::Hw(HardwareComponent::Cpu),
    FailureClass::Hw(HardwareComponent::MemoryDimm),
    FailureClass::Sw(SoftwareCause::Os),
    FailureClass::Env(EnvironmentCause::PowerOutage),
];

fn build_trace(
    failures: &[(u32, i64, u8, u8)],
    maintenance: &[(u32, i64, u8)],
) -> hpcfail_store::trace::SystemTrace {
    let mut b = SystemTraceBuilder::new(config(5, 100));
    for &(node, sec, root, pick) in failures {
        let root = root_cause(root);
        b.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_seconds(sec),
            root,
            sub_cause(root, pick),
        ));
    }
    for &(node, sec, flags) in maintenance {
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(node),
            time: Timestamp::from_seconds(sec),
            hardware_related: flags & 2 != 0,
            scheduled: flags & 1 != 0,
        });
    }
    b.build()
}

proptest! {
    #[test]
    fn covered_starts_matches_brute_force(
        mut days in prop::collection::vec(0i64..60, 0..20),
        total in 1i64..70,
        window in 1i64..35,
    ) {
        days.sort_unstable();
        let fast = covered_window_starts(&days, total, window);
        let slow = brute_force(&days, total, window);
        prop_assert_eq!(fast, slow, "days {:?} total {} window {}", days, total, window);
    }

    #[test]
    fn baseline_probability_in_unit_interval(
        failures in prop::collection::vec((0u32..5, 0i64..100 * 86_400, 0u8..6), 0..60),
    ) {
        let mut b = SystemTraceBuilder::new(config(5, 100));
        for &(node, sec, root) in &failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_seconds(sec),
                root_cause(root),
                SubCause::None,
            ));
        }
        let t = b.build();
        let est = BaselineEstimator::new(&t);
        for window in Window::ALL {
            let c = est.failure_probability(FailureClass::Any, window);
            prop_assert!(c.hits <= c.total);
            // Longer windows can only raise the per-window hit probability.
        }
        let day = est.failure_probability(FailureClass::Any, Window::Day).probability();
        let month = est.failure_probability(FailureClass::Any, Window::Month).probability();
        prop_assert!(month >= day - 1e-12, "month {month} < day {day}");
    }

    /// The baseline table built with the trace, against the direct
    /// scans: all 28 classes × 3 windows, over sub-causes from every
    /// namespace and observation spans from one day to 100, so spans
    /// shorter than a week or a month (no window fits: 0 windows per
    /// node) come up too.
    #[test]
    fn indexed_paths_match_direct_scan(
        span_days in 1i64..=100,
        failures in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..6, 0u8..12), 0..60),
        maintenance in prop::collection::vec((0u32..5, 0i64..100 * 86_400, 0u8..2), 0..20),
    ) {
        let span = span_days * 86_400;
        let mut b = SystemTraceBuilder::new(config(5, span_days));
        for &(node, sec, root, pick) in &failures {
            let root = root_cause(root);
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_seconds(sec % span),
                root,
                any_sub_cause(root, pick),
            ));
        }
        for &(node, sec, scheduled) in &maintenance {
            b.push_maintenance(MaintenanceRecord {
                system: SystemId::new(1),
                node: NodeId::new(node),
                time: Timestamp::from_seconds(sec % span),
                hardware_related: true,
                scheduled: scheduled == 1,
            });
        }
        let t = b.build();
        let est = BaselineEstimator::new(&t);
        // Node 5 is outside the 5-node system.
        let outside = NodeId::new(5);
        for class in all_failure_classes() {
            for window in Window::ALL {
                let pooled = t.indexed_failure_baseline(class, window);
                prop_assert_eq!(
                    pooled,
                    est.failure_probability(class, window),
                    "baseline mismatch for {:?} {:?}", class, window
                );
                let per_node = (span_days - window.days() + 1).max(0) as u64;
                prop_assert_eq!(pooled.total, 5 * per_node);
                for node in t.nodes().chain([outside]) {
                    prop_assert_eq!(
                        t.indexed_node_failure_baseline(node, class, window),
                        est.node_failure_probability(node, class, window),
                        "node baseline mismatch for {:?} {:?} {:?}", node, class, window
                    );
                }
                prop_assert_eq!(
                    t.indexed_node_failure_baseline(outside, class, window),
                    WindowCounts { hits: 0, total: per_node }
                );
            }
        }
        for window in Window::ALL {
            prop_assert_eq!(
                t.indexed_maintenance_baseline(window),
                est.maintenance_probability(window),
                "maintenance baseline mismatch for {:?}", window
            );
        }
    }

    /// Differential test of the columnar query paths: every class
    /// granularity (any / root / sub-cause), every node, against plain
    /// scans over the decoded row structs.
    #[test]
    fn columnar_queries_match_row_scans(
        failures in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..6, 0u8..3), 0..60),
        maintenance in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..4), 0..20),
    ) {
        let t = build_trace(&failures, &maintenance);
        let rows: Vec<FailureRecord> = t.failures().collect();
        for &class in QUERY_CLASSES {
            for node in t.nodes() {
                let mut oracle_days: Vec<i64> = rows
                    .iter()
                    .filter(|r| r.node == node && class.matches(r))
                    .map(|r| r.time.day_index())
                    .collect();
                oracle_days.sort_unstable();
                oracle_days.dedup();
                prop_assert_eq!(
                    t.indexed_failure_days(node, class),
                    oracle_days,
                    "day vector mismatch for {:?} {:?}", node, class
                );
            }
        }
        for node in t.nodes() {
            let mut oracle_days: Vec<i64> = t
                .maintenance()
                .iter()
                .filter(|m| m.node == node && m.hardware_related && !m.scheduled)
                .map(|m| m.time.day_index())
                .collect();
            oracle_days.sort_unstable();
            oracle_days.dedup();
            prop_assert_eq!(
                t.indexed_maintenance_days(node),
                oracle_days,
                "maintenance day mismatch for {:?}", node
            );
        }
    }

    /// A snapshot round trip reproduces the exact row structs and the
    /// same answers to every query granularity.
    #[test]
    fn snapshot_round_trip_is_lossless(
        failures in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..6, 0u8..3), 0..60),
        maintenance in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..4), 0..20),
    ) {
        let mut trace = Trace::new();
        trace.insert_system(build_trace(&failures, &maintenance));
        let restored = decode_snapshot(&snapshot_bytes(&trace)).expect("round trip");
        let before = trace.system(SystemId::new(1)).unwrap();
        let system = restored.system(SystemId::new(1)).unwrap();
        prop_assert!(before.failures().eq(system.failures()));
        prop_assert_eq!(before.maintenance(), system.maintenance());
        let a = BaselineEstimator::new(before);
        let b = BaselineEstimator::new(system);
        for &class in QUERY_CLASSES {
            for window in Window::ALL {
                prop_assert_eq!(
                    a.failure_probability(class, window),
                    b.failure_probability(class, window),
                    "baseline mismatch for {:?} {:?}", class, window
                );
            }
        }
        for window in Window::ALL {
            prop_assert_eq!(
                a.maintenance_probability(window),
                b.maintenance_probability(window)
            );
        }
    }

    #[test]
    fn failures_roundtrip_csv(
        records in prop::collection::vec(
            (0u32..64, 0i64..10_000_000, 0u8..6, prop::option::of(1i64..100_000)),
            0..40,
        ),
    ) {
        let failures: Vec<FailureRecord> = records
            .iter()
            .map(|&(node, sec, root, downtime)| {
                let mut r = FailureRecord::new(
                    SystemId::new(7),
                    NodeId::new(node),
                    Timestamp::from_seconds(sec),
                    root_cause(root),
                    SubCause::None,
                );
                if let Some(d) = downtime {
                    r = r.with_downtime(Duration::from_seconds(d));
                }
                r
            })
            .collect();
        let mut buf = Vec::new();
        csv::write_failures(&mut buf, failures.iter().copied()).expect("in-memory write");
        let parsed = read_failures_with(&buf[..], "failures.csv", IngestPolicy::Strict)
            .expect("parse back")
            .records;
        prop_assert_eq!(parsed, failures);
    }

    #[test]
    fn jobs_roundtrip_csv(
        jobs in prop::collection::vec(
            (0u32..500, 0i64..1_000_000, 1i64..100_000, 1u32..64, prop::collection::vec(0u32..64, 1..5)),
            0..25,
        ),
    ) {
        let records: Vec<JobRecord> = jobs
            .iter()
            .enumerate()
            .map(|(i, (user, submit, run, procs, nodes))| JobRecord {
                system: SystemId::new(8),
                job_id: JobId::new(i as u64),
                user: UserId::new(*user),
                submit: Timestamp::from_seconds(*submit),
                dispatch: Timestamp::from_seconds(*submit + 60),
                end: Timestamp::from_seconds(*submit + 60 + *run),
                procs: *procs,
                nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            })
            .collect();
        let mut buf = Vec::new();
        csv::write_jobs(&mut buf, records.clone()).expect("in-memory write");
        let parsed = read_jobs_with(&buf[..], "jobs.csv", IngestPolicy::Strict).expect("parse back");
        prop_assert_eq!(parsed.records, records);
    }

    #[test]
    fn utilization_bounded_by_one(
        jobs in prop::collection::vec(
            (prop::collection::vec(0u32..6, 0..4), -20i64..110, 0i64..40),
            0..40,
        ),
    ) {
        // Whole days make equal dispatch times and touching intervals
        // common; length 0 gives zero-length jobs; days below 0 or past
        // 100 straddle the span; node ids 4 and 5 are out of range.
        let config = config(4, 100);
        let records: Vec<JobRecord> = jobs
            .iter()
            .enumerate()
            .map(|(i, (nodes, day, len))| JobRecord {
                system: SystemId::new(1),
                job_id: JobId::new(i as u64),
                user: UserId::new(0),
                submit: Timestamp::from_seconds(day * 86_400),
                dispatch: Timestamp::from_seconds(day * 86_400),
                end: Timestamp::from_seconds((day + len) * 86_400),
                procs: 4,
                nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            })
            .collect();
        let mut b = SystemTraceBuilder::new(config.clone());
        for job in &records {
            b.push_job(job.clone());
        }
        let t = b.build();
        let (num_jobs, busy) = usage_oracle(&records, &config);
        let usage = compute_usage(&t);
        prop_assert_eq!(usage.len(), 4);
        for (i, u) in usage.iter().enumerate() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u.utilization));
            prop_assert!(u.busy.as_seconds() <= 100 * 86_400);
            prop_assert_eq!(u.num_jobs, num_jobs[i]);
            prop_assert_eq!(u.busy.as_seconds(), busy[i]);
        }
    }
}

proptest! {
    #[test]
    fn indexed_users_match_per_request_oracle(
        jobs in prop::collection::vec(
            (0u32..5, prop::collection::vec(0u32..6, 0..4), 0i64..100, -3i64..30, 1u32..8),
            0..40,
        ),
        failures in prop::collection::vec((0u32..4, 0i64..130), 0..40),
    ) {
        // Whole hours put failures exactly at dispatch and at end;
        // length 0 gives zero-length jobs and negative lengths inverted
        // ones; node ids 4 and 5 are out of range, and a job may list
        // one node twice.
        let mut b = SystemTraceBuilder::new(config(4, 10));
        for (i, (user, nodes, hour, len, procs)) in jobs.iter().enumerate() {
            b.push_job(JobRecord {
                system: SystemId::new(1),
                job_id: JobId::new(i as u64),
                user: UserId::new(*user),
                submit: Timestamp::from_seconds(hour * 3600),
                dispatch: Timestamp::from_seconds(hour * 3600),
                end: Timestamp::from_seconds((hour + len) * 3600),
                procs: *procs,
                nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            });
        }
        for &(node, hour) in &failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_seconds(hour * 3600),
                RootCause::Hardware,
                SubCause::None,
            ));
        }
        let system = b.build();
        let expected = user_stats_oracle(&system);

        let indexed = system.indexed_users();
        prop_assert!(same_user_stats(&indexed, &expected));
        prop_assert!(Arc::ptr_eq(&indexed, &system.indexed_users()));

        // A clone starts cold: it builds its own, equal, slot.
        let cloned = system.clone();
        let rebuilt = cloned.indexed_users();
        prop_assert!(!Arc::ptr_eq(&indexed, &rebuilt));
        prop_assert!(same_user_stats(&rebuilt, &expected));

        // Four threads racing a cold slot share one build.
        let racing = system.clone();
        let seen: Vec<Arc<Vec<UserStat>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| racing.indexed_users()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for stats in &seen {
            prop_assert!(Arc::ptr_eq(stats, &seen[0]));
        }
        prop_assert!(same_user_stats(&seen[0], &expected));
    }
}

/// Equal user lists, with `processor_days` compared bit for bit.
fn same_user_stats(a: &[UserStat], b: &[UserStat]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.user == y.user
                && x.processor_days.to_bits() == y.processor_days.to_bits()
                && x.jobs == y.jobs
                && x.node_failures == y.node_failures
        })
}

/// The per-request user table the Section VI analysis built before it
/// moved into the index: per-user totals over the job log, plus each
/// failure attributed to every job running on the failed node.
fn user_stats_oracle(system: &SystemTrace) -> Vec<UserStat> {
    if system.job_columns().is_empty() {
        return Vec::new();
    }
    let mut stats: BTreeMap<UserId, UserStat> = BTreeMap::new();
    for job in system.jobs() {
        let entry = stats.entry(job.user).or_insert(UserStat {
            user: job.user,
            processor_days: 0.0,
            jobs: 0,
            node_failures: 0,
        });
        entry.processor_days += job.processor_days();
        entry.jobs += 1;
    }
    for (user, hits) in attribute_failures(system) {
        if let Some(entry) = stats.get_mut(&user) {
            entry.node_failures += hits;
        }
    }
    stats.into_values().collect()
}

/// Counts, per user, the jobs that were running on a node when it
/// failed.
fn attribute_failures(system: &SystemTrace) -> BTreeMap<UserId, u64> {
    // Per-node job intervals sorted by dispatch, with the node's longest
    // runtime to bound the backward scan.
    let nodes = system.config().nodes as usize;
    let mut intervals: Vec<Vec<(i64, i64, UserId)>> = vec![Vec::new(); nodes];
    let mut max_run = vec![0i64; nodes];
    for job in system.jobs() {
        let d = job.dispatch.as_seconds();
        let e = job.end.as_seconds();
        if e <= d {
            continue;
        }
        for &node in &job.nodes {
            if node.index() < nodes {
                intervals[node.index()].push((d, e, job.user));
                max_run[node.index()] = max_run[node.index()].max(e - d);
            }
        }
    }
    for list in &mut intervals {
        list.sort_unstable_by_key(|&(d, _, _)| d);
    }

    let mut hits: BTreeMap<UserId, u64> = BTreeMap::new();
    let cols = system.failure_columns();
    for (&t, &node) in cols.times().iter().zip(cols.nodes()) {
        let ni = node as usize;
        if ni >= nodes {
            continue;
        }
        let list = &intervals[ni];
        let idx = list.partition_point(|&(d, _, _)| d <= t);
        let earliest = t - max_run[ni];
        for &(d, e, user) in list[..idx].iter().rev() {
            if d < earliest {
                break;
            }
            if e > t {
                *hits.entry(user).or_insert(0) += 1;
            }
        }
    }
    hits
}

/// Sort-then-union reference for `compute_usage`'s streaming union:
/// per-node job counts and busy seconds, from jobs in any order.
fn usage_oracle(jobs: &[JobRecord], config: &SystemConfig) -> (Vec<u64>, Vec<i64>) {
    let n = config.nodes as usize;
    let mut intervals: Vec<Vec<(i64, i64)>> = vec![Vec::new(); n];
    let mut num_jobs = vec![0u64; n];
    for job in jobs {
        let lo = job.dispatch.max(config.start).as_seconds();
        let hi = job.end.min(config.end).as_seconds();
        for &node in &job.nodes {
            if node.index() < n {
                num_jobs[node.index()] += 1;
                if hi > lo {
                    intervals[node.index()].push((lo, hi));
                }
            }
        }
    }
    let busy = intervals.iter_mut().map(|v| union_length(v)).collect();
    (num_jobs, busy)
}

/// Total length of the union of half-open intervals. Sorts in place.
fn union_length(intervals: &mut [(i64, i64)]) -> i64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(i64, i64)> = None;
    for &(lo, hi) in intervals.iter() {
        match current {
            Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                current = Some((lo, hi));
            }
            None => current = Some((lo, hi)),
        }
    }
    if let Some((clo, chi)) = current {
        total += chi - clo;
    }
    total
}
