//! Derived per-node features: usage, temperature aggregates, per-user
//! failure exposure, and the Table I feature rows feeding the paper's
//! regressions.

use crate::trace::SystemTrace;
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;

/// Per-node usage metrics (Section V).
///
/// A node counts as *utilized* whenever at least one job is assigned to
/// it; `utilization` is the fraction of the observation span the node
/// was utilized, and `num_jobs` the number of jobs scheduled on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeUsage {
    /// The node.
    pub node: NodeId,
    /// Jobs that included this node.
    pub num_jobs: u64,
    /// Fraction of the observation span with at least one assigned job,
    /// in `[0, 1]`.
    pub utilization: f64,
    /// Total busy time (union of job intervals, clipped to the
    /// observation span).
    pub busy: Duration,
}

/// Computes [`NodeUsage`] for every node of a system from its job log.
///
/// Nodes with no jobs get zero usage. Job intervals extending outside
/// the observation period are clipped.
///
/// Busy time is the union of each node's clipped job intervals
/// `[max(dispatch, start), min(end, end of span))`, built in one pass
/// without sorting. The job columns are sorted by dispatch time (the
/// builder sorts them and snapshot decode rejects unsorted input), so
/// each node's intervals arrive ordered by their start. A node then
/// needs only one open interval: the next interval either overlaps it
/// and extends it, or starts after it and closes it into the total.
pub fn compute_usage(system: &SystemTrace) -> Vec<NodeUsage> {
    let config = system.config();
    let n = config.nodes as usize;
    let span = config.observation_span().as_seconds().max(1) as f64;
    let mut num_jobs = vec![0u64; n];
    // Per node: the open interval, and the busy time already closed.
    // The empty starting interval adds nothing when it closes.
    let mut open = vec![(i64::MIN, i64::MIN); n];
    let mut closed = vec![0i64; n];
    let jobs = system.job_columns();
    let (start, end) = (config.start.as_seconds(), config.end.as_seconds());
    for (j, (&dispatch, &job_end)) in jobs.dispatches().iter().zip(jobs.ends()).enumerate() {
        let lo = dispatch.max(start);
        let hi = job_end.min(end);
        for &node in jobs.nodes(j) {
            let i = node as usize;
            if i >= n {
                continue;
            }
            num_jobs[i] += 1;
            if hi > lo {
                let (open_lo, open_hi) = &mut open[i];
                debug_assert!(lo >= *open_lo, "jobs must be sorted by dispatch time");
                if lo <= *open_hi {
                    *open_hi = (*open_hi).max(hi);
                } else {
                    closed[i] += *open_hi - *open_lo;
                    (*open_lo, *open_hi) = (lo, hi);
                }
            }
        }
    }
    (0..n)
        .map(|i| {
            let (open_lo, open_hi) = open[i];
            let busy = closed[i] + (open_hi - open_lo);
            NodeUsage {
                node: NodeId::new(i as u32),
                num_jobs: num_jobs[i],
                utilization: busy as f64 / span,
                busy: Duration::from_seconds(busy),
            }
        })
        .collect()
}

/// Per-user usage and failure exposure (Section VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserStat {
    /// The user.
    pub user: UserId,
    /// Processor-days consumed across all their jobs.
    pub processor_days: f64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs hit by a node failure while running.
    pub node_failures: u64,
}

impl UserStat {
    /// Failures per processor-day — the Figure 8 y-axis.
    pub fn failures_per_processor_day(&self) -> f64 {
        if self.processor_days <= 0.0 {
            0.0
        } else {
            self.node_failures as f64 / self.processor_days
        }
    }
}

/// Computes [`UserStat`] for every user of a system from its job log,
/// in user-id order (empty without a job log).
///
/// A user "experiences" a node failure when one of their running jobs
/// sits on a node that fails: each failure counts once for every job
/// running on the failed node at that instant.
pub fn compute_user_stats(system: &SystemTrace) -> Vec<UserStat> {
    let jobs = system.job_columns();
    if jobs.is_empty() {
        return Vec::new();
    }
    let mut stats: BTreeMap<UserId, UserStat> = BTreeMap::new();
    for (j, &user) in jobs.users().iter().enumerate() {
        let user = UserId::new(user);
        let entry = stats.entry(user).or_insert(UserStat {
            user,
            processor_days: 0.0,
            jobs: 0,
            node_failures: 0,
        });
        entry.processor_days += jobs.processor_days(j);
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
    let jobs = system.job_columns();
    for j in 0..jobs.len() {
        let (d, e) = (jobs.dispatches()[j], jobs.ends()[j]);
        if e <= d {
            continue;
        }
        let user = UserId::new(jobs.users()[j]);
        for &node in jobs.nodes(j) {
            let i = node as usize;
            if i < nodes {
                intervals[i].push((d, e, user));
                max_run[i] = max_run[i].max(e - d);
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

/// Aggregates of a node's temperature samples (Sections VIII and X).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureAggregate {
    /// The node.
    pub node: NodeId,
    /// Number of samples.
    pub samples: u64,
    /// Mean temperature (°C).
    pub avg: f64,
    /// Maximum temperature (°C).
    pub max: f64,
    /// Population variance of the samples.
    pub variance: f64,
    /// Samples above the 40 °C severe-temperature threshold
    /// (Table I's `num_hightemp`).
    pub num_hightemp: u64,
}

/// Computes [`TemperatureAggregate`] per node; nodes without samples
/// yield `None`.
pub fn compute_temperature(system: &SystemTrace) -> Vec<Option<TemperatureAggregate>> {
    let n = system.config().nodes as usize;
    let mut count = vec![0u64; n];
    let mut sum = vec![0.0f64; n];
    let mut sum_sq = vec![0.0f64; n];
    let mut max = vec![f64::NEG_INFINITY; n];
    let mut high = vec![0u64; n];
    for s in system.temperatures() {
        let i = s.node.index();
        if i >= n {
            continue;
        }
        count[i] += 1;
        sum[i] += s.celsius;
        sum_sq[i] += s.celsius * s.celsius;
        if s.celsius > max[i] {
            max[i] = s.celsius;
        }
        if s.is_high() {
            high[i] += 1;
        }
    }
    (0..n)
        .map(|i| {
            if count[i] == 0 {
                return None;
            }
            let c = count[i] as f64;
            let avg = sum[i] / c;
            Some(TemperatureAggregate {
                node: NodeId::new(i as u32),
                samples: count[i],
                avg,
                max: max[i],
                variance: (sum_sq[i] / c - avg * avg).max(0.0),
                num_hightemp: high[i],
            })
        })
        .collect()
}

/// One row of the Table I feature matrix for the joint regression
/// (Section X): the response (`fails_count`) plus every predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFeatures {
    /// The node.
    pub node: NodeId,
    /// Response: total outages in the node's lifetime.
    pub fails_count: u64,
    /// Average ambient temperature.
    pub avg_temp: f64,
    /// Maximum reported temperature.
    pub max_temp: f64,
    /// Variance of reported temperatures.
    pub temp_var: f64,
    /// Number of severe (>40 °C) temperature warnings.
    pub num_hightemp: f64,
    /// Number of jobs assigned to the node.
    pub num_jobs: f64,
    /// Node utilization in percent (0-100), matching the paper's scale.
    pub util: f64,
    /// Position in rack (1 = bottom, 5 = top).
    pub pir: f64,
}

/// Assembles the Table I feature matrix for a system.
///
/// Only nodes with temperature samples and a layout placement produce a
/// row, mirroring the paper's restriction to system 20.
pub fn node_features(system: &SystemTrace) -> Vec<NodeFeatures> {
    let usage = system.indexed_usage();
    let temps = system.indexed_temperature();
    let layout = system.layout();
    system
        .nodes()
        .filter_map(|node| {
            let i = node.index();
            let temp = temps.get(i).copied().flatten()?;
            let pir = layout?.location(node)?.position_in_rack;
            let u = usage[i];
            Some(NodeFeatures {
                node,
                fails_count: system.node_failure_count(node) as u64,
                avg_temp: temp.avg,
                max_temp: temp.max,
                temp_var: temp.variance,
                num_hightemp: temp.num_hightemp as f64,
                num_jobs: u.num_jobs as f64,
                util: u.utilization * 100.0,
                pir: pir as f64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SystemTraceBuilder;

    fn config(nodes: u32, days: f64) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(8),
            name: "t".into(),
            nodes,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(days),
            has_layout: true,
            has_job_log: true,
            has_temperature: true,
        }
    }

    fn job(id: u64, nodes: &[u32], dispatch: f64, end: f64) -> JobRecord {
        JobRecord {
            system: SystemId::new(8),
            job_id: JobId::new(id),
            user: UserId::new(0),
            submit: Timestamp::from_days(dispatch - 0.1),
            dispatch: Timestamp::from_days(dispatch),
            end: Timestamp::from_days(end),
            procs: 4,
            nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
        }
    }

    #[test]
    fn usage_union_of_overlapping_jobs() {
        let mut b = SystemTraceBuilder::new(config(2, 100.0));
        // Node 0: jobs [10,20) and [15,30): union 20 days.
        b.push_job(job(1, &[0], 10.0, 20.0));
        b.push_job(job(2, &[0], 15.0, 30.0));
        let t = b.build();
        let usage = compute_usage(&t);
        assert_eq!(usage[0].num_jobs, 2);
        assert!((usage[0].utilization - 0.2).abs() < 1e-9);
        assert_eq!(usage[1].num_jobs, 0);
        assert_eq!(usage[1].utilization, 0.0);
    }

    #[test]
    fn usage_disjoint_jobs_sum() {
        let mut b = SystemTraceBuilder::new(config(1, 100.0));
        b.push_job(job(1, &[0], 0.0, 10.0));
        b.push_job(job(2, &[0], 50.0, 60.0));
        let t = b.build();
        let usage = compute_usage(&t);
        assert!((usage[0].utilization - 0.2).abs() < 1e-9);
        assert_eq!(usage[0].busy, Duration::from_days(20.0));
    }

    #[test]
    fn usage_clips_to_observation_span() {
        let mut b = SystemTraceBuilder::new(config(1, 100.0));
        b.push_job(job(1, &[0], 90.0, 150.0)); // runs past the end
        let t = b.build();
        let usage = compute_usage(&t);
        assert!((usage[0].utilization - 0.1).abs() < 1e-9);
    }

    #[test]
    fn usage_multi_node_job_counts_everywhere() {
        let mut b = SystemTraceBuilder::new(config(3, 10.0));
        b.push_job(job(1, &[0, 2], 0.0, 5.0));
        let t = b.build();
        let usage = compute_usage(&t);
        assert_eq!(usage[0].num_jobs, 1);
        assert_eq!(usage[1].num_jobs, 0);
        assert_eq!(usage[2].num_jobs, 1);
        assert!((usage[2].utilization - 0.5).abs() < 1e-9);
    }

    fn temp(node: u32, day: f64, c: f64) -> TemperatureSample {
        TemperatureSample {
            system: SystemId::new(8),
            node: NodeId::new(node),
            time: Timestamp::from_days(day),
            celsius: c,
        }
    }

    #[test]
    fn temperature_aggregates() {
        let mut b = SystemTraceBuilder::new(config(2, 10.0));
        b.push_temperature(temp(0, 1.0, 30.0));
        b.push_temperature(temp(0, 2.0, 34.0));
        b.push_temperature(temp(0, 3.0, 44.0));
        let t = b.build();
        let aggs = t.indexed_temperature();
        let a = aggs[0].unwrap();
        assert_eq!(a.samples, 3);
        assert!((a.avg - 36.0).abs() < 1e-9);
        assert_eq!(a.max, 44.0);
        assert_eq!(a.num_hightemp, 1);
        let expected_var =
            ((30.0f64 - 36.0).powi(2) + (34.0f64 - 36.0).powi(2) + (44.0f64 - 36.0).powi(2)) / 3.0;
        assert!((a.variance - expected_var).abs() < 1e-9);
        assert_eq!(aggs[1], None);
    }

    #[test]
    fn zero_record_system_features_are_empty_not_panics() {
        // Regression: a system with no nodes and no records used to turn
        // aggregate lookups into index/unwrap panics.
        let t = SystemTraceBuilder::new(config(0, 10.0)).build();
        assert!(compute_usage(&t).is_empty());
        assert!(compute_temperature(&t).is_empty());
        assert!(node_features(&t).is_empty());
        assert!(t.indexed_temperature().is_empty());
    }

    #[test]
    fn node_features_requires_temp_and_layout() {
        let mut b = SystemTraceBuilder::new(config(2, 10.0));
        b.push_temperature(temp(0, 1.0, 30.0));
        b.push_temperature(temp(1, 1.0, 31.0));
        let mut layout = MachineLayout::new();
        layout.place(
            NodeId::new(0),
            NodeLocation {
                rack: RackId::new(0),
                position_in_rack: 3,
                room_row: 0,
                room_col: 0,
            },
        );
        b.layout(layout);
        b.push_failure(FailureRecord::new(
            SystemId::new(8),
            NodeId::new(0),
            Timestamp::from_days(5.0),
            RootCause::Hardware,
            SubCause::None,
        ));
        let t = b.build();
        let rows = node_features(&t);
        // Node 1 has no layout placement, so only node 0 yields a row.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].node, NodeId::new(0));
        assert_eq!(rows[0].fails_count, 1);
        assert_eq!(rows[0].pir, 3.0);
        assert_eq!(rows[0].num_jobs, 0.0);
    }
}
