//! Section V: what is the effect of usage on a node's reliability?
//!
//! Produces the Figure 7 scatter data (per-node failures vs utilization
//! and vs number of jobs) and the Pearson/Spearman correlations, with
//! and without node 0 — the paper finds the strong linear correlation
//! is mostly carried by the login node.

use hpcfail_stats::corr::{pearson, spearman};
use hpcfail_store::features::NodeUsage;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;

/// One point of the Figure 7 scatter plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsagePoint {
    /// The node.
    pub node: NodeId,
    /// Failures in the node's lifetime.
    pub failures: u64,
    /// Average utilization in percent (0-100).
    pub utilization_pct: f64,
    /// Total jobs assigned to the node.
    pub num_jobs: u64,
}

/// Correlation pair: with all nodes, and with node 0 removed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageCorrelation {
    /// Coefficient over all nodes.
    pub all_nodes: Option<f64>,
    /// Coefficient excluding node 0.
    pub without_node0: Option<f64>,
}

/// The Section V usage analysis.
#[derive(Debug, Clone, Copy)]
pub struct UsageAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> UsageAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::usage`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        UsageAnalysis { trace }
    }

    /// The Figure 7 scatter points for one system (empty when the
    /// system has no job log).
    pub fn scatter(&self, system: SystemId) -> Vec<UsagePoint> {
        let Some(s) = self.trace.system(system) else {
            return Vec::new();
        };
        if s.job_columns().is_empty() {
            return Vec::new();
        }
        // Memoized in the trace's timeline index: the four Figure 7
        // statistics all derive from this one job-log scan.
        let usage: std::sync::Arc<Vec<NodeUsage>> = s.indexed_usage();
        usage
            .iter()
            .map(|u| UsagePoint {
                node: u.node,
                failures: s.node_failure_count(u.node) as u64,
                utilization_pct: u.utilization * 100.0,
                num_jobs: u.num_jobs,
            })
            .collect()
    }

    /// Pearson correlation between per-node job counts and failure
    /// counts, with and without node 0 (the paper reports 0.465 and
    /// 0.12 for systems 8 and 20, collapsing when node 0 is removed).
    pub fn jobs_failures_pearson(&self, system: SystemId) -> UsageCorrelation {
        self.correlate(system, |p| p.num_jobs as f64, pearson)
    }

    /// Pearson correlation between utilization and failures.
    pub fn util_failures_pearson(&self, system: SystemId) -> UsageCorrelation {
        self.correlate(system, |p| p.utilization_pct, pearson)
    }

    /// Spearman rank correlation between job counts and failures — the
    /// outlier-robust check (an extension beyond the paper).
    pub fn jobs_failures_spearman(&self, system: SystemId) -> UsageCorrelation {
        self.correlate(system, |p| p.num_jobs as f64, spearman)
    }

    fn correlate(
        &self,
        system: SystemId,
        x: impl Fn(&UsagePoint) -> f64,
        coef: impl Fn(&[f64], &[f64]) -> Option<f64>,
    ) -> UsageCorrelation {
        let points = self.scatter(system);
        if points.len() < 3 {
            return UsageCorrelation {
                all_nodes: None,
                without_node0: None,
            };
        }
        let xs: Vec<f64> = points.iter().map(&x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.failures as f64).collect();
        let all_nodes = coef(&xs, &ys);
        let keep: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].node != NodeId::new(0))
            .collect();
        let xs2: Vec<f64> = keep.iter().map(|&i| xs[i]).collect();
        let ys2: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
        UsageCorrelation {
            all_nodes,
            without_node0: coef(&xs2, &ys2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn build() -> Trace {
        let config = SystemConfig {
            id: SystemId::new(8),
            name: "t".into(),
            nodes: 6,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: false,
            has_job_log: true,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        // Node 0: heavy usage and many failures; node 1-5 modest.
        let mut job_id = 0;
        let mut push_job = |b: &mut SystemTraceBuilder, node: u32, start: f64, end: f64| {
            b.push_job(JobRecord {
                system: SystemId::new(8),
                job_id: JobId::new(job_id),
                user: UserId::new(0),
                submit: Timestamp::from_days(start - 0.05),
                dispatch: Timestamp::from_days(start),
                end: Timestamp::from_days(end),
                procs: 4,
                nodes: vec![NodeId::new(node)],
            });
            job_id += 1;
        };
        for i in 0..40 {
            push_job(&mut b, 0, i as f64 * 2.0, i as f64 * 2.0 + 1.5);
        }
        for n in 1..6u32 {
            for i in 0..(n as usize) {
                push_job(&mut b, n, 10.0 + i as f64 * 10.0, 12.0 + i as f64 * 10.0);
            }
        }
        // Failures: node 0 gets 12, others n-1.
        let mut day = 1.0;
        for _ in 0..12 {
            b.push_failure(FailureRecord::new(
                SystemId::new(8),
                NodeId::new(0),
                Timestamp::from_days(day),
                RootCause::Software,
                SubCause::None,
            ));
            day += 7.0;
        }
        // Rest-of-system failures unrelated to usage (node n gets
        // 2, 1, 2, 1, 2 failures for n = 1..=5).
        for n in 1..6u32 {
            let count = if n % 2 == 1 { 2 } else { 1 };
            for i in 0..count {
                b.push_failure(FailureRecord::new(
                    SystemId::new(8),
                    NodeId::new(n),
                    Timestamp::from_days(20.0 + i as f64 * 11.0 + n as f64),
                    RootCause::Hardware,
                    SubCause::None,
                ));
            }
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn scatter_reflects_usage_and_failures() {
        let trace = build();
        let a = UsageAnalysis::over(&trace);
        let points = a.scatter(SystemId::new(8));
        assert_eq!(points.len(), 6);
        let p0 = &points[0];
        assert_eq!(p0.node, NodeId::new(0));
        assert_eq!(p0.failures, 12);
        assert_eq!(p0.num_jobs, 40);
        assert!(p0.utilization_pct > 50.0);
        assert!(points[1..].iter().all(|p| p.num_jobs < 6));
        assert!(points[1..].iter().all(|p| p.failures <= 2));
    }

    #[test]
    fn pearson_dominated_by_node0() {
        let trace = build();
        let a = UsageAnalysis::over(&trace);
        let r = a.jobs_failures_pearson(SystemId::new(8));
        assert!(r.all_nodes.unwrap() > 0.9, "all {:?}", r.all_nodes);
        // Without node 0 the correlation drops markedly.
        assert!(r.without_node0.unwrap() < r.all_nodes.unwrap());
    }

    #[test]
    fn util_correlation_also_positive() {
        let trace = build();
        let a = UsageAnalysis::over(&trace);
        let r = a.util_failures_pearson(SystemId::new(8));
        assert!(r.all_nodes.unwrap() > 0.5);
    }

    #[test]
    fn spearman_available() {
        let trace = build();
        let a = UsageAnalysis::over(&trace);
        let r = a.jobs_failures_spearman(SystemId::new(8));
        assert!(r.all_nodes.is_some());
    }

    #[test]
    fn system_without_jobs_yields_empty() {
        let trace = build();
        let a = UsageAnalysis::over(&trace);
        assert!(a.scatter(SystemId::new(99)).is_empty());
        let r = a.jobs_failures_pearson(SystemId::new(99));
        assert!(r.all_nodes.is_none());
    }
}
