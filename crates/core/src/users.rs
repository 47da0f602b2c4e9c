//! Section VI: are some users more prone to node failures than others?
//!
//! A user "experiences" a node failure when one of their running jobs
//! sits on a node that fails (application-software failures are not in
//! the failure log, so the attribution only covers node outages, as in
//! the paper). The analysis normalizes per-user failure counts by the
//! processor-days the user consumed, then tests heterogeneity with the
//! paper's saturated-vs-common-rate Poisson ANOVA.

use hpcfail_stats::htest::{anova_lrt, poisson_common_rate_ll, poisson_saturated_ll, TestResult};
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;

pub use hpcfail_store::features::UserStat;

/// The Section VI per-user analysis.
#[derive(Debug, Clone, Copy)]
pub struct UserAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> UserAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::users`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        UserAnalysis { trace }
    }

    /// Per-user statistics for one system, in user-id order (empty
    /// without a job log). Served from the system's index, so only the
    /// first call per trace scans the job log.
    pub fn user_stats(&self, system: SystemId) -> Vec<UserStat> {
        self.trace
            .system(system)
            .map_or_else(Vec::new, |s| s.indexed_users().to_vec())
    }

    /// The `k` heaviest users by processor-days, heaviest first — the
    /// paper's "50 heaviest users".
    pub fn heaviest_users(&self, system: SystemId, k: usize) -> Vec<UserStat> {
        let mut stats = self.user_stats(system);
        stats.sort_by(|a, b| b.processor_days.total_cmp(&a.processor_days));
        stats.truncate(k);
        stats
    }

    /// The paper's heterogeneity test: a saturated Poisson model (one
    /// rate per user) against a common-rate model, compared by ANOVA
    /// (likelihood-ratio chi-square).
    ///
    /// Returns `None` for fewer than two users with positive exposure.
    pub fn heterogeneity_test(&self, stats: &[UserStat]) -> Option<TestResult> {
        let filtered: Vec<&UserStat> = stats.iter().filter(|s| s.processor_days > 0.0).collect();
        if filtered.len() < 2 {
            return None;
        }
        let counts: Vec<f64> = filtered.iter().map(|s| s.node_failures as f64).collect();
        let exposure: Vec<f64> = filtered.iter().map(|s| s.processor_days).collect();
        let full = poisson_saturated_ll(&counts, &exposure);
        let reduced = poisson_common_rate_ll(&counts, &exposure);
        Some(anova_lrt(full, filtered.len(), reduced, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;
    use std::collections::BTreeMap;

    fn config() -> SystemConfig {
        SystemConfig {
            id: SystemId::new(8),
            name: "t".into(),
            nodes: 4,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: false,
            has_job_log: true,
            has_temperature: false,
        }
    }

    fn job(id: u64, user: u32, node: u32, start: f64, end: f64) -> JobRecord {
        JobRecord {
            system: SystemId::new(8),
            job_id: JobId::new(id),
            user: UserId::new(user),
            submit: Timestamp::from_days(start - 0.01),
            dispatch: Timestamp::from_days(start),
            end: Timestamp::from_days(end),
            procs: 4,
            nodes: vec![NodeId::new(node)],
        }
    }

    fn failure(node: u32, day: f64) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(8),
            NodeId::new(node),
            Timestamp::from_days(day),
            RootCause::Hardware,
            SubCause::None,
        )
    }

    #[test]
    fn attribution_matches_running_jobs() {
        let mut b = SystemTraceBuilder::new(config());
        b.push_job(job(1, 1, 0, 10.0, 20.0)); // user 1 on node 0
        b.push_job(job(2, 2, 0, 14.0, 16.0)); // user 2 overlaps failure
        b.push_job(job(3, 3, 1, 10.0, 20.0)); // user 3 on another node
        b.push_failure(failure(0, 15.0)); // hits users 1 and 2
        b.push_failure(failure(0, 50.0)); // hits nobody (no job running)
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let stats = UserAnalysis::over(&trace).user_stats(SystemId::new(8));
        let by_user: BTreeMap<u32, &UserStat> = stats.iter().map(|s| (s.user.raw(), s)).collect();
        assert_eq!(by_user[&1].node_failures, 1);
        assert_eq!(by_user[&2].node_failures, 1);
        assert_eq!(by_user[&3].node_failures, 0);
    }

    #[test]
    fn processor_days_accumulate() {
        let mut b = SystemTraceBuilder::new(config());
        b.push_job(job(1, 1, 0, 0.0, 10.0)); // 4 procs x 10 days
        b.push_job(job(2, 1, 1, 0.0, 5.0)); // 4 procs x 5 days
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let stats = UserAnalysis::over(&trace).user_stats(SystemId::new(8));
        assert_eq!(stats.len(), 1);
        assert!((stats[0].processor_days - 60.0).abs() < 1e-6);
        assert_eq!(stats[0].jobs, 2);
    }

    #[test]
    fn heaviest_users_ordering() {
        let mut b = SystemTraceBuilder::new(config());
        b.push_job(job(1, 1, 0, 0.0, 1.0));
        b.push_job(job(2, 2, 0, 2.0, 22.0));
        b.push_job(job(3, 3, 0, 30.0, 35.0));
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let top = UserAnalysis::over(&trace).heaviest_users(SystemId::new(8), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].user, UserId::new(2));
        assert_eq!(top[1].user, UserId::new(3));
    }

    #[test]
    fn heterogeneity_detected_for_unequal_rates() {
        let stats: Vec<UserStat> = (0..20)
            .map(|i| UserStat {
                user: UserId::new(i),
                processor_days: 1000.0,
                jobs: 10,
                node_failures: if i < 3 { 60 } else { 2 },
            })
            .collect();
        let trace = Trace::new();
        let t = UserAnalysis::over(&trace)
            .heterogeneity_test(&stats)
            .unwrap();
        assert!(t.significant_at(0.01));
    }

    #[test]
    fn homogeneous_rates_not_flagged() {
        let stats: Vec<UserStat> = (0..20)
            .map(|i| UserStat {
                user: UserId::new(i),
                processor_days: 1000.0,
                jobs: 10,
                node_failures: 5,
            })
            .collect();
        let trace = Trace::new();
        let t = UserAnalysis::over(&trace)
            .heterogeneity_test(&stats)
            .unwrap();
        assert!(!t.significant_at(0.05));
    }

    #[test]
    fn failures_per_processor_day() {
        let s = UserStat {
            user: UserId::new(1),
            processor_days: 200.0,
            jobs: 5,
            node_failures: 4,
        };
        assert!((s.failures_per_processor_day() - 0.02).abs() < 1e-12);
        let zero = UserStat {
            processor_days: 0.0,
            ..s
        };
        assert_eq!(zero.failures_per_processor_day(), 0.0);
    }
}
