//! Extension: what the correlations are worth for checkpoint
//! scheduling.
//!
//! The paper motivates its correlation analysis with "scheduling
//! application checkpoints". This module makes the payoff measurable:
//! it replays a trace's failure timeline under a checkpoint policy and
//! accounts for checkpoint overhead, lost work and restart time. Two
//! policies are provided — a uniform interval (the classic Daly/Young
//! regime) and an *adaptive* one that checkpoints more often while a
//! node is inside the paper's high-risk window after a failure.

use crate::predict::AlarmRule;
use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::{SystemTrace, Trace};
use hpcfail_types::prelude::*;

/// A checkpointing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// Checkpoint every `interval_hours`, always.
    Uniform {
        /// Checkpoint spacing in hours.
        interval_hours: f64,
    },
    /// Checkpoint every `base_hours` normally, but every `flagged_hours`
    /// while the node is inside the alarm window after a failure
    /// matching `rule`.
    Adaptive {
        /// Normal checkpoint spacing in hours.
        base_hours: f64,
        /// Spacing while flagged (should be smaller).
        flagged_hours: f64,
        /// What flags a node, and for how long.
        rule: AlarmRule,
    },
}

/// Cost model and outcome of replaying a policy over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointOutcome {
    /// Node-hours spent writing checkpoints.
    pub checkpoint_hours: f64,
    /// Node-hours of work lost to failures (work since last checkpoint).
    pub lost_hours: f64,
    /// Node-hours spent restarting after failures.
    pub restart_hours: f64,
    /// Total observed node-hours.
    pub total_hours: f64,
    /// Failures replayed.
    pub failures: u64,
}

impl CheckpointOutcome {
    /// Fraction of node-time spent on useful work:
    /// `1 - (checkpoint + lost + restart) / total`.
    pub fn goodput(&self) -> f64 {
        if self.total_hours <= 0.0 {
            return 0.0;
        }
        (1.0 - (self.checkpoint_hours + self.lost_hours + self.restart_hours) / self.total_hours)
            .clamp(0.0, 1.0)
    }

    fn merge(self, other: CheckpointOutcome) -> CheckpointOutcome {
        CheckpointOutcome {
            checkpoint_hours: self.checkpoint_hours + other.checkpoint_hours,
            lost_hours: self.lost_hours + other.lost_hours,
            restart_hours: self.restart_hours + other.restart_hours,
            total_hours: self.total_hours + other.total_hours,
            failures: self.failures + other.failures,
        }
    }

    fn zero() -> CheckpointOutcome {
        CheckpointOutcome {
            checkpoint_hours: 0.0,
            lost_hours: 0.0,
            restart_hours: 0.0,
            total_hours: 0.0,
            failures: 0,
        }
    }
}

/// The replay engine.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSimulator {
    /// Time to write one checkpoint, in hours.
    pub checkpoint_cost_hours: f64,
    /// Time to restart after a failure, in hours.
    pub restart_cost_hours: f64,
}

impl CheckpointSimulator {
    /// A simulator with typical HPC costs (6-minute checkpoints,
    /// 30-minute restarts).
    pub fn typical() -> Self {
        CheckpointSimulator {
            checkpoint_cost_hours: 0.1,
            restart_cost_hours: 0.5,
        }
    }

    /// Young/Daly first-order optimal uniform interval
    /// `sqrt(2 * checkpoint_cost * MTBF)`, in hours.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf_hours` is not positive.
    pub fn daly_interval(&self, mtbf_hours: f64) -> f64 {
        assert!(mtbf_hours > 0.0, "MTBF must be positive");
        (2.0 * self.checkpoint_cost_hours * mtbf_hours).sqrt()
    }

    /// Replays `policy` over every node of every system in `group`.
    pub fn replay_group(
        &self,
        trace: &Trace,
        group: SystemGroup,
        policy: CheckpointPolicy,
    ) -> CheckpointOutcome {
        trace
            .group_systems(group)
            .map(|s| self.replay_system(s, policy))
            .fold(CheckpointOutcome::zero(), CheckpointOutcome::merge)
    }

    /// Replays `policy` over one system.
    pub fn replay_system(
        &self,
        system: &SystemTrace,
        policy: CheckpointPolicy,
    ) -> CheckpointOutcome {
        let mut outcome = CheckpointOutcome::zero();
        let config = system.config();
        let span_hours = config.observation_span().as_seconds().max(0) as f64 / 3600.0;
        for node in system.nodes() {
            outcome = outcome.merge(self.replay_node(system, node, span_hours, policy));
        }
        outcome
    }

    fn replay_node(
        &self,
        system: &SystemTrace,
        node: NodeId,
        span_hours: f64,
        policy: CheckpointPolicy,
    ) -> CheckpointOutcome {
        let start = system.config().start;
        let cols = system.failure_columns();
        let hours = |t: Timestamp| (t - start).as_seconds() as f64 / 3600.0;
        let failure_hours: Vec<f64> = cols.node_events(node, ClassCode::Any).map(hours).collect();
        // Adaptive replays: the node's trigger-class failure hours, in
        // time order, and the alarm window in hours.
        let (trigger_hours, window_h) = match policy {
            CheckpointPolicy::Adaptive { rule, .. } => (
                cols.node_events(node, ClassCode::new(rule.trigger))
                    .map(hours)
                    .collect::<Vec<f64>>(),
                rule.window.duration().as_seconds() as f64 / 3600.0,
            ),
            CheckpointPolicy::Uniform { .. } => (Vec::new(), 0.0),
        };

        // Index of the first trigger at or after t, kept in step with t.
        // Checkpoints move t forward; a failure inside a checkpoint
        // write restarts from the failure, which can move t back.
        let mut next_trigger = 0;
        // Interval in effect at time t (hours since start).
        let mut interval_at = |t: f64| -> f64 {
            match policy {
                CheckpointPolicy::Uniform { interval_hours } => interval_hours,
                CheckpointPolicy::Adaptive {
                    base_hours,
                    flagged_hours,
                    ..
                } => {
                    // Flagged while some trigger failure fh has
                    // fh < t <= fh + window. `fh + window` grows with
                    // fh, so the latest trigger before t decides.
                    let i = &mut next_trigger;
                    while *i < trigger_hours.len() && trigger_hours[*i] < t {
                        *i += 1;
                    }
                    while *i > 0 && trigger_hours[*i - 1] >= t {
                        *i -= 1;
                    }
                    if *i > 0 && t <= trigger_hours[*i - 1] + window_h {
                        flagged_hours
                    } else {
                        base_hours
                    }
                }
            }
        };

        let mut outcome = CheckpointOutcome::zero();
        outcome.total_hours = span_hours;
        // Walk time forward checkpoint by checkpoint; on failure, lose
        // the work since the last checkpoint plus the restart cost.
        let mut t = 0.0;
        let mut last_checkpoint = 0.0;
        let mut failure_iter = failure_hours.iter().copied().peekable();
        while t < span_hours {
            let interval = interval_at(t).max(0.01);
            let next_checkpoint = t + interval;
            match failure_iter.peek().copied() {
                Some(fail_at) if fail_at <= next_checkpoint && fail_at < span_hours => {
                    // Failure before the next checkpoint completes.
                    failure_iter.next();
                    outcome.failures += 1;
                    outcome.lost_hours += (fail_at - last_checkpoint).max(0.0);
                    outcome.restart_hours += self.restart_cost_hours;
                    t = fail_at + self.restart_cost_hours;
                    last_checkpoint = t;
                }
                _ => {
                    if next_checkpoint >= span_hours {
                        break;
                    }
                    outcome.checkpoint_hours += self.checkpoint_cost_hours;
                    t = next_checkpoint + self.checkpoint_cost_hours;
                    last_checkpoint = t;
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn build(failure_days: &[(u32, f64)]) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(1),
            name: "t".into(),
            nodes: 2,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        for &(node, day) in failure_days {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_days(day),
                RootCause::Hardware,
                SubCause::None,
            ));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn failure_free_node_pays_only_checkpoints() {
        let trace = build(&[]);
        let sim = CheckpointSimulator::typical();
        let outcome = sim.replay_group(
            &trace,
            SystemGroup::Group1,
            CheckpointPolicy::Uniform {
                interval_hours: 24.0,
            },
        );
        assert_eq!(outcome.failures, 0);
        assert_eq!(outcome.lost_hours, 0.0);
        assert_eq!(outcome.restart_hours, 0.0);
        // ~100 checkpoints per node x 0.1h x 2 nodes, minus edge effects.
        assert!(outcome.checkpoint_hours > 15.0 && outcome.checkpoint_hours < 22.0);
        assert!(outcome.goodput() > 0.99);
    }

    #[test]
    fn lost_work_bounded_by_interval() {
        // One failure at day 10; with a 24h interval the loss is at
        // most 24h (+restart).
        let trace = build(&[(0, 10.2)]);
        let sim = CheckpointSimulator::typical();
        let outcome = sim.replay_group(
            &trace,
            SystemGroup::Group1,
            CheckpointPolicy::Uniform {
                interval_hours: 24.0,
            },
        );
        assert_eq!(outcome.failures, 1);
        assert!(
            outcome.lost_hours <= 24.0 + 1e-9,
            "lost {}",
            outcome.lost_hours
        );
        assert!(outcome.lost_hours > 0.0);
        assert!((outcome.restart_hours - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shorter_interval_loses_less_but_checkpoints_more() {
        let failures: Vec<(u32, f64)> = (1..20).map(|i| (0u32, i as f64 * 5.0)).collect();
        let trace = build(&failures);
        let sim = CheckpointSimulator::typical();
        let coarse = sim.replay_group(
            &trace,
            SystemGroup::Group1,
            CheckpointPolicy::Uniform {
                interval_hours: 48.0,
            },
        );
        let fine = sim.replay_group(
            &trace,
            SystemGroup::Group1,
            CheckpointPolicy::Uniform {
                interval_hours: 6.0,
            },
        );
        assert!(fine.lost_hours < coarse.lost_hours);
        assert!(fine.checkpoint_hours > coarse.checkpoint_hours);
    }

    #[test]
    fn adaptive_beats_uniform_on_clustered_failures() {
        // Bursts: failures arrive in tight pairs, so the window after a
        // failure is exactly when cheap checkpoints pay off.
        let mut failures = Vec::new();
        for k in 0..12 {
            let day = 3.0 + k as f64 * 8.0;
            failures.push((0u32, day));
            failures.push((0u32, day + 0.5));
            failures.push((0u32, day + 1.0));
        }
        let trace = build(&failures);
        let sim = CheckpointSimulator::typical();
        let uniform = sim.replay_group(
            &trace,
            SystemGroup::Group1,
            CheckpointPolicy::Uniform {
                interval_hours: 24.0,
            },
        );
        let adaptive = sim.replay_group(
            &trace,
            SystemGroup::Group1,
            CheckpointPolicy::Adaptive {
                base_hours: 24.0,
                flagged_hours: 2.0,
                rule: AlarmRule {
                    trigger: FailureClass::Any,
                    window: Window::Day,
                },
            },
        );
        assert!(
            adaptive.goodput() > uniform.goodput(),
            "adaptive {} <= uniform {}",
            adaptive.goodput(),
            uniform.goodput()
        );
        assert!(adaptive.lost_hours < uniform.lost_hours);
    }

    #[test]
    fn daly_interval_formula() {
        let sim = CheckpointSimulator::typical();
        // sqrt(2 * 0.1 * 1000) = sqrt(200) ~ 14.14.
        assert!((sim.daly_interval(1000.0) - 200f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn daly_rejects_nonpositive_mtbf() {
        let _ = CheckpointSimulator::typical().daly_interval(0.0);
    }
}
