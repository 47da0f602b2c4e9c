//! Extension: turning the correlations into a failure predictor.
//!
//! The paper motivates its correlation findings with proactive uses —
//! checkpoint scheduling and job migration. This module makes that
//! concrete with the simplest possible alarm rule: *after a failure of
//! class X on a node, flag that node for the next day/week/month*.
//! Evaluation reports precision (how often a flagged window really
//! contains a failure), recall (how many failures fall inside flagged
//! windows) and the cost (fraction of node-time flagged).

use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::{SystemTrace, Trace};
use hpcfail_types::prelude::*;

/// The alarm rule: flag a node for `window` after a `trigger` failure.
///
/// # Examples
///
/// ```
/// use hpcfail_core::predict::AlarmRule;
/// use hpcfail_synth::prelude::*;
/// use hpcfail_types::prelude::*;
///
/// let store = FleetSpec::demo().generate(1).into_store();
/// let rule = AlarmRule { trigger: FailureClass::Any, window: Window::Week };
/// let eval = rule.evaluate_group(&store, SystemGroup::Group1);
/// // Flagged windows catch failures far out of proportion to the
/// // node-time they cover.
/// assert!(eval.recall() > eval.flagged_fraction());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlarmRule {
    /// The failure class that raises the alarm.
    pub trigger: FailureClass,
    /// How long the node stays flagged.
    pub window: Window,
}

/// Evaluation of an [`AlarmRule`] on a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlarmEvaluation {
    /// Alarms raised (trigger failures with an observed window).
    pub alarms: u64,
    /// Alarms whose window contained at least one further failure.
    pub correct_alarms: u64,
    /// Failures that fell inside at least one flagged window.
    pub caught_failures: u64,
    /// All failures that *could* be caught (any failure preceded by
    /// enough observation time for a trigger to exist).
    pub total_failures: u64,
    /// Node-seconds flagged.
    pub flagged_seconds: u64,
    /// Total observed node-seconds.
    pub total_seconds: u64,
}

impl AlarmEvaluation {
    /// Fraction of alarms that predicted a real failure.
    pub fn precision(&self) -> f64 {
        if self.alarms == 0 {
            0.0
        } else {
            self.correct_alarms as f64 / self.alarms as f64
        }
    }

    /// Fraction of failures caught inside a flagged window.
    pub fn recall(&self) -> f64 {
        if self.total_failures == 0 {
            0.0
        } else {
            self.caught_failures as f64 / self.total_failures as f64
        }
    }

    /// Fraction of node-time spent flagged — the cost of acting on the
    /// alarms (e.g. extra checkpoints).
    pub fn flagged_fraction(&self) -> f64 {
        if self.total_seconds == 0 {
            0.0
        } else {
            self.flagged_seconds as f64 / self.total_seconds as f64
        }
    }

    fn merge(self, other: AlarmEvaluation) -> AlarmEvaluation {
        AlarmEvaluation {
            alarms: self.alarms + other.alarms,
            correct_alarms: self.correct_alarms + other.correct_alarms,
            caught_failures: self.caught_failures + other.caught_failures,
            total_failures: self.total_failures + other.total_failures,
            flagged_seconds: self.flagged_seconds + other.flagged_seconds,
            total_seconds: self.total_seconds + other.total_seconds,
        }
    }

    fn empty() -> AlarmEvaluation {
        AlarmEvaluation {
            alarms: 0,
            correct_alarms: 0,
            caught_failures: 0,
            total_failures: 0,
            flagged_seconds: 0,
            total_seconds: 0,
        }
    }
}

impl AlarmRule {
    /// Evaluates the rule over every system of a group.
    pub fn evaluate_group(&self, trace: &Trace, group: SystemGroup) -> AlarmEvaluation {
        trace
            .group_systems(group)
            .map(|s| self.evaluate_system(s))
            .fold(AlarmEvaluation::empty(), AlarmEvaluation::merge)
    }

    /// Evaluates the rule over one system.
    pub fn evaluate_system(&self, system: &SystemTrace) -> AlarmEvaluation {
        let mut eval = AlarmEvaluation::empty();
        let w = self.window.duration();
        let code = ClassCode::new(self.trigger);
        let cols = system.failure_columns();
        let times = cols.times();
        let config = system.config();
        eval.total_seconds =
            config.nodes as u64 * config.observation_span().as_seconds().max(0) as u64;

        for node in system.nodes() {
            // A node with no failures raises no alarms, flags no time,
            // and contributes nothing to recall. On LANL-shaped traces
            // most nodes are quiet most of the observation span.
            let failures = cols.node_postings(node);
            if failures.is_empty() {
                continue;
            }
            let triggers: Vec<Timestamp> = cols.node_events(node, code).collect();
            // Flagged intervals from triggers (merged union for cost).
            let mut intervals: Vec<(i64, i64)> = Vec::new();
            for &t in &triggers {
                if system.window_observed(t, self.window) {
                    eval.alarms += 1;
                    let (after, until) = (t.as_seconds(), (t + w).as_seconds());
                    // The node's first failure after the trigger decides.
                    let next = failures.partition_point(|&i| times[i as usize] <= after);
                    let hit = failures
                        .get(next)
                        .is_some_and(|&i| times[i as usize] <= until);
                    eval.correct_alarms += u64::from(hit);
                    intervals.push((after, until));
                }
            }
            intervals.sort_unstable();
            let mut covered = 0i64;
            let mut current: Option<(i64, i64)> = None;
            for (lo, hi) in intervals {
                match current {
                    Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        current = Some((lo, hi));
                    }
                    None => current = Some((lo, hi)),
                }
            }
            if let Some((clo, chi)) = current {
                covered += chi - clo;
            }
            eval.flagged_seconds += covered.max(0) as u64;

            // Recall: failures preceded by a trigger in [t - w, t).
            for &i in failures {
                let t = Timestamp::from_seconds(times[i as usize]);
                eval.total_failures += 1;
                let first = triggers.partition_point(|&g| g < t - w);
                if triggers.get(first).is_some_and(|&g| g < t) {
                    eval.caught_failures += 1;
                }
            }
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn build(failures: &[(u32, f64, RootCause)]) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(1),
            name: "t".into(),
            nodes: 3,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        for &(node, day, root) in failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_days(day),
                root,
                SubCause::None,
            ));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn precision_and_recall_by_hand() {
        // Node 0: net failure day 10, any failure day 12 (caught),
        // isolated hw failure day 50 (not caught, alarm misses).
        let trace = build(&[
            (0, 10.0, RootCause::Network),
            (0, 12.0, RootCause::Hardware),
            (0, 50.0, RootCause::Network),
        ]);
        let rule = AlarmRule {
            trigger: FailureClass::Root(RootCause::Network),
            window: Window::Week,
        };
        let eval = rule.evaluate_group(&trace, SystemGroup::Group1);
        assert_eq!(eval.alarms, 2);
        assert_eq!(eval.correct_alarms, 1);
        assert!((eval.precision() - 0.5).abs() < 1e-12);
        // 3 failures total; only the day-12 one follows a net trigger.
        assert_eq!(eval.total_failures, 3);
        assert_eq!(eval.caught_failures, 1);
        assert!((eval.recall() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flagged_fraction_unions_overlaps() {
        // Two overlapping week-windows on node 0: days 10-17 and 12-19,
        // union 9 days of 300 node-days.
        let trace = build(&[(0, 10.0, RootCause::Network), (0, 12.0, RootCause::Network)]);
        let rule = AlarmRule {
            trigger: FailureClass::Root(RootCause::Network),
            window: Window::Week,
        };
        let eval = rule.evaluate_group(&trace, SystemGroup::Group1);
        assert!((eval.flagged_fraction() - 9.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn any_trigger_catches_followups() {
        let trace = build(&[
            (1, 20.0, RootCause::Hardware),
            (1, 21.0, RootCause::Software),
            (1, 22.0, RootCause::Software),
        ]);
        let rule = AlarmRule {
            trigger: FailureClass::Any,
            window: Window::Day,
        };
        let eval = rule.evaluate_group(&trace, SystemGroup::Group1);
        assert_eq!(eval.alarms, 3);
        assert_eq!(eval.correct_alarms, 2);
        assert_eq!(eval.caught_failures, 2); // failures 2 and 3
    }

    #[test]
    fn no_triggers_gives_zero_rates() {
        let trace = build(&[(0, 10.0, RootCause::Hardware)]);
        let rule = AlarmRule {
            trigger: FailureClass::Root(RootCause::Network),
            window: Window::Week,
        };
        let eval = rule.evaluate_group(&trace, SystemGroup::Group1);
        assert_eq!(eval.alarms, 0);
        assert_eq!(eval.precision(), 0.0);
        assert_eq!(eval.recall(), 0.0);
        assert_eq!(eval.flagged_fraction(), 0.0);
    }
}
