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
        let mut schedule = Schedule {
            policy,
            triggers: &trigger_hours,
            window_h,
            next: 0,
        };
        if self.runs_are_long(&schedule, span_hours, failure_hours.len()) {
            self.walk::<true>(&failure_hours, span_hours, &mut schedule)
        } else {
            self.walk::<false>(&failure_hours, span_hours, &mut schedule)
        }
    }

    /// Whether a node's checkpoint runs are long enough for the skip
    /// loop to pay: the estimated steps per run against
    /// [`SKIP_MIN_RUN_STEPS`]. A run ends at a failure, at an edge of
    /// an alarm window, at the span end, and at each of the about
    /// `log2(steps)` binades the walk crosses. Negative costs always
    /// take the per-step loop: the skip's argument needs time to move
    /// forward.
    fn runs_are_long(&self, schedule: &Schedule<'_>, span_hours: f64, failures: usize) -> bool {
        if !(self.checkpoint_cost_hours >= 0.0 && self.restart_cost_hours >= 0.0) {
            return false;
        }
        let step = |interval: f64| interval.max(MIN_INTERVAL_HOURS) + self.checkpoint_cost_hours;
        let (steps, runs) = match schedule.policy {
            CheckpointPolicy::Uniform { interval_hours } => {
                (span_hours / step(interval_hours), failures + 1)
            }
            CheckpointPolicy::Adaptive {
                base_hours,
                flagged_hours,
                ..
            } => {
                let triggers = schedule.triggers.len();
                let flagged_span = (triggers as f64 * schedule.window_h).min(span_hours);
                (
                    flagged_span / step(flagged_hours)
                        + (span_hours - flagged_span) / step(base_hours),
                    failures + triggers + 1,
                )
            }
        };
        let binades = (steps.max(2.0) as u64).ilog2();
        let runs = (runs as u64 + u64::from(binades)) as f64;
        steps >= SKIP_MIN_RUN_STEPS * runs
    }

    /// Walks one node's time forward checkpoint by checkpoint; on
    /// failure, loses the work since the last checkpoint plus the
    /// restart cost. With `SKIP`, each checkpoint step is followed by
    /// [`closed_form_steps`] more taken at once, which lands on the bits
    /// the per-step walk would reach.
    fn walk<const SKIP: bool>(
        &self,
        failure_hours: &[f64],
        span_hours: f64,
        schedule: &mut Schedule<'_>,
    ) -> CheckpointOutcome {
        let mut outcome = CheckpointOutcome::zero();
        outcome.total_hours = span_hours;
        let mut t = 0.0;
        let mut last_checkpoint = 0.0;
        let mut failure_iter = failure_hours.iter().copied().peekable();
        while t < span_hours {
            let interval = schedule.interval_at(t).max(MIN_INTERVAL_HOURS);
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
                    let (t0, checkpoint0) = (t, outcome.checkpoint_hours);
                    outcome.checkpoint_hours += self.checkpoint_cost_hours;
                    t = next_checkpoint + self.checkpoint_cost_hours;
                    if SKIP {
                        // The run of steps with this interval ends before
                        // the next failure, the span end and the time
                        // the interval may change.
                        let limit = failure_iter
                            .peek()
                            .map_or(span_hours, |&f| f.min(span_hours))
                            .min(schedule.holds_until(t0));
                        let step = [t0, t, checkpoint0, outcome.checkpoint_hours];
                        if let Some((t_k, checkpoint_k)) =
                            closed_form_steps(step, interval, self.checkpoint_cost_hours, limit)
                        {
                            t = t_k;
                            outcome.checkpoint_hours = checkpoint_k;
                        }
                    }
                    last_checkpoint = t;
                }
            }
        }
        outcome
    }
}

/// The smallest checkpoint interval a replay uses, in hours: shorter
/// intervals a policy names are replayed at this one, and request
/// parsing refuses them.
pub const MIN_INTERVAL_HOURS: f64 = 0.01;

/// Mean checkpoint steps per run from which a node takes the skip
/// loop. Below it, the skip attempts that fail cost more than the
/// skips save; DESIGN §5.1b has the measurement.
const SKIP_MIN_RUN_STEPS: f64 = 24.0;

/// The interval a policy sets over one node's replay.
struct Schedule<'a> {
    policy: CheckpointPolicy,
    /// The node's trigger-class failure hours, in time order (adaptive
    /// policies only).
    triggers: &'a [f64],
    /// The alarm window in hours (adaptive policies only).
    window_h: f64,
    /// Index of the first trigger at or after the last `t` asked about.
    /// Checkpoints move t forward; a failure inside a checkpoint write
    /// restarts from the failure, which can move t back.
    next: usize,
}

impl Schedule<'_> {
    /// Interval in effect at time t (hours since start).
    fn interval_at(&mut self, t: f64) -> f64 {
        match self.policy {
            CheckpointPolicy::Uniform { interval_hours } => interval_hours,
            CheckpointPolicy::Adaptive {
                base_hours,
                flagged_hours,
                ..
            } => {
                // Flagged while some trigger failure fh has
                // fh < t <= fh + window. `fh + window` grows with fh,
                // so the latest trigger before t decides.
                let (triggers, i) = (self.triggers, &mut self.next);
                while *i < triggers.len() && triggers[*i] < t {
                    *i += 1;
                }
                while *i > 0 && triggers[*i - 1] >= t {
                    *i -= 1;
                }
                if *i > 0 && t <= triggers[*i - 1] + self.window_h {
                    flagged_hours
                } else {
                    base_hours
                }
            }
        }
    }

    /// The latest time through which the interval that
    /// [`Schedule::interval_at`] gave at `t` stays in effect: the end of
    /// the alarm window while flagged, else the next trigger. A new
    /// trigger inside a window only extends it, and every trigger is a
    /// failure, which ends a run anyway.
    fn holds_until(&self, t: f64) -> f64 {
        match self.policy {
            CheckpointPolicy::Uniform { .. } => f64::INFINITY,
            CheckpointPolicy::Adaptive { .. } => {
                let i = self.next;
                if i > 0 && t <= self.triggers[i - 1] + self.window_h {
                    self.triggers[i - 1] + self.window_h
                } else {
                    self.triggers.get(i).copied().unwrap_or(f64::INFINITY)
                }
            }
        }
    }
}

/// The biased exponent of `x`, which names its binade `[2^e, 2^(e+1))`,
/// and its significand with the hidden bit, which counts the binade's
/// ulps in `x`: a normal `x` is `[2^52, 2^53)` of them. A set sign bit
/// makes the exponent read as too large for a normal number.
fn split(x: f64) -> (u64, u64) {
    let bits = x.to_bits();
    (bits >> 52, bits & ((1 << 52) - 1) | 1 << 52)
}

/// Whether adding `x >= 0` to a multiple of the ulp of the normal binade
/// with biased exponent `exp` lands exactly between two multiples of it,
/// where round-half-even looks at the other term: when the lowest set
/// bit of `x` is worth half that ulp.
fn rounds_a_tie(x: f64, exp: u64) -> bool {
    let bits = x.to_bits();
    let (x_exp, mantissa) = (bits >> 52, bits & ((1 << 52) - 1));
    let lowest_bit = match x_exp {
        0 if mantissa == 0 => return false,
        0 => 1 + u64::from(mantissa.trailing_zeros()),
        _ => x_exp + u64::from((mantissa | 1 << 52).trailing_zeros()),
    };
    lowest_bit + 1 == exp
}

/// Runs more checkpoint steps after the step `[t0, t1, checkpoint0,
/// checkpoint1]` in closed form, and returns the `(t, checkpoint_hours)`
/// the per-step loop would reach, or `None` when it cannot prove so.
///
/// Each step computes `nc = t + interval; t = nc + cost;
/// checkpoint_hours += cost`. While `t`, `nc` and `checkpoint_hours`
/// each stay inside the binade they start in and no addition rounds a
/// tie, each addition adds the same multiple of that binade's ulp
/// whatever the running value: `t` moves by `t1 - t0` and
/// `checkpoint_hours` by `checkpoint1 - checkpoint0` per step, and `k`
/// steps add exactly `k` times that. The steps taken start below
/// `limit`'s run end, so each is a checkpoint step at the same
/// interval; the last one ends strictly before `limit` and the binade
/// ends, and the per-step loop crosses them.
fn closed_form_steps(
    [t0, t1, checkpoint0, checkpoint1]: [f64; 4],
    interval: f64,
    cost: f64,
    limit: f64,
) -> Option<(f64, f64)> {
    let (stride, c_stride) = (t1 - t0, checkpoint1 - checkpoint0);
    if !(stride > 0.0 && c_stride >= 0.0 && t1 + 2.0 * stride < limit) {
        return None;
    }
    let ((t_exp, t0_ulps), (t1_exp, t1_ulps)) = (split(t0), split(t1));
    let ((c_exp, c0_ulps), (c1_exp, c1_ulps)) = (split(checkpoint0), split(checkpoint1));
    let normal = 1..0x7ff;
    if t1_exp != t_exp
        || c1_exp != c_exp
        || !normal.contains(&t_exp)
        || !normal.contains(&c_exp)
        || rounds_a_tie(interval, t_exp)
        || rounds_a_tie(cost, t_exp)
        || rounds_a_tie(cost, c_exp)
    {
        return None;
    }
    // Counted in ulps, a binade is [2^52, 2^53): bounding `k` there
    // keeps every `t1 + k * stride` exact. The quotients are estimates
    // (a float quotient can round up, and a saturating cast takes a
    // negative one to 0); the loop makes every bound hold exactly.
    const BINADE_END: u64 = 1 << 53;
    let (t_step, c_step) = (t1_ulps - t0_ulps, c1_ulps - c0_ulps);
    let room = |ulps: u64, step: u64| (BINADE_END - 1 - ulps) as f64 / step as f64;
    let mut k = room(t1_ulps, t_step)
        .min(room(c1_ulps, c_step))
        .min((limit - t1) / stride) as u64;
    while k > 0
        && (t1_ulps + k * t_step >= BINADE_END
            || c1_ulps + k * c_step >= BINADE_END
            || t1 + k as f64 * stride >= limit)
    {
        k -= 1;
    }
    (k > 0).then_some((t1 + k as f64 * stride, checkpoint1 + k as f64 * c_stride))
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
    fn tie_test_agrees_with_the_remainder() {
        let xs = [
            0.1,
            0.5,
            1.0,
            1.0 + 2f64.powi(-40),
            3.0,
            0.3,
            1e-300,
            5e-324,
            0.0,
        ];
        for &x in &xs {
            for t in [0.3, 1.0, 1.5, 4096.0, 16384.5, 1e15, 1e-290] {
                let (exp, ulps) = split(t);
                let ulp = t / ulps as f64;
                assert_eq!(ulp, f64::from_bits((exp - 52) << 52), "{t}");
                assert_eq!(
                    rounds_a_tie(x, exp),
                    x % ulp == ulp * 0.5,
                    "{x} in {t}'s binade"
                );
            }
        }
        // 1 + 2^-40 is worth a tie in [2^13, 2^14), and only there.
        let x = 1.0 + 2f64.powi(-40);
        assert!(rounds_a_tie(x, split(8192.0).0));
        assert!(!rounds_a_tie(x, split(16384.0).0));
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
