//! Property-based tests for the analysis engine: the conditional
//! estimator against a brute-force oracle on random traces, estimate
//! algebra, alarm-rule invariants, and the checkpoint replay against
//! its per-step scan.

use hpcfail_core::checkpoint::{
    CheckpointOutcome, CheckpointPolicy, CheckpointSimulator, MIN_INTERVAL_HOURS,
};
use hpcfail_core::correlation::Scope;
use hpcfail_core::engine::Engine;
use hpcfail_core::predict::AlarmRule;
use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::{SystemTrace, SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use proptest::prelude::*;

const NODES: u32 = 4;
const DAYS: f64 = 120.0;

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

fn build_trace(failures: &[(u32, i64, u8)]) -> Trace {
    let config = SystemConfig {
        id: SystemId::new(1),
        name: "prop".into(),
        nodes: NODES,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_days(DAYS),
        has_layout: false,
        has_job_log: false,
        has_temperature: false,
    };
    let mut b = SystemTraceBuilder::new(config);
    for &(node, sec, root) in failures {
        b.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node % NODES),
            Timestamp::from_seconds(sec),
            root_cause(root),
            SubCause::None,
        ));
    }
    let mut trace = Trace::new();
    trace.insert_system(b.build());
    trace
}

/// Brute-force same-node conditional: for each trigger with an observed
/// window, does the same node have a later failure of the target class
/// inside `(t, t+w]`?
fn oracle_same_node(
    failures: &[(u32, i64, u8)],
    trigger: RootCause,
    window_secs: i64,
) -> (u64, u64) {
    let end = (DAYS * 86_400.0) as i64;
    let mut hits = 0;
    let mut total = 0;
    for &(node, t, root) in failures {
        if root_cause(root) != trigger || t + window_secs > end || t < 0 {
            continue;
        }
        total += 1;
        let hit = failures
            .iter()
            .any(|&(n2, t2, _)| n2 % NODES == node % NODES && t2 > t && t2 <= t + window_secs);
        if hit {
            hits += 1;
        }
    }
    (hits, total)
}

fn arb_failures() -> impl Strategy<Value = Vec<(u32, i64, u8)>> {
    prop::collection::vec((0u32..NODES, 0i64..(DAYS as i64) * 86_400, 0u8..6), 0..60)
}

/// Like [`build_trace`] but with a two-nodes-per-rack layout, so the
/// SameRack scope is exercisable, and with sub-causes (picked by the
/// failure's second), so sub-cause classes match some failures.
fn build_trace_with_racks(failures: &[(u32, i64, u8)]) -> Trace {
    let config = SystemConfig {
        id: SystemId::new(1),
        name: "prop".into(),
        nodes: NODES,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_days(DAYS),
        has_layout: true,
        has_job_log: false,
        has_temperature: false,
    };
    let mut b = SystemTraceBuilder::new(config);
    for &(node, sec, root) in failures {
        let root = root_cause(root);
        b.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node % NODES),
            Timestamp::from_seconds(sec),
            root,
            sub_cause(root, (sec % 3) as u8),
        ));
    }
    let layout: MachineLayout = (0..NODES)
        .map(|n| {
            (
                NodeId::new(n),
                NodeLocation {
                    rack: RackId::new((n / 2) as u16),
                    position_in_rack: (n % 2 + 1) as u8,
                    room_row: 0,
                    room_col: (n / 2) as u16,
                },
            )
        })
        .collect();
    b.layout(layout);
    let mut trace = Trace::new();
    trace.insert_system(b.build());
    trace
}

/// Brute-force conditional for any trigger and target class and any
/// scope, over a system's decoded rows: for each trigger whose window
/// lies inside the observation span, one scan of all rows per examined
/// node. Rack peers come from comparing every node's rack. `None` for
/// same-rack on a system without a layout.
fn oracle_scoped(
    system: &SystemTrace,
    trigger: FailureClass,
    target: FailureClass,
    window: Window,
    scope: Scope,
) -> Option<(u64, u64)> {
    let config = system.config();
    let layout = system.layout();
    if scope == Scope::SameRack && layout.is_none() {
        return None;
    }
    let rack_of = |n: NodeId| layout.and_then(|l| l.rack_of(n));
    let rows: Vec<FailureRecord> = system.failures().collect();
    let w = window.seconds();
    let target_hit = |n: NodeId, t: i64| {
        rows.iter().any(|r| {
            let t2 = r.time.as_seconds();
            r.node == n && target.matches(r) && t2 > t && t2 <= t + w
        })
    };
    let mut hits = 0;
    let mut total = 0;
    for r in rows.iter().filter(|r| trigger.matches(r)) {
        let t = r.time.as_seconds();
        if t < config.start.as_seconds() || t + w > config.end.as_seconds() {
            continue;
        }
        let peers: Vec<NodeId> = (0..config.nodes)
            .map(NodeId::new)
            .filter(|&n| match scope {
                Scope::SameNode => n == r.node,
                Scope::SameRack => {
                    n != r.node && rack_of(n).is_some() && rack_of(n) == rack_of(r.node)
                }
                Scope::SameSystem => n != r.node,
            })
            .collect();
        for peer in peers {
            total += 1;
            if target_hit(peer, t) {
                hits += 1;
            }
        }
    }
    Some((hits, total))
}

/// A class drawn from `i`: any failure, one of the six root causes, or
/// one of the six sub-causes [`sub_cause`] gives.
fn class_of(i: u8) -> FailureClass {
    match i % 13 {
        0 => FailureClass::Any,
        i @ 1..=6 => FailureClass::Root(root_cause(i - 1)),
        7 => FailureClass::Hw(HardwareComponent::Cpu),
        8 => FailureClass::Hw(HardwareComponent::MemoryDimm),
        9 => FailureClass::Sw(SoftwareCause::Os),
        10 => FailureClass::Sw(SoftwareCause::Pfs),
        11 => FailureClass::Env(EnvironmentCause::PowerOutage),
        _ => FailureClass::Env(EnvironmentCause::Ups),
    }
}

proptest! {
    /// Figure 6's node-versus-rest split against the direct scans, for
    /// nodes inside the system and two outside it: an outside node has
    /// no windows with failures, and its "rest" is the whole system.
    #[test]
    fn node_vs_rest_matches_direct_scan(
        failures in arb_failures(),
        node in 0u32..NODES + 2,
        target in 0u8..7,
    ) {
        let engine = Engine::new(build_trace(&failures));
        let system = engine.trace().system(SystemId::new(1)).expect("system 1");
        let direct = hpcfail_store::query::BaselineEstimator::new(system);
        let class = match target {
            6 => FailureClass::Any,
            r => FailureClass::Root(root_cause(r)),
        };
        let node = NodeId::new(node);
        let rest: Vec<NodeId> = system.nodes().filter(|&n| n != node).collect();
        for window in Window::ALL {
            let split = engine.nodes().node_vs_rest(SystemId::new(1), node, class, window);
            let own = direct.node_failure_probability(node, class, window);
            let others = direct.subset_failure_probability(&rest, class, window);
            prop_assert_eq!((split.node.successes(), split.node.trials()), (own.hits, own.total));
            prop_assert_eq!(
                (split.rest.successes(), split.rest.trials()),
                (others.hits, others.total)
            );
            if node.raw() >= NODES {
                prop_assert_eq!(own.hits, 0);
                let full = direct.failure_probability(class, window);
                prop_assert_eq!((others.hits, others.total), (full.hits, full.total));
            }
        }
    }

    #[test]
    fn conditional_matches_oracle(failures in arb_failures(), trigger in 0u8..6) {
        let engine = Engine::new(build_trace(&failures));
        let analysis = engine.correlation();
        for window in [Window::Day, Window::Week] {
            let e = analysis.system_conditional(
                SystemId::new(1),
                FailureClass::Root(root_cause(trigger)),
                FailureClass::Any,
                window,
                Scope::SameNode,
            );
            let (hits, total) = oracle_same_node(&failures, root_cause(trigger), window.seconds());
            prop_assert_eq!(e.conditional.successes(), hits, "window {}", window);
            prop_assert_eq!(e.conditional.trials(), total, "window {}", window);
        }
    }

    #[test]
    fn conditional_matches_oracle_across_scopes(
        failures in arb_failures(),
        trigger in 0u8..13,
        target in 0u8..13,
    ) {
        // Every (window, scope) estimate, counts AND baseline, must
        // equal the brute-force per-node scans, for triggers and targets
        // of every granularity: any failure, root causes, sub-causes.
        let (trigger, target) = (class_of(trigger), class_of(target));
        let engine = Engine::new(build_trace_with_racks(&failures));
        let analysis = engine.correlation();
        let system = engine.trace().system(SystemId::new(1)).expect("system 1");
        let direct = hpcfail_store::query::BaselineEstimator::new(system);
        for window in [Window::Day, Window::Week] {
            for scope in Scope::ALL {
                let e = analysis.system_conditional(
                    SystemId::new(1),
                    trigger,
                    target,
                    window,
                    scope,
                );
                let (hits, total) = oracle_scoped(system, trigger, target, window, scope)
                    .expect("the system has a layout");
                prop_assert_eq!(
                    e.conditional.successes(), hits,
                    "hits, {} -> {} window {} scope {:?}", trigger, target, window, scope
                );
                prop_assert_eq!(
                    e.conditional.trials(), total,
                    "trials, {} -> {} window {} scope {:?}", trigger, target, window, scope
                );
                let base = direct.failure_probability(target, window);
                prop_assert_eq!(
                    e.baseline.successes(), base.hits,
                    "baseline hits, window {} scope {:?}", window, scope
                );
                prop_assert_eq!(
                    e.baseline.trials(), base.total,
                    "baseline trials, window {} scope {:?}", window, scope
                );
            }
        }
    }

    #[test]
    fn conditional_counts_monotone_in_window(failures in arb_failures()) {
        let engine = Engine::new(build_trace(&failures));
        let analysis = engine.correlation();
        let get = |w| {
            analysis.system_conditional(
                SystemId::new(1),
                FailureClass::Any,
                FailureClass::Any,
                w,
                Scope::SameNode,
            )
        };
        let day = get(Window::Day);
        let week = get(Window::Week);
        // Fewer observed triggers for longer windows; among shared
        // triggers the hit probability can only grow, so compare on the
        // week's trigger set: every week trigger is also a day trigger,
        // and a day hit inside (t, t+1d] is also a week hit.
        prop_assert!(week.conditional.trials() <= day.conditional.trials());
        // Baseline: longer windows have weakly higher probability.
        prop_assert!(
            week.baseline.estimate() >= day.baseline.estimate() - 1e-12
        );
    }

    #[test]
    fn group_conditional_equals_single_system(failures in arb_failures()) {
        let engine = Engine::new(build_trace(&failures));
        let analysis = engine.correlation();
        let single = analysis.system_conditional(
            SystemId::new(1),
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        let group = analysis.group_conditional(
            SystemGroup::Group1,
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        prop_assert_eq!(single.conditional, group.conditional);
        prop_assert_eq!(single.baseline, group.baseline);
    }

    #[test]
    fn alarm_precision_equals_conditional(failures in arb_failures()) {
        // The alarm rule's precision is by construction the same-node
        // conditional probability with the same trigger and window.
        let engine = Engine::new(build_trace(&failures));
        let analysis = engine.correlation();
        let e = analysis.system_conditional(
            SystemId::new(1),
            FailureClass::Root(RootCause::Hardware),
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        let rule = AlarmRule {
            trigger: FailureClass::Root(RootCause::Hardware),
            window: Window::Week,
        };
        let eval = rule.evaluate_group(engine.trace(), SystemGroup::Group1);
        prop_assert_eq!(eval.alarms, e.conditional.trials());
        prop_assert_eq!(eval.correct_alarms, e.conditional.successes());
    }

    #[test]
    fn alarm_metrics_bounded(failures in arb_failures(), trigger in 0u8..6) {
        let trace = build_trace(&failures);
        let rule = AlarmRule {
            trigger: FailureClass::Root(root_cause(trigger)),
            window: Window::Week,
        };
        let eval = rule.evaluate_group(&trace, SystemGroup::Group1);
        prop_assert!((0.0..=1.0).contains(&eval.precision()));
        prop_assert!((0.0..=1.0).contains(&eval.recall()));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&eval.flagged_fraction()));
        prop_assert!(eval.correct_alarms <= eval.alarms);
        prop_assert!(eval.caught_failures <= eval.total_failures);
    }
}

/// Span of the checkpoint-replay traces: short enough that the
/// per-step oracle stays cheap at the smallest checkpoint interval, and
/// shorter than a month-long alarm window.
const REPLAY_DAYS: i64 = 20;

/// Span of the long checkpoint-replay traces: over 2^14 hours, so that
/// runs of checkpoints cross many binades. Their failures spread over
/// it by stretching the half-hour grid [`LONG_STRETCH`] times.
const LONG_REPLAY_DAYS: i64 = REPLAY_DAYS * LONG_STRETCH;
const LONG_STRETCH: i64 = 35;

/// Every trigger granularity an alarm rule can name: any failure, a
/// root cause, and a sub-cause of each namespace.
const TRIGGERS: &[FailureClass] = &[
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

/// A sub-cause consistent with `root`, varied by `pick`.
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

/// `(node, half hour, offset, root, pick, twin)` failures. Times sit on
/// a half-hour grid, so failures land exactly on restart ends,
/// checkpoint ends and the span start; an `offset` of up to half an
/// hour moves one into the restart and checkpoint-write gaps. The grid
/// runs a day past the span, so some nodes first fail after it ends.
/// A `twin` below 5 adds a failure of another root cause on the same
/// node in the same second.
type ReplayFailure = (u32, i64, Option<i64>, u8, u8, u8);

fn arb_replay_failures() -> impl Strategy<Value = Vec<ReplayFailure>> {
    prop::collection::vec(
        (
            0u32..NODES,
            0i64..(REPLAY_DAYS + 1) * 48,
            prop::option::of(0i64..1800),
            0u8..6,
            0u8..3,
            0u8..10,
        ),
        0..24,
    )
}

fn build_replay_system(failures: &[ReplayFailure]) -> SystemTrace {
    build_replay_system_over(failures, REPLAY_DAYS, 1)
}

/// [`build_replay_system`] over `days`, with every failure's half-hour
/// index multiplied by `stretch`.
fn build_replay_system_over(failures: &[ReplayFailure], days: i64, stretch: i64) -> SystemTrace {
    let config = SystemConfig {
        id: SystemId::new(1),
        name: "replay".into(),
        nodes: NODES,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_seconds(days * 86_400),
        has_layout: false,
        has_job_log: false,
        has_temperature: false,
    };
    let mut b = SystemTraceBuilder::new(config);
    let mut push = |node: u32, sec: i64, root: u8, pick: u8| {
        let root = root_cause(root);
        b.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_seconds(sec),
            root,
            sub_cause(root, pick),
        ));
    };
    for &(node, half_hour, offset, root, pick, twin) in failures {
        let sec = half_hour * stretch * 1800 + offset.unwrap_or(0);
        push(node, sec, root, pick);
        if twin < 5 {
            push(node, sec, root + 1 + twin, pick + 1);
        }
    }
    b.build()
}

/// The replay as it was before the alarm flag was read off the latest
/// trigger: at every step, scan the node's failures for one whose alarm
/// window covers `t`, re-checking its class against the trigger
/// postings.
fn replay_node_oracle(
    sim: &CheckpointSimulator,
    system: &SystemTrace,
    node: NodeId,
    span_hours: f64,
    policy: CheckpointPolicy,
) -> CheckpointOutcome {
    let start = system.config().start;
    let cols = system.failure_columns();
    let hours = |t: Timestamp| (t - start).as_seconds() as f64 / 3600.0;
    let failure_hours: Vec<f64> = cols.node_events(node, ClassCode::Any).map(hours).collect();
    let interval_at = |t: f64| -> f64 {
        match policy {
            CheckpointPolicy::Uniform { interval_hours } => interval_hours,
            CheckpointPolicy::Adaptive {
                base_hours,
                flagged_hours,
                rule,
            } => {
                let window_h = rule.window.duration().as_seconds() as f64 / 3600.0;
                let flagged = failure_hours.iter().any(|&fh| {
                    fh < t
                        && t <= fh + window_h
                        && cols
                            .node_events(node, ClassCode::new(rule.trigger))
                            .any(|t| (hours(t) - fh).abs() < 1e-9)
                });
                if flagged {
                    flagged_hours
                } else {
                    base_hours
                }
            }
        }
    };
    let mut outcome = CheckpointOutcome {
        checkpoint_hours: 0.0,
        lost_hours: 0.0,
        restart_hours: 0.0,
        total_hours: span_hours,
        failures: 0,
    };
    let mut t = 0.0;
    let mut last_checkpoint = 0.0;
    let mut failure_iter = failure_hours.iter().copied().peekable();
    while t < span_hours {
        let interval = interval_at(t).max(0.01);
        let next_checkpoint = t + interval;
        match failure_iter.peek().copied() {
            Some(fail_at) if fail_at <= next_checkpoint && fail_at < span_hours => {
                failure_iter.next();
                outcome.failures += 1;
                outcome.lost_hours += (fail_at - last_checkpoint).max(0.0);
                outcome.restart_hours += sim.restart_cost_hours;
                t = fail_at + sim.restart_cost_hours;
                last_checkpoint = t;
            }
            _ => {
                if next_checkpoint >= span_hours {
                    break;
                }
                outcome.checkpoint_hours += sim.checkpoint_cost_hours;
                t = next_checkpoint + sim.checkpoint_cost_hours;
                last_checkpoint = t;
            }
        }
    }
    outcome
}

/// [`replay_node_oracle`] summed over the system's nodes in the order
/// `replay_system` merges them.
fn replay_system_oracle(
    sim: &CheckpointSimulator,
    system: &SystemTrace,
    policy: CheckpointPolicy,
) -> CheckpointOutcome {
    let span_hours = system.config().observation_span().as_seconds().max(0) as f64 / 3600.0;
    let mut total = CheckpointOutcome {
        checkpoint_hours: 0.0,
        lost_hours: 0.0,
        restart_hours: 0.0,
        total_hours: 0.0,
        failures: 0,
    };
    for node in system.nodes() {
        let o = replay_node_oracle(sim, system, node, span_hours, policy);
        total.checkpoint_hours += o.checkpoint_hours;
        total.lost_hours += o.lost_hours;
        total.restart_hours += o.restart_hours;
        total.total_hours += o.total_hours;
        total.failures += o.failures;
    }
    total
}

fn same_outcome(a: &CheckpointOutcome, b: &CheckpointOutcome) -> bool {
    a.checkpoint_hours.to_bits() == b.checkpoint_hours.to_bits()
        && a.lost_hours.to_bits() == b.lost_hours.to_bits()
        && a.restart_hours.to_bits() == b.restart_hours.to_bits()
        && a.total_hours.to_bits() == b.total_hours.to_bits()
        && a.failures == b.failures
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_replay_matches_per_step_scan(
        failures in arb_replay_failures(),
        base_hours in prop::option::of(0.5f64..30.0),
        grid_base_hours in prop::sample::select(vec![0.5, 1.0, 4.0]),
        // 0-1: the two above; 2: the interval floor; 3: `1 + 2^-k`.
        base_pick in 0u8..4,
        tie_exponent in 30i32..46,
        long_span in prop::sample::select(vec![false, false, false, true]),
        flagged_hours in prop::sample::select(vec![1e-6, 0.01, 0.2, 0.4, 2.5]),
        restart_cost_hours in prop::sample::select(vec![0.0, 0.0, 0.25, 0.5, 1.0]),
        checkpoint_cost_hours in prop::sample::select(vec![0.05, 0.1, 0.3, 0.5]),
    ) {
        // A zero restart cost resumes exactly at the failure, where the
        // strict `fh < t` edge of the alarm window decides the flag.
        // Grid intervals with a half-hour checkpoint cost put
        // checkpoints exactly on failure times. `1 + 2^-k` is worth a
        // tie in the binade `[2^(53-k), 2^(54-k))`, which the long spans
        // reach for k >= 39. A month-long alarm window outlasts the
        // short span.
        let base_hours = match base_pick {
            0 => base_hours.unwrap_or(grid_base_hours),
            1 => grid_base_hours,
            2 => MIN_INTERVAL_HOURS,
            _ => 1.0 + 2f64.powi(-tie_exponent),
        };
        let system = if long_span {
            build_replay_system_over(&failures, LONG_REPLAY_DAYS, LONG_STRETCH)
        } else {
            build_replay_system(&failures)
        };
        let sim = CheckpointSimulator { checkpoint_cost_hours, restart_cost_hours };
        let uniform = CheckpointPolicy::Uniform { interval_hours: base_hours };
        prop_assert!(same_outcome(
            &sim.replay_system(&system, uniform),
            &replay_system_oracle(&sim, &system, uniform),
        ));
        // The oracle scans every failure at every step: over a long
        // span, two triggers and two windows keep it cheap.
        let (windows, triggers) = if long_span {
            (&Window::ALL[..2], &TRIGGERS[..2])
        } else {
            (&Window::ALL[..], TRIGGERS)
        };
        for &window in windows {
            for &trigger in triggers {
                let policy = CheckpointPolicy::Adaptive {
                    base_hours,
                    flagged_hours,
                    rule: AlarmRule { trigger, window },
                };
                let got = sim.replay_system(&system, policy);
                let want = replay_system_oracle(&sim, &system, policy);
                prop_assert!(
                    same_outcome(&got, &want),
                    "{:?} {:?}: {:?} != {:?}", window, trigger, got, want
                );
            }
        }
    }
}

/// A first failure exactly on a checkpoint time, after a run long
/// enough to be taken in closed form. With interval 1 h, a 0.5 h cost
/// puts the k-th checkpoint time at `1 + 1.5k` hours (half-hour index
/// `2 + 3k`); a cost below half an ulp of `t` leaves `t` on whole
/// hours, so that the run's last step ends exactly where the failure
/// comes, at `1 + k` hours.
#[test]
fn first_failure_on_a_checkpoint_time_after_a_long_run() {
    let adaptive = CheckpointPolicy::Adaptive {
        base_hours: 1.0,
        flagged_hours: 0.25,
        rule: AlarmRule {
            trigger: FailureClass::Any,
            window: Window::Day,
        },
    };
    let uniform = CheckpointPolicy::Uniform {
        interval_hours: 1.0,
    };
    // (checkpoint cost, half hours from one checkpoint time to the next)
    for (checkpoint_cost_hours, half_hours) in [(0.5, 3), (1e-17, 2)] {
        let sim = CheckpointSimulator {
            checkpoint_cost_hours,
            restart_cost_hours: 0.0,
        };
        // k = 10,922 puts the failure on 2^14 hours, a binade edge, for
        // the first cost.
        for k in [0, 1, 85, 86, 170, 171, 4000, 10_922, 10_923] {
            // Node 0 fails on the k-th checkpoint time and again 10.5 h
            // later, node 1 a second after it, node 2 half an hour
            // after it.
            let at = 2 + half_hours * k;
            let failures = [
                (0, at, None, 1, 0, 9),
                (0, at + 21, None, 1, 0, 9),
                (1, at, Some(1), 1, 0, 9),
                (2, at + 1, None, 1, 0, 9),
            ];
            let system = build_replay_system_over(&failures, LONG_REPLAY_DAYS, 1);
            for policy in [uniform, adaptive] {
                assert!(
                    same_outcome(
                        &sim.replay_system(&system, policy),
                        &replay_system_oracle(&sim, &system, policy)
                    ),
                    "cost {checkpoint_cost_hours}, k = {k}, {policy:?}"
                );
            }
        }
    }
}

/// Every replay of a fixed policy grid on the benchmark's synthetic
/// fleet, against the per-step oracle: dense and sparse uniform
/// intervals, a tie interval, and adaptive policies whose alarm
/// windows hold most of the replay's steps.
#[test]
fn checkpoint_replay_matches_per_step_scan_on_the_synthetic_fleet() {
    let trace = hpcfail_synth::FleetSpec::lanl_scaled(0.05)
        .generate(42)
        .into_store();
    let sim = CheckpointSimulator::typical();
    let mut policies: Vec<CheckpointPolicy> = [0.5, 1.0, 1.0 + 2f64.powi(-40), 7.3, 24.0, 100.0]
        .into_iter()
        .map(|interval_hours| CheckpointPolicy::Uniform { interval_hours })
        .collect();
    for (base_hours, flagged_hours, trigger, window) in [
        (3.0, 0.5, FailureClass::Any, Window::Week),
        (
            10.0,
            0.5,
            FailureClass::Root(RootCause::Hardware),
            Window::Month,
        ),
        (
            1e7,
            0.5,
            FailureClass::Root(RootCause::Software),
            Window::Day,
        ),
        (24.0, MIN_INTERVAL_HOURS, FailureClass::Any, Window::Day),
    ] {
        policies.push(CheckpointPolicy::Adaptive {
            base_hours,
            flagged_hours,
            rule: AlarmRule { trigger, window },
        });
    }
    for group in [SystemGroup::Group1, SystemGroup::Group2] {
        for &policy in &policies {
            let mut want = CheckpointOutcome {
                checkpoint_hours: 0.0,
                lost_hours: 0.0,
                restart_hours: 0.0,
                total_hours: 0.0,
                failures: 0,
            };
            for system in trace.group_systems(group) {
                let o = replay_system_oracle(&sim, system, policy);
                want.checkpoint_hours += o.checkpoint_hours;
                want.lost_hours += o.lost_hours;
                want.restart_hours += o.restart_hours;
                want.total_hours += o.total_hours;
                want.failures += o.failures;
            }
            let got = sim.replay_group(&trace, group, policy);
            assert!(
                same_outcome(&got, &want),
                "{group:?} {policy:?}: {got:?} != {want:?}"
            );
        }
    }
}

/// Span of the same-type-summary traces: long enough for a month
/// window to be observed, short enough for failures to crowd.
const SUMMARY_DAYS: i64 = 45;

/// `(system, node, quarter day, root, pick, echo)` failures. Times sit
/// on a six-hour grid that runs to the span's end, so some triggers'
/// windows are not observed. An `echo` of `(window, node, root)` adds a
/// second failure exactly one window later, at the edge of the
/// trigger's `(t, t + window]`.
type SummaryFailure = (u8, u32, i64, u8, u8, Option<(u8, u32, u8)>);

fn arb_summary_failures() -> impl Strategy<Value = Vec<SummaryFailure>> {
    prop::collection::vec(
        (
            0u8..3,
            0u32..6,
            0i64..=SUMMARY_DAYS * 4,
            0u8..6,
            0u8..3,
            prop::option::of((0u8..3, 0u32..6, 0u8..6)),
        ),
        0..48,
    )
}

/// Three systems: system 1 (group 1, 6 nodes) has racks of three with
/// node 5 left out of the layout, system 2 (group 1, 4 nodes) has no
/// layout, and system 3 (group 2, 5 nodes) has racks of two.
fn build_summary_trace(failures: &[SummaryFailure]) -> Trace {
    let shapes = [
        (1u16, 6u32, HardwareClass::Smp4Way, Some((3u32, 5u32))),
        (2, 4, HardwareClass::Smp4Way, None),
        (3, 5, HardwareClass::Numa, Some((2, 5))),
    ];
    let end = SUMMARY_DAYS * 86_400;
    let mut trace = Trace::new();
    for (pick, &(id, nodes, hardware, racks)) in shapes.iter().enumerate() {
        let config = SystemConfig {
            id: SystemId::new(id),
            name: format!("summary{id}"),
            nodes,
            procs_per_node: 4,
            hardware,
            start: Timestamp::EPOCH,
            end: Timestamp::from_seconds(end),
            has_layout: racks.is_some(),
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        let mut push = |node: u32, sec: i64, root: u8, pick: u8| {
            let root = root_cause(root);
            b.push_failure(FailureRecord::new(
                SystemId::new(id),
                NodeId::new(node % nodes),
                Timestamp::from_seconds(sec),
                root,
                sub_cause(root, pick),
            ));
        };
        for &(system, node, quarter, root, sub, echo) in failures {
            if usize::from(system) != pick {
                continue;
            }
            let sec = quarter * 21_600;
            push(node, sec, root, sub);
            if let Some((window, echo_node, echo_root)) = echo {
                let later = sec + Window::ALL[usize::from(window)].seconds();
                if later <= end {
                    push(echo_node, later, echo_root, sub + 1);
                }
            }
        }
        if let Some((per_rack, placed)) = racks {
            let layout: MachineLayout = (0..placed)
                .map(|n| {
                    (
                        NodeId::new(n),
                        NodeLocation {
                            rack: RackId::new((n / per_rack) as u16),
                            position_in_rack: (n % per_rack + 1) as u8,
                            room_row: 0,
                            room_col: (n / per_rack) as u16,
                        },
                    )
                })
                .collect();
            b.layout(layout);
        }
        trace.insert_system(b.build());
    }
    trace
}

proptest! {
    /// The same-type summary and the per-pair `group_conditional`
    /// estimates, for every group, window and scope, against the
    /// brute-force row scans: both count what the oracle counts, carry
    /// the direct-scan baseline of each system whose scope applies, and
    /// so equal each other.
    #[test]
    fn same_type_summaries_match_per_pair_conditionals(failures in arb_summary_failures()) {
        let engine = Engine::new(build_summary_trace(&failures));
        let correlation = engine.correlation();
        for group in [SystemGroup::Group1, SystemGroup::Group2] {
            for window in Window::ALL {
                for scope in Scope::ALL {
                    let rows = engine.pairwise().same_type_summaries(group, window, scope);
                    prop_assert_eq!(rows.len(), FailureClass::FIGURE1.len());
                    for (row, &class) in rows.iter().zip(&FailureClass::FIGURE1) {
                        prop_assert_eq!(row.class, class);
                        for (trigger, estimate) in
                            [(class, row.after_same_type), (FailureClass::Any, row.after_any)]
                        {
                            let (mut hits, mut total) = (0, 0);
                            let (mut base_hits, mut base_total) = (0, 0);
                            for system in engine.trace().group_systems(group) {
                                let Some((h, t)) =
                                    oracle_scoped(system, trigger, class, window, scope)
                                else {
                                    continue;
                                };
                                (hits, total) = (hits + h, total + t);
                                let base = hpcfail_store::query::BaselineEstimator::new(system)
                                    .failure_probability(class, window);
                                (base_hits, base_total) =
                                    (base_hits + base.hits, base_total + base.total);
                            }
                            let what = format!("{trigger} -> {class} {group:?} {window} {scope}");
                            prop_assert_eq!(
                                (estimate.conditional.successes(), estimate.conditional.trials()),
                                (hits, total),
                                "conditional {}", what
                            );
                            prop_assert_eq!(
                                (estimate.baseline.successes(), estimate.baseline.trials()),
                                (base_hits, base_total),
                                "baseline {}", what
                            );
                            let pair =
                                correlation.group_conditional(group, trigger, class, window, scope);
                            prop_assert_eq!(estimate, pair, "per-pair {}", what);
                        }
                    }
                }
            }
        }
    }
}
