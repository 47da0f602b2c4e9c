//! Section III: how are failures correlated in time and space?
//!
//! For a trigger failure class X and target class Y, the analysis
//! measures the probability that a node experiences a Y failure within
//! the day/week/month following an X failure — on the same node, on
//! another node of the same rack, or on another node of the same
//! system — and compares it against the probability in a random window.
//!
//! One walk counts every such follow-up: `follow_ups` takes a trigger
//! class and up to eight target classes, so a per-pair conditional is
//! its one-target call and the Figure 1(b) same-type summary
//! ([`crate::pairwise`]) its eight-target call.

use crate::estimate::ConditionalEstimate;
use hpcfail_store::columns::ClassCode;
use hpcfail_store::query::WindowCounts;
use hpcfail_store::trace::{SystemTrace, Trace};
use hpcfail_types::prelude::*;

/// The spatial scope of a correlation question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Follow-up failures on the node that had the trigger failure
    /// (Section III-A).
    SameNode,
    /// Follow-up failures on *other* nodes in the trigger node's rack
    /// (Section III-B; needs a machine-room layout).
    SameRack,
    /// Follow-up failures on *other* nodes anywhere in the system
    /// (Section III-C).
    SameSystem,
}

impl Scope {
    /// All scopes in the paper's order.
    pub const ALL: [Scope; 3] = [Scope::SameNode, Scope::SameRack, Scope::SameSystem];

    /// A short label.
    pub const fn label(self) -> &'static str {
        match self {
            Scope::SameNode => "same-node",
            Scope::SameRack => "same-rack",
            Scope::SameSystem => "same-system",
        }
    }
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`Scope`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScopeError(String);

impl std::fmt::Display for ParseScopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scope {:?}, expected same-node, same-rack or same-system",
            self.0
        )
    }
}

impl std::error::Error for ParseScopeError {}

impl std::str::FromStr for Scope {
    type Err = ParseScopeError;

    /// Accepts the label form (`same-node`) with `-`/`_`/space treated
    /// interchangeably, plus the bare short forms `node`/`rack`/`system`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut key = s.to_ascii_lowercase();
        key.retain(|c| !matches!(c, '-' | '_' | ' '));
        match key.as_str() {
            "samenode" | "node" => Ok(Scope::SameNode),
            "samerack" | "rack" => Ok(Scope::SameRack),
            "samesystem" | "system" => Ok(Scope::SameSystem),
            _ => Err(ParseScopeError(s.to_owned())),
        }
    }
}

/// The Section III correlation analysis over a trace.
///
/// # Examples
///
/// ```
/// use hpcfail_core::correlation::Scope;
/// use hpcfail_store::trace::{SystemTraceBuilder, Trace};
/// use hpcfail_types::prelude::*;
///
/// let config = SystemConfig {
///     id: SystemId::new(1), name: "demo".into(), nodes: 2,
///     procs_per_node: 4, hardware: HardwareClass::Smp4Way,
///     start: Timestamp::EPOCH, end: Timestamp::from_days(100.0),
///     has_layout: false, has_job_log: false, has_temperature: false,
/// };
/// let mut builder = SystemTraceBuilder::new(config);
/// for day in [10.0, 12.0, 40.0] {
///     builder.push_failure(FailureRecord::new(
///         SystemId::new(1), NodeId::new(0), Timestamp::from_days(day),
///         RootCause::Hardware, SubCause::None,
///     ));
/// }
/// let mut trace = Trace::new();
/// trace.insert_system(builder.build());
///
/// let engine = hpcfail_core::engine::Engine::new(trace);
/// let analysis = engine.correlation();
/// let e = analysis.system_conditional(
///     SystemId::new(1),
///     FailureClass::Any,
///     FailureClass::Any,
///     Window::Week,
///     Scope::SameNode,
/// );
/// // One of the three observed trigger windows contains a follow-up.
/// assert_eq!(e.conditional.trials(), 3);
/// assert_eq!(e.conditional.successes(), 1);
/// assert!(e.conditional.estimate() > e.baseline.estimate());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CorrelationAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> CorrelationAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::correlation`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        CorrelationAnalysis { trace }
    }

    /// Conditional probability of a `target` failure in the `window`
    /// after a `trigger` failure at the given `scope`, for one system.
    ///
    /// Returns an empty estimate for unknown systems, or for
    /// [`Scope::SameRack`] on systems without a layout.
    pub fn system_conditional(
        &self,
        system: SystemId,
        trigger: FailureClass,
        target: FailureClass,
        window: Window,
        scope: Scope,
    ) -> ConditionalEstimate {
        match self.trace.system(system) {
            Some(s) => conditional_for_system(s, trigger, target, window, scope),
            None => ConditionalEstimate::empty(),
        }
    }

    /// Conditional probability pooled over all systems of a group —
    /// the unit of the paper's group-1/group-2 bars.
    pub fn group_conditional(
        &self,
        group: SystemGroup,
        trigger: FailureClass,
        target: FailureClass,
        window: Window,
        scope: Scope,
    ) -> ConditionalEstimate {
        self.trace
            .group_systems(group)
            .map(|s| conditional_for_system(s, trigger, target, window, scope))
            .fold(ConditionalEstimate::empty(), ConditionalEstimate::merge)
    }

    /// Conditional probability pooled over *every* system in the trace
    /// (the Section VII/VIII analyses treat "LANL nodes" as one pool).
    ///
    /// The baseline is *stratified*: each system's random-window
    /// probability enters with weight proportional to that system's
    /// trigger count. Without this, pooling systems with very different
    /// base rates (group-2 nodes fail ~15x more often) would make any
    /// trigger concentrated in hot systems look predictive of
    /// everything — a composition artifact, not a correlation.
    pub fn fleet_conditional(
        &self,
        trigger: FailureClass,
        target: FailureClass,
        window: Window,
        scope: Scope,
    ) -> ConditionalEstimate {
        let parts: Vec<ConditionalEstimate> = self
            .trace
            .systems()
            .map(|s| conditional_for_system(s, trigger, target, window, scope))
            .collect();
        merge_stratified(&parts)
    }
}

/// Merges per-system estimates with a stratified baseline: conditional
/// counts pool directly; each system's baseline is rescaled so its
/// weight in the pooled baseline equals its share of triggers.
pub(crate) fn merge_stratified(parts: &[ConditionalEstimate]) -> ConditionalEstimate {
    // Per-trigger baseline resolution; large enough that rounding is
    // negligible, small enough that u64 counts cannot overflow.
    const RESOLUTION: u64 = 1000;
    let mut merged = ConditionalEstimate::empty();
    for part in parts {
        let triggers = part.conditional.trials();
        if triggers == 0 || part.baseline.trials() == 0 {
            continue;
        }
        let scaled_total = triggers * RESOLUTION;
        let scaled_hits =
            ((part.baseline.estimate() * scaled_total as f64).round() as u64).min(scaled_total);
        merged = merged.merge(ConditionalEstimate {
            conditional: part.conditional,
            baseline: hpcfail_stats::proportion::Proportion::new(scaled_hits, scaled_total),
        });
    }
    merged
}

/// One system's Figure 1(b) window counts, per class of
/// [`FailureClass::FIGURE1`] (same index): after a failure of the same
/// class, and after a failure of any class.
#[derive(Debug, Default)]
pub(crate) struct SameTypeCounts {
    pub(crate) after_same_type: [WindowCounts; 8],
    pub(crate) after_any: [WindowCounts; 8],
}

impl SameTypeCounts {
    /// Adds one trigger in the classes of `trigger` (a class mask):
    /// `trials` windows, `hits[k]` of which hold a class-`k` failure.
    fn add(&mut self, trigger: u8, trials: u64, hits: &[u64; 8]) {
        for (k, &hit) in hits.iter().enumerate() {
            let counts = WindowCounts {
                hits: hit,
                total: trials,
            };
            self.after_any[k] = self.after_any[k].merge(counts);
            if trigger & (1 << k) != 0 {
                self.after_same_type[k] = self.after_same_type[k].merge(counts);
            }
        }
    }
}

/// All sixteen (trigger, target) counts of the Figure 1(b) summary for
/// one system: the [`follow_ups`] of any failure, with the eight
/// [`FailureClass::FIGURE1`] classes as targets. `None` for
/// [`Scope::SameRack`] on a system without a layout.
pub(crate) fn same_type_counts(
    system: &SystemTrace,
    window: Window,
    scope: Scope,
) -> Option<SameTypeCounts> {
    let mut counts = SameTypeCounts::default();
    let targets = FailureClass::FIGURE1.map(ClassCode::new);
    follow_ups(
        system,
        ClassCode::Any,
        targets,
        window,
        scope,
        |own, trials, hits| counts.add(own, trials, hits),
    )
    .then_some(counts)
}

/// Calls `f` with the index of every set bit of `mask`.
fn for_each_class(mut mask: u8, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// The one Section III walk: every follow-up count of one system for a
/// `trigger` class and up to eight `targets`.
///
/// Each failure carries a mask of the targets it belongs to (bit `k`
/// for `targets[k]`). For every `trigger` failure at `t` whose window
/// is observed, `visit` receives that failure's own mask, the number of
/// windows the scope examines (1 for the node itself, one per rack
/// peer, one per other node of the system) and, per target, how many of
/// those windows hold a failure of that target in `(t, t + window]`.
/// Returns `false`, visiting nothing, for [`Scope::SameRack`] on a
/// system without a layout.
fn follow_ups<const N: usize>(
    system: &SystemTrace,
    trigger: ClassCode,
    targets: [ClassCode; N],
    window: Window,
    scope: Scope,
    mut visit: impl FnMut(u8, u64, &[u64; N]),
) -> bool {
    const { assert!(N >= 1 && N <= 8, "a target mask is one byte") };
    let layout = system.layout();
    if scope == Scope::SameRack && layout.is_none() {
        return false;
    }
    let cols = system.failure_columns();
    let (times, nodes) = (cols.times(), cols.nodes());
    let (roots, subs) = (cols.roots(), cols.subs());
    let masks: Vec<u8> = roots
        .iter()
        .zip(subs)
        .map(|(&root, &sub)| {
            targets.iter().enumerate().fold(0, |mask, (k, code)| {
                mask | u8::from(code.matches(root, sub)) << k
            })
        })
        .collect();
    // The targets present on `node` in `(after, until]`; stops once all
    // are found.
    let every = u8::MAX >> (8 - N);
    let probe = |node: NodeId, after: i64, until: i64| {
        let postings = cols.node_postings(node);
        let from = postings.partition_point(|&i| times[i as usize] <= after);
        let mut mask = 0;
        for &i in &postings[from..] {
            if times[i as usize] > until || mask == every {
                break;
            }
            mask |= masks[i as usize];
        }
        mask
    };
    let duration = window.seconds();
    let others = u64::from(system.config().nodes).saturating_sub(1);
    // SameSystem asks, per trigger, how many *other* nodes see a target
    // failure in the window. Triggers and targets arrive time-sorted,
    // so a sliding window over all failures keeps a per-target count on
    // each node and a distinct-node count per target: O(failures) in
    // total instead of a probe per node.
    let mut per_node = match scope {
        Scope::SameSystem => vec![[0u32; N]; system.config().nodes as usize],
        _ => Vec::new(),
    };
    let mut distinct = [0u64; N];
    let (mut lo, mut hi) = (0usize, 0usize);
    for (i, (&time, &node)) in times.iter().zip(nodes).enumerate() {
        if !trigger.matches(roots[i], subs[i])
            || !system.window_observed(Timestamp::from_seconds(time), window)
        {
            continue;
        }
        let until = time + duration;
        let node = NodeId::new(node);
        let mut hits = [0u64; N];
        match scope {
            Scope::SameNode => {
                for_each_class(probe(node, time, until), |k| hits[k] += 1);
                visit(masks[i], 1, &hits);
            }
            Scope::SameRack => {
                let Some(layout) = layout else { continue };
                let peers = layout.rack_neighbors(node);
                for &peer in &peers {
                    for_each_class(probe(peer, time, until), |k| hits[k] += 1);
                }
                visit(masks[i], peers.len() as u64, &hits);
            }
            Scope::SameSystem => {
                // Grow the window to (time, until], shrink from the left.
                while hi < times.len() && times[hi] <= until {
                    let on_node = &mut per_node[nodes[hi] as usize];
                    for_each_class(masks[hi], |k| {
                        on_node[k] += 1;
                        if on_node[k] == 1 {
                            distinct[k] += 1;
                        }
                    });
                    hi += 1;
                }
                while lo < hi && times[lo] <= time {
                    let on_node = &mut per_node[nodes[lo] as usize];
                    for_each_class(masks[lo], |k| {
                        on_node[k] -= 1;
                        if on_node[k] == 0 {
                            distinct[k] -= 1;
                        }
                    });
                    lo += 1;
                }
                let own = &per_node[node.index()];
                for (k, hit) in hits.iter_mut().enumerate() {
                    *hit = distinct[k] - u64::from(own[k] > 0);
                }
                visit(masks[i], others, &hits);
            }
        }
    }
    true
}

/// Core counting for one system: the one-target [`follow_ups`], with
/// the random-window baseline of the target.
fn conditional_for_system(
    system: &SystemTrace,
    trigger: FailureClass,
    target: FailureClass,
    window: Window,
    scope: Scope,
) -> ConditionalEstimate {
    let mut cond = WindowCounts::default();
    let targets = [ClassCode::new(target)];
    let counted = follow_ups(
        system,
        ClassCode::new(trigger),
        targets,
        window,
        scope,
        |_, trials, hits| {
            cond.total += trials;
            cond.hits += hits[0];
        },
    );
    if !counted {
        return ConditionalEstimate::empty();
    }
    // Memoized per (target, window) in the trace's timeline index:
    // fig1a alone asks for the identical (Any, Week) baseline 8 times
    // per system, and the sweep experiments multiply that further.
    let baseline = system.indexed_failure_baseline(target, window);
    ConditionalEstimate::from_counts(cond, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn config(id: u16, nodes: u32, days: f64, group2: bool) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(id),
            name: format!("t{id}"),
            nodes,
            procs_per_node: if group2 { 128 } else { 4 },
            hardware: if group2 {
                HardwareClass::Numa
            } else {
                HardwareClass::Smp4Way
            },
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(days),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        }
    }

    fn failure(sys: u16, node: u32, day: f64, root: RootCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(sys),
            NodeId::new(node),
            Timestamp::from_days(day),
            root,
            SubCause::None,
        )
    }

    fn rack_layout(nodes: u32) -> MachineLayout {
        (0..nodes)
            .map(|n| {
                (
                    NodeId::new(n),
                    NodeLocation {
                        rack: RackId::new((n / 5) as u16),
                        position_in_rack: (n % 5 + 1) as u8,
                        room_row: 0,
                        room_col: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn same_node_counting_by_hand() {
        // Node 0: failures at days 10, 12, 40. Window = week.
        // Triggers (all observed): 10 -> follow-up at 12 (hit);
        // 12 -> nothing until 19 (miss); 40 -> nothing (miss).
        let mut b = SystemTraceBuilder::new(config(1, 2, 100.0, false));
        for d in [10.0, 12.0, 40.0] {
            b.push_failure(failure(1, 0, d, RootCause::Hardware));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let a = CorrelationAnalysis::over(&trace);
        let e = a.system_conditional(
            SystemId::new(1),
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        assert_eq!(e.conditional.trials(), 3);
        assert_eq!(e.conditional.successes(), 1);
        // Baseline: 2 nodes x 94 windows - failures on days 10, 12, 40.
        assert_eq!(e.baseline.trials(), 188);
    }

    #[test]
    fn trigger_near_end_excluded() {
        let mut b = SystemTraceBuilder::new(config(1, 1, 100.0, false));
        b.push_failure(failure(1, 0, 98.0, RootCause::Hardware)); // week not observed
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let a = CorrelationAnalysis::over(&trace);
        let e = a.system_conditional(
            SystemId::new(1),
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        assert!(e.is_empty());
        // Day window is observed though.
        let e = a.system_conditional(
            SystemId::new(1),
            FailureClass::Any,
            FailureClass::Any,
            Window::Day,
            Scope::SameNode,
        );
        assert_eq!(e.conditional.trials(), 1);
    }

    #[test]
    fn rack_scope_counts_peers_only() {
        // 10 nodes in 2 racks of 5. Trigger on node 0 (rack 0); a
        // follow-up on node 3 (rack 0) the next day, and one on node 7
        // (rack 1) which must not count.
        let mut b = SystemTraceBuilder::new(config(1, 10, 100.0, false));
        b.layout(rack_layout(10));
        b.push_failure(failure(1, 0, 10.0, RootCause::Network));
        b.push_failure(failure(1, 3, 11.0, RootCause::Hardware));
        b.push_failure(failure(1, 7, 11.0, RootCause::Hardware));
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let a = CorrelationAnalysis::over(&trace);
        let e = a.system_conditional(
            SystemId::new(1),
            FailureClass::Root(RootCause::Network),
            FailureClass::Any,
            Window::Week,
            Scope::SameRack,
        );
        // 4 rack peers of node 0 = 4 trials, node 3 hit.
        assert_eq!(e.conditional.trials(), 4);
        assert_eq!(e.conditional.successes(), 1);
    }

    #[test]
    fn rack_scope_without_layout_is_empty() {
        let mut b = SystemTraceBuilder::new(config(1, 10, 100.0, false));
        b.push_failure(failure(1, 0, 10.0, RootCause::Network));
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let e = CorrelationAnalysis::over(&trace).system_conditional(
            SystemId::new(1),
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameRack,
        );
        assert!(e.is_empty());
    }

    #[test]
    fn system_scope_excludes_trigger_node() {
        let mut b = SystemTraceBuilder::new(config(1, 3, 100.0, false));
        b.push_failure(failure(1, 0, 10.0, RootCause::Software));
        b.push_failure(failure(1, 0, 10.5, RootCause::Software)); // same node: not a system hit
        b.push_failure(failure(1, 2, 12.0, RootCause::Hardware));
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let e = CorrelationAnalysis::over(&trace).system_conditional(
            SystemId::new(1),
            FailureClass::Root(RootCause::Software),
            FailureClass::Any,
            Window::Week,
            Scope::SameSystem,
        );
        // Two software triggers x 2 other nodes = 4 trials; node 2's
        // day-12 failure is inside both windows = 2 hits.
        assert_eq!(e.conditional.trials(), 4);
        assert_eq!(e.conditional.successes(), 2);
    }

    /// Follow-ups count in `(t, t + window]` at every scope: a failure
    /// exactly one window after the trigger counts, one at the trigger's
    /// own second does not, and only the target class is counted.
    #[test]
    fn windows_are_half_open_at_every_scope() {
        let mut trace = Trace::new();
        // System 1: follow-ups exactly a week after the trigger on node
        // 0, on its rack peer 1 and on node 7 of the other rack, plus
        // software failures inside the window on nodes 0, 2 and 8.
        // System 2: the same hardware follow-ups at the trigger's second.
        for (id, follow_up) in [(1u16, 17.0), (2, 10.0)] {
            let mut b = SystemTraceBuilder::new(config(id, 10, 100.0, false));
            b.layout(rack_layout(10));
            b.push_failure(failure(id, 0, 10.0, RootCause::Network));
            for node in [0, 1, 7] {
                b.push_failure(failure(id, node, follow_up, RootCause::Hardware));
            }
            if id == 1 {
                for node in [0, 2, 8] {
                    b.push_failure(failure(id, node, 12.0, RootCause::Software));
                }
            }
            trace.insert_system(b.build());
        }
        let a = CorrelationAnalysis::over(&trace);
        let counts = |id: u16, target: RootCause, scope| {
            let e = a.system_conditional(
                SystemId::new(id),
                FailureClass::Root(RootCause::Network),
                FailureClass::Root(target),
                Window::Week,
                scope,
            );
            (e.conditional.successes(), e.conditional.trials())
        };
        // (hits, trials): one window on the node itself, four rack
        // peers, nine other nodes in the system. Hardware and software
        // follow-ups hit the same windows in system 1.
        for (scope, hits, trials) in [
            (Scope::SameNode, 1, 1),
            (Scope::SameRack, 1, 4),
            (Scope::SameSystem, 2, 9),
        ] {
            assert_eq!(
                counts(1, RootCause::Hardware, scope),
                (hits, trials),
                "{scope}"
            );
            assert_eq!(
                counts(1, RootCause::Software, scope),
                (hits, trials),
                "{scope}"
            );
            assert_eq!(counts(1, RootCause::Network, scope), (0, trials), "{scope}");
            assert_eq!(
                counts(2, RootCause::Hardware, scope),
                (0, trials),
                "{scope}"
            );
        }
    }

    #[test]
    fn group_pooling_merges_systems() {
        let mut trace = Trace::new();
        for id in [1u16, 2] {
            let mut b = SystemTraceBuilder::new(config(id, 1, 50.0, false));
            b.push_failure(failure(id, 0, 10.0, RootCause::Hardware));
            b.push_failure(failure(id, 0, 11.0, RootCause::Hardware));
            trace.insert_system(b.build());
        }
        let a = CorrelationAnalysis::over(&trace);
        let pooled = a.group_conditional(
            SystemGroup::Group1,
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        assert_eq!(pooled.conditional.trials(), 4);
        assert_eq!(pooled.conditional.successes(), 2);
        // Group 2 has no systems here.
        let g2 = a.group_conditional(
            SystemGroup::Group2,
            FailureClass::Any,
            FailureClass::Any,
            Window::Week,
            Scope::SameNode,
        );
        assert!(g2.is_empty());
    }
}
