//! Section III: how are failures correlated in time and space?
//!
//! For a trigger failure class X and target class Y, the analysis
//! measures the probability that a node experiences a Y failure within
//! the day/week/month following an X failure — on the same node, on
//! another node of the same rack, or on another node of the same
//! system — and compares it against the probability in a random window.

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

/// Calls `f` with the index of every set bit of `mask`.
fn for_each_class(mut mask: u8, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// All sixteen (trigger, target) counts of the Figure 1(b) summary for
/// one system in one walk over its failures: the same counts as
/// [`conditional_for_system`] with trigger `X` or `Any` and target `X`,
/// for every `X` in [`FailureClass::FIGURE1`].
///
/// Each event carries a mask of the classes it belongs to, and each
/// probe returns the mask of the classes present in `(t, t + window]`,
/// so one trigger adds to every row at once. `None` for
/// [`Scope::SameRack`] on a system without a layout.
pub(crate) fn same_type_counts(
    system: &SystemTrace,
    window: Window,
    scope: Scope,
) -> Option<SameTypeCounts> {
    let layout = system.layout();
    if scope == Scope::SameRack && layout.is_none() {
        return None;
    }
    let cols = system.failure_columns();
    let (times, nodes) = (cols.times(), cols.nodes());
    let codes = FailureClass::FIGURE1.map(ClassCode::new);
    let masks: Vec<u8> = cols
        .roots()
        .iter()
        .zip(cols.subs())
        .map(|(&root, &sub)| {
            codes.iter().enumerate().fold(0, |mask, (k, code)| {
                mask | u8::from(code.matches(root, sub)) << k
            })
        })
        .collect();
    // The classes present on `node` in `(after, until]`.
    let probe = |node: NodeId, after: i64, until: i64| {
        let postings = cols.node_postings(node);
        let from = postings.partition_point(|&i| times[i as usize] <= after);
        postings[from..]
            .iter()
            .take_while(|&&i| times[i as usize] <= until)
            .fold(0u8, |mask, &i| mask | masks[i as usize])
    };
    let duration = window.seconds();
    let mut counts = SameTypeCounts::default();
    // SameSystem: the sliding window of `conditional_for_system`, with
    // a per-class count on each node and a distinct-node count per class.
    let mut per_node = match scope {
        Scope::SameSystem => vec![[0u32; 8]; system.config().nodes as usize],
        _ => Vec::new(),
    };
    let mut distinct = [0u64; 8];
    let (mut lo, mut hi) = (0usize, 0usize);
    for (i, (&time, &node)) in times.iter().zip(nodes).enumerate() {
        if !system.window_observed(Timestamp::from_seconds(time), window) {
            continue;
        }
        let until = time + duration;
        let node = NodeId::new(node);
        let mut hits = [0u64; 8];
        match scope {
            Scope::SameNode => {
                for_each_class(probe(node, time, until), |k| hits[k] += 1);
                counts.add(masks[i], 1, &hits);
            }
            Scope::SameRack => {
                let Some(layout) = layout else { continue };
                let peers = layout.rack_neighbors(node);
                for &peer in &peers {
                    for_each_class(probe(peer, time, until), |k| hits[k] += 1);
                }
                counts.add(masks[i], peers.len() as u64, &hits);
            }
            Scope::SameSystem => {
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
                counts.add(masks[i], u64::from(system.config().nodes) - 1, &hits);
            }
        }
    }
    Some(counts)
}

/// Core counting for one system.
fn conditional_for_system(
    system: &SystemTrace,
    trigger: FailureClass,
    target: FailureClass,
    window: Window,
    scope: Scope,
) -> ConditionalEstimate {
    // Memoized per (target, window) in the trace's timeline index:
    // fig1a alone asks for the identical (Any, Week) baseline 8 times
    // per system, and the sweep experiments multiply that further.
    let baseline = system.indexed_failure_baseline(target, window);
    let mut cond = WindowCounts::default();
    let duration = window.duration();

    let layout = system.layout();
    if scope == Scope::SameRack && layout.is_none() {
        return ConditionalEstimate::empty();
    }
    let cols = system.failure_columns();
    let triggers = cols
        .events(ClassCode::new(trigger))
        .filter(|&(time, _)| system.window_observed(time, window));

    // SameSystem asks, per trigger, how many *other* nodes see a target
    // failure in the trigger's window — naively O(nodes) probes per
    // trigger. Both triggers and targets arrive time-sorted, so a
    // sliding window over target failures maintains the distinct-node
    // count in O(failures) total; counts (and therefore output bytes)
    // are identical to the per-node probes.
    if scope == Scope::SameSystem {
        let targets: Vec<(Timestamp, NodeId)> = cols.events(ClassCode::new(target)).collect();
        let nodes = system.config().nodes as u64;
        let mut per_node = vec![0u32; system.config().nodes as usize];
        let mut distinct = 0u64;
        let (mut lo, mut hi) = (0usize, 0usize);
        for (time, node) in triggers {
            let until = time + duration;
            // Grow the window to (time, until], shrink from the left.
            while hi < targets.len() && targets[hi].0 <= until {
                let n = targets[hi].1.index();
                per_node[n] += 1;
                if per_node[n] == 1 {
                    distinct += 1;
                }
                hi += 1;
            }
            while lo < hi && targets[lo].0 <= time {
                let n = targets[lo].1.index();
                per_node[n] -= 1;
                if per_node[n] == 0 {
                    distinct -= 1;
                }
                lo += 1;
            }
            cond.total += nodes - 1;
            let own = u64::from(per_node[node.index()] > 0);
            cond.hits += distinct - own;
        }
        return ConditionalEstimate::from_counts(cond, baseline);
    }

    for (time, node) in triggers {
        let until = time + duration;
        match scope {
            Scope::SameNode => {
                cond.total += 1;
                if system.node_has_failure_in(node, target, time, until) {
                    cond.hits += 1;
                }
            }
            Scope::SameRack => {
                let Some(layout) = layout else { continue };
                for peer in layout.rack_neighbors(node) {
                    cond.total += 1;
                    if system.node_has_failure_in(peer, target, time, until) {
                        cond.hits += 1;
                    }
                }
            }
            Scope::SameSystem => unreachable!("handled by the sliding window above"),
        }
    }
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
