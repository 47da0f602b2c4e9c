//! Section VII: what is the impact of power problems?
//!
//! Covers Figure 9 (breakdown of environmental failures), Figure 10
//! (power problems vs hardware failures, overall and per component),
//! Figure 11 (power problems vs software failures, overall and per
//! sub-cause), the Section VII-A.2 unscheduled-maintenance effect, and
//! the Figure 12 time-space scatter of power-related failures.

use crate::correlation::{CorrelationAnalysis, Scope};
use crate::estimate::ConditionalEstimate;
use hpcfail_store::columns::{sub_from_code, ClassCode};
use hpcfail_store::query::WindowCounts;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;

/// One point of the Figure 12 scatter: a power-related failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerScatterPoint {
    /// Which of the four power problems.
    pub kind: PowerProblem,
    /// The node that logged it.
    pub node: NodeId,
    /// When.
    pub time: Timestamp,
}

/// The four power-problem trigger kinds of Figures 10-12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerProblem {
    /// Facility power outage (environment failure).
    Outage,
    /// Power spike (environment failure).
    Spike,
    /// Node power-supply-unit failure (hardware failure).
    PowerSupply,
    /// UPS failure (environment failure).
    Ups,
}

impl PowerProblem {
    /// All four, in the paper's order.
    pub const ALL: [PowerProblem; 4] = [
        PowerProblem::Outage,
        PowerProblem::Spike,
        PowerProblem::PowerSupply,
        PowerProblem::Ups,
    ];

    /// The failure class that identifies this problem in the log.
    pub fn class(self) -> FailureClass {
        match self {
            PowerProblem::Outage => FailureClass::Env(EnvironmentCause::PowerOutage),
            PowerProblem::Spike => FailureClass::Env(EnvironmentCause::PowerSpike),
            PowerProblem::PowerSupply => FailureClass::Hw(HardwareComponent::PowerSupply),
            PowerProblem::Ups => FailureClass::Env(EnvironmentCause::Ups),
        }
    }

    /// The label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            PowerProblem::Outage => "PowerOutage",
            PowerProblem::Spike => "PowerSpike",
            PowerProblem::PowerSupply => "PowerSupplyFail",
            PowerProblem::Ups => "UPSFail",
        }
    }
}

impl std::fmt::Display for PowerProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`PowerProblem`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePowerProblemError(String);

impl std::fmt::Display for ParsePowerProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown power problem {:?}, expected PowerOutage, PowerSpike, \
             PowerSupplyFail or UPSFail",
            self.0
        )
    }
}

impl std::error::Error for ParsePowerProblemError {}

impl std::str::FromStr for PowerProblem {
    type Err = ParsePowerProblemError;

    /// Accepts the figure labels case-insensitively, with or without
    /// the `Fail` suffix, plus the bare short forms `outage`/`spike`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut key = s.to_ascii_lowercase();
        key.retain(|c| !matches!(c, '-' | '_' | ' '));
        match key.strip_suffix("fail").unwrap_or(&key) {
            "poweroutage" | "outage" => Ok(PowerProblem::Outage),
            "powerspike" | "spike" => Ok(PowerProblem::Spike),
            "powersupply" | "psu" => Ok(PowerProblem::PowerSupply),
            "ups" => Ok(PowerProblem::Ups),
            _ => Err(ParsePowerProblemError(s.to_owned())),
        }
    }
}

/// The hardware components Figure 10 (right) reports.
pub const FIG10_COMPONENTS: [HardwareComponent; 5] = [
    HardwareComponent::PowerSupply,
    HardwareComponent::MemoryDimm,
    HardwareComponent::NodeBoard,
    HardwareComponent::Fan,
    HardwareComponent::Cpu,
];

/// The Section VII power analysis.
#[derive(Debug, Clone, Copy)]
pub struct PowerAnalysis<'a> {
    trace: &'a Trace,
    correlation: CorrelationAnalysis<'a>,
}

impl<'a> PowerAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::power`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        PowerAnalysis {
            trace,
            correlation: CorrelationAnalysis::over(trace),
        }
    }

    /// Figure 9: counts of environmental failures by sub-cause,
    /// fleet-wide.
    pub fn env_breakdown(&self) -> BTreeMap<EnvironmentCause, u64> {
        let mut counts = BTreeMap::new();
        for cause in EnvironmentCause::ALL {
            counts.insert(cause, 0u64);
        }
        for system in self.trace.systems() {
            for &code in system.failure_columns().subs() {
                if let Some(SubCause::Environment(c)) = sub_from_code(code) {
                    *counts.entry(c).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// Figure 9 as shares summing to 1 (0s when there are no
    /// environmental failures).
    pub fn env_shares(&self) -> BTreeMap<EnvironmentCause, f64> {
        let counts = self.env_breakdown();
        let total: u64 = counts.values().sum();
        counts
            .into_iter()
            .map(|(c, n)| {
                (
                    c,
                    if total == 0 {
                        0.0
                    } else {
                        n as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// P(`target` failure on the same node within `window` after a
    /// `problem`), fleet-pooled, against the random-window baseline —
    /// one bar of Figure 10/11 (left).
    pub fn conditional_after(
        &self,
        problem: PowerProblem,
        target: FailureClass,
        window: Window,
    ) -> ConditionalEstimate {
        self.correlation
            .fleet_conditional(problem.class(), target, window, Scope::SameNode)
    }

    /// Figure 10 (left): hardware-failure probability after each power
    /// problem, for each window.
    pub fn figure10_left(&self) -> Vec<(PowerProblem, Window, ConditionalEstimate)> {
        let mut out = Vec::new();
        for window in Window::ALL {
            for problem in PowerProblem::ALL {
                out.push((
                    problem,
                    window,
                    self.conditional_after(
                        problem,
                        FailureClass::Root(RootCause::Hardware),
                        window,
                    ),
                ));
            }
        }
        out
    }

    /// Figure 10 (right): per-component hardware-failure probability in
    /// the month after each power problem.
    pub fn figure10_right(&self) -> Vec<(PowerProblem, HardwareComponent, ConditionalEstimate)> {
        let mut out = Vec::new();
        for component in FIG10_COMPONENTS {
            for problem in PowerProblem::ALL {
                out.push((
                    problem,
                    component,
                    self.conditional_after(problem, FailureClass::Hw(component), Window::Month),
                ));
            }
        }
        out
    }

    /// Figure 11 (left): software-failure probability after each power
    /// problem, for each window.
    pub fn figure11_left(&self) -> Vec<(PowerProblem, Window, ConditionalEstimate)> {
        let mut out = Vec::new();
        for window in Window::ALL {
            for problem in PowerProblem::ALL {
                out.push((
                    problem,
                    window,
                    self.conditional_after(
                        problem,
                        FailureClass::Root(RootCause::Software),
                        window,
                    ),
                ));
            }
        }
        out
    }

    /// Figure 11 (right): per-sub-cause software-failure probability in
    /// the month after each power problem.
    pub fn figure11_right(&self) -> Vec<(PowerProblem, SoftwareCause, ConditionalEstimate)> {
        let mut out = Vec::new();
        for cause in SoftwareCause::ALL {
            for problem in PowerProblem::ALL {
                out.push((
                    problem,
                    cause,
                    self.conditional_after(problem, FailureClass::Sw(cause), Window::Month),
                ));
            }
        }
        out
    }

    /// Section VII-A.2: probability of *unscheduled hardware
    /// maintenance* within a month of a power problem, against the
    /// random-month baseline.
    pub fn maintenance_after(&self, problem: PowerProblem) -> ConditionalEstimate {
        let class = problem.class();
        let parts: Vec<ConditionalEstimate> = self
            .trace
            .systems()
            .map(|system| {
                let base = system.indexed_maintenance_baseline(Window::Month);
                let mut cond = WindowCounts::default();
                for (time, node) in system.failure_columns().events(ClassCode::new(class)) {
                    if !system.window_observed(time, Window::Month) {
                        continue;
                    }
                    cond.total += 1;
                    if system.node_has_unscheduled_hw_maintenance_in(
                        node,
                        time,
                        time + Window::Month.duration(),
                    ) {
                        cond.hits += 1;
                    }
                }
                ConditionalEstimate::from_counts(cond, base)
            })
            .collect();
        crate::correlation::merge_stratified(&parts)
    }

    /// Figure 12: the time-space scatter of power-related failures for
    /// one system.
    pub fn scatter(&self, system: SystemId) -> Vec<PowerScatterPoint> {
        let Some(s) = self.trace.system(system) else {
            return Vec::new();
        };
        s.failures()
            .filter_map(|f| {
                let kind = PowerProblem::ALL
                    .into_iter()
                    .find(|p| p.class().matches(&f))?;
                Some(PowerScatterPoint {
                    kind,
                    node: f.node,
                    time: f.time,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn build() -> Trace {
        let config = SystemConfig {
            id: SystemId::new(2),
            name: "t".into(),
            nodes: 4,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(200.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        let sys = SystemId::new(2);
        // A power outage on node 1 at day 10, followed by a memory
        // failure on day 20 (inside the month) on the same node.
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(1),
            Timestamp::from_days(10.0),
            RootCause::Environment,
            SubCause::Environment(EnvironmentCause::PowerOutage),
        ));
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(1),
            Timestamp::from_days(20.0),
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::MemoryDimm),
        ));
        // A PSU failure on node 2 at day 50, fan failure on day 60.
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(2),
            Timestamp::from_days(50.0),
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::PowerSupply),
        ));
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(2),
            Timestamp::from_days(60.0),
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::Fan),
        ));
        // A UPS env failure on node 3, with unscheduled maintenance after.
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(3),
            Timestamp::from_days(100.0),
            RootCause::Environment,
            SubCause::Environment(EnvironmentCause::Ups),
        ));
        b.push_maintenance(MaintenanceRecord {
            system: sys,
            node: NodeId::new(3),
            time: Timestamp::from_days(110.0),
            hardware_related: true,
            scheduled: false,
        });
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn env_breakdown_counts_subcauses() {
        let trace = build();
        let a = PowerAnalysis::over(&trace);
        let counts = a.env_breakdown();
        assert_eq!(counts[&EnvironmentCause::PowerOutage], 1);
        assert_eq!(counts[&EnvironmentCause::Ups], 1);
        assert_eq!(counts[&EnvironmentCause::PowerSpike], 0);
        let shares = a.env_shares();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hardware_after_outage_detected() {
        let trace = build();
        let a = PowerAnalysis::over(&trace);
        let e = a.conditional_after(
            PowerProblem::Outage,
            FailureClass::Root(RootCause::Hardware),
            Window::Month,
        );
        assert_eq!(e.conditional.trials(), 1);
        assert_eq!(e.conditional.successes(), 1);
        // No hardware failure in the week after, though.
        let week = a.conditional_after(
            PowerProblem::Outage,
            FailureClass::Root(RootCause::Hardware),
            Window::Week,
        );
        assert_eq!(week.conditional.successes(), 0);
    }

    #[test]
    fn psu_failure_cascades_to_fan() {
        let trace = build();
        let a = PowerAnalysis::over(&trace);
        let e = a.conditional_after(
            PowerProblem::PowerSupply,
            FailureClass::Hw(HardwareComponent::Fan),
            Window::Month,
        );
        assert_eq!(e.conditional.successes(), 1);
    }

    #[test]
    fn figure_tables_have_expected_shape() {
        let trace = build();
        let a = PowerAnalysis::over(&trace);
        assert_eq!(a.figure10_left().len(), 12); // 4 problems x 3 windows
        assert_eq!(a.figure10_right().len(), 20); // 5 components x 4
        assert_eq!(a.figure11_left().len(), 12);
        assert_eq!(a.figure11_right().len(), 24); // 6 sub-causes x 4
    }

    #[test]
    fn maintenance_after_ups() {
        let trace = build();
        let a = PowerAnalysis::over(&trace);
        let e = a.maintenance_after(PowerProblem::Ups);
        assert_eq!(e.conditional.trials(), 1);
        assert_eq!(e.conditional.successes(), 1);
        // Outage at day 10 on node 1: no maintenance followed.
        let outage = a.maintenance_after(PowerProblem::Outage);
        assert_eq!(outage.conditional.successes(), 0);
    }

    #[test]
    fn scatter_extracts_power_failures_only() {
        let trace = build();
        let a = PowerAnalysis::over(&trace);
        let points = a.scatter(SystemId::new(2));
        // Outage, PSU, UPS — the fan and memory failures are not power
        // problems.
        assert_eq!(points.len(), 3);
        assert!(points.iter().any(|p| p.kind == PowerProblem::Outage));
        assert!(points.iter().any(|p| p.kind == PowerProblem::PowerSupply));
        assert!(points.iter().any(|p| p.kind == PowerProblem::Ups));
        assert!(a.scatter(SystemId::new(77)).is_empty());
    }
}
