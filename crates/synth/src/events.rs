//! Cluster-level power/cooling events and the hazard modifiers they
//! leave behind.
//!
//! Section VII of the paper studies four power-problem triggers (power
//! outage, power spike, UPS failure, power-supply-unit failure) plus the
//! fan/chiller temperature triggers of Section VIII. Each event here
//! (a) logs environment failures on some affected nodes, (b) elevates
//! specific hardware-component and software-subsystem hazards for the
//! following month with a decaying profile, and (c) may trigger
//! unscheduled hardware maintenance.

use hpcfail_types::prelude::*;
use rand::Rng;

/// The cluster-level event kinds the generator simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterEventKind {
    /// Facility power outage (system-wide).
    PowerOutage,
    /// Power spike (system-wide).
    PowerSpike,
    /// UPS failure (one rack zone).
    UpsFailure,
    /// Chiller failure (one machine-room region).
    ChillerFailure,
}

impl ClusterEventKind {
    /// The environment sub-cause recorded for failures this event logs.
    pub fn env_cause(self) -> EnvironmentCause {
        match self {
            ClusterEventKind::PowerOutage => EnvironmentCause::PowerOutage,
            ClusterEventKind::PowerSpike => EnvironmentCause::PowerSpike,
            ClusterEventKind::UpsFailure => EnvironmentCause::Ups,
            ClusterEventKind::ChillerFailure => EnvironmentCause::Chiller,
        }
    }

    /// Probability that a node *in the record zone* logs an ENV failure
    /// record at event time. The record zone is a few racks, so the
    /// fleet-wide share of environment failures stays near LANL's ~2%
    /// while preserving the same-time/same-rack clustering of Fig. 12.
    pub fn env_record_probability(self) -> f64 {
        match self {
            ClusterEventKind::PowerOutage => 0.60,
            ClusterEventKind::PowerSpike => 0.22,
            ClusterEventKind::UpsFailure => 0.22,
            ClusterEventKind::ChillerFailure => 0.08,
        }
    }

    /// Probability an affected node needs unscheduled hardware
    /// maintenance within the following month (Section VII-A.2: ~25%
    /// after outages/spikes, 28% after UPS failures).
    pub fn maintenance_probability(self) -> f64 {
        match self {
            ClusterEventKind::PowerOutage => 0.25,
            ClusterEventKind::PowerSpike => 0.25,
            ClusterEventKind::UpsFailure => 0.28,
            ClusterEventKind::ChillerFailure => 0.02,
        }
    }

    /// Peak hazard multipliers per hardware component (Figure 10 right,
    /// Figure 13 right). CPUs are never elevated — the paper finds no
    /// power or temperature effect on CPU failures.
    pub fn hw_elevations(self) -> &'static [(HardwareComponent, f64)] {
        use HardwareComponent::*;
        match self {
            ClusterEventKind::PowerOutage => {
                &[(PowerSupply, 20.0), (NodeBoard, 16.0), (MemoryDimm, 5.0)]
            }
            ClusterEventKind::PowerSpike => {
                &[(PowerSupply, 17.0), (MemoryDimm, 14.0), (NodeBoard, 10.0)]
            }
            ClusterEventKind::UpsFailure => &[(NodeBoard, 27.0), (MemoryDimm, 9.0)],
            ClusterEventKind::ChillerFailure => &[(MemoryDimm, 5.3), (NodeBoard, 10.8)],
        }
    }

    /// Peak hazard multipliers per software sub-cause (Figure 11 right:
    /// storage software — DST, PFS, CFS — dominates after power
    /// problems).
    pub fn sw_elevations(self) -> &'static [(SoftwareCause, f64)] {
        use SoftwareCause::*;
        match self {
            ClusterEventKind::PowerOutage => &[
                (Dst, 45.0),
                (Pfs, 14.0),
                (Cfs, 10.0),
                (Os, 3.0),
                (Other, 3.0),
            ],
            ClusterEventKind::PowerSpike => &[(Dst, 14.0), (Pfs, 7.0), (Cfs, 5.0), (Other, 2.0)],
            ClusterEventKind::UpsFailure => &[(Dst, 28.0), (Pfs, 9.0), (Cfs, 7.0)],
            ClusterEventKind::ChillerFailure => &[],
        }
    }
}

/// One cluster-level event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEvent {
    /// What happened.
    pub kind: ClusterEventKind,
    /// Day index (relative to the system's start).
    pub day: u32,
    /// Exact event time within the day.
    pub time: Timestamp,
    /// Affected node-index range `[start, end)`: the scope of the
    /// hazard elevation (events hit contiguous zones/regions of the
    /// machine room).
    pub affected: (u32, u32),
    /// Node-index range `[start, end)` whose nodes may log an ENV
    /// failure record at event time — the nodes that actually crashed.
    /// Always a (small) sub-range of `affected`.
    pub record_zone: (u32, u32),
}

impl ClusterEvent {
    /// `true` if the node may log an ENV record for this event.
    pub fn in_record_zone(&self, node: NodeId) -> bool {
        let n = node.raw();
        self.record_zone.0 <= n && n < self.record_zone.1
    }
}

/// Generates the event timeline for a system with `nodes` nodes over
/// `days` days, given per-day rates.
pub fn generate_events<R: Rng + ?Sized>(
    rng: &mut R,
    rates: &crate::spec::EventRates,
    nodes: u32,
    days: u32,
) -> Vec<ClusterEvent> {
    let mut events = Vec::new();
    let kinds = [
        (ClusterEventKind::PowerOutage, rates.power_outage),
        (ClusterEventKind::PowerSpike, rates.power_spike),
        (ClusterEventKind::UpsFailure, rates.ups),
        (ClusterEventKind::ChillerFailure, rates.chiller),
    ];
    // Outages and UPS failures strike the same weak spots repeatedly
    // (the paper's Fig. 12: outages/UPS correlate across nodes and over
    // time, spikes look random); remember the last zone per kind.
    // Node range + rack range of the zone an event kind last struck.
    type StickyZone = ((u32, u32), (u32, u32));
    let mut sticky: [Option<StickyZone>; 4] = [None; 4];
    for day in 0..days {
        for (k, &(kind, rate)) in kinds.iter().enumerate() {
            if rng.gen_range(0.0..1.0) < rate {
                let is_sticky_kind = matches!(
                    kind,
                    ClusterEventKind::PowerOutage | ClusterEventKind::UpsFailure
                );
                let (affected, zone) = match sticky[k] {
                    Some(prev) if is_sticky_kind && rng.gen_range(0.0..1.0) < 0.55 => prev,
                    _ => {
                        let affected = affected_range(rng, kind, nodes);
                        (affected, record_zone(rng, affected))
                    }
                };
                sticky[k] = Some((affected, zone));
                let second = rng.gen_range(0..86_400i64);
                events.push(ClusterEvent {
                    kind,
                    day,
                    time: Timestamp::from_seconds(day as i64 * 86_400 + second),
                    affected,
                    record_zone: zone,
                });
            }
        }
    }
    events
}

/// A contiguous slice of the affected range whose nodes actually crash
/// and log ENV records. The width scales with system size (about three
/// racks on a 1024-node system) so large systems log proportionally
/// more environment failures, as in the LANL release.
fn record_zone<R: Rng + ?Sized>(rng: &mut R, affected: (u32, u32)) -> (u32, u32) {
    let span = affected.1 - affected.0;
    let width = (span * 3 / 200).clamp(2, 15).min(span.max(1));
    let start = if span > width {
        affected.0 + rng.gen_range(0..=(span - width))
    } else {
        affected.0
    };
    (start, start + width)
}

/// Outages and spikes hit the whole system; UPS failures hit one third
/// of the node range (a UPS zone); chiller failures hit one half (a
/// machine-room region).
fn affected_range<R: Rng + ?Sized>(rng: &mut R, kind: ClusterEventKind, nodes: u32) -> (u32, u32) {
    match kind {
        ClusterEventKind::PowerOutage | ClusterEventKind::PowerSpike => (0, nodes),
        ClusterEventKind::UpsFailure => {
            let zone = (nodes / 3).max(1);
            let start = rng.gen_range(0..3.min(nodes)) * zone;
            (start, (start + zone).min(nodes))
        }
        ClusterEventKind::ChillerFailure => {
            let region = (nodes / 2).max(1);
            let start = rng.gen_range(0..2.min(nodes)) * region;
            (start, (start + region).min(nodes))
        }
    }
}

/// A hazard modifier attached to one node: elevates one target channel
/// for a month after an event, with an exponentially decaying profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modifier {
    /// Day the modifier started.
    pub start_day: u32,
    /// Days it stays active (30 = the paper's month).
    pub duration_days: u32,
    /// Peak multiplier at age zero.
    pub peak: f64,
    /// Exponential decay constant in days for the excess over 1.
    pub decay_days: f64,
    /// Which channel it elevates.
    pub target: ModifierTarget,
}

/// The channel a [`Modifier`] elevates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModifierTarget {
    /// One hardware component's hazard.
    Hw(HardwareComponent),
    /// One software sub-cause's hazard.
    Sw(SoftwareCause),
}

impl Modifier {
    /// Standard month-long modifier with the default 12-day decay.
    pub fn month(start_day: u32, target: ModifierTarget, peak: f64) -> Self {
        Modifier {
            start_day,
            duration_days: 30,
            peak,
            decay_days: 12.0,
            target,
        }
    }

    /// The multiplier contributed on `day` (1.0 when inactive).
    pub fn multiplier(&self, day: u32) -> f64 {
        if day < self.start_day || day >= self.start_day + self.duration_days {
            return 1.0;
        }
        let age = (day - self.start_day) as f64;
        1.0 + (self.peak - 1.0) * (-age / self.decay_days).exp()
    }

    /// `true` once the modifier can be dropped.
    pub fn expired(&self, day: u32) -> bool {
        day >= self.start_day + self.duration_days
    }

    /// Returns a copy with the peak compressed towards 1:
    /// `peak_eff = 1 + (peak - 1) * scale`.
    pub fn scaled(mut self, scale: f64) -> Self {
        self.peak = 1.0 + (self.peak - 1.0) * scale;
        self
    }
}

/// Same-component re-arm after a hardware failure: hard errors repeat,
/// so the failed component's own hazard stays elevated for the next
/// month (Section III-A.4: the week after a memory failure the
/// probability of another memory failure rises ~100x). Power supplies
/// and fans have richer cascades ([`psu_cascade`], [`fan_cascade`]).
pub fn component_rearm(day: u32, component: HardwareComponent) -> Modifier {
    use HardwareComponent::*;
    let peak = match component {
        MemoryDimm => 150.0,
        NodeBoard => 120.0,
        MscBoard | Midplane => 120.0,
        Cpu => 100.0,
        Nic | Disk => 100.0,
        Other => 80.0,
        // Handled by their cascades, but keep a sane value.
        PowerSupply => 40.0,
        Fan => 120.0,
    };
    Modifier {
        start_day: day,
        duration_days: 30,
        peak,
        decay_days: 5.0,
        target: ModifierTarget::Hw(component),
    }
}

/// Node-local degradation cascade after a power-supply-unit failure
/// (Figure 10: fans 46x, power supplies 41x, node boards 28x, memory
/// 14x in the following month).
pub fn psu_cascade(day: u32) -> Vec<Modifier> {
    use HardwareComponent::*;
    [
        (Fan, 46.0),
        (PowerSupply, 40.0),
        (NodeBoard, 28.0),
        (MemoryDimm, 14.0),
    ]
    .into_iter()
    .map(|(c, peak)| Modifier::month(day, ModifierTarget::Hw(c), peak))
    .chain(
        [(SoftwareCause::Dst, 10.0), (SoftwareCause::Pfs, 5.0)]
            .into_iter()
            .map(|(c, peak)| Modifier::month(day, ModifierTarget::Sw(c), peak)),
    )
    .collect()
}

/// Node-local cascade after a fan failure (Figure 13: fans 120x, MSC
/// boards ~106x, midplanes ~100x, node boards/memory/power supplies
/// 10-20x). The node also sees a temperature excursion, handled by the
/// temperature sampler.
pub fn fan_cascade(day: u32) -> Vec<Modifier> {
    use HardwareComponent::*;
    [
        (Fan, 120.0),
        (MscBoard, 105.0),
        (Midplane, 100.0),
        (NodeBoard, 20.0),
        (PowerSupply, 18.0),
        (MemoryDimm, 11.0),
    ]
    .into_iter()
    .map(|(c, peak)| Modifier::month(day, ModifierTarget::Hw(c), peak))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cpus_never_elevated() {
        for kind in [
            ClusterEventKind::PowerOutage,
            ClusterEventKind::PowerSpike,
            ClusterEventKind::UpsFailure,
            ClusterEventKind::ChillerFailure,
        ] {
            assert!(kind
                .hw_elevations()
                .iter()
                .all(|(c, _)| *c != HardwareComponent::Cpu));
        }
        assert!(psu_cascade(0)
            .iter()
            .all(|m| m.target != ModifierTarget::Hw(HardwareComponent::Cpu)));
        assert!(fan_cascade(0)
            .iter()
            .all(|m| m.target != ModifierTarget::Hw(HardwareComponent::Cpu)));
    }

    #[test]
    fn storage_software_dominates_power_sw_effects() {
        let dst = ClusterEventKind::PowerOutage
            .sw_elevations()
            .iter()
            .find(|(c, _)| *c == SoftwareCause::Dst)
            .unwrap()
            .1;
        let os = ClusterEventKind::PowerOutage
            .sw_elevations()
            .iter()
            .find(|(c, _)| *c == SoftwareCause::Os)
            .map_or(1.0, |p| p.1);
        assert!(dst > 5.0 * os);
    }

    #[test]
    fn modifier_profile_decays() {
        let m = Modifier::month(10, ModifierTarget::Hw(HardwareComponent::Fan), 46.0);
        assert_eq!(m.multiplier(9), 1.0);
        assert_eq!(m.multiplier(10), 46.0);
        assert!(m.multiplier(15) < 46.0);
        assert!(m.multiplier(15) > m.multiplier(25));
        assert_eq!(m.multiplier(40), 1.0);
        assert!(m.expired(40));
        assert!(!m.expired(39));
    }

    #[test]
    fn event_generation_rates() {
        let mut rng = StdRng::seed_from_u64(5);
        let rates = crate::spec::EventRates {
            power_outage: 0.05,
            power_spike: 0.02,
            ups: 0.03,
            chiller: 0.01,
        };
        let events = generate_events(&mut rng, &rates, 90, 5000);
        let outages = events
            .iter()
            .filter(|e| e.kind == ClusterEventKind::PowerOutage)
            .count();
        // Expect ~250 outages; allow generous slack.
        assert!(outages > 180 && outages < 330, "outages {outages}");
        // Outages hit everything; UPS zones are proper subsets.
        for e in &events {
            match e.kind {
                ClusterEventKind::PowerOutage | ClusterEventKind::PowerSpike => {
                    assert_eq!(e.affected, (0, 90));
                }
                ClusterEventKind::UpsFailure => {
                    assert!(e.affected.1 - e.affected.0 <= 30);
                }
                ClusterEventKind::ChillerFailure => {
                    assert!(e.affected.1 - e.affected.0 <= 45);
                }
            }
            assert_eq!(e.time.day_index(), e.day as i64);
        }
    }

    #[test]
    fn tiny_system_ranges_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let rates = crate::spec::EventRates {
            power_outage: 0.5,
            power_spike: 0.5,
            ups: 0.5,
            chiller: 0.5,
        };
        for nodes in [1u32, 2, 3] {
            let events = generate_events(&mut rng, &rates, nodes, 200);
            for e in events {
                assert!(e.affected.0 < e.affected.1, "empty range for {nodes} nodes");
                assert!(e.affected.1 <= nodes);
            }
        }
    }
}
