//! Fleet and per-system generation parameters, with LANL-calibrated
//! defaults.
//!
//! Base rates are calibrated so the generated fleet's headline
//! statistics land near the paper's: group-1 systems fail on ~0.31% of
//! node-days (~2% of node-weeks), group-2 on ~4.6% of node-days;
//! hardware causes ~60% of failures with a 40%/20% CPU/memory split
//! inside hardware.

use hpcfail_types::prelude::*;

/// Per-root-cause base hazards, in expected failures per node-day
/// before frailty, excitation and event effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseRates {
    /// Hardware channel total (split across components by
    /// [`hw_component_shares`]).
    pub hardware: f64,
    /// Software channel total (split across sub-causes by
    /// [`sw_cause_shares`]).
    pub software: f64,
    /// Network channel.
    pub network: f64,
    /// Human-error channel.
    pub human: f64,
    /// Background environment channel (problems other than the
    /// explicitly simulated power/cooling events).
    pub environment: f64,
}

impl BaseRates {
    /// Total base hazard per node-day.
    pub fn total(&self) -> f64 {
        self.hardware + self.software + self.network + self.human + self.environment
    }
}

/// Relative frequency of hardware components inside the hardware
/// channel, in [`HardwareComponent::ALL`] order
/// (PowerSupply, Memory, NodeBoard, Fan, CPU, MSC, MidPlane, NIC, Disk, Other).
pub fn hw_component_shares() -> [(HardwareComponent, f64); 10] {
    // Base shares are set so the *realized* mix (after excitation
    // excess, which bypasses CPUs, and event elevations) lands near the
    // paper's 40% CPU / 20% memory split of hardware failures.
    [
        (HardwareComponent::PowerSupply, 0.075),
        (HardwareComponent::MemoryDimm, 0.135),
        (HardwareComponent::NodeBoard, 0.065),
        (HardwareComponent::Fan, 0.035),
        (HardwareComponent::Cpu, 0.56),
        (HardwareComponent::MscBoard, 0.025),
        (HardwareComponent::Midplane, 0.015),
        (HardwareComponent::Nic, 0.035),
        (HardwareComponent::Disk, 0.04),
        (HardwareComponent::Other, 0.015),
    ]
}

/// Relative frequency of software sub-causes inside the software
/// channel.
pub fn sw_cause_shares() -> [(SoftwareCause, f64); 6] {
    [
        (SoftwareCause::Dst, 0.35),
        (SoftwareCause::Other, 0.15),
        (SoftwareCause::PatchInstall, 0.05),
        (SoftwareCause::Os, 0.20),
        (SoftwareCause::Pfs, 0.15),
        (SoftwareCause::Cfs, 0.10),
    ]
}

/// Failure-rate multipliers for node 0, the login/launch node.
///
/// LANL operators report node 0 acts as the login node and/or schedules
/// and launches jobs; the paper measures per-type daily-probability
/// increases in the hundreds-to-thousands range for environment and
/// network failures (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node0Spec {
    /// Environment-channel multiplier.
    pub environment: f64,
    /// Network-channel multiplier.
    pub network: f64,
    /// Software-channel multiplier.
    pub software: f64,
    /// Hardware-channel multiplier.
    pub hardware: f64,
    /// Human-error-channel multiplier.
    pub human: f64,
    /// Probability that node 0 additionally logs an ENV failure record
    /// for every cluster-level power event (login nodes observe
    /// facility problems).
    pub logs_cluster_events: f64,
}

impl Default for Node0Spec {
    fn default() -> Self {
        Node0Spec {
            environment: 130.0,
            network: 110.0,
            software: 28.0,
            hardware: 1.3,
            human: 1.0,
            logs_cluster_events: 0.9,
        }
    }
}

/// Per-channel caps on the *excess* hazard the excitation machinery can
/// add, in failures per node-day.
///
/// The self-exciting process must stay subcritical even under bursts
/// (e.g. a power outage logging environment failures across the
/// system). The caps are set from the paper's measured conditional
/// probabilities — e.g. the day after a failure a group-1 node fails
/// with probability ~7%, so the total excess tops out near there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExcessCaps {
    /// Environment-channel cap.
    pub environment: f64,
    /// Hardware-channel cap.
    pub hardware: f64,
    /// Software-channel cap.
    pub software: f64,
    /// Network-channel cap.
    pub network: f64,
    /// Human-error-channel cap.
    pub human: f64,
}

impl ExcessCaps {
    /// Group-1 caps (post-failure day probability ~7%).
    pub fn group1() -> Self {
        ExcessCaps {
            environment: 0.030,
            hardware: 0.060,
            software: 0.035,
            network: 0.035,
            human: 0.010,
        }
    }

    /// Group-2 caps (post-failure day probability ~21%). The
    /// environment cap is deliberately low: with system-wide coupling
    /// over few nodes, a higher cap lets environment chains self-
    /// sustain for months.
    pub fn group2() -> Self {
        ExcessCaps {
            environment: 0.012,
            hardware: 0.075,
            software: 0.045,
            network: 0.035,
            human: 0.015,
        }
    }
}

/// Cluster-level event rates, in expected events per system-day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRates {
    /// Facility power outages.
    pub power_outage: f64,
    /// Power spikes.
    pub power_spike: f64,
    /// UPS-system failures (hit one rack zone).
    pub ups: f64,
    /// Chiller failures (hit one machine-room region).
    pub chiller: f64,
}

impl Default for EventRates {
    fn default() -> Self {
        EventRates {
            power_outage: 1.0 / 200.0,
            power_spike: 1.0 / 300.0,
            ups: 1.0 / 250.0,
            chiller: 1.0 / 350.0,
        }
    }
}

/// Workload-generation parameters for systems with job logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of user accounts.
    pub users: u32,
    /// Expected job arrivals per day.
    pub jobs_per_day: f64,
    /// Mean job runtime in hours (log-normal).
    pub mean_runtime_hours: f64,
    /// Pareto shape for the per-user activity skew (smaller = heavier
    /// tail; the top users dominate processor-days as in Section VI).
    pub user_activity_shape: f64,
    /// Log-normal sigma of per-user risk multipliers (how much the way
    /// a user exercises nodes changes their failure rate).
    pub user_risk_sigma: f64,
    /// Probability a job includes node 0 (login/launch role).
    pub node0_inclusion: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            users: 450,
            jobs_per_day: 230.0,
            mean_runtime_hours: 6.0,
            user_activity_shape: 1.2,
            user_risk_sigma: 1.0,
            node0_inclusion: 0.35,
        }
    }
}

/// Temperature-sensor simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureSpec {
    /// Samples per node per day.
    pub samples_per_day: u32,
    /// Baseline ambient temperature at the bottom of a rack (°C).
    pub base_celsius: f64,
    /// Additional °C per rack position (hot air rises).
    pub per_position: f64,
    /// Standard deviation of sample noise (°C).
    pub noise_sigma: f64,
}

impl Default for TemperatureSpec {
    fn default() -> Self {
        TemperatureSpec {
            samples_per_day: 1,
            base_celsius: 24.0,
            per_position: 1.1,
            noise_sigma: 2.0,
        }
    }
}

/// A scripted hazard elevation over a day window and node range.
///
/// Episodes are the data-level hook scenario packs use to express
/// phenomenology beyond the LANL-calibrated baseline — a firmware
/// rollout that multiplies the software hazard on the racks it has
/// reached, a week-long network partition, a facility event wave. The
/// multiplier applies to the channel's *base* hazard (before excitation
/// excess), so episodes compose with frailty, node-0 role and events
/// exactly like the base rates do. A system with no episodes simulates
/// byte-identically to one generated before episodes existed: the
/// multipliers stay exactly 1.0 and no randomness is consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// First simulated day the elevation is active (inclusive).
    pub first_day: u32,
    /// Last active day (inclusive).
    pub last_day: u32,
    /// First affected node id (inclusive).
    pub first_node: u32,
    /// Last affected node id (inclusive).
    pub last_node: u32,
    /// The root-cause channel whose base hazard is multiplied.
    /// [`RootCause::Undetermined`] has no hazard channel and is
    /// rejected by the scenario parser.
    pub channel: RootCause,
    /// Multiplier applied while the episode is active.
    pub multiplier: f64,
}

impl Episode {
    /// `true` while this episode elevates `node` on `day`.
    pub fn active(&self, day: u32, node: u32) -> bool {
        day >= self.first_day
            && day <= self.last_day
            && node >= self.first_node
            && node <= self.last_node
    }
}

/// Generation parameters for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// LANL-style system id.
    pub id: u16,
    /// Human-readable name.
    pub name: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Processors per node.
    pub procs_per_node: u32,
    /// Hardware class (decides the paper's group-1/group-2 split).
    pub hardware: HardwareClass,
    /// Observation span in days.
    pub days: u32,
    /// Base per-node-day hazards.
    pub rates: BaseRates,
    /// Gamma-frailty shape: node frailty ~ Gamma(shape, 1/shape)
    /// (unit mean; smaller shape = more heterogeneity between nodes).
    pub frailty_shape: f64,
    /// Node-0 login-node multipliers.
    pub node0: Node0Spec,
    /// Cluster-level event rates.
    pub events: EventRates,
    /// Fraction of failures whose root cause is recorded as
    /// undetermined (label noise).
    pub undetermined_fraction: f64,
    /// Workload model, for systems with job logs.
    pub workload: Option<WorkloadSpec>,
    /// Temperature sensors, for systems with them.
    pub temperature: Option<TemperatureSpec>,
    /// `true` to emit a machine-room layout file.
    pub has_layout: bool,
    /// Soft (cosmic-ray) fraction of the CPU channel, modulated by
    /// neutron flux.
    pub cpu_soft_fraction: f64,
    /// Scale applied to the excitation matrix for this system. Group-2
    /// systems use a smaller scale: their base rates are ~15x higher,
    /// so the same additive-excess gains would make the follow-up
    /// process supercritical — and the paper indeed measures smaller
    /// factor increases (2-3x weekly) for group 2.
    pub excitation_scale: f64,
    /// Caps on the excitation excess hazard (burst stability).
    pub excess_caps: ExcessCaps,
    /// Scale applied to event/cascade peak multipliers:
    /// `peak_eff = 1 + (peak - 1) * scale`. Group-2 systems use a small
    /// scale — a 46x elevation of their already ~15x-higher component
    /// hazards would leave nodes in a permanently re-arming cascade.
    pub event_peak_scale: f64,
    /// Scripted hazard elevations (scenario packs). Empty for the
    /// LANL-calibrated baseline.
    pub episodes: Vec<Episode>,
}

impl SystemSpec {
    /// A group-1-style SMP system.
    pub fn smp(id: u16, nodes: u32, days: u32) -> Self {
        SystemSpec {
            id,
            name: format!("system-{id}"),
            nodes,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            days,
            // Calibrated so the realized rate (after frailty, excitation
            // and events roughly double the base) lands near the paper's
            // 0.31%/node-day for group 1.
            rates: BaseRates {
                hardware: 0.00080,
                software: 0.00027,
                network: 0.000054,
                human: 0.000054,
                environment: 0.0000060,
            },
            frailty_shape: 2.0,
            node0: Node0Spec::default(),
            events: EventRates::default(),
            undetermined_fraction: 0.10,
            workload: None,
            temperature: None,
            has_layout: true,
            cpu_soft_fraction: 0.30,
            excitation_scale: 1.0,
            excess_caps: ExcessCaps::group1(),
            event_peak_scale: 1.0,
            episodes: Vec::new(),
        }
    }

    /// A group-2-style NUMA system (few nodes, ~128 processors each,
    /// ~15x the per-node failure rate).
    pub fn numa(id: u16, nodes: u32, days: u32) -> Self {
        let mut spec = SystemSpec::smp(id, nodes, days);
        spec.procs_per_node = 128;
        spec.hardware = HardwareClass::Numa;
        spec.rates = BaseRates {
            hardware: 0.0138,
            software: 0.0046,
            network: 0.00092,
            human: 0.00092,
            environment: 0.00026,
        };
        spec.has_layout = false;
        spec.excitation_scale = 0.16;
        spec.excess_caps = ExcessCaps::group2();
        spec.event_peak_scale = 0.10;
        spec.node0 = Node0Spec {
            environment: 15.0,
            network: 8.0,
            software: 3.0,
            hardware: 1.5,
            human: 1.0,
            logs_cluster_events: 0.5,
        };
        spec
    }

    /// Converts to the store's static system description.
    pub fn to_config(&self) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(self.id),
            name: self.name.clone(),
            nodes: self.nodes,
            procs_per_node: self.procs_per_node,
            hardware: self.hardware,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(self.days as f64),
            has_layout: self.has_layout,
            has_job_log: self.workload.is_some(),
            has_temperature: self.temperature.is_some(),
        }
    }
}

/// Neutron-flux curve parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeutronSpec {
    /// Mean counts per minute (Climax-style monitors sit near 4000).
    pub mean_counts: f64,
    /// Amplitude of the solar-cycle sinusoid.
    pub cycle_amplitude: f64,
    /// Solar-cycle period in days (~11 years).
    pub cycle_days: f64,
    /// Sample noise standard deviation.
    pub noise_sigma: f64,
    /// Expected Forbush-decrease/flare disturbances per year.
    pub flares_per_year: f64,
    /// Samples per day (the paper uses 1-minute data; hourly samples
    /// are equivalent after the monthly aggregation the analysis does).
    pub samples_per_day: u32,
}

impl Default for NeutronSpec {
    fn default() -> Self {
        NeutronSpec {
            mean_counts: 4000.0,
            cycle_amplitude: 450.0,
            cycle_days: 11.0 * 365.25,
            noise_sigma: 60.0,
            flares_per_year: 1.5,
            samples_per_day: 24,
        }
    }
}

/// The full fleet to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Systems to simulate.
    pub systems: Vec<SystemSpec>,
    /// Neutron-monitor curve.
    pub neutron: NeutronSpec,
}

impl FleetSpec {
    /// The LANL fleet with node counts and observation spans scaled by
    /// `scale` (for fast tests and examples). `scale = 1.0` is the full
    /// nine-year fleet: the seven group-1 systems (ids 3, 4, 5, 6, 18,
    /// 19, 20), the three group-2 systems (ids 2, 16, 23) and system 8
    /// (which, with system 20, carries a job log). Systems 18, 19 and 20
    /// are the three largest (1024/1024/512 nodes); system 20 also
    /// carries temperature sensors, as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn lanl_scaled(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let n = |full: u32, min: u32| ((full as f64 * scale) as u32).max(min);
        let d = |full: u32| ((full as f64 * scale.max(0.25)) as u32).max(365);
        let mut systems = vec![
            SystemSpec::smp(3, n(128, 8), d(1400)),
            SystemSpec::smp(4, n(164, 8), d(1600)),
            SystemSpec::smp(5, n(256, 10), d(2000)),
            SystemSpec::smp(6, n(128, 8), d(1300)),
            SystemSpec::smp(18, n(1024, 20), d(2200)),
            SystemSpec::smp(19, n(1024, 20), d(2500)),
            SystemSpec::smp(20, n(512, 16), d(3000)),
            SystemSpec::smp(8, n(256, 12), d(2800)),
            SystemSpec::numa(2, n(49, 6), d(3200)),
            SystemSpec::numa(16, n(16, 4), d(1800)),
            SystemSpec::numa(23, n(5, 3), d(1200)),
        ];
        for spec in &mut systems {
            match spec.id {
                8 => {
                    spec.workload = Some(WorkloadSpec {
                        jobs_per_day: (763_293.0 / spec.days as f64).min(300.0),
                        ..WorkloadSpec::default()
                    });
                }
                20 => {
                    spec.workload = Some(WorkloadSpec {
                        jobs_per_day: (477_206.0 / spec.days as f64).min(200.0),
                        ..WorkloadSpec::default()
                    });
                    spec.temperature = Some(TemperatureSpec::default());
                }
                _ => {}
            }
        }
        FleetSpec {
            systems,
            neutron: NeutronSpec::default(),
        }
    }

    /// A small fleet (two SMP systems, one NUMA system, ~2 simulated
    /// years) for tests, examples and doc tests.
    pub fn demo() -> Self {
        let mut sys20 = SystemSpec::smp(20, 64, 730);
        sys20.workload = Some(WorkloadSpec {
            users: 60,
            jobs_per_day: 40.0,
            ..WorkloadSpec::default()
        });
        sys20.temperature = Some(TemperatureSpec::default());
        let sys18 = SystemSpec::smp(18, 64, 730);
        let sys2 = SystemSpec::numa(2, 12, 730);
        FleetSpec {
            systems: vec![sys18, sys20, sys2],
            neutron: NeutronSpec::default(),
        }
    }

    /// Looks up a system spec by id.
    pub fn system(&self, id: u16) -> Option<&SystemSpec> {
        self.systems.iter().find(|s| s.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let hw: f64 = hw_component_shares().iter().map(|(_, s)| s).sum();
        assert!((hw - 1.0).abs() < 1e-9);
        let sw: f64 = sw_cause_shares().iter().map(|(_, s)| s).sum();
        assert!((sw - 1.0).abs() < 1e-9);
    }

    #[test]
    fn group_rate_gap() {
        let smp = SystemSpec::smp(3, 100, 1000);
        let numa = SystemSpec::numa(2, 10, 1000);
        // Group-2 per-node rates are roughly 15x group-1.
        let ratio = numa.rates.total() / smp.rates.total();
        assert!(ratio > 10.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn lanl_fleet_composition() {
        let fleet = FleetSpec::lanl_scaled(1.0);
        assert_eq!(fleet.systems.len(), 11);
        let group1 = fleet
            .systems
            .iter()
            .filter(|s| s.hardware == HardwareClass::Smp4Way && s.id != 8)
            .count();
        let group2 = fleet
            .systems
            .iter()
            .filter(|s| s.hardware == HardwareClass::Numa)
            .count();
        assert_eq!(group1, 7);
        assert_eq!(group2, 3);
        assert!(fleet.system(8).unwrap().workload.is_some());
        assert!(fleet.system(20).unwrap().workload.is_some());
        assert!(fleet.system(20).unwrap().temperature.is_some());
        assert!(fleet.system(18).unwrap().temperature.is_none());
        // Every loader would refuse a longer span.
        let longest = fleet.systems.iter().map(|s| s.days).max().unwrap();
        assert!(
            i64::from(longest) <= hpcfail_store::MAX_SPAN_DAYS,
            "{longest}"
        );
    }

    #[test]
    fn scaling_shrinks_but_keeps_structure() {
        let s = FleetSpec::lanl_scaled(0.05);
        assert_eq!(s.systems.len(), 11);
        for spec in &s.systems {
            assert!(spec.nodes >= 3);
            assert!(spec.days >= 365);
        }
        let full = FleetSpec::lanl_scaled(1.0);
        assert!(s.system(18).unwrap().nodes < full.system(18).unwrap().nodes / 10);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn scale_validated() {
        let _ = FleetSpec::lanl_scaled(0.0);
    }

    #[test]
    fn config_conversion() {
        let spec = SystemSpec::smp(20, 512, 3000);
        let config = spec.to_config();
        assert_eq!(config.id, SystemId::new(20));
        assert_eq!(config.nodes, 512);
        assert_eq!(config.observation_days(), 3000);
        assert_eq!(config.group(), SystemGroup::Group1);
    }
}
