//! The day-level hazard simulation producing complete system traces.
//!
//! For every node and day, each root-cause channel's hazard is the
//! product of: its base rate, the node's gamma frailty, the node-0
//! login-role multiplier, a usage term from the job log, the
//! self-excitation boost from recent failures on this node and its rack,
//! and (for hardware/software sub-channels) any active event modifiers.
//! Failure counts are Poisson draws; each failure picks its sub-cause
//! from the (possibly elevated) channel mix.

use crate::events::{
    component_rearm, fan_cascade, generate_events, psu_cascade, ClusterEvent, ClusterEventKind,
    Modifier, ModifierTarget,
};
use crate::excitation::{ExcitationMatrix, ExcitationState};
use crate::neutron::{base_flux, generate_neutron};
use crate::spec::{hw_component_shares, sw_cause_shares, FleetSpec, SystemSpec};
use crate::workload::{accumulate_usage, generate_workload, NodeDayUsage};
use hpcfail_stats::dist::{Distribution, GammaDist, LogNormal, Normal, Poisson};
use hpcfail_store::trace::{SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mechanism toggles for ablation studies.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// The follow-up-failure coupling matrix.
    pub excitation: ExcitationMatrix,
    /// `false` forces every node's frailty to 1 (homogeneous nodes).
    pub frailty: bool,
    /// `false` strips node 0's login-node role.
    pub node0_role: bool,
    /// `false` disables cluster power/cooling events.
    pub cluster_events: bool,
    /// `false` removes the usage term from the hazard.
    pub usage_effect: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            excitation: ExcitationMatrix::lanl(),
            frailty: true,
            node0_role: true,
            cluster_events: true,
            usage_effect: true,
        }
    }
}

/// A generated fleet, ready to be analyzed.
#[derive(Debug, Clone)]
pub struct GeneratedFleet {
    trace: Trace,
}

impl GeneratedFleet {
    /// The generated trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the fleet, returning the trace store.
    pub fn into_store(self) -> Trace {
        self.trace
    }
}

impl FleetSpec {
    /// Generates the fleet with default mechanisms. Deterministic for a
    /// given `(spec, seed)`.
    pub fn generate(&self, seed: u64) -> GeneratedFleet {
        self.generate_with(seed, &SimOptions::default())
    }

    /// Generates the fleet with explicit mechanism toggles (ablations).
    pub fn generate_with(&self, seed: u64, options: &SimOptions) -> GeneratedFleet {
        let _span = hpcfail_obs::span("synth.generate");
        hpcfail_obs::counter("synth.fleets_generated").inc();
        let mut trace = Trace::new();
        let max_days = self.systems.iter().map(|s| s.days).max().unwrap_or(0);
        {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_7574_726f_6e73);
            trace.set_neutron_samples(generate_neutron(&mut rng, &self.neutron, max_days));
        }
        for spec in &self.systems {
            // Independent stream per system: system ordering never
            // perturbs another system's randomness.
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_add(0x9e37_79b9_7f4a_7c15)
                    .wrapping_mul(u64::from(spec.id) + 1),
            );
            let system = simulate_system(&mut rng, spec, &self.neutron, options);
            trace.insert_system(system);
        }
        GeneratedFleet { trace }
    }
}

/// Per-node mutable simulation state.
struct NodeState {
    frailty: f64,
    excitation: ExcitationState,
    modifiers: Vec<Modifier>,
    /// Temperature excursions: (first_day, last_day, delta °C).
    excursions: Vec<(u32, u32, f64)>,
    /// The most recent environment problem seen by this node, so
    /// excited follow-up environment failures carry the right
    /// sub-cause (aftershocks of an outage are outage records, not
    /// "other environment").
    recent_env: Option<(u32, EnvironmentCause)>,
    /// Per-node benign hot-spot rate (machine-room geography).
    benign_excursion_rate: f64,
}

const NODES_PER_RACK: u32 = 5;

fn build_layout(nodes: u32) -> MachineLayout {
    (0..nodes)
        .map(|n| {
            let rack = n / NODES_PER_RACK;
            (
                NodeId::new(n),
                NodeLocation {
                    rack: RackId::new(rack as u16),
                    position_in_rack: (n % NODES_PER_RACK + 1) as u8,
                    room_row: (rack / 10) as u16,
                    room_col: (rack % 10) as u16,
                },
            )
        })
        .collect()
}

/// Simulates one system.
fn simulate_system<R: Rng + ?Sized>(
    rng: &mut R,
    spec: &SystemSpec,
    neutron: &crate::spec::NeutronSpec,
    options: &SimOptions,
) -> hpcfail_store::trace::SystemTrace {
    let config = spec.to_config();
    let mut builder = SystemTraceBuilder::new(config);
    let system = SystemId::new(spec.id);
    let nodes = spec.nodes;
    let days = spec.days;
    let matrix = &options.excitation;

    if spec.has_layout {
        builder.layout(build_layout(nodes));
    }

    // Node frailties.
    let frailty_dist = GammaDist::unit_mean(spec.frailty_shape);
    let mut states: Vec<NodeState> = (0..nodes)
        .map(|_| NodeState {
            frailty: if options.frailty {
                frailty_dist.sample(rng).max(0.05)
            } else {
                1.0
            },
            excitation: ExcitationState::new(),
            modifiers: Vec::new(),
            excursions: Vec::new(),
            recent_env: None,
            benign_excursion_rate: rng.gen_range(0.003..0.013),
        })
        .collect();
    // Systems with a layout couple within racks; NUMA boxes without a
    // layout share one *system-level* state instead (a sick switch or
    // file system touches every node).
    let racks = if spec.has_layout {
        nodes.div_ceil(NODES_PER_RACK) as usize
    } else {
        1
    };
    let mut rack_states: Vec<ExcitationState> =
        (0..racks).map(|_| ExcitationState::new()).collect();

    // Cluster events.
    let events: Vec<ClusterEvent> = if options.cluster_events {
        generate_events(rng, &spec.events, nodes, days)
    } else {
        Vec::new()
    };
    let mut event_cursor = 0usize;
    // The system's most recent environment problem, for labeling
    // excited env follow-ups on nodes that did not log the event
    // themselves.
    let mut system_recent_env: Option<(u32, EnvironmentCause)> = None;

    // Workload.
    let (workload, usage) = match &spec.workload {
        Some(wspec) => {
            let w = generate_workload(rng, wspec, system, nodes, spec.procs_per_node, days);
            let usage = accumulate_usage(&w, nodes, days);
            (Some(w), usage)
        }
        None => (None, NodeDayUsage::empty()),
    };

    // Channel shares.
    let hw_shares = hw_component_shares();
    let sw_shares = sw_cause_shares();
    let flux_mean = neutron.mean_counts;

    let temp_noise = spec
        .temperature
        .map(|t| Normal::new(0.0, t.noise_sigma.max(1e-9)));
    let mut temperatures: Vec<TemperatureSample> = Vec::new();
    let mut maintenance: Vec<MaintenanceRecord> = Vec::new();
    let mut failures: Vec<FailureRecord> = Vec::new();

    for day in 0..days {
        // Decay excitation once per day.
        for s in &mut states {
            s.excitation.decay(matrix.tau_days);
        }
        for r in &mut rack_states {
            r.decay(matrix.tau_days);
        }

        // Apply today's cluster events.
        while event_cursor < events.len() && events[event_cursor].day == day {
            let event = events[event_cursor];
            event_cursor += 1;
            system_recent_env = Some((day, event.kind.env_cause()));
            apply_cluster_event(
                rng,
                &event,
                spec,
                options,
                matrix,
                &mut states,
                &mut rack_states,
                &mut failures,
                &mut maintenance,
            );
        }

        // Cosmic-ray modulation of the soft CPU-error fraction. The
        // coupling is amplified (x5) so the monthly-binned Figure 14
        // trend is resolvable at synthetic-fleet size; see DESIGN.md.
        let flux = base_flux(neutron, day as f64);
        let flux_factor = (1.0 + 5.0 * (flux / flux_mean - 1.0)).max(0.0);
        let cpu_scale = (1.0 - spec.cpu_soft_fraction) + spec.cpu_soft_fraction * flux_factor;

        for node in 0..nodes {
            let state = &mut states[node as usize];
            // Event modifiers -> per-component multipliers.
            state.modifiers.retain(|m| !m.expired(day));
            let mut hw_mult = [1.0f64; 10];
            let mut sw_mult = [1.0f64; 6];
            for m in &state.modifiers {
                // Repeated events re-arm the elevation (max), they do
                // not stack multiplicatively — a component already at
                // 46x risk does not become 2000x after a second event.
                let f = m.multiplier(day);
                match m.target {
                    ModifierTarget::Hw(c) => {
                        // A modifier naming a component outside the
                        // share table has nothing to elevate; skip it
                        // rather than abort the simulation.
                        let Some(i) = hw_shares.iter().position(|(hc, _)| *hc == c) else {
                            continue;
                        };
                        hw_mult[i] = hw_mult[i].max(f);
                    }
                    ModifierTarget::Sw(c) => {
                        let Some(i) = sw_shares.iter().position(|(sc, _)| *sc == c) else {
                            continue;
                        };
                        sw_mult[i] = sw_mult[i].max(f);
                    }
                }
            }

            // Common multipliers (apply to the base hazard only). The
            // risk-excess term is clamped so a login node carrying many
            // concurrent jobs saturates instead of multiplying away.
            let usage_mult = if options.usage_effect {
                1.0 + 0.6 * usage.busy_fraction(node, day)
                    + 1.3 * usage.risk_excess(node, day).clamp(-0.5, 2.0)
            } else {
                1.0
            }
            .clamp(0.1, 4.0);
            let is_node0 = node == 0 && options.node0_role;
            let rack = if spec.has_layout {
                (node / NODES_PER_RACK) as usize
            } else {
                0
            };
            let common = state.frailty * usage_mult;

            // Scenario episodes: scripted per-channel elevations over a
            // day window and node range. With no episodes every factor
            // is exactly 1.0 (an exact f64 identity), so baseline
            // fleets keep byte-identical traces and consume no extra
            // randomness.
            let mut episode_mult = [1.0f64; 5];
            for e in &spec.episodes {
                if e.active(day, node) {
                    let slot = match e.channel {
                        RootCause::Hardware => 0,
                        RootCause::Software => 1,
                        RootCause::Network => 2,
                        RootCause::HumanError => 3,
                        RootCause::Environment => 4,
                        RootCause::Undetermined => continue,
                    };
                    episode_mult[slot] *= e.multiplier;
                }
            }

            // Excitation contributes an *additive* excess proportional to
            // the group base rate (not the node's multiplied rate):
            // follow-up risk after a failure is a property of the event,
            // so it is not re-amplified by node-0/frailty factors. This
            // also keeps the self-exciting process subcritical.
            let boost = |root: RootCause| -> f64 {
                states[node as usize].excitation.boost(root) + rack_states[rack].boost(root)
            };

            // Channel hazards: multiplied base + capped additive excess.
            let n0 = |m: f64| if is_node0 { m } else { 1.0 };
            let caps = &spec.excess_caps;
            let excess = |root: RootCause, base: f64, cap: f64| (base * boost(root)).min(cap);

            let mut hw_rates = [0.0f64; 10];
            let hw_excess = excess(RootCause::Hardware, spec.rates.hardware, caps.hardware);
            let hw_base = spec.rates.hardware * common * n0(spec.node0.hardware) * episode_mult[0];
            let mut hw_total = 0.0;
            for (i, (comp, share)) in hw_shares.iter().enumerate() {
                // CPU faults repeat on themselves (component re-arm)
                // but do not participate in generic follow-up cascades —
                // the paper finds CPUs unaffected by power and
                // temperature problems and uncorrelated with other
                // types. The 1/0.6 renormalizes the excess the CPU
                // gives up onto the other components.
                let r = if *comp == HardwareComponent::Cpu {
                    hw_base * hw_mult[i] * share * cpu_scale
                } else {
                    (hw_base * hw_mult[i] + hw_excess / 0.6) * share
                };
                hw_rates[i] = r;
                hw_total += r;
            }
            let mut sw_rates = [0.0f64; 6];
            let sw_excess = excess(RootCause::Software, spec.rates.software, caps.software);
            let sw_base = spec.rates.software * common * n0(spec.node0.software) * episode_mult[1];
            let mut sw_total = 0.0;
            for (i, (_, share)) in sw_shares.iter().enumerate() {
                let r = (sw_base * sw_mult[i] + sw_excess) * share;
                sw_rates[i] = r;
                sw_total += r;
            }
            let net_rate = spec.rates.network * common * n0(spec.node0.network) * episode_mult[2]
                + excess(RootCause::Network, spec.rates.network, caps.network);
            let human_rate = spec.rates.human * common * n0(spec.node0.human) * episode_mult[3]
                + excess(RootCause::HumanError, spec.rates.human, caps.human);
            let env_rate =
                spec.rates.environment * common * n0(spec.node0.environment) * episode_mult[4]
                    + excess(
                        RootCause::Environment,
                        spec.rates.environment,
                        caps.environment,
                    );

            let total = hw_total + sw_total + net_rate + human_rate + env_rate;
            if total <= 0.0 {
                continue;
            }
            let count = Poisson::new(total.min(50.0)).sample_count(rng).min(5);
            for _ in 0..count {
                // Pick the channel.
                let mut pick = rng.gen_range(0.0..total);
                let (root, sub) = if pick < hw_total {
                    let mut i = 0;
                    while i + 1 < 10 && pick >= hw_rates[i] {
                        pick -= hw_rates[i];
                        i += 1;
                    }
                    (RootCause::Hardware, SubCause::Hardware(hw_shares[i].0))
                } else if pick < hw_total + sw_total {
                    pick -= hw_total;
                    let mut i = 0;
                    while i + 1 < 6 && pick >= sw_rates[i] {
                        pick -= sw_rates[i];
                        i += 1;
                    }
                    (RootCause::Software, SubCause::Software(sw_shares[i].0))
                } else if pick < hw_total + sw_total + net_rate {
                    (RootCause::Network, SubCause::None)
                } else if pick < hw_total + sw_total + net_rate + human_rate {
                    (RootCause::HumanError, SubCause::None)
                } else {
                    // Excited environment follow-ups shortly after a
                    // power/cooling problem are aftershocks of it; fall
                    // back to the system's latest problem for nodes that
                    // did not log the event themselves. Node 0 is the
                    // system's logbook: its environment records refer to
                    // facility problems over a much longer horizon.
                    let horizon = if is_node0 { 60 } else { 15 };
                    let recent = states[node as usize]
                        .recent_env
                        .filter(|&(d, _)| day - d <= horizon)
                        .or(system_recent_env.filter(|&(d, _)| day - d <= horizon));
                    let cause = match recent {
                        Some((_, cause)) if rng.gen_range(0.0..1.0) < 0.85 => cause,
                        _ => EnvironmentCause::Other,
                    };
                    (RootCause::Environment, SubCause::Environment(cause))
                };

                let time =
                    Timestamp::from_seconds(day as i64 * 86_400 + rng.gen_range(0..86_400i64));
                record_failure(
                    rng,
                    spec,
                    matrix,
                    &mut states[node as usize],
                    &mut rack_states[rack],
                    &mut failures,
                    &mut maintenance,
                    system,
                    NodeId::new(node),
                    time,
                    day,
                    root,
                    sub,
                );
            }

            // Background unscheduled maintenance.
            if rng.gen_range(0.0..1.0) < 1.0e-4 {
                maintenance.push(MaintenanceRecord {
                    system,
                    node: NodeId::new(node),
                    time: Timestamp::from_seconds(day as i64 * 86_400 + rng.gen_range(0..86_400)),
                    hardware_related: true,
                    scheduled: false,
                });
            }
        }

        // Temperature samples.
        if let (Some(tspec), Some(noise)) = (spec.temperature, temp_noise) {
            let per_day = tspec.samples_per_day.max(1);
            let step = 86_400 / per_day as i64;
            for node in 0..nodes {
                // Benign local hot spots: brief excursions that do not
                // touch the failure hazard. These dominate a node's
                // max/variance statistics, which is why the paper finds
                // temperature aggregates unpredictive — high readings
                // are usually harmless.
                if rng.gen_range(0.0..1.0) < states[node as usize].benign_excursion_rate {
                    let delta = 6.0 + rng.gen_range(0.0..9.0);
                    states[node as usize].excursions.push((day, day + 1, delta));
                }
                let pos = (node % NODES_PER_RACK + 1) as f64;
                let excursion: f64 = states[node as usize]
                    .excursions
                    .iter()
                    .filter(|&&(d0, d1, _)| day >= d0 && day <= d1)
                    .map(|&(_, _, delta)| delta)
                    .sum();
                for k in 0..per_day {
                    let c = tspec.base_celsius
                        + tspec.per_position * pos
                        + excursion
                        + noise.sample(rng);
                    temperatures.push(TemperatureSample {
                        system,
                        node: NodeId::new(node),
                        time: Timestamp::from_seconds(day as i64 * 86_400 + k as i64 * step),
                        celsius: c,
                    });
                }
            }
            for s in &mut states {
                s.excursions.retain(|&(_, d1, _)| d1 >= day);
            }
        }
    }

    hpcfail_obs::counter("synth.records.failure").add(failures.len() as u64);
    hpcfail_obs::counter("synth.records.maintenance").add(maintenance.len() as u64);
    hpcfail_obs::counter("synth.records.temperature").add(temperatures.len() as u64);
    for f in failures {
        builder.push_failure(f);
    }
    for m in maintenance {
        builder.push_maintenance(m);
    }
    for t in temperatures {
        builder.push_temperature(t);
    }
    if let Some(w) = workload {
        hpcfail_obs::counter("synth.records.job").add(w.jobs.len() as u64);
        for j in w.jobs {
            builder.push_job(j);
        }
    }
    builder.build()
}

/// Records a failure: logs it (with label noise), feeds the excitation
/// states, and fires node-local cascades for PSU/fan failures.
#[allow(clippy::too_many_arguments)]
fn record_failure<R: Rng + ?Sized>(
    rng: &mut R,
    spec: &SystemSpec,
    matrix: &ExcitationMatrix,
    state: &mut NodeState,
    rack_state: &mut ExcitationState,
    failures: &mut Vec<FailureRecord>,
    maintenance: &mut Vec<MaintenanceRecord>,
    system: SystemId,
    node: NodeId,
    time: Timestamp,
    day: u32,
    true_root: RootCause,
    sub: SubCause,
) {
    // Excitation uses the true mechanism; the recorded label may be
    // "undetermined" (operator classification noise). With a layout the
    // shared state is the node's rack; without one it is the whole
    // system, coupling only the inherently shared failure types at a
    // small per-node fraction.
    state
        .excitation
        .record(matrix, true_root, spec.excitation_scale);
    if spec.has_layout {
        rack_state.record(
            matrix,
            true_root,
            matrix.rack_fraction * spec.excitation_scale,
        );
    } else {
        rack_state.record_shared(matrix, true_root, 0.06 * spec.excitation_scale);
    }

    if let SubCause::Environment(cause) = sub {
        state.recent_env = Some((day, cause));
    }
    let (root, sub) = if rng.gen_range(0.0..1.0) < spec.undetermined_fraction {
        (RootCause::Undetermined, SubCause::None)
    } else {
        (true_root, sub)
    };
    // Repair times at LANL are heavy-tailed; a lognormal with median
    // ~3h and sigma 1.1 gives a mean near 5.5h with multi-day tails.
    let repair_hours = LogNormal::new(3.0f64.ln(), 1.1)
        .sample(rng)
        .clamp(0.1, 240.0);
    let downtime = Duration::from_seconds((repair_hours * 3600.0) as i64);
    failures.push(FailureRecord::new(system, node, time, root, sub).with_downtime(downtime));

    // Node-local degradation cascades and same-component re-arm.
    match sub {
        SubCause::Hardware(HardwareComponent::PowerSupply) => {
            state.modifiers.extend(
                psu_cascade(day)
                    .into_iter()
                    .map(|m| m.scaled(spec.event_peak_scale)),
            );
            if rng.gen_range(0.0..1.0) < 0.08 {
                push_unscheduled_maintenance(rng, maintenance, system, node, day);
            }
        }
        SubCause::Hardware(HardwareComponent::Fan) => {
            state.modifiers.extend(
                fan_cascade(day)
                    .into_iter()
                    .map(|m| m.scaled(spec.event_peak_scale)),
            );
            let delta = 8.0 + rng.gen_range(0.0..8.0);
            state.excursions.push((day, day + 2, delta));
        }
        SubCause::Hardware(component) => {
            state
                .modifiers
                .push(component_rearm(day, component).scaled(spec.event_peak_scale));
        }
        _ => {}
    }
}

/// Applies one cluster event: env failure records on affected nodes,
/// month-long hazard modifiers, maintenance draws and (for chiller
/// failures) temperature excursions.
#[allow(clippy::too_many_arguments)]
fn apply_cluster_event<R: Rng + ?Sized>(
    rng: &mut R,
    event: &ClusterEvent,
    spec: &SystemSpec,
    options: &SimOptions,
    matrix: &ExcitationMatrix,
    states: &mut [NodeState],
    rack_states: &mut [ExcitationState],
    failures: &mut Vec<FailureRecord>,
    maintenance: &mut Vec<MaintenanceRecord>,
) {
    let system = SystemId::new(spec.id);
    let kind = event.kind;
    let env_p = kind.env_record_probability();
    let maint_p = kind.maintenance_probability();

    // Hazard elevation applies to the whole affected range.
    for node in event.affected.0..event.affected.1 {
        let state = &mut states[node as usize];
        for &(comp, peak) in kind.hw_elevations() {
            state.modifiers.push(
                Modifier::month(event.day, ModifierTarget::Hw(comp), peak)
                    .scaled(spec.event_peak_scale),
            );
        }
        for &(cause, peak) in kind.sw_elevations() {
            state.modifiers.push(
                Modifier::month(event.day, ModifierTarget::Sw(cause), peak)
                    .scaled(spec.event_peak_scale),
            );
        }
        if kind == ClusterEventKind::ChillerFailure {
            state.excursions.push((event.day, event.day + 1, 8.0));
        }
    }

    // ENV failure records and maintenance hit the record zone — the
    // nodes that actually crashed — plus node 0, which as the login
    // node observes most facility problems.
    for node in 0..states.len() as u32 {
        let is_node0 = node == 0 && options.node0_role;
        let in_zone = event.in_record_zone(NodeId::new(node));
        if !in_zone && !is_node0 {
            continue;
        }
        let p = if is_node0 {
            env_p.max(spec.node0.logs_cluster_events)
        } else {
            env_p
        };
        if rng.gen_range(0.0..1.0) < p {
            let jitter = rng.gen_range(0..1800i64);
            let time = Timestamp::from_seconds(event.time.as_seconds() + jitter);
            let rack = if spec.has_layout {
                (node / NODES_PER_RACK) as usize
            } else {
                0
            };
            record_failure(
                rng,
                spec,
                matrix,
                &mut states[node as usize],
                &mut rack_states[rack],
                failures,
                maintenance,
                system,
                NodeId::new(node),
                time,
                event.day,
                RootCause::Environment,
                SubCause::Environment(kind.env_cause()),
            );
        }
        if in_zone && rng.gen_range(0.0..1.0) < maint_p {
            push_unscheduled_maintenance(rng, maintenance, system, NodeId::new(node), event.day);
        }
    }
}

fn push_unscheduled_maintenance<R: Rng + ?Sized>(
    rng: &mut R,
    maintenance: &mut Vec<MaintenanceRecord>,
    system: SystemId,
    node: NodeId,
    day: u32,
) {
    let offset_day = day as i64 + rng.gen_range(1..30i64);
    maintenance.push(MaintenanceRecord {
        system,
        node,
        time: Timestamp::from_seconds(offset_day * 86_400 + rng.gen_range(0..86_400)),
        hardware_related: true,
        scheduled: false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FleetSpec;

    fn demo_fleet() -> GeneratedFleet {
        FleetSpec::demo().generate(7)
    }

    #[test]
    fn deterministic_generation() {
        let a = FleetSpec::demo().generate(11);
        let b = FleetSpec::demo().generate(11);
        assert_eq!(a.trace().total_failures(), b.trace().total_failures());
        let sa = a.trace().system(SystemId::new(20)).unwrap();
        let sb = b.trace().system(SystemId::new(20)).unwrap();
        assert!(sa.failures().eq(sb.failures()));
        assert_eq!(sa.jobs().len(), sb.jobs().len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FleetSpec::demo().generate(1);
        let b = FleetSpec::demo().generate(2);
        let fa = a
            .trace()
            .system(SystemId::new(20))
            .unwrap()
            .failures()
            .len();
        let fb = b
            .trace()
            .system(SystemId::new(20))
            .unwrap()
            .failures()
            .len();
        assert_ne!(
            (fa, a.trace().total_failures()),
            (fb, b.trace().total_failures())
        );
    }

    #[test]
    fn all_records_within_observation_window() {
        let fleet = demo_fleet();
        for sys in fleet.trace().systems() {
            let cfg = sys.config();
            for f in sys.failures() {
                assert!(f.time >= cfg.start && f.time < cfg.end + Duration::from_days(31.0));
                assert!(f.sub_cause.consistent_with(f.root_cause), "{f:?}");
                assert!(f.node.raw() < cfg.nodes);
            }
        }
    }

    #[test]
    fn overall_rate_near_group_targets() {
        let fleet = demo_fleet();
        // Group-1 daily node-failure probability should be within a
        // factor ~2 of the paper's 0.31%.
        let mut node_days = 0f64;
        let mut fails = 0f64;
        for sys in fleet.trace().group_systems(SystemGroup::Group1) {
            node_days += sys.config().nodes as f64 * sys.config().observation_days() as f64;
            fails += sys.failures().len() as f64;
        }
        let rate = fails / node_days;
        assert!(
            rate > 0.002 && rate < 0.009,
            "group-1 daily rate {rate} outside sanity band"
        );
        // Group-2 markedly higher.
        let mut nd2 = 0f64;
        let mut f2 = 0f64;
        for sys in fleet.trace().group_systems(SystemGroup::Group2) {
            nd2 += sys.config().nodes as f64 * sys.config().observation_days() as f64;
            f2 += sys.failures().len() as f64;
        }
        let rate2 = f2 / nd2;
        assert!(
            rate2 > 4.0 * rate,
            "group-2 rate {rate2} not >> group-1 {rate}"
        );
    }

    #[test]
    fn hardware_dominates_root_causes() {
        let fleet = demo_fleet();
        let mut by_root = std::collections::HashMap::new();
        for sys in fleet.trace().systems() {
            for f in sys.failures() {
                *by_root.entry(f.root_cause).or_insert(0u32) += 1;
            }
        }
        let total: u32 = by_root.values().sum();
        let hw = by_root.get(&RootCause::Hardware).copied().unwrap_or(0);
        let share = hw as f64 / total as f64;
        assert!(share > 0.40 && share < 0.75, "hardware share {share}");
        // Undetermined present (label noise).
        assert!(by_root.contains_key(&RootCause::Undetermined));
    }

    #[test]
    fn node0_fails_most() {
        let fleet = demo_fleet();
        let sys = fleet.trace().system(SystemId::new(20)).unwrap();
        let node0 = sys.node_failure_count(NodeId::new(0));
        let rest_max = sys
            .nodes()
            .skip(1)
            .map(|n| sys.node_failure_count(n))
            .max()
            .unwrap();
        let avg = sys.failures().len() as f64 / sys.config().nodes as f64;
        assert!(node0 > rest_max, "node0 {node0} vs max rest {rest_max}");
        assert!(node0 as f64 > 3.0 * avg, "node0 {node0} vs avg {avg}");
    }

    #[test]
    fn layout_and_sensors_present_where_specified() {
        let fleet = demo_fleet();
        let sys20 = fleet.trace().system(SystemId::new(20)).unwrap();
        assert!(sys20.layout().is_some());
        assert!(!sys20.temperatures().is_empty());
        assert!(!sys20.job_columns().is_empty());
        let sys18 = fleet.trace().system(SystemId::new(18)).unwrap();
        assert!(sys18.temperatures().is_empty());
        assert!(sys18.job_columns().is_empty());
        let sys2 = fleet.trace().system(SystemId::new(2)).unwrap();
        assert!(sys2.layout().is_none());
    }

    #[test]
    fn ablation_excitation_off_reduces_clustering() {
        // Disable cluster events in both arms so the comparison
        // isolates the excitation mechanism; use a larger single
        // system so the follow-up fraction is stable.
        let mut spec = FleetSpec::demo();
        spec.systems = vec![crate::spec::SystemSpec::smp(18, 256, 1200)];
        // Frailty also creates (static) cross-type clustering, so turn
        // it off in both arms along with cluster events.
        let on_options = SimOptions {
            cluster_events: false,
            frailty: false,
            ..SimOptions::default()
        };
        let on = spec.generate_with(5, &on_options);
        let options = SimOptions {
            cluster_events: false,
            frailty: false,
            excitation: ExcitationMatrix::disabled(),
            ..SimOptions::default()
        };
        let off = spec.generate_with(5, &options);
        // Compare same-node *cross-root-cause* follow-ups within a
        // week: component re-arm (active in both arms) only repeats the
        // same component, so cross-type clustering isolates the matrix.
        let clustering = |fleet: &GeneratedFleet| {
            let mut pairs = 0u32;
            let mut triggers = 0u32;
            for sys in fleet.trace().group_systems(SystemGroup::Group1) {
                for node in sys.nodes() {
                    let events: Vec<(i64, RootCause)> = sys
                        .node_failures(node)
                        .map(|f| (f.time.as_seconds(), f.root_cause))
                        .collect();
                    for (i, &(t, root)) in events.iter().enumerate() {
                        triggers += 1;
                        if events[i + 1..]
                            .iter()
                            .any(|&(u, r2)| u > t && u - t <= 7 * 86_400 && r2 != root)
                        {
                            pairs += 1;
                        }
                    }
                }
            }
            pairs as f64 / triggers.max(1) as f64
        };
        let c_on = clustering(&on);
        let c_off = clustering(&off);
        assert!(
            c_on > 1.5 * c_off,
            "excitation should raise follow-up fraction: {c_on} vs {c_off}"
        );
    }

    #[test]
    fn maintenance_events_follow_power_problems() {
        let fleet = demo_fleet();
        let mut unscheduled = 0;
        for sys in fleet.trace().systems() {
            unscheduled += sys
                .maintenance()
                .iter()
                .filter(|m| m.is_unscheduled_hardware())
                .count();
        }
        assert!(unscheduled > 0, "no unscheduled maintenance generated");
    }

    #[test]
    fn temperature_mostly_in_ambient_band() {
        let fleet = demo_fleet();
        let sys = fleet.trace().system(SystemId::new(20)).unwrap();
        let temps = sys.temperatures();
        let in_band = temps
            .iter()
            .filter(|t| t.celsius > 15.0 && t.celsius < 40.0)
            .count();
        assert!(in_band as f64 > 0.95 * temps.len() as f64);
        // But excursions exist somewhere above the warning threshold.
        // (Fan failures happen; if none in this seed, skip.)
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::spec::FleetSpec;

    #[test]
    #[ignore]
    fn diag_breakdown() {
        let fleet = FleetSpec::demo().generate(7);
        for sys in fleet.trace().systems() {
            let cfg = sys.config();
            let nd = cfg.nodes as f64 * cfg.observation_days() as f64;
            let mut by_root = std::collections::BTreeMap::new();
            let mut node0 = 0u32;
            let mut env_sub = std::collections::BTreeMap::new();
            for f in sys.failures() {
                *by_root.entry(format!("{}", f.root_cause)).or_insert(0u32) += 1;
                if f.node.raw() == 0 {
                    node0 += 1;
                }
                if let SubCause::Environment(c) = f.sub_cause {
                    *env_sub.entry(format!("{c}")).or_insert(0u32) += 1;
                }
            }
            let total = sys.failures().len();
            println!(
                "=== {} nodes={} days={} total={} rate={:.5}/nd node0={} ({:.3}/day)",
                cfg.name,
                cfg.nodes,
                cfg.observation_days(),
                total,
                total as f64 / nd,
                node0,
                node0 as f64 / cfg.observation_days() as f64
            );
            println!("  roots: {by_root:?}");
            println!("  env subs: {env_sub:?}");
            // per-day histogram tail: max failures in one day
            let mut per_day = std::collections::HashMap::new();
            for f in sys.failures() {
                *per_day.entry(f.time.day_index()).or_insert(0u32) += 1;
            }
            let mut days: Vec<u32> = per_day.values().copied().collect();
            days.sort_unstable_by(|a, b| b.cmp(a));
            println!("  busiest days: {:?}", &days[..days.len().min(10)]);
        }
    }
}

#[cfg(test)]
mod scale_diag {
    use crate::spec::FleetSpec;
    use hpcfail_types::prelude::*;

    #[test]
    #[ignore]
    fn diag_full_scale() {
        let t0 = std::time::Instant::now();
        let fleet = FleetSpec::lanl_scaled(1.0).generate(42);
        println!("generation took {:?}", t0.elapsed());
        let mut nd1 = 0f64;
        let mut f1 = 0f64;
        let mut nd2 = 0f64;
        let mut f2 = 0f64;
        let mut env = 0u64;
        let mut hw = 0u64;
        let mut total = 0u64;
        for sys in fleet.trace().systems() {
            let cfg = sys.config();
            let nd = cfg.nodes as f64 * cfg.observation_days() as f64;
            if cfg.group() == SystemGroup::Group1 {
                nd1 += nd;
                f1 += sys.failures().len() as f64;
            } else {
                nd2 += nd;
                f2 += sys.failures().len() as f64;
            }
            for f in sys.failures() {
                total += 1;
                match f.root_cause {
                    RootCause::Environment => env += 1,
                    RootCause::Hardware => hw += 1,
                    _ => {}
                }
            }
        }
        println!(
            "group1 rate/day {:.5} (target .0031), group2 {:.5} (target .046)",
            f1 / nd1,
            f2 / nd2
        );
        println!(
            "total {total}, env share {:.3} (t .02), hw share {:.3} (t .60)",
            env as f64 / total as f64,
            hw as f64 / total as f64
        );
        let s20 = fleet.trace().system(SystemId::new(20)).unwrap();
        println!(
            "sys20: {} failures, {} jobs, {} temps, node0 {}x avg",
            s20.failures().len(),
            s20.jobs().len(),
            s20.temperatures().len(),
            s20.node_failure_count(NodeId::new(0)) as f64
                / (s20.failures().len() as f64 / s20.config().nodes as f64)
        );
    }
}

#[cfg(test)]
mod env_diag {
    use crate::spec::FleetSpec;
    use hpcfail_types::prelude::*;

    #[test]
    #[ignore]
    fn diag_env_other_sources() {
        let fleet = FleetSpec::lanl_scaled(1.0).generate(42);
        let mut by_sys_node0 = std::collections::BTreeMap::new();
        for sys in fleet.trace().systems() {
            let mut node0 = 0u32;
            let mut rest = 0u32;
            for f in sys.failures() {
                if f.sub_cause == SubCause::Environment(EnvironmentCause::Other) {
                    if f.node.raw() == 0 {
                        node0 += 1
                    } else {
                        rest += 1
                    }
                }
            }
            by_sys_node0.insert(
                sys.config().name.clone(),
                (node0, rest, sys.config().group()),
            );
        }
        for (name, (n0, rest, group)) in by_sys_node0 {
            println!("{name} ({group:?}): node0 {n0}, rest {rest}");
        }
    }
}

#[cfg(test)]
mod share_diag {
    use crate::spec::FleetSpec;
    use hpcfail_types::prelude::*;

    #[test]
    #[ignore]
    fn diag_component_shares() {
        let fleet = FleetSpec::lanl_scaled(1.0).generate(42);
        let mut counts = std::collections::BTreeMap::new();
        let mut hw_total = 0u64;
        for sys in fleet.trace().systems() {
            for f in sys.failures() {
                if let SubCause::Hardware(c) = f.sub_cause {
                    *counts.entry(c.label()).or_insert(0u64) += 1;
                    hw_total += 1;
                }
            }
        }
        for (c, n) in counts {
            println!("{c}: {n} ({:.3})", n as f64 / hw_total as f64);
        }
    }
}

#[cfg(test)]
mod pick_diag {
    use crate::spec::FleetSpec;
    use hpcfail_types::prelude::*;

    #[test]
    #[ignore]
    fn diag_demo_components() {
        for seed in [1u64, 2, 3] {
            let fleet = FleetSpec::demo().generate(seed);
            let mut cpu = 0;
            let mut mem = 0;
            for sys in fleet.trace().systems() {
                for f in sys.failures() {
                    match f.sub_cause {
                        SubCause::Hardware(HardwareComponent::Cpu) => cpu += 1,
                        SubCause::Hardware(HardwareComponent::MemoryDimm) => mem += 1,
                        _ => {}
                    }
                }
            }
            println!("seed {seed}: cpu {cpu}, mem {mem}");
        }
    }
}
