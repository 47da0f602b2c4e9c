//! Property-based tests for the generator: schema validity and
//! determinism under arbitrary seeds and (small) specs.

use hpcfail_synth::spec::{FleetSpec, SystemSpec};
use hpcfail_types::prelude::*;
use proptest::prelude::*;

fn tiny_spec(nodes: u32, days: u32) -> FleetSpec {
    let mut fleet = FleetSpec::demo();
    fleet.systems = vec![SystemSpec::smp(18, nodes.max(3), days.max(120))];
    fleet
}

proptest! {
    // Generation is the expensive part; keep case counts small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_records_respect_schema(seed in 0u64..1_000_000, nodes in 3u32..30, days in 120u32..500) {
        let fleet = tiny_spec(nodes, days).generate(seed);
        for system in fleet.trace().systems() {
            let cfg = system.config();
            let mut last = Timestamp::EPOCH;
            for f in system.failures() {
                prop_assert!(f.node.raw() < cfg.nodes, "node in range");
                prop_assert!(f.sub_cause.consistent_with(f.root_cause));
                prop_assert!(f.time >= cfg.start);
                prop_assert!(f.time >= last, "sorted by time");
                last = f.time;
            }
            for m in system.maintenance() {
                prop_assert!(m.node.raw() < cfg.nodes);
            }
            for j in system.jobs() {
                prop_assert!(j.is_well_formed());
                prop_assert!(j.nodes.iter().all(|n| n.raw() < cfg.nodes));
            }
        }
    }

    #[test]
    fn same_seed_same_fleet(seed in 0u64..1_000_000) {
        let spec = tiny_spec(8, 150);
        let a = spec.generate(seed);
        let b = spec.generate(seed);
        let sa = a.trace().system(SystemId::new(18)).unwrap();
        let sb = b.trace().system(SystemId::new(18)).unwrap();
        prop_assert!(sa.failures().eq(sb.failures()));
        prop_assert_eq!(sa.maintenance(), sb.maintenance());
        prop_assert_eq!(sa.temperatures().len(), sb.temperatures().len());
    }

    #[test]
    fn neutron_counts_positive(seed in 0u64..1_000_000) {
        let fleet = tiny_spec(4, 150).generate(seed);
        prop_assert!(!fleet.trace().neutron_samples().is_empty());
        for s in fleet.trace().neutron_samples() {
            prop_assert!(s.counts_per_minute > 0.0);
        }
    }

    #[test]
    fn undetermined_fraction_roughly_respected(seed in 0u64..100_000) {
        // A larger single system so the share estimate is stable.
        let fleet = tiny_spec(60, 1500).generate(seed);
        let system = fleet.trace().system(SystemId::new(18)).unwrap();
        let total = system.failures().len();
        prop_assume!(total > 150);
        let undet = system
            .failures()
            .filter(|f| f.root_cause == RootCause::Undetermined)
            .count();
        let share = undet as f64 / total as f64;
        // Spec says 10%; allow a generous band.
        prop_assert!(share > 0.015 && share < 0.30, "undetermined share {share}");
    }
}
