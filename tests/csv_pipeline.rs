//! Full CSV pipeline: a generated fleet survives the on-disk round-trip
//! with identical records and identical analysis results.

use hpcfail::prelude::*;
use hpcfail::store::csv::{load_trace, save_trace};

#[test]
fn full_fleet_roundtrip_preserves_analyses() {
    let store = FleetSpec::demo().generate(21).into_store();
    let dir = std::env::temp_dir().join(format!("hpcfail-it-{}", std::process::id()));
    save_trace(&dir, &store).expect("save");
    let loaded = load_trace(&dir).expect("load");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Records identical.
    assert_eq!(loaded.len(), store.len());
    assert_eq!(loaded.total_failures(), store.total_failures());
    for system in store.systems() {
        let other = loaded.system(system.id()).expect("system exists");
        assert!(other.failures().eq(system.failures()));
        assert_eq!(other.job_columns(), system.job_columns());
        assert_eq!(other.maintenance(), system.maintenance());
        assert_eq!(other.temperatures().len(), system.temperatures().len());
        assert_eq!(
            other.layout().map(|l| l.len()),
            system.layout().map(|l| l.len())
        );
    }
    assert_eq!(loaded.neutron_samples(), store.neutron_samples());

    // Analyses identical.
    let before = Engine::new(store);
    let after = Engine::new(loaded);
    for group in SystemGroup::ALL {
        for scope in [Scope::SameNode, Scope::SameRack] {
            let a = before.correlation().group_conditional(
                group,
                FailureClass::Root(RootCause::Hardware),
                FailureClass::Any,
                Window::Week,
                scope,
            );
            let b = after.correlation().group_conditional(
                group,
                FailureClass::Root(RootCause::Hardware),
                FailureClass::Any,
                Window::Week,
                scope,
            );
            assert_eq!(a.conditional, b.conditional);
            assert_eq!(a.baseline, b.baseline);
        }
    }
    let env_a = before.power().env_breakdown();
    let env_b = after.power().env_breakdown();
    assert_eq!(env_a, env_b);
    assert_eq!(before.fingerprint(), after.fingerprint());
}

#[test]
fn loading_missing_directory_fails_cleanly() {
    let missing = std::env::temp_dir().join("hpcfail-does-not-exist-xyz");
    let err = load_trace(&missing).expect_err("must fail");
    // It's an I/O error with a readable message, not a panic.
    assert!(err.to_string().contains("i/o error"), "{err}");
}
