//! Bring your own logs: the CSV ingest path for running the analyses on
//! real failure data instead of the synthetic fleet.
//!
//! This example round-trips a trace through the on-disk CSV schema —
//! the same schema you would export your site's failure/job/temperature
//! logs into — and verifies the analyses see identical data.
//!
//! ```text
//! cargo run --example bring_your_own_logs --release
//! ```

use hpcfail::prelude::*;
use hpcfail::store::csv::{load_trace, save_trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating demo fleet (stand-in for your real logs)...");
    let store = FleetSpec::demo().generate(3).into_store();

    // Export to the documented CSV schema.
    let dir = std::env::temp_dir().join("hpcfail-example-trace");
    save_trace(&dir, &store)?;
    println!("wrote CSV files to {}", dir.display());
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        println!(
            "  {} ({} bytes)",
            entry.file_name().to_string_lossy(),
            entry.metadata()?.len()
        );
    }

    // A downstream user starts here: load the directory and analyze.
    let loaded = load_trace(&dir)?;
    println!(
        "\nloaded {} systems, {} failures, {} neutron samples",
        loaded.len(),
        loaded.total_failures(),
        loaded.neutron_samples().len()
    );

    // The loaded trace carries exactly the same records.
    assert_eq!(loaded.total_failures(), store.total_failures());
    for system in store.systems() {
        let reloaded = loaded.system(system.id()).expect("system preserved");
        assert!(reloaded.failures().eq(system.failures()));
        assert_eq!(reloaded.jobs().len(), system.jobs().len());
    }

    // ... and identical analysis results: the engine fingerprints each
    // trace, and identical data means identical fingerprints and
    // byte-identical answers for any request.
    let original = Engine::new(store);
    let reloaded = Engine::new(loaded);
    assert_eq!(original.fingerprint(), reloaded.fingerprint());
    let request = AnalysisRequest::Conditional {
        group: SystemGroup::Group1,
        trigger: FailureClass::Any,
        target: FailureClass::Any,
        window: Window::Week,
        scope: Scope::SameNode,
    };
    let before = original.run(&request).to_json().pretty();
    assert_eq!(before, reloaded.run(&request).to_json().pretty());
    let after = reloaded.correlation().group_conditional(
        SystemGroup::Group1,
        FailureClass::Any,
        FailureClass::Any,
        Window::Week,
        Scope::SameNode,
    );
    println!(
        "\nweekly post-failure probability survives the round-trip: {:.2}% (factor {})",
        after.conditional.estimate() * 100.0,
        after
            .factor()
            .map_or("NA".to_owned(), |f| format!("{f:.1}x")),
    );

    std::fs::remove_dir_all(&dir)?;
    println!("cleaned up {}", dir.display());
    Ok(())
}
