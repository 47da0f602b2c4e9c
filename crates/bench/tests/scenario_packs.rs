//! Every builtin scenario pack runs the full analysis suite through the
//! real `repro` binary, and a pack's run is deterministic: the seed
//! lives in the pack.

use hpcfail_synth::scenario::builtin_names;
use std::process::Command;

/// The stdout of `repro --scenario PACK --quiet all`, after checking
/// that the run succeeded with an empty stderr.
fn repro_all(pack: &str) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scenario", pack, "--quiet", "all"])
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "{pack}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stderr.is_empty(), "{pack}: --quiet wrote to stderr");
    output.stdout
}

#[test]
fn every_builtin_pack_reproduces_the_full_suite() {
    let packs: Vec<&str> = builtin_names().collect();
    assert_eq!(
        packs,
        [
            "fleet-100k",
            "cascading-power",
            "firmware-wave",
            "network-partition"
        ]
    );
    for pack in packs {
        assert!(!repro_all(pack).is_empty(), "{pack}: empty report");
    }
}

#[test]
fn a_pack_run_is_deterministic() {
    assert!(repro_all("cascading-power") == repro_all("cascading-power"));
}
