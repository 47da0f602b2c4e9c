//! `repro --write-snapshot FILE` killed at any moment leaves FILE as it
//! was or as the finished write: the snapshot is written to a temporary
//! sibling, synced and renamed over FILE, so no kill can leave a torn
//! file behind.

use hpcfail_store::snapshot::{read_snapshot, write_snapshot};
use hpcfail_synth::FleetSpec;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn start_write(file: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "0.05",
            "--seed",
            "42",
            "--quiet",
            "--write-snapshot",
        ])
        .arg(file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro starts")
}

/// Waits until `child` creates its temporary file (FILE with
/// `.tmp<pid>` appended) and returns when it did; `None` if the child
/// exited first.
fn write_started(child: &mut Child, file: &Path) -> Option<Instant> {
    let mut name = file.as_os_str().to_owned();
    name.push(format!(".tmp{}", child.id()));
    let tmp = PathBuf::from(name);
    loop {
        if tmp.exists() {
            return Some(Instant::now());
        }
        if child.try_wait().expect("child status").is_some() {
            return None;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn a_killed_snapshot_write_leaves_the_old_file_or_the_new_one() {
    let dir = std::env::temp_dir().join(format!("hpcfail-crash-write-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("trace.hpcsnap");

    // One uninterrupted run gives the new content and how long its
    // write takes, from the temporary file appearing to the exit.
    let mut child = start_write(&file);
    let began = write_started(&mut child, &file).expect("the write starts");
    assert!(child.wait().expect("repro runs").success());
    let window = began.elapsed();
    let new = read_snapshot(&file).expect("finished write").fingerprint();

    let old_trace = FleetSpec::demo().generate(7).into_store();
    let old = old_trace.fingerprint();
    assert_ne!(old, new);

    // Kills staggered over the write and a little past it.
    let (mut kept, mut replaced) = (0, 0);
    for step in 0..=10u32 {
        write_snapshot(&file, &old_trace).expect("old snapshot");
        let mut child = start_write(&file);
        if write_started(&mut child, &file).is_some() {
            std::thread::sleep(window * step / 8);
        }
        child.kill().ok();
        child.wait().expect("reaped");
        let found = read_snapshot(&file)
            .unwrap_or_else(|e| panic!("kill {step}/8 into the write left {e}"))
            .fingerprint();
        match found {
            f if f == old => kept += 1,
            f if f == new => replaced += 1,
            f => panic!("kill {step}/8 into the write left fingerprint {f:016x}"),
        }
    }
    assert!(kept > 0, "no kill landed before the rename");
    assert!(replaced > 0, "no write finished");
    std::fs::remove_dir_all(&dir).ok();
}
