//! The `hpcfail-serve` binary's argument checks, run through the real
//! executable.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--scale NaN` is refused with a usage error before any trace is
/// generated or any socket is bound.
#[test]
fn serve_refuses_nan_scale_with_a_usage_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcfail-serve"))
        .args(["serve", "--addr", "127.0.0.1:0", "--scale", "NaN"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hpcfail-serve starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("hpcfail-serve --scale NaN still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect output");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--scale must be positive"), "{stderr}");
}
