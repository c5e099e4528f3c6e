//! `repro` ends quietly when its reader closes stdout early
//! (`repro … | head`): no panic, no backtrace, no exit code 101.

use std::process::{Command, Output, Stdio};

/// Runs `repro` with `args`, its stdout's read end closed before it writes.
fn run_with_stdout_closed(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("repro exits")
}

#[test]
fn a_closed_stdout_ends_every_report_quietly() {
    let store = std::env::temp_dir().join(format!("uplan_broken_pipe_{}", std::process::id()));
    let store = store.to_str().expect("temp paths are UTF-8");
    let _ = std::fs::remove_dir_all(store);
    let seeded = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["corpus", "fixture-ingest", store, "6000"])
        .stdout(Stdio::null())
        .status()
        .expect("repro starts");
    assert!(seeded.success());
    // Radius 0 reports every plan as its own cluster: about 160 KiB of
    // JSON, more than a pipe buffers. `listing1` prints through the
    // experiment path of `main`.
    let commands: [&[&str]; 2] = [
        &[
            "corpus", "query", store, "cluster", "--radius", "0", "--json",
        ],
        &["listing1"],
    ];
    for args in commands {
        let output = run_with_stdout_closed(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(output.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(output.status.success(), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(store).ok();
}
