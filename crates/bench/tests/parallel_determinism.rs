//! Serial-vs-parallel bit-equality: determinism is enforced, not assumed.
//!
//! Every registered experiment at smoke scale must render byte-identical
//! CSV whether it runs on one worker or many — the acceptance bar for the
//! parallel engine (DESIGN.md §7).
//!
//! Each side runs in its own `experiments` process. The experiment
//! registry memoizes runs process-wide (DESIGN.md §7.1), so a second pass
//! in this process would compare cache hits against the first pass instead
//! of two real computations.

#![deny(unused)]

use std::process::Command;

/// The full registry's smoke-scale CSV from a fresh `experiments
/// --jobs <jobs>` process.
fn render_all(jobs: usize) -> String {
    let jobs = jobs.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "smoke", "--csv", "--jobs", &jobs])
        .output()
        .expect("experiments binary should spawn");
    assert!(
        out.status.success(),
        "--jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CSV is UTF-8")
}

#[test]
fn every_experiment_is_bit_identical_serial_vs_parallel() {
    let serial = render_all(1);
    let tables = serial.lines().filter(|l| l.starts_with("# R-")).count();
    assert!(
        tables >= 20,
        "expected every experiment's tables, got {tables}"
    );
    assert_eq!(serial, render_all(4), "parallel CSV diverged from serial");
}
