//! End-to-end tests of the `experiments` and `mapg-fuzz` binaries:
//! argument validation, duplicate-id dedup, `--jobs` byte-equality of
//! stdout, `--out-dir` files, manifests and the fuzz wall-clock budget.

#![deny(unused)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary should spawn")
}

fn run_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mapg-fuzz"))
        .args(args)
        .output()
        .expect("mapg-fuzz binary should spawn")
}

/// A fresh, empty directory unique to this test process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mapg-cli-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_mentions_every_flag_and_the_full_alias() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "--scale",
        "full",
        "--csv",
        "--jobs",
        "--manifest",
        "--metrics",
        "--list",
    ] {
        assert!(text.contains(needle), "help is missing '{needle}': {text}");
    }
}

#[test]
fn scale_error_mentions_the_full_alias() {
    let out = run(&["--scale", "nope"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("full"), "scale error omits the alias: {err}");
}

#[test]
fn full_is_accepted_as_a_scale() {
    // --list short-circuits before any run, but --scale full must parse.
    let out = run(&["--scale", "full", "--list"]);
    assert!(out.status.success(), "{:?}", out);
}

#[test]
fn unknown_flags_are_rejected_as_flags() {
    for flag in ["--cvs", "-x", "--scale=quick"] {
        let out = run(&[flag]);
        assert!(!out.status.success(), "'{flag}' should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("unknown flag '{flag}'")),
            "'{flag}' mis-reported: {err}"
        );
        assert!(err.contains("usage:"), "no usage line for '{flag}': {err}");
        assert!(
            !err.contains("unknown experiment"),
            "'{flag}' fell through to experiment lookup: {err}"
        );
    }
}

/// Options of removed modes — the sharded engine, the channel topology,
/// the passive throughput harness and batch supervision (journal,
/// resume, deadlines, retries, fault injection) — exit through the
/// ordinary unknown-flag usage error, never a panic or a
/// silently-ignored value.
#[test]
fn removed_flags_are_unknown_flags() {
    for flag in [
        "--shards",
        "--threads",
        "--thread-curve",
        "--channels",
        "--bench-throughput",
        "--throughput-baseline",
        "--repeats",
        "--journal",
        "--resume",
        "--deadline-ms",
        "--retries",
        "--inject-panic",
        "--inject-hang",
        "--inject-flaky",
    ] {
        let out = run(&[flag, "2", "--scale", "smoke", "rt1"]);
        assert_eq!(out.status.code(), Some(1), "'{flag}': {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        assert!(err.contains("usage:"), "no usage line for '{flag}': {err}");
        assert!(!err.contains("panicked"), "'{flag}': {err}");
        assert!(out.stdout.is_empty(), "'{flag}' ran experiments anyway");
    }
}

#[test]
fn unknown_experiment_is_still_reported() {
    let out = run(&["nope99"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment 'nope99'"), "{err}");
}

#[test]
fn bad_jobs_values_are_rejected() {
    for args in [&["--jobs"][..], &["--jobs", "0"], &["--jobs", "many"]] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

#[test]
fn duplicate_ids_run_once_with_a_warning() {
    let out = run(&["--scale", "smoke", "--csv", "rt1", "rt1", "R-T1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stdout.matches("# R-T1 — ").count(),
        1,
        "duplicate selection printed more than once: {stdout}"
    );
    assert!(stdout.contains("1 experiment(s)"), "{stdout}");
    assert_eq!(
        stderr.matches("warning: duplicate experiment").count(),
        2,
        "expected one warning per duplicate: {stderr}"
    );
}

#[test]
fn jobs_do_not_change_stdout_bytes() {
    // A slice of the registry that exercises a suite matrix (rt3), a
    // parameter sweep (rf5) and the token/many-core path (rf8), each
    // fanned out as run batches.
    let ids = ["rt3", "rf5", "rf8"];
    let serial = run(&[&["--scale", "smoke", "--csv", "--jobs", "1"][..], &ids].concat());
    let parallel = run(&[&["--scale", "smoke", "--csv", "--jobs", "8"][..], &ids].concat());
    assert!(serial.status.success() && parallel.status.success());
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs 8 stdout diverged from --jobs 1"
    );
}

#[test]
fn manifest_records_the_run() {
    let dir = std::env::temp_dir().join("mapg-experiments-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("manifest.json");
    let out = run(&[
        "--scale",
        "smoke",
        "--csv",
        "--jobs",
        "2",
        "--manifest",
        path.to_str().unwrap(),
        "rt1",
        "rf5",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for needle in [
        "\"schema\": 5",
        "\"metrics\": {",
        "\"counters\": {",
        "\"gates\":",
        "\"scale\": \"smoke\"",
        "\"jobs\": 2",
        "\"id\": \"R-T1\"",
        "\"id\": \"R-F5\"",
        "\"wall_ms\":",
        "\"rows\":",
    ] {
        assert!(json.contains(needle), "manifest missing '{needle}': {json}");
    }
    for gone in ["\"outcome\"", "\"attempts\""] {
        assert!(!json.contains(gone), "schema 5 dropped {gone}: {json}");
    }
}

#[test]
fn manifest_write_failure_is_a_clean_error() {
    let out = run(&[
        "--scale",
        "smoke",
        "--manifest",
        "/nonexistent-dir/manifest.json",
        "rt1",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot write manifest"), "{err}");
}

#[test]
fn metrics_file_records_aggregated_counters() {
    let dir = std::env::temp_dir().join("mapg-experiments-metrics-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let out = run(&[
        "--scale",
        "smoke",
        "--csv",
        "--metrics",
        path.to_str().unwrap(),
        "rt3",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for needle in [
        "\"counters\": {",
        "\"histograms\": {",
        "\"gates\":",
        "\"core_stalls\":",
        "\"gated_duration\":",
        "\"wake_latency\":",
    ] {
        assert!(json.contains(needle), "metrics missing '{needle}': {json}");
    }
    // The aggregate records neither wall times nor the job count — it must
    // stay byte-stable across runs.
    assert!(!json.contains("wall_ms"), "{json}");
    assert!(!json.contains("jobs"), "{json}");
}

#[test]
fn metrics_file_is_byte_identical_across_job_counts() {
    let dir = std::env::temp_dir().join("mapg-experiments-metrics-jobs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let serial_path = dir.join("serial.json");
    let parallel_path = dir.join("parallel.json");
    let ids = ["rt3", "rf8"];
    let serial = run(&[
        &[
            "--scale",
            "smoke",
            "--csv",
            "--jobs",
            "1",
            "--metrics",
            serial_path.to_str().unwrap(),
        ][..],
        &ids,
    ]
    .concat());
    let parallel = run(&[
        &[
            "--scale",
            "smoke",
            "--csv",
            "--jobs",
            "8",
            "--metrics",
            parallel_path.to_str().unwrap(),
        ][..],
        &ids,
    ]
    .concat());
    assert!(serial.status.success() && parallel.status.success());
    let a = std::fs::read(&serial_path).unwrap();
    let b = std::fs::read(&parallel_path).unwrap();
    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&parallel_path).ok();
    assert!(!a.is_empty());
    assert_eq!(a, b, "--jobs 8 metrics diverged from --jobs 1");
}

#[test]
fn metrics_flag_requires_a_path_and_a_writable_target() {
    let out = run(&["--metrics"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--metrics needs an output path"), "{err}");

    let out = run(&[
        "--scale",
        "smoke",
        "--metrics",
        "/nonexistent-dir/metrics.json",
        "rt1",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot write metrics"), "{err}");
}

/// `mapg-fuzz` end-to-end: a tiny clean campaign exits 0 and, with
/// `--manifest`, records schema-5 fuzz provenance (seed, scenario count,
/// executed count, empty findings list) with no experiment entries.
#[test]
fn fuzz_campaign_writes_a_provenance_manifest() {
    let dir = std::env::temp_dir().join("mapg-fuzz-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("manifest.json");
    let out = run_fuzz(&[
        "--scenarios",
        "3",
        "--seed",
        "1",
        "--jobs",
        "2",
        "--manifest",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("clean: 3 scenario(s)"), "{stdout}");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for needle in [
        "\"schema\": 5",
        "\"fuzz\": {",
        "\"seed\": 1",
        "\"scenarios\": 3",
        "\"executed\": 3",
        "\"findings\": []",
        "\"experiments\": []",
    ] {
        assert!(json.contains(needle), "manifest missing '{needle}': {json}");
    }
}

#[test]
fn fuzz_rejects_bad_arguments() {
    for args in [
        &["--scenarios", "0"][..],
        &["--seed", "not-a-number"],
        &["--manifest"],
        &["--frobnicate"],
        // Journaled campaigns were removed.
        &["--journal", "j.json"],
        &["--resume", "j.json"],
    ] {
        let out = run_fuzz(args);
        assert!(!out.status.success(), "{args:?} should be rejected");
    }
}

/// `--out-dir` writes one `<ID>.csv` per experiment, and each file is
/// exactly that experiment's block of the `--csv` stdout.
#[test]
fn out_dir_files_equal_the_csv_stdout_blocks() {
    let dir = temp_dir("out-dir");
    let out = run(&[
        "--scale",
        "smoke",
        "--csv",
        "--jobs",
        "2",
        "--out-dir",
        dir.to_str().unwrap(),
        "rt1",
        "rf5",
        "rt3",
    ]);
    assert!(out.status.success(), "{out:?}");
    let mut expected = String::from("# MAPG reproduction — 3 experiment(s) at Smoke scale\n\n");
    for id in ["R-T1", "R-F5", "R-T3"] {
        let path = dir.join(format!("{id}.csv"));
        let block = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert!(block.starts_with(&format!("# {id} — ")), "{block}");
        expected.push_str(&block);
    }
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_dir_requires_csv() {
    let dir = temp_dir("out-dir-no-csv");
    let out = run(&[
        "--scale",
        "smoke",
        "--out-dir",
        dir.to_str().unwrap(),
        "rt1",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("requires --csv"), "{err}");
    assert!(out.stdout.is_empty(), "rejected run printed output");
    std::fs::remove_dir_all(&dir).ok();
}

/// An `--out-dir` that cannot be created fails before the header is
/// printed and before any experiment runs.
#[test]
fn uncreatable_out_dir_fails_before_running() {
    let dir = temp_dir("out-dir-blocked");
    let file = dir.join("a-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let blocked = file.join("sub");
    let out = run(&[
        "--scale",
        "smoke",
        "--csv",
        "--out-dir",
        blocked.to_str().unwrap(),
        "rt1",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot create --out-dir"), "{err}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run or print before the directory exists: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `mapg-fuzz --max-seconds`: a tiny wall-clock budget stops the
/// campaign early; the run still exits cleanly with a valid manifest
/// recording how many scenarios actually executed.
#[test]
fn fuzz_wall_clock_budget_stops_early_with_a_valid_manifest() {
    let dir = temp_dir("fuzz-budget");
    let manifest = dir.join("manifest.json");
    let out = run_fuzz(&[
        "--scenarios",
        "500",
        "--seed",
        "1",
        "--jobs",
        "2",
        "--max-seconds",
        "0.000001",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = std::fs::read_to_string(&manifest).unwrap();
    assert!(json.contains("\"scenarios\": 500"), "{json}");
    // The budget is racy by nature; executed is whatever got started
    // before it elapsed, and everything else is reported as skipped.
    let executed: u64 = json
        .split("\"executed\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("manifest records executed");
    assert!(executed < 500, "budget should stop early: {json}");
    assert!(stdout.contains("budget:"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_rejects_a_zero_second_budget() {
    let out = run_fuzz(&["--max-seconds", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("invalid budget '0'"), "{err}");
}
