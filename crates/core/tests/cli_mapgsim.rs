//! End-to-end tests of the `mapgsim` binary's observability flags:
//! `--trace`/`--metrics` happy paths, unwritable targets, and rejected
//! flag combinations. Follows the style of `crates/bench/tests/cli.rs`.

#![deny(unused)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mapgsim"))
        .args(args)
        .output()
        .expect("mapgsim binary should spawn")
}

fn temp_file(dir: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_mentions_the_observability_flags() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("--trace"), "{text}");
    assert!(text.contains("--metrics"), "{text}");
}

#[test]
fn trace_and_metrics_write_valid_artifacts() {
    let trace_path = temp_file("mapgsim-cli-test", "trace.json");
    let metrics_path = temp_file("mapgsim-cli-test", "metrics.json");
    let out = run(&[
        "--instructions",
        "20000",
        "--cores",
        "2",
        "--trace",
        trace_path.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("trace written to"), "{stdout}");
    assert!(stdout.contains("metrics written to"), "{stdout}");

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::remove_file(&trace_path).ok();
    assert!(
        trace.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["),
        "not a Chrome trace: {}",
        &trace[..trace.len().min(120)]
    );
    assert!(trace.ends_with("]}\n"), "trace not terminated");
    for needle in [
        "\"ph\": \"M\"", // metadata naming the core/dram/controller rows
        "\"ph\": \"B\"", // span opens…
        "\"ph\": \"E\"", // …and closes
        "\"name\": \"stall\"",
        "\"name\": \"gated\"",
        "\"name\": \"wake\"",
    ] {
        assert!(trace.contains(needle), "trace missing '{needle}'");
    }

    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    std::fs::remove_file(&metrics_path).ok();
    for needle in [
        "\"counters\": {",
        "\"histograms\": {",
        "\"gates\":",
        "\"stall_length\":",
    ] {
        assert!(
            metrics.contains(needle),
            "metrics missing '{needle}': {metrics}"
        );
    }
}

#[test]
fn capture_runs_print_the_same_report_as_plain_runs() {
    let trace_path = temp_file("mapgsim-cli-report-test", "trace.json");
    let plain = run(&["--instructions", "20000"]);
    let traced = run(&[
        "--instructions",
        "20000",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&trace_path).ok();
    assert!(plain.status.success() && traced.status.success());
    let plain = String::from_utf8(plain.stdout).unwrap();
    let traced = String::from_utf8(traced.stdout).unwrap();
    // Everything except the trailing "trace written" line is identical:
    // observation must not perturb the simulation.
    assert!(traced.starts_with(&plain), "tracing changed the report");
}

/// The faulty, token-limited, safe-mode smoke run writes the committed
/// metrics golden byte for byte, with and without a trace alongside:
/// the metrics must not depend on the trace sink.
#[test]
fn smoke_metrics_match_the_golden_with_and_without_a_trace() {
    let golden = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tracing-smoke-metrics.json"),
    )
    .expect("committed golden");
    let trace_path = temp_file("mapgsim-cli-smoke-test", "trace.json");
    for traced in [true, false] {
        let metrics_path = temp_file(
            "mapgsim-cli-smoke-test",
            if traced { "traced.json" } else { "plain.json" },
        );
        let mut args = vec![
            "--workload",
            "mcf_like",
            "--cores",
            "2",
            "--tokens",
            "2",
            "--fault-plan",
            "moderate",
            "--safe-mode",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ];
        if traced {
            args.extend(["--trace", trace_path.to_str().unwrap()]);
        }
        let out = run(&args);
        assert!(out.status.success(), "{:?}", out);
        let metrics = std::fs::read(&metrics_path).expect("metrics written");
        std::fs::remove_file(&metrics_path).ok();
        assert!(
            metrics == golden,
            "metrics (trace {traced}) differ from the golden:\n{}",
            String::from_utf8_lossy(&metrics)
        );
    }
    std::fs::remove_file(&trace_path).ok();
}

/// Two 16-core runs print their committed reports byte for byte: one
/// whose cores stall only a few hundred times, so the wheel sees long
/// compute runs between shared events, and one whose cores stall and
/// contend for four wake tokens all the time.
#[test]
fn sixteen_core_reports_match_the_goldens() {
    for (golden, workload, extra) in [
        ("compute-bound-16core.txt", "compute_bound", &[][..]),
        (
            "mem-bound-16core-4tokens.txt",
            "mem_bound",
            &["--tokens", "4"][..],
        ),
    ] {
        let expected = std::fs::read(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden")
                .join(golden),
        )
        .expect("committed golden");
        let mut args = vec![
            "--workload",
            workload,
            "--cores",
            "16",
            "--instructions",
            "200000",
        ];
        args.extend(extra);
        let out = run(&args);
        assert!(out.status.success(), "{:?}", out);
        assert!(
            out.stdout == expected,
            "{workload} report differs from {golden}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn unwritable_trace_path_is_a_clean_error() {
    let out = run(&[
        "--instructions",
        "5000",
        "--trace",
        "/nonexistent-dir/trace.json",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: cannot write trace"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn unwritable_metrics_path_is_a_clean_error() {
    let out = run(&[
        "--instructions",
        "5000",
        "--metrics",
        "/nonexistent-dir/metrics.json",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: cannot write metrics"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn capture_flags_reject_compare() {
    for flag in ["--trace", "--metrics"] {
        let out = run(&[flag, "/tmp/out.json", "--compare"]);
        assert!(!out.status.success(), "{flag} with --compare should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("exactly one run"), "{err}");
    }
}

#[test]
fn capture_flags_need_values() {
    for flag in ["--trace", "--metrics", "--repro"] {
        let out = run(&[flag]);
        assert!(!out.status.success(), "bare {flag} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("needs a path"), "{err}");
    }
}

/// Flags from the removed multi-channel topology, sharded engine and
/// supervised (`--deadline-ms`) runs exit through the ordinary
/// unknown-option error: exit 1, no panic, and no report printed as if
/// the flag had been honoured.
#[test]
fn removed_topology_flags_are_unknown_options() {
    for flag in [
        "--shards",
        "--threads",
        "--thread-curve",
        "--channels",
        "--deadline-ms",
    ] {
        let out = run(&["--instructions", "5000", flag, "2"]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("error: unknown option '{flag}'")),
            "{flag}: {err}"
        );
        assert!(!err.contains("panicked"), "{flag}: {err}");
        assert!(out.stdout.is_empty(), "{flag} printed a report");
    }
}

/// Out-of-range run values reach `SimConfig::validate` through
/// `Simulation::try_run`: exit 1 with the validation message, no panic,
/// and no report on stdout.
#[test]
fn out_of_range_values_are_clean_errors() {
    for (flag, value, message) in [
        ("--cores", "0", "need at least one core"),
        ("--instructions", "0", "need at least one instruction"),
        ("--tokens", "0", "token capacity must be non-zero"),
        ("--mshr-entries", "0", "MSHR capacity must be non-zero"),
        ("--dram-banks", "0", "DRAM needs at least one bank"),
        (
            "--switch-width",
            "90",
            "switch width ratio must be in [0.005, 0.2], got 0.9",
        ),
    ] {
        let out = run(&["--instructions", "5000", flag, value]);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err, format!("error: {message}\n"), "{flag} {value}");
        assert!(out.stdout.is_empty(), "{flag} {value} printed a report");
    }
}

fn committed_repro() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros/region-starved-panic.json")
}

/// A committed (fixed) repro replays clean: exit 0 and a provenance line.
#[test]
fn repro_replay_of_a_fixed_bug_exits_zero() {
    let path = committed_repro();
    let out = run(&["--repro", path.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("campaign seed 1"), "{stdout}");
    assert!(stdout.contains("replay     : clean"), "{stdout}");
}

/// `--repro` is self-contained; every run-shaping flag conflicts with it,
/// in either order, and the error names the offending flag.
#[test]
fn repro_rejects_run_shaping_flags() {
    let path = committed_repro();
    let path = path.to_str().unwrap();
    for extra in [
        ["--cores", "4"],
        ["--policy", "mapg"],
        ["--seed", "7"],
        ["--fault-plan", "light"],
        ["--compare", "--safe-mode"],
    ] {
        let out = run(&["--repro", path, extra[0], extra[1]]);
        assert!(!out.status.success(), "{extra:?} should conflict");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error: --repro replays"), "{err}");
        assert!(err.contains(extra[0]), "{err} should name {}", extra[0]);
    }
    // Flag order must not matter.
    let out = run(&["--workload", "mixed", "--repro", path]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--workload"), "{err}");
}

/// A missing repro file gets a usage-style diagnostic that names the
/// offending path, and the exit is nonzero.
#[test]
fn repro_with_missing_file_is_a_clean_error() {
    let out = run(&["--repro", "/nonexistent-dir/repro.json"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: --repro: cannot read"), "{err}");
    assert!(err.contains("/nonexistent-dir/repro.json"), "{err}");
    assert!(err.contains("usage: mapgsim --repro FILE"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// An unparsable repro file likewise: nonzero exit, the path, and the
/// usage hint.
#[test]
fn repro_with_garbage_json_is_a_clean_error() {
    let path = temp_file("mapgsim-cli-repro-test", "garbage.json");
    std::fs::write(&path, "{\"schema\": 1, \"truncated").unwrap();
    let out = run(&["--repro", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: --repro:"), "{err}");
    assert!(err.contains("is not a valid repro file"), "{err}");
    assert!(err.contains(path.to_str().unwrap()), "{err}");
    assert!(err.contains("usage: mapgsim --repro FILE"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// The policy names `mapgsim` accepts, in `--list-policies` order.
const POLICY_NAMES: [&str; 11] = [
    "no-gating",
    "clock-gating",
    "dvfs-stall",
    "naive-on-miss",
    "timeout",
    "mapg",
    "mapg-oracle",
    "mapg-always-gate",
    "mapg-no-early-wake",
    "mapg+ewma",
    "mapg+last-value",
];

#[test]
fn every_listed_policy_runs_under_its_own_name() {
    let out = run(&["--list-policies"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(listed.lines().collect::<Vec<_>>(), POLICY_NAMES);
    for name in POLICY_NAMES {
        let out = run(&["--policy", name, "--instructions", "2000"]);
        assert!(out.status.success(), "{name}: {out:?}");
        let report = String::from_utf8(out.stdout).unwrap();
        let header = format!("[mem_bound / {name}] ");
        assert!(report.starts_with(&header), "{name}: {report}");
    }
}

/// A reader that stops after one line (`mapgsim ... | head -1`) ends the
/// run quietly: exit 0, no panic. `--compare` writes again after its
/// second simulation, by which time the pipe is closed.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_mapgsim"))
        .args(["--instructions", "300000", "--compare"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mapgsim binary should spawn");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("[mem_bound / mapg]"), "{first}");
    let out = child.wait_with_output().expect("mapgsim should exit");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
