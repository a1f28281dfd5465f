//! End-to-end check of the harness at smoke size: every workload, in both
//! modes, prints every metric `BENCHMARK.json` names, with its unit and a
//! finite value; and `BENCHMARK.json` agrees with the metric table the
//! harness and `compare` use.

use std::path::PathBuf;
use std::process::Command;

use mapg::fuzz::{parse_json, JsonValue};
use mapg_benchmark::metrics::{self, END_TO_END, WORKLOADS};

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mapg-benchmark"))
}

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Array(items)) => items,
        other => panic!("'{key}' is not an array: {other:?}"),
    }
}

fn str_field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    entries(&benchmark_json(), key)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_owned(),
                str_field(m, "unit").to_owned(),
            )
        })
        .collect()
}

/// Runs one workload at smoke size; returns the final JSON line.
fn run(workload: &str, trace: u8) -> JsonValue {
    let output = harness()
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse_json(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

#[test]
fn every_declared_metric_is_emitted_for_every_workload() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, names) in [(0, &end_to_end), (1, &per_layer)] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            let attempted = result.get("attempted").and_then(JsonValue::as_u64);
            assert!(attempted >= Some(1), "{workload}: attempted {attempted:?}");
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            let Some(JsonValue::Object(emitted)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            assert_eq!(emitted.len(), names.len(), "{workload} --trace {trace}");
            for (name, unit) in names.iter() {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no {name}"));
                assert_eq!(str_field(metric, "unit"), unit, "{workload}: {name}");
                let value = metric.get("value").and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let doc = benchmark_json();
    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, metric) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_field(entry, "name"), metric.name);
        assert_eq!(str_field(entry, "unit"), metric.unit);
        assert_eq!(str_field(entry, "better"), metric.better.name());
        assert_eq!(
            entry.get("bound").and_then(JsonValue::as_f64),
            Some(metric.bound)
        );
    }
    let layers = entries(&doc, "per_layer");
    let table = metrics::per_layer();
    assert_eq!(layers.len(), table.len());
    for (entry, layer) in layers.iter().zip(&table) {
        assert_eq!(str_field(entry, "name"), layer.name);
        assert_eq!(str_field(entry, "unit"), layer.unit);
        assert_eq!(str_field(entry, "better"), layer.better.name());
    }
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn a_smoke_record_compares_clean_against_itself() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-record.json");
    let record = harness()
        .args(["record", "--smoke", "--out"])
        .arg(&path)
        .output()
        .expect("record runs");
    assert!(
        record.status.success(),
        "{}",
        String::from_utf8_lossy(&record.stderr)
    );
    let compare = harness()
        .arg("compare")
        .args([&path, &path])
        .output()
        .expect("compare runs");
    assert!(compare.status.success());
    let table = String::from_utf8_lossy(&compare.stdout);
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            assert!(
                table
                    .lines()
                    .any(|l| l.starts_with(workload) && l.contains(metric.name)),
                "no {workload} {} row in:\n{table}",
                metric.name
            );
        }
    }
    assert!(!table.contains("worse"), "{table}");
}
