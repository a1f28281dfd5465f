//! Golden-table regression suite.
//!
//! Every registered experiment is rendered at smoke scale exactly the way
//! `experiments --csv` renders it, and compared byte-for-byte against the
//! checked-in golden copy under `tests/golden/`. Any behavioural change to
//! the simulator — policy, substrate, fault model — shows up here as a
//! diff that has to be inspected and re-blessed.
//!
//! To regenerate after an intentional change (see DESIGN.md §8):
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test -p mapg-bench --test golden
//! ```

#![deny(unused)]

use std::fmt::Write as _;
use std::path::PathBuf;

use mapg_bench::experiments::{self, Experiment};
use mapg_bench::Scale;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Renders one experiment exactly as `experiments --csv --scale smoke`
/// prints it (per-table header line + CSV body).
fn render(experiment: &Experiment) -> String {
    let tables = experiment.run(Scale::Smoke);
    let mut out = String::new();
    for table in &tables {
        writeln!(out, "# {} — {}", table.id(), table.title()).expect("string write");
        out.push_str(&table.to_csv());
    }
    out
}

/// First line where two renderings differ, with both versions.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}: expected `{e}`, got `{a}`", i + 1);
        }
    }
    format!(
        "line counts differ: expected {}, got {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn every_experiment_matches_its_golden_table() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let all = experiments::all();
    assert_eq!(all.len(), 20, "registry size changed; update this suite");

    // Render in parallel (bit-identical at any job count — see the
    // parallel-determinism suite); compare serially for readable failures.
    let rendered = mapg_pool::Pool::new(mapg_pool::default_jobs())
        .map(all, |experiment| (experiment, render(&experiment)));

    let mut problems = Vec::new();
    for (experiment, actual) in rendered {
        let path = golden_dir().join(format!("{}.csv", experiment.id.to_lowercase()));
        if update {
            std::fs::write(&path, &actual)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => problems.push(format!(
                "{}: output drifted from {} — {}",
                experiment.id,
                path.display(),
                first_diff(&expected, &actual)
            )),
            Err(e) => problems.push(format!(
                "{}: cannot read {} ({e})",
                experiment.id,
                path.display()
            )),
        }
    }
    assert!(
        problems.is_empty(),
        "golden tables out of sync (re-bless with \
         `UPDATE_GOLDEN=1 cargo test -p mapg-bench --test golden` \
         after verifying the change is intentional):\n{}",
        problems.join("\n")
    );
}

#[test]
fn golden_directory_has_no_strays() {
    let known: Vec<String> = experiments::all()
        .iter()
        .map(|e| format!("{}.csv", e.id.to_lowercase()))
        .collect();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            known.contains(&name),
            "stray golden file '{name}' matches no registered experiment"
        );
    }
}
