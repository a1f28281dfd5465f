//! Smoke-runs every registered experiment end-to-end and validates the
//! qualitative claims each reconstructed table/figure must exhibit,
//! regardless of scale.

#![deny(unused)]

use mapg_bench::{experiments, Scale};

#[test]
fn every_experiment_produces_populated_tables() {
    for experiment in experiments::all() {
        let tables = (experiment.run)(Scale::Smoke);
        assert!(!tables.is_empty(), "{} produced nothing", experiment.id);
        for table in &tables {
            assert!(
                !table.rows().is_empty(),
                "{}: table {} is empty",
                experiment.id,
                table.id()
            );
            assert!(!table.title().is_empty());
            // Text and CSV renderings must both be well-formed.
            let text = table.to_text();
            assert!(text.contains(table.id()), "{text}");
            let csv = table.to_csv();
            assert_eq!(
                csv.lines().count(),
                table.rows().len() + 1,
                "{}: CSV row count mismatch",
                table.id()
            );
        }
    }
}

#[test]
fn experiment_registry_round_trips_through_cli_style_lookup() {
    for experiment in experiments::all() {
        let found = experiments::find(experiment.id)
            .unwrap_or_else(|| panic!("{} not found by id", experiment.id));
        assert_eq!(found.id, experiment.id);
        // Lowercase, dash-free form (what a user types).
        let informal = experiment.id.to_ascii_lowercase().replace('-', "");
        assert_eq!(
            experiments::find(&informal).expect("informal lookup").id,
            experiment.id
        );
    }
}

/// Two real computations in one process must agree. Experiment runs are
/// memoized process-wide, so both passes switch the memo off; otherwise
/// the second pass (and, after the test above, the first) would only
/// replay cached reports.
#[test]
fn experiments_are_deterministic() {
    for id in ["R-T2", "R-F1", "R-F9"] {
        let experiment = experiments::find(id).expect("registered");
        let a = experiments::without_run_cache(|| (experiment.run)(Scale::Smoke));
        let b = experiments::without_run_cache(|| (experiment.run)(Scale::Smoke));
        assert_eq!(a.len(), b.len(), "{id}");
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta, tb, "{id}: tables differ between runs");
        }
    }
}
