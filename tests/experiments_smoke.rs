//! Smoke-runs every registered experiment end-to-end and validates the
//! qualitative claims each reconstructed table/figure must exhibit,
//! regardless of scale.

#![deny(unused)]

use mapg_bench::{execute_all, experiments, ExperimentJob, OutputFormat, Scale};
use mapg_obs::MetricsHub;

#[test]
fn every_experiment_produces_populated_tables() {
    for experiment in experiments::all() {
        let tables = experiment.run(Scale::Smoke);
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

/// Two real computations in one process must agree, at one worker and at
/// two. Experiment runs are memoized process-wide, so both passes switch
/// the memo off; otherwise the second pass (and, after the test above, the
/// first) would only replay cached reports. Both passes also collect their
/// metrics into an ambient hub: pool workers inherit neither the hub nor
/// the memo switch, so a config built on a worker instead of the calling
/// thread loses its metrics and the two snapshots differ.
#[test]
fn experiments_are_deterministic() {
    let pass = |experiment: &experiments::Experiment, jobs| {
        let hub = MetricsHub::new();
        let tables = mapg_pool::with_default_jobs(jobs, || {
            experiments::without_run_cache(|| {
                mapg_obs::with_ambient_hub(hub.clone(), || experiment.run(Scale::Smoke))
            })
        });
        (tables, hub.snapshot())
    };
    for experiment in experiments::all() {
        let id = experiment.id;
        let (serial, serial_metrics) = pass(&experiment, 1);
        let (parallel, parallel_metrics) = pass(&experiment, 2);
        assert_eq!(serial, parallel, "{id}: tables differ between job counts");
        assert_eq!(
            serial_metrics, parallel_metrics,
            "{id}: metrics differ between job counts"
        );
    }
}

/// The whole registry run as one plan renders, for every experiment, the
/// bytes and the metrics that the experiment renders and collects alone:
/// a run shared across experiments is computed once, yet each experiment
/// still reads and counts it. Both sides compute afresh, so the memo
/// cannot stand in for either.
#[test]
fn one_plan_for_the_registry_matches_each_experiment_alone() {
    let job = |experiment| {
        let mut job = ExperimentJob::new(experiment, Scale::Smoke, OutputFormat::Csv, 2);
        job.metrics_hub = Some(MetricsHub::new());
        job
    };
    let snapshot = |job: &ExperimentJob| job.metrics_hub.as_ref().map(MetricsHub::snapshot);
    let together: Vec<ExperimentJob> = experiments::all().into_iter().map(job).collect();
    let outputs = experiments::without_run_cache(|| execute_all(&together));
    assert_eq!(outputs.len(), together.len());
    for (shared, output) in together.iter().zip(outputs) {
        let id = output.id;
        let alone = job(shared.experiment);
        let alone_output = experiments::without_run_cache(|| alone.execute());
        assert_eq!(
            output.rendered, alone_output.rendered,
            "{id}: tables differ"
        );
        assert_eq!(snapshot(shared), snapshot(&alone), "{id}: metrics differ");
    }
}
