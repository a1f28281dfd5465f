//! R-T4 (extension) — Seed sensitivity of the headline claims.
//!
//! The synthetic workload generator replaces recorded traces, so the
//! headline numbers must be shown to be properties of the *configuration*,
//! not of one lucky seed. This experiment replicates the MAPG-vs-baseline
//! comparison across seeds (paired per seed) and reports mean ± stdev and
//! the 95 % confidence half-width.

use mapg::{PolicyKind, Replication, RunReport};
use mapg_trace::WorkloadProfile;

use crate::experiments::base_config;
use crate::scale::Scale;
use crate::table::Table;

/// Replicas per configuration.
pub const REPLICAS: usize = 8;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "R-T4",
        format!("seed sensitivity over {REPLICAS} paired replicas"),
        vec!["workload", "metric", "mean", "stdev", "ci95", "min..max"],
    );
    for profile in [
        WorkloadProfile::mem_bound("mem_bound"),
        WorkloadProfile::mixed("mixed"),
    ] {
        let config = base_config(scale).with_profile(profile.clone());
        // One batch: each seed's two runs share a front end.
        let replications =
            Replication::run_policies(config, &[PolicyKind::NoGating, PolicyKind::Mapg], REPLICAS);
        let [baseline, mapg] = &replications[..] else {
            unreachable!("one replication per policy");
        };

        type PairedMetric = fn(&RunReport, &RunReport) -> f64;
        let metrics: [(&str, PairedMetric); 3] = [
            ("savings%", |m, b| m.core_energy_savings_vs(b) * 100.0),
            ("overhead%", |m, b| m.perf_overhead_vs(b) * 100.0),
            ("edp_delta%", |m, b| m.edp_delta_vs(b) * 100.0),
        ];
        for (name, metric) in metrics {
            let summary = mapg.summarize_paired(baseline, metric);
            table.push_row(vec![
                profile.name().to_owned(),
                name.to_owned(),
                format!("{:.2}", summary.mean),
                format!("{:.2}", summary.stdev),
                format!("±{:.2}", summary.ci95_halfwidth()),
                format!("{:.2}..{:.2}", summary.min, summary.max),
            ]);
        }
    }
    table.push_note("paired per seed: MAPG and baseline replicas share workload streams");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_are_stable_across_seeds() {
        let table = &run(Scale::Smoke)[0];
        // Row 0: mem_bound savings%.
        let mean: f64 = table.cell(0, "mean").expect("cell").parse().expect("num");
        let stdev: f64 = table.cell(0, "stdev").expect("cell").parse().expect("num");
        assert!(mean > 20.0, "mem-bound savings mean {mean}");
        assert!(
            stdev < mean * 0.2,
            "savings too noisy: {stdev} vs mean {mean}"
        );
    }

    #[test]
    fn six_rows_two_workloads_three_metrics() {
        let table = &run(Scale::Smoke)[0];
        assert_eq!(table.rows().len(), 6);
    }
}
