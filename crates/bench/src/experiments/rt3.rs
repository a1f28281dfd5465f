//! R-T3 — The headline comparison.
//!
//! For every policy in the comparison set, geometric means across the
//! workload suite of: normalized core energy, leakage-energy savings,
//! normalized runtime, and normalized EDP — all relative to the no-gating
//! baseline. This is the reconstruction of the paper's summary table
//! ("who wins, by roughly what factor").

use mapg::{geometric_mean, PolicyKind, RunReport, SuiteMatrix, SuiteRunner};

use crate::experiments::{base_config, suite_for, Plan};
use crate::scale::Scale;
use crate::table::{pct, ratio, Table};

/// The suite under every policy of the comparison set.
pub fn plan(scale: Scale) -> Plan {
    SuiteRunner::new(suite_for(scale), base_config(scale)).plan(&PolicyKind::COMPARISON_SET)
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let matrix = SuiteMatrix::new(reports);

    let mut table = Table::new(
        "R-T3",
        "policy comparison, geomean across suite (vs no-gating)",
        vec![
            "policy",
            "norm_core_E",
            "leak_savings",
            "norm_runtime",
            "norm_EDP",
            "gated_stall%",
        ],
    );
    let baseline = "no-gating";
    for policy in matrix.policies() {
        let energy = matrix.geomean_normalized_energy(policy, baseline);
        let runtime = matrix.geomean_normalized_runtime(policy, baseline);
        let edp = matrix.geomean_normalized_edp(policy, baseline);
        let leak_savings = 1.0
            - geometric_mean(matrix.workloads().iter().map(|w| {
                let p = matrix.get(w, policy).expect("policy report");
                let b = matrix.get(w, baseline).expect("baseline report");
                p.leakage_energy() / b.leakage_energy()
            }));
        // Arithmetic mean for coverage: geomeans collapse when any
        // workload has zero gated time (compute-bound + never-gating).
        let coverages: Vec<f64> = matrix
            .workloads()
            .iter()
            .map(|w| {
                matrix
                    .get(w, policy)
                    .expect("policy report")
                    .gated_stall_coverage()
            })
            .collect();
        let coverage = coverages.iter().sum::<f64>() / coverages.len().max(1) as f64;
        table.push_row(vec![
            policy.to_owned(),
            ratio(energy),
            pct(leak_savings),
            ratio(runtime),
            ratio(edp),
            format!("{:.1}", coverage * 100.0),
        ]);
    }
    table.push_note("norm_* < 1.0 is better; leak_savings > 0 is better");
    table.push_note(
        "dvfs-stall is idealized (zero-latency V/f switching, infeasible \
         in-era): an optimistic bound, not a deployable policy",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn column(table: &Table, name: &str, col: &str) -> f64 {
        (0..table.rows().len())
            .find(|&i| table.cell(i, "policy") == Some(name))
            .and_then(|i| table.cell(i, col))
            .expect("row")
            .parse()
            .expect("num")
    }

    #[test]
    fn mapg_beats_the_conventional_policies_on_energy() {
        let table = &smoke("R-T3")[0];
        let mapg = column(table, "mapg", "norm_core_E");
        assert!(mapg < column(table, "no-gating", "norm_core_E"));
        assert!(mapg < column(table, "clock-gating", "norm_core_E"));
        assert!(mapg < column(table, "dvfs-stall", "norm_core_E"));
        assert!(mapg < column(table, "timeout", "norm_core_E"));
        // Naive gating may harvest slightly more energy (it never skips),
        // but only within a small band...
        assert!(mapg <= column(table, "naive-on-miss", "norm_core_E") + 0.08);
        // ...while paying clearly more runtime.
        assert!(
            column(table, "mapg", "norm_runtime") < column(table, "naive-on-miss", "norm_runtime")
        );
        // The oracle may only be better.
        assert!(column(table, "mapg-oracle", "norm_core_E") <= mapg + 0.02);
    }

    #[test]
    fn oracle_has_best_edp() {
        let table = &smoke("R-T3")[0];
        let oracle = column(table, "mapg-oracle", "norm_EDP");
        for policy in [
            "no-gating",
            "clock-gating",
            "dvfs-stall",
            "naive-on-miss",
            "timeout",
            "mapg",
        ] {
            assert!(
                oracle <= column(table, policy, "norm_EDP") + 1e-9,
                "{policy} beat the oracle on EDP"
            );
        }
    }

    #[test]
    fn baseline_row_is_unity() {
        let table = &smoke("R-T3")[0];
        let row = (0..table.rows().len())
            .find(|&i| table.cell(i, "policy") == Some("no-gating"))
            .expect("baseline row");
        let energy: f64 = table
            .cell(row, "norm_core_E")
            .expect("cell")
            .parse()
            .expect("num");
        assert!((energy - 1.0).abs() < 1e-9);
    }
}
