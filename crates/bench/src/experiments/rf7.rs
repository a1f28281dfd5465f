//! R-F7 — Predictor comparison.
//!
//! Runs MAPG with each miss-latency predictor on the suite and reports
//! prediction accuracy (fraction within ±25 %, mean absolute error) and
//! the end-to-end consequences (savings, overhead). Shows the gap each
//! predictor leaves to the oracle.

use mapg::{geometric_mean, PolicyKind, PredictorKind, RunReport, SuiteMatrix, SuiteRunner};

use crate::experiments::{base_config, suite_for, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// The suite under no gating and under MAPG with each predictor.
pub fn plan(scale: Scale) -> Plan {
    let mut policies = vec![PolicyKind::NoGating];
    policies.extend(
        PredictorKind::ALL
            .into_iter()
            .map(|predictor| PolicyKind::MapgWith { predictor }),
    );
    SuiteRunner::new(suite_for(scale), base_config(scale)).plan(&policies)
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let matrix = SuiteMatrix::new(reports);

    let mut table = Table::new(
        "R-F7",
        "predictor comparison, geomean across suite",
        vec![
            "predictor",
            "within25%",
            "MAE_cyc",
            "core_E_savings",
            "perf_overhead",
        ],
    );
    for predictor in PredictorKind::ALL {
        let name = predictor.policy_name();
        let workloads = matrix.workloads();
        let mut within = 0.0f64;
        let mut mae = 0.0f64;
        let mut n = 0.0f64;
        for w in &workloads {
            if let Some(score) = matrix
                .get(w, name)
                .and_then(|r| r.predictor.as_ref())
                .filter(|s| s.predictions() > 0)
            {
                within += score.accuracy();
                mae += score.mean_abs_error();
                n += 1.0;
            }
        }
        let savings = 1.0 - matrix.geomean_normalized_energy(name, "no-gating");
        let overhead = geometric_mean(workloads.iter().map(|w| {
            let p = matrix.get(w, name).expect("report");
            let b = matrix.get(w, "no-gating").expect("baseline");
            p.makespan_cycles as f64 / b.makespan_cycles as f64
        })) - 1.0;
        table.push_row(vec![
            name.to_owned(),
            format!("{:.1}%", within / n.max(1.0) * 100.0),
            format!("{:.0}", mae / n.max(1.0)),
            pct(savings),
            pct(overhead),
        ]);
    }
    table.push_note("the oracle row is the upper bound (perfect prediction)");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn parse_pct(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().expect("pct")
    }

    #[test]
    fn all_predictors_present() {
        let table = &smoke("R-F7")[0];
        assert_eq!(table.rows().len(), PredictorKind::ALL.len());
    }

    #[test]
    fn oracle_is_perfectly_accurate() {
        let table = &smoke("R-F7")[0];
        let oracle_row = (0..table.rows().len())
            .find(|&i| table.cell(i, "predictor") == Some("mapg+oracle"))
            .expect("oracle row");
        let accuracy = parse_pct(table.cell(oracle_row, "within25%").expect("cell"));
        assert!((accuracy - 100.0).abs() < 1e-6);
        let mae: f64 = table
            .cell(oracle_row, "MAE_cyc")
            .expect("cell")
            .parse()
            .expect("num");
        assert_eq!(mae, 0.0);
    }

    #[test]
    fn oracle_savings_at_least_static() {
        let table = &smoke("R-F7")[0];
        let savings = |name: &str| -> f64 {
            let row = (0..table.rows().len())
                .find(|&i| table.cell(i, "predictor") == Some(name))
                .expect("row");
            parse_pct(table.cell(row, "core_E_savings").expect("cell"))
        };
        assert!(savings("mapg+oracle") + 0.5 >= savings("mapg+static"));
    }
}
