//! R-F3 — Per-benchmark performance overhead.
//!
//! Companion figure to R-F2: runtime increase of each policy relative to
//! the no-gating baseline. MAPG's claim is that early-wake scheduling keeps
//! this near zero where the naive and timeout policies pay the full wake
//! latency per gated stall.

use mapg::{PolicyKind, RunReport, SuiteMatrix, SuiteRunner};

use crate::experiments::{base_config, suite_for, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// The suite under every policy of the comparison set: R-T3's runs.
pub fn plan(scale: Scale) -> Plan {
    SuiteRunner::new(suite_for(scale), base_config(scale)).plan(&PolicyKind::COMPARISON_SET)
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let matrix = SuiteMatrix::new(reports);

    let policies: Vec<&str> = matrix
        .policies()
        .into_iter()
        .filter(|&p| p != "no-gating")
        .collect();
    let mut headers = vec!["workload".to_owned()];
    headers.extend(policies.iter().map(|p| p.to_string()));

    let mut table = Table::new(
        "R-F3",
        "runtime overhead vs no-gating (per workload)",
        headers,
    );
    for workload in matrix.workloads() {
        let baseline = matrix.get(workload, "no-gating").expect("baseline");
        let mut row = vec![workload.to_owned()];
        for policy in &policies {
            let report = matrix.get(workload, policy).expect("report");
            row.push(pct(report.perf_overhead_vs(baseline)));
        }
        table.push_row(row);
    }
    table.push_note("positive = slower than no-gating");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn overhead(table: &Table, row: usize, policy: &str) -> f64 {
        table
            .cell(row, policy)
            .expect("cell")
            .trim_end_matches('%')
            .parse()
            .expect("num")
    }

    #[test]
    fn mapg_overhead_below_naive() {
        let table = &smoke("R-F3")[0];
        for row in 0..table.rows().len() {
            let mapg = overhead(table, row, "mapg");
            let naive = overhead(table, row, "naive-on-miss");
            assert!(
                mapg <= naive + 0.2,
                "row {row}: mapg {mapg}% vs naive {naive}%"
            );
        }
    }

    #[test]
    fn zero_latency_policies_have_zero_overhead() {
        let table = &smoke("R-F3")[0];
        for row in 0..table.rows().len() {
            assert_eq!(overhead(table, row, "clock-gating"), 0.0);
            assert_eq!(overhead(table, row, "dvfs-stall"), 0.0);
        }
    }
}
