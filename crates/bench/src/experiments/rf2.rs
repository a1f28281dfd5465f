//! R-F2 — Per-benchmark core-energy savings.
//!
//! The paper's main bar chart: for every workload, core-energy savings of
//! each policy relative to the no-gating baseline. Rows are workloads,
//! columns are policies — each column is one bar series.

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
        "R-F2",
        "core-energy savings vs no-gating (per workload)",
        headers,
    );
    for workload in matrix.workloads() {
        let baseline = matrix.get(workload, "no-gating").expect("baseline");
        let mut row = vec![workload.to_owned()];
        for policy in &policies {
            let report = matrix.get(workload, policy).expect("report");
            row.push(pct(report.core_energy_savings_vs(baseline)));
        }
        table.push_row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use crate::experiments::smoke;

    #[test]
    fn savings_columns_for_all_policies() {
        let table = &smoke("R-F2")[0];
        assert!(table.headers().iter().any(|h| h == "mapg"));
        assert!(table.headers().iter().any(|h| h == "mapg-oracle"));
        assert!(!table.headers().iter().any(|h| h == "no-gating"));
    }

    #[test]
    fn mem_bound_mapg_savings_positive() {
        let table = &smoke("R-F2")[0];
        let cell = table.cell(0, "mapg").expect("cell");
        assert!(
            cell.starts_with('+'),
            "mem-bound MAPG savings should be positive: {cell}"
        );
    }
}
