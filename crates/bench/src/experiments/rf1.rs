//! R-F1 — Motivation: how much time is spent stalled on memory, and how
//! much of it is gateable.
//!
//! The paper's motivating figure: per benchmark, the fraction of execution
//! time the core sits idle waiting for DRAM, split into stalls longer than
//! the circuit's break-even time (gateable) and shorter ones.

use mapg::{PolicyKind, RunReport, SuiteRunner};
use mapg_power::{PgCircuitDesign, TechnologyParams};

use crate::experiments::{base_config, suite_for, Plan};
use crate::scale::Scale;
use crate::table::Table;

/// Every suite profile without power management.
pub fn plan(scale: Scale) -> Plan {
    SuiteRunner::new(suite_for(scale), base_config(scale)).plan(&[PolicyKind::NoGating])
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let tech = TechnologyParams::bulk_45nm();
    let circuit = PgCircuitDesign::fast_wakeup(&tech);
    let bet = circuit.break_even_cycles(&tech, tech.nominal_clock());

    let mut table = Table::new(
        "R-F1",
        format!("memory-stall time and gateable fraction (BET = {bet})"),
        vec![
            "workload",
            "stall%",
            "stalls_over_BET%",
            "mean_stall",
            "p95_stall",
        ],
    );
    for report in reports {
        // Stall-duration distribution is aggregated across cores.
        let durations =
            report
                .core_stats
                .iter()
                .fold(mapg_mem::LatencyHistogram::new(), |mut acc, core| {
                    acc.merge(&core.stall_durations);
                    acc
                });
        table.push_row(vec![
            report.workload.clone(),
            format!("{:.1}", report.stall_fraction() * 100.0),
            format!("{:.1}", durations.fraction_above(bet) * 100.0),
            durations.mean().to_string(),
            durations.percentile(0.95).to_string(),
        ]);
    }
    table.push_note(
        "stalls_over_BET% is the fraction of stall *events* exceeding the \
         break-even time — the opportunity MAPG harvests",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use crate::experiments::smoke;

    #[test]
    fn memory_bound_opportunity_is_large() {
        let table = &smoke("R-F1")[0];
        let over_bet: f64 = table
            .cell(0, "stalls_over_BET%")
            .expect("cell")
            .parse()
            .expect("num");
        assert!(
            over_bet > 50.0,
            "most mem-bound stalls should exceed BET, got {over_bet}%"
        );
    }
}
