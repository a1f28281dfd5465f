//! R-T2 — Workload characterization.
//!
//! Runs every suite profile without power management and reports the
//! architectural quantities that determine gating opportunity: IPC, LLC
//! MPKI, memory-stall fraction, miss-latency distribution and DRAM
//! row-buffer behaviour.

use mapg::{PolicyKind, RunReport, SuiteRunner};

use crate::experiments::{base_config, suite_for, Plan};
use crate::scale::Scale;
use crate::table::Table;

/// Every suite profile without power management.
pub fn plan(scale: Scale) -> Plan {
    SuiteRunner::new(suite_for(scale), base_config(scale)).plan(&[PolicyKind::NoGating])
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let mut table = Table::new(
        "R-T2",
        "workload characterization (no power management)",
        vec![
            "workload",
            "IPC",
            "LLC_MPKI",
            "stall%",
            "mlp%",
            "dep%",
            "miss_avg",
            "miss_p95",
            "rowhit%",
            "stalls/Mi",
        ],
    );
    for report in reports {
        let stalls_per_mi = report.gating.stalls as f64 * 1e6 / report.instructions as f64;
        let core = &report.core_stats[0];
        let share = |cycles: u64| {
            if core.stall_cycles == 0 {
                0.0
            } else {
                cycles as f64 * 100.0 / core.stall_cycles as f64
            }
        };
        table.push_row(vec![
            report.workload.clone(),
            format!("{:.2}", report.ipc()),
            format!("{:.1}", report.memory.llc_mpki(report.instructions)),
            format!("{:.1}", report.stall_fraction() * 100.0),
            format!("{:.0}", share(core.mlp_stall_cycles)),
            format!("{:.0}", share(core.dependency_stall_cycles)),
            report.memory.miss_latency.mean().to_string(),
            report.memory.miss_latency.percentile(0.95).to_string(),
            format!("{:.1}", report.memory.dram.row_hit_rate() * 100.0),
            format!("{stalls_per_mi:.0}"),
        ]);
    }
    table.push_note(
        "stand-in profiles tuned to published SPEC CPU2006 MPKI ranges; \
         see DESIGN.md §2",
    );
    table.push_note(
        "mlp%/dep% split the stall cycles by cause: MLP-limit waits vs \
         dependent (pointer-chase) waits",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use crate::experiments::smoke;

    #[test]
    fn characterizes_every_profile() {
        let tables = smoke("R-T2");
        assert_eq!(tables[0].rows().len(), 2, "extremes suite at smoke");
    }

    #[test]
    fn mem_bound_stalls_more_than_compute_bound() {
        let table = &smoke("R-T2")[0];
        let stall =
            |i: usize| -> f64 { table.cell(i, "stall%").expect("col").parse().expect("num") };
        assert!(stall(0) > stall(1), "mem_bound first in extremes suite");
    }
}
