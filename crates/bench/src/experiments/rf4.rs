//! R-F4 — Sensitivity to the break-even threshold.
//!
//! Sweeps the policy's break-even guard multiplier (effective gating
//! threshold = guard × BET) on a memory-bound and a compute-bound workload.
//! Low thresholds over-gate (transition energy on short stalls); high
//! thresholds leave long stalls unharvested. The figure locates the knee.

use mapg::{MapgPolicy, PolicyKind, Simulation};
use mapg_trace::WorkloadProfile;

use crate::experiments::base_config;
use crate::scale::Scale;
use crate::table::{pct, Table};

/// Guard multipliers swept.
pub const GUARDS: [f64; 7] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let profiles = [
        WorkloadProfile::mem_bound("mem_bound"),
        WorkloadProfile::compute_bound("compute_bound"),
    ];
    let mut tables = Vec::new();
    for profile in &profiles {
        let base = base_config(scale).with_profile(profile.clone());
        let baseline = Simulation::new(base.clone(), PolicyKind::NoGating).run();
        let mut table = Table::new(
            "R-F4",
            format!("break-even guard sweep — {}", profile.name()),
            vec![
                "guard×BET",
                "gated%",
                "core_E_savings",
                "perf_overhead",
                "EDP_delta",
            ],
        );
        for &guard in &GUARDS {
            let policy = MapgPolicy::predictive().with_guard(guard);
            let report = Simulation::with_policy(base.clone(), Box::new(policy)).run();
            table.push_row(vec![
                format!("{guard:.2}"),
                format!("{:.1}", report.gating.gated_fraction() * 100.0),
                pct(report.core_energy_savings_vs(&baseline)),
                pct(report.perf_overhead_vs(&baseline)),
                pct(report.edp_delta_vs(&baseline)),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tables_one_per_extreme() {
        let tables = run(Scale::Smoke);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows().len(), GUARDS.len());
        }
    }

    #[test]
    fn higher_guard_gates_less() {
        let tables = run(Scale::Smoke);
        let gated = |t: &Table, i: usize| -> f64 {
            t.cell(i, "gated%").expect("cell").parse().expect("num")
        };
        let mem = &tables[0];
        let first = gated(mem, 0);
        let last = gated(mem, GUARDS.len() - 1);
        assert!(
            first >= last,
            "guard 0 must gate at least as much as guard 8: {first} vs {last}"
        );
    }
}
