//! R-F4 — Sensitivity to the break-even threshold.
//!
//! Sweeps the policy's break-even guard multiplier (effective gating
//! threshold = guard × BET) on a memory-bound and a compute-bound workload.
//! Low thresholds over-gate (transition energy on short stalls); high
//! thresholds leave long stalls unharvested. The figure locates the knee.

use mapg::{PolicyKind, RunReport};
use mapg_trace::WorkloadProfile;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// Guard multipliers swept, in quarters of the break-even time: 0 to 8×
/// BET.
pub const GUARDS: [u32; 7] = [0, 1, 2, 4, 8, 16, 32];

/// Per profile: the no-gating baseline, then one run per guard.
pub fn plan(scale: Scale) -> Plan {
    [
        WorkloadProfile::mem_bound("mem_bound"),
        WorkloadProfile::compute_bound("compute_bound"),
    ]
    .into_iter()
    .flat_map(|profile| {
        let base = base_config(scale).with_profile(profile);
        std::iter::once(PolicyKind::NoGating)
            .chain(GUARDS.map(|quarter_bets| PolicyKind::MapgGuard { quarter_bets }))
            .map(move |policy| (base.clone(), policy))
    })
    .collect()
}

/// Renders one table per profile.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let mut tables = Vec::new();
    for reports in reports.chunks(1 + GUARDS.len()) {
        let (baseline, swept) = reports.split_first().expect("baseline first");
        let mut table = Table::new(
            "R-F4",
            format!("break-even guard sweep — {}", baseline.workload),
            vec![
                "guard×BET",
                "gated%",
                "core_E_savings",
                "perf_overhead",
                "EDP_delta",
            ],
        );
        for (guard, report) in GUARDS.iter().zip(swept) {
            table.push_row(vec![
                format!("{:.2}", f64::from(*guard) / 4.0),
                format!("{:.1}", report.gating.gated_fraction() * 100.0),
                pct(report.core_energy_savings_vs(baseline)),
                pct(report.perf_overhead_vs(baseline)),
                pct(report.edp_delta_vs(baseline)),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    #[test]
    fn two_tables_one_per_extreme() {
        let tables = smoke("R-F4");
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows().len(), GUARDS.len());
        }
    }

    #[test]
    fn higher_guard_gates_less() {
        let tables = smoke("R-F4");
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
