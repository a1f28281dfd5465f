//! R-F10 — Ablations of MAPG's two mechanisms.
//!
//! Compares full MAPG against three ablations on the suite:
//!
//! - `mapg-no-early-wake`: keep the break-even guard, wake reactively;
//!   isolates what the wake-scheduling mechanism buys (runtime).
//! - `mapg-always-gate`: keep early wake, drop the guard; isolates what
//!   the break-even comparison buys (energy on short stalls).
//! - `naive-on-miss`: drop both.

use mapg::{PolicyKind, RunReport, SuiteMatrix, SuiteRunner};
use mapg_mem::{DramConfig, HierarchyConfig};
use mapg_trace::WorkloadProfile;

use crate::experiments::{base_config, suite_for, Plan};
use crate::scale::Scale;
use crate::table::{ratio, Table};

/// The ablation set.
pub const ABLATIONS: [PolicyKind; 5] = [
    PolicyKind::NoGating,
    PolicyKind::Mapg,
    PolicyKind::MapgNoEarlyWake,
    PolicyKind::MapgAlwaysGate,
    PolicyKind::NaiveOnMiss,
];

/// The suite under the ablation set, then the marginal-stall runs: the
/// ablation set and MAPG without nap chaining.
pub fn plan(scale: Scale) -> Plan {
    let mut runs = SuiteRunner::new(suite_for(scale), base_config(scale)).plan(&ABLATIONS);
    // On the regular suite nearly every stall clears the break-even time,
    // so the guard barely discriminates. The second table runs the same
    // ablations where stalls sit *near* the break-even boundary (fast
    // 0.4x-latency memory), which is where the guard earns its keep.
    let marginal_profile = WorkloadProfile::builder("marginal_stalls")
        .mem_refs_per_kilo_inst(90.0)
        .working_set_bytes(128 << 20)
        .spatial_locality(0.5)
        .hot_regions(8)
        .pointer_chase_fraction(0.1)
        .compute_ipc(2.0)
        .build();
    let fast_memory = HierarchyConfig {
        dram: DramConfig::ddr3_1333().with_latency_scaled(0.4),
        ..HierarchyConfig::baseline()
    };
    let marginal_config = base_config(scale)
        .with_profile(marginal_profile)
        .with_memory(fast_memory);
    // The baseline and the four ablations, then MAPG without nap chaining
    // (re-gate after an early wake), the third mechanism.
    runs.extend(
        ABLATIONS
            .into_iter()
            .map(|policy| (marginal_config.clone(), policy)),
    );
    runs.push((marginal_config.without_regate(), PolicyKind::Mapg));
    runs
}

/// Renders the suite table and the marginal-stall table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let (suite, marginal_runs) = reports.split_at(reports.len() - (ABLATIONS.len() + 1));
    let matrix = SuiteMatrix::new(suite);

    let mut table = Table::new(
        "R-F10",
        "mechanism ablations, geomean across suite (vs no-gating)",
        vec!["variant", "norm_core_E", "norm_runtime", "norm_EDP"],
    );
    for policy in matrix.policies() {
        if policy == "no-gating" {
            continue;
        }
        table.push_row(vec![
            policy.to_owned(),
            ratio(matrix.geomean_normalized_energy(policy, "no-gating")),
            ratio(matrix.geomean_normalized_runtime(policy, "no-gating")),
            ratio(matrix.geomean_normalized_edp(policy, "no-gating")),
        ]);
    }
    table.push_note(
        "early wake buys runtime; the break-even guard buys energy — full \
         MAPG needs both",
    );

    let (marginal_baseline, variants) = marginal_runs.split_first().expect("baseline first");
    let labels = ABLATIONS
        .into_iter()
        .skip(1)
        .map(|policy| policy.name())
        .chain(["mapg-no-regate"]);
    let mut marginal = Table::new(
        "R-F10b",
        "ablations near the break-even boundary (0.4x DRAM latency)",
        vec![
            "variant",
            "gated%",
            "norm_core_E",
            "norm_runtime",
            "norm_EDP",
        ],
    );
    for (label, report) in labels.zip(variants) {
        marginal.push_row(vec![
            label.to_owned(),
            format!("{:.1}", report.gating.gated_fraction() * 100.0),
            ratio(report.core_energy() / marginal_baseline.core_energy()),
            ratio(report.makespan_cycles as f64 / marginal_baseline.makespan_cycles as f64),
            ratio(report.edp() / marginal_baseline.edp()),
        ]);
    }
    vec![table, marginal]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn value(table: &Table, variant: &str, col: &str) -> f64 {
        let row = (0..table.rows().len())
            .find(|&i| table.cell(i, "variant") == Some(variant))
            .unwrap_or_else(|| panic!("missing variant {variant}"));
        table.cell(row, col).expect("cell").parse().expect("num")
    }

    #[test]
    fn early_wake_buys_runtime() {
        let table = &smoke("R-F10")[0];
        let with_wake = value(table, "mapg", "norm_runtime");
        let without = value(table, "mapg-no-early-wake", "norm_runtime");
        assert!(
            with_wake <= without + 1e-6,
            "early wake must not be slower: {with_wake} vs {without}"
        );
    }

    #[test]
    fn full_mapg_has_best_edp_among_ablations() {
        let table = &smoke("R-F10")[0];
        let full = value(table, "mapg", "norm_EDP");
        for variant in ["mapg-no-early-wake", "mapg-always-gate", "naive-on-miss"] {
            let ablated = value(table, variant, "norm_EDP");
            assert!(
                full <= ablated + 0.02,
                "{variant} EDP {ablated} beat full MAPG {full}"
            );
        }
    }
}
