//! R-F6 — Sensitivity to DRAM latency (the memory wall).
//!
//! Scales the DRAM core timing parameters from 0.5× to 4× and reports
//! MAPG's savings on the extremes. Longer memory latency means longer
//! stalls, more of them above the break-even time, and larger savings —
//! the trend that made memory-access gating increasingly attractive.

use mapg::{PolicyKind, RunReport};
use mapg_mem::{DramConfig, HierarchyConfig};

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// DRAM latency multipliers swept.
pub const LATENCY_SCALES: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 4.0];

/// No-gating and MAPG at each DRAM latency scale.
pub fn plan(scale: Scale) -> Plan {
    let mut runs = Vec::new();
    for &factor in &LATENCY_SCALES {
        let memory = HierarchyConfig {
            dram: DramConfig::ddr3_1333().with_latency_scaled(factor),
            ..HierarchyConfig::baseline()
        };
        let config = base_config(scale).with_memory(memory);
        runs.push((config.clone(), PolicyKind::NoGating));
        runs.push((config, PolicyKind::Mapg));
    }
    runs
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let mut table = Table::new(
        "R-F6",
        "DRAM latency scaling (mem_bound workload)",
        vec![
            "dram_scale",
            "miss_avg",
            "stall%",
            "mapg_savings",
            "mapg_overhead",
            "gated%",
        ],
    );
    for (&factor, pair) in LATENCY_SCALES.iter().zip(reports.chunks(2)) {
        let [baseline, mapg] = pair else {
            unreachable!()
        };
        table.push_row(vec![
            format!("{factor:.1}x"),
            baseline.memory.miss_latency.mean().to_string(),
            format!("{:.1}", baseline.stall_fraction() * 100.0),
            pct(mapg.core_energy_savings_vs(baseline)),
            pct(mapg.perf_overhead_vs(baseline)),
            format!("{:.1}", mapg.gating.gated_fraction() * 100.0),
        ]);
    }
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
    fn savings_grow_with_memory_latency() {
        let table = &smoke("R-F6")[0];
        let first = parse_pct(table.cell(0, "mapg_savings").expect("cell"));
        let last = parse_pct(
            table
                .cell(LATENCY_SCALES.len() - 1, "mapg_savings")
                .expect("cell"),
        );
        assert!(
            last > first,
            "4x DRAM latency should increase savings: {first} -> {last}"
        );
    }

    #[test]
    fn stall_fraction_grows_with_latency() {
        let table = &smoke("R-F6")[0];
        let first: f64 = table.cell(0, "stall%").expect("cell").parse().expect("num");
        let last: f64 = table
            .cell(LATENCY_SCALES.len() - 1, "stall%")
            .expect("cell")
            .parse()
            .expect("num");
        assert!(last > first);
    }
}
