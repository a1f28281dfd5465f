//! R-F5 — Sensitivity to wake-up latency.
//!
//! Sweeps the sleep-transistor width ratio (which sets the wake-up latency
//! through the circuit model) and reports, for MAPG and the naive policy,
//! the savings and overhead on the memory-bound workload. Shows why the
//! paper's fast-wakeup circuit is load-bearing: slow wake-ups both shrink
//! the break-even window and push penalty onto the critical path.

use mapg::{PolicyKind, RunReport};
use mapg_power::{PgCircuitDesign, TechnologyParams};

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// Width ratios swept (slowest to fastest wake).
pub const WIDTH_RATIOS: [f64; 6] = [0.005, 0.01, 0.02, 0.03, 0.08, 0.2];

/// The no-gating baseline, then MAPG and naive at each width.
pub fn plan(scale: Scale) -> Plan {
    let mut runs = vec![(base_config(scale), PolicyKind::NoGating)];
    for &ratio in &WIDTH_RATIOS {
        let config = base_config(scale).with_switch_width(ratio);
        runs.push((config.clone(), PolicyKind::Mapg));
        runs.push((config, PolicyKind::NaiveOnMiss));
    }
    runs
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let tech = TechnologyParams::bulk_45nm();
    let clock = tech.nominal_clock();
    let (baseline, swept) = reports.split_first().expect("baseline first");

    let mut table = Table::new(
        "R-F5",
        "wake-up latency sweep (mem_bound workload)",
        vec![
            "width%",
            "wake_cyc",
            "BET_cyc",
            "mapg_savings",
            "mapg_overhead",
            "naive_savings",
            "naive_overhead",
        ],
    );
    for (&ratio, pair) in WIDTH_RATIOS.iter().zip(swept.chunks(2)) {
        let circuit = PgCircuitDesign::from_switch_width(ratio, &tech);
        let [mapg, naive] = pair else { unreachable!() };
        table.push_row(vec![
            format!("{:.1}", ratio * 100.0),
            circuit.wakeup_cycles(clock).raw().to_string(),
            circuit.break_even_cycles(&tech, clock).raw().to_string(),
            pct(mapg.core_energy_savings_vs(baseline)),
            pct(mapg.perf_overhead_vs(baseline)),
            pct(naive.core_energy_savings_vs(baseline)),
            pct(naive.perf_overhead_vs(baseline)),
        ]);
    }
    table.push_note(
        "early wake keeps MAPG overhead flat while naive overhead tracks \
         the wake latency",
    );
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
    fn sweep_is_complete() {
        let table = &smoke("R-F5")[0];
        assert_eq!(table.rows().len(), WIDTH_RATIOS.len());
    }

    #[test]
    fn naive_overhead_shrinks_with_faster_wake() {
        let table = &smoke("R-F5")[0];
        let slow = parse_pct(table.cell(0, "naive_overhead").expect("c"));
        let fast = parse_pct(
            table
                .cell(WIDTH_RATIOS.len() - 1, "naive_overhead")
                .expect("c"),
        );
        assert!(
            fast <= slow,
            "faster wake must not increase naive overhead: {fast} vs {slow}"
        );
    }
}
