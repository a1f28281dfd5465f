//! R-F12 (extension) — State-retention style ablation.
//!
//! Retentive gating keeps architectural state on a leaky shadow rail;
//! non-retentive gating flushes it, leaking less while asleep but paying a
//! flush (longer entry) and a cold-start refill on every wake. At MAPG's
//! per-stall granularity the wake rate is enormous, so the cold-start tax
//! compounds — this table shows why the paper's design retains state.

use mapg::{PolicyKind, RunReport};
use mapg_power::{PgCircuitDesign, RetentionStyle, TechnologyParams};

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// The retention styles compared, with their labels.
const STYLES: [(&str, RetentionStyle); 2] = [
    ("retentive", RetentionStyle::Retentive),
    ("non-retentive", RetentionStyle::NonRetentive),
];

/// The no-gating baseline, then MAPG under each retention style.
pub fn plan(scale: Scale) -> Plan {
    let mut runs = vec![(base_config(scale), PolicyKind::NoGating)];
    for (_, style) in STYLES {
        runs.push((base_config(scale).with_retention(style), PolicyKind::Mapg));
    }
    runs
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let tech = TechnologyParams::bulk_45nm();
    let clock = tech.nominal_clock();
    let (baseline, swept) = reports.split_first().expect("baseline first");

    let mut table = Table::new(
        "R-F12",
        "retention style ablation (mem_bound, MAPG policy)",
        vec![
            "retention",
            "residual%",
            "entry_cyc",
            "coldstart_cyc",
            "BET_cyc",
            "savings",
            "overhead",
        ],
    );
    for ((label, style), report) in STYLES.into_iter().zip(swept) {
        let circuit = PgCircuitDesign::fast_wakeup(&tech).with_retention(style);
        table.push_row(vec![
            label.to_owned(),
            format!("{:.1}", circuit.residual_leakage().as_percent()),
            circuit.entry_cycles(clock).raw().to_string(),
            circuit.cold_start_cycles(clock).raw().to_string(),
            circuit.break_even_cycles(&tech, clock).raw().to_string(),
            pct(report.core_energy_savings_vs(baseline)),
            pct(report.perf_overhead_vs(baseline)),
        ]);
    }
    table.push_note(
        "per-stall gating wakes ~10^4 times per second of execution: the \
         cold-start tax dominates the residual-leakage win",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use crate::experiments::smoke;

    fn parse_pct(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().expect("pct")
    }

    #[test]
    fn non_retentive_leaks_less_but_costs_more_runtime() {
        let table = &smoke("R-F12")[0];
        let residual = |i: usize| -> f64 {
            table
                .cell(i, "residual%")
                .expect("cell")
                .parse()
                .expect("num")
        };
        assert!(residual(1) < residual(0), "non-retentive leaks less asleep");
        let overhead_retentive = parse_pct(table.cell(0, "overhead").expect("cell"));
        let overhead_flush = parse_pct(table.cell(1, "overhead").expect("cell"));
        assert!(
            overhead_flush > overhead_retentive,
            "cold starts must cost runtime: {overhead_flush} !> {overhead_retentive}"
        );
    }

    #[test]
    fn cold_start_only_for_non_retentive() {
        let table = &smoke("R-F12")[0];
        assert_eq!(table.cell(0, "coldstart_cyc"), Some("0"));
        let flush_cold: u64 = table
            .cell(1, "coldstart_cyc")
            .expect("cell")
            .parse()
            .expect("num");
        assert!(flush_cold > 0);
    }
}
