//! R-F9 — Technology scaling: leakage-fraction sweep.
//!
//! Re-splits the core's power budget so leakage is 10–60 % of the total
//! (planar scaling projections of the era) and compares clock gating, DVFS
//! and MAPG. Clock gating's savings are capped by the idle dynamic power;
//! MAPG's grow with the leakage share — the crossover is the figure's
//! point.

use mapg::{PolicyKind, RunReport};
use mapg_power::TechnologyParams;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// Leakage fractions swept.
pub const LEAKAGE_FRACTIONS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];

/// The baseline, then the schemes compared against it at each fraction.
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::NoGating,
    PolicyKind::ClockGating,
    PolicyKind::DvfsStall,
    PolicyKind::Mapg,
    PolicyKind::MapgOracle,
];

/// Every policy at each leakage fraction.
pub fn plan(scale: Scale) -> Plan {
    LEAKAGE_FRACTIONS
        .iter()
        .flat_map(|&fraction| {
            let tech = TechnologyParams::bulk_45nm().with_leakage_fraction(fraction);
            let config = base_config(scale).with_tech(tech);
            POLICIES.map(|policy| (config.clone(), policy))
        })
        .collect()
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let mut table = Table::new(
        "R-F9",
        "leakage-fraction sweep (mem_bound): core-energy savings vs no-gating",
        vec![
            "leak_frac",
            "clock_gating",
            "dvfs_stall",
            "mapg",
            "mapg_oracle",
        ],
    );
    for (&fraction, reports) in LEAKAGE_FRACTIONS.iter().zip(reports.chunks(POLICIES.len())) {
        let (baseline, schemes) = reports.split_first().expect("baseline first");
        let mut row = vec![format!("{:.0}%", fraction * 100.0)];
        row.extend(
            schemes
                .iter()
                .map(|r| pct(r.core_energy_savings_vs(baseline))),
        );
        table.push_row(row);
    }
    table.push_note(
        "MAPG's advantage over clock gating widens as leakage grows; \
         clock gating is bounded by the idle-clock share of dynamic power",
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
    fn mapg_savings_grow_with_leakage() {
        let table = &smoke("R-F9")[0];
        let first = parse_pct(table.cell(0, "mapg").expect("cell"));
        let last = parse_pct(
            table
                .cell(LEAKAGE_FRACTIONS.len() - 1, "mapg")
                .expect("cell"),
        );
        assert!(
            last > first,
            "60% leakage should save more than 10%: {first} -> {last}"
        );
    }

    #[test]
    fn mapg_beats_clock_gating_at_high_leakage() {
        let table = &smoke("R-F9")[0];
        let last = LEAKAGE_FRACTIONS.len() - 1;
        let mapg = parse_pct(table.cell(last, "mapg").expect("cell"));
        let clock = parse_pct(table.cell(last, "clock_gating").expect("cell"));
        assert!(mapg > clock, "mapg {mapg} !> clock {clock} at 60% leakage");
    }
}
