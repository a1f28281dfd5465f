//! R-T1 — The power-gating circuit design space.
//!
//! Reconstructs the paper's circuit-characterization table: sweep the
//! sleep-transistor width ratio and report every figure of merit plus the
//! resulting break-even time. Pure circuit model, no simulation.

use mapg::RunReport;
use mapg_power::{PgCircuitDesign, TechnologyParams};

use crate::experiments::Plan;
use crate::scale::Scale;
use crate::table::Table;

/// Width ratios swept (1 % .. 20 %, bracketing the paper's fast-wakeup
/// point at 3 %).
pub const WIDTH_RATIOS: [f64; 8] = [0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2];

/// No runs: the table is analytic.
pub fn plan(_scale: Scale) -> Plan {
    Vec::new()
}

/// Renders the table.
pub fn render(_scale: Scale, _reports: &[RunReport]) -> Vec<Table> {
    let tech = TechnologyParams::bulk_45nm();
    let clock = tech.nominal_clock();
    let mut table = Table::new(
        "R-T1",
        "PG circuit design space (45 nm, 1.0 V, 2 GHz)",
        vec![
            "width%",
            "t_entry",
            "t_wake",
            "wake_cyc",
            "residual%",
            "E_trans",
            "area%",
            "I_rush",
            "BET_cyc",
        ],
    );
    for design in PgCircuitDesign::design_space(&tech, &WIDTH_RATIOS) {
        table.push_row(vec![
            format!("{:.1}", design.switch_width_ratio() * 100.0),
            format!("{:.1} ns", design.entry_time().as_nanos()),
            format!("{:.1} ns", design.wakeup_time().as_nanos()),
            design.wakeup_cycles(clock).raw().to_string(),
            format!("{:.1}", design.residual_leakage().as_percent()),
            format!("{:.1} nJ", design.transition_energy().as_joules() * 1e9),
            format!("{:.1}", design.area_overhead().as_percent()),
            format!("{}", design.rush_current()),
            design.break_even_cycles(&tech, clock).raw().to_string(),
        ]);
    }
    table.push_note(
        "MAPG design point: 3% width — wake hidden under a DRAM access, \
         break-even below one loaded round trip",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    #[test]
    fn sweep_covers_all_ratios() {
        let tables = smoke("R-T1");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows().len(), WIDTH_RATIOS.len());
    }

    #[test]
    fn wake_cycles_fall_with_width() {
        let table = &smoke("R-T1")[0];
        let wake: Vec<u64> = (0..table.rows().len())
            .map(|i| {
                table
                    .cell(i, "wake_cyc")
                    .expect("col")
                    .parse()
                    .expect("num")
            })
            .collect();
        for pair in wake.windows(2) {
            assert!(pair[0] >= pair[1], "wake cycles must fall: {wake:?}");
        }
    }
}
