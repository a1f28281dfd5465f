//! R-F13 (extension) — Thermal feedback on leakage.
//!
//! Leakage rises with temperature and temperature rises with power, so a
//! gating policy's first-order savings buy a cooler die that leaks less
//! even while active — a second-order bonus. For each policy, this table
//! feeds the run's average dynamic and (reference-temperature) leakage
//! power into the steady-state thermal solver and reports the compounded
//! effect.

use mapg::{PolicyKind, RunReport};
use mapg_power::{EnergyCategory, ThermalParams};
use mapg_units::Watts;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// Splits a report's average core power into (dynamic-ish, leakage-ish)
/// components at the characterization temperature.
fn average_power_split(report: &RunReport) -> (Watts, Watts) {
    let runtime = report.runtime;
    let dynamic = (report.energy.get(EnergyCategory::ActiveDynamic)
        + report.energy.get(EnergyCategory::Transition))
        / runtime;
    let leakage = report.leakage_energy() / runtime;
    (dynamic, leakage)
}

/// Each policy on the base workload, the no-gating baseline first.
pub fn plan(scale: Scale) -> Plan {
    [
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::Mapg,
        PolicyKind::MapgOracle,
    ]
    .map(|policy| (base_config(scale), policy))
    .to_vec()
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let thermal = ThermalParams::embedded();
    let mut table = Table::new(
        "R-F13",
        "thermal feedback (mem_bound): steady state per policy",
        vec![
            "policy",
            "avg_dyn",
            "avg_leak_ref",
            "T_ss",
            "leak_scale",
            "P_total",
            "compounded_savings",
        ],
    );
    let mut baseline_power: Option<Watts> = None;
    for report in reports {
        let (dynamic, leakage) = average_power_split(report);
        let point = thermal
            .steady_state(dynamic, leakage)
            .expect("parameters are well inside stability");
        let baseline = *baseline_power.get_or_insert(point.total_power);
        table.push_row(vec![
            report.policy.to_owned(),
            format!("{dynamic}"),
            format!("{leakage}"),
            format!("{:.1} C", point.temperature_c),
            format!("{:.3}", point.leakage_scale),
            format!("{}", point.total_power),
            pct(1.0 - point.total_power / baseline),
        ]);
    }
    table.push_note(
        "compounded_savings includes the second-order effect: less power \
         -> cooler die -> lower leakage scale -> less power",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use crate::experiments::smoke;

    #[test]
    fn gating_runs_cooler_than_no_gating() {
        let table = &smoke("R-F13")[0];
        let temp = |i: usize| -> f64 {
            table
                .cell(i, "T_ss")
                .expect("cell")
                .trim_end_matches(" C")
                .parse()
                .expect("num")
        };
        // Rows: no-gating, clock-gating, mapg, mapg-oracle.
        assert!(temp(2) < temp(0), "mapg must run cooler than no-gating");
        assert!(temp(3) <= temp(2) + 0.5, "oracle at most marginally warmer");
    }

    #[test]
    fn leak_scale_tracks_temperature() {
        let table = &smoke("R-F13")[0];
        let scale_of = |i: usize| -> f64 {
            table
                .cell(i, "leak_scale")
                .expect("cell")
                .parse()
                .expect("num")
        };
        assert!(scale_of(2) < scale_of(0));
    }

    #[test]
    fn baseline_compounded_savings_is_zero() {
        let table = &smoke("R-F13")[0];
        assert_eq!(table.cell(0, "compounded_savings"), Some("+0.0%"));
    }
}
