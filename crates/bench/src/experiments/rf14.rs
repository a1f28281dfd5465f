//! R-F14 (extension) — MAPG vs an interval-based memory-aware DVFS
//! governor.
//!
//! Per-stall DVFS is physically impossible (R-T3's idealized bound), but
//! *interval*-granularity DVFS — downclock during memory-bound phases — was
//! the era's deployable alternative. This experiment pits measured MAPG
//! runs against the analytic best case of such a governor (perfect phase
//! detection, free transitions; see
//! [`OperatingPoint::estimate_interval_governor`]).

use mapg::{PolicyKind, RunReport};
use mapg_power::{OperatingPoint, PgCircuitDesign, TechnologyParams};
use mapg_trace::WorkloadProfile;
use mapg_units::Cycles;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// The measured policies per workload: the baseline, clock gating, MAPG.
const POLICIES: [PolicyKind; 3] = [
    PolicyKind::NoGating,
    PolicyKind::ClockGating,
    PolicyKind::Mapg,
];

/// Each measured policy on each workload.
pub fn plan(scale: Scale) -> Plan {
    [
        WorkloadProfile::mem_bound("mem_bound"),
        WorkloadProfile::compute_bound("compute_bound"),
    ]
    .into_iter()
    .flat_map(|profile| {
        let config = base_config(scale).with_profile(profile);
        POLICIES.map(|policy| (config.clone(), policy))
    })
    .collect()
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let tech = TechnologyParams::bulk_45nm();
    let mut table = Table::new(
        "R-F14",
        "MAPG vs idealized interval DVFS governor",
        vec![
            "workload",
            "scheme",
            "runtime_delta",
            "core_E_savings",
            "EDP_delta",
        ],
    );
    for reports in reports.chunks(POLICIES.len()) {
        let [baseline, clock_gated, mapg] = reports else {
            unreachable!()
        };
        let clock = tech.nominal_clock();
        let core = &baseline.core_stats[0];
        let active = Cycles::new(core.active_cycles()).at(clock);
        let stalled = Cycles::new(core.stall_cycles).at(clock);
        // The comparable baseline burns clock-gated stalls (leakage only),
        // i.e. the nominal-point governor estimate.
        let (base_runtime, base_energy) =
            OperatingPoint::nominal().estimate_interval_governor(&tech, active, stalled);
        let base_edp = base_energy * base_runtime;

        for point in [OperatingPoint::low(), OperatingPoint::min()] {
            let (runtime, energy) = point.estimate_interval_governor(&tech, active, stalled);
            table.push_row(vec![
                baseline.workload.clone(),
                format!("dvfs@{}", point.name()),
                pct(runtime / base_runtime - 1.0),
                pct(1.0 - energy / base_energy),
                pct((energy * runtime) / base_edp - 1.0),
            ]);
        }

        // Measured MAPG, re-normalized to the same clock-gated baseline.
        table.push_row(vec![
            baseline.workload.clone(),
            "mapg (measured)".to_owned(),
            pct(mapg.perf_overhead_vs(clock_gated)),
            pct(mapg.core_energy_savings_vs(clock_gated)),
            pct(mapg.edp_delta_vs(clock_gated)),
        ]);

        // The techniques compose: gate the stalls AND downclock the active
        // phases. Analytic estimate — the governor's stretched runtime,
        // with the stall leakage term replaced by MAPG's gated residual
        // plus per-stall transition energy.
        let circuit = PgCircuitDesign::fast_wakeup(&tech);
        let point = OperatingPoint::min();
        let f_ratio = point.frequency() / tech.nominal_clock();
        let v_ratio = point.voltage() / tech.vdd();
        let stretched_active = active / f_ratio;
        let runtime = stretched_active + stalled;
        let energy = tech.dynamic_power() * (v_ratio * v_ratio) * active
            + tech.leakage_power() * (v_ratio * v_ratio * v_ratio) * stretched_active
            + circuit.gated_power(&tech) * stalled
            + circuit.transition_energy() * baseline.gating.stalls as f64;
        table.push_row(vec![
            baseline.workload.clone(),
            "mapg+dvfs@min (est)".to_owned(),
            pct(runtime / base_runtime - 1.0),
            pct(1.0 - energy / base_energy),
            pct((energy * runtime) / base_edp - 1.0),
        ]);
    }
    table.push_note(
        "DVFS rows are analytic best cases (perfect phases, free \
         transitions) against a clock-gated baseline; MAPG rows are \
         measured against the clock-gating run",
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

    fn row_of(table: &Table, workload: &str, scheme: &str) -> usize {
        (0..table.rows().len())
            .find(|&i| {
                table.cell(i, "workload") == Some(workload)
                    && table.cell(i, "scheme") == Some(scheme)
            })
            .unwrap_or_else(|| panic!("missing row {workload}/{scheme}"))
    }

    #[test]
    fn mapg_preserves_performance_where_dvfs_cannot() {
        let table = &smoke("R-F14")[0];
        let mapg = row_of(table, "mem_bound", "mapg (measured)");
        let dvfs = row_of(table, "mem_bound", "dvfs@min");
        let mapg_rt = parse_pct(table.cell(mapg, "runtime_delta").expect("c"));
        let dvfs_rt = parse_pct(table.cell(dvfs, "runtime_delta").expect("c"));
        assert!(
            mapg_rt < dvfs_rt / 2.0,
            "MAPG runtime {mapg_rt}% must be far under DVFS {dvfs_rt}%"
        );
    }

    #[test]
    fn combined_scheme_beats_both_constituents_on_memory_bound() {
        let table = &smoke("R-F14")[0];
        let edp = |scheme: &str| {
            let row = row_of(table, "mem_bound", scheme);
            parse_pct(table.cell(row, "EDP_delta").expect("c"))
        };
        let combined = edp("mapg+dvfs@min (est)");
        assert!(combined <= edp("dvfs@min") + 0.5);
        assert!(combined <= edp("mapg (measured)") + 0.5);
    }

    #[test]
    fn dvfs_cheap_on_memory_bound_expensive_on_compute_bound() {
        let table = &smoke("R-F14")[0];
        let mem = row_of(table, "mem_bound", "dvfs@min");
        let cpu = row_of(table, "compute_bound", "dvfs@min");
        let mem_rt = parse_pct(table.cell(mem, "runtime_delta").expect("c"));
        let cpu_rt = parse_pct(table.cell(cpu, "runtime_delta").expect("c"));
        assert!(
            cpu_rt > mem_rt + 20.0,
            "downclocking must hurt compute-bound far more: {cpu_rt} vs {mem_rt}"
        );
    }
}
