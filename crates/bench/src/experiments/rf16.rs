//! R-F16 — Graceful degradation under fault injection.
//!
//! Sweeps a fault-intensity multiplier over the moderate [`FaultPlan`]
//! (0 = fault-free, 2 = heavy) and compares, at each point: MAPG with the
//! safe-mode watchdog, MAPG without it, and the naive reactive-wake
//! baseline. Savings and overhead are measured against a no-gating run of
//! the *same* faulty environment, so the DRAM spikes hit every policy
//! equally and the deltas isolate the gating stack's response.
//!
//! The figure this reconstructs: as faults intensify, naive gating and
//! unguarded MAPG bleed performance on slow wakes, dropped tokens and
//! brownout vetoes, while the watchdog detects the regime, demotes power
//! gating to clock gating, and periodically re-arms to probe for recovery —
//! keeping worst-case overhead bounded at the cost of some energy savings.

use mapg::{FaultPlan, PolicyKind, RunReport, SimConfig};
use mapg_trace::WorkloadProfile;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// Intensity multipliers applied to [`FaultPlan::moderate`].
pub const INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// The gating configurations compared at each intensity.
const VARIANTS: [(&str, PolicyKind, bool); 3] = [
    ("mapg+watchdog", PolicyKind::Mapg, true),
    ("mapg", PolicyKind::Mapg, false),
    ("naive", PolicyKind::NaiveOnMiss, false),
];

/// The shared run configuration: two memory-bound cores contending for the
/// DRAM channel with a 2-token wake budget, so every fault class (slow
/// wakes, dropped grants, brownout vetoes, DRAM spikes, corrupt samples)
/// has a target.
fn faulty_config(scale: Scale, intensity: f64) -> SimConfig {
    base_config(scale)
        .with_profile(WorkloadProfile::mem_bound("mem_bound"))
        .with_instructions((scale.instructions() / 2).max(20_000))
        .with_cores(2)
        .with_tokens(2)
        .with_fault_plan(FaultPlan::moderate().with_intensity(intensity))
}

/// [`faulty_config`], with the safe-mode watchdog armed if `watchdog`.
fn variant_config(scale: Scale, intensity: f64, watchdog: bool) -> SimConfig {
    let config = faulty_config(scale, intensity);
    if watchdog {
        config.with_safe_mode_default()
    } else {
        config
    }
}

/// Per intensity: the no-gating baseline, then each variant.
pub fn plan(scale: Scale) -> Plan {
    let mut runs = Vec::new();
    for &intensity in &INTENSITIES {
        runs.push((faulty_config(scale, intensity), PolicyKind::NoGating));
        for &(_, policy, watchdog) in &VARIANTS {
            runs.push((variant_config(scale, intensity, watchdog), policy));
        }
    }
    runs
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let mut table = Table::new(
        "R-F16",
        "fault-intensity sweep: graceful degradation via safe mode",
        vec![
            "intensity",
            "policy",
            "core_E_savings",
            "perf_overhead",
            "faults",
            "violations",
            "wd_entries",
            "wd_recoveries",
            "demoted",
        ],
    );
    for (&intensity, reports) in INTENSITIES.iter().zip(reports.chunks(1 + VARIANTS.len())) {
        let (baseline, variants) = reports.split_first().expect("baseline first");
        for (&(label, _, _), report) in VARIANTS.iter().zip(variants) {
            table.push_row(vec![
                format!("{intensity:.1}"),
                label.to_owned(),
                pct(report.core_energy_savings_vs(baseline)),
                pct(report.perf_overhead_vs(baseline)),
                (report.faults.total() + report.memory.dram.fault_spikes).to_string(),
                report.invariants.total_violations.to_string(),
                report.degradation.safe_mode_entries.to_string(),
                report.degradation.recoveries.to_string(),
                report.degradation.demoted_gates.to_string(),
            ]);
        }
    }
    table.push_note(
        "savings/overhead vs a no-gating run of the same faulty \
         environment; violations are runtime invariant-check failures \
         (must be 0)",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;
    use mapg::Simulation;

    #[test]
    fn sweep_covers_every_variant_and_intensity() {
        let tables = smoke("R-F16");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows().len(), INTENSITIES.len() * VARIANTS.len());
    }

    #[test]
    fn no_run_breaks_an_invariant() {
        let tables = smoke("R-F16");
        for (i, row) in tables[0].rows().iter().enumerate() {
            let violations = tables[0]
                .cell(i, "violations")
                .expect("cell")
                .parse::<u64>()
                .expect("num");
            assert_eq!(violations, 0, "row {i}: {row:?}");
        }
    }

    #[test]
    fn watchdog_bounds_overhead_under_heavy_faults() {
        let scale = Scale::Smoke;
        let intensity = 2.0;
        let run = |watchdog| {
            Simulation::new(variant_config(scale, intensity, watchdog), PolicyKind::Mapg).run()
        };
        let guarded = run(true);
        let unguarded = run(false);
        assert!(
            guarded.degradation.safe_mode_entries > 0,
            "heavy faults must trip the watchdog: {}",
            guarded.degradation
        );
        assert!(
            guarded.degradation.recoveries > 0,
            "the watchdog must re-arm to probe for recovery: {}",
            guarded.degradation
        );
        assert!(
            guarded.makespan_cycles <= unguarded.makespan_cycles,
            "safe mode must not run slower than unguarded gating: \
             {} !<= {}",
            guarded.makespan_cycles,
            unguarded.makespan_cycles
        );
    }
}
