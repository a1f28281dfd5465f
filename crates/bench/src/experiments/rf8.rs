//! R-F8 — Many-core scaling with wake tokens.
//!
//! Part 1: scale the core count (shared DRAM) and watch MAPG's savings and
//! overhead. Part 2: at a fixed core count, sweep the wake-token budget —
//! fewer tokens bound the worst-case rush current (peak concurrent wakes)
//! at the price of token-wait penalty. The TAP companion trade-off.

use mapg::{PolicyKind, RunReport};
use mapg_power::{PgCircuitDesign, TechnologyParams};
use mapg_trace::WorkloadProfile;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// A moderated memory-bound profile: at 8–16 cores the full-intensity
/// profile saturates the single DRAM channel so completely (>98 % stall)
/// that makespans become noise-dominated; 40 % intensity keeps the channel
/// loaded but below saturation, so the token trade-off is measurable.
fn multicore_profile() -> WorkloadProfile {
    WorkloadProfile::mem_bound("mem_bound_mc").with_mem_intensity_scaled(0.4)
}

/// Core counts swept in part 1.
pub const CORE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Token budgets swept in part 2 (at 8 cores). `usize::MAX` encodes
/// "unlimited".
pub const TOKEN_BUDGETS: [usize; 4] = [usize::MAX, 4, 2, 1];

/// Part 1: no-gating and MAPG at each core count. Part 2: the 8-core
/// baseline again, as the denominator of part 2's rows, then MAPG at each
/// token budget. The repeated baseline is computed once; its metrics are
/// counted once per part, as two separate runs would count them.
pub fn plan(scale: Scale) -> Plan {
    // Many-core runs multiply work; shrink the per-core budget.
    let per_core = (scale.instructions() / 4).max(10_000);
    let cores_config = |cores: usize| {
        base_config(scale)
            .with_profile(multicore_profile())
            .with_instructions(per_core)
            .with_cores(cores)
    };
    let mut runs = Vec::new();
    for &cores in &CORE_COUNTS {
        runs.push((cores_config(cores), PolicyKind::NoGating));
        runs.push((cores_config(cores), PolicyKind::Mapg));
    }
    runs.push((cores_config(8), PolicyKind::NoGating));
    for &budget in &TOKEN_BUDGETS {
        // 64 tokens is effectively unlimited for 8 cores.
        let tokens = if budget == usize::MAX { 64 } else { budget };
        runs.push((cores_config(8).with_tokens(tokens), PolicyKind::Mapg));
    }
    runs
}

/// Renders both parts.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let (part1, part2) = reports.split_at(2 * CORE_COUNTS.len());
    let mut scaling = Table::new(
        "R-F8a",
        "core-count scaling (mem_bound, shared DRAM, no tokens)",
        vec![
            "cores",
            "stall%",
            "mapg_savings",
            "mapg_overhead",
            "miss_avg",
        ],
    );
    for (&cores, pair) in CORE_COUNTS.iter().zip(part1.chunks(2)) {
        let [baseline, mapg] = pair else {
            unreachable!()
        };
        scaling.push_row(vec![
            cores.to_string(),
            format!("{:.1}", baseline.stall_fraction() * 100.0),
            pct(mapg.core_energy_savings_vs(baseline)),
            pct(mapg.perf_overhead_vs(baseline)),
            baseline.memory.miss_latency.mean().to_string(),
        ]);
    }

    let tech = TechnologyParams::bulk_45nm();
    let per_core_rush = PgCircuitDesign::fast_wakeup(&tech).rush_current();
    let mut tokens = Table::new(
        "R-F8b",
        "wake-token budget sweep (8 cores, mem_bound)",
        vec![
            "tokens",
            "peak_wakes",
            "peak_rush",
            "token_delay_cyc",
            "mapg_savings",
            "mapg_overhead",
        ],
    );
    let (baseline8, swept) = part2.split_first().expect("baseline first");
    for (&budget, report) in TOKEN_BUDGETS.iter().zip(swept) {
        let label = if budget == usize::MAX {
            "inf".to_owned()
        } else {
            budget.to_string()
        };
        let peak = report.peak_concurrent_wakes;
        tokens.push_row(vec![
            label,
            peak.to_string(),
            format!("{}", per_core_rush * peak as f64),
            report.gating.token_delay_cycles.to_string(),
            pct(report.core_energy_savings_vs(baseline8)),
            pct(report.perf_overhead_vs(baseline8)),
        ]);
    }
    tokens.push_note(
        "peak_rush = peak concurrent wakes × per-core inrush; the di/dt \
         budget the token count enforces",
    );
    vec![scaling, tokens]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    #[test]
    fn both_parts_produced() {
        let tables = smoke("R-F8");
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows().len(), CORE_COUNTS.len());
        assert_eq!(tables[1].rows().len(), TOKEN_BUDGETS.len());
    }

    #[test]
    fn token_budget_caps_peak_wakes() {
        let tables = smoke("R-F8");
        let tokens = &tables[1];
        for (i, &budget) in TOKEN_BUDGETS.iter().enumerate() {
            if budget == usize::MAX {
                continue;
            }
            let peak: usize = tokens
                .cell(i, "peak_wakes")
                .expect("cell")
                .parse()
                .expect("num");
            assert!(peak <= budget, "budget {budget} violated with peak {peak}");
        }
    }
}
