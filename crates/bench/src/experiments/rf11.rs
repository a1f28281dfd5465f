//! R-F11 (extension) — Interaction with hardware prefetching.
//!
//! A stream prefetcher converts sequential miss stalls into LLC hits:
//! performance improves, but the stalls MAPG harvests shrink. This
//! experiment quantifies the interaction on a streaming workload
//! (prefetch-friendly) and a pointer-chasing one (prefetch-immune) —
//! an extension beyond the original evaluation, which ran without
//! prefetching.

use mapg::{PolicyKind, RunReport};
use mapg_mem::HierarchyConfig;
use mapg_trace::WorkloadProfile;

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

fn streaming_profile() -> WorkloadProfile {
    // Moderate intensity: sequential misses dominate but the DRAM channel
    // keeps idle slots, so low-priority prefetches actually issue. (A
    // bandwidth-saturated stream gains nothing from prefetching — the
    // drop-under-load throttle sheds almost everything.)
    WorkloadProfile::builder("streaming")
        .mem_refs_per_kilo_inst(90.0)
        .working_set_bytes(256 << 20)
        .spatial_locality(0.97)
        .hot_regions(2)
        .pointer_chase_fraction(0.02)
        .compute_ipc(2.0)
        .build()
}

fn chasing_profile() -> WorkloadProfile {
    WorkloadProfile::builder("pointer_chase")
        .mem_refs_per_kilo_inst(75.0)
        .working_set_bytes(256 << 20)
        .spatial_locality(0.3)
        .hot_regions(6)
        .pointer_chase_fraction(0.6)
        .compute_ipc(1.0)
        .build()
}

/// Per profile, with prefetching off and then on: no-gating, then MAPG.
pub fn plan(scale: Scale) -> Plan {
    let mut runs = Vec::new();
    for profile in [streaming_profile(), chasing_profile()] {
        for memory in [
            HierarchyConfig::baseline(),
            HierarchyConfig::with_stream_prefetcher(),
        ] {
            let config = base_config(scale)
                .with_profile(profile.clone())
                .with_memory(memory);
            runs.push((config.clone(), PolicyKind::NoGating));
            runs.push((config, PolicyKind::Mapg));
        }
    }
    runs
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let mut table = Table::new(
        "R-F11",
        "MAPG x stream prefetching (extension)",
        vec![
            "workload",
            "prefetch",
            "stall%",
            "runtime_vs_noPf",
            "mapg_savings",
            "pf_accuracy",
        ],
    );
    for reports in reports.chunks(4) {
        let no_pf_runtime = reports[0].makespan_cycles;
        for (label, pair) in ["off", "on"].into_iter().zip(reports.chunks(2)) {
            let [baseline, mapg] = pair else {
                unreachable!()
            };
            let runtime_delta = baseline.makespan_cycles as f64 / no_pf_runtime as f64 - 1.0;
            table.push_row(vec![
                baseline.workload.clone(),
                label.to_owned(),
                format!("{:.1}", baseline.stall_fraction() * 100.0),
                pct(runtime_delta),
                pct(mapg.core_energy_savings_vs(baseline)),
                format!("{:.0}%", baseline.memory.prefetch.accuracy() * 100.0),
            ]);
        }
    }
    table.push_note(
        "prefetching shrinks the streaming workload's gateable stalls \
         (savings drop with runtime); the pointer chaser is immune to both",
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
    fn prefetch_cuts_streaming_stalls_but_not_chasing() {
        let table = &smoke("R-F11")[0];
        // Rows: streaming/off, streaming/on, chase/off, chase/on.
        let stall =
            |i: usize| -> f64 { table.cell(i, "stall%").expect("cell").parse().expect("num") };
        assert!(
            stall(1) < stall(0) - 2.0,
            "prefetching should remove streaming stall time: {} !< {}",
            stall(1),
            stall(0)
        );
        assert!(
            (stall(3) - stall(2)).abs() < 2.0,
            "pointer chase should be immune: {} vs {}",
            stall(3),
            stall(2)
        );
        // And it must never slow the program down (drop-under-load bounds
        // the interference).
        let streaming_on = parse_pct(table.cell(1, "runtime_vs_noPf").expect("cell"));
        assert!(streaming_on < 1.0, "runtime regressed: {streaming_on}%");
        // Streaming prefetches are accurate; the chaser never streaks.
        let accuracy = table.cell(1, "pf_accuracy").expect("cell");
        assert_ne!(accuracy, "0%", "streaming must trigger the prefetcher");
        assert_eq!(table.cell(3, "pf_accuracy"), Some("0%"));
    }

    #[test]
    fn prefetch_reduces_streaming_gating_opportunity() {
        let table = &smoke("R-F11")[0];
        let savings_off = parse_pct(table.cell(0, "mapg_savings").expect("cell"));
        let savings_on = parse_pct(table.cell(1, "mapg_savings").expect("cell"));
        assert!(
            savings_on < savings_off,
            "prefetching must shrink gateable energy: {savings_on} !< {savings_off}"
        );
    }
}
