//! R-F15 (extension) — Interactive workloads: memory stalls + OS-scale
//! idle periods.
//!
//! Classic power gating targets long OS-visible idle (I/O waits,
//! descheduling); MAPG targets memory stalls. An interactive workload has
//! *both*. This experiment injects 200 µs-scale idle periods into a mixed
//! workload and shows that MAPG subsumes idle-driven gating: the timeout
//! policy harvests only the long idles, MAPG harvests the idles *and* the
//! memory stalls.

use mapg::{PolicyKind, RunReport};
use mapg_trace::{IdleInjection, WorkloadProfile};

use crate::experiments::{base_config, Plan};
use crate::scale::Scale;
use crate::table::{pct, Table};

/// An interactive-style workload: gcc-like phases plus ~400k-cycle idle
/// periods (200 µs at 2 GHz). The injection interval scales with the run
/// length so roughly ten idle periods occur at every experiment scale.
fn interactive_profile(scale: Scale) -> WorkloadProfile {
    let interval = (scale.instructions() / 10).max(1_000);
    WorkloadProfile::builder("interactive")
        .mem_refs_per_kilo_inst(70.0)
        .working_set_bytes(32 << 20)
        .spatial_locality(0.6)
        .hot_regions(4)
        .pointer_chase_fraction(0.25)
        .compute_ipc(1.8)
        .idle_injection(IdleInjection::new(interval, 400_000))
        .build()
}

/// The no-gating baseline, then each compared policy.
pub fn plan(scale: Scale) -> Plan {
    let config = base_config(scale).with_profile(interactive_profile(scale));
    [
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::Timeout { idle_cycles: 100 },
        PolicyKind::NaiveOnMiss,
        PolicyKind::Mapg,
        PolicyKind::MapgOracle,
    ]
    .map(|policy| (config.clone(), policy))
    .to_vec()
}

/// Renders the table.
pub fn render(_scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let (baseline, swept) = reports.split_first().expect("baseline first");

    let mut table = Table::new(
        "R-F15",
        "interactive workload (memory stalls + injected OS idle)",
        vec![
            "policy",
            "gated%",
            "gated_stall_cov%",
            "core_E_savings",
            "overhead",
        ],
    );
    for report in swept {
        table.push_row(vec![
            report.policy.to_owned(),
            format!("{:.1}", report.gating.gated_fraction() * 100.0),
            format!("{:.1}", report.gated_stall_coverage() * 100.0),
            pct(report.core_energy_savings_vs(baseline)),
            pct(report.perf_overhead_vs(baseline)),
        ]);
    }
    table.push_note(
        "timeout gating recovers the long idles only; MAPG recovers idles \
         AND memory stalls — it subsumes idle-driven gating",
    );
    let idle_fraction = baseline.stall_fraction();
    table.push_note(format!(
        "baseline blocked fraction (stalls + idle): {:.1}%",
        idle_fraction * 100.0
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn parse_pct(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().expect("pct")
    }

    fn savings(table: &Table, policy: &str) -> f64 {
        let row = (0..table.rows().len())
            .find(|&i| table.cell(i, "policy") == Some(policy))
            .unwrap_or_else(|| panic!("missing policy {policy}"));
        parse_pct(table.cell(row, "core_E_savings").expect("cell"))
    }

    #[test]
    fn timeout_recovers_much_but_mapg_recovers_more() {
        let table = &smoke("R-F15")[0];
        let timeout = savings(table, "timeout");
        let mapg = savings(table, "mapg");
        let clock = savings(table, "clock-gating");
        assert!(
            timeout > clock,
            "long idles make timeout gating worthwhile: {timeout} !> {clock}"
        );
        assert!(
            mapg > timeout,
            "MAPG must subsume idle gating: {mapg} !> {timeout}"
        );
    }

    #[test]
    fn idle_injection_dominates_blocked_time() {
        let table = &smoke("R-F15")[0];
        // The note records the baseline blocked fraction; with 400k-cycle
        // idles every ~100k instructions, blocking must dominate runtime.
        let coverage = |policy: &str| {
            let row = (0..table.rows().len())
                .find(|&i| table.cell(i, "policy") == Some(policy))
                .expect("row");
            table
                .cell(row, "gated_stall_cov%")
                .expect("cell")
                .parse::<f64>()
                .expect("num")
        };
        assert!(
            coverage("mapg") > 80.0,
            "MAPG should gate most blocked time: {}",
            coverage("mapg")
        );
    }
}
