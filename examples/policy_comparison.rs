//! Policy shoot-out over the SPEC-like workload suite.
//!
//! Runs every policy in the comparison set over every suite profile and
//! prints per-workload savings/overhead plus suite geomeans — the data
//! behind experiments R-T3/R-F2/R-F3, driven through the public API.
//!
//! ```bash
//! cargo run --release --example policy_comparison
//! ```

use mapg::{run_all, PolicyKind, SuiteMatrix};
use mapg_repro::prelude::*;

fn main() {
    let instructions = 300_000;
    let suite = WorkloadSuite::spec_like();
    let runner = SuiteRunner::new(suite, SimConfig::default().with_instructions(instructions));
    println!(
        "running {} policies x 12 workloads x {instructions} instructions...",
        PolicyKind::COMPARISON_SET.len()
    );
    let reports = run_all(runner.plan(&PolicyKind::COMPARISON_SET));
    let matrix = SuiteMatrix::new(&reports);

    // Per-workload MAPG numbers.
    println!(
        "\n{:<18} {:>10} {:>10} {:>10}",
        "workload", "savings", "overhead", "gated%"
    );
    for workload in matrix.workloads() {
        let baseline = matrix
            .get(workload, "no-gating")
            .expect("baseline always present");
        let mapg = matrix.get(workload, "mapg").expect("mapg always present");
        println!(
            "{:<18} {:>9.1}% {:>9.2}% {:>9.1}%",
            workload,
            mapg.core_energy_savings_vs(baseline) * 100.0,
            mapg.perf_overhead_vs(baseline) * 100.0,
            mapg.gated_stall_coverage() * 100.0,
        );
    }

    // Geomean summary per policy.
    println!(
        "\n{:<16} {:>12} {:>13} {:>10}",
        "policy", "norm energy", "norm runtime", "norm EDP"
    );
    for policy in matrix.policies() {
        println!(
            "{:<16} {:>12.3} {:>13.4} {:>10.3}",
            policy,
            matrix.geomean_normalized_energy(policy, "no-gating"),
            matrix.geomean_normalized_runtime(policy, "no-gating"),
            matrix.geomean_normalized_edp(policy, "no-gating"),
        );
    }
    println!("\n(norm < 1.0 is better; baseline = no-gating)");
}
