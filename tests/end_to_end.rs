//! Cross-crate integration tests: the full pipeline from workload profile
//! to run report, exercised the way a downstream user would.

#![deny(unused)]

use mapg::{run_all, PolicyKind, PredictorKind, SimConfig, Simulation, SuiteMatrix};
use mapg_repro::prelude::*;

fn quick(profile: WorkloadProfile) -> SimConfig {
    SimConfig::default()
        .with_profile(profile)
        .with_instructions(100_000)
}

#[test]
fn full_stack_is_deterministic_across_processes_worth_of_state() {
    // Two complete, independent pipelines must agree bit-for-bit on every
    // reported metric.
    let run = || {
        Simulation::new(
            quick(WorkloadProfile::mem_bound("det")).with_seed(1234),
            PolicyKind::Mapg,
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.gating, b.gating);
    assert_eq!(a.total_energy(), b.total_energy());
    assert_eq!(a.memory.l1.accesses, b.memory.l1.accesses);
    assert_eq!(a.memory.dram.accesses(), b.memory.dram.accesses());
}

#[test]
fn policy_ordering_invariants_hold_on_memory_bound() {
    let config = quick(WorkloadProfile::mem_bound("ordering"));
    let baseline = Simulation::new(config.clone(), PolicyKind::NoGating).run();
    let clock = Simulation::new(config.clone(), PolicyKind::ClockGating).run();
    let mapg = Simulation::new(config.clone(), PolicyKind::Mapg).run();
    let oracle = Simulation::new(config, PolicyKind::MapgOracle).run();

    // Energy: oracle <= mapg < clock-gating < no-gating.
    assert!(oracle.core_energy() <= mapg.core_energy() * 1.01);
    assert!(mapg.core_energy() < clock.core_energy());
    assert!(clock.core_energy() < baseline.core_energy());

    // Runtime: the zero-latency policies change nothing; the oracle adds
    // nothing; predictive MAPG adds a small bounded overhead.
    assert_eq!(clock.makespan_cycles, baseline.makespan_cycles);
    assert_eq!(oracle.makespan_cycles, baseline.makespan_cycles);
    assert!(mapg.perf_overhead_vs(&baseline) < 0.05);
}

#[test]
fn gating_leaves_compute_bound_workloads_almost_untouched() {
    let config = quick(WorkloadProfile::compute_bound("calm"));
    let baseline = Simulation::new(config.clone(), PolicyKind::NoGating).run();
    let mapg = Simulation::new(config, PolicyKind::Mapg).run();
    assert!(mapg.perf_overhead_vs(&baseline).abs() < 0.01);
    // Nothing to harvest, but nothing lost either (clock-gated stalls may
    // even save a little).
    assert!(mapg.core_energy() <= baseline.core_energy() * 1.01);
}

#[test]
fn every_policy_kind_produces_a_coherent_report() {
    let mut kinds = vec![
        PolicyKind::MapgAlwaysGate,
        PolicyKind::MapgNoEarlyWake,
        PolicyKind::Timeout { idle_cycles: 50 },
    ];
    kinds.extend(PolicyKind::COMPARISON_SET);
    kinds.extend(
        PredictorKind::ALL
            .into_iter()
            .map(|predictor| PolicyKind::MapgWith { predictor }),
    );
    for kind in kinds {
        let report = Simulation::new(quick(WorkloadProfile::mixed("coherent")), kind).run();
        assert_eq!(report.policy, kind.name());
        assert!(report.instructions >= 100_000, "{}", kind.name());
        assert!(report.total_energy().as_joules() > 0.0, "{}", kind.name());
        assert!(
            report.gating.gated <= report.gating.stalls,
            "{}",
            kind.name()
        );
        assert!(
            report.gating.penalty_cycles <= report.core_stats[0].penalty_cycles,
            "{}: controller penalty exceeds core-observed penalty",
            kind.name()
        );
    }
}

#[test]
fn suite_runner_matches_individual_runs() {
    let suite = WorkloadSuite::extremes();
    let base = SimConfig::default().with_instructions(50_000);
    let reports = run_all(SuiteRunner::new(suite.clone(), base.clone()).plan(&[PolicyKind::Mapg]));
    let matrix = SuiteMatrix::new(&reports);
    for profile in suite.iter() {
        let solo =
            Simulation::new(base.clone().with_profile(profile.clone()), PolicyKind::Mapg).run();
        let from_matrix = matrix
            .get(profile.name(), "mapg")
            .expect("matrix entry exists");
        assert_eq!(solo.makespan_cycles, from_matrix.makespan_cycles);
        assert_eq!(solo.total_energy(), from_matrix.total_energy());
    }
}

#[test]
fn multicore_contention_is_visible_and_tokens_bound_wakes() {
    let base = quick(WorkloadProfile::mem_bound("mc")).with_instructions(25_000);
    let solo = Simulation::new(base.clone(), PolicyKind::NoGating).run();
    let quad = Simulation::new(base.clone().with_cores(4), PolicyKind::NoGating).run();
    assert!(
        quad.memory.miss_latency.mean() > solo.memory.miss_latency.mean(),
        "shared DRAM must inflate miss latency"
    );

    let tokened = Simulation::new(base.with_cores(4).with_tokens(1), PolicyKind::Mapg).run();
    assert!(tokened.peak_concurrent_wakes <= 1);
}

#[test]
fn report_energy_breakdown_is_complete() {
    use mapg_power::EnergyCategory;
    let report = Simulation::new(
        quick(WorkloadProfile::mem_bound("ledger")),
        PolicyKind::Mapg,
    )
    .run();
    let summed: f64 = EnergyCategory::ALL
        .into_iter()
        .map(|c| report.energy.get(c).as_joules())
        .sum();
    assert!(
        (summed - report.total_energy().as_joules()).abs() < 1e-12,
        "ledger buckets must partition the total"
    );
}
