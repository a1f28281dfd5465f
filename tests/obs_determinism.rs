//! Integration tests for the observability determinism contract: traces
//! and metrics captured through the parallel suite runner are
//! byte-identical to the serial reference, and trace-derived gated
//! cycles reconcile exactly with the run reports.

#![deny(unused)]

use mapg::{run_all, FaultPlan, PolicyKind, SimConfig, Simulation, SuiteRunner};
use mapg_trace::WorkloadSuite;

fn observed_base() -> SimConfig {
    SimConfig::default()
        .with_instructions(20_000)
        .with_trace()
        .with_metrics()
        .with_fault_plan(FaultPlan::moderate())
        .with_tokens(2)
        .with_safe_mode_default()
}

#[test]
fn suite_traces_are_byte_identical_across_job_counts() {
    let policies = [PolicyKind::Mapg, PolicyKind::NaiveOnMiss];
    let runner = SuiteRunner::new(WorkloadSuite::extremes(), observed_base());
    let serial = mapg_pool::with_default_jobs(1, || run_all(runner.plan(&policies)));
    let parallel = mapg_pool::with_default_jobs(4, || run_all(runner.plan(&policies)));
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        let ta = a.trace.as_ref().expect("trace requested").to_chrome_trace();
        let tb = b.trace.as_ref().expect("trace requested").to_chrome_trace();
        assert_eq!(
            ta.as_bytes(),
            tb.as_bytes(),
            "[{} / {}] trace diverged between --jobs 1 and --jobs 4",
            a.workload,
            a.policy
        );
        assert_eq!(a.metrics, b.metrics, "[{} / {}]", a.workload, a.policy);
    }
}

#[test]
fn suite_traces_reconcile_with_their_reports() {
    let runner = SuiteRunner::new(WorkloadSuite::extremes(), observed_base());
    let reports = mapg_pool::with_default_jobs(4, || run_all(runner.plan(&[PolicyKind::Mapg])));
    for report in &reports {
        let trace = report.trace.as_ref().expect("trace requested");
        assert_eq!(trace.dropped(), 0, "ring wrapped at this scale");
        let traced: u64 = trace.gated_cycles_per_core().values().sum();
        assert_eq!(
            traced, report.gating.gated_cycles,
            "[{}] trace does not reconcile with the gating ledger",
            report.workload
        );
    }
}

#[test]
fn disabled_observability_produces_no_artifacts() {
    let config = SimConfig::default().with_instructions(20_000);
    let report = Simulation::new(config, PolicyKind::Mapg).run();
    assert!(report.trace.is_none());
    assert!(report.metrics.is_none());
}

#[test]
fn observation_does_not_perturb_the_simulation() {
    let plain = Simulation::new(
        SimConfig::default()
            .with_instructions(20_000)
            .with_fault_plan(FaultPlan::moderate())
            .with_safe_mode_default(),
        PolicyKind::Mapg,
    )
    .run();
    let observed = Simulation::new(
        SimConfig::default()
            .with_instructions(20_000)
            .with_fault_plan(FaultPlan::moderate())
            .with_safe_mode_default()
            .with_trace()
            .with_metrics(),
        PolicyKind::Mapg,
    )
    .run();
    assert_eq!(plain.makespan_cycles, observed.makespan_cycles);
    assert_eq!(plain.gating, observed.gating);
    assert_eq!(plain.energy, observed.energy);
    assert_eq!(plain.faults, observed.faults);
}
