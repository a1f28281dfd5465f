//! Integration tests for the extension features, driven end-to-end
//! through the public API the way a downstream user would: VCD waveforms
//! rendered from the trace, retention styles, nap chaining, workload
//! mixes, recorded traces, replication, idle injection, prefetching, and
//! substrate design-space options.

#![deny(unused)]

use mapg::{PolicyKind, Replication, SimConfig, Simulation};
use mapg_cpu::{Core, CoreConfig, PassiveHandler};
use mapg_mem::{DramConfig, HierarchyConfig, MemoryHierarchy, PagePolicy};
use mapg_power::RetentionStyle;
use mapg_trace::{IdleInjection, RecordedTrace, SyntheticWorkload, WorkloadProfile};

fn quick() -> SimConfig {
    SimConfig::default().with_instructions(60_000)
}

#[test]
fn gating_trace_round_trips_to_vcd_through_the_public_api() {
    let config = quick().with_cores(2).with_trace();
    let entry = config.circuit().entry_cycles(CoreConfig::baseline().clock);
    let report = Simulation::new(config, PolicyKind::Mapg).run();
    let trace = report.trace.as_ref().expect("tracing was enabled");

    // Gated cycles from the trace's sleep spans must agree with the
    // gating stats.
    let per_core = trace.gated_cycles_per_core();
    assert_eq!(per_core.len(), 2);
    assert_eq!(per_core.values().sum::<u64>(), report.gating.gated_cycles);

    let mut vcd = Vec::new();
    trace
        .to_vcd(entry.raw(), &mut vcd)
        .expect("in-memory write");
    let text = String::from_utf8(vcd).expect("vcd is ascii");
    assert!(text.contains("core0_pg_state"));
    assert!(text.contains("core1_pg_state"));
    assert!(text.lines().filter(|l| l.starts_with('#')).count() > 10);
}

#[test]
fn retention_style_trades_energy_for_runtime_end_to_end() {
    let baseline = Simulation::new(quick(), PolicyKind::NoGating).run();
    let retentive = Simulation::new(
        quick().with_retention(RetentionStyle::Retentive),
        PolicyKind::Mapg,
    )
    .run();
    let flushing = Simulation::new(
        quick().with_retention(RetentionStyle::NonRetentive),
        PolicyKind::Mapg,
    )
    .run();
    assert!(
        flushing.perf_overhead_vs(&baseline) > retentive.perf_overhead_vs(&baseline),
        "cold starts must cost runtime"
    );
}

#[test]
fn nap_chaining_recovers_underpredicted_stalls() {
    // Idle-heavy workload: the predictor's seed estimate wakes the core
    // hundreds of thousands of cycles early; nap chaining must recover.
    let profile = WorkloadProfile::builder("nap")
        .mem_refs_per_kilo_inst(30.0)
        .idle_injection(IdleInjection::new(5_000, 200_000))
        .build();
    let config = quick().with_profile(profile);
    let with_naps = Simulation::new(config.clone(), PolicyKind::Mapg).run();
    let without = Simulation::new(config.without_regate(), PolicyKind::Mapg).run();
    assert!(with_naps.gating.regates > 0, "naps must fire");
    assert_eq!(without.gating.regates, 0);
    assert!(
        with_naps.core_energy() < without.core_energy(),
        "re-gating must recover tail leakage"
    );
}

#[test]
fn recorded_trace_drives_the_core_identically_to_the_live_source() {
    let profile = WorkloadProfile::mixed("record_integration");
    let mut live_source = SyntheticWorkload::new(&profile, 321);
    let trace = RecordedTrace::record(&mut live_source, 40_000);

    let run_live = || {
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(
            CoreConfig::baseline(),
            SyntheticWorkload::new(&profile, 321),
        );
        core.run(trace.instructions(), &mut memory, &mut PassiveHandler);
        core.stats().total_cycles
    };
    let run_replay = || {
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), trace.replay());
        core.run(trace.instructions(), &mut memory, &mut PassiveHandler);
        core.stats().total_cycles
    };
    assert_eq!(run_live(), run_replay(), "replay must match the live run");
}

#[test]
fn replication_separates_policy_effect_from_seed_noise() {
    let config = quick().with_instructions(25_000);
    let baseline = Replication::run(config.clone(), PolicyKind::NoGating, 5);
    let mapg = Replication::run(config, PolicyKind::Mapg, 5);
    let savings = mapg.summarize_paired(&baseline, |m, b| m.core_energy_savings_vs(b));
    assert!(savings.min > 0.0, "MAPG wins on every seed");
    assert!(
        savings.ci95_halfwidth() < savings.mean,
        "the effect must dominate its confidence interval"
    );
}

#[test]
fn idle_injection_flows_through_the_full_simulation() {
    let profile = WorkloadProfile::builder("interactive_int")
        .mem_refs_per_kilo_inst(40.0)
        .idle_injection(IdleInjection::new(10_000, 150_000))
        .build();
    let report = Simulation::new(
        quick().with_profile(profile),
        PolicyKind::Timeout { idle_cycles: 200 },
    )
    .run();
    let idles: u64 = report.core_stats.iter().map(|c| c.idle_periods).sum();
    assert!(idles > 0, "injection must reach the core");
    let idle_cycles: u64 = report.core_stats.iter().map(|c| c.idle_stall_cycles).sum();
    assert!(idle_cycles >= idles * 150_000);
    // Timeout gating must harvest those long idles.
    assert!(report.gating.gated > 0);
}

#[test]
fn substrate_design_space_options_compose() {
    // Closed-page DRAM + stream prefetcher, both at once, through the
    // simulation facade.
    let memory = HierarchyConfig {
        dram: DramConfig::ddr3_1333().with_page_policy(PagePolicy::Closed),
        ..HierarchyConfig::with_stream_prefetcher()
    };
    let report = Simulation::new(quick().with_memory(memory), PolicyKind::Mapg).run();
    assert!(report.instructions >= 60_000);
    assert!(report.total_energy().as_joules() > 0.0);
    // Closed-page policy means no row-buffer hits at all.
    assert_eq!(report.memory.dram.row_hits, 0);
}

#[test]
fn workload_mix_reports_are_stable_and_deterministic() {
    let run = || {
        Simulation::new(
            quick().with_workload_mix(vec![
                WorkloadProfile::mem_bound("a"),
                WorkloadProfile::mixed("b"),
                WorkloadProfile::compute_bound("c"),
            ]),
            PolicyKind::Mapg,
        )
        .run()
    };
    let first = run();
    let second = run();
    assert_eq!(first.makespan_cycles, second.makespan_cycles);
    assert_eq!(first.workload, "mix[a+b+c]");
    assert_eq!(first.core_stats.len(), 3);
}
