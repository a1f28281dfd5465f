//! The lockstep path against the oracle: a batch of single-core runs that
//! share a front end (one generator and one set of L1/L2 lookups feeding
//! every run's back end, DESIGN §9.7) must report exactly what each run
//! reports alone on the frozen reference stack, whatever the back ends'
//! timing knobs, the policies, the worker count and the memo hits.

#![deny(unused)]

use proptest::prelude::*;

use mapg::{
    run_all, FaultPlan, PolicyKind, PredictorKind, RunCache, SimConfig, Simulation, WatchdogConfig,
};
use mapg_cpu::CoreConfig;
use mapg_mem::{CacheConfig, DramConfig, HierarchyConfig};
use mapg_trace::{IdleInjection, WorkloadProfile, WorkloadSuite};

/// Every distinct policy kind a run can name.
fn policies() -> Vec<PolicyKind> {
    let mut all = vec![
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::DvfsStall,
        PolicyKind::NaiveOnMiss,
        PolicyKind::Timeout { idle_cycles: 100 },
        PolicyKind::Mapg,
        PolicyKind::MapgOracle,
        PolicyKind::MapgAlwaysGate,
        PolicyKind::MapgNoEarlyWake,
        PolicyKind::MapgGuard { quarter_bets: 2 },
    ];
    all.extend(
        PredictorKind::ALL
            .into_iter()
            .map(|predictor| PolicyKind::MapgWith { predictor }),
    );
    all
}

/// A suite profile, or a builder profile with idle injection.
fn profile(pick: usize, refs_per_kilo: f64) -> WorkloadProfile {
    let suite = WorkloadSuite::spec_like();
    match suite.profiles().get(pick) {
        Some(profile) => profile.clone(),
        None => WorkloadProfile::builder("built")
            .mem_refs_per_kilo_inst(refs_per_kilo)
            .pointer_chase_fraction(0.3)
            .write_fraction(0.3)
            .idle_injection(IdleInjection::new(4_000, 20_000))
            .build(),
    }
}

/// One run's back-end knobs: everything but the front end.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    dram_scale: f64,
    mlp_limit: usize,
    switch_width: f64,
    tokens: Option<usize>,
    faults: u8,
    watchdog: bool,
    metrics: bool,
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        0.5f64..3.0,
        1usize..12,
        0.005f64..0.2,
        0usize..4,
        0u8..4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(dram_scale, mlp_limit, switch_width, tokens, faults, watchdog, metrics)| Knobs {
                dram_scale,
                mlp_limit,
                switch_width,
                tokens: (tokens > 0).then_some(tokens),
                faults,
                watchdog,
                metrics,
            },
        )
}

/// A single-core config: the front end `(profile, seed, instructions,
/// L2)` plus the back-end `knobs`. A 64 KiB L2 evicts dirty lines within
/// a short run, so both writeback legs reach DRAM.
fn config(
    profile: &WorkloadProfile,
    seed: u64,
    instructions: u64,
    small_l2: bool,
    knobs: Knobs,
) -> SimConfig {
    let l2 = if small_l2 {
        CacheConfig {
            size_bytes: 64 * 1024,
            ..CacheConfig::l2()
        }
    } else {
        CacheConfig::l2()
    };
    let memory = HierarchyConfig {
        l2,
        dram: DramConfig::ddr3_1333().with_latency_scaled(knobs.dram_scale),
        ..HierarchyConfig::baseline()
    };
    let mut config = SimConfig::default()
        .with_profile(profile.clone())
        .with_seed(seed)
        .with_instructions(instructions)
        .with_memory(memory)
        .with_core(CoreConfig {
            mlp_limit: knobs.mlp_limit,
            ..CoreConfig::baseline()
        })
        .with_switch_width(knobs.switch_width)
        .with_fault_plan(match knobs.faults {
            0 => FaultPlan::none(),
            1 => FaultPlan::light(),
            2 => FaultPlan::moderate(),
            _ => FaultPlan::heavy(),
        });
    if let Some(tokens) = knobs.tokens {
        config = config.with_tokens(tokens);
    }
    if knobs.watchdog {
        config = config.with_safe_mode(WatchdogConfig::default());
    }
    if knobs.metrics {
        config = config.with_metrics();
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Runs over two front ends (the second differs in seed), each run
    /// with its own back-end knobs and a distinct policy; some are memo
    /// hits. Every report equals its run alone on the reference stack.
    #[test]
    fn lockstep_reports_equal_the_reference_stack(
        pick in 0usize..14,
        refs_per_kilo in 5.0f64..60.0,
        seed in any::<u64>(),
        instructions in 2_000u64..50_000,
        small_l2 in any::<bool>(),
        runs in prop::collection::vec((knobs(), any::<bool>(), any::<bool>()), 1..9),
        first_policy in 0usize..15,
        jobs in 1usize..4,
    ) {
        let profile = profile(pick, refs_per_kilo);
        let all = policies();
        let cache = RunCache::new();
        let mut batch = Vec::new();
        let mut references = Vec::new();
        for (i, &(knobs, other_seed, cached)) in runs.iter().enumerate() {
            let seed = if other_seed { seed.wrapping_add(1) } else { seed };
            let policy = all[(first_policy + i) % all.len()];
            let run = config(&profile, seed, instructions, small_l2, knobs);
            references.push(
                Simulation::new(run.clone().with_reference_scheduler(), policy).run(),
            );
            let run = run.with_run_cache(cache.clone());
            if cached {
                Simulation::new(run.clone(), policy).run();
            }
            batch.push((run, policy));
        }
        let reports = mapg_pool::with_default_jobs(jobs, || run_all(batch));
        prop_assert_eq!(reports.len(), references.len());
        for (i, (report, reference)) in reports.iter().zip(&references).enumerate() {
            prop_assert_eq!(report, reference, "run {} ({:?})", i, runs[i]);
        }
    }
}

/// Runs off the lockstep path — a prefetching, a 2-core and a traced
/// config — still match the reference stack when they share a batch
/// with lockstep groups.
#[test]
fn runs_off_the_lockstep_path_match_the_reference_stack() {
    let base = SimConfig::default()
        .with_profile(WorkloadProfile::mem_bound("off_path"))
        .with_instructions(20_000)
        .with_seed(17);
    let off_path = [
        base.clone()
            .with_memory(HierarchyConfig::with_stream_prefetcher()),
        base.clone().with_cores(2),
        base.clone().with_trace_capacity(4_096),
    ];
    let mut batch = Vec::new();
    for config in off_path {
        for policy in [PolicyKind::NoGating, PolicyKind::Mapg] {
            batch.push((config.clone(), policy));
        }
    }
    batch.push((base.clone(), PolicyKind::NoGating));
    batch.push((base, PolicyKind::Mapg));
    for jobs in [1, 3] {
        let reports = mapg_pool::with_default_jobs(jobs, || run_all(batch.clone()));
        for ((config, policy), report) in batch.iter().zip(&reports) {
            let reference =
                Simulation::new(config.clone().with_reference_scheduler(), *policy).run();
            assert_eq!(
                report,
                &reference,
                "{} at {jobs} jobs",
                config.workload_name()
            );
        }
    }
}
