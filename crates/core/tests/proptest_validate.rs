//! `Simulation::try_run` over configurations assembled from the plain
//! `SimConfig` setters, each field drawn from a range that includes
//! values the run cannot use: it returns `Ok` exactly when
//! `SimConfig::validate` does, returns that same `InvalidConfig`
//! otherwise, and never panics.

#![deny(unused)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use mapg::{FaultPlan, MapgError, PolicyKind, SimConfig, Simulation, WatchdogConfig};
use mapg_cpu::CoreConfig;
use mapg_mem::HierarchyConfig;
use mapg_trace::WorkloadProfile;

fn optional<S>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some)]
}

/// Draws from `valid`, or one time in ten from `invalid`, so most cases
/// break at most one field and a fair share break none.
fn or_invalid<S, B>(valid: S, invalid: B) -> impl Strategy<Value = S::Value>
where
    S: Strategy,
    B: Strategy<Value = S::Value>,
{
    (valid, invalid, 0u32..10)
        .prop_map(|(valid, invalid, roll)| if roll == 0 { invalid } else { valid })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn try_run_errs_exactly_when_validate_does_and_never_panics(
        cores in or_invalid(1usize..=4, Just(0)),
        instructions in or_invalid(1u64..=2_000, Just(0)),
        // `None` keeps the single default profile; `Some(0)` is an empty mix.
        mix in optional(or_invalid(1usize..=2, Just(0))),
        // Core i runs seed + i: the top seed must wrap, not overflow.
        seed in prop_oneof![any::<u64>(), Just(u64::MAX)],
        mlp_limit in or_invalid(1usize..=8, Just(0)),
        mshr_entries in or_invalid(1usize..=8, Just(0)),
        banks in or_invalid(1u32..=8, Just(0)),
        switch_width in or_invalid(
            0.005f64..=0.2,
            prop_oneof![0.0f64..0.005, 0.21f64..1.0, Just(f64::NAN)],
        ),
        tokens in optional(or_invalid(1usize..=4, Just(0))),
        faults in optional((
            or_invalid(0.0f64..=1.0, prop_oneof![-1.0f64..-0.01, 1.01f64..2.0, Just(f64::NAN)]),
            or_invalid(Just(5_000u64), Just(0)),
        )),
        watchdog in optional(or_invalid(
            (8usize..=64, 1usize..=8),
            prop_oneof![Just((0usize, 0usize)), Just((4, 8))],
        )),
        trace_capacity in optional(or_invalid(1usize..=64, Just(0))),
        policy in prop_oneof![Just(PolicyKind::Mapg), Just(PolicyKind::NoGating)],
    ) {
        let mut hierarchy = HierarchyConfig::baseline();
        hierarchy.mshr_entries = mshr_entries;
        hierarchy.dram.banks = banks;
        let mut config = SimConfig::default()
            .with_cores(cores)
            .with_instructions(instructions)
            .with_seed(seed)
            .with_core(CoreConfig { mlp_limit, ..CoreConfig::baseline() })
            .with_memory(hierarchy)
            .with_switch_width(switch_width);
        if let Some(mix) = mix {
            let profiles = [WorkloadProfile::mem_bound("hog"), WorkloadProfile::compute_bound("cpu")];
            config = config.with_workload_mix(profiles.into_iter().cycle().take(mix).collect());
        }
        if let Some(tokens) = tokens {
            config = config.with_tokens(tokens);
        }
        if let Some((slow_wake_prob, dram_window_cycles)) = faults {
            config = config.with_fault_plan(FaultPlan {
                slow_wake_prob,
                dram_window_cycles,
                ..FaultPlan::moderate()
            });
        }
        if let Some((window, min_samples)) = watchdog {
            config = config.with_safe_mode(WatchdogConfig {
                window,
                min_samples,
                ..WatchdogConfig::default()
            });
        }
        if let Some(capacity) = trace_capacity {
            config = config.with_trace_capacity(capacity);
        }

        let verdict = config.validate();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Simulation::new(config.clone(), policy).try_run()
        }));
        let Ok(outcome) = outcome else {
            panic!("try_run panicked on {config:?}");
        };
        match (verdict, outcome) {
            (Ok(()), Ok(report)) => prop_assert!(report.instructions > 0),
            (Err(expected @ MapgError::InvalidConfig(_)), Err(got)) => {
                prop_assert_eq!(got, expected);
            }
            (verdict, outcome) => panic!(
                "validate {verdict:?} but try_run {:?} on {config:?}",
                outcome.map(|report| report.instructions)
            ),
        }
    }
}
