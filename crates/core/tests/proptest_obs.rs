//! Property tests over the observability layer.
//!
//! The trace is only worth regressing against if it obeys hard laws:
//! per-scope timestamps never run backwards, every span that opens
//! closes, and the trace-derived gated-cycle sums reconcile *exactly*
//! with the run report's gating statistics — for arbitrary seeds, core
//! counts, fault plans, and token capacities.

#![deny(unused)]

use proptest::prelude::*;

use mapg::{FaultPlan, PolicyKind, SimConfig, Simulation};
use mapg_obs::{EventKind, Scope, TraceBuffer};
use mapg_trace::WorkloadProfile;

fn fault_plan(choice: usize) -> FaultPlan {
    match choice {
        0 => FaultPlan::none(),
        1 => FaultPlan::light(),
        2 => FaultPlan::moderate(),
        _ => FaultPlan::heavy(),
    }
}

fn observed_config(
    seed: u64,
    cores: usize,
    plan_choice: usize,
    tokens: usize,
    watchdog: bool,
) -> SimConfig {
    let mut config = SimConfig::default()
        .with_cores(cores)
        .with_instructions(5_000)
        .with_seed(seed)
        .with_fault_plan(fault_plan(plan_choice))
        // Large enough that no smoke-scale run ever wraps the ring: a
        // dropped record would silently break reconciliation.
        .with_trace_capacity(1 << 22)
        .with_metrics();
    if tokens > 0 {
        config = config.with_tokens(tokens);
    }
    if watchdog {
        config = config.with_safe_mode_default();
    }
    config
}

/// Asserts that `begin`/`end` events alternate strictly (never two opens
/// without a close) and balance exactly within one scope's stream.
fn assert_balanced(
    trace: &TraceBuffer,
    scope: Scope,
    begin: EventKind,
    end: EventKind,
) -> Result<(), String> {
    let mut open = 0i64;
    for record in trace.iter().filter(|r| r.scope == scope) {
        if record.kind == begin {
            open += 1;
            if open > 1 {
                return Err(format!("{scope}: {begin:?} opened twice at {}", record.at));
            }
        } else if record.kind == end {
            open -= 1;
            if open < 0 {
                return Err(format!(
                    "{scope}: {end:?} without {begin:?} at {}",
                    record.at
                ));
            }
        }
    }
    if open != 0 {
        return Err(format!("{scope}: {open} unclosed {begin:?} span(s)"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn trace_laws_hold_for_arbitrary_runs(
        seed in 0u64..1_000,
        cores in 1usize..5,
        plan_choice in 0usize..4,
        tokens in 0usize..3,
        watchdog in any::<bool>(),
    ) {
        let config = observed_config(seed, cores, plan_choice, tokens, watchdog);
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        let trace = report.trace.as_ref().expect("trace was requested");
        prop_assert_eq!(trace.dropped(), 0, "ring wrapped at smoke scale");
        prop_assert!(!trace.is_empty(), "mem-bound run must gate");

        // Per-scope timestamps are non-decreasing in emission order.
        let mut last_at: std::collections::BTreeMap<Scope, u64> =
            std::collections::BTreeMap::new();
        for record in trace.iter() {
            let last = last_at.entry(record.scope).or_insert(0);
            prop_assert!(
                record.at >= *last,
                "{}: {:?} at {} regresses behind {}",
                record.scope, record.kind, record.at, *last
            );
            *last = record.at;
        }

        // Every span opens once and closes once, in every scope.
        for core in 0..cores as u32 {
            let scope = Scope::Core(core);
            for (begin, end) in [
                (EventKind::StallBegin, EventKind::StallEnd),
                (EventKind::SleepEnter, EventKind::SleepExit),
                (EventKind::WakeStart, EventKind::WakeDone),
            ] {
                if let Err(problem) = assert_balanced(trace, scope, begin, end) {
                    prop_assert!(false, "{}", problem);
                }
            }
        }
        if let Err(problem) = assert_balanced(
            trace,
            Scope::Global,
            EventKind::SafeModeEnter,
            EventKind::SafeModeExit,
        ) {
            prop_assert!(false, "{}", problem);
        }
    }

    #[test]
    fn trace_and_metrics_reconcile_with_the_report(
        seed in 0u64..1_000,
        cores in 1usize..5,
        plan_choice in 0usize..4,
        tokens in 0usize..3,
        watchdog in any::<bool>(),
    ) {
        let config = observed_config(seed, cores, plan_choice, tokens, watchdog);
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        let trace = report.trace.as_ref().expect("trace was requested");
        let metrics = report.metrics.as_ref().expect("metrics were requested");

        // Sleep spans in the trace sum exactly to the report's gated
        // cycles — the load-bearing cross-check between the two layers.
        let per_core = trace.gated_cycles_per_core();
        let traced: u64 = per_core.values().sum();
        prop_assert_eq!(traced, report.gating.gated_cycles);

        // Counter reconciliation against the independently-kept stats.
        prop_assert_eq!(metrics.counter("gates"), report.gating.gated);
        prop_assert_eq!(metrics.counter("regates"), report.gating.regates);
        prop_assert_eq!(
            metrics.counter("fsm_sleeping_cycles"),
            report.gating.gated_cycles,
            "FSM residency must agree with the gating ledger"
        );
        let gated_hist = metrics
            .histogram("gated_duration")
            .expect("every gate observes its duration");
        prop_assert_eq!(
            gated_hist.count(),
            report.gating.gated + report.gating.regates
        );
        prop_assert_eq!(gated_hist.sum(), report.gating.gated_cycles);

        // Event counts match the stats' view of gating activity.
        let enters = trace.count_kind(EventKind::SleepEnter) as u64;
        prop_assert_eq!(enters, report.gating.gated + report.gating.regates);
    }

    /// The metrics a run renders from its statistics at the end agree
    /// with the report's counters and with each other.
    #[test]
    fn rendered_metrics_reconcile_with_their_statistics(
        seed in 0u64..1_000,
        cores in 1usize..5,
        plan_choice in 0usize..4,
        tokens in 0usize..3,
        watchdog in any::<bool>(),
        mixed in any::<bool>(),
    ) {
        // The mixed profile's shorter stalls are where a gate can end
        // short of break-even and reach the `bet_*` metrics.
        let mut config = observed_config(seed, cores, plan_choice, tokens, watchdog);
        if mixed {
            config = config.with_profile(WorkloadProfile::mixed("mixed"));
        }
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        let trace = report.trace.as_ref().expect("trace was requested");
        let metrics = report.metrics.as_ref().expect("metrics were requested");
        let count = |name| metrics.histogram(name).map_or(0, |h| h.count());

        // One grant per sleep (gate or re-gate), plus a re-request per
        // grant a fault dropped in flight; none without token limiting.
        let grants = metrics.counter("token_grants");
        let sleeps = report.gating.gated + report.gating.regates;
        let expected = if tokens > 0 { sleeps + report.faults.dropped_grants } else { 0 };
        prop_assert_eq!(grants, expected);
        prop_assert_eq!(
            grants,
            trace.count_kind(EventKind::TokenGrant) as u64 + report.faults.dropped_grants
        );
        prop_assert_eq!(count("token_wait"), grants);
        if plan_choice == 0 {
            prop_assert_eq!(
                metrics.histogram("token_wait").map_or(0, |h| h.sum()),
                report.gating.token_delay_cycles
            );
        }

        prop_assert_eq!(metrics.counter("bet_misses"), count("bet_shortfall"));
        prop_assert_eq!(count("wake_latency"), count("gated_duration"));

        let degradation = &report.degradation;
        prop_assert_eq!(metrics.counter("safe_mode_trips"), degradation.safe_mode_entries);
        prop_assert_eq!(metrics.counter("safe_mode_recoveries"), degradation.recoveries);
        prop_assert_eq!(metrics.counter("demoted_gates"), degradation.demoted_gates);
    }

    #[test]
    fn traces_are_deterministic(
        seed in 0u64..1_000,
        cores in 1usize..4,
        plan_choice in 0usize..4,
    ) {
        let run = || {
            let config = observed_config(seed, cores, plan_choice, 2, true);
            Simulation::new(config, PolicyKind::Mapg).run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace.as_ref(), b.trace.as_ref());
        prop_assert_eq!(a.metrics.as_ref(), b.metrics.as_ref());
        prop_assert_eq!(
            a.trace.as_ref().map(TraceBuffer::to_chrome_trace),
            b.trace.as_ref().map(TraceBuffer::to_chrome_trace)
        );
    }
}
