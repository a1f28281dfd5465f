//! Property tests over the gating mechanism: FSM residency conservation,
//! token-manager guarantees, controller contracts.

#![deny(unused)]

use proptest::prelude::*;

use mapg::{Controller, ControllerConfig, GatingFsm, PolicyKind, TokenManager};
use mapg_cpu::{CoreId, StallCause, StallHandler, StallInfo};
use mapg_units::{Cycle, Cycles};

proptest! {
    #[test]
    fn fsm_residency_partitions_time(
        spans in prop::collection::vec((1u64..50, 1u64..30, 1u64..500, 1u64..40), 1..50)
    ) {
        // Random sequence of (active, entry, sleep, wake) spans.
        let mut fsm = GatingFsm::new();
        let mut t = 0u64;
        for &(active, entry, sleep, wake) in &spans {
            t += active;
            fsm.begin_entry(Cycle::new(t));
            t += entry;
            fsm.begin_sleep(Cycle::new(t));
            t += sleep;
            fsm.begin_wake(Cycle::new(t));
            t += wake;
            fsm.complete_wake(Cycle::new(t));
        }
        fsm.finish(Cycle::new(t));
        let residency = *fsm.residency();
        prop_assert_eq!(residency.total(), Cycles::new(t));
        prop_assert_eq!(fsm.sleep_count(), spans.len() as u64);
        let sleep_sum: u64 = spans.iter().map(|s| s.2).sum();
        prop_assert_eq!(residency.sleeping, Cycles::new(sleep_sum));
    }

    #[test]
    fn token_manager_never_exceeds_capacity_and_never_starves(
        capacity in prop_oneof![1usize..9, Just(64usize)],
        spread in prop_oneof![Just(500u64), Just(10_000u64)],
        requests in prop::collection::vec((0u64..10_000, 0u64..300), 1..300)
    ) {
        // Out-of-order readiness, zero-length ramps, and (with the narrow
        // spread) enough overlap to saturate even 64 tokens.
        let mut tokens = TokenManager::new(capacity);
        let mut grants: Vec<(u64, u64)> = Vec::new();
        for &(ready, duration) in &requests {
            let ready = ready % spread;
            let start =
                tokens.acquire(Cycle::new(ready), Cycles::new(duration));
            prop_assert!(start.raw() >= ready, "granted before ready");
            grants.push((start.raw(), start.raw() + duration));
            // The streaming ledger is exact at every point of the run.
            prop_assert_eq!(
                tokens.peak_concurrency(),
                sweep_peak(&grants),
                "after {} grants",
                grants.len()
            );
        }
        prop_assert_eq!(tokens.grants(), requests.len() as u64);
        let peak = sweep_peak(&grants);
        prop_assert!(peak <= capacity, "{} concurrent grants with capacity {}", peak, capacity);
        prop_assert!(tokens.audit().is_empty(), "{:?}", tokens.audit());
    }

    #[test]
    fn controller_always_resumes_at_or_after_data(
        stalls in prop::collection::vec((1u64..2_000, 0u64..64), 1..200),
        policy_index in 0usize..7,
    ) {
        let policy = PolicyKind::COMPARISON_SET[policy_index];
        let mut controller = Controller::new(
            policy.instantiate(),
            ControllerConfig::baseline(),
        );
        let mut t = 1_000u64;
        for &(duration, pc) in &stalls {
            let info = StallInfo {
                core: CoreId(0),
                start: Cycle::new(t),
                data_ready: Cycle::new(t + duration),
                pc: 0x400 + pc * 4,
                outstanding: 1,
                cause: StallCause::Dependency,
            };
            let resume = controller.on_stall(&info);
            prop_assert!(resume >= info.data_ready, "{}", policy.name());
            t = resume.raw() + 10;
        }
        prop_assert_eq!(
            controller.stats().stalls,
            stalls.len() as u64
        );
        prop_assert!(controller.stats().gated <= controller.stats().stalls);
        prop_assert!(
            controller.energy().total().as_joules() >= 0.0
        );
    }

    #[test]
    fn oracle_policy_never_pays_penalty(
        stalls in prop::collection::vec(1u64..5_000, 1..300),
    ) {
        let mut controller = Controller::new(
            PolicyKind::MapgOracle.instantiate(),
            ControllerConfig::baseline(),
        );
        let mut t = 0u64;
        for &duration in &stalls {
            let info = StallInfo {
                core: CoreId(0),
                start: Cycle::new(t),
                data_ready: Cycle::new(t + duration),
                pc: 0x400,
                outstanding: 1,
                cause: StallCause::MlpLimit,
            };
            let resume = controller.on_stall(&info);
            prop_assert_eq!(
                resume,
                info.data_ready,
                "oracle must hide all latency"
            );
            t = resume.raw() + 5;
        }
        prop_assert_eq!(controller.stats().penalty_cycles, 0);
        prop_assert_eq!(controller.stats().overrun_wakes, 0);
    }

    #[test]
    fn gated_cycles_bounded_by_stall_time(
        stalls in prop::collection::vec(1u64..3_000, 1..200),
    ) {
        let mut controller = Controller::new(
            PolicyKind::NaiveOnMiss.instantiate(),
            ControllerConfig::baseline(),
        );
        let mut total_stall = 0u64;
        let mut t = 0u64;
        for &duration in &stalls {
            let info = StallInfo {
                core: CoreId(0),
                start: Cycle::new(t),
                data_ready: Cycle::new(t + duration),
                pc: 0x8,
                outstanding: 1,
                cause: StallCause::MlpLimit,
            };
            let resume = controller.on_stall(&info);
            total_stall += (resume - Cycle::new(t)).raw();
            t = resume.raw() + 1;
        }
        prop_assert!(
            controller.stats().gated_cycles <= total_stall,
            "slept longer than stalled"
        );
    }
}

/// Independent sort-sweep over half-open grant intervals: the highest
/// number simultaneously held.
fn sweep_peak(grants: &[(u64, u64)]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::new();
    for &(s, e) in grants {
        events.push((s, 1));
        events.push((e, -1));
    }
    events.sort_by_key(|&(t, delta)| (t, delta)); // ends (-1) before starts at the same instant
    let mut live = 0i32;
    let mut peak = 0i32;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    peak as usize
}
