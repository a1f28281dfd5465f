//! Property tests for parallel execution: fanning the suite matrix across
//! the thread pool must never change a single bit of any report, at any
//! job count, for any configuration — determinism is enforced, not
//! assumed (DESIGN.md §7).

#![deny(unused)]

use proptest::prelude::*;

use mapg::{run_all, PolicyKind, SimConfig, SuiteRunner};
use mapg_trace::WorkloadSuite;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_suite_matrix_equals_serial_bit_for_bit(
        seed in any::<u64>(),
        instructions in 5_000u64..25_000,
        cores in 1usize..3,
        jobs in 2usize..9,
        policy_count in 1usize..4,
    ) {
        let policies = [
            PolicyKind::Mapg,
            PolicyKind::NoGating,
            PolicyKind::NaiveOnMiss,
        ];
        let policies = &policies[..policy_count];
        let base = SimConfig::default()
            .with_instructions(instructions)
            .with_cores(cores)
            .with_seed(seed);
        let runner = SuiteRunner::new(WorkloadSuite::extremes(), base);

        let serial = mapg_pool::with_default_jobs(1, || run_all(runner.plan(policies)));
        let parallel = mapg_pool::with_default_jobs(jobs, || run_all(runner.plan(policies)));

        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s, p, "jobs={} diverged from serial", jobs);
        }
    }
}
