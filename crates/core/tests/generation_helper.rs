//! Runs that generate their events on the helper thread and runs that
//! generate inline must report the same numbers. This file holds one test
//! so that no other simulation of this process is in flight when its
//! serial run starts: that run is then free to claim the helper.

use mapg::{PolicyKind, SimConfig, Simulation};
use mapg_trace::{helper_runs, WorkloadProfile};

#[test]
fn concurrent_and_serial_runs_report_identically() {
    let config = SimConfig::default()
        .with_profile(WorkloadProfile::mem_bound("mem_bound"))
        .with_cores(4)
        .with_instructions(100_000)
        .with_seed(11);
    let run = || Simulation::new(config.clone(), PolicyKind::Mapg).run();
    let served_before = helper_runs();

    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(run)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("run panicked"))
            .collect()
    });
    let serial = run();
    for report in &concurrent {
        assert_eq!(report, &serial);
    }

    // The helper reads the CPU count from /proc on Linux; without it
    // every run fills inline.
    let parallel_host = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
        && (cfg!(not(target_os = "linux")) || std::fs::metadata("/proc/self/status").is_ok());
    if parallel_host {
        assert!(
            helper_runs() > served_before,
            "the serial run had the process to itself and should have used the helper"
        );
    }
}
