//! Pins the gated-sleep path and the observability artifacts byte for
//! byte.
//!
//! One small run drives every branch of the controller's sleep: the
//! primary gate and the nap re-gate, token denials and dropped grants,
//! brownout vetoes and brownouts, stuck-slow wakes, and safe-mode spans.
//! Its Chrome trace and metrics JSON are compared against committed
//! digests, so a refactor of that path that reorders an emit, an RNG draw
//! or an energy add shows up here before it reaches a golden.
//!
//! Two more runs pin what that run leaves out: a trace ring small enough
//! to wrap, and the metrics of a run whose DRAM traffic also comes from
//! prefetches, writebacks and injected latency spikes.

#![deny(unused)]

use mapg::{FaultPlan, PolicyKind, SimConfig, Simulation};
use mapg_mem::HierarchyConfig;
use mapg_obs::{EventKind, FaultKind};
use mapg_trace::WorkloadSuite;

/// 64-bit FNV-1a: a stable digest with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn faulty_gated_path_trace_and_metrics_are_pinned() {
    let profile = WorkloadSuite::spec_like()
        .get("mcf_like")
        .cloned()
        .expect("mcf_like is in the suite");
    let config = SimConfig::default()
        .with_profile(profile)
        .with_cores(2)
        .with_instructions(5_000)
        .with_tokens(1)
        .with_fault_plan(FaultPlan::heavy())
        .with_safe_mode_default()
        .with_trace()
        .with_metrics();
    let report = Simulation::new(config, PolicyKind::Mapg).run();
    let trace = report.trace.as_ref().expect("trace was requested");
    let metrics = report.metrics.as_ref().expect("metrics were requested");
    assert!(trace.is_complete(), "the ring must hold the whole run");

    // Every branch of the sleep path fires at least once; exact counts
    // name the branch that moved before the digests below do.
    let fault = |kind| trace.count_kind(EventKind::FaultInjected(kind));
    let classes = [
        ("gates", metrics.counter("gates") as usize, 96),
        ("regates", metrics.counter("regates") as usize, 20),
        ("token denials", trace.count_kind(EventKind::TokenDeny), 82),
        ("dropped grants", fault(FaultKind::TokenDrop), 61),
        ("brownout vetoes", fault(FaultKind::BrownoutVeto), 17),
        ("brownouts", fault(FaultKind::Brownout), 9),
        ("slow wakes", fault(FaultKind::SlowWake), 69),
        (
            "safe-mode spans",
            trace.count_kind(EventKind::SafeModeEnter),
            4,
        ),
    ];
    for (class, count, expected) in classes {
        assert!(count > 0, "no {class} in the pinned run");
        assert_eq!(count, expected, "{class}");
    }
    assert_eq!(report.gating.gated, 96);
    assert_eq!(report.gating.regates, 20);

    let chrome = trace.to_chrome_trace();
    let metrics_json = metrics.to_json();
    assert_eq!(
        (chrome.len(), fnv1a(chrome.as_bytes())),
        (256_630, 10_806_463_132_690_520_548),
        "Chrome trace bytes moved"
    );
    assert_eq!(
        (metrics_json.len(), fnv1a(metrics_json.as_bytes())),
        (1_519, 8_876_904_560_411_650_792),
        "metrics JSON bytes moved"
    );
}

#[test]
fn wrapped_trace_ring_is_pinned() {
    let config = SimConfig::default()
        .with_cores(2)
        .with_instructions(20_000)
        .with_tokens(1)
        .with_trace_capacity(500)
        .with_metrics();
    let report = Simulation::new(config, PolicyKind::Mapg).run();
    let trace = report.trace.as_ref().expect("trace was requested");
    let metrics = report.metrics.as_ref().expect("metrics were requested");
    assert!(trace.dropped() > 0, "the ring must wrap");
    assert_eq!(
        (trace.len(), trace.dropped()),
        (500, 15_544),
        "ring occupancy"
    );
    let chrome = trace.to_chrome_trace();
    assert_eq!(
        (chrome.len(), fnv1a(chrome.as_bytes())),
        (42_055, 4_523_945_141_310_701_080),
        "wrapped Chrome trace bytes moved"
    );
    // A fault-free run never spikes: the metric must be absent, not 0.
    let metrics_json = metrics.to_json();
    assert!(
        !metrics_json.contains("dram_fault_spikes"),
        "{metrics_json}"
    );
    assert_eq!(
        (metrics_json.len(), fnv1a(metrics_json.as_bytes())),
        (1_355, 17_414_261_707_635_881_733),
        "metrics JSON bytes moved"
    );
}

#[test]
fn prefetch_writeback_and_spike_metrics_are_pinned() {
    let config = SimConfig::default()
        .with_cores(4)
        .with_instructions(20_000)
        .with_memory(HierarchyConfig::with_stream_prefetcher())
        .with_fault_plan(FaultPlan::moderate())
        .with_metrics();
    let report = Simulation::new(config, PolicyKind::Mapg).run();
    let metrics = report.metrics.as_ref().expect("metrics were requested");
    let memory = &report.memory;
    assert!(
        memory.prefetch.issued > 0,
        "no prefetches in the pinned run"
    );
    assert!(memory.dram.writes > 0, "no writebacks in the pinned run");
    assert!(memory.dram.fault_spikes > 0, "no spikes in the pinned run");
    assert!(
        memory.dram.accesses() > memory.miss_latency.count(),
        "DRAM traffic beyond demand misses"
    );
    let metrics_json = metrics.to_json();
    assert_eq!(
        (metrics_json.len(), fnv1a(metrics_json.as_bytes())),
        (1_306, 14_982_622_367_486_477_383),
        "metrics JSON bytes moved"
    );
}
