//! Criterion bench: cost of the observability layer.
//!
//! Three configurations of the same 50 k-instruction MAPG run:
//! observability off (every `ObsHandle` call is one `None` branch — the
//! acceptance bar is <2% overhead vs. the pre-instrumentation simulator,
//! which this group tracks as the baseline cell), metrics only, and full
//! trace + metrics capture. Plus micro-benches of the handle's
//! `emit`/`count`/`observe` calls themselves, disabled and enabled, and of
//! the wake-token ledger at the scale of a token-limited 16-core run
//! (about 2 M grants); these cross-check the per-layer split of the
//! repository benchmark's `sim_mem_observed` workload.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use mapg::{PolicyKind, SimConfig, Simulation, TokenManager};
use mapg_obs::{EventKind, ObsHandle, Scope};
use mapg_units::{Cycle, Cycles};

/// A dozen of the metric names a MAPG run's registry holds, as (counter,
/// histogram) pairs. A run renders some of them once, from its report
/// (DESIGN §8.2); the cell times the registry's per-name update path.
const NAMES: [(&str, &str); 6] = [
    ("core_stalls", "stall_length"),
    ("llc_misses", "miss_latency"),
    ("gates", "gated_duration"),
    ("regates", "wake_latency"),
    ("bet_misses", "bet_shortfall"),
    ("token_grants", "token_wait"),
];

fn base() -> SimConfig {
    SimConfig::default().with_instructions(50_000)
}

fn bench_observability(c: &mut Criterion) {
    let mut group = c.benchmark_group("observability");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("sim_50k/disabled", |b| {
        b.iter(|| black_box(Simulation::new(base(), PolicyKind::Mapg).run()))
    });
    group.bench_function("sim_50k/metrics", |b| {
        b.iter(|| black_box(Simulation::new(base().with_metrics(), PolicyKind::Mapg).run()))
    });
    group.bench_function("sim_50k/trace+metrics", |b| {
        b.iter(|| {
            black_box(Simulation::new(base().with_trace().with_metrics(), PolicyKind::Mapg).run())
        })
    });
    group.bench_function("disabled_handle/emit+count+observe", |b| {
        let obs = ObsHandle::disabled();
        b.iter(|| {
            for cycle in 0..1_000u64 {
                obs.emit(cycle, Scope::Core(0), EventKind::StallBegin);
                obs.count("stalls", 1);
                obs.observe("stall_length", cycle);
            }
        })
    });
    group.bench_function("enabled_handle/count+observe_12_names", |b| {
        let obs = ObsHandle::enabled(None, true);
        b.iter(|| {
            for cycle in 0..1_000u64 {
                let (counter, histogram) = NAMES[cycle as usize % NAMES.len()];
                obs.count(counter, 1);
                obs.observe(histogram, cycle);
            }
        })
    });
    group.bench_function("enabled_handle/emit_full_ring", |b| {
        let obs = ObsHandle::enabled(Some(4_096), false);
        for cycle in 0..4_096u64 {
            obs.emit(cycle, Scope::Core(0), EventKind::StallBegin);
        }
        b.iter(|| {
            for cycle in 0..1_000u64 {
                obs.emit(cycle, Scope::Core(0), EventKind::StallBegin);
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("tokens");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("acquire_2M+peak_concurrency/capacity_4", |b| {
        b.iter(|| {
            let mut tokens = TokenManager::new(4);
            for i in 0..2_000_000u64 {
                // Sixteen cores' wakes, each core's requests in time order
                // but interleaved out of order across cores.
                let ready = i * 40 + (i % 16) * 97;
                tokens.acquire(Cycle::new(ready), Cycles::new(100));
            }
            black_box(tokens.peak_concurrency())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_observability);
criterion_main!(benches);
