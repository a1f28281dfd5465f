//! The scheduler equivalence oracle: the event-wheel [`Cluster`] must be
//! observationally identical to the retained seed stack
//! ([`ReferenceCluster`]: linear min-scan, per-event stepping, seed
//! memory hierarchy) for arbitrary core counts, workload mixes, seeds,
//! and budgets.
//!
//! "Identical" is checked at two levels:
//!
//! - **Interleaving**: every stall callback (which core, at what time,
//!   waiting on what) is logged in order by a recording handler; the two
//!   stacks must produce byte-for-byte the same sequence. Stalls are the
//!   points where cores interact through the shared hierarchy, so an
//!   identical stall log pins the global event order.
//! - **End state**: full [`ClusterStats`] equality — per-core instruction
//!   counts, timestamps, stall breakdowns, histograms, and every shared
//!   hierarchy counter (cache hits, writebacks, DRAM row hits, refresh
//!   stalls, MSHR stalls, miss-latency histogram).

use proptest::prelude::*;

use mapg_cpu::{Cluster, CoreConfig, PassiveHandler, ReferenceCluster, StallHandler, StallInfo};
use mapg_mem::{DramFaultConfig, HierarchyConfig};
use mapg_trace::{
    AccessKind, MemAccess, RecordedTrace, SyntheticWorkload, TraceEvent, WorkloadProfile,
};
use mapg_units::{Cycle, Cycles};

/// Logs every stall decision; resumes passively (at data arrival), so the
/// log is purely observational.
#[derive(Default)]
struct InterleavingLog {
    entries: Vec<(usize, u64, u64, usize)>,
}

impl StallHandler for InterleavingLog {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        self.entries.push((
            info.core.0,
            info.start.raw(),
            info.data_ready.raw(),
            info.outstanding,
        ));
        info.data_ready
    }
}

/// A power-gating controller behaving badly, modelled at the stall
/// boundary: wake-ups come back **late** (stuck or slow sleep switches)
/// and occasionally a wake grant is **dropped** entirely, forcing the core
/// to sit through a full retry interval. Decisions are a pure hash of
/// `(seed, core, stall start)`, so both stacks — which present stalls in
/// potentially different call orders but with identical content — see
/// exactly the same faults.
struct FaultyWakeLog {
    seed: u64,
    entries: Vec<(usize, u64, u64, usize, u64)>,
}

impl FaultyWakeLog {
    fn new(seed: u64) -> Self {
        FaultyWakeLog {
            seed,
            entries: Vec::new(),
        }
    }

    /// SplitMix64-style finalizer over `(seed, core, start)`.
    fn hash(&self, core: usize, start: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(start.wrapping_mul(0xD1B5_4A32_D192_ED03));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl StallHandler for FaultyWakeLog {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        let roll = self.hash(info.core.0, info.start.raw());
        let penalty = match roll % 10 {
            // Dropped grant: the wake request is lost and only a retry
            // long after data arrival brings the core back.
            0 => 400 + roll % 256,
            // Stuck-slow wake: the sleep switch takes far longer than the
            // nominal wake latency.
            1..=3 => 20 + roll % 64,
            // Healthy wake at data arrival.
            _ => 0,
        };
        let wake = info.data_ready + Cycles::new(penalty);
        self.entries.push((
            info.core.0,
            info.start.raw(),
            info.data_ready.raw(),
            info.outstanding,
            wake.raw(),
        ));
        wake
    }
}

/// An always-active DRAM fault plan: short windows and a high spike
/// probability so even small proptest budgets cross several faulty
/// (bank, window) pairs.
fn spiky_hierarchy(seed: u64) -> HierarchyConfig {
    HierarchyConfig::baseline().with_dram_faults(DramFaultConfig {
        spike_prob: 0.35,
        spike_cycles: Cycles::new(150),
        window_cycles: 500,
        seed,
    })
}

fn profile_for(mix: u8, name: &str) -> WorkloadProfile {
    match mix % 3 {
        0 => WorkloadProfile::mem_bound(name),
        1 => WorkloadProfile::mixed(name),
        _ => WorkloadProfile::compute_bound(name),
    }
}

fn sources(mixes: &[u8], seed_base: u64) -> Vec<SyntheticWorkload> {
    mixes
        .iter()
        .enumerate()
        .map(|(i, &mix)| SyntheticWorkload::new(&profile_for(mix, "oracle"), seed_base + i as u64))
        .collect()
}

/// One block of a scripted stream: `(computes, shared, a, b)` is a run of
/// `computes` `Compute` events followed by one shared event of kind
/// `shared`; `a` and `b` seed the cycles, instruction counts and address.
type Block = (u8, u8, u16, u16);

/// Turns blocks into events. A quarter of the compute events take 0
/// cycles; the shared event is an `Idle`, a load or a store, dependent
/// or not, to one of 512 lines every core shares, so cores hit, miss and
/// contend in the same DRAM banks.
fn scripted_events(blocks: &[Block]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for &(computes, shared, a, b) in blocks {
        for k in 0..u64::from(computes) {
            let seed = u64::from(a) + 7 * k;
            events.push(TraceEvent::Compute {
                cycles: seed % 4 * (1 + u64::from(b) % 40),
                instructions: 1 + seed % 5,
            });
        }
        events.push(match shared % 5 {
            0 => TraceEvent::Idle {
                cycles: u64::from(b) % 400,
            },
            kind => TraceEvent::MemAccess(MemAccess {
                addr: u64::from(a % 512) * 4096 + u64::from(b % 64) * 64,
                pc: 0x400 + u64::from(kind),
                kind: if kind <= 2 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                },
                dependent: kind % 2 == 1,
            }),
        });
    }
    events
}

/// Instructions core 0's script retires up to and including the first
/// `Compute` of the first block at or after `pick` whose run has at
/// least two: a target there lands inside a compute run. `blocks` must
/// hold such a block.
fn target_inside_a_compute_run(blocks: &[Block], pick: usize) -> u64 {
    let events = scripted_events(blocks);
    let mut retired = 0;
    let mut position = 0;
    for (i, &(computes, ..)) in blocks.iter().enumerate() {
        let first = events[position].instructions();
        if i >= pick && computes >= 2 {
            return retired + first;
        }
        let end = position + usize::from(computes) + 1;
        retired += events[position..end]
            .iter()
            .map(TraceEvent::instructions)
            .sum::<u64>();
        position = end;
    }
    unreachable!("no compute run of two or more at or after block {pick}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scripted streams the generator never writes: runs of 0–6
    /// consecutive `Compute` events (some of 0 cycles) between `Idle`
    /// events and dependent and independent loads and stores, on 1–16
    /// cores. The live cluster runs each compute run at once after the
    /// shared event before it and holds the next shared event back; the
    /// stall order, under a passive and a faulty handler, and the
    /// statistics must still equal the reference's one-event steps. Each
    /// budget is split over two `run` calls with the first target inside
    /// core 0's compute run, so the first call must stop there and the
    /// second resume mid-run.
    #[test]
    fn scripted_compute_runs_match_reference(
        scripts in prop::collection::vec(
            prop::collection::vec((0u8..7, 0u8..5, 0u16..2048, 0u16..2048), 1..12),
            1..17,
        ),
        pick in 0usize..12,
        second in 1u64..2_000,
        wake_seed in 0u64..1_000,
    ) {
        let mut scripts = scripts;
        let pick = pick % scripts[0].len();
        scripts[0][pick].0 = scripts[0][pick].0.max(2);
        let first = target_inside_a_compute_run(&scripts[0], pick);
        let traces: Vec<RecordedTrace> = scripts
            .iter()
            .map(|blocks| RecordedTrace::from_events("scripted", scripted_events(blocks)))
            .collect();
        let live = || {
            Cluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                traces.iter().map(|t| t.replay()).collect(),
            )
        };
        let reference = || {
            ReferenceCluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                traces.iter().map(|t| t.replay()).collect(),
            )
        };

        let (mut live_passive, mut reference_passive) = (live(), reference());
        let mut live_log = InterleavingLog::default();
        let mut reference_log = InterleavingLog::default();
        for budget in [first, second] {
            live_passive.run(budget, &mut live_log);
            reference_passive.run(budget, &mut reference_log);
            prop_assert_eq!(&live_log.entries, &reference_log.entries);
            prop_assert_eq!(live_passive.stats(), reference_passive.stats());
        }

        let (mut live_faulty, mut reference_faulty) = (live(), reference());
        let mut live_log = FaultyWakeLog::new(wake_seed);
        let mut reference_log = FaultyWakeLog::new(wake_seed);
        for budget in [first, second] {
            live_faulty.run(budget, &mut live_log);
            reference_faulty.run(budget, &mut reference_log);
            prop_assert_eq!(&live_log.entries, &reference_log.entries);
            prop_assert_eq!(live_faulty.stats(), reference_faulty.stats());
        }
    }

    /// Random clusters of synthetic workloads: identical interleaving and
    /// identical end-state statistics.
    #[test]
    fn heap_cluster_matches_reference_cluster(
        mixes in prop::collection::vec(0u8..3, 1..6),
        seed_base in 0u64..1_000,
        budget in 500u64..4_000,
    ) {
        let mut live = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            sources(&mixes, seed_base),
        );
        let mut live_log = InterleavingLog::default();
        live.run(budget, &mut live_log);

        let mut reference = ReferenceCluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            sources(&mixes, seed_base),
        );
        let mut reference_log = InterleavingLog::default();
        reference.run(budget, &mut reference_log);

        prop_assert_eq!(live_log.entries, reference_log.entries);
        prop_assert_eq!(live.stats(), reference.stats());
    }

    /// Incremental budgets must accumulate identically: running the heap
    /// cluster in two chunks (which rebuilds the heap and re-admits
    /// finished cores) equals the reference's single run of the total.
    #[test]
    fn incremental_runs_match_one_shot_reference(
        mixes in prop::collection::vec(0u8..3, 1..5),
        seed_base in 0u64..1_000,
        first in 300u64..1_500,
        second in 300u64..1_500,
    ) {
        let mut live = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            sources(&mixes, seed_base),
        );
        live.run(first, &mut PassiveHandler);
        live.run(second, &mut PassiveHandler);

        let mut reference = ReferenceCluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            sources(&mixes, seed_base),
        );
        reference.run(first, &mut PassiveHandler);
        reference.run(second, &mut PassiveHandler);

        prop_assert_eq!(live.stats(), reference.stats());
    }

    /// Replayed basic-block-granularity recordings (the pintool-style
    /// workload shape: long runs of consecutive `Compute` events, which
    /// a live core runs after each shared event without the wheel) must
    /// also interleave identically: under a passive handler, and under
    /// [`FaultyWakeLog`], whose late resumes land a compute run on a core
    /// that slept past its data.
    #[test]
    fn quantized_replay_matches_reference(
        mixes in prop::collection::vec(0u8..3, 1..5),
        seed_base in 0u64..1_000,
        quantum in 1u64..8,
        wake_seed in 0u64..1_000,
        budget in 500u64..3_000,
    ) {
        let traces: Vec<RecordedTrace> = mixes
            .iter()
            .enumerate()
            .map(|(i, &mix)| {
                let profile = profile_for(mix, "oracle_replay");
                let mut workload =
                    SyntheticWorkload::new(&profile, seed_base + i as u64);
                RecordedTrace::record(&mut workload, budget).quantize_compute(quantum)
            })
            .collect();
        let live = || {
            Cluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                traces.iter().map(|t| t.replay()).collect(),
            )
        };
        let reference = || {
            ReferenceCluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                traces.iter().map(|t| t.replay()).collect(),
            )
        };

        let (mut live_passive, mut reference_passive) = (live(), reference());
        let mut live_log = InterleavingLog::default();
        live_passive.run(budget, &mut live_log);
        let mut reference_log = InterleavingLog::default();
        reference_passive.run(budget, &mut reference_log);
        prop_assert_eq!(live_log.entries, reference_log.entries);
        prop_assert_eq!(live_passive.stats(), reference_passive.stats());

        let (mut live_faulty, mut reference_faulty) = (live(), reference());
        let mut live_log = FaultyWakeLog::new(wake_seed);
        live_faulty.run(budget, &mut live_log);
        let mut reference_log = FaultyWakeLog::new(wake_seed);
        reference_faulty.run(budget, &mut reference_log);
        prop_assert_eq!(live_log.entries, reference_log.entries);
        prop_assert_eq!(live_faulty.stats(), reference_faulty.stats());
    }

    /// Equivalence must survive active DRAM fault plans: latency spikes
    /// shift data-ready times (and therefore the whole event order), and
    /// the two stacks must shift identically.
    #[test]
    fn dram_spikes_preserve_equivalence(
        mixes in prop::collection::vec(0u8..3, 1..6),
        seed_base in 0u64..1_000,
        fault_seed in 0u64..1_000,
        budget in 500u64..4_000,
    ) {
        let mut live = Cluster::new(
            CoreConfig::baseline(),
            spiky_hierarchy(fault_seed),
            sources(&mixes, seed_base),
        );
        let mut live_log = InterleavingLog::default();
        live.run(budget, &mut live_log);

        let mut reference = ReferenceCluster::new(
            CoreConfig::baseline(),
            spiky_hierarchy(fault_seed),
            sources(&mixes, seed_base),
        );
        let mut reference_log = InterleavingLog::default();
        reference.run(budget, &mut reference_log);

        prop_assert_eq!(live_log.entries, reference_log.entries);
        prop_assert_eq!(live.stats(), reference.stats());
    }

    /// Equivalence must survive misbehaving wake-ups: when the handler
    /// injects stuck-slow wakes and dropped grants (wakes far past data
    /// arrival), the run-ahead fast path must not let a core that is
    /// sleeping through its penalty lose or gain cycles versus the
    /// reference's per-event stepping.
    #[test]
    fn faulty_wakes_preserve_equivalence(
        mixes in prop::collection::vec(0u8..3, 1..6),
        seed_base in 0u64..1_000,
        wake_seed in 0u64..1_000,
        budget in 500u64..4_000,
    ) {
        let mut live = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            sources(&mixes, seed_base),
        );
        let mut live_log = FaultyWakeLog::new(wake_seed);
        live.run(budget, &mut live_log);

        let mut reference = ReferenceCluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            sources(&mixes, seed_base),
        );
        let mut reference_log = FaultyWakeLog::new(wake_seed);
        reference.run(budget, &mut reference_log);

        prop_assert_eq!(live_log.entries, reference_log.entries);
        prop_assert_eq!(live.stats(), reference.stats());
    }

    /// Both fault dimensions at once — spiking DRAM under a misbehaving
    /// wake path — the worst case the fuzzer's FaultPlan dimension
    /// exercises end-to-end.
    #[test]
    fn combined_faults_preserve_equivalence(
        mixes in prop::collection::vec(0u8..3, 1..5),
        seed_base in 0u64..1_000,
        fault_seed in 0u64..1_000,
        budget in 500u64..3_000,
    ) {
        let mut live = Cluster::new(
            CoreConfig::baseline(),
            spiky_hierarchy(fault_seed),
            sources(&mixes, seed_base),
        );
        let mut live_log = FaultyWakeLog::new(fault_seed);
        live.run(budget, &mut live_log);

        let mut reference = ReferenceCluster::new(
            CoreConfig::baseline(),
            spiky_hierarchy(fault_seed),
            sources(&mixes, seed_base),
        );
        let mut reference_log = FaultyWakeLog::new(fault_seed);
        reference.run(budget, &mut reference_log);

        prop_assert_eq!(live_log.entries, reference_log.entries);
        prop_assert_eq!(live.stats(), reference.stats());
    }
}
