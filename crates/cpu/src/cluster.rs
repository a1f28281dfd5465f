//! Multi-core clusters sharing one memory hierarchy.

use mapg_mem::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
use mapg_trace::EventSource;
use mapg_units::Cycle;

use crate::core_model::{Core, CoreConfig, CoreStats};
use crate::error::RunError;
use crate::sched::{CoreKey, SchedHeap};
use crate::stall::{CoreId, StallHandler};

/// N cores in front of one shared [`MemoryHierarchy`].
///
/// Shared events — memory accesses and idle periods — are stepped in
/// **global time order** (always the core with the smallest local
/// timestamp advances next), so contention at the shared hierarchy —
/// extra queueing when many cores miss together — emerges naturally from
/// the bank/bus free times rather than being modelled analytically.
/// `Compute` events touch nothing another core can see, so a core runs
/// the ones after each shared event at once and re-enters the order at
/// the issue time of its next shared event.
///
/// Scheduling uses a 4-ary min-heap keyed by `(local_time, core_index)`
/// — O(log N) per decision instead of the O(N) re-scan the original
/// implementation paid — plus a *run-ahead* loop: the minimum core keeps
/// stepping without any heap traffic for as long as it remains the global
/// minimum. Ties in local time deterministically resolve to the lowest
/// core index, so the interleaving of shared events is bit-identical to
/// the retained linear-scan seed stack
/// ([`ReferenceCluster`](crate::ReferenceCluster)), which steps every
/// event.
///
/// ```
/// use mapg_cpu::{Cluster, CoreConfig, PassiveHandler};
/// use mapg_mem::HierarchyConfig;
/// use mapg_trace::{SyntheticWorkload, WorkloadProfile};
///
/// let profile = WorkloadProfile::mem_bound("shared");
/// let sources: Vec<_> = (0..4)
///     .map(|i| SyntheticWorkload::new(&profile, 100 + i))
///     .collect();
/// let mut cluster = Cluster::new(
///     CoreConfig::baseline(),
///     HierarchyConfig::baseline(),
///     sources,
/// );
/// cluster.run(50_000, &mut PassiveHandler);
/// assert_eq!(cluster.stats().per_core.len(), 4);
/// ```
#[derive(Debug)]
pub struct Cluster<S> {
    cores: Vec<Core<S>>,
    memory: MemoryHierarchy,
    target: u64,
}

/// Statistics snapshot for a whole cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Per-core execution statistics, indexed by [`CoreId`].
    pub per_core: Vec<CoreStats>,
    /// The shared hierarchy's counters.
    pub memory: HierarchyStats,
}

impl ClusterStats {
    /// Total instructions retired across cores.
    pub fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }

    /// The slowest core's finishing time — the cluster's makespan.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_core
            .iter()
            .map(|c| c.total_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate throughput: instructions per (makespan) cycle.
    pub fn aggregate_ipc(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / makespan as f64
        }
    }
}

impl<S: EventSource> Cluster<S> {
    /// Builds a cluster with one core per event source, all sharing a
    /// single fresh hierarchy.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`Cluster::try_new`]'s error if
    /// `sources` is empty or either configuration is rejected.
    pub fn new(core_config: CoreConfig, memory_config: HierarchyConfig, sources: Vec<S>) -> Self {
        match Cluster::try_new(core_config, memory_config, sources) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Cluster::new`] for user-supplied configurations.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::NoCores`] if `sources` is empty,
    /// [`RunError::Core`] if [`CoreConfig::validate`] rejects
    /// `core_config`, or [`RunError::Memory`] if the hierarchy
    /// configuration fails validation (zero DRAM banks, zero MSHRs, bad
    /// fault plan, ...).
    pub fn try_new(
        core_config: CoreConfig,
        memory_config: HierarchyConfig,
        sources: Vec<S>,
    ) -> Result<Self, RunError> {
        if sources.is_empty() {
            return Err(RunError::NoCores);
        }
        core_config.validate().map_err(RunError::Core)?;
        let memory = MemoryHierarchy::try_new(memory_config)?;
        let cores = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| Core::with_id(CoreId(i), core_config, source))
            .collect();
        Ok(Cluster {
            cores,
            memory,
            target: 0,
        })
    }

    /// Attaches an observability handle to every core and to the shared
    /// hierarchy. Stall spans then carry per-core scopes and DRAM fault
    /// events per-bank scopes.
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        for core in &mut self.cores {
            core.set_obs(obs.clone());
        }
        self.memory.set_obs(obs);
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the cluster has no cores (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Runs every core for at least `instructions_per_core` instructions,
    /// interleaved in global time order.
    ///
    /// # Panics
    ///
    /// Panics if `instructions_per_core` is zero.
    pub fn run<H: StallHandler>(&mut self, instructions_per_core: u64, handler: &mut H) {
        assert!(
            instructions_per_core > 0,
            "must run at least one instruction per core"
        );
        self.try_run(instructions_per_core, handler)
            .expect("instruction count validated above");
    }

    /// Fallible form of [`Cluster::run`] for user-supplied budgets.
    ///
    /// The global event wheel: one heap over every core, the minimum
    /// advancing next by one shared event and the compute run after it,
    /// run until every core has retired the accumulated per-core target.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ZeroInstructions`] if `instructions_per_core`
    /// is zero.
    pub fn try_run<H: StallHandler>(
        &mut self,
        instructions_per_core: u64,
        handler: &mut H,
    ) -> Result<(), RunError> {
        if instructions_per_core == 0 {
            return Err(RunError::ZeroInstructions);
        }
        self.target += instructions_per_core;
        let target = self.target;
        // Heap of unfinished cores keyed by (local time, index); rebuilt
        // per call so incremental runs re-admit previously finished cores.
        let mut heap = SchedHeap::with_capacity(self.cores.len());
        for (i, core) in self.cores.iter().enumerate() {
            if core.stats().instructions < target {
                heap.push(CoreKey::new(core.now(), i as u32));
            }
        }

        // The event each unfinished core read past its compute run and has
        // yet to process. A core holds one only while it is scheduled, so
        // every slot is empty again when the heap drains.
        let mut held = vec![None; self.cores.len()];

        let memory = &mut self.memory;
        let mut next = heap.pop();
        while let Some(key) = next {
            let index = key.index();
            let core = &mut self.cores[index as usize];
            let held = &mut held[index as usize];
            // Run-ahead: the popped core is the global minimum; keep
            // stepping it — one shared event and the compute run after
            // it per iteration, zero heap traffic — until it either
            // finishes or falls behind another core. Only then does its
            // key re-enter the heap, fused with the extraction of the new
            // minimum in a single sift.
            loop {
                core.step_then_compute(held, target, memory, handler);
                if core.stats().instructions >= target {
                    next = heap.pop();
                    break;
                }
                let key = CoreKey::new(core.now(), index);
                let min = heap.replace_min(key);
                if min != key {
                    next = Some(min);
                    break;
                }
            }
        }
        Ok(())
    }

    /// Per-core and shared-memory statistics.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            per_core: self.cores.iter().map(|c| c.stats().clone()).collect(),
            memory: self.memory.stats(),
        }
    }

    /// The current timestamp of core `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core_now(&self, id: CoreId) -> Cycle {
        self.cores[id.0].now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::PassiveHandler;
    use mapg_trace::{SyntheticWorkload, WorkloadProfile};

    fn mem_sources(n: usize) -> Vec<SyntheticWorkload> {
        let profile = WorkloadProfile::mem_bound("cluster_mem");
        (0..n)
            .map(|i| SyntheticWorkload::new(&profile, 1000 + i as u64))
            .collect()
    }

    #[test]
    fn all_cores_reach_target() {
        let mut cluster = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            mem_sources(4),
        );
        cluster.run(20_000, &mut PassiveHandler);
        let stats = cluster.stats();
        assert_eq!(stats.per_core.len(), 4);
        for core in &stats.per_core {
            assert!(core.instructions >= 20_000);
        }
        assert!(stats.total_instructions() >= 80_000);
        assert!(stats.aggregate_ipc() > 0.0);
    }

    #[test]
    fn shared_dram_contention_slows_cores_down() {
        // One core alone vs the same core sharing DRAM with three copies.
        let solo_cycles = {
            let mut cluster = Cluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                mem_sources(1),
            );
            cluster.run(50_000, &mut PassiveHandler);
            cluster.stats().per_core[0].total_cycles
        };
        let shared_cycles = {
            let mut cluster = Cluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                mem_sources(4),
            );
            cluster.run(50_000, &mut PassiveHandler);
            cluster.stats().per_core[0].total_cycles
        };
        assert!(
            shared_cycles > solo_cycles,
            "4-way sharing ({shared_cycles}) must be slower than solo ({solo_cycles})"
        );
    }

    #[test]
    fn incremental_runs_accumulate() {
        let mut cluster = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            mem_sources(2),
        );
        cluster.run(10_000, &mut PassiveHandler);
        let first = cluster.stats().total_instructions();
        cluster.run(10_000, &mut PassiveHandler);
        let second = cluster.stats().total_instructions();
        assert!(first >= 20_000);
        assert!(second >= 40_000, "both cores must reach the raised target");
        assert!(second > first);
    }

    /// Single-core clusters drive the run-ahead loop against an *empty*
    /// heap for the whole run: `replace_min` must hand the lone core its
    /// key straight back every iteration, and the run must still hit the
    /// target exactly as a multi-core run would.
    #[test]
    fn single_core_cluster_runs_ahead_to_target() {
        let mut cluster = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            mem_sources(1),
        );
        cluster.run(20_000, &mut PassiveHandler);
        assert!(cluster.stats().per_core[0].instructions >= 20_000);
        // And again: re-admission of the lone finished core.
        cluster.run(20_000, &mut PassiveHandler);
        assert!(cluster.stats().per_core[0].instructions >= 40_000);
    }

    /// A zero-instruction budget would admit no cores (an empty heap from
    /// the start); `run` pins that degenerate case behind an explicit
    /// assert rather than silently doing nothing.
    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_budget_run_is_rejected() {
        let mut cluster = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            mem_sources(2),
        );
        cluster.run(0, &mut PassiveHandler);
    }

    #[test]
    fn cluster_is_deterministic() {
        let run = || {
            let mut cluster = Cluster::new(
                CoreConfig::baseline(),
                HierarchyConfig::baseline(),
                mem_sources(3),
            );
            cluster.run(30_000, &mut PassiveHandler);
            cluster.stats().makespan_cycles()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_cluster_rejected() {
        let _ = Cluster::<SyntheticWorkload>::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            vec![],
        );
    }

    #[test]
    fn a_bad_core_config_is_an_error_not_a_panic() {
        let config = CoreConfig {
            mlp_limit: 0,
            ..CoreConfig::baseline()
        };
        let error =
            Cluster::try_new(config, HierarchyConfig::baseline(), mem_sources(2)).unwrap_err();
        assert_eq!(error, RunError::Core("mlp_limit must be at least 1".into()));
        assert_eq!(error.to_string(), "mlp_limit must be at least 1");
    }

    #[test]
    #[should_panic(expected = "mlp_limit must be at least 1")]
    fn new_panics_with_the_core_config_message() {
        let config = CoreConfig {
            mlp_limit: 0,
            ..CoreConfig::baseline()
        };
        let _ = Cluster::new(config, HierarchyConfig::baseline(), mem_sources(1));
    }

    #[test]
    fn accessors() {
        let cluster = Cluster::new(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            mem_sources(2),
        );
        assert_eq!(cluster.len(), 2);
        assert!(!cluster.is_empty());
        assert_eq!(cluster.core_now(CoreId(1)), Cycle::ZERO);
    }
}
