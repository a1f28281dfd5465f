//! The retained "before" core/cluster stack, kept verbatim as an executable
//! specification.
//!
//! [`ReferenceCluster`] is the execution model exactly as this workspace
//! shipped it before the event-wheel rewrite: one trace event per step, a
//! linear `min_by_key` re-scan of every core on every event to find the next
//! core to advance, and the frozen seed memory hierarchy
//! ([`mapg_mem::ReferenceHierarchy`]) underneath. Together with that
//! hierarchy it forms the complete seed simulator, retained as the
//! **equivalence oracle**: the scheduler-equivalence suite, the
//! differential fuzzer and the repository benchmark demand that the
//! optimized stack ([`Cluster::run`](crate::Cluster::run) with the heap
//! scheduler's run-ahead and the flattened caches) reproduces this
//! stack's core interleaving, statistics and `RunReport`s bit-for-bit
//! across random core counts, workload mixes and seeds.
//!
//! Nothing here should be optimized: it is the specification.

use mapg_mem::{HierarchyConfig, ReferenceHierarchy, ServiceLevel};
use mapg_obs::{EventKind, ObsHandle, Scope};
use mapg_trace::{AccessKind, EventSource, TraceEvent};
use mapg_units::{Cycle, Cycles};

use crate::cluster::ClusterStats;
use crate::core_model::{CoreConfig, CoreStats};
use crate::error::RunError;
use crate::stall::{CoreId, StallCause, StallHandler, StallInfo};

/// The seed core: strictly one trace event per step, no event lookahead.
#[derive(Debug, Clone)]
struct ReferenceCore<S> {
    id: CoreId,
    config: CoreConfig,
    source: S,
    now: Cycle,
    outstanding: Vec<Cycle>,
    last_miss_completion: Cycle,
    stats: CoreStats,
    obs: ObsHandle,
}

impl<S: EventSource> ReferenceCore<S> {
    fn with_id(id: CoreId, config: CoreConfig, source: S) -> Self {
        assert!(config.mlp_limit > 0, "mlp_limit must be at least 1");
        ReferenceCore {
            id,
            config,
            source,
            now: Cycle::ZERO,
            outstanding: Vec::with_capacity(config.mlp_limit),
            last_miss_completion: Cycle::ZERO,
            stats: CoreStats::new(),
            obs: ObsHandle::disabled(),
        }
    }

    fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    fn step<H: StallHandler>(&mut self, memory: &mut ReferenceHierarchy, handler: &mut H) {
        let event = self.source.next_event();
        self.process(event, memory, handler);
    }

    fn process<H: StallHandler>(
        &mut self,
        event: TraceEvent,
        memory: &mut ReferenceHierarchy,
        handler: &mut H,
    ) {
        self.stats.instructions += event.instructions();
        match event {
            TraceEvent::Compute { cycles, .. } => {
                self.now += Cycles::new(cycles);
                self.prune();
            }
            TraceEvent::Idle { cycles } => {
                self.stats.idle_periods += 1;
                let resume_at = self.now + Cycles::new(cycles.max(1));
                self.stall(StallCause::Idle, resume_at, 0, handler);
            }
            TraceEvent::MemAccess(access) => {
                if access.dependent {
                    self.prune();
                    if !self.outstanding.is_empty() && self.last_miss_completion > self.now {
                        self.stall(
                            StallCause::Dependency,
                            self.last_miss_completion,
                            access.pc,
                            handler,
                        );
                    }
                }
                let response = memory.access(self.now, &access);
                match (access.kind, response.level) {
                    (AccessKind::Store, _) => {
                        self.now += Cycles::new(1);
                    }
                    (AccessKind::Load, ServiceLevel::L1) => {
                        self.now += Cycles::new(1);
                    }
                    (AccessKind::Load, ServiceLevel::L2) => {
                        self.now += self.config.l2_hit_penalty;
                    }
                    (AccessKind::Load, ServiceLevel::Dram) => {
                        self.stats.dram_loads += 1;
                        self.outstanding.push(response.completion);
                        self.last_miss_completion = response.completion;
                        self.now += Cycles::new(1);
                        self.prune();
                        if self.outstanding.len() >= self.config.mlp_limit {
                            let oldest = self
                                .outstanding
                                .iter()
                                .copied()
                                .min()
                                .expect("outstanding non-empty at MLP limit");
                            self.stall(StallCause::MlpLimit, oldest, access.pc, handler);
                        }
                    }
                }
            }
        }
        self.stats.total_cycles = self.now.raw();
    }

    fn stall<H: StallHandler>(
        &mut self,
        cause: StallCause,
        data_ready: Cycle,
        pc: u64,
        handler: &mut H,
    ) {
        debug_assert!(data_ready > self.now, "stall must have positive length");
        let info = StallInfo {
            core: self.id,
            start: self.now,
            data_ready,
            pc,
            outstanding: self.outstanding.len(),
            cause,
        };
        let scope = Scope::Core(self.id.0 as u32);
        self.obs.emit(self.now.raw(), scope, EventKind::StallBegin);
        let resume = handler.on_stall(&info);
        debug_assert!(
            resume >= data_ready,
            "handler resumed before data arrival: {resume} < {data_ready}"
        );
        let resume = resume.max(data_ready);
        self.stats.stall_count += 1;
        let span = (resume - self.now).raw();
        self.stats.stall_cycles += span;
        match cause {
            StallCause::MlpLimit => self.stats.mlp_stall_cycles += span,
            StallCause::Dependency => {
                self.stats.dependency_stall_cycles += span;
            }
            StallCause::Idle => self.stats.idle_stall_cycles += span,
        }
        self.stats.penalty_cycles += (resume - data_ready).raw();
        self.stats.stall_durations.record(info.natural_duration());
        self.obs.emit(resume.raw(), scope, EventKind::StallEnd);
        self.now = resume;
        self.prune();
    }

    fn prune(&mut self) {
        let now = self.now;
        self.outstanding.retain(|&c| c > now);
    }
}

/// The seed cluster: a linear `min_by_key` re-scan of every core on every
/// single event step, exactly as [`Cluster::run`](crate::Cluster::run) was
/// implemented before the event-wheel rewrite, over the frozen seed memory
/// hierarchy.
///
/// The API mirrors [`Cluster`](crate::Cluster) where the equivalence suite
/// and the `scheduler` bench need it: construction from the same configs
/// and sources, [`set_obs`](ReferenceCluster::set_obs),
/// [`run`](ReferenceCluster::run) /
/// [`try_run`](ReferenceCluster::try_run), and a [`ClusterStats`] snapshot
/// that must compare equal to the optimized cluster's.
#[derive(Debug)]
pub struct ReferenceCluster<S> {
    cores: Vec<ReferenceCore<S>>,
    memory: ReferenceHierarchy,
    target: u64,
}

impl<S: EventSource> ReferenceCluster<S> {
    /// Builds the frozen seed cluster — one core per source, a fresh seed
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`ReferenceCluster::try_new`]'s error.
    pub fn new(core_config: CoreConfig, memory_config: HierarchyConfig, sources: Vec<S>) -> Self {
        match ReferenceCluster::try_new(core_config, memory_config, sources) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`ReferenceCluster::new`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::NoCores`] if `sources` is empty, or
    /// [`RunError::Core`] if [`CoreConfig::validate`] rejects
    /// `core_config`; no core is built then.
    pub fn try_new(
        core_config: CoreConfig,
        memory_config: HierarchyConfig,
        sources: Vec<S>,
    ) -> Result<Self, RunError> {
        if sources.is_empty() {
            return Err(RunError::NoCores);
        }
        core_config.validate().map_err(RunError::Core)?;
        let cores: Vec<_> = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| ReferenceCore::with_id(CoreId(i), core_config, source))
            .collect();
        Ok(ReferenceCluster {
            cores,
            memory: ReferenceHierarchy::new(memory_config),
            target: 0,
        })
    }

    /// Attaches an observability handle to every core and the hierarchy,
    /// with the same wiring as [`Cluster::set_obs`](crate::Cluster::set_obs).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        for core in &mut self.cores {
            core.set_obs(obs.clone());
        }
        self.memory.set_obs(obs);
    }

    /// The seed scheduler loop: re-scan all cores, step the one with the
    /// smallest local timestamp, one event at a time.
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

    /// Fallible form of [`ReferenceCluster::run`].
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
        loop {
            let next = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.stats.instructions < self.target)
                .min_by_key(|(_, c)| c.now)
                .map(|(i, _)| i);
            let Some(index) = next else { break };
            self.cores[index].step(&mut self.memory, handler);
        }
        Ok(())
    }

    /// Per-core and shared-memory statistics, in the same shape as
    /// [`Cluster::stats`](crate::Cluster::stats).
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            per_core: self.cores.iter().map(|c| c.stats.clone()).collect(),
            memory: self.memory.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_trace::{SyntheticWorkload, WorkloadProfile};

    #[test]
    fn a_bad_core_config_is_an_error_not_a_panic() {
        let config = CoreConfig {
            mlp_limit: 0,
            ..CoreConfig::baseline()
        };
        let sources = vec![SyntheticWorkload::new(
            &WorkloadProfile::mem_bound("ref"),
            1,
        )];
        let error =
            ReferenceCluster::try_new(config, HierarchyConfig::baseline(), sources).unwrap_err();
        assert_eq!(error, RunError::Core("mlp_limit must be at least 1".into()));
    }
}
