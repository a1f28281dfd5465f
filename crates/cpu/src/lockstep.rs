//! One front end feeding many single-core back ends.

use mapg_mem::{Backside, CacheLevels, HierarchyConfig};
use mapg_obs::ObsHandle;
use mapg_trace::{EventSource, TraceEvent};

use crate::cluster::ClusterStats;
use crate::core_model::{Core, CoreConfig};
use crate::error::RunError;
use crate::stall::StallHandler;

/// N single-core runs of one event stream, stepped together.
///
/// Without a prefetcher, the timing of a single-core run never changes
/// *what* reaches the caches: the core consumes the same events whatever
/// its stalls cost, and [`CacheLevels::resolve`] reads only a
/// reference's address and write flag. So the stream's generation and its
/// L1/L2 lookups — the *front end* — run once per event here, and each
/// *back end* (a core's timing, its MSHRs and DRAM, and its stall
/// handler) serves the shared resolution at its own time. Every back end
/// ends exactly where a [`Cluster`](crate::Cluster) of one core with its
/// configuration would (DESIGN §9.7).
///
/// ```
/// use mapg_cpu::{Cluster, CoreConfig, Lockstep, PassiveHandler};
/// use mapg_mem::{DramConfig, HierarchyConfig};
/// use mapg_trace::{SyntheticWorkload, WorkloadProfile};
///
/// let profile = WorkloadProfile::mem_bound("lockstep");
/// let slow = HierarchyConfig {
///     dram: DramConfig::ddr3_1333().with_latency_scaled(2.0),
///     ..HierarchyConfig::baseline()
/// };
/// let back_ends = vec![
///     (CoreConfig::baseline(), HierarchyConfig::baseline()),
///     (CoreConfig::baseline(), slow),
/// ];
/// let mut lockstep =
///     Lockstep::try_new(SyntheticWorkload::new(&profile, 3), back_ends).unwrap();
/// lockstep.try_run(20_000, &mut [PassiveHandler, PassiveHandler]).unwrap();
///
/// let mut alone = Cluster::new(
///     CoreConfig::baseline(),
///     slow,
///     vec![SyntheticWorkload::new(&profile, 3)],
/// );
/// alone.run(20_000, &mut PassiveHandler);
/// assert_eq!(lockstep.stats(1), alone.stats());
/// ```
#[derive(Debug)]
pub struct Lockstep<S> {
    source: S,
    caches: CacheLevels,
    back_ends: Vec<BackEnd>,
    target: u64,
}

/// One run's timed state: its core and its side of the hierarchy.
#[derive(Debug)]
struct BackEnd {
    core: Core<()>,
    memory: Backside,
}

impl<S: EventSource> Lockstep<S> {
    /// Builds one back end per `(core, memory)` configuration, all fed by
    /// `source` through one set of L1/L2 caches.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::NoCores`] if `back_ends` is empty, and
    /// [`RunError::Core`] or [`RunError::Memory`] for the first
    /// configuration its own check rejects, as
    /// [`Cluster::try_new`](crate::Cluster::try_new) does.
    ///
    /// # Panics
    ///
    /// Panics if the back ends disagree on the L1 or L2 geometry, or if
    /// one enables the prefetcher: prefetch fills change the caches at
    /// times only one back end knows.
    pub fn try_new(
        source: S,
        back_ends: Vec<(CoreConfig, HierarchyConfig)>,
    ) -> Result<Self, RunError> {
        let Some((_, front)) = back_ends.first() else {
            return Err(RunError::NoCores);
        };
        let caches = CacheLevels::new(front);
        let (l1, l2) = (front.l1, front.l2);
        let back_ends = back_ends
            .into_iter()
            .map(|(core, memory)| {
                assert!(
                    memory.l1 == l1 && memory.l2 == l2,
                    "back ends in lockstep share one L1/L2 geometry"
                );
                assert!(
                    !memory.prefetch.is_enabled(),
                    "back ends in lockstep run without a prefetcher"
                );
                core.validate().map_err(RunError::Core)?;
                Ok(BackEnd {
                    core: Core::new(core, ()),
                    memory: Backside::try_new(memory)?,
                })
            })
            .collect::<Result<_, RunError>>()?;
        Ok(Lockstep {
            source,
            caches,
            back_ends,
            target: 0,
        })
    }

    /// Attaches an observability handle to back end `index`'s core and
    /// DRAM, as [`Cluster::set_obs`](crate::Cluster::set_obs) does.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_obs(&mut self, index: usize, obs: ObsHandle) {
        let back_end = &mut self.back_ends[index];
        back_end.core.set_obs(obs.clone());
        back_end.memory.set_obs(obs);
    }

    /// Runs every back end until its core has retired the accumulated
    /// per-core target, raised by `instructions` per call as in
    /// [`Cluster::try_run`](crate::Cluster::try_run), back end `i`
    /// stalling into `handlers[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ZeroInstructions`] if `instructions` is zero.
    ///
    /// # Panics
    ///
    /// Panics if there is not one handler per back end.
    pub fn try_run<H: StallHandler>(
        &mut self,
        instructions: u64,
        handlers: &mut [H],
    ) -> Result<(), RunError> {
        if instructions == 0 {
            return Err(RunError::ZeroInstructions);
        }
        assert_eq!(
            handlers.len(),
            self.back_ends.len(),
            "one stall handler per back end"
        );
        self.target += instructions;
        let Lockstep {
            source,
            caches,
            back_ends,
            target,
        } = self;
        // Every core consumes the same events, so they all retire the same
        // count and reach the target on the same event.
        let mut retired = back_ends[0].core.stats().instructions;
        while retired < *target {
            let event = source.next_event();
            retired += event.instructions();
            if let TraceEvent::MemAccess(access) = &event {
                let resolution = caches.resolve(access);
                for (back_end, handler) in back_ends.iter_mut().zip(handlers.iter_mut()) {
                    let memory = &mut back_end.memory;
                    back_end.core.process(
                        event,
                        |now, _| memory.serve(caches, now, &resolution),
                        handler,
                    );
                }
            } else {
                for (back_end, handler) in back_ends.iter_mut().zip(handlers.iter_mut()) {
                    back_end.core.process(
                        event,
                        |_, _| unreachable!("only a memory access reaches the hierarchy"),
                        handler,
                    );
                }
            }
        }
        Ok(())
    }

    /// Back end `index`'s statistics, shaped as a one-core cluster's.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn stats(&self, index: usize) -> ClusterStats {
        let back_end = &self.back_ends[index];
        ClusterStats {
            per_core: vec![back_end.core.stats().clone()],
            memory: back_end.memory.stats(&self.caches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::stall::PassiveHandler;
    use mapg_mem::{CacheConfig, DramConfig};
    use mapg_trace::{SyntheticWorkload, WorkloadProfile};
    use mapg_units::Cycles;

    fn source() -> SyntheticWorkload {
        SyntheticWorkload::new(&WorkloadProfile::mem_bound("lockstep"), 7)
    }

    /// Back ends that differ in every timed knob: DRAM latency, MLP and
    /// the exposed L2 penalty.
    fn mixed_back_ends() -> Vec<(CoreConfig, HierarchyConfig)> {
        let slow = HierarchyConfig {
            dram: DramConfig::ddr3_1333().with_latency_scaled(3.0),
            mshr_entries: 2,
            ..HierarchyConfig::baseline()
        };
        let narrow = CoreConfig {
            mlp_limit: 1,
            l2_hit_penalty: Cycles::new(30),
            ..CoreConfig::baseline()
        };
        vec![
            (CoreConfig::baseline(), HierarchyConfig::baseline()),
            (narrow, slow),
            (CoreConfig::baseline(), slow),
        ]
    }

    #[test]
    fn every_back_end_equals_its_own_cluster_run() {
        let back_ends = mixed_back_ends();
        let mut lockstep = Lockstep::try_new(source(), back_ends.clone()).unwrap();
        let mut handlers = vec![PassiveHandler; back_ends.len()];
        lockstep.try_run(30_000, &mut handlers).unwrap();
        lockstep.try_run(10_000, &mut handlers).unwrap();
        for (i, (core, memory)) in back_ends.into_iter().enumerate() {
            let mut cluster = Cluster::new(core, memory, vec![source()]);
            cluster.run(30_000, &mut PassiveHandler);
            cluster.run(10_000, &mut PassiveHandler);
            assert_eq!(lockstep.stats(i), cluster.stats(), "back end {i}");
        }
    }

    #[test]
    fn construction_errors_match_the_cluster() {
        let none: Vec<(CoreConfig, HierarchyConfig)> = Vec::new();
        assert_eq!(
            Lockstep::try_new(source(), none).unwrap_err(),
            RunError::NoCores
        );
        let zero_mlp = CoreConfig {
            mlp_limit: 0,
            ..CoreConfig::baseline()
        };
        let error =
            Lockstep::try_new(source(), vec![(zero_mlp, HierarchyConfig::baseline())]).unwrap_err();
        assert_eq!(error, RunError::Core("mlp_limit must be at least 1".into()));
        let no_mshrs = HierarchyConfig {
            mshr_entries: 0,
            ..HierarchyConfig::baseline()
        };
        let error =
            Lockstep::try_new(source(), vec![(CoreConfig::baseline(), no_mshrs)]).unwrap_err();
        assert_eq!(error, RunError::Memory(mapg_mem::ConfigError::ZeroMshrs));
        let mut lockstep = Lockstep::try_new(source(), mixed_back_ends()).unwrap();
        assert_eq!(
            lockstep.try_run(0, &mut [PassiveHandler; 3]),
            Err(RunError::ZeroInstructions)
        );
    }

    #[test]
    #[should_panic(expected = "share one L1/L2 geometry")]
    fn back_ends_must_share_the_caches() {
        let small_l2 = HierarchyConfig {
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ..CacheConfig::l2()
            },
            ..HierarchyConfig::baseline()
        };
        let _ = Lockstep::try_new(
            source(),
            vec![
                (CoreConfig::baseline(), HierarchyConfig::baseline()),
                (CoreConfig::baseline(), small_l2),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "without a prefetcher")]
    fn prefetching_back_ends_are_refused() {
        let _ = Lockstep::try_new(
            source(),
            vec![(
                CoreConfig::baseline(),
                HierarchyConfig::with_stream_prefetcher(),
            )],
        );
    }
}
