//! The bounded-MLP core.

use mapg_mem::{AccessResponse, LatencyHistogram, MemoryHierarchy, ServiceLevel};
use mapg_obs::{EventKind, ObsHandle, Scope};
use mapg_trace::{AccessKind, EventSource, MemAccess, TraceEvent};
use mapg_units::{Cycle, Cycles, Hertz};

use crate::error::RunError;
use crate::stall::{CoreId, StallCause, StallHandler, StallInfo};

/// Static core parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Maximum LLC misses the core can overlap before blocking (the
    /// ROB/issue-queue-imposed MLP bound).
    pub mlp_limit: usize,
    /// Extra cycles charged for a load served by L2 (the un-hidable part of
    /// the LLC hit latency in an out-of-order pipeline).
    pub l2_hit_penalty: Cycles,
    /// Core clock frequency (converts cycle counts to wall-clock time and
    /// energy downstream).
    pub clock: Hertz,
}

impl CoreConfig {
    /// The workspace default: 8-deep MLP, 10-cycle exposed L2 penalty,
    /// 2 GHz clock.
    pub fn baseline() -> Self {
        CoreConfig {
            mlp_limit: 8,
            l2_hit_penalty: Cycles::new(10),
            clock: Hertz::from_ghz(2.0),
        }
    }

    /// Checks internal consistency: a core that cannot tolerate a single
    /// outstanding miss cannot make progress past its first one.
    pub fn validate(&self) -> Result<(), String> {
        if self.mlp_limit == 0 {
            return Err("mlp_limit must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::baseline()
    }
}

/// Execution statistics for one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Final core timestamp (total elapsed cycles).
    pub total_cycles: u64,
    /// Cycles spent blocked in stalls (including wake-up penalties added by
    /// the handler).
    pub stall_cycles: u64,
    /// Number of distinct stall intervals.
    pub stall_count: u64,
    /// Cycles of stall time added *beyond* data arrival by the handler
    /// (wake-up penalties; zero for the passive baseline).
    pub penalty_cycles: u64,
    /// Distribution of natural stall durations (before penalties).
    pub stall_durations: LatencyHistogram,
    /// Loads served by DRAM (LLC misses the core observed).
    pub dram_loads: u64,
    /// Injected long-idle periods observed.
    pub idle_periods: u64,
    /// Stall cycles attributed to the MLP limit.
    pub mlp_stall_cycles: u64,
    /// Stall cycles attributed to dependent (pointer-chase) waits.
    pub dependency_stall_cycles: u64,
    /// Stall cycles attributed to injected idle periods.
    pub idle_stall_cycles: u64,
}

impl CoreStats {
    pub(crate) fn new() -> Self {
        CoreStats {
            instructions: 0,
            total_cycles: 0,
            stall_cycles: 0,
            stall_count: 0,
            penalty_cycles: 0,
            stall_durations: LatencyHistogram::new(),
            dram_loads: 0,
            idle_periods: 0,
            mlp_stall_cycles: 0,
            dependency_stall_cycles: 0,
            idle_stall_cycles: 0,
        }
    }

    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.total_cycles as f64
        }
    }

    /// Fraction of time spent blocked on memory.
    pub fn stall_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Cycles the core was actively executing.
    pub fn active_cycles(&self) -> u64 {
        self.total_cycles - self.stall_cycles
    }

    /// Audits internal consistency: stall time is bounded by total time,
    /// the per-cause breakdown partitions the stall total, and penalties
    /// are part of the stall time. Returns one message per broken law.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.stall_cycles > self.total_cycles {
            problems.push(format!(
                "core accounting: stall {} exceeds total {} cycles",
                self.stall_cycles, self.total_cycles
            ));
        }
        let breakdown =
            self.mlp_stall_cycles + self.dependency_stall_cycles + self.idle_stall_cycles;
        if breakdown != self.stall_cycles {
            problems.push(format!(
                "core accounting: cause breakdown {} != stall total {}",
                breakdown, self.stall_cycles
            ));
        }
        if self.penalty_cycles > self.stall_cycles {
            problems.push(format!(
                "core accounting: penalty {} exceeds stall {} cycles",
                self.penalty_cycles, self.stall_cycles
            ));
        }
        problems
    }
}

/// A single core executing an event stream against a shared hierarchy.
///
/// A core reads its events from its own source `S`; a `Core<()>` owns
/// none and is fed each event by its caller (the lockstep driver, DESIGN
/// §9.7).
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Core<S> {
    id: CoreId,
    config: CoreConfig,
    source: S,
    now: Cycle,
    /// Completion times of in-flight DRAM loads, unordered.
    outstanding: Vec<Cycle>,
    /// Exact minimum of `outstanding`, `u64::MAX` when empty. `prune` runs
    /// after every time hop, so the nothing-completed-yet case must be one
    /// compare instead of a `retain` sweep.
    earliest_outstanding: Cycle,
    /// Completion of the most recently issued DRAM load (dependency target).
    last_miss_completion: Cycle,
    stats: CoreStats,
    obs: ObsHandle,
}

impl<S> Core<S> {
    /// Creates a core with id 0; use [`Core::with_id`] inside clusters.
    pub fn new(config: CoreConfig, source: S) -> Self {
        Core::with_id(CoreId(0), config, source)
    }

    /// Creates a core with an explicit id.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CoreConfig::validate`]).
    pub fn with_id(id: CoreId, config: CoreConfig, source: S) -> Self {
        if let Err(message) = config.validate() {
            panic!("{message}");
        }
        Core {
            id,
            config,
            source,
            now: Cycle::ZERO,
            outstanding: Vec::with_capacity(config.mlp_limit),
            earliest_outstanding: Cycle::new(u64::MAX),
            last_miss_completion: Cycle::ZERO,
            stats: CoreStats::new(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle; stall begin/end events flow
    /// through it from now on.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The core's current timestamp.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }
}

impl<S: EventSource> Core<S> {
    /// Runs until at least `instructions` have retired.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn run<H: StallHandler>(
        &mut self,
        instructions: u64,
        memory: &mut MemoryHierarchy,
        handler: &mut H,
    ) {
        assert!(instructions > 0, "must run at least one instruction");
        self.try_run(instructions, memory, handler)
            .expect("instruction count validated above");
    }

    /// Fallible form of [`Core::run`] for user-supplied budgets.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ZeroInstructions`] if `instructions` is zero.
    pub fn try_run<H: StallHandler>(
        &mut self,
        instructions: u64,
        memory: &mut MemoryHierarchy,
        handler: &mut H,
    ) -> Result<(), RunError> {
        if instructions == 0 {
            return Err(RunError::ZeroInstructions);
        }
        let target = self.stats.instructions + instructions;
        while self.stats.instructions < target {
            self.step(memory, handler);
        }
        self.stats.total_cycles = self.now.raw();
        Ok(())
    }

    /// Processes exactly one trace event.
    ///
    /// A [`Cluster`](crate::Cluster) does not step its cores one event at a
    /// time: it runs a core's `Compute` events together with the shared
    /// event before them (DESIGN §9.2).
    pub fn step<H: StallHandler>(&mut self, memory: &mut MemoryHierarchy, handler: &mut H) {
        let event = self.source.next_event();
        self.process(event, |now, access| memory.access(now, access), handler);
    }

    /// Processes one event — `held`, if the last call held one back, else
    /// the source's next — and then every `Compute` event that follows it,
    /// until the core has retired `target` instructions. The first other
    /// event it reads is left in `held`, unprocessed, and the core's clock
    /// stands at that event's issue time.
    ///
    /// Only `MemAccess` and `Idle` events touch state other cores can see
    /// (the shared hierarchy and the stall handler); a `Compute` event
    /// only advances this core's own clock. So a cluster that keys the
    /// core at [`Core::now`] after this call orders every shared event
    /// exactly as one-event steps would.
    pub(crate) fn step_then_compute<H: StallHandler>(
        &mut self,
        held: &mut Option<TraceEvent>,
        target: u64,
        memory: &mut MemoryHierarchy,
        handler: &mut H,
    ) {
        let event = held.take().unwrap_or_else(|| self.source.next_event());
        self.process(event, |now, access| memory.access(now, access), handler);
        while self.stats.instructions < target {
            match self.source.next_event() {
                TraceEvent::Compute {
                    cycles,
                    instructions,
                } => {
                    self.stats.instructions += instructions;
                    self.compute(cycles);
                }
                event => {
                    *held = Some(event);
                    break;
                }
            }
        }
        self.stats.total_cycles = self.now.raw();
    }
}

impl<S> Core<S> {
    /// Executes one trace event. `memory` serves the event's reference,
    /// if it is one, at the time the core issues it.
    pub(crate) fn process<H, M>(&mut self, event: TraceEvent, memory: M, handler: &mut H)
    where
        H: StallHandler,
        M: FnOnce(Cycle, &MemAccess) -> AccessResponse,
    {
        self.stats.instructions += event.instructions();
        match event {
            TraceEvent::Compute { cycles, .. } => self.compute(cycles),
            TraceEvent::Idle { cycles } => {
                // The program blocks: surface the interval to the power
                // controller exactly like a memory stall (it is the
                // classic idle-gating opportunity). `pc = 0` marks the
                // idle class for predictors.
                self.stats.idle_periods += 1;
                let resume_at = self.now + Cycles::new(cycles.max(1));
                self.stall(StallCause::Idle, resume_at, 0, handler);
            }
            TraceEvent::MemAccess(access) => {
                // A dependent access cannot issue while its producer miss is
                // in flight.
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
                let response = memory(self.now, &access);
                match (access.kind, response.level) {
                    (AccessKind::Store, _) => {
                        // Posted: one issue cycle, never blocks.
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
                        self.earliest_outstanding =
                            self.earliest_outstanding.min(response.completion);
                        self.last_miss_completion = response.completion;
                        self.now += Cycles::new(1);
                        self.prune();
                        if self.outstanding.len() >= self.config.mlp_limit {
                            // `earliest_outstanding` is exact (push
                            // min-folds it, prune recomputes it), so it is
                            // the oldest in-flight completion.
                            self.stall(
                                StallCause::MlpLimit,
                                self.earliest_outstanding,
                                access.pc,
                                handler,
                            );
                        }
                    }
                }
            }
        }
        self.stats.total_cycles = self.now.raw();
    }

    /// Runs `cycles` of cache-resident work: the core's clock advances and
    /// nothing outside the core changes.
    #[inline(always)]
    fn compute(&mut self, cycles: u64) {
        self.now += Cycles::new(cycles);
        self.prune();
    }

    /// Blocks the core until `data_ready` (plus whatever penalty the
    /// handler adds) and accounts the stall.
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

    /// Retires outstanding misses that have completed.
    ///
    /// Runs after every compute event, so the nothing-completed test is
    /// forced inline in each copy of [`Core::process`] (the cluster's and
    /// the lockstep driver's) and in the cluster's compute tail; only the
    /// sweep is a call.
    #[inline(always)]
    fn prune(&mut self) {
        if self.earliest_outstanding > self.now {
            return;
        }
        self.retire_completed();
    }

    /// The sweep of [`Core::prune`].
    fn retire_completed(&mut self) {
        let now = self.now;
        let mut earliest = Cycle::new(u64::MAX);
        self.outstanding.retain(|&c| {
            if c > now {
                earliest = earliest.min(c);
                true
            } else {
                false
            }
        });
        self.earliest_outstanding = earliest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::PassiveHandler;
    use mapg_mem::HierarchyConfig;
    use mapg_trace::{MemAccess, SyntheticWorkload, WorkloadProfile};

    /// A scripted event source for precise tests.
    struct Script {
        events: std::vec::IntoIter<TraceEvent>,
    }

    impl Script {
        fn new(events: Vec<TraceEvent>) -> Self {
            Script {
                events: events.into_iter(),
            }
        }
    }

    impl EventSource for Script {
        fn next_event(&mut self) -> TraceEvent {
            self.events.next().unwrap_or(TraceEvent::Compute {
                cycles: 1,
                instructions: 1,
            })
        }

        fn name(&self) -> &str {
            "script"
        }
    }

    fn dep_load(addr: u64) -> TraceEvent {
        TraceEvent::MemAccess(MemAccess {
            addr,
            pc: 0x400,
            kind: AccessKind::Load,
            dependent: true,
        })
    }

    fn load(addr: u64) -> TraceEvent {
        TraceEvent::MemAccess(MemAccess {
            addr,
            pc: 0x404,
            kind: AccessKind::Load,
            dependent: false,
        })
    }

    #[test]
    fn compute_advances_time_without_stalls() {
        let script = Script::new(vec![
            TraceEvent::Compute {
                cycles: 100,
                instructions: 200,
            };
            5
        ]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        core.run(1000, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().stall_count, 0);
        assert_eq!(core.stats().instructions, 1000);
        assert_eq!(core.stats().total_cycles, 500);
        assert!((core.stats().ipc() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_load_chain_stalls_per_miss() {
        // Two dependent loads to distinct cold lines: the second must wait
        // for the first's DRAM fill.
        let script = Script::new(vec![dep_load(0x10_0000), dep_load(0x20_0000)]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        core.run(2, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().stall_count, 1);
        assert!(core.stats().stall_cycles > 50, "DRAM latency is long");
        assert_eq!(core.stats().penalty_cycles, 0, "passive adds no penalty");
    }

    #[test]
    fn independent_loads_overlap_until_mlp_limit() {
        // mlp_limit = 2: the third independent miss trips the limit.
        let config = CoreConfig {
            mlp_limit: 2,
            ..CoreConfig::baseline()
        };
        let script = Script::new(vec![load(0x10_0000), load(0x20_0000), load(0x30_0000)]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(config, script);
        core.run(3, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().stall_count, 2, "2nd and 3rd trip the limit");
        assert_eq!(core.stats().dram_loads, 3);
    }

    #[test]
    fn handler_penalty_lands_on_critical_path() {
        struct PenaltyHandler;
        impl StallHandler for PenaltyHandler {
            fn on_stall(&mut self, info: &StallInfo) -> Cycle {
                info.data_ready + Cycles::new(25)
            }
        }
        let script = Script::new(vec![dep_load(0x10_0000), dep_load(0x20_0000)]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        core.run(2, &mut memory, &mut PenaltyHandler);
        assert_eq!(core.stats().penalty_cycles, 25);
        assert_eq!(core.stats().stall_count, 1);
    }

    #[test]
    fn mem_bound_profile_stalls_heavily_compute_bound_barely() {
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mem_profile = WorkloadProfile::mem_bound("m");
        let mut mem_core = Core::new(
            CoreConfig::baseline(),
            SyntheticWorkload::new(&mem_profile, 3),
        );
        mem_core.run(300_000, &mut memory, &mut PassiveHandler);

        let mut memory2 = MemoryHierarchy::new(HierarchyConfig::baseline());
        let cpu_profile = WorkloadProfile::compute_bound("c");
        let mut cpu_core = Core::new(
            CoreConfig::baseline(),
            SyntheticWorkload::new(&cpu_profile, 3),
        );
        cpu_core.run(300_000, &mut memory2, &mut PassiveHandler);

        let mem_stall = mem_core.stats().stall_fraction();
        let cpu_stall = cpu_core.stats().stall_fraction();
        assert!(
            mem_stall > 0.3,
            "memory-bound stall fraction too low: {mem_stall}"
        );
        assert!(
            cpu_stall < mem_stall / 2.0,
            "compute-bound ({cpu_stall}) should stall far less than memory-bound ({mem_stall})"
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let profile = WorkloadProfile::mixed("consistency");
        let mut core = Core::new(CoreConfig::baseline(), SyntheticWorkload::new(&profile, 11));
        core.run(200_000, &mut memory, &mut PassiveHandler);
        let stats = core.stats();
        assert!(stats.instructions >= 200_000);
        assert!(stats.stall_cycles <= stats.total_cycles);
        assert_eq!(
            stats.active_cycles() + stats.stall_cycles,
            stats.total_cycles
        );
        assert_eq!(stats.stall_durations.count(), stats.stall_count);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    #[should_panic(expected = "mlp_limit")]
    fn zero_mlp_rejected() {
        let script = Script::new(vec![]);
        let _ = Core::new(
            CoreConfig {
                mlp_limit: 0,
                ..CoreConfig::baseline()
            },
            script,
        );
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_instruction_run_rejected() {
        let script = Script::new(vec![]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        core.run(0, &mut memory, &mut PassiveHandler);
    }

    #[test]
    fn zero_instruction_try_run_errors() {
        let script = Script::new(vec![]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        assert_eq!(
            core.try_run(0, &mut memory, &mut PassiveHandler),
            Err(crate::error::RunError::ZeroInstructions)
        );
    }

    #[test]
    fn consecutive_computes_run_up_to_a_stall() {
        // Two computes, then a dependent-load pair that must stall: the
        // run retires the computes and still stalls on the second load.
        let script = Script::new(vec![
            TraceEvent::Compute {
                cycles: 10,
                instructions: 10,
            },
            TraceEvent::Compute {
                cycles: 20,
                instructions: 10,
            },
            dep_load(0x10_0000),
            dep_load(0x20_0000),
        ]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        core.run(22, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().instructions, 22);
        assert_eq!(core.stats().stall_count, 1, "the second load must stall");
        assert_eq!(core.stats().dram_loads, 2);
    }

    #[test]
    fn runs_stop_exactly_at_the_instruction_target() {
        // An endless compute stream (the Script fallback): the run must
        // stop exactly at the target, not run away.
        let script = Script::new(vec![]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        core.run(1_000, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().instructions, 1_000);
        assert_eq!(core.stats().total_cycles, 1_000);
    }

    /// The cluster's step: one event, then the compute run after it up
    /// to the target; the first other event waits in `held`, unprocessed,
    /// and is the next call's first event.
    #[test]
    fn step_then_compute_stops_at_the_target_and_holds_the_next_shared_event() {
        let compute = |cycles, instructions| TraceEvent::Compute {
            cycles,
            instructions,
        };
        let script = Script::new(vec![
            load(0x10_0000),
            compute(10, 3),
            compute(0, 2),
            compute(5, 4),
            TraceEvent::Idle { cycles: 50 },
            load(0x20_0000),
        ]);
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut core = Core::new(CoreConfig::baseline(), script);
        let mut held = None;

        // A target inside the compute run: nothing is read past it.
        core.step_then_compute(&mut held, 6, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().instructions, 6);
        assert_eq!(held, None);
        let after_first = core.now();

        // The next call resumes mid-run and holds the idle back.
        core.step_then_compute(&mut held, 100, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().instructions, 10);
        assert_eq!(held, Some(TraceEvent::Idle { cycles: 50 }));
        assert_eq!(core.now(), after_first + Cycles::new(5));
        assert_eq!(core.stats().total_cycles, core.now().raw());
        assert_eq!(core.stats().idle_periods, 0);

        // The held idle is processed first, and the load after it is held.
        core.step_then_compute(&mut held, 100, &mut memory, &mut PassiveHandler);
        assert_eq!(core.stats().idle_periods, 1);
        assert_eq!(core.stats().dram_loads, 1);
        assert_eq!(held, Some(load(0x20_0000)));
    }

    #[test]
    fn stall_cause_breakdown_partitions_stall_cycles() {
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let profile = WorkloadProfile::mem_bound("breakdown");
        let mut core = Core::new(CoreConfig::baseline(), SyntheticWorkload::new(&profile, 13));
        core.run(200_000, &mut memory, &mut PassiveHandler);
        let stats = core.stats();
        assert_eq!(
            stats.mlp_stall_cycles + stats.dependency_stall_cycles + stats.idle_stall_cycles,
            stats.stall_cycles,
            "cause breakdown must partition the stall total"
        );
        // A pointer-chasing profile has both MLP and dependency stalls,
        // and no injected idle.
        assert!(stats.dependency_stall_cycles > 0);
        assert!(stats.mlp_stall_cycles > 0);
        assert_eq!(stats.idle_stall_cycles, 0);
    }

    #[test]
    fn idle_events_surface_as_idle_stalls() {
        use mapg_trace::IdleInjection;
        let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
        let profile = WorkloadProfile::builder("idle_surface")
            .mem_refs_per_kilo_inst(20.0)
            .idle_injection(IdleInjection::new(5_000, 100_000))
            .build();
        let mut core = Core::new(CoreConfig::baseline(), SyntheticWorkload::new(&profile, 3));
        core.run(50_000, &mut memory, &mut PassiveHandler);
        let stats = core.stats();
        assert!(stats.idle_periods > 0, "injection must fire");
        assert!(stats.idle_stall_cycles >= stats.idle_periods * 100_000);
    }

    #[test]
    fn determinism_full_stack() {
        let profile = WorkloadProfile::mem_bound("det");
        let run = |seed| {
            let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
            let mut core = Core::new(
                CoreConfig::baseline(),
                SyntheticWorkload::new(&profile, seed),
            );
            core.run(100_000, &mut memory, &mut PassiveHandler);
            (
                core.stats().total_cycles,
                core.stats().stall_cycles,
                core.stats().stall_count,
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ");
    }
}
