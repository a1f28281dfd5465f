//! The full-system simulation: workload → cores → hierarchy → controller →
//! energy ledger → report.

use mapg_cpu::{Cluster, CoreConfig};
use mapg_mem::HierarchyConfig;
use mapg_obs::{EventHub, MetricsHub, ObsHandle};
use mapg_power::{
    DramEnergyModel, EnergyCategory, PgCircuitDesign, RetentionStyle, TechnologyParams,
};
use mapg_trace::{EventSource, RecordedTrace, SyntheticWorkload, WorkloadProfile};
use mapg_units::{Cycle, Cycles};

use crate::controller::{Controller, ControllerConfig};
use crate::error::MapgError;
use crate::faults::FaultPlan;
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::policy::PolicyKind;
use crate::report::RunReport;
use crate::watchdog::WatchdogConfig;

/// Everything a run needs. Construct with [`SimConfig::default`] and
/// customize with the `with_*` methods:
///
/// ```
/// use mapg::{PolicyKind, SimConfig, Simulation};
/// use mapg_trace::WorkloadProfile;
///
/// let config = SimConfig::default()
///     .with_profile(WorkloadProfile::mem_bound("quick"))
///     .with_instructions(50_000);
/// let report = Simulation::new(config, PolicyKind::Mapg).run();
/// assert!(report.total_cycles() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-core profiles; core `i` runs `profiles[i % profiles.len()]`.
    profiles: Vec<WorkloadProfile>,
    cores: usize,
    channels: usize,
    shards: usize,
    instructions_per_core: u64,
    seed: u64,
    core: CoreConfig,
    memory: HierarchyConfig,
    tech: TechnologyParams,
    switch_width_ratio: f64,
    retention: RetentionStyle,
    tokens: Option<usize>,
    record_timeline: bool,
    regate_on_early_wake: bool,
    dram_energy: DramEnergyModel,
    fault_plan: FaultPlan,
    watchdog: Option<WatchdogConfig>,
    trace_capacity: Option<usize>,
    metrics: bool,
    metrics_hub: Option<MetricsHub>,
    event_hub: Option<EventHub>,
    reference_scheduler: bool,
    compute_quantum: Option<u64>,
}

impl SimConfig {
    /// The workload profile every core runs (with per-core seeds).
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        self.profiles = vec![profile];
        self
    }

    /// A heterogeneous mix: one core per profile (sets the core count).
    /// Models consolidated multiprogrammed workloads, where memory-bound
    /// and compute-bound programs share the DRAM channel.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn with_workload_mix(self, profiles: Vec<WorkloadProfile>) -> Self {
        match self.try_with_workload_mix(profiles) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SimConfig::with_workload_mix`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `profiles` is empty.
    pub fn try_with_workload_mix(
        mut self,
        profiles: Vec<WorkloadProfile>,
    ) -> Result<Self, MapgError> {
        if profiles.is_empty() {
            return Err(MapgError::invalid("a mix needs at least one profile"));
        }
        self.cores = profiles.len();
        self.profiles = profiles;
        Ok(self)
    }

    /// Number of cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores(self, cores: usize) -> Self {
        match self.try_with_cores(cores) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SimConfig::with_cores`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `cores` is zero.
    pub fn try_with_cores(mut self, cores: usize) -> Result<Self, MapgError> {
        if cores == 0 {
            return Err(MapgError::invalid("need at least one core"));
        }
        self.cores = cores;
        Ok(self)
    }

    /// Number of independent memory channels; core `i` issues to channel
    /// `i % channels` (clamped to the core count at cluster build time).
    /// This is a *topology* knob — it changes which cores contend — so it
    /// changes results; the default of 1 is the classic fully-shared
    /// hierarchy every golden table uses.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(self, channels: usize) -> Self {
        match self.try_with_channels(channels) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SimConfig::with_channels`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `channels` is zero.
    pub fn try_with_channels(mut self, channels: usize) -> Result<Self, MapgError> {
        if channels == 0 {
            return Err(MapgError::invalid("need at least one memory channel"));
        }
        self.channels = channels;
        Ok(self)
    }

    /// Shard count for the sharded cluster engine — an *execution
    /// strategy* knob, never a model knob: any shard count must produce a
    /// byte-identical report (`tests/obs_determinism.rs` pins this).
    ///
    /// Full-policy simulations drive every stall through the gating
    /// [`Controller`], whose token ledger and di/dt veto couple all cores
    /// in observation order, so they always run on the exact global wheel
    /// regardless of this setting (DESIGN.md §13); the sharded engine
    /// accelerates the uncoupled substrate paths (`mapgsim --shards`
    /// cross-checks, `bench-throughput`'s scale cases).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(self, shards: usize) -> Self {
        match self.try_with_shards(shards) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SimConfig::with_shards`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `shards` is zero.
    pub fn try_with_shards(mut self, shards: usize) -> Result<Self, MapgError> {
        if shards == 0 {
            return Err(MapgError::invalid("need at least one shard"));
        }
        self.shards = shards;
        Ok(self)
    }

    /// Instructions each core retires.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_instructions(self, instructions: u64) -> Self {
        match self.try_with_instructions(instructions) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SimConfig::with_instructions`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `instructions` is zero.
    pub fn try_with_instructions(mut self, instructions: u64) -> Result<Self, MapgError> {
        if instructions == 0 {
            return Err(MapgError::invalid("need at least one instruction"));
        }
        self.instructions_per_core = instructions;
        Ok(self)
    }

    /// Master RNG seed; core *i* uses `seed + i`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Core microarchitecture parameters.
    pub fn with_core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Memory-hierarchy parameters.
    pub fn with_memory(mut self, memory: HierarchyConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Fallible form of [`SimConfig::with_memory`] for user input: the
    /// hierarchy's own validation (DRAM geometry, MSHR count, fault plan)
    /// runs up front, so a bad `--dram-banks`/`--mshr-entries` value
    /// becomes a [`MapgError::InvalidConfig`] instead of a panic deep in
    /// cluster construction.
    pub fn try_with_memory(self, memory: HierarchyConfig) -> Result<Self, MapgError> {
        memory.try_validate()?;
        Ok(self.with_memory(memory))
    }

    /// Technology parameters.
    pub fn with_tech(mut self, tech: TechnologyParams) -> Self {
        self.tech = tech;
        self
    }

    /// Sleep-transistor width ratio (selects the PG circuit design point).
    ///
    /// The value is range-checked later, when the circuit is derived —
    /// see [`SimConfig::try_with_switch_width`] for the fallible form that
    /// rejects it up front.
    pub fn with_switch_width(mut self, ratio: f64) -> Self {
        self.switch_width_ratio = ratio;
        self
    }

    /// Fallible form of [`SimConfig::with_switch_width`] for user input;
    /// rejects ratios the circuit model would panic on deep inside the run.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `ratio` is outside
    /// `[0.005, 0.2]` (below, the switch cannot deliver the core's active
    /// current; above, the model's first-order laws stop holding).
    pub fn try_with_switch_width(mut self, ratio: f64) -> Result<Self, MapgError> {
        if !(0.005..=0.2).contains(&ratio) {
            return Err(MapgError::invalid(format!(
                "switch width ratio must be in [0.005, 0.2], got {ratio}"
            )));
        }
        self.switch_width_ratio = ratio;
        Ok(self)
    }

    /// State-retention style of the PG circuit (default: retentive).
    pub fn with_retention(mut self, retention: RetentionStyle) -> Self {
        self.retention = retention;
        self
    }

    /// Enables token-limited wake-ups with the given capacity.
    pub fn with_tokens(mut self, tokens: usize) -> Self {
        self.tokens = Some(tokens);
        self
    }

    /// Fallible form of [`SimConfig::with_tokens`] for user input; rejects
    /// a zero capacity here instead of deep inside the run.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `tokens` is zero.
    pub fn try_with_tokens(mut self, tokens: usize) -> Result<Self, MapgError> {
        if tokens == 0 {
            return Err(MapgError::invalid("token capacity must be non-zero"));
        }
        self.tokens = Some(tokens);
        Ok(self)
    }

    /// Disables token limiting (the default).
    pub fn without_tokens(mut self) -> Self {
        self.tokens = None;
        self
    }

    /// Enables fault injection per `plan`. The fault streams are keyed to
    /// the simulation seed, so `(seed, config, plan)` fully determine the
    /// run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Fallible form of [`SimConfig::with_fault_plan`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if the plan is out of range
    /// (see [`FaultPlan::validate`]).
    pub fn try_with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, MapgError> {
        plan.validate()?;
        self.fault_plan = plan;
        Ok(self)
    }

    /// Enables the safe-mode watchdog with explicit thresholds.
    pub fn with_safe_mode(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Enables the safe-mode watchdog with default thresholds.
    pub fn with_safe_mode_default(self) -> Self {
        self.with_safe_mode(WatchdogConfig::default())
    }

    /// The configured fault plan (a no-op plan by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Records every power-state transition into
    /// [`RunReport::timeline`](crate::RunReport) (VCD-exportable).
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Records a structured event trace into
    /// [`RunReport::trace`](crate::RunReport) using the default ring
    /// capacity ([`mapg_obs::DEFAULT_TRACE_CAPACITY`]).
    pub fn with_trace(self) -> Self {
        self.with_trace_capacity(mapg_obs::DEFAULT_TRACE_CAPACITY)
    }

    /// Records a structured event trace into a bounded ring of `capacity`
    /// records; when full, the oldest records are dropped (and counted).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        self.trace_capacity = Some(capacity);
        self
    }

    /// Collects counters and histograms into
    /// [`RunReport::metrics`](crate::RunReport).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Additionally merges this run's metrics into `hub` at the end of the
    /// run (implies [`SimConfig::with_metrics`]). Merging is commutative
    /// and associative, so aggregation across concurrently executing runs
    /// is deterministic regardless of completion order.
    pub fn with_metrics_hub(mut self, hub: MetricsHub) -> Self {
        self.metrics = true;
        self.metrics_hub = Some(hub);
        self
    }

    /// Additionally publishes this run's event trace into `hub` at the
    /// end of the run (implies [`SimConfig::with_trace`] when no trace
    /// capacity was set). Subscribers polling the hub see each run's
    /// records as one in-order batch the moment the run completes —
    /// the incremental unit a streaming consumer (the `mapgd` daemon)
    /// observes while a multi-simulation job is still going.
    pub fn with_event_hub(mut self, hub: EventHub) -> Self {
        if self.trace_capacity.is_none() {
            self.trace_capacity = Some(mapg_obs::DEFAULT_TRACE_CAPACITY);
        }
        self.event_hub = Some(hub);
        self
    }

    /// Disables nap chaining (re-gating after an early wake) — the
    /// mechanism ablation knob. Enabled by default.
    pub fn without_regate(mut self) -> Self {
        self.regate_on_early_wake = false;
        self
    }

    /// Drives the cluster from **quantized recordings** instead of live
    /// synthetic generators: each core's workload is recorded to the
    /// instruction budget, compute runs are re-chunked at basic-block
    /// granularity (`quantum` instructions — see
    /// [`mapg_trace::RecordedTrace::quantize_compute`]), and the run
    /// replays the recording. This is the throughput benchmark's workload
    /// shape, where compute batching folds the most events; exposing it
    /// here lets the differential fuzzer drive the full controller stack
    /// through the replay path too.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_compute_quantum(self, quantum: u64) -> Self {
        match self.try_with_compute_quantum(quantum) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SimConfig::with_compute_quantum`] for user input.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if `quantum` is zero.
    pub fn try_with_compute_quantum(mut self, quantum: u64) -> Result<Self, MapgError> {
        if quantum == 0 {
            return Err(MapgError::invalid("compute quantum must be non-zero"));
        }
        self.compute_quantum = Some(quantum);
        Ok(self)
    }

    /// Runs on the frozen seed stack ([`mapg_cpu::ReferenceCluster`]: the
    /// retained per-event linear-scan scheduler over the seed memory
    /// hierarchy) instead of the optimized one.
    ///
    /// Reports must be identical either way — that is the equivalence the
    /// proptest oracle enforces. The knob exists for those oracle tests
    /// and for the `bench-throughput` harness, which measures the
    /// optimized stack's speedup against this reference.
    pub fn with_reference_scheduler(mut self) -> Self {
        self.reference_scheduler = true;
        self
    }

    /// The first configured profile (the only one outside mix mode).
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profiles[0]
    }

    /// All configured profiles (one entry outside mix mode).
    pub fn profiles(&self) -> &[WorkloadProfile] {
        &self.profiles
    }

    /// A display name for the configured workload(s).
    pub fn workload_name(&self) -> String {
        if self.profiles.len() == 1 {
            self.profiles[0].name().to_owned()
        } else {
            let names: Vec<&str> = self.profiles.iter().map(|p| p.name()).collect();
            format!("mix[{}]", names.join("+"))
        }
    }

    /// The configured core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The configured memory-channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured technology.
    pub fn tech(&self) -> &TechnologyParams {
        &self.tech
    }

    /// The circuit design point this configuration implies.
    pub fn circuit(&self) -> PgCircuitDesign {
        PgCircuitDesign::from_switch_width(self.switch_width_ratio, &self.tech)
            .with_retention(self.retention)
    }

    /// Runs this configuration's memory substrate — cores, channels, and
    /// hierarchy under the passive (no-power-management) handler — once
    /// on the exact global wheel and once on the sharded engine at this
    /// configuration's shard count, then compares the full
    /// [`ClusterStats`](mapg_cpu::ClusterStats), trace, and metrics.
    ///
    /// Returns `Ok(None)` when the two are bit-identical (the sharded
    /// engine's contract) and `Ok(Some(detail))` naming the divergent
    /// artifact otherwise. This is the determinism self-check behind
    /// `mapgsim --shards` and the fuzzer's shard-divergence class; the
    /// full-policy controller path is out of scope by design because its
    /// cross-core coupling forces the global wheel (DESIGN.md §13).
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if the cluster rejects the
    /// configuration.
    pub fn crosscheck_sharded(&self) -> Result<Option<String>, MapgError> {
        let mut memory = self.memory;
        if !self.fault_plan.is_nop() {
            memory.dram_faults = self.fault_plan.dram_faults(self.seed);
        }
        let capacity = self
            .trace_capacity
            .unwrap_or(mapg_obs::DEFAULT_TRACE_CAPACITY);
        let build = || -> Result<(Cluster<SyntheticWorkload>, ObsHandle), MapgError> {
            let sources: Vec<SyntheticWorkload> = (0..self.cores)
                .map(|i| {
                    let profile = &self.profiles[i % self.profiles.len()];
                    SyntheticWorkload::new(profile, self.seed + i as u64)
                })
                .collect();
            let mut cluster =
                Cluster::try_new_with_channels(self.core, memory, sources, self.channels)?;
            let obs = ObsHandle::enabled(Some(capacity), true);
            cluster.set_obs(obs.clone());
            Ok((cluster, obs))
        };
        let (mut wheel, wheel_obs) = build()?;
        wheel.try_run(self.instructions_per_core, &mut mapg_cpu::PassiveHandler)?;
        let (mut sharded, sharded_obs) = build()?;
        sharded.try_run_sharded(
            self.instructions_per_core,
            &mapg_cpu::PassiveHandler,
            self.shards,
        )?;
        if wheel.stats() != sharded.stats() {
            return Ok(Some(format!(
                "sharded substrate stats diverge from the global wheel at \
                 {} shards over {} channels",
                self.shards, self.channels
            )));
        }
        let (wheel_trace, wheel_metrics) = wheel_obs.collect();
        let (sharded_trace, sharded_metrics) = sharded_obs.collect();
        if wheel_trace != sharded_trace {
            return Ok(Some(format!(
                "sharded substrate trace diverges from the global wheel at \
                 {} shards over {} channels",
                self.shards, self.channels
            )));
        }
        if wheel_metrics != sharded_metrics {
            return Ok(Some(format!(
                "sharded substrate metrics diverge from the global wheel at \
                 {} shards over {} channels",
                self.shards, self.channels
            )));
        }
        Ok(None)
    }
}

thread_local! {
    static AMBIENT_SHARDS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The innermost active [`with_ambient_shards`] override on this thread.
///
/// Harness code that builds configs deep inside a call tree (the
/// experiment registry's `base_config`) uses this to pick up the shard
/// count an `experiments --shards` invocation installed, without
/// threading a parameter through every experiment signature. Shards are
/// an execution-strategy knob — reports are identical at any value — so
/// the override can never change an experiment's output, only how the
/// substrate would be scheduled.
pub fn ambient_shards() -> Option<usize> {
    AMBIENT_SHARDS.with(std::cell::Cell::get)
}

/// Runs `f` with [`ambient_shards`] resolving to `shards` on the current
/// thread, restoring the previous value afterwards (also on panic).
///
/// # Panics
///
/// Panics if `shards` is zero (an override that [`SimConfig::with_shards`]
/// would reject is refused at the source).
pub fn with_ambient_shards<R>(shards: usize, f: impl FnOnce() -> R) -> R {
    assert!(shards > 0, "need at least one shard");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_SHARDS.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT_SHARDS.with(|cell| cell.replace(Some(shards))));
    f()
}

impl Default for SimConfig {
    /// One core, 1 M instructions of the generic memory-bound profile,
    /// baseline substrate, the MAPG fast-wakeup circuit, no tokens.
    fn default() -> Self {
        SimConfig {
            profiles: vec![WorkloadProfile::mem_bound("default")],
            cores: 1,
            channels: 1,
            shards: 1,
            instructions_per_core: 1_000_000,
            seed: 42,
            core: CoreConfig::baseline(),
            memory: HierarchyConfig::baseline(),
            tech: TechnologyParams::bulk_45nm(),
            switch_width_ratio: 0.03,
            retention: RetentionStyle::Retentive,
            tokens: None,
            record_timeline: false,
            regate_on_early_wake: true,
            dram_energy: DramEnergyModel::ddr3(),
            fault_plan: FaultPlan::none(),
            watchdog: None,
            trace_capacity: None,
            metrics: false,
            metrics_hub: None,
            event_hub: None,
            reference_scheduler: false,
            compute_quantum: None,
        }
    }
}

/// Builds the selected cluster around `sources`, runs it to the budget,
/// and returns the end-of-run statistics. Generic over the event source so
/// the live-synthetic, quantized-replay, and reference paths share one
/// driving routine (the fuzzer differentially crosses all of them). The
/// breadth of the argument list is the point: one signature names every
/// input the three paths must agree on.
#[allow(clippy::too_many_arguments)]
fn drive_cluster<S: EventSource>(
    reference: bool,
    core: CoreConfig,
    memory: HierarchyConfig,
    channels: usize,
    sources: Vec<S>,
    obs: &ObsHandle,
    controller: &mut Controller,
    instructions_per_core: u64,
) -> Result<mapg_cpu::ClusterStats, MapgError> {
    if reference {
        let mut cluster =
            mapg_cpu::ReferenceCluster::try_new_with_channels(core, memory, sources, channels)?;
        cluster.set_obs(obs.clone());
        cluster.try_run(instructions_per_core, controller)?;
        Ok(cluster.stats())
    } else {
        let mut cluster = Cluster::try_new_with_channels(core, memory, sources, channels)?;
        cluster.set_obs(obs.clone());
        cluster.try_run(instructions_per_core, controller)?;
        Ok(cluster.stats())
    }
}

/// One configured run: a cluster of cores, a shared hierarchy, and a gating
/// controller executing the chosen policy.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    policy: PolicyKind,
}

impl Simulation {
    /// Pairs a configuration with a policy.
    pub fn new(config: SimConfig, policy: PolicyKind) -> Self {
        Simulation { config, policy }
    }

    /// Runs to completion and produces the report.
    ///
    /// Deterministic: identical `(config, policy)` produce identical
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero cores or instructions)
    /// — unreachable through the checked `SimConfig` builders; use
    /// [`Simulation::try_run`] on front-end paths that assemble configs
    /// from user input.
    pub fn run(self) -> RunReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Simulation::run`] for CLI front-ends.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] if the cluster rejects the
    /// configuration (zero cores or a zero instruction budget).
    pub fn try_run(self) -> Result<RunReport, MapgError> {
        let config = self.config;
        let circuit = config.circuit();
        let controller_config = ControllerConfig {
            tech: config.tech,
            circuit,
            clock: config.core.clock,
            tokens: config.tokens,
            regate_on_early_wake: config.regate_on_early_wake,
            fault_plan: config.fault_plan,
            fault_seed: config.seed,
            watchdog: config.watchdog,
        };
        let mut controller = Controller::new(self.policy.instantiate(), controller_config);
        if config.record_timeline {
            controller.enable_timeline();
        }
        // One observability handle per run, shared by every component via
        // cheap clones. Built here — inside the (single-threaded) run — so
        // emission order is simulation order and the trace stays
        // deterministic at any outer parallelism.
        let obs = ObsHandle::enabled(
            config.trace_capacity,
            config.metrics || config.metrics_hub.is_some(),
        );
        controller.set_obs(obs.clone());

        let sources: Vec<SyntheticWorkload> = (0..config.cores)
            .map(|i| {
                let profile = &config.profiles[i % config.profiles.len()];
                SyntheticWorkload::new(profile, config.seed + i as u64)
            })
            .collect();
        // A non-no-op plan injects its DRAM-side faults into the shared
        // hierarchy, keyed to the simulation seed; a no-op plan leaves the
        // memory configuration untouched.
        let mut memory = config.memory;
        if !config.fault_plan.is_nop() {
            memory.dram_faults = config.fault_plan.dram_faults(config.seed);
        }
        let cluster_stats = match config.compute_quantum {
            Some(quantum) => {
                // Record each generator to the budget, re-chunk compute at
                // the quantum, and drive the cluster from the replays. The
                // traces must outlive the cluster ([`Replay`] borrows).
                let traces: Vec<RecordedTrace> = sources
                    .into_iter()
                    .map(|mut workload| {
                        RecordedTrace::record(&mut workload, config.instructions_per_core)
                            .quantize_compute(quantum)
                    })
                    .collect();
                drive_cluster(
                    config.reference_scheduler,
                    config.core,
                    memory,
                    config.channels,
                    traces.iter().map(RecordedTrace::replay).collect(),
                    &obs,
                    &mut controller,
                    config.instructions_per_core,
                )?
            }
            None => drive_cluster(
                config.reference_scheduler,
                config.core,
                memory,
                config.channels,
                sources,
                &obs,
                &mut controller,
                config.instructions_per_core,
            )?,
        };
        let final_times: Vec<Cycle> = cluster_stats
            .per_core
            .iter()
            .map(|c| Cycle::new(c.total_cycles))
            .collect();
        controller.finish(&final_times);

        // --- post-run energy integration --------------------------------
        // Stall-time energy was charged by the controller as stalls
        // resolved; active-period and DRAM energy are integrated here.
        let mut energy = controller.energy().clone();
        let clock = config.core.clock;
        for core in &cluster_stats.per_core {
            let active = Cycles::new(core.active_cycles()).at(clock);
            energy.add(
                EnergyCategory::ActiveDynamic,
                config.tech.dynamic_power() * active,
            );
            energy.add(
                EnergyCategory::ActiveLeakage,
                config.tech.leakage_power() * active,
            );
        }
        let makespan = cluster_stats.makespan_cycles();
        let runtime = Cycles::new(makespan).at(clock);
        energy.add(
            EnergyCategory::DramAccess,
            config.dram_energy.access_energy(&cluster_stats.memory.dram),
        );
        energy.add(
            EnergyCategory::DramBackground,
            config.dram_energy.background_power * runtime,
        );
        energy.record_metrics(&obs);

        let peak_concurrent_wakes = controller
            .token_manager()
            .map(|t| t.peak_concurrency())
            .unwrap_or(0);

        // --- end-of-run audits the controller cannot see -----------------
        // Per-core accounting laws and the fully merged energy ledger join
        // the controller's own invariant report.
        {
            let checker = controller.invariants_mut();
            for (i, core) in cluster_stats.per_core.iter().enumerate() {
                let problems = core.audit();
                if problems.is_empty() {
                    checker.count_check();
                }
                for detail in problems {
                    checker.record(InvariantViolation {
                        kind: InvariantKind::Accounting,
                        core: Some(i),
                        at: None,
                        detail,
                    });
                }
            }
            let problems = energy.audit();
            if problems.is_empty() {
                checker.count_check();
            }
            for detail in problems {
                checker.record(InvariantViolation {
                    kind: InvariantKind::EnergyLedger,
                    core: None,
                    at: None,
                    detail,
                });
            }
        }

        let (trace, metrics) = obs.take();
        if let (Some(hub), Some(metrics)) = (&config.metrics_hub, &metrics) {
            hub.merge(metrics);
        }
        if let (Some(feed), Some(trace)) = (&config.event_hub, &trace) {
            let records: Vec<_> = trace.iter().copied().collect();
            feed.publish(&records);
        }

        let timeline = controller.take_timeline();
        Ok(RunReport {
            timeline,
            policy: controller.policy_name(),
            workload: config.workload_name(),
            cores: config.cores,
            instructions: cluster_stats.total_instructions(),
            makespan_cycles: makespan,
            runtime,
            energy,
            gating: *controller.stats(),
            predictor: controller.policy().predictor_score().cloned(),
            core_stats: cluster_stats.per_core,
            memory: cluster_stats.memory,
            peak_concurrent_wakes,
            invariants: controller.invariants(),
            degradation: controller.degradation(),
            faults: controller.fault_stats(),
            trace,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        SimConfig::default().with_instructions(100_000)
    }

    #[test]
    fn deterministic_reports() {
        let a = Simulation::new(quick(), PolicyKind::Mapg).run();
        let b = Simulation::new(quick(), PolicyKind::Mapg).run();
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.gating, b.gating);
        assert_eq!(a.total_energy(), b.total_energy());
    }

    #[test]
    fn heap_and_reference_schedulers_agree() {
        // The event-wheel must reproduce the linear-scan reference's
        // report exactly — field for field, including energy floats.
        let config = quick().with_cores(3).with_instructions(30_000).with_seed(9);
        let heap = Simulation::new(config.clone(), PolicyKind::Mapg).run();
        let reference = Simulation::new(config.with_reference_scheduler(), PolicyKind::Mapg).run();
        assert_eq!(heap, reference);
    }

    #[test]
    fn mapg_saves_core_energy_on_memory_bound() {
        let baseline = Simulation::new(quick(), PolicyKind::NoGating).run();
        let mapg = Simulation::new(quick(), PolicyKind::Mapg).run();
        let savings = mapg.core_energy_savings_vs(&baseline);
        assert!(
            savings > 0.10,
            "MAPG should save >10% core energy on mem-bound, got {savings}"
        );
        let overhead = mapg.perf_overhead_vs(&baseline);
        assert!(
            overhead < 0.05,
            "MAPG perf overhead should be small, got {overhead}"
        );
    }

    #[test]
    fn oracle_dominates_predictive_on_energy_delay() {
        let oracle = Simulation::new(quick(), PolicyKind::MapgOracle).run();
        let mapg = Simulation::new(quick(), PolicyKind::Mapg).run();
        assert!(
            oracle.edp() <= mapg.edp() * 1.02,
            "oracle EDP {:.3e} should be <= predictive {:.3e}",
            oracle.edp(),
            mapg.edp()
        );
    }

    #[test]
    fn naive_pays_more_performance_than_mapg() {
        let baseline = Simulation::new(quick(), PolicyKind::NoGating).run();
        let naive = Simulation::new(quick(), PolicyKind::NaiveOnMiss).run();
        let mapg = Simulation::new(quick(), PolicyKind::Mapg).run();
        assert!(
            naive.perf_overhead_vs(&baseline) > mapg.perf_overhead_vs(&baseline),
            "reactive wake must cost more runtime than early wake"
        );
    }

    #[test]
    fn compute_bound_offers_little_to_gate() {
        let config = quick().with_profile(WorkloadProfile::compute_bound("cpu_bound"));
        let baseline = Simulation::new(config.clone(), PolicyKind::NoGating).run();
        let mapg = Simulation::new(config, PolicyKind::Mapg).run();
        let savings = mapg.core_energy_savings_vs(&baseline);
        assert!(
            savings < 0.10,
            "compute-bound savings should be small, got {savings}"
        );
    }

    #[test]
    fn multicore_run_produces_per_core_stats() {
        let config = quick().with_cores(4).with_instructions(30_000);
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        assert_eq!(report.core_stats.len(), 4);
        assert_eq!(report.cores, 4);
        assert!(report.instructions >= 120_000);
    }

    #[test]
    fn tokens_cap_concurrency() {
        let config = quick()
            .with_cores(8)
            .with_instructions(20_000)
            .with_tokens(2);
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        assert!(report.peak_concurrent_wakes <= 2);
    }

    #[test]
    fn config_accessors() {
        let config = quick().with_cores(2).with_seed(7);
        assert_eq!(config.cores(), 2);
        assert_eq!(config.profile().name(), "default");
        assert!(config.circuit().switch_width_ratio() > 0.0);
        assert!(config.tech().total_power().as_watts() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SimConfig::default().with_cores(0);
    }

    #[test]
    fn energy_ledger_has_all_expected_buckets() {
        let report = Simulation::new(quick(), PolicyKind::Mapg).run();
        assert!(report.energy.get(EnergyCategory::ActiveDynamic).as_joules() > 0.0);
        assert!(report.energy.get(EnergyCategory::ActiveLeakage).as_joules() > 0.0);
        assert!(report.energy.get(EnergyCategory::GatedResidual).as_joules() > 0.0);
        assert!(report.energy.get(EnergyCategory::Transition).as_joules() > 0.0);
        assert!(report.energy.get(EnergyCategory::DramAccess).as_joules() > 0.0);
        assert!(
            report
                .energy
                .get(EnergyCategory::DramBackground)
                .as_joules()
                > 0.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn empty_mix_rejected() {
        let _ = SimConfig::default().with_workload_mix(Vec::new());
    }

    #[test]
    fn heterogeneous_mix_runs_one_core_per_profile() {
        let config = quick().with_workload_mix(vec![
            WorkloadProfile::mem_bound("hog"),
            WorkloadProfile::compute_bound("sprinter"),
        ]);
        assert_eq!(config.cores(), 2);
        assert_eq!(config.workload_name(), "mix[hog+sprinter]");
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        assert_eq!(report.core_stats.len(), 2);
        // The memory hog stalls; the sprinter barely does.
        let hog = &report.core_stats[0];
        let sprinter = &report.core_stats[1];
        assert!(
            hog.stall_fraction() > 3.0 * sprinter.stall_fraction(),
            "hog {} vs sprinter {}",
            hog.stall_fraction(),
            sprinter.stall_fraction()
        );
        assert_eq!(report.workload, "mix[hog+sprinter]");
    }

    #[test]
    fn fault_free_runs_are_clean() {
        let report = Simulation::new(quick(), PolicyKind::Mapg).run();
        assert!(report.invariants.is_clean(), "{}", report.invariants);
        assert!(report.invariants.checks > 0, "checker must have run");
        assert_eq!(report.faults.total(), 0);
        assert!(report.degradation.is_empty());
        assert_eq!(report.memory.dram.fault_spikes, 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let config = quick()
                .with_cores(2)
                .with_instructions(50_000)
                .with_tokens(2)
                .with_fault_plan(FaultPlan::moderate());
            Simulation::new(config, PolicyKind::Mapg).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.gating, b.gating);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.memory.dram.fault_spikes, b.memory.dram.fault_spikes);
        assert_eq!(a.total_energy(), b.total_energy());
    }

    #[test]
    fn faults_hurt_performance_but_not_bookkeeping() {
        let clean = Simulation::new(quick(), PolicyKind::Mapg).run();
        let faulty = Simulation::new(
            quick().with_fault_plan(FaultPlan::moderate()),
            PolicyKind::Mapg,
        )
        .run();
        assert!(faulty.faults.total() > 0, "moderate plan must inject");
        assert!(faulty.memory.dram.fault_spikes > 0);
        assert!(
            faulty.makespan_cycles > clean.makespan_cycles,
            "faults must cost runtime: {} !> {}",
            faulty.makespan_cycles,
            clean.makespan_cycles
        );
        // The environment misbehaves; the controller's books must not.
        assert!(faulty.invariants.is_clean(), "{}", faulty.invariants);
    }

    #[test]
    fn watchdog_degrades_and_recovers_under_heavy_faults() {
        let config = quick()
            .with_instructions(200_000)
            .with_fault_plan(FaultPlan::heavy())
            .with_safe_mode_default();
        let report = Simulation::new(config, PolicyKind::Mapg).run();
        assert!(
            report.degradation.safe_mode_entries > 0,
            "watchdog never tripped: {}",
            report.degradation
        );
        assert!(report.degradation.demoted_gates > 0);
        assert!(
            report.degradation.recoveries > 0,
            "watchdog never recovered: {}",
            report.degradation
        );
        assert!(report.invariants.is_clean(), "{}", report.invariants);
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_runs() {
        let report = Simulation::new(quick().with_safe_mode_default(), PolicyKind::Mapg).run();
        assert!(
            report.degradation.is_empty(),
            "healthy run tripped the watchdog: {}",
            report.degradation
        );
    }

    #[test]
    fn quantized_replay_agrees_across_schedulers() {
        // The quantized-recording path must preserve the event-wheel ↔
        // reference equivalence end-to-end (controller included).
        let config = quick()
            .with_cores(2)
            .with_instructions(20_000)
            .with_seed(11)
            .with_compute_quantum(4);
        let live = Simulation::new(config.clone(), PolicyKind::Mapg).run();
        let reference = Simulation::new(config.with_reference_scheduler(), PolicyKind::Mapg).run();
        assert_eq!(live, reference);
    }

    #[test]
    fn quantized_replay_is_deterministic() {
        let mk = || {
            quick()
                .with_instructions(15_000)
                .with_compute_quantum(7)
                .with_seed(3)
        };
        let a = Simulation::new(mk(), PolicyKind::Mapg).run();
        let b = Simulation::new(mk(), PolicyKind::Mapg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_compute_quantum_rejected() {
        let err = SimConfig::default().try_with_compute_quantum(0);
        assert!(err.is_err());
    }

    #[test]
    fn zero_channels_and_zero_shards_rejected() {
        assert!(SimConfig::default().try_with_channels(0).is_err());
        assert!(SimConfig::default().try_with_shards(0).is_err());
        assert_eq!(SimConfig::default().channels(), 1);
        assert_eq!(SimConfig::default().shards(), 1);
    }

    /// Channels are a topology knob: splitting a contended cluster over
    /// two channels must change (improve) the makespan, and the heap and
    /// reference schedulers must still agree on the multi-channel result.
    #[test]
    fn channels_change_the_topology_and_schedulers_still_agree() {
        let mk = |channels: usize| {
            quick()
                .with_cores(4)
                .with_instructions(30_000)
                .with_channels(channels)
        };
        let shared = Simulation::new(mk(1), PolicyKind::Mapg).run();
        let split = Simulation::new(mk(2), PolicyKind::Mapg).run();
        assert!(
            split.makespan_cycles < shared.makespan_cycles,
            "two channels ({}) must beat one ({})",
            split.makespan_cycles,
            shared.makespan_cycles
        );
        let split_reference =
            Simulation::new(mk(2).with_reference_scheduler(), PolicyKind::Mapg).run();
        assert_eq!(split, split_reference);
    }

    /// Shards are an execution-strategy knob: the full-policy controller
    /// path always runs the exact global wheel, so any shard count must
    /// produce a byte-identical report (the CSV-level counterpart lives
    /// in `tests/obs_determinism.rs`).
    #[test]
    fn shard_count_never_changes_a_report() {
        let mk = |shards: usize| {
            quick()
                .with_cores(4)
                .with_instructions(30_000)
                .with_channels(2)
                .with_shards(shards)
                .with_tokens(2)
        };
        let one = Simulation::new(mk(1), PolicyKind::Mapg).run();
        for shards in [3, 8] {
            assert_eq!(Simulation::new(mk(shards), PolicyKind::Mapg).run(), one);
        }
    }

    #[test]
    fn mix_shares_the_dram_channel() {
        // The sprinter alone vs the sprinter co-running with a hog: the
        // hog's traffic cannot make the sprinter stall less.
        let solo = Simulation::new(
            quick().with_profile(WorkloadProfile::compute_bound("s")),
            PolicyKind::NoGating,
        )
        .run();
        let mixed = Simulation::new(
            quick().with_workload_mix(vec![
                WorkloadProfile::compute_bound("s"),
                WorkloadProfile::mem_bound("hog"),
            ]),
            PolicyKind::NoGating,
        )
        .run();
        let solo_stall = solo.core_stats[0].stall_fraction();
        let mixed_stall = mixed.core_stats[0].stall_fraction();
        assert!(
            mixed_stall >= solo_stall,
            "contention cannot reduce stalls: {mixed_stall} < {solo_stall}"
        );
    }
}
