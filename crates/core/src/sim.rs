//! The full-system simulation: workload → cores → hierarchy → controller →
//! energy ledger → report.

use mapg_cpu::{Cluster, ClusterStats, CoreConfig, Lockstep};
use mapg_mem::{HierarchyConfig, LatencyHistogram};
use mapg_obs::{EventHub, MetricsHub, MetricsRegistry, ObsHandle};
use mapg_power::{
    DramEnergyModel, EnergyAccount, EnergyCategory, PgCircuitDesign, RetentionStyle,
    TechnologyParams,
};
use mapg_trace::{ChunkedSource, InFlight, SyntheticWorkload, WorkloadProfile};
use mapg_units::{Cycle, Cycles};

use crate::controller::{Controller, ControllerConfig};
use crate::error::MapgError;
use crate::faults::FaultPlan;
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::memo::RunCache;
use crate::policy::PolicyKind;
use crate::report::RunReport;
use crate::watchdog::WatchdogConfig;

/// Everything a run needs. Construct with [`SimConfig::default`] and
/// customize with the `with_*` methods, which only store their values;
/// [`SimConfig::validate`] checks the whole configuration, and
/// [`Simulation::try_run`] calls it before anything else runs:
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
    instructions_per_core: u64,
    seed: u64,
    core: CoreConfig,
    memory: HierarchyConfig,
    tech: TechnologyParams,
    switch_width_ratio: f64,
    retention: RetentionStyle,
    tokens: Option<usize>,
    regate_on_early_wake: bool,
    fault_plan: FaultPlan,
    watchdog: Option<WatchdogConfig>,
    trace_capacity: Option<usize>,
    metrics: bool,
    metrics_hub: Option<MetricsHub>,
    event_hub: Option<EventHub>,
    reference_scheduler: bool,
    run_cache: Option<RunCache>,
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
    pub fn with_workload_mix(mut self, profiles: Vec<WorkloadProfile>) -> Self {
        self.cores = profiles.len();
        self.profiles = profiles;
        self
    }

    /// Number of cores.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Instructions each core retires.
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        self.instructions_per_core = instructions;
        self
    }

    /// Master RNG seed; core *i* uses `seed + i` (wrapping).
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

    /// Technology parameters.
    pub fn with_tech(mut self, tech: TechnologyParams) -> Self {
        self.tech = tech;
        self
    }

    /// Sleep-transistor width ratio (selects the PG circuit design point).
    /// [`SimConfig::validate`] checks it against the range the circuit
    /// model covers ([`PgCircuitDesign::validate_switch_width`]).
    pub fn with_switch_width(mut self, ratio: f64) -> Self {
        self.switch_width_ratio = ratio;
        self
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

    /// Enables fault injection per `plan`. The fault streams are keyed to
    /// the simulation seed, so `(seed, config, plan)` fully determine the
    /// run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
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

    /// Records a structured event trace into
    /// [`RunReport::trace`](crate::RunReport) using the default ring
    /// capacity ([`mapg_obs::DEFAULT_TRACE_CAPACITY`]).
    pub fn with_trace(self) -> Self {
        self.with_trace_capacity(mapg_obs::DEFAULT_TRACE_CAPACITY)
    }

    /// Records a structured event trace into a bounded ring of `capacity`
    /// records; when full, the oldest records are dropped (and counted).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
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

    /// Runs on the frozen seed stack ([`mapg_cpu::ReferenceCluster`]: the
    /// retained per-event linear-scan scheduler over the seed memory
    /// hierarchy) instead of the optimized one.
    ///
    /// Reports must be identical either way — that is the equivalence the
    /// proptest oracle enforces. The knob exists for those oracle tests,
    /// the differential fuzzer and the repository benchmark's own
    /// live-versus-reference check.
    pub fn with_reference_scheduler(mut self) -> Self {
        self.reference_scheduler = true;
        self
    }

    /// Memoizes this run in `cache`: a repeated `(config, policy)` returns
    /// the report computed earlier instead of simulating again. Only runs
    /// without a trace or an event hub consult the cache (see
    /// [`Simulation::try_run`]).
    pub fn with_run_cache(mut self, cache: RunCache) -> Self {
        self.run_cache = Some(cache);
        self
    }

    /// Checks the whole configuration, the one place a run's settings are
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] with the message of the first
    /// check that fails: an empty workload mix, zero cores or
    /// instructions, a core, memory, fault-plan or watchdog configuration
    /// that fails its own check, a switch width outside the circuit
    /// model's range, or a zero token or trace capacity.
    pub fn validate(&self) -> Result<(), MapgError> {
        if self.profiles.is_empty() {
            return Err(MapgError::invalid("a mix needs at least one profile"));
        }
        if self.cores == 0 {
            return Err(MapgError::invalid("need at least one core"));
        }
        if self.instructions_per_core == 0 {
            return Err(MapgError::invalid("need at least one instruction"));
        }
        self.core.validate().map_err(MapgError::invalid)?;
        self.memory.try_validate()?;
        PgCircuitDesign::validate_switch_width(self.switch_width_ratio)
            .map_err(MapgError::invalid)?;
        if self.tokens == Some(0) {
            return Err(MapgError::invalid(crate::tokens::ZERO_CAPACITY));
        }
        self.fault_plan.validate()?;
        if let Some(watchdog) = &self.watchdog {
            watchdog.validate().map_err(MapgError::invalid)?;
        }
        if self.trace_capacity == Some(0) {
            return Err(MapgError::invalid("trace capacity must be non-zero"));
        }
        Ok(())
    }

    /// Whether `self` and `other` describe the same run: equal on every
    /// field that can change the report. The hubs and the cache handle
    /// only observe or memoize a run, so they are not compared. The
    /// destructure is exhaustive, so a new field does not compile until
    /// it is either compared here or listed as ignored.
    pub(crate) fn same_run(&self, other: &SimConfig) -> bool {
        let SimConfig {
            profiles,
            cores,
            instructions_per_core,
            seed,
            core,
            memory,
            tech,
            switch_width_ratio,
            retention,
            tokens,
            regate_on_early_wake,
            fault_plan,
            watchdog,
            trace_capacity,
            metrics,
            metrics_hub: _,
            event_hub: _,
            reference_scheduler,
            run_cache: _,
        } = self;
        *profiles == other.profiles
            && *cores == other.cores
            && *instructions_per_core == other.instructions_per_core
            && *seed == other.seed
            && *core == other.core
            && *memory == other.memory
            && *tech == other.tech
            && switch_width_ratio.to_bits() == other.switch_width_ratio.to_bits()
            && *retention == other.retention
            && *tokens == other.tokens
            && *regate_on_early_wake == other.regate_on_early_wake
            && *fault_plan == other.fault_plan
            && *watchdog == other.watchdog
            && *trace_capacity == other.trace_capacity
            && *metrics == other.metrics
            && *reference_scheduler == other.reference_scheduler
    }

    /// This configuration without its hubs and cache handle: what a
    /// [`RunCache`] keeps as an entry's key.
    pub(crate) fn without_observers(mut self) -> Self {
        self.metrics_hub = None;
        self.event_hub = None;
        self.run_cache = None;
        self
    }

    /// Whether this run may share its front end (its event generation and
    /// L1/L2 lookups) with other runs (DESIGN §9.7): one core, no
    /// prefetcher, no reference scheduler, no trace and no event hub.
    /// Every such run takes the lockstep path, a lone run as a group of
    /// one; every other run drives a [`Cluster`].
    pub(crate) fn shares_front_end(&self) -> bool {
        self.cores == 1
            && !self.memory.prefetch.is_enabled()
            && !self.reference_scheduler
            && self.trace_capacity.is_none()
            && self.event_hub.is_none()
    }

    /// Whether `self` and `other` both
    /// [share their front end](SimConfig::shares_front_end) and read the
    /// same event stream through the same caches: the front-end key.
    pub(crate) fn shares_front_end_with(&self, other: &SimConfig) -> bool {
        self.shares_front_end()
            && other.shares_front_end()
            && self.profiles == other.profiles
            && self.cores == other.cores
            && self.instructions_per_core == other.instructions_per_core
            && self.seed == other.seed
            && self.memory.l1 == other.memory.l1
            && self.memory.l2 == other.memory.l2
    }

    /// The run cache this run consults: none for a traced or published
    /// run, whose trace is not cached.
    fn memo(&self) -> Option<&RunCache> {
        self.run_cache
            .as_ref()
            .filter(|_| self.trace_capacity.is_none() && self.event_hub.is_none())
    }

    /// The hierarchy the run simulates: a non-no-op fault plan injects its
    /// DRAM-side faults into it, keyed to the simulation seed; a no-op plan
    /// leaves the memory configuration untouched.
    fn faulty_memory(&self) -> HierarchyConfig {
        let mut memory = self.memory;
        if !self.fault_plan.is_nop() {
            memory.dram_faults = self.fault_plan.dram_faults(self.seed);
        }
        memory
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

    /// The configured technology.
    pub fn tech(&self) -> &TechnologyParams {
        &self.tech
    }

    /// The circuit design point this configuration implies.
    pub fn circuit(&self) -> PgCircuitDesign {
        PgCircuitDesign::from_switch_width(self.switch_width_ratio, &self.tech)
            .with_retention(self.retention)
    }
}

impl Default for SimConfig {
    /// One core, 1 M instructions of the generic memory-bound profile,
    /// baseline substrate, the MAPG fast-wakeup circuit, no tokens.
    fn default() -> Self {
        SimConfig {
            profiles: vec![WorkloadProfile::mem_bound("default")],
            cores: 1,
            instructions_per_core: 1_000_000,
            seed: 42,
            core: CoreConfig::baseline(),
            memory: HierarchyConfig::baseline(),
            tech: TechnologyParams::bulk_45nm(),
            switch_width_ratio: 0.03,
            retention: RetentionStyle::Retentive,
            tokens: None,
            regate_on_early_wake: true,
            fault_plan: FaultPlan::none(),
            watchdog: None,
            trace_capacity: None,
            metrics: false,
            metrics_hub: None,
            event_hub: None,
            reference_scheduler: false,
            run_cache: None,
        }
    }
}

/// Renders every metric of a run, once, at its end, from the statistics
/// the run kept: the controller's ([`Controller::record_metrics`]), the
/// energy ledger's, and the stall, LLC-miss and DRAM counts with the
/// stall-length and miss-latency histograms (copied exactly; see
/// [`mapg_mem::LatencyHistogram`]). They reconcile with the report by
/// construction. Each appears only when the run touched it.
fn render_metrics(
    cluster: &ClusterStats,
    controller: &Controller,
    energy: &EnergyAccount,
) -> MetricsRegistry {
    let mut metrics = MetricsRegistry::new();
    controller.record_metrics(&mut metrics);
    energy.record_metrics(&mut metrics);
    let mut stall_length = LatencyHistogram::new();
    for core in &cluster.per_core {
        stall_length.merge(&core.stall_durations);
    }
    let memory = &cluster.memory;
    for (name, count) in [
        (
            "core_stalls",
            cluster.per_core.iter().map(|c| c.stall_count).sum(),
        ),
        ("llc_misses", memory.miss_latency.count()),
        ("dram_accesses", memory.dram.accesses()),
        ("dram_fault_spikes", memory.dram.fault_spikes),
    ] {
        if count > 0 {
            metrics.count(name, count);
        }
    }
    for (name, histogram) in [
        ("stall_length", &stall_length),
        ("miss_latency", &memory.miss_latency),
    ] {
        if histogram.count() > 0 {
            metrics.merge_histogram(name, histogram.histogram());
        }
    }
    metrics
}

// Configurations go out to pool workers and reports come back, so both
// must stay `Send`; the observability handle a run builds internally does
// not cross, and is deliberately `!Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimConfig>();
    assert_send::<RunReport>();
};

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
    /// Panics with the message of [`SimConfig::validate`] if the
    /// configuration is invalid; use [`Simulation::try_run`] on front-end
    /// paths that assemble configs from user input.
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
    /// Returns [`MapgError::InvalidConfig`] if [`SimConfig::validate`]
    /// rejects the configuration; nothing is simulated or looked up then.
    ///
    /// With a [`RunCache`] attached ([`SimConfig::with_run_cache`]), a run
    /// with no trace and no event hub returns the cached report of an
    /// equal earlier run and merges its metrics into the metrics hub, if
    /// one is attached — the same bytes a fresh computation would produce
    /// and publish. Traced and published runs always compute: their trace
    /// is not cached.
    pub fn try_run(self) -> Result<RunReport, MapgError> {
        let Simulation { config, policy } = self;
        config.validate()?;
        if let Some(report) = Simulation::recall(&config, policy) {
            return Ok(report);
        }
        let run = (config, policy);
        let report = Simulation::compute(std::slice::from_ref(&run))?
            .pop()
            .expect("one report per run");
        let (config, policy) = run;
        Simulation::remember(config, policy, &report);
        Ok(report)
    }

    /// The memoized report of `(config, policy)`, if its run cache holds
    /// one; a hit merges its metrics into the metrics hub, if one is
    /// attached, as the computed run would have.
    pub(crate) fn recall(config: &SimConfig, policy: PolicyKind) -> Option<RunReport> {
        let report = config.memo()?.get(config, policy)?;
        if let (Some(hub), Some(metrics)) = (&config.metrics_hub, &report.metrics) {
            hub.merge(metrics);
        }
        Some(report)
    }

    /// Memoizes `report` as the outcome of `(config, policy)` in the run's
    /// cache, if it consults one.
    pub(crate) fn remember(config: SimConfig, policy: PolicyKind, report: &RunReport) {
        if let Some(cache) = config.memo().cloned() {
            cache.insert(config, policy, report.clone());
        }
    }

    /// Computes validated, uncached runs: a group of runs that
    /// [share one front end](SimConfig::shares_front_end) in lockstep, or
    /// one run that shares none on a cluster. Reports come back in `runs`
    /// order.
    pub(crate) fn compute(runs: &[(SimConfig, PolicyKind)]) -> Result<Vec<RunReport>, MapgError> {
        let (config, policy) = &runs[0];
        if config.shares_front_end() {
            return Simulation::lockstep(runs);
        }
        assert_eq!(runs.len(), 1, "only front-end groups hold several runs");
        Ok(vec![Simulation::simulate(config, *policy)?])
    }

    /// One run's stall handler and observability handle. Built on the
    /// thread that runs the simulation (the handle is `!Send`), so
    /// emission order is simulation order and the trace stays
    /// deterministic at any outer parallelism.
    fn back_end(config: &SimConfig, policy: PolicyKind) -> (Controller, ObsHandle) {
        let controller_config = ControllerConfig {
            tech: config.tech,
            circuit: config.circuit(),
            clock: config.core.clock,
            tokens: config.tokens,
            regate_on_early_wake: config.regate_on_early_wake,
            fault_plan: config.fault_plan,
            fault_seed: config.seed,
            watchdog: config.watchdog,
        };
        let mut controller = Controller::new(policy.instantiate(), controller_config);
        // One handle per run, shared by every component via cheap clones.
        let obs = ObsHandle::enabled(
            config.trace_capacity,
            config.metrics || config.metrics_hub.is_some(),
        );
        controller.set_obs(obs.clone());
        (controller, obs)
    }

    /// Runs `config` under `policy` to completion on a cluster.
    fn simulate(config: &SimConfig, policy: PolicyKind) -> Result<RunReport, MapgError> {
        // Counted for the whole run, so the generation helper serves a
        // run only while no other is in flight (DESIGN §9.6).
        let in_flight = InFlight::enter();
        let (mut controller, obs) = Simulation::back_end(config, policy);
        let generators: Vec<SyntheticWorkload> = (0..config.cores)
            .map(|i| {
                let profile = &config.profiles[i % config.profiles.len()];
                SyntheticWorkload::new(profile, config.seed.wrapping_add(i as u64))
            })
            .collect();
        let memory = config.faulty_memory();
        // The model stays on this thread; only generation may move to the
        // helper. The reference stack is the frozen oracle the differential
        // tests and the fuzzer cross the live one against.
        let sources = ChunkedSource::for_run(generators, &in_flight);
        let cluster_stats = if config.reference_scheduler {
            let mut cluster = mapg_cpu::ReferenceCluster::try_new(config.core, memory, sources)?;
            cluster.set_obs(obs.clone());
            cluster.try_run(config.instructions_per_core, &mut controller)?;
            cluster.stats()
        } else {
            let mut cluster = Cluster::try_new(config.core, memory, sources)?;
            cluster.set_obs(obs.clone());
            cluster.try_run(config.instructions_per_core, &mut controller)?;
            cluster.stats()
        };
        Ok(Simulation::report(config, controller, &obs, cluster_stats))
    }

    /// Runs a group that shares one front end: one generator and one set
    /// of L1/L2 caches feed every run's back end (DESIGN §9.7).
    fn lockstep(runs: &[(SimConfig, PolicyKind)]) -> Result<Vec<RunReport>, MapgError> {
        // The group reads one stream, so it counts as one run in flight
        // for the generation helper (DESIGN §9.6).
        let in_flight = InFlight::enter();
        let front = &runs[0].0;
        let (mut controllers, observers): (Vec<_>, Vec<_>) = runs
            .iter()
            .map(|(config, policy)| Simulation::back_end(config, *policy))
            .unzip();
        let generator = SyntheticWorkload::new(front.profile(), front.seed);
        let mut sources = ChunkedSource::for_run(vec![generator], &in_flight);
        let source = sources.pop().expect("one source per generator");
        let back_ends = runs
            .iter()
            .map(|(config, _)| (config.core, config.faulty_memory()))
            .collect();
        let mut lockstep = Lockstep::try_new(source, back_ends)?;
        for (i, obs) in observers.iter().enumerate() {
            lockstep.set_obs(i, obs.clone());
        }
        lockstep.try_run(front.instructions_per_core, &mut controllers)?;
        Ok(controllers
            .into_iter()
            .zip(&observers)
            .zip(runs)
            .enumerate()
            .map(|(i, ((controller, obs), (config, _)))| {
                Simulation::report(config, controller, obs, lockstep.stats(i))
            })
            .collect())
    }

    /// Closes a finished run's books: the controller's, the energy
    /// ledger's, the end-of-run audits, the metrics and the report.
    fn report(
        config: &SimConfig,
        mut controller: Controller,
        obs: &ObsHandle,
        cluster_stats: ClusterStats,
    ) -> RunReport {
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
        let dram_energy = DramEnergyModel::ddr3();
        energy.add(
            EnergyCategory::DramAccess,
            dram_energy.access_energy(&cluster_stats.memory.dram),
        );
        energy.add(
            EnergyCategory::DramBackground,
            dram_energy.background_power * runtime,
        );

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

        let trace = obs.take();
        let metrics = obs
            .metrics_enabled()
            .then(|| render_metrics(&cluster_stats, &controller, &energy));
        if let (Some(hub), Some(metrics)) = (&config.metrics_hub, &metrics) {
            hub.merge(metrics);
        }
        if let (Some(feed), Some(trace)) = (&config.event_hub, &trace) {
            feed.publish(trace.iter());
        }

        RunReport {
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
        }
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

    /// R-F4's guard kind at 4 quarters is the default guard: the same
    /// report as `Mapg`, name included.
    #[test]
    fn guard_kind_at_one_bet_is_mapg() {
        let guarded = Simulation::new(quick(), PolicyKind::MapgGuard { quarter_bets: 4 }).run();
        assert_eq!(guarded, Simulation::new(quick(), PolicyKind::Mapg).run());
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

    fn rejection(config: SimConfig) -> String {
        match config.validate() {
            Err(MapgError::InvalidConfig(message)) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_cores_rejected() {
        let message = rejection(SimConfig::default().with_cores(0));
        assert!(message.contains("at least one core"), "{message}");
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
    fn empty_mix_rejected() {
        let message = rejection(SimConfig::default().with_workload_mix(Vec::new()));
        assert!(message.contains("at least one profile"), "{message}");
    }

    /// Values the setters store without complaint but the run cannot use:
    /// each comes back from `try_run` as the message `validate` gives,
    /// and `run` panics with that same message.
    #[test]
    fn try_run_returns_invalid_configs_as_errors() {
        let cases = [
            (quick().with_tokens(0), "token capacity must be non-zero"),
            (
                quick().with_switch_width(0.9),
                "switch width ratio must be in [0.005, 0.2], got 0.9",
            ),
            (
                quick().with_fault_plan(FaultPlan {
                    slow_wake_prob: 2.0,
                    ..FaultPlan::none()
                }),
                "slow-wake probability must be in [0, 1], got 2",
            ),
            (
                quick().with_workload_mix(vec![]),
                "a mix needs at least one profile",
            ),
            (
                quick().with_trace_capacity(0),
                "trace capacity must be non-zero",
            ),
            (
                quick().with_core(CoreConfig {
                    mlp_limit: 0,
                    ..CoreConfig::baseline()
                }),
                "mlp_limit must be at least 1",
            ),
            (
                quick().with_safe_mode(WatchdogConfig {
                    window: 0,
                    ..WatchdogConfig::default()
                }),
                "watchdog window and min_samples must be non-zero",
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(rejection(config.clone()), expected);
            let err = Simulation::new(config.clone(), PolicyKind::Mapg)
                .try_run()
                .unwrap_err();
            assert_eq!(err, MapgError::invalid(expected));
            let panic =
                std::panic::catch_unwind(|| Simulation::new(config, PolicyKind::Mapg).run())
                    .unwrap_err();
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some(expected)
            );
        }
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
