//! Randomized-but-seeded full-system scenarios.
//!
//! A [`Scenario`] is a flat, serializable description of one simulation
//! run: cluster size, workload-profile knobs, memory/DRAM configuration,
//! circuit design point, policy, fault plan, watchdog, tokens, and the
//! observability settings the law checks need. `(campaign_seed, index)`
//! fully determine a scenario, and a scenario fully determines the run —
//! so every divergence the fuzzer finds can be written down and replayed
//! bit-for-bit.

use crate::error::MapgError;
use crate::faults::FaultPlan;
use crate::fuzz::json::{self, JsonValue};
use crate::policy::{PolicyKind, PredictorKind};
use crate::sim::SimConfig;
use crate::watchdog::WatchdogConfig;
use mapg_cpu::CoreConfig;
use mapg_mem::{DramConfig, HierarchyConfig, PagePolicy, PrefetchConfig};
use mapg_power::RetentionStyle;
use mapg_trace::{IdleInjection, PhaseSchedule, WorkloadProfile};
use mapg_units::Cycles;

/// A tiny deterministic PRNG (SplitMix64) for scenario generation.
///
/// Hand-rolled so generated scenarios are stable across toolchain and
/// dependency versions: a campaign seed printed in a CI log must map to
/// the same scenarios years later.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Which [`PhaseSchedule`] preset a profile uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseSpec {
    /// [`PhaseSchedule::mostly_memory`].
    MostlyMemory,
    /// [`PhaseSchedule::mostly_compute`].
    MostlyCompute,
    /// [`PhaseSchedule::alternating`].
    Alternating,
    /// Stationary memory-intensive.
    StationaryMemory,
    /// Stationary balanced.
    StationaryBalanced,
    /// Stationary compute-intensive.
    StationaryCompute,
}

impl PhaseSpec {
    const ALL: [PhaseSpec; 6] = [
        PhaseSpec::MostlyMemory,
        PhaseSpec::MostlyCompute,
        PhaseSpec::Alternating,
        PhaseSpec::StationaryMemory,
        PhaseSpec::StationaryBalanced,
        PhaseSpec::StationaryCompute,
    ];

    fn schedule(self) -> PhaseSchedule {
        use mapg_trace::Phase;
        match self {
            PhaseSpec::MostlyMemory => PhaseSchedule::mostly_memory(),
            PhaseSpec::MostlyCompute => PhaseSchedule::mostly_compute(),
            PhaseSpec::Alternating => PhaseSchedule::alternating(),
            PhaseSpec::StationaryMemory => PhaseSchedule::stationary(Phase::MemoryIntensive),
            PhaseSpec::StationaryBalanced => PhaseSchedule::stationary(Phase::Balanced),
            PhaseSpec::StationaryCompute => PhaseSchedule::stationary(Phase::ComputeIntensive),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            PhaseSpec::MostlyMemory => "mostly-memory",
            PhaseSpec::MostlyCompute => "mostly-compute",
            PhaseSpec::Alternating => "alternating",
            PhaseSpec::StationaryMemory => "stationary-memory",
            PhaseSpec::StationaryBalanced => "stationary-balanced",
            PhaseSpec::StationaryCompute => "stationary-compute",
        }
    }

    fn from_tag(tag: &str) -> Option<PhaseSpec> {
        PhaseSpec::ALL.iter().copied().find(|p| p.tag() == tag)
    }
}

/// Workload-profile knobs (mirrors [`mapg_trace::ProfileBuilder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Memory references per kilo-instruction, `(0, 1000]`.
    pub mem_refs_per_kilo_inst: f64,
    /// Working-set size in bytes, at least one line.
    pub working_set_bytes: u64,
    /// Sequential-continuation probability, `[0, 1)`.
    pub spatial_locality: f64,
    /// Number of hot regions, non-zero.
    pub hot_regions: u32,
    /// Dependent-access fraction, `[0, 1]`.
    pub pointer_chase_fraction: f64,
    /// Store fraction, `[0, 1]`.
    pub write_fraction: f64,
    /// Compute issue rate, `(0, 8]`.
    pub compute_ipc: f64,
    /// Phase-schedule preset.
    pub phases: PhaseSpec,
    /// Optional long-idle injection `(mean_interval_instructions,
    /// duration_cycles)`, both non-zero.
    pub idle: Option<(u64, u64)>,
}

impl ProfileSpec {
    /// Builds the concrete workload profile.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when a knob is outside the
    /// range `ProfileBuilder` accepts (possible for hand-edited files).
    pub fn build(&self, name: &str) -> Result<WorkloadProfile, MapgError> {
        let bad = |what: &str| Err(MapgError::invalid(format!("profile {what} out of range")));
        if !(self.mem_refs_per_kilo_inst > 0.0 && self.mem_refs_per_kilo_inst <= 1000.0) {
            return bad("mem_refs_per_kilo_inst");
        }
        if self.working_set_bytes < 64 {
            return bad("working_set_bytes");
        }
        if !(0.0..1.0).contains(&self.spatial_locality) {
            return bad("spatial_locality");
        }
        if self.hot_regions == 0 {
            return bad("hot_regions");
        }
        if !(0.0..=1.0).contains(&self.pointer_chase_fraction) {
            return bad("pointer_chase_fraction");
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return bad("write_fraction");
        }
        if !(self.compute_ipc > 0.0 && self.compute_ipc <= 8.0) {
            return bad("compute_ipc");
        }
        let mut builder = WorkloadProfile::builder(name)
            .mem_refs_per_kilo_inst(self.mem_refs_per_kilo_inst)
            .working_set_bytes(self.working_set_bytes)
            .spatial_locality(self.spatial_locality)
            .hot_regions(self.hot_regions)
            .pointer_chase_fraction(self.pointer_chase_fraction)
            .write_fraction(self.write_fraction)
            .compute_ipc(self.compute_ipc)
            .phases(self.phases.schedule());
        if let Some((interval, duration)) = self.idle {
            if interval == 0 || duration == 0 {
                return bad("idle_injection");
            }
            builder = builder.idle_injection(IdleInjection::new(interval, duration));
        }
        Ok(builder.build())
    }

    fn generate(rng: &mut SplitMix64) -> ProfileSpec {
        ProfileSpec {
            mem_refs_per_kilo_inst: *rng.pick(&[1.0, 5.0, 20.0, 70.0, 150.0, 400.0, 1000.0]),
            working_set_bytes: *rng.pick(&[
                64,
                4 << 10,
                32 << 10,
                256 << 10,
                2 << 20,
                16 << 20,
                128 << 20,
            ]),
            spatial_locality: *rng.pick(&[0.0, 0.3, 0.7, 0.9, 0.99]),
            hot_regions: rng.range(1, 16) as u32,
            pointer_chase_fraction: *rng.pick(&[0.0, 0.1, 0.5, 1.0]),
            write_fraction: *rng.pick(&[0.0, 0.3, 0.7, 1.0]),
            compute_ipc: *rng.pick(&[0.25, 1.0, 2.0, 4.0, 8.0]),
            phases: *rng.pick(&PhaseSpec::ALL),
            idle: if rng.chance(0.3) {
                Some((rng.range(100, 20_000), rng.range(100, 50_000)))
            } else {
                None
            },
        }
    }

    /// The neutral spec shrinking resets toward (the `mixed` preset shape).
    pub fn baseline() -> ProfileSpec {
        ProfileSpec {
            mem_refs_per_kilo_inst: 70.0,
            working_set_bytes: 16 << 20,
            spatial_locality: 0.7,
            hot_regions: 4,
            pointer_chase_fraction: 0.1,
            write_fraction: 0.3,
            compute_ipc: 2.0,
            phases: PhaseSpec::Alternating,
            idle: None,
        }
    }
}

/// One fully-specified fuzz scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of cores.
    pub cores: usize,
    /// Instructions each core retires.
    pub instructions: u64,
    /// Simulation master seed.
    pub sim_seed: u64,
    /// Gating policy under test.
    pub policy: PolicyKind,
    /// Workload-profile knobs (all cores run the same profile with
    /// per-core seeds, like the headline experiments).
    pub profile: ProfileSpec,
    /// When set, drive the run from quantized recordings (basic-block
    /// replay, where compute batching folds the most events) instead of
    /// live generators.
    pub compute_quantum: Option<u64>,
    /// Token-limited wake-ups with this capacity, when set.
    pub tokens: Option<usize>,
    /// Safe-mode watchdog thresholds, when enabled.
    pub watchdog: Option<WatchdogConfig>,
    /// Fault-injection plan (a no-op plan disables injection).
    pub faults: FaultPlan,
    /// Sleep-transistor width ratio, `[0.005, 0.2]`.
    pub switch_width_ratio: f64,
    /// Non-retentive PG circuit (cold-start penalty on wake).
    pub non_retentive: bool,
    /// Core MLP bound.
    pub mlp_limit: usize,
    /// MSHR entries at the LLC.
    pub mshr_entries: usize,
    /// DRAM closed-page policy instead of open-page.
    pub closed_page: bool,
    /// Stream prefetcher enabled.
    pub stream_prefetch: bool,
    /// DRAM timing scale factor (1.0 = DDR3-1333 baseline).
    pub dram_latency_scale: f64,
    /// DRAM bank count.
    pub dram_banks: u32,
    /// Nap chaining (re-gate after early wake) enabled.
    pub regate: bool,
    /// Record the power-state timeline.
    pub timeline: bool,
    /// Trace ring capacity; small values exercise the drop path.
    pub trace_capacity: usize,
}

/// Policies the generator samples from (superset of the comparison set).
const POLICY_POOL: [PolicyKind; 13] = [
    PolicyKind::NoGating,
    PolicyKind::ClockGating,
    PolicyKind::DvfsStall,
    PolicyKind::NaiveOnMiss,
    PolicyKind::Timeout { idle_cycles: 20 },
    PolicyKind::Timeout { idle_cycles: 500 },
    PolicyKind::Mapg,
    PolicyKind::MapgOracle,
    PolicyKind::MapgAlwaysGate,
    PolicyKind::MapgNoEarlyWake,
    PolicyKind::MapgWith {
        predictor: PredictorKind::Static,
    },
    PolicyKind::MapgWith {
        predictor: PredictorKind::LastValue,
    },
    PolicyKind::MapgWith {
        predictor: PredictorKind::Ewma,
    },
];

impl Scenario {
    /// Deterministically generates scenario `index` of a campaign.
    pub fn generate(campaign_seed: u64, index: u64) -> Scenario {
        // Mix the index through one SplitMix64 step so consecutive indices
        // land in unrelated regions of the space.
        let mut rng = SplitMix64::new(campaign_seed ^ SplitMix64::new(index).next_u64());
        let cores = *rng.pick(&[1usize, 2, 3, 4, 8, 16]);
        let faults = if rng.chance(0.5) {
            FaultPlan::none()
        } else {
            FaultPlan {
                slow_wake_prob: *rng.pick(&[0.0, 0.05, 0.5, 1.0]),
                slow_wake_factor: *rng.pick(&[1.0, 4.0, 64.0]),
                token_drop_prob: *rng.pick(&[0.0, 0.1, 1.0]),
                token_retry_cycles: Cycles::new(rng.range(1, 500)),
                predictor_corrupt_prob: *rng.pick(&[0.0, 0.2, 1.0]),
                brownout_prob: *rng.pick(&[0.0, 0.05, 1.0]),
                brownout_hold_cycles: Cycles::new(rng.range(1, 50_000)),
                dram_spike_prob: *rng.pick(&[0.0, 0.3, 0.9]),
                dram_spike_cycles: Cycles::new(rng.range(1, 2_000)),
                dram_window_cycles: rng.range(100, 5_000),
            }
        };
        // Two retired dimensions (memory channels, shard count) still
        // consume their draws, so a campaign seed keeps mapping to the same
        // values in every dimension that remains.
        rng.below(7);
        rng.below(5);
        Scenario {
            cores,
            instructions: *rng.pick(&[50, 200, 1_000, 5_000, 20_000, 80_000]),
            sim_seed: rng.below(1 << 48),
            policy: *rng.pick(&POLICY_POOL),
            profile: ProfileSpec::generate(&mut rng),
            compute_quantum: if rng.chance(0.35) {
                Some(rng.range(1, 64))
            } else {
                None
            },
            tokens: if rng.chance(0.4) {
                Some(rng.range(1, cores as u64) as usize)
            } else {
                None
            },
            watchdog: if rng.chance(0.4) {
                Some(WatchdogConfig {
                    window: rng.range(1, 32) as usize,
                    min_samples: 1,
                    penalty_ratio: *rng.pick(&[0.25, 0.5, 2.0, 8.0]),
                    failure_threshold: *rng.pick(&[0.01, 0.2, 0.9]),
                    backoff_base: Cycles::new(rng.range(50, 5_000)),
                    backoff_max: Cycles::new(rng.range(5_000, 100_000)),
                })
            } else {
                None
            },
            faults,
            switch_width_ratio: *rng.pick(&[0.005, 0.01, 0.03, 0.08, 0.2]),
            non_retentive: rng.chance(0.25),
            mlp_limit: *rng.pick(&[1usize, 2, 8, 16]),
            mshr_entries: *rng.pick(&[1usize, 2, 4, 16, 32]),
            closed_page: rng.chance(0.3),
            stream_prefetch: rng.chance(0.3),
            dram_latency_scale: *rng.pick(&[0.5, 1.0, 2.0, 4.0]),
            // Non-power-of-two bank counts (3, 6) drive the division
            // fallback in the flattened DRAM bank/row split.
            dram_banks: *rng.pick(&[1u32, 2, 3, 6, 8, 16]),
            regate: !rng.chance(0.2),
            timeline: rng.chance(0.2),
            trace_capacity: *rng.pick(&[1usize, 64, 1 << 20]),
        }
    }

    /// Builds the simulation configuration this scenario describes.
    ///
    /// Trace + metrics capture are always enabled: the differ's law checks
    /// need them, and repro replay must match the fuzzing run exactly.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when a field is out of range
    /// (possible for hand-edited repro files; generated scenarios are
    /// always valid).
    pub fn build_config(&self) -> Result<SimConfig, MapgError> {
        let invalid = |what: &str| MapgError::invalid(format!("scenario {what} out of range"));
        let profile = self.profile.build("fuzz")?;
        if self.mlp_limit == 0 {
            return Err(invalid("mlp_limit"));
        }
        if !(self.dram_latency_scale.is_finite() && self.dram_latency_scale > 0.0) {
            return Err(invalid("dram_latency_scale"));
        }
        if self.trace_capacity == 0 {
            return Err(invalid("trace_capacity"));
        }
        let mut dram = DramConfig::ddr3_1333().with_latency_scaled(self.dram_latency_scale);
        dram.banks = self.dram_banks;
        dram = dram.with_page_policy(if self.closed_page {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        });
        let memory = HierarchyConfig {
            dram,
            mshr_entries: self.mshr_entries,
            prefetch: if self.stream_prefetch {
                PrefetchConfig::stream()
            } else {
                PrefetchConfig::disabled()
            },
            ..HierarchyConfig::baseline()
        };
        // Zero banks / zero MSHRs and any other memory inconsistency come
        // back through the hierarchy's own validation (same messages the
        // panicking constructors use) instead of ad-hoc field checks.
        memory.try_validate()?;
        let core = CoreConfig {
            mlp_limit: self.mlp_limit,
            ..CoreConfig::baseline()
        };
        let mut config = SimConfig::default()
            .with_profile(profile)
            .try_with_cores(self.cores)?
            .try_with_instructions(self.instructions)?
            .with_seed(self.sim_seed)
            .with_core(core)
            .with_memory(memory)
            .try_with_switch_width(self.switch_width_ratio)?
            .with_retention(if self.non_retentive {
                RetentionStyle::NonRetentive
            } else {
                RetentionStyle::Retentive
            })
            .try_with_fault_plan(self.faults)?
            .with_trace_capacity(self.trace_capacity)
            .with_metrics();
        if let Some(quantum) = self.compute_quantum {
            config = config.try_with_compute_quantum(quantum)?;
        }
        if let Some(tokens) = self.tokens {
            config = config.try_with_tokens(tokens)?;
        }
        if let Some(watchdog) = self.watchdog {
            watchdog.validate().map_err(MapgError::invalid)?;
            config = config.with_safe_mode(watchdog);
        }
        if let PolicyKind::Timeout { idle_cycles } = self.policy {
            if idle_cycles == 0 {
                return Err(invalid("timeout idle_cycles"));
            }
        }
        if !self.regate {
            config = config.without_regate();
        }
        if self.timeline {
            config = config.with_timeline();
        }
        Ok(config)
    }

    /// Serializes the scenario to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let opt_u64 = |v: Option<u64>| match v {
            Some(n) => JsonValue::Number(n.to_string()),
            None => JsonValue::Null,
        };
        let num_u = |n: u64| JsonValue::Number(n.to_string());
        let num_f = |x: f64| JsonValue::Number(json::render_f64(x));
        let policy = match self.policy {
            PolicyKind::Timeout { idle_cycles } => JsonValue::Object(vec![
                ("name".into(), JsonValue::String("timeout".into())),
                ("idle_cycles".into(), num_u(idle_cycles)),
            ]),
            other => JsonValue::Object(vec![(
                "name".into(),
                JsonValue::String(other.name().into()),
            )]),
        };
        let profile = JsonValue::Object(vec![
            (
                "mem_refs_per_kilo_inst".into(),
                num_f(self.profile.mem_refs_per_kilo_inst),
            ),
            (
                "working_set_bytes".into(),
                num_u(self.profile.working_set_bytes),
            ),
            (
                "spatial_locality".into(),
                num_f(self.profile.spatial_locality),
            ),
            ("hot_regions".into(), num_u(self.profile.hot_regions.into())),
            (
                "pointer_chase_fraction".into(),
                num_f(self.profile.pointer_chase_fraction),
            ),
            ("write_fraction".into(), num_f(self.profile.write_fraction)),
            ("compute_ipc".into(), num_f(self.profile.compute_ipc)),
            (
                "phases".into(),
                JsonValue::String(self.profile.phases.tag().into()),
            ),
            (
                "idle_interval_instructions".into(),
                opt_u64(self.profile.idle.map(|(i, _)| i)),
            ),
            (
                "idle_duration_cycles".into(),
                opt_u64(self.profile.idle.map(|(_, d)| d)),
            ),
        ]);
        let faults = JsonValue::Object(vec![
            ("slow_wake_prob".into(), num_f(self.faults.slow_wake_prob)),
            (
                "slow_wake_factor".into(),
                num_f(self.faults.slow_wake_factor),
            ),
            ("token_drop_prob".into(), num_f(self.faults.token_drop_prob)),
            (
                "token_retry_cycles".into(),
                num_u(self.faults.token_retry_cycles.raw()),
            ),
            (
                "predictor_corrupt_prob".into(),
                num_f(self.faults.predictor_corrupt_prob),
            ),
            ("brownout_prob".into(), num_f(self.faults.brownout_prob)),
            (
                "brownout_hold_cycles".into(),
                num_u(self.faults.brownout_hold_cycles.raw()),
            ),
            ("dram_spike_prob".into(), num_f(self.faults.dram_spike_prob)),
            (
                "dram_spike_cycles".into(),
                num_u(self.faults.dram_spike_cycles.raw()),
            ),
            (
                "dram_window_cycles".into(),
                num_u(self.faults.dram_window_cycles),
            ),
        ]);
        let watchdog = match &self.watchdog {
            None => JsonValue::Null,
            Some(w) => JsonValue::Object(vec![
                ("window".into(), num_u(w.window as u64)),
                ("min_samples".into(), num_u(w.min_samples as u64)),
                ("penalty_ratio".into(), num_f(w.penalty_ratio)),
                ("failure_threshold".into(), num_f(w.failure_threshold)),
                ("backoff_base".into(), num_u(w.backoff_base.raw())),
                ("backoff_max".into(), num_u(w.backoff_max.raw())),
            ]),
        };
        JsonValue::Object(vec![
            ("cores".into(), num_u(self.cores as u64)),
            ("instructions".into(), num_u(self.instructions)),
            ("sim_seed".into(), num_u(self.sim_seed)),
            ("policy".into(), policy),
            ("profile".into(), profile),
            ("compute_quantum".into(), opt_u64(self.compute_quantum)),
            ("tokens".into(), opt_u64(self.tokens.map(|t| t as u64))),
            ("watchdog".into(), watchdog),
            ("faults".into(), faults),
            ("switch_width_ratio".into(), num_f(self.switch_width_ratio)),
            ("non_retentive".into(), JsonValue::Bool(self.non_retentive)),
            ("mlp_limit".into(), num_u(self.mlp_limit as u64)),
            ("mshr_entries".into(), num_u(self.mshr_entries as u64)),
            ("closed_page".into(), JsonValue::Bool(self.closed_page)),
            (
                "stream_prefetch".into(),
                JsonValue::Bool(self.stream_prefetch),
            ),
            ("dram_latency_scale".into(), num_f(self.dram_latency_scale)),
            ("dram_banks".into(), num_u(self.dram_banks.into())),
            ("regate".into(), JsonValue::Bool(self.regate)),
            ("timeline".into(), JsonValue::Bool(self.timeline)),
            ("trace_capacity".into(), num_u(self.trace_capacity as u64)),
        ])
    }

    /// Deserializes a scenario from its JSON object form.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when a field is missing or has
    /// the wrong type. Range validation happens in
    /// [`Scenario::build_config`].
    pub fn from_json(value: &JsonValue) -> Result<Scenario, MapgError> {
        let missing = |field: &str| {
            MapgError::invalid(format!("scenario field '{field}' missing or mistyped"))
        };
        let u64_of = |field: &str| {
            value
                .get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| missing(field))
        };
        let f64_of = |field: &str| {
            value
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| missing(field))
        };
        let bool_of = |field: &str| {
            value
                .get(field)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| missing(field))
        };
        let opt_u64_of = |field: &str| -> Result<Option<u64>, MapgError> {
            match value.get(field) {
                None => Err(missing(field)),
                Some(JsonValue::Null) => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| missing(field)),
            }
        };

        let policy_value = value.get("policy").ok_or_else(|| missing("policy"))?;
        let policy_name = policy_value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| missing("policy.name"))?;
        let policy = if policy_name == "timeout" {
            PolicyKind::Timeout {
                idle_cycles: policy_value
                    .get("idle_cycles")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| missing("policy.idle_cycles"))?,
            }
        } else {
            parse_policy_name(policy_name)
                .ok_or_else(|| MapgError::invalid(format!("unknown policy '{policy_name}'")))?
        };

        let p = value.get("profile").ok_or_else(|| missing("profile"))?;
        let pf = |field: &str| {
            p.get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| missing(field))
        };
        let pu = |field: &str| {
            p.get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| missing(field))
        };
        let phases_tag = p
            .get("phases")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| missing("profile.phases"))?;
        let idle_interval = match p.get("idle_interval_instructions") {
            Some(JsonValue::Null) | None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| missing("idle_interval_instructions"))?,
            ),
        };
        let idle_duration = match p.get("idle_duration_cycles") {
            Some(JsonValue::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| missing("idle_duration_cycles"))?),
        };
        let idle = match (idle_interval, idle_duration) {
            (Some(i), Some(d)) => Some((i, d)),
            (None, None) => None,
            _ => {
                return Err(MapgError::invalid(
                    "idle injection needs both interval and duration (or neither)",
                ))
            }
        };
        let profile = ProfileSpec {
            mem_refs_per_kilo_inst: pf("mem_refs_per_kilo_inst")?,
            working_set_bytes: pu("working_set_bytes")?,
            spatial_locality: pf("spatial_locality")?,
            hot_regions: p
                .get("hot_regions")
                .and_then(JsonValue::as_u32)
                .ok_or_else(|| missing("profile.hot_regions"))?,
            pointer_chase_fraction: pf("pointer_chase_fraction")?,
            write_fraction: pf("write_fraction")?,
            compute_ipc: pf("compute_ipc")?,
            phases: PhaseSpec::from_tag(phases_tag).ok_or_else(|| {
                MapgError::invalid(format!("unknown phase preset '{phases_tag}'"))
            })?,
            idle,
        };

        let f = value.get("faults").ok_or_else(|| missing("faults"))?;
        let ff = |field: &str| {
            f.get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| missing(field))
        };
        let fu = |field: &str| {
            f.get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| missing(field))
        };
        let faults = FaultPlan {
            slow_wake_prob: ff("slow_wake_prob")?,
            slow_wake_factor: ff("slow_wake_factor")?,
            token_drop_prob: ff("token_drop_prob")?,
            token_retry_cycles: Cycles::new(fu("token_retry_cycles")?),
            predictor_corrupt_prob: ff("predictor_corrupt_prob")?,
            brownout_prob: ff("brownout_prob")?,
            brownout_hold_cycles: Cycles::new(fu("brownout_hold_cycles")?),
            dram_spike_prob: ff("dram_spike_prob")?,
            dram_spike_cycles: Cycles::new(fu("dram_spike_cycles")?),
            dram_window_cycles: fu("dram_window_cycles")?,
        };

        let watchdog = match value.get("watchdog") {
            Some(JsonValue::Null) | None => None,
            Some(w) => {
                let wf = |field: &str| {
                    w.get(field)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| missing(field))
                };
                let wu = |field: &str| {
                    w.get(field)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| missing(field))
                };
                Some(WatchdogConfig {
                    window: wu("window")? as usize,
                    min_samples: wu("min_samples")? as usize,
                    penalty_ratio: wf("penalty_ratio")?,
                    failure_threshold: wf("failure_threshold")?,
                    backoff_base: Cycles::new(wu("backoff_base")?),
                    backoff_max: Cycles::new(wu("backoff_max")?),
                })
            }
        };

        // Repro files written while the multi-channel topology and the
        // sharded engine existed carry `channels`/`shards`. A value of 1 is
        // exactly the single shared hierarchy every run now uses, so it
        // replays unchanged; anything else described a run that can no
        // longer be reproduced and is refused rather than silently run on
        // one channel.
        for field in RETIRED_FIELDS {
            match value.get(field) {
                None | Some(JsonValue::Null) => {}
                Some(v) if v.as_u64() == Some(1) => {}
                Some(v) => {
                    return Err(MapgError::invalid(format!(
                        "scenario field '{field}' is {}, but multi-channel and \
                         sharded runs were removed; only 1 replays",
                        json::write(v)
                    )))
                }
            }
        }

        Ok(Scenario {
            cores: u64_of("cores")? as usize,
            instructions: u64_of("instructions")?,
            sim_seed: u64_of("sim_seed")?,
            policy,
            profile,
            compute_quantum: opt_u64_of("compute_quantum")?,
            tokens: opt_u64_of("tokens")?.map(|t| t as usize),
            watchdog,
            faults,
            switch_width_ratio: f64_of("switch_width_ratio")?,
            non_retentive: bool_of("non_retentive")?,
            mlp_limit: u64_of("mlp_limit")? as usize,
            mshr_entries: u64_of("mshr_entries")? as usize,
            closed_page: bool_of("closed_page")?,
            stream_prefetch: bool_of("stream_prefetch")?,
            dram_latency_scale: f64_of("dram_latency_scale")?,
            dram_banks: value
                .get("dram_banks")
                .and_then(JsonValue::as_u32)
                .ok_or_else(|| missing("dram_banks"))?,
            regate: bool_of("regate")?,
            timeline: bool_of("timeline")?,
            trace_capacity: u64_of("trace_capacity")? as usize,
        })
    }
}

/// Scenario fields from removed dimensions that older repro files carry.
const RETIRED_FIELDS: [&str; 2] = ["channels", "shards"];

fn parse_policy_name(name: &str) -> Option<PolicyKind> {
    let fixed = [
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::DvfsStall,
        PolicyKind::NaiveOnMiss,
        PolicyKind::Mapg,
        PolicyKind::MapgOracle,
        PolicyKind::MapgAlwaysGate,
        PolicyKind::MapgNoEarlyWake,
    ];
    if let Some(kind) = fixed.iter().find(|k| k.name() == name) {
        return Some(*kind);
    }
    PredictorKind::ALL
        .iter()
        .find(|p| p.policy_name() == name)
        .map(|p| PolicyKind::MapgWith { predictor: *p })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::json::{parse, write};

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(42, 7);
        let b = Scenario::generate(42, 7);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::generate(42, 8));
        assert_ne!(a, Scenario::generate(43, 7));
    }

    #[test]
    fn generated_scenarios_build_valid_configs() {
        for index in 0..200 {
            let scenario = Scenario::generate(0xF00D, index);
            scenario
                .build_config()
                .unwrap_or_else(|e| panic!("scenario {index} invalid: {e}"));
        }
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        for index in 0..100 {
            let scenario = Scenario::generate(0xBEEF, index);
            let text = write(&scenario.to_json());
            let back = Scenario::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(scenario, back, "index {index}:\n{text}");
        }
    }

    #[test]
    fn every_policy_name_round_trips() {
        for policy in POLICY_POOL {
            let scenario = Scenario {
                policy,
                ..Scenario::generate(1, 1)
            };
            let text = write(&scenario.to_json());
            let back = Scenario::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.policy, policy);
        }
    }

    fn with_retired_fields(scenario: &Scenario, channels: &str, shards: &str) -> JsonValue {
        let JsonValue::Object(mut fields) = scenario.to_json() else {
            panic!("scenario JSON is an object");
        };
        fields.insert(1, ("channels".into(), JsonValue::Number(channels.into())));
        fields.insert(2, ("shards".into(), JsonValue::Number(shards.into())));
        JsonValue::Object(fields)
    }

    /// Repro files from when channels/shards existed replay unchanged
    /// when both are 1 — the single shared hierarchy every run now uses.
    #[test]
    fn legacy_json_with_unit_retired_fields_parses() {
        let scenario = Scenario::generate(0xCAFE, 3);
        let back = Scenario::from_json(&with_retired_fields(&scenario, "1", "1")).unwrap();
        assert_eq!(back, scenario);
        let mut nulls = with_retired_fields(&scenario, "1", "1");
        if let JsonValue::Object(fields) = &mut nulls {
            fields[1].1 = JsonValue::Null;
        }
        assert_eq!(Scenario::from_json(&nulls).unwrap(), scenario);
    }

    /// A repro that needed several channels or shards cannot be replayed
    /// faithfully any more: it is refused by name, not run on one channel.
    #[test]
    fn legacy_json_with_larger_retired_fields_is_rejected() {
        let scenario = Scenario::generate(0xCAFE, 3);
        for (channels, shards, field) in [("4", "1", "channels"), ("1", "8", "shards")] {
            let err =
                Scenario::from_json(&with_retired_fields(&scenario, channels, shards)).unwrap_err();
            assert!(matches!(err, MapgError::InvalidConfig(_)), "{err:?}");
            let message = err.to_string();
            assert!(message.contains(&format!("'{field}'")), "{message}");
            assert!(message.contains("only 1 replays"), "{message}");
        }
        let zero = with_retired_fields(&scenario, "0", "1");
        assert!(Scenario::from_json(&zero).is_err());
    }

    #[test]
    fn hand_edited_out_of_range_fields_are_rejected() {
        let mut scenario = Scenario::generate(5, 5);
        scenario.switch_width_ratio = 0.5;
        assert!(scenario.build_config().is_err());
        let mut scenario = Scenario::generate(5, 5);
        scenario.profile.compute_ipc = 100.0;
        assert!(scenario.build_config().is_err());
        let mut scenario = Scenario::generate(5, 5);
        scenario.mlp_limit = 0;
        assert!(scenario.build_config().is_err());
        // Memory-side rejections flow through the hierarchy's try_validate
        // and carry the mem crate's message text.
        let mut scenario = Scenario::generate(5, 5);
        scenario.mshr_entries = 0;
        let e = scenario.build_config().unwrap_err();
        assert!(e.to_string().contains("MSHR capacity must be non-zero"));
        let mut scenario = Scenario::generate(5, 5);
        scenario.dram_banks = 0;
        let e = scenario.build_config().unwrap_err();
        assert!(e.to_string().contains("at least one bank"));
    }
}
