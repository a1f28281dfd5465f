//! The gating controller: executes policy decisions, charges energy,
//! drives the per-core FSMs, and reports resume times to the cores.

use mapg_cpu::{CoreId, StallHandler, StallInfo};
use mapg_obs::{EventKind, FaultKind, Histogram, MetricsRegistry, ObsHandle, Scope};
use mapg_power::{EnergyAccount, EnergyCategory, PgCircuitDesign, TechnologyParams};
use mapg_units::{Cycle, Cycles, Hertz, Watts};

use crate::faults::{FaultInjector, FaultPlan, FaultStats};
use crate::fsm::{GatingFsm, PgState};
use crate::invariants::{InvariantChecker, InvariantKind, InvariantReport, InvariantViolation};
use crate::policy::{GatingPolicy, PolicyContext, StallAction};
use crate::tokens::TokenManager;
use crate::watchdog::{DegradationStats, Watchdog, WatchdogConfig};

use core::fmt;

/// Gating activity counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatingStats {
    /// Stalls presented to the policy.
    pub stalls: u64,
    /// Stalls that were power-gated.
    pub gated: u64,
    /// Cycles spent in the collapsed (sleeping) state.
    pub gated_cycles: u64,
    /// Wake-up cycles that landed past data arrival (performance penalty).
    pub penalty_cycles: u64,
    /// Gated stalls whose wake finished after the data arrived.
    pub overrun_wakes: u64,
    /// Gated stalls whose wake finished before the data arrived (idle
    /// tail; energy opportunity lost, no performance cost).
    pub early_wakes: u64,
    /// Cycles of powered idling between wake completion and data arrival.
    pub idle_tail_cycles: u64,
    /// Wake-ups delayed waiting for a token.
    pub token_delayed: u64,
    /// Total cycles of token-wait delay.
    pub token_delay_cycles: u64,
    /// Re-gates: the core woke early (mis-predicted duration), found its
    /// data still far away, and went back to sleep until the response
    /// signal (nap chaining).
    pub regates: u64,
}

impl GatingStats {
    /// Fraction of stalls that were gated.
    pub fn gated_fraction(&self) -> f64 {
        if self.stalls == 0 {
            0.0
        } else {
            self.gated as f64 / self.stalls as f64
        }
    }

    /// Mean sleep residency of gated stalls, in cycles.
    pub fn mean_residency(&self) -> f64 {
        if self.gated == 0 {
            0.0
        } else {
            self.gated_cycles as f64 / self.gated as f64
        }
    }
}

impl fmt::Display for GatingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} stalls gated ({:.1}%), mean residency {:.0} cyc, {} penalty cyc",
            self.gated,
            self.stalls,
            self.gated_fraction() * 100.0,
            self.mean_residency(),
            self.penalty_cycles
        )
    }
}

/// The distributions over every sleep that a metrics run renders
/// (`gated_duration`, `wake_latency`, `bet_shortfall`).
#[derive(Debug, Clone, Default)]
struct SleepHistograms {
    gated_duration: Histogram,
    wake_latency: Histogram,
    /// How far short of break-even each sleep that missed it fell.
    bet_shortfall: Histogram,
}

impl SleepHistograms {
    fn record(&mut self, sleeping: Cycles, wake_latency: Cycles, break_even: Cycles) {
        self.gated_duration.record(sleeping.raw());
        self.wake_latency.record(wake_latency.raw());
        if sleeping < break_even {
            self.bet_shortfall.record((break_even - sleeping).raw());
        }
    }
}

/// Static controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Technology the cores are built in.
    pub tech: TechnologyParams,
    /// The power-gating circuit design point.
    pub circuit: PgCircuitDesign,
    /// Core clock (converts cycles to seconds for energy integration).
    pub clock: Hertz,
    /// Wake-token capacity; `None` disables token limiting.
    pub tokens: Option<usize>,
    /// Whether a core that woke early (mis-predicted stall duration) may
    /// re-enter sleep until the memory response arrives. Real controllers
    /// do this — the response wire is the reactive wake trigger — at the
    /// cost of one extra transition and a reactive-wake penalty.
    pub regate_on_early_wake: bool,
    /// Controller-side fault-injection schedule (no-op by default).
    pub fault_plan: FaultPlan,
    /// Seed for the fault-draw stream (domain-separated internally, so the
    /// simulation seed can be reused directly).
    pub fault_seed: u64,
    /// Safe-mode watchdog; `None` disables degradation entirely.
    pub watchdog: Option<WatchdogConfig>,
}

impl ControllerConfig {
    /// Baseline: 45 nm technology, the MAPG fast-wakeup circuit, 2 GHz,
    /// no token limiting, no faults, no watchdog.
    pub fn baseline() -> Self {
        let tech = TechnologyParams::bulk_45nm();
        ControllerConfig {
            circuit: PgCircuitDesign::fast_wakeup(&tech),
            clock: Hertz::from_ghz(2.0),
            tokens: None,
            regate_on_early_wake: true,
            fault_plan: FaultPlan::none(),
            fault_seed: 0,
            watchdog: None,
            tech,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::baseline()
    }
}

/// Executes a [`GatingPolicy`] over a run: implements
/// [`mapg_cpu::StallHandler`], so it plugs directly into a
/// [`Core`](mapg_cpu::Core) or [`Cluster`](mapg_cpu::Cluster).
///
/// The controller charges **stall-time** energy (idle / clock-gated /
/// DVFS-parked / gated-residual / transition). Active-period and DRAM
/// energy are integrated by the [`Simulation`](crate::Simulation) after the
/// run, from the core and DRAM statistics.
pub struct Controller {
    policy: Box<dyn GatingPolicy>,
    config: ControllerConfig,
    ctx: PolicyContext,
    fsms: Vec<GatingFsm>,
    tokens: Option<TokenManager>,
    energy: EnergyAccount,
    stats: GatingStats,
    /// Constructed only for non-no-op fault plans, so fault-free runs
    /// never touch the fault RNG and stay bit-identical.
    faults: Option<FaultInjector>,
    watchdog: Option<Watchdog>,
    invariants: InvariantChecker,
    /// End of the currently open brownout wake-veto window.
    brownout_until: Cycle,
    /// Last event time seen per core, for the monotonic-time invariant.
    last_event: Vec<Cycle>,
    obs: ObsHandle,
    /// Kept only when the handle says the run renders metrics.
    sleeps: Option<SleepHistograms>,
    /// Mirror of the watchdog's mode, for emitting strictly balanced
    /// safe-mode enter/exit trace events.
    safe_mode_active: bool,
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Builds a controller around a policy.
    ///
    /// # Panics
    ///
    /// Panics if the token capacity is zero or the fault plan / watchdog
    /// configuration is out of range.
    pub fn new(policy: Box<dyn GatingPolicy>, config: ControllerConfig) -> Self {
        if let Err(e) = config.fault_plan.validate() {
            panic!("{e}");
        }
        let ctx = PolicyContext {
            entry: config.circuit.entry_cycles(config.clock),
            wakeup: config.circuit.wakeup_cycles(config.clock),
            break_even: config.circuit.break_even_cycles(&config.tech, config.clock),
        };
        let faults = (!config.fault_plan.is_nop())
            .then(|| FaultInjector::new(config.fault_plan, config.fault_seed));
        let watchdog = config.watchdog.map(|wd| Watchdog::new(wd, ctx.wakeup));
        Controller {
            policy,
            ctx,
            fsms: Vec::new(),
            tokens: config.tokens.map(TokenManager::new),
            energy: EnergyAccount::new(),
            stats: GatingStats::default(),
            faults,
            watchdog,
            invariants: InvariantChecker::new(),
            brownout_until: Cycle::ZERO,
            last_event: Vec::new(),
            obs: ObsHandle::disabled(),
            sleeps: None,
            safe_mode_active: false,
            config,
        }
    }

    /// Attaches an observability handle. Gate/wake/token/safe-mode trace
    /// events flow through it from now on; if the handle has metrics on,
    /// the controller and its token manager also start keeping the
    /// per-sleep and token-wait distributions that
    /// [`Controller::record_metrics`] renders.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        let metrics = obs.metrics_enabled();
        if let Some(tokens) = self.tokens.as_mut() {
            tokens.record_waits(metrics);
        }
        self.sleeps = metrics.then(SleepHistograms::default);
        self.obs = obs;
    }

    /// Renders the controller's metrics into `metrics`, once, at the end
    /// of a run: the gate counts, each core's FSM residency (`fsm_*`),
    /// the per-sleep distributions, token grants and waits, and the
    /// watchdog's counters. A counter or histogram appears only when the
    /// run touched it; the `fsm_*` counters appear whenever any core gated.
    pub fn record_metrics(&self, metrics: &mut MetricsRegistry) {
        let sleeps = self.sleeps.as_ref();
        let tokens = self.tokens.as_ref();
        let degradation = self.degradation();
        for (name, count) in [
            ("gates", self.stats.gated),
            ("regates", self.stats.regates),
            ("bet_misses", sleeps.map_or(0, |s| s.bet_shortfall.count())),
            ("token_grants", tokens.map_or(0, TokenManager::grants)),
            ("safe_mode_trips", degradation.safe_mode_entries),
            ("safe_mode_recoveries", degradation.recoveries),
            ("demoted_gates", degradation.demoted_gates),
        ] {
            if count > 0 {
                metrics.count(name, count);
            }
        }
        for fsm in &self.fsms {
            fsm.residency().record_metrics(metrics);
        }
        for (name, histogram) in [
            ("gated_duration", sleeps.map(|s| &s.gated_duration)),
            ("wake_latency", sleeps.map(|s| &s.wake_latency)),
            ("bet_shortfall", sleeps.map(|s| &s.bet_shortfall)),
            ("token_wait", tokens.and_then(TokenManager::waits)),
        ] {
            if let Some(histogram) = histogram.filter(|h| h.count() > 0) {
                metrics.merge_histogram(name, histogram);
            }
        }
    }

    /// Emits a safe-mode enter/exit trace event when the watchdog's mode
    /// changed since the last sync. Called wherever the mode can flip
    /// (poll on stall arrival, record after a gated stall), so the global
    /// event stream stays strictly balanced and time-ordered.
    fn sync_safe_mode(&mut self, at: Cycle) {
        let active = self
            .watchdog
            .as_ref()
            .map(Watchdog::in_safe_mode)
            .unwrap_or(false);
        if active != self.safe_mode_active {
            self.safe_mode_active = active;
            let kind = if active {
                EventKind::SafeModeEnter
            } else {
                EventKind::SafeModeExit
            };
            self.obs.emit(at.raw(), Scope::Global, kind);
        }
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The circuit-derived constants the policy sees.
    pub fn context(&self) -> &PolicyContext {
        &self.ctx
    }

    /// Gating counters so far.
    pub fn stats(&self) -> &GatingStats {
        &self.stats
    }

    /// Stall-time energy charged so far.
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// The wrapped policy (for predictor-score extraction).
    pub fn policy(&self) -> &dyn GatingPolicy {
        self.policy.as_ref()
    }

    /// Token statistics, when token limiting is enabled.
    pub fn token_manager(&self) -> Option<&TokenManager> {
        self.tokens.as_ref()
    }

    /// Snapshot of the invariant-checking results so far.
    pub fn invariants(&self) -> InvariantReport {
        self.invariants.report()
    }

    /// The checker itself, so the simulation can merge end-of-run audits
    /// from subsystems the controller does not own (cores, DRAM).
    pub(crate) fn invariants_mut(&mut self) -> &mut InvariantChecker {
        &mut self.invariants
    }

    /// Safe-mode degradation statistics (all zero without a watchdog).
    pub fn degradation(&self) -> DegradationStats {
        self.watchdog
            .as_ref()
            .map(Watchdog::stats)
            .unwrap_or_default()
    }

    /// Counts of faults injected so far (all zero for a no-op plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }

    /// Closes the FSM books at the end of a run (per-core residencies are
    /// only complete after this) and runs the end-of-run conservation
    /// audits into the invariant report.
    pub fn finish(&mut self, final_times: &[Cycle]) {
        let cores = self.fsms.len().min(final_times.len());
        for (core, &at) in final_times.iter().enumerate().take(cores) {
            let result = self.fsms[core].try_finish(at);
            self.note_fsm(result, core, at);
        }
        // Close an open safe-mode span at the end of the run so the trace
        // stays strictly balanced even when the backoff outlives the run.
        if self.safe_mode_active {
            let end = final_times.iter().copied().max().unwrap_or(Cycle::ZERO);
            self.safe_mode_active = false;
            self.obs
                .emit(end.raw(), Scope::Global, EventKind::SafeModeExit);
        }
        self.audit_books();
    }

    /// End-of-run conservation laws: residency ↔ stats, energy ledger ↔
    /// residency × power, token ledger self-consistency.
    fn audit_books(&mut self) {
        // Sleeping residency across all cores must equal the gated-cycle
        // counter: they are two independent integrations of the same time.
        let sleeping: u64 = self
            .fsms
            .iter()
            .map(|fsm| fsm.residency().sleeping.raw())
            .sum();
        let gated = self.stats.gated_cycles;
        self.invariants.check(
            sleeping == gated,
            InvariantKind::Accounting,
            None,
            None,
            || format!("sleeping residency {sleeping} != gated cycles {gated}"),
        );

        // Gated-residual energy must be exactly gated power × sleep time.
        let clock = self.config.clock;
        let gated_power = self.config.circuit.gated_power(&self.config.tech);
        let expected = (gated_power * Cycles::new(gated).at(clock)).as_joules();
        let actual = self.energy.get(EnergyCategory::GatedResidual).as_joules();
        let slack = expected.abs().max(1e-12) * 1e-9;
        self.invariants.check(
            (actual - expected).abs() <= slack,
            InvariantKind::EnergyLedger,
            None,
            None,
            || {
                format!(
                    "gated-residual energy {actual} J != gated power × \
                     residency {expected} J"
                )
            },
        );

        // Transition energy must be the per-event charge times the number
        // of sleep entries (primary gates + nap re-gates).
        let transitions = self.stats.gated + self.stats.regates;
        let expected = self.config.circuit.transition_energy().as_joules() * transitions as f64;
        let actual = self.energy.get(EnergyCategory::Transition).as_joules();
        let slack = expected.abs().max(1e-12) * 1e-9;
        self.invariants.check(
            (actual - expected).abs() <= slack,
            InvariantKind::EnergyLedger,
            None,
            None,
            || {
                format!(
                    "transition energy {actual} J != {transitions} \
                     transitions × per-event charge ({expected} J)"
                )
            },
        );

        // Every bucket finite, non-negative, and summing to the total.
        let problems = self.energy.audit();
        if problems.is_empty() {
            self.invariants.count_check();
        }
        for detail in problems {
            self.invariants.record(InvariantViolation {
                kind: InvariantKind::EnergyLedger,
                core: None,
                at: None,
                detail,
            });
        }

        // Token conservation.
        if let Some(tokens) = &self.tokens {
            let problems = tokens.audit();
            if problems.is_empty() {
                self.invariants.count_check();
            }
            for detail in problems {
                self.invariants.record(InvariantViolation {
                    kind: InvariantKind::TokenLedger,
                    core: None,
                    at: None,
                    detail,
                });
            }
        }
    }

    /// Folds one FSM `try_*` outcome into the invariant report.
    fn note_fsm(&mut self, result: Result<(), String>, core: usize, at: Cycle) {
        match result {
            Ok(()) => self.invariants.count_check(),
            Err(detail) => {
                let kind = if detail.contains("time regression") {
                    InvariantKind::MonotonicTime
                } else {
                    InvariantKind::FsmTransition
                };
                self.invariants.record(InvariantViolation {
                    kind,
                    core: Some(core),
                    at: Some(at.raw()),
                    detail,
                });
            }
        }
    }

    /// Per-core FSMs (residency reporting).
    pub fn fsms(&self) -> &[GatingFsm] {
        &self.fsms
    }

    /// Charges `power` sustained over `span` cycles to `category`.
    fn charge(&mut self, category: EnergyCategory, power: Watts, span: Cycles) {
        self.energy
            .add(category, power * span.at(self.config.clock));
    }

    fn fsm_mut(&mut self, core: usize) -> &mut GatingFsm {
        while self.fsms.len() <= core {
            self.fsms.push(GatingFsm::new());
        }
        &mut self.fsms[core]
    }

    /// Idle (stalled but powered and clocked) power.
    fn idle_power(&self) -> Watts {
        self.config.tech.idle_dynamic_power() + self.config.tech.leakage_power()
    }
}

impl StallHandler for Controller {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        self.stats.stalls += 1;
        let natural = info.natural_duration();
        let core = info.core.0;

        // Invariant: each core's stalls arrive in non-decreasing time.
        while self.last_event.len() <= core {
            self.last_event.push(Cycle::ZERO);
        }
        let last = self.last_event[core];
        self.invariants.check(
            info.start >= last,
            InvariantKind::MonotonicTime,
            Some(core),
            Some(info.start.raw()),
            || format!("stall starts at {} before prior event {last}", info.start),
        );

        // Safe mode: the watchdog may have re-armed since the last stall,
        // or may currently be holding the controller degraded.
        let safe_mode = match self.watchdog.as_mut() {
            Some(watchdog) => watchdog.poll(info.start),
            None => false,
        };
        self.sync_safe_mode(info.start);

        let mut action = self.policy.decide(info, &self.ctx);
        if safe_mode {
            if let StallAction::PowerGate { .. } = action {
                // Degrade to clock gating: no wake ramp, no transition
                // energy, no rush current — always safe, never optimal.
                if let Some(watchdog) = self.watchdog.as_mut() {
                    watchdog.note_demotion(natural);
                }
                action = StallAction::ClockGate;
            }
        }

        let resume = match action {
            StallAction::StayActive => {
                self.charge(EnergyCategory::IdleStall, self.idle_power(), natural);
                info.data_ready
            }
            StallAction::ClockGate => {
                self.charge(
                    EnergyCategory::IdleStall,
                    self.config.tech.leakage_power(),
                    natural,
                );
                info.data_ready
            }
            StallAction::DvfsScale { point } => {
                self.charge(
                    EnergyCategory::IdleStall,
                    point.idle_power(&self.config.tech),
                    natural,
                );
                info.data_ready
            }
            StallAction::PowerGate { gate_at, wake_at } => {
                self.execute_gate(info, gate_at, wake_at)
            }
        };

        // Invariant: a core never resumes before its data arrives.
        self.invariants.check(
            resume >= info.data_ready,
            InvariantKind::ResumeBeforeData,
            Some(core),
            Some(resume.raw()),
            || format!("resumed at {resume} before data at {}", info.data_ready),
        );
        self.last_event[core] = self.last_event[core].max(resume);

        // The watchdog may have tripped while recording this gated stall.
        self.sync_safe_mode(resume);

        // The predictor trains on the observed stall duration; a corrupted
        // sensor sample poisons it without touching the ground truth.
        let observed = match self.faults.as_mut() {
            Some(faults) => faults.observed_latency(natural),
            None => natural,
        };
        if observed != natural {
            self.obs.emit(
                resume.raw(),
                Scope::Core(core as u32),
                EventKind::FaultInjected(FaultKind::SensorNoise),
            );
        }
        self.policy.observe(info, observed);
        resume
    }
}

/// A wake ramp opened by [`Controller::open_wake`]: when it starts, how
/// long it takes, and whether a wake-path fault fired while opening it.
struct Wake {
    start: Cycle,
    latency: Cycles,
    faulted: bool,
}

impl Controller {
    /// Executes a power-gate decision; returns the resume time.
    fn execute_gate(&mut self, info: &StallInfo, gate_at: Cycle, wake_at: Cycle) -> Cycle {
        let entry = self.ctx.entry;
        let leak = self.config.tech.leakage_power();
        let gate_at = gate_at.max(info.start);
        let entry_done = gate_at + entry;
        // The wake ramp begins at the scheduled time or when the memory
        // response arrives, whichever is first: the data-return signal is
        // observable by the PG controller and always triggers a (reactive)
        // wake, so an over-predicted schedule degrades to the reactive
        // wake penalty instead of sleeping past the data. It also cannot
        // begin before sleep entry completes.
        let wake = self.open_wake(
            info.core,
            entry_done,
            wake_at.min(info.data_ready).max(entry_done),
        );
        // This wake's inrush may itself brown the rail out, vetoing
        // concurrent wake-ups for the hold window.
        if let Some(faults) = self.faults.as_mut() {
            if let Some(hold) = faults.brownout() {
                self.brownout_until = self.brownout_until.max(wake.start + hold);
                self.obs.emit(
                    wake.start.raw(),
                    Scope::Core(info.core.0 as u32),
                    EventKind::FaultInjected(FaultKind::Brownout),
                );
            }
        }
        // Wait before gating (timeout policies): clock-gated, leakage only.
        self.charge(
            EnergyCategory::IdleStall,
            leak,
            gate_at.saturating_since(info.start),
        );
        self.stats.gated += 1;
        let mut wake_failed = wake.faulted;
        let wake_done = self.close_sleep(info.core, gate_at, entry_done, &wake);

        // --- nap chaining -------------------------------------------------
        // The core woke early (under-predicted stall) and the data is still
        // more than a break-even away: re-enter sleep and let the response
        // signal wake it reactively. One re-gate always suffices — the
        // second nap ends at the response.
        let mut last_wake_done = wake_done;
        let regate_threshold = self.ctx.break_even + self.ctx.wakeup;
        if self.config.regate_on_early_wake
            && info.data_ready.saturating_since(wake_done) > regate_threshold
        {
            let nap_entry_done = wake_done + entry;
            // The nap's reactive wake draws the same inrush as any other:
            // it must hold a token too, which may delay it past the
            // response (more penalty, but the di/dt bound stays honest).
            // Unlike the primary wake it never rolls a brownout of its own.
            // That asymmetry is kept on purpose — rolling one here would
            // move R-F16 — and is a metamorphic-check candidate.
            let nap = self.open_wake(info.core, nap_entry_done, info.data_ready);
            self.stats.regates += 1;
            wake_failed |= nap.faulted;
            last_wake_done = self.close_sleep(info.core, wake_done, nap_entry_done, &nap);
        }

        // --- tail / penalty accounting ------------------------------------
        // Non-retentive designs refill pipeline state after restart; the
        // refill delays useful execution past both wake and data arrival.
        let cold_start = self.config.circuit.cold_start_cycles(self.config.clock);
        let resume = last_wake_done.max(info.data_ready) + cold_start;
        if last_wake_done < info.data_ready {
            // Clock-gated idle tail: the PG controller knows the response
            // is still outstanding, so the re-powered core waits with
            // clocks held — leakage only.
            let tail = info.data_ready - last_wake_done;
            self.charge(EnergyCategory::IdleStall, leak, tail);
            self.stats.early_wakes += 1;
            self.stats.idle_tail_cycles += tail.raw();
        } else if last_wake_done > info.data_ready {
            self.stats.overrun_wakes += 1;
        }
        // Anything past data arrival — late wake and/or cold start — is a
        // critical-path penalty; the cold-start window burns idle power
        // (the core executes refill work).
        let penalty = resume.saturating_since(info.data_ready);
        self.stats.penalty_cycles += penalty.raw();
        self.charge(EnergyCategory::IdleStall, self.idle_power(), cold_start);

        // Feed the watchdog one gated-stall outcome: how late the wake
        // landed, and whether any wake-path fault fired on this stall.
        if let Some(watchdog) = self.watchdog.as_mut() {
            watchdog.record(resume, penalty, wake_failed);
        }

        resume
    }

    /// Enters sleep at `entry_done` and opens its wake, requested at
    /// `request`: draws the ramp's stuck-slow latency, holds the ramp
    /// behind an open brownout window, and acquires a wake token, retrying
    /// once after a grant dropped in flight.
    fn open_wake(&mut self, core: CoreId, entry_done: Cycle, request: Cycle) -> Wake {
        let scope = Scope::Core(core.0 as u32);
        self.obs
            .emit(entry_done.raw(), scope, EventKind::SleepEnter);
        let nominal = self.ctx.wakeup;
        // A stuck-slow sleep switch inflates this ramp's wake latency.
        let latency = match self.faults.as_mut() {
            Some(faults) => faults.wake_latency(nominal),
            None => nominal,
        };
        let mut faulted = latency > nominal;
        let mut start = request;
        // An open brownout window vetoes wake ramps until it closes.
        if start < self.brownout_until {
            self.obs.emit(
                start.raw(),
                scope,
                EventKind::FaultInjected(FaultKind::BrownoutVeto),
            );
            start = self.brownout_until;
            if let Some(faults) = self.faults.as_mut() {
                faults.note_brownout_delay();
            }
            faulted = true;
        }
        // Token limiting may delay it further; a grant dropped in flight
        // forces a re-request after the retry latency.
        if let Some(tokens) = &mut self.tokens {
            let mut granted = tokens.acquire(start, latency);
            if let Some(faults) = self.faults.as_mut() {
                if faults.drop_token_grant() {
                    self.obs.emit(
                        start.raw(),
                        scope,
                        EventKind::FaultInjected(FaultKind::TokenDrop),
                    );
                    granted = tokens.acquire(granted + faults.token_retry(), latency);
                    faulted = true;
                }
            }
            if granted > start {
                self.obs.emit(start.raw(), scope, EventKind::TokenDeny);
                self.stats.token_delayed += 1;
                self.stats.token_delay_cycles += (granted - start).raw();
            }
            self.obs.emit(granted.raw(), scope, EventKind::TokenGrant);
            start = granted;
        }
        Wake {
            start,
            latency,
            faulted,
        }
    }

    /// Closes one sleep that began its entry ramp at `gate_at`: emits the
    /// wake, charges the ramps, the gated residual and the transition,
    /// records the sleep's distributions, and drives the core's FSM. Returns
    /// when the wake completes.
    fn close_sleep(
        &mut self,
        core: CoreId,
        gate_at: Cycle,
        entry_done: Cycle,
        wake: &Wake,
    ) -> Cycle {
        let scope = Scope::Core(core.0 as u32);
        let wake_done = wake.start + wake.latency;
        if wake.latency > self.ctx.wakeup {
            self.obs.emit(
                wake.start.raw(),
                scope,
                EventKind::FaultInjected(FaultKind::SlowWake),
            );
        }
        self.obs.emit(wake.start.raw(), scope, EventKind::SleepExit);
        self.obs.emit(wake.start.raw(), scope, EventKind::WakeStart);
        self.obs.emit(wake_done.raw(), scope, EventKind::WakeDone);

        // Entry and wake ramps: rail is partially up; charge full leakage
        // (conservative) — the CV² charge itself is in the transition term.
        let leak = self.config.tech.leakage_power();
        self.charge(EnergyCategory::IdleStall, leak, self.ctx.entry);
        self.charge(EnergyCategory::IdleStall, leak, wake.latency);
        let sleeping = wake.start.saturating_since(entry_done);
        let gated_power = self.config.circuit.gated_power(&self.config.tech);
        self.charge(EnergyCategory::GatedResidual, gated_power, sleeping);
        self.energy.add(
            EnergyCategory::Transition,
            self.config.circuit.transition_energy(),
        );
        self.stats.gated_cycles += sleeping.raw();
        if let Some(sleeps) = &mut self.sleeps {
            sleeps.record(sleeping, wake.latency, self.ctx.break_even);
        }
        self.record_pg_cycle(core, gate_at, entry_done, wake.start, wake_done);
        wake_done
    }

    /// Drives one complete entry → sleep → wake cycle through the core's
    /// FSM, whose residency is the run's per-state record of the sleep.
    /// FSM errors become recorded invariant violations — faulty
    /// environments must never panic a release sweep.
    fn record_pg_cycle(
        &mut self,
        core: CoreId,
        gate_at: Cycle,
        entry_done: Cycle,
        wake_start: Cycle,
        wake_done: Cycle,
    ) {
        self.fsm_mut(core.0);
        let steps = [
            (gate_at, PgState::Entering),
            (entry_done, PgState::Sleeping),
            (wake_start, PgState::Waking),
            (wake_done, PgState::Active),
        ];
        for (at, next) in steps {
            let fsm = &mut self.fsms[core.0];
            let result = match next {
                PgState::Entering => fsm.try_begin_entry(at),
                PgState::Sleeping => fsm.try_begin_sleep(at),
                PgState::Waking => fsm.try_begin_wake(at),
                PgState::Active => fsm.try_complete_wake(at),
            };
            self.note_fsm(result, core.0, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MapgPolicy, NaiveOnMiss, NoGating, PolicyKind};
    use mapg_cpu::StallCause;

    fn stall(duration: u64) -> StallInfo {
        StallInfo {
            core: CoreId(0),
            start: Cycle::new(10_000),
            data_ready: Cycle::new(10_000 + duration),
            pc: 0x400,
            outstanding: 1,
            cause: StallCause::Dependency,
        }
    }

    #[test]
    fn context_is_circuit_derived() {
        let config = ControllerConfig::baseline();
        let controller = Controller::new(Box::new(NoGating), config);
        let ctx = controller.context();
        assert_eq!(ctx.entry, config.circuit.entry_cycles(config.clock));
        assert_eq!(ctx.wakeup, config.circuit.wakeup_cycles(config.clock));
        assert!(ctx.break_even > Cycles::ZERO);
    }

    #[test]
    fn passive_policy_charges_idle_energy() {
        let mut controller = Controller::new(Box::new(NoGating), ControllerConfig::baseline());
        let info = stall(200);
        let resume = controller.on_stall(&info);
        assert_eq!(resume, info.data_ready);
        assert!(
            controller
                .energy()
                .get(EnergyCategory::IdleStall)
                .as_joules()
                > 0.0
        );
        assert_eq!(controller.stats().gated, 0);
        assert_eq!(controller.stats().stalls, 1);
    }

    #[test]
    fn naive_gate_pays_wake_penalty() {
        let config = ControllerConfig::baseline();
        let mut controller = Controller::new(Box::new(NaiveOnMiss), config);
        let info = stall(300);
        let resume = controller.on_stall(&info);
        let wakeup = config.circuit.wakeup_cycles(config.clock);
        assert_eq!(resume, info.data_ready + wakeup);
        assert_eq!(controller.stats().gated, 1);
        assert_eq!(controller.stats().penalty_cycles, wakeup.raw());
        assert!(
            controller
                .energy()
                .get(EnergyCategory::GatedResidual)
                .as_joules()
                > 0.0
        );
        assert!(
            controller
                .energy()
                .get(EnergyCategory::Transition)
                .as_joules()
                > 0.0
        );
    }

    #[test]
    fn oracle_gate_has_zero_penalty() {
        let mut controller =
            Controller::new(Box::new(MapgPolicy::oracle()), ControllerConfig::baseline());
        let info = stall(400);
        let resume = controller.on_stall(&info);
        assert_eq!(resume, info.data_ready, "oracle hides the wake entirely");
        assert_eq!(controller.stats().penalty_cycles, 0);
        assert_eq!(controller.stats().gated, 1);
    }

    #[test]
    fn oracle_skips_below_break_even() {
        let mut controller =
            Controller::new(Box::new(MapgPolicy::oracle()), ControllerConfig::baseline());
        let short = stall(5);
        let resume = controller.on_stall(&short);
        assert_eq!(resume, short.data_ready);
        assert_eq!(controller.stats().gated, 0);
    }

    #[test]
    fn gated_energy_beats_idle_energy_on_long_stalls() {
        let config = ControllerConfig::baseline();
        let long = stall(2_000);

        let mut idle_ctl = Controller::new(Box::new(NoGating), config);
        idle_ctl.on_stall(&long);
        let idle_energy = idle_ctl.energy().total();

        let mut gate_ctl = Controller::new(Box::new(MapgPolicy::oracle()), config);
        gate_ctl.on_stall(&long);
        let gate_energy = gate_ctl.energy().total();

        assert!(
            gate_energy < idle_energy,
            "gating a 2000-cycle stall must win: {gate_energy:?} !< {idle_energy:?}"
        );
    }

    #[test]
    fn token_limit_delays_second_simultaneous_wake() {
        let config = ControllerConfig {
            tokens: Some(1),
            ..ControllerConfig::baseline()
        };
        let mut controller = Controller::new(Box::new(MapgPolicy::oracle()), config);
        // Two cores stall with identical timing: their wake ramps collide.
        let a = StallInfo {
            core: CoreId(0),
            ..stall(400)
        };
        let b = StallInfo {
            core: CoreId(1),
            ..stall(400)
        };
        let resume_a = controller.on_stall(&a);
        let resume_b = controller.on_stall(&b);
        assert_eq!(resume_a, a.data_ready);
        assert!(
            resume_b > b.data_ready,
            "second wake must wait for the token"
        );
        assert_eq!(controller.stats().token_delayed, 1);
        assert!(controller.stats().token_delay_cycles > 0);
    }

    #[test]
    fn fsm_residencies_match_stats() {
        let config = ControllerConfig::baseline();
        let mut controller = Controller::new(Box::new(MapgPolicy::oracle()), config);
        let info = stall(500);
        let resume = controller.on_stall(&info);
        controller.finish(&[resume]);
        let fsm = &controller.fsms()[0];
        assert_eq!(fsm.sleep_count(), 1);
        assert_eq!(
            fsm.residency().sleeping.raw(),
            controller.stats().gated_cycles
        );
    }

    #[test]
    fn underpredicted_long_stall_regates() {
        use crate::predictor::StaticPredictor;
        // A static 200-cycle prediction on a 5000-cycle stall: the core
        // wakes at ~start+200, finds the data 4800 cycles away, and must
        // nap again until the response.
        let policy =
            MapgPolicy::with_predictor(StaticPredictor::new(Cycles::new(200)), "static-test");
        let config = ControllerConfig::baseline();
        let mut controller = Controller::new(Box::new(policy), config);
        let info = stall(5_000);
        let resume = controller.on_stall(&info);
        assert_eq!(controller.stats().regates, 1);
        // Reactive wake from the nap: resume = data + wakeup.
        let wakeup = config.circuit.wakeup_cycles(config.clock);
        assert_eq!(resume, info.data_ready + wakeup);
        // Both sleep spans count as gated time; only the ramps and the
        // short awake gap are lost.
        assert!(
            controller.stats().gated_cycles > 4_500,
            "gated {} of a 5000-cycle stall",
            controller.stats().gated_cycles
        );
        assert_eq!(controller.stats().early_wakes, 0, "tail was re-gated");
    }

    #[test]
    fn regate_can_be_disabled() {
        use crate::predictor::StaticPredictor;
        let policy =
            MapgPolicy::with_predictor(StaticPredictor::new(Cycles::new(200)), "static-test");
        let config = ControllerConfig {
            regate_on_early_wake: false,
            ..ControllerConfig::baseline()
        };
        let mut controller = Controller::new(Box::new(policy), config);
        let info = stall(5_000);
        let resume = controller.on_stall(&info);
        assert_eq!(controller.stats().regates, 0);
        assert_eq!(resume, info.data_ready, "early wake, clock-gated tail");
        assert_eq!(controller.stats().early_wakes, 1);
        assert!(controller.stats().idle_tail_cycles > 4_000);
    }

    #[test]
    fn stats_display() {
        let stats = GatingStats {
            stalls: 10,
            gated: 5,
            gated_cycles: 1000,
            ..GatingStats::default()
        };
        assert!((stats.gated_fraction() - 0.5).abs() < 1e-12);
        assert!((stats.mean_residency() - 200.0).abs() < 1e-12);
        assert!(stats.to_string().contains("5/10"));
    }

    #[test]
    fn finish_leaves_normal_runs_invariant_clean() {
        let mut controller =
            Controller::new(Box::new(MapgPolicy::oracle()), ControllerConfig::baseline());
        let info = stall(500);
        let resume = controller.on_stall(&info);
        controller.finish(&[resume]);
        let report = controller.invariants();
        assert!(report.is_clean(), "{report}");
        assert!(report.checks > 0);
    }

    #[test]
    fn slow_wake_fault_delays_resume() {
        let config = ControllerConfig {
            fault_plan: FaultPlan {
                slow_wake_prob: 1.0,
                slow_wake_factor: 10.0,
                ..FaultPlan::none()
            },
            ..ControllerConfig::baseline()
        };
        let mut faulty = Controller::new(Box::new(NaiveOnMiss), config);
        let mut clean = Controller::new(Box::new(NaiveOnMiss), ControllerConfig::baseline());
        let info = stall(300);
        let faulty_resume = faulty.on_stall(&info);
        let clean_resume = clean.on_stall(&info);
        assert!(
            faulty_resume > clean_resume,
            "a 10× wake ramp must land later: {faulty_resume} !> {clean_resume}"
        );
        assert_eq!(faulty.fault_stats().slow_wakes, 1);
        assert_eq!(clean.fault_stats().slow_wakes, 0);
    }

    #[test]
    fn brownout_window_vetoes_the_next_wake() {
        let config = ControllerConfig {
            fault_plan: FaultPlan {
                brownout_prob: 1.0,
                brownout_hold_cycles: Cycles::new(5_000),
                ..FaultPlan::none()
            },
            ..ControllerConfig::baseline()
        };
        let mut controller = Controller::new(Box::new(MapgPolicy::oracle()), config);
        // First gated stall opens a veto window over its wake...
        let a = stall(400);
        controller.on_stall(&a);
        // ...which delays the second core's overlapping wake.
        let b = StallInfo {
            core: CoreId(1),
            ..stall(400)
        };
        let resume_b = controller.on_stall(&b);
        assert!(
            resume_b > b.data_ready,
            "vetoed wake must miss the data: {resume_b}"
        );
        let stats = controller.fault_stats();
        assert!(stats.brownouts >= 1, "{stats}");
        assert_eq!(stats.brownout_delayed_wakes, 1, "{stats}");
    }

    #[test]
    fn watchdog_demotes_gating_in_safe_mode() {
        let watchdog = WatchdogConfig {
            window: 8,
            min_samples: 4,
            penalty_ratio: 1.0,
            failure_threshold: 0.5,
            backoff_base: Cycles::new(1_000_000),
            backoff_max: Cycles::new(1_000_000),
        };
        let config = ControllerConfig {
            fault_plan: FaultPlan {
                slow_wake_prob: 1.0,
                slow_wake_factor: 20.0,
                ..FaultPlan::none()
            },
            watchdog: Some(watchdog),
            ..ControllerConfig::baseline()
        };
        let mut controller = Controller::new(Box::new(NaiveOnMiss), config);
        let gated_stall = |start: u64| StallInfo {
            start: Cycle::new(start),
            data_ready: Cycle::new(start + 300),
            ..stall(300)
        };
        // Every wake is 20× slow: each gated stall records a penalty far
        // past the 1× threshold, so the fourth sample trips the watchdog.
        let mut start = 10_000u64;
        for _ in 0..4 {
            controller.on_stall(&gated_stall(start));
            start += 10_000;
        }
        assert_eq!(controller.degradation().safe_mode_entries, 1);
        let gated_before = controller.stats().gated;
        let resume = controller.on_stall(&gated_stall(start));
        assert_eq!(
            controller.stats().gated,
            gated_before,
            "safe mode must demote the power gate"
        );
        assert_eq!(controller.degradation().demoted_gates, 1);
        assert_eq!(
            resume,
            Cycle::new(start + 300),
            "clock gating resumes exactly at data arrival"
        );
    }

    #[test]
    fn every_comparison_policy_runs_through_controller() {
        for kind in PolicyKind::COMPARISON_SET {
            let mut controller = Controller::new(kind.instantiate(), ControllerConfig::baseline());
            let info = stall(300);
            let resume = controller.on_stall(&info);
            assert!(
                resume >= info.data_ready,
                "{}: resumed before data",
                kind.name()
            );
            assert_eq!(controller.policy_name(), kind.name());
        }
    }
}
