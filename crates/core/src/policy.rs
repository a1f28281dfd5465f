//! Gating policies: what to do with a memory stall.
//!
//! A policy sees each stall at its onset and picks a [`StallAction`]. The
//! [`Controller`](crate::Controller) executes the action, charges the
//! energy, and reports the resume time back to the core. The policy zoo:
//!
//! | policy | action on stall | wake scheduling | what it represents |
//! |---|---|---|---|
//! | [`NoGating`] | stay active | — | no power management |
//! | [`ClockGating`] | stop clocks | — | conventional fine-grain clock gating |
//! | [`DvfsStall`] | scale V/f down | — | DVFS-during-stall baseline |
//! | [`NaiveOnMiss`] | gate every stall | reactive (starts at data arrival) | gating without MAPG's machinery |
//! | [`TimeoutGating`] | gate after idle timeout | reactive | classic idle-driven power gating |
//! | [`MapgPolicy`] (oracle) | gate iff `actual ≥ BET` | early (hidden under miss) | upper bound |
//! | [`MapgPolicy`] (predictive) | gate iff `predicted ≥ BET` | early, from prediction | **the paper's policy** |

use mapg_cpu::StallInfo;
use mapg_power::OperatingPoint;
use mapg_units::{Cycle, Cycles};

use crate::predictor::{
    EwmaPredictor, HistoryTablePredictor, LastValuePredictor, MissLatencyPredictor,
    OraclePredictor, PredictorScore, StaticPredictor,
};

/// Circuit-derived constants the controller hands every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyContext {
    /// Sleep-entry latency.
    pub entry: Cycles,
    /// Wake-up latency.
    pub wakeup: Cycles,
    /// Break-even time of the configured circuit.
    pub break_even: Cycles,
}

/// What to do with one stall.
#[derive(Debug, Clone, PartialEq)]
pub enum StallAction {
    /// Burn idle power (clock tree + leakage) until the data arrives.
    StayActive,
    /// Stop the clocks: leakage only until the data arrives.
    ClockGate,
    /// Drop to a DVFS operating point for the duration of the stall.
    DvfsScale {
        /// The point to park at.
        point: OperatingPoint,
    },
    /// Power-gate the core.
    PowerGate {
        /// When to begin sleep entry (`>= stall start`; a timeout policy
        /// gates late).
        gate_at: Cycle,
        /// When to begin the wake ramp. The controller clamps this to the
        /// end of sleep entry and may delay it further for a wake token.
        wake_at: Cycle,
    },
}

/// A gating policy. See the table in the module-level documentation for
/// the policy zoo.
///
/// The controller guarantees `decide` and `observe` are called in strict
/// alternation for each stall (stalls resolve synchronously), so policies
/// may carry per-stall scratch state between the two calls.
pub trait GatingPolicy {
    /// Chooses an action for the stall described by `info`.
    fn decide(&mut self, info: &StallInfo, ctx: &PolicyContext) -> StallAction;

    /// Learns from the completed stall's actual duration.
    fn observe(&mut self, _info: &StallInfo, _actual: Cycles) {}

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Prediction-accuracy bookkeeping, for predictive policies.
    fn predictor_score(&self) -> Option<&PredictorScore> {
        None
    }
}

/// No power management at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGating;

impl GatingPolicy for NoGating {
    fn decide(&mut self, _info: &StallInfo, _ctx: &PolicyContext) -> StallAction {
        StallAction::StayActive
    }

    fn name(&self) -> &'static str {
        "no-gating"
    }
}

/// Clock gating during every stall: removes idle dynamic power, keeps
/// leakage. Zero latency, zero risk — the reference conventional technique.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockGating;

impl GatingPolicy for ClockGating {
    fn decide(&mut self, _info: &StallInfo, _ctx: &PolicyContext) -> StallAction {
        StallAction::ClockGate
    }

    fn name(&self) -> &'static str {
        "clock-gating"
    }
}

/// DVFS to the floor point during every stall. Idealized in the policy's
/// favour: the V/f transition itself is modelled as free, which real PLL
/// relock times (microseconds) would never allow at stall granularity.
/// Even so it keeps paying `V³`-scaled leakage.
#[derive(Debug, Clone)]
pub struct DvfsStall {
    point: OperatingPoint,
}

impl DvfsStall {
    /// Parks at the given operating point during stalls.
    pub fn new(point: OperatingPoint) -> Self {
        DvfsStall { point }
    }
}

impl Default for DvfsStall {
    fn default() -> Self {
        DvfsStall::new(OperatingPoint::min())
    }
}

impl GatingPolicy for DvfsStall {
    fn decide(&mut self, _info: &StallInfo, _ctx: &PolicyContext) -> StallAction {
        StallAction::DvfsScale {
            point: self.point.clone(),
        }
    }

    fn name(&self) -> &'static str {
        "dvfs-stall"
    }
}

/// Gate on every stall, wake reactively when the data arrives. Pays the
/// full wake latency as a performance penalty on every gated stall and
/// loses energy on short stalls — the strawman MAPG improves on.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveOnMiss;

impl GatingPolicy for NaiveOnMiss {
    fn decide(&mut self, info: &StallInfo, _ctx: &PolicyContext) -> StallAction {
        StallAction::PowerGate {
            gate_at: info.start,
            wake_at: info.data_ready,
        }
    }

    fn name(&self) -> &'static str {
        "naive-on-miss"
    }
}

/// Classic idle-timeout gating: gate only once the core has been idle for
/// `timeout` cycles, wake reactively.
///
/// Implementation note: with the synchronous stall model the policy *knows*
/// `data_ready`; it uses it solely to evaluate whether the timeout would
/// have expired before the data returned — i.e. to faithfully emulate the
/// timeout hardware, not to predict.
#[derive(Debug, Clone, Copy)]
pub struct TimeoutGating {
    timeout: Cycles,
}

impl TimeoutGating {
    /// Creates the policy with the given idle threshold.
    pub fn new(timeout: Cycles) -> Self {
        TimeoutGating { timeout }
    }
}

impl GatingPolicy for TimeoutGating {
    fn decide(&mut self, info: &StallInfo, _ctx: &PolicyContext) -> StallAction {
        let gate_at = info.start + self.timeout;
        if gate_at >= info.data_ready {
            // The data would arrive before the timeout fires: never gates.
            // The idle wait itself is clock-gated, as in any contemporary
            // core.
            StallAction::ClockGate
        } else {
            StallAction::PowerGate {
                gate_at,
                wake_at: info.data_ready,
            }
        }
    }

    fn name(&self) -> &'static str {
        "timeout"
    }
}

/// The MAPG policy, generic over its predictor.
///
/// On each stall:
/// 1. predict the stall duration `d̂`;
/// 2. gate iff `d̂ ≥ guard · BET` (the guard margin biases against gating
///    marginal stalls, where a mis-prediction costs energy *and* time);
/// 3. if gating and early wake is enabled, schedule the wake ramp to end
///    exactly at the predicted data arrival (`wake_at = start + d̂ −
///    T_wake`), hiding the wake latency under the memory latency.
///
/// With [`OraclePredictor`] this is the paper's oracle variant; with
/// [`HistoryTablePredictor`] it is the deployable policy.
#[derive(Debug)]
pub struct MapgPolicy<P> {
    predictor: P,
    score: PredictorScore,
    guard: f64,
    early_wake: bool,
    name: &'static str,
    /// Prediction made in `decide`, consumed by the matching `observe`.
    pending_prediction: Option<Cycles>,
}

impl MapgPolicy<HistoryTablePredictor> {
    /// The deployable MAPG configuration: PC-indexed history predictor,
    /// unity guard, early wake on.
    pub fn predictive() -> Self {
        MapgPolicy::with_predictor(HistoryTablePredictor::hardware_default(), "mapg")
    }

    /// Ablation: prediction and break-even guard disabled — gate every
    /// stall but keep early-wake scheduling (from the predictor's
    /// estimate).
    pub fn always_gate() -> Self {
        let mut policy = MapgPolicy::with_predictor(
            HistoryTablePredictor::hardware_default(),
            "mapg-always-gate",
        );
        policy.guard = 0.0;
        policy
    }

    /// Ablation: break-even guard kept, early wake disabled (reactive
    /// wake at data arrival).
    pub fn no_early_wake() -> Self {
        let mut policy = MapgPolicy::with_predictor(
            HistoryTablePredictor::hardware_default(),
            "mapg-no-early-wake",
        );
        policy.early_wake = false;
        policy
    }
}

impl MapgPolicy<OraclePredictor> {
    /// The oracle variant: perfect duration knowledge, perfect wake timing.
    pub fn oracle() -> Self {
        MapgPolicy::with_predictor(OraclePredictor, "mapg-oracle")
    }
}

impl<P: MissLatencyPredictor> MapgPolicy<P> {
    /// Builds the policy around an arbitrary predictor.
    pub fn with_predictor(predictor: P, name: &'static str) -> Self {
        MapgPolicy {
            predictor,
            score: PredictorScore::new(),
            guard: 1.0,
            early_wake: true,
            name,
            pending_prediction: None,
        }
    }

    /// Sets the break-even guard multiplier (default 1.0). Values above 1
    /// gate more conservatively.
    ///
    /// # Panics
    ///
    /// Panics if `guard` is negative or not finite.
    pub fn with_guard(mut self, guard: f64) -> Self {
        assert!(
            guard.is_finite() && guard >= 0.0,
            "guard must be finite and non-negative, got {guard}"
        );
        self.guard = guard;
        self
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }
}

impl<P: MissLatencyPredictor> GatingPolicy for MapgPolicy<P> {
    fn decide(&mut self, info: &StallInfo, ctx: &PolicyContext) -> StallAction {
        let predicted = self.predictor.predict(info);
        self.pending_prediction = Some(predicted);

        let threshold = ctx.break_even.scale(self.guard);
        if predicted < threshold {
            // Stalls judged too short to gate are still clock-gated —
            // MAPG deploys on top of conventional clock gating.
            return StallAction::ClockGate;
        }

        // End the wake ramp at the predicted data arrival (saturating at
        // the stall start). The controller clamps to entry completion, so
        // heavy underprediction degrades gracefully into a minimal nap.
        let wake_at = if self.early_wake {
            info.start + predicted.saturating_sub(ctx.wakeup)
        } else {
            info.data_ready
        };

        StallAction::PowerGate {
            gate_at: info.start,
            wake_at,
        }
    }

    fn observe(&mut self, info: &StallInfo, actual: Cycles) {
        if let Some(predicted) = self.pending_prediction.take() {
            self.score.record(predicted, actual);
        }
        self.predictor.observe(info, actual);
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn predictor_score(&self) -> Option<&PredictorScore> {
        Some(&self.score)
    }
}

/// Selects a policy by name — the configuration surface the simulation,
/// benches and examples share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// [`NoGating`].
    NoGating,
    /// [`ClockGating`].
    ClockGating,
    /// [`DvfsStall`] at the floor operating point.
    DvfsStall,
    /// [`NaiveOnMiss`].
    NaiveOnMiss,
    /// [`TimeoutGating`] with the given idle threshold in cycles.
    Timeout {
        /// Idle cycles before gating.
        idle_cycles: u64,
    },
    /// [`MapgPolicy::oracle`].
    MapgOracle,
    /// [`MapgPolicy::predictive`] — the paper's policy.
    Mapg,
    /// [`MapgPolicy::always_gate`] ablation.
    MapgAlwaysGate,
    /// [`MapgPolicy::no_early_wake`] ablation.
    MapgNoEarlyWake,
    /// MAPG with an explicitly chosen predictor (experiment R-F7).
    MapgWith {
        /// The predictor to drive the policy with.
        predictor: PredictorKind,
    },
    /// [`MapgPolicy::predictive`] with its break-even guard set to
    /// `quarter_bets / 4` (experiment R-F4). Whole quarters keep the kind
    /// `Eq + Hash`, a memo key.
    MapgGuard {
        /// The guard multiplier, in quarters of the break-even time.
        quarter_bets: u32,
    },
}

/// Selects a miss-latency predictor for [`PolicyKind::MapgWith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// [`StaticPredictor`] pinned at 200 cycles.
    Static,
    /// [`LastValuePredictor`].
    LastValue,
    /// Global [`EwmaPredictor`] (alpha = 4/16).
    Ewma,
    /// PC-indexed [`HistoryTablePredictor`] (the MAPG default).
    HistoryTable,
    /// [`OraclePredictor`].
    Oracle,
}

impl PredictorKind {
    /// All predictor kinds, weakest first.
    pub const ALL: [PredictorKind; 5] = [
        PredictorKind::Static,
        PredictorKind::LastValue,
        PredictorKind::Ewma,
        PredictorKind::HistoryTable,
        PredictorKind::Oracle,
    ];

    /// Instantiates the predictor.
    pub fn instantiate(&self) -> Box<dyn MissLatencyPredictor> {
        match self {
            PredictorKind::Static => Box::new(StaticPredictor::new(Cycles::new(200))),
            PredictorKind::LastValue => Box::new(LastValuePredictor::new(Cycles::new(200))),
            PredictorKind::Ewma => Box::new(EwmaPredictor::new(Cycles::new(200), 4)),
            PredictorKind::HistoryTable => Box::new(HistoryTablePredictor::hardware_default()),
            PredictorKind::Oracle => Box::new(OraclePredictor),
        }
    }

    /// Display name of the MAPG variant driven by this predictor.
    pub fn policy_name(&self) -> &'static str {
        match self {
            PredictorKind::Static => "mapg+static",
            PredictorKind::LastValue => "mapg+last-value",
            PredictorKind::Ewma => "mapg+ewma",
            PredictorKind::HistoryTable => "mapg+history-table",
            PredictorKind::Oracle => "mapg+oracle",
        }
    }
}

impl MissLatencyPredictor for Box<dyn MissLatencyPredictor> {
    fn predict(&mut self, info: &StallInfo) -> Cycles {
        (**self).predict(info)
    }

    fn observe(&mut self, info: &StallInfo, actual: Cycles) {
        (**self).observe(info, actual);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl PolicyKind {
    /// The comparison set used by the headline experiments (R-T3, R-F2,
    /// R-F3): every baseline plus MAPG and its oracle.
    pub const COMPARISON_SET: [PolicyKind; 7] = [
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::DvfsStall,
        PolicyKind::NaiveOnMiss,
        PolicyKind::Timeout { idle_cycles: 100 },
        PolicyKind::Mapg,
        PolicyKind::MapgOracle,
    ];

    /// Instantiates the policy.
    pub fn instantiate(&self) -> Box<dyn GatingPolicy> {
        match *self {
            PolicyKind::NoGating => Box::new(NoGating),
            PolicyKind::ClockGating => Box::new(ClockGating),
            PolicyKind::DvfsStall => Box::new(DvfsStall::default()),
            PolicyKind::NaiveOnMiss => Box::new(NaiveOnMiss),
            PolicyKind::Timeout { idle_cycles } => {
                Box::new(TimeoutGating::new(Cycles::new(idle_cycles)))
            }
            PolicyKind::MapgOracle => Box::new(MapgPolicy::oracle()),
            PolicyKind::Mapg => Box::new(MapgPolicy::predictive()),
            PolicyKind::MapgAlwaysGate => Box::new(MapgPolicy::always_gate()),
            PolicyKind::MapgNoEarlyWake => Box::new(MapgPolicy::no_early_wake()),
            PolicyKind::MapgWith { predictor } => Box::new(MapgPolicy::with_predictor(
                predictor.instantiate(),
                predictor.policy_name(),
            )),
            PolicyKind::MapgGuard { quarter_bets } => {
                Box::new(MapgPolicy::predictive().with_guard(f64::from(quarter_bets) / 4.0))
            }
        }
    }

    /// The policy's display name (matches the instantiated policy's
    /// [`GatingPolicy::name`]).
    pub fn name(&self) -> &'static str {
        match *self {
            PolicyKind::NoGating => "no-gating",
            PolicyKind::ClockGating => "clock-gating",
            PolicyKind::DvfsStall => "dvfs-stall",
            PolicyKind::NaiveOnMiss => "naive-on-miss",
            PolicyKind::Timeout { .. } => "timeout",
            PolicyKind::MapgOracle => "mapg-oracle",
            PolicyKind::Mapg | PolicyKind::MapgGuard { .. } => "mapg",
            PolicyKind::MapgAlwaysGate => "mapg-always-gate",
            PolicyKind::MapgNoEarlyWake => "mapg-no-early-wake",
            PolicyKind::MapgWith { predictor } => predictor.policy_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_cpu::{CoreId, StallCause};

    fn ctx() -> PolicyContext {
        PolicyContext {
            entry: Cycles::new(3),
            wakeup: Cycles::new(10),
            break_even: Cycles::new(50),
        }
    }

    fn stall(duration: u64) -> StallInfo {
        StallInfo {
            core: CoreId(0),
            start: Cycle::new(1000),
            data_ready: Cycle::new(1000 + duration),
            pc: 0x400,
            outstanding: 1,
            cause: StallCause::Dependency,
        }
    }

    #[test]
    fn trivial_policies() {
        assert_eq!(
            NoGating.decide(&stall(100), &ctx()),
            StallAction::StayActive
        );
        assert_eq!(
            ClockGating.decide(&stall(100), &ctx()),
            StallAction::ClockGate
        );
        assert!(matches!(
            DvfsStall::default().decide(&stall(100), &ctx()),
            StallAction::DvfsScale { .. }
        ));
    }

    #[test]
    fn naive_gates_everything_reactively() {
        let action = NaiveOnMiss.decide(&stall(20), &ctx());
        assert_eq!(
            action,
            StallAction::PowerGate {
                gate_at: Cycle::new(1000),
                wake_at: Cycle::new(1020),
            }
        );
    }

    #[test]
    fn timeout_skips_short_stalls() {
        let mut policy = TimeoutGating::new(Cycles::new(100));
        assert_eq!(policy.decide(&stall(80), &ctx()), StallAction::ClockGate);
        match policy.decide(&stall(300), &ctx()) {
            StallAction::PowerGate { gate_at, wake_at } => {
                assert_eq!(gate_at, Cycle::new(1100));
                assert_eq!(wake_at, Cycle::new(1300));
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn oracle_gates_only_above_break_even() {
        let mut policy = MapgPolicy::oracle();
        assert_eq!(
            policy.decide(&stall(30), &ctx()),
            StallAction::ClockGate,
            "below BET: clock-gated, not power-gated"
        );
        match policy.decide(&stall(200), &ctx()) {
            StallAction::PowerGate { gate_at, wake_at } => {
                assert_eq!(gate_at, Cycle::new(1000));
                // Wake ramp ends exactly at data arrival: 1200 - 10.
                assert_eq!(wake_at, Cycle::new(1190));
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn predictive_learns_then_gates() {
        let mut policy = MapgPolicy::predictive();
        let info = stall(400);
        // Default estimate (200) ≥ BET (50): gates immediately.
        let action = policy.decide(&info, &ctx());
        assert!(matches!(action, StallAction::PowerGate { .. }));
        policy.observe(&info, info.natural_duration());
        assert_eq!(policy.predictor_score().map(|s| s.predictions()), Some(1));
    }

    #[test]
    fn predictive_skips_after_learning_short_stalls() {
        let mut policy = MapgPolicy::predictive();
        let short = stall(10);
        let context = ctx();
        // Train the PC with many short stalls.
        for _ in 0..100 {
            let _ = policy.decide(&short, &context);
            policy.observe(&short, short.natural_duration());
        }
        assert_eq!(
            policy.decide(&short, &context),
            StallAction::ClockGate,
            "learned short stalls must not be power-gated"
        );
    }

    #[test]
    fn always_gate_ablation_ignores_break_even() {
        let mut policy = MapgPolicy::always_gate();
        let short = stall(10);
        let context = ctx();
        for _ in 0..50 {
            let action = policy.decide(&short, &context);
            assert!(
                matches!(action, StallAction::PowerGate { .. }),
                "always-gate must gate"
            );
            policy.observe(&short, short.natural_duration());
        }
    }

    #[test]
    fn no_early_wake_ablation_wakes_reactively() {
        let mut policy = MapgPolicy::no_early_wake();
        match policy.decide(&stall(400), &ctx()) {
            StallAction::PowerGate { wake_at, .. } => {
                assert_eq!(wake_at, Cycle::new(1400), "reactive wake");
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    /// Every variant, every predictor under `MapgWith`, and both
    /// parameterized kinds at a few values.
    #[test]
    fn kind_names_match_instances() {
        let fixed = [
            PolicyKind::NoGating,
            PolicyKind::ClockGating,
            PolicyKind::DvfsStall,
            PolicyKind::NaiveOnMiss,
            PolicyKind::MapgOracle,
            PolicyKind::Mapg,
            PolicyKind::MapgAlwaysGate,
            PolicyKind::MapgNoEarlyWake,
        ];
        let timeouts = [0, 100, 5_000].map(|idle_cycles| PolicyKind::Timeout { idle_cycles });
        let predictors = PredictorKind::ALL.map(|predictor| PolicyKind::MapgWith { predictor });
        let guards = [0, 1, 4, 32].map(|quarter_bets| PolicyKind::MapgGuard { quarter_bets });
        let kinds: Vec<PolicyKind> = fixed
            .into_iter()
            .chain(timeouts)
            .chain(predictors)
            .chain(guards)
            .collect();
        for kind in &kinds {
            // Exhaustive, so a new variant does not compile until this
            // test names it.
            match kind {
                PolicyKind::NoGating
                | PolicyKind::ClockGating
                | PolicyKind::DvfsStall
                | PolicyKind::NaiveOnMiss
                | PolicyKind::Timeout { .. }
                | PolicyKind::MapgOracle
                | PolicyKind::Mapg
                | PolicyKind::MapgAlwaysGate
                | PolicyKind::MapgNoEarlyWake
                | PolicyKind::MapgWith { .. }
                | PolicyKind::MapgGuard { .. } => {}
            }
            assert_eq!(kind.name(), kind.instantiate().name(), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "guard")]
    fn guard_must_be_finite() {
        let _ = MapgPolicy::predictive().with_guard(f64::NAN);
    }
}
