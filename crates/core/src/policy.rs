//! Gating policies: what to do with a memory stall.
//!
//! A [`Policy`] sees each stall at its onset and picks a [`StallAction`].
//! The [`Controller`](crate::Controller) executes the action, charges the
//! energy, and reports the resume time back to the core. The baselines are
//! fixed rules; the MAPG kinds share one rule with three parameters (a
//! miss-latency predictor, a break-even guard and early wake):
//!
//! | [`PolicyKind`] | action on stall | wake scheduling | what it represents |
//! |---|---|---|---|
//! | `NoGating` | stay active | — | no power management |
//! | `ClockGating` | stop clocks | — | conventional fine-grain clock gating |
//! | `DvfsStall` | scale V/f down | — | DVFS-during-stall baseline |
//! | `NaiveOnMiss` | gate every stall | reactive (starts at data arrival) | gating without MAPG's machinery |
//! | `Timeout` | gate after idle timeout | reactive | classic idle-driven power gating |
//! | `MapgOracle` | gate iff `actual ≥ BET` | early (hidden under miss) | upper bound |
//! | `Mapg` | gate iff `predicted ≥ BET` | early, from prediction | **the paper's policy** |

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

/// A gating policy: the rule a [`PolicyKind`] names, with the predictor
/// state the MAPG kinds learn across stalls. Built only by
/// [`PolicyKind::instantiate`].
///
/// The controller guarantees `decide` and `observe` are called in strict
/// alternation for each stall (stalls resolve synchronously), so a MAPG
/// policy carries its prediction from one call to the other.
pub struct Policy {
    kind: PolicyKind,
    /// The predictor side of a MAPG kind; `None` for the fixed baselines.
    mapg: Option<Mapg>,
}

/// The MAPG rule's state. On each stall:
/// 1. predict the stall duration `d̂`;
/// 2. gate iff `d̂ ≥ guard · BET` (the guard margin biases against gating
///    marginal stalls, where a mis-prediction costs energy *and* time);
/// 3. if gating and early wake is enabled, schedule the wake ramp to end
///    exactly at the predicted data arrival (`wake_at = start + d̂ −
///    T_wake`), hiding the wake latency under the memory latency.
///
/// With [`OraclePredictor`] this is the paper's oracle variant; with
/// [`HistoryTablePredictor`] it is the deployable policy.
struct Mapg {
    predictor: Box<dyn MissLatencyPredictor>,
    score: PredictorScore,
    guard: f64,
    early_wake: bool,
    /// Prediction made in `decide`, consumed by the matching `observe`.
    pending_prediction: Option<Cycles>,
}

impl Policy {
    /// Chooses an action for the stall described by `info`.
    pub fn decide(&mut self, info: &StallInfo, ctx: &PolicyContext) -> StallAction {
        if let Some(mapg) = &mut self.mapg {
            return mapg.decide(info, ctx);
        }
        match self.kind {
            PolicyKind::NoGating => StallAction::StayActive,
            PolicyKind::ClockGating => StallAction::ClockGate,
            // Idealized in the policy's favour: the V/f transition itself
            // is free, which real PLL relock times (microseconds) would
            // never allow at stall granularity.
            PolicyKind::DvfsStall => StallAction::DvfsScale {
                point: OperatingPoint::min(),
            },
            PolicyKind::NaiveOnMiss => StallAction::PowerGate {
                gate_at: info.start,
                wake_at: info.data_ready,
            },
            PolicyKind::Timeout { idle_cycles } => {
                // `data_ready` only tells whether the timeout hardware
                // would have fired before the data returned; it is not a
                // prediction.
                let gate_at = info.start + Cycles::new(idle_cycles);
                if gate_at >= info.data_ready {
                    // The idle wait itself is clock-gated, as in any
                    // contemporary core.
                    StallAction::ClockGate
                } else {
                    StallAction::PowerGate {
                        gate_at,
                        wake_at: info.data_ready,
                    }
                }
            }
            PolicyKind::MapgOracle
            | PolicyKind::Mapg
            | PolicyKind::MapgAlwaysGate
            | PolicyKind::MapgNoEarlyWake
            | PolicyKind::MapgWith { .. }
            | PolicyKind::MapgGuard { .. } => unreachable!("MAPG kinds carry a predictor"),
        }
    }

    /// Learns from the completed stall's actual duration.
    pub fn observe(&mut self, info: &StallInfo, actual: Cycles) {
        if let Some(mapg) = &mut self.mapg {
            if let Some(predicted) = mapg.pending_prediction.take() {
                mapg.score.record(predicted, actual);
            }
            mapg.predictor.observe(info, actual);
        }
    }

    /// Short name for reports: [`PolicyKind::name`].
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Prediction-accuracy bookkeeping, for the MAPG kinds.
    pub fn predictor_score(&self) -> Option<&PredictorScore> {
        self.mapg.as_ref().map(|mapg| &mapg.score)
    }
}

impl Mapg {
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
}

/// Selects a policy by name — the configuration surface the simulation,
/// benches and examples share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No power management at all.
    NoGating,
    /// Clock gating during every stall: zero latency, zero risk, the
    /// reference conventional technique.
    ClockGating,
    /// DVFS to the floor operating point during every stall. Even with a
    /// free transition it keeps paying `V³`-scaled leakage.
    DvfsStall,
    /// Gate on every stall, wake reactively when the data arrives: pays
    /// the full wake latency on every gated stall and loses energy on
    /// short ones, the strawman MAPG improves on.
    NaiveOnMiss,
    /// Classic idle-timeout gating: gate once the core has been idle for
    /// the given threshold, wake reactively.
    Timeout {
        /// Idle cycles before gating.
        idle_cycles: u64,
    },
    /// MAPG driven by the [`OraclePredictor`]: perfect duration knowledge,
    /// perfect wake timing.
    MapgOracle,
    /// The paper's policy: PC-indexed [`HistoryTablePredictor`], unity
    /// guard, early wake on.
    Mapg,
    /// Ablation: prediction and break-even guard disabled (guard 0), so
    /// every stall gates, with early wake still scheduled from the
    /// predictor's estimate.
    MapgAlwaysGate,
    /// Ablation: break-even guard kept, early wake disabled (reactive wake
    /// at data arrival).
    MapgNoEarlyWake,
    /// MAPG with an explicitly chosen predictor (experiment R-F7).
    MapgWith {
        /// The predictor to drive the policy with.
        predictor: PredictorKind,
    },
    /// [`PolicyKind::Mapg`] with its break-even guard set to
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
    pub fn instantiate(&self) -> Policy {
        let (predictor, guard, early_wake) = match *self {
            PolicyKind::NoGating
            | PolicyKind::ClockGating
            | PolicyKind::DvfsStall
            | PolicyKind::NaiveOnMiss
            | PolicyKind::Timeout { .. } => {
                return Policy {
                    kind: *self,
                    mapg: None,
                }
            }
            PolicyKind::MapgOracle => (PredictorKind::Oracle, 1.0, true),
            PolicyKind::Mapg => (PredictorKind::HistoryTable, 1.0, true),
            PolicyKind::MapgAlwaysGate => (PredictorKind::HistoryTable, 0.0, true),
            PolicyKind::MapgNoEarlyWake => (PredictorKind::HistoryTable, 1.0, false),
            PolicyKind::MapgWith { predictor } => (predictor, 1.0, true),
            PolicyKind::MapgGuard { quarter_bets } => (
                PredictorKind::HistoryTable,
                f64::from(quarter_bets) / 4.0,
                true,
            ),
        };
        Policy {
            kind: *self,
            mapg: Some(Mapg {
                predictor: predictor.instantiate(),
                score: PredictorScore::new(),
                guard,
                early_wake,
                pending_prediction: None,
            }),
        }
    }

    /// The policy's display name, which its runs report.
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
    use crate::{SimConfig, Simulation};
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
        let decide = |kind: PolicyKind| kind.instantiate().decide(&stall(100), &ctx());
        assert_eq!(decide(PolicyKind::NoGating), StallAction::StayActive);
        assert_eq!(decide(PolicyKind::ClockGating), StallAction::ClockGate);
        assert_eq!(
            decide(PolicyKind::DvfsStall),
            StallAction::DvfsScale {
                point: OperatingPoint::min()
            }
        );
    }

    #[test]
    fn naive_gates_everything_reactively() {
        let action = PolicyKind::NaiveOnMiss
            .instantiate()
            .decide(&stall(20), &ctx());
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
        let mut policy = PolicyKind::Timeout { idle_cycles: 100 }.instantiate();
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
        let mut policy = PolicyKind::MapgOracle.instantiate();
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
        let mut policy = PolicyKind::Mapg.instantiate();
        let info = stall(400);
        // Default estimate (200) ≥ BET (50): gates immediately.
        let action = policy.decide(&info, &ctx());
        assert!(matches!(action, StallAction::PowerGate { .. }));
        policy.observe(&info, info.natural_duration());
        assert_eq!(policy.predictor_score().map(|s| s.predictions()), Some(1));
    }

    #[test]
    fn predictive_skips_after_learning_short_stalls() {
        let mut policy = PolicyKind::Mapg.instantiate();
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
        let mut policy = PolicyKind::MapgAlwaysGate.instantiate();
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
        let mut policy = PolicyKind::MapgNoEarlyWake.instantiate();
        match policy.decide(&stall(400), &ctx()) {
            StallAction::PowerGate { wake_at, .. } => {
                assert_eq!(wake_at, Cycle::new(1400), "reactive wake");
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    /// Every variant, every predictor under `MapgWith`, and both
    /// parameterized kinds at a few values: a short run reports the
    /// kind's name, and a predictor score exactly for the MAPG kinds.
    #[test]
    fn every_kind_reports_its_name_and_predictor() {
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
        let config = SimConfig::default().with_instructions(2_000);
        for kind in fixed
            .into_iter()
            .chain(timeouts)
            .chain(predictors)
            .chain(guards)
        {
            // Exhaustive, so a new variant does not compile until this
            // test names it.
            let predictive = match kind {
                PolicyKind::NoGating
                | PolicyKind::ClockGating
                | PolicyKind::DvfsStall
                | PolicyKind::NaiveOnMiss
                | PolicyKind::Timeout { .. } => false,
                PolicyKind::MapgOracle
                | PolicyKind::Mapg
                | PolicyKind::MapgAlwaysGate
                | PolicyKind::MapgNoEarlyWake
                | PolicyKind::MapgWith { .. }
                | PolicyKind::MapgGuard { .. } => true,
            };
            let report = Simulation::new(config.clone(), kind).run();
            assert_eq!(report.policy, kind.name(), "{kind:?}");
            assert_eq!(report.predictor.is_some(), predictive, "{kind:?}");
        }
    }
}
