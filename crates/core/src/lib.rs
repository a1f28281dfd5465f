//! **MAPG — Memory Access Power Gating** (reproduction of Jeong, Kahng,
//! Kang, Rosing, Strong — DATE 2012).
//!
//! Memory-intensive programs spend a large fraction of their time stalled
//! on DRAM. During those stalls a core leaks. MAPG power-gates the core
//! *per memory stall*: a fast-wakeup sleep-transistor design pushes the
//! break-even time below a single DRAM round trip, a miss-latency
//! predictor decides which stalls are long enough to gate, and early wake
//! scheduling hides the wake ramp under the remaining memory latency so
//! the performance cost is near zero.
//!
//! This crate is the paper's contribution layer; the substrates live in
//! [`mapg_cpu`], [`mapg_mem`], [`mapg_power`], [`mapg_trace`] and
//! [`mapg_units`].
//!
//! # Quickstart
//!
//! ```
//! use mapg::{PolicyKind, SimConfig, Simulation};
//!
//! let config = SimConfig::default().with_instructions(100_000);
//! let baseline = Simulation::new(config.clone(), PolicyKind::NoGating).run();
//! let mapg = Simulation::new(config, PolicyKind::Mapg).run();
//!
//! let savings = mapg.core_energy_savings_vs(&baseline);
//! let overhead = mapg.perf_overhead_vs(&baseline);
//! assert!(savings > 0.0);
//! assert!(overhead < 0.05);
//! ```
//!
//! # Layer map
//!
//! | concern | types |
//! |---|---|
//! | policies | [`GatingPolicy`], [`MapgPolicy`], [`NoGating`], [`ClockGating`], [`NaiveOnMiss`], [`TimeoutGating`], [`DvfsStall`], [`PolicyKind`] |
//! | prediction | [`MissLatencyPredictor`], [`HistoryTablePredictor`], [`EwmaPredictor`], [`LastValuePredictor`], [`StaticPredictor`], [`OraclePredictor`], [`PredictorScore`] |
//! | mechanism | [`GatingFsm`], [`PgState`], [`TokenManager`], [`Controller`] |
//! | harness | [`Simulation`], [`SimConfig`], [`RunReport`], [`RunCache`], [`SuiteRunner`], [`SuiteMatrix`] |
//! | robustness | [`FaultPlan`], [`FaultStats`], [`InvariantReport`], [`Watchdog`], [`DegradationStats`], [`MapgError`] |
//! | fuzzing | [`fuzz::Scenario`], [`fuzz::Finding`], [`fuzz::ShrinkOutcome`], [`fuzz::ReproFile`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod error;
mod faults;
mod fsm;
pub mod fsutil;
pub mod fuzz;
mod invariants;
mod memo;
mod policy;
mod predictor;
mod replicate;
mod report;
mod sim;
mod suite;
mod tokens;
mod watchdog;

pub use controller::{Controller, ControllerConfig, GatingStats};
pub use error::MapgError;
pub use faults::{FaultPlan, FaultStats};
pub use fsm::{GatingFsm, PgState, StateResidency};
pub use fsutil::write_atomic;
pub use invariants::{InvariantChecker, InvariantKind, InvariantReport, InvariantViolation};
pub use memo::RunCache;
pub use policy::{
    ClockGating, DvfsStall, GatingPolicy, MapgPolicy, NaiveOnMiss, NoGating, PolicyContext,
    PolicyKind, PredictorKind, StallAction, TimeoutGating,
};
pub use predictor::{
    EwmaPredictor, HistoryTablePredictor, LastValuePredictor, MissLatencyPredictor,
    OraclePredictor, PredictorScore, StaticPredictor,
};
pub use replicate::{MetricSummary, Replication};
pub use report::{geometric_mean, RunReport};
pub use sim::{SimConfig, Simulation};
pub use suite::{SuiteMatrix, SuiteRunner};
pub use tokens::TokenManager;
pub use watchdog::{DegradationStats, Watchdog, WatchdogConfig};
