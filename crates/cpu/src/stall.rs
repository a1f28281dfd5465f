//! The stall-notification interface between the core and a power-gating
//! controller.

use core::fmt;

use mapg_units::Cycle;

/// Identifies a core within a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Why the core blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The core reached its outstanding-miss (MLP) limit and must wait for
    /// the *oldest* miss to return.
    MlpLimit,
    /// A dependent access needs the value of an in-flight miss and must
    /// wait for *that* miss to return (pointer chasing).
    Dependency,
    /// The program itself has nothing to run (blocked on I/O,
    /// descheduled) — the long-idle interval classic OS-driven power
    /// gating targets.
    Idle,
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallCause::MlpLimit => f.write_str("mlp-limit"),
            StallCause::Dependency => f.write_str("dependency"),
            StallCause::Idle => f.write_str("idle"),
        }
    }
}

/// Context handed to the [`StallHandler`] at the start of a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInfo {
    /// Which core is stalling.
    pub core: CoreId,
    /// Cycle at which the core blocked.
    pub start: Cycle,
    /// Cycle at which the blocking data arrives. The handler may use this
    /// for *post-hoc predictor training only* — gating decisions must be
    /// made from predictions, and the split is exercised by the oracle-vs-
    /// predictive policy experiments.
    pub data_ready: Cycle,
    /// PC of the instruction that blocked (predictor index).
    pub pc: u64,
    /// Number of misses in flight at the moment of blocking (including the
    /// one being waited on).
    pub outstanding: usize,
    /// Why the core blocked.
    pub cause: StallCause,
}

impl StallInfo {
    /// The stall's intrinsic duration (before any wake-up penalty).
    pub fn natural_duration(&self) -> mapg_units::Cycles {
        self.data_ready.saturating_since(self.start)
    }
}

/// A power-management controller's view of core stalls.
///
/// The core calls [`StallHandler::on_stall`] the moment it blocks; the
/// handler decides what to do with the idle interval (nothing, clock-gate,
/// power-gate, DVFS…) and returns the cycle at which the core actually
/// resumes execution. The contract:
///
/// - the returned resume time must be `>= info.data_ready` (data cannot be
///   consumed before it arrives); the core enforces this with a debug
///   assertion;
/// - any excess over `data_ready` is a wake-up penalty and lands on the
///   program's critical path.
pub trait StallHandler {
    /// Reacts to a stall; returns the cycle at which the core resumes.
    fn on_stall(&mut self, info: &StallInfo) -> Cycle;
}

/// The do-nothing handler: the core resumes exactly when its data arrives.
/// This is the *no-power-management* baseline and the default for substrate
/// tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveHandler;

impl StallHandler for PassiveHandler {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        info.data_ready
    }
}

impl<H: StallHandler + ?Sized> StallHandler for &mut H {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        (**self).on_stall(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_units::Cycles;

    #[test]
    fn natural_duration() {
        let info = StallInfo {
            core: CoreId(0),
            start: Cycle::new(100),
            data_ready: Cycle::new(350),
            pc: 0x400,
            outstanding: 2,
            cause: StallCause::Dependency,
        };
        assert_eq!(info.natural_duration(), Cycles::new(250));
    }

    #[test]
    fn passive_handler_returns_data_ready() {
        let info = StallInfo {
            core: CoreId(1),
            start: Cycle::new(0),
            data_ready: Cycle::new(42),
            pc: 0,
            outstanding: 1,
            cause: StallCause::MlpLimit,
        };
        assert_eq!(PassiveHandler.on_stall(&info), Cycle::new(42));
    }

    #[test]
    fn handler_usable_through_mut_ref() {
        fn takes_handler<H: StallHandler>(mut h: H, info: &StallInfo) -> Cycle {
            h.on_stall(info)
        }
        let info = StallInfo {
            core: CoreId(0),
            start: Cycle::new(0),
            data_ready: Cycle::new(7),
            pc: 0,
            outstanding: 1,
            cause: StallCause::MlpLimit,
        };
        let mut handler = PassiveHandler;
        assert_eq!(takes_handler(&mut handler, &info), Cycle::new(7));
    }

    #[test]
    fn display_impls() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(StallCause::MlpLimit.to_string(), "mlp-limit");
        assert_eq!(StallCause::Dependency.to_string(), "dependency");
    }
}
