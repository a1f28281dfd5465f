//! The per-core power-gating state machine.
//!
//! Tracks which power state a core is in, enforces transition legality
//! (software bugs in gating controllers manifest as illegal transitions,
//! e.g. waking a core that never slept), and accumulates per-state
//! residency — the quantity the energy ledger integrates.

use mapg_units::{Cycle, Cycles};

use core::fmt;

/// A core's power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PgState {
    /// Powered and executing (or idling ungated).
    Active,
    /// Draining/isolating on the way into sleep.
    Entering,
    /// Power-gated: virtual rail collapsed, residual leakage only.
    Sleeping,
    /// Virtual rail recharging on the way back to active.
    Waking,
}

impl fmt::Display for PgState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PgState::Active => "active",
            PgState::Entering => "entering",
            PgState::Sleeping => "sleeping",
            PgState::Waking => "waking",
        };
        f.write_str(s)
    }
}

/// Cycles accumulated in each state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateResidency {
    /// Cycles in [`PgState::Active`].
    pub active: Cycles,
    /// Cycles in [`PgState::Entering`].
    pub entering: Cycles,
    /// Cycles in [`PgState::Sleeping`].
    pub sleeping: Cycles,
    /// Cycles in [`PgState::Waking`].
    pub waking: Cycles,
}

impl StateResidency {
    /// Total cycles across all states.
    pub fn total(&self) -> Cycles {
        self.active + self.entering + self.sleeping + self.waking
    }

    /// Adds the residency to a metrics registry as `fsm_*_cycles`
    /// counters. Summed over all cores these reconcile with the
    /// trace-derived sleep spans and the gating statistics.
    pub fn record_metrics(&self, metrics: &mut mapg_obs::MetricsRegistry) {
        metrics.count("fsm_active_cycles", self.active.raw());
        metrics.count("fsm_entering_cycles", self.entering.raw());
        metrics.count("fsm_sleeping_cycles", self.sleeping.raw());
        metrics.count("fsm_waking_cycles", self.waking.raw());
    }
}

/// The state machine. Legal transitions:
///
/// ```text
/// Active ──sleep──▶ Entering ──collapse──▶ Sleeping ──wake──▶ Waking ──done──▶ Active
/// ```
///
/// ```
/// use mapg::{GatingFsm, PgState};
/// use mapg_units::Cycle;
///
/// let mut fsm = GatingFsm::new();
/// fsm.begin_entry(Cycle::new(100));
/// fsm.begin_sleep(Cycle::new(106));
/// fsm.begin_wake(Cycle::new(400));
/// fsm.complete_wake(Cycle::new(420));
/// assert_eq!(fsm.state(), PgState::Active);
/// assert_eq!(fsm.residency().sleeping.raw(), 294);
/// assert_eq!(fsm.sleep_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GatingFsm {
    state: PgState,
    since: Cycle,
    residency: StateResidency,
    sleep_count: u64,
}

impl GatingFsm {
    /// A new FSM, active since cycle zero.
    pub fn new() -> Self {
        GatingFsm {
            state: PgState::Active,
            since: Cycle::ZERO,
            residency: StateResidency::default(),
            sleep_count: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> PgState {
        self.state
    }

    /// Per-state residency accumulated so far (time in the *current* state
    /// is not yet included; call [`GatingFsm::finish`] at end of run).
    pub fn residency(&self) -> &StateResidency {
        &self.residency
    }

    /// Number of completed sleep entries.
    pub fn sleep_count(&self) -> u64 {
        self.sleep_count
    }

    /// Active → Entering.
    ///
    /// # Panics
    ///
    /// Panics on an illegal transition or a time regression.
    pub fn begin_entry(&mut self, at: Cycle) {
        unwrap_transition(self.try_begin_entry(at));
    }

    /// Active → Entering, reporting failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation message on an illegal transition or a time
    /// regression, leaving the FSM unchanged.
    pub fn try_begin_entry(&mut self, at: Cycle) -> Result<(), String> {
        self.transition(PgState::Active, PgState::Entering, at)?;
        self.sleep_count += 1;
        Ok(())
    }

    /// Entering → Sleeping.
    ///
    /// # Panics
    ///
    /// Panics on an illegal transition or a time regression.
    pub fn begin_sleep(&mut self, at: Cycle) {
        unwrap_transition(self.try_begin_sleep(at));
    }

    /// Entering → Sleeping, reporting failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation message on an illegal transition or a time
    /// regression, leaving the FSM unchanged.
    pub fn try_begin_sleep(&mut self, at: Cycle) -> Result<(), String> {
        self.transition(PgState::Entering, PgState::Sleeping, at)
    }

    /// Sleeping → Waking.
    ///
    /// # Panics
    ///
    /// Panics on an illegal transition or a time regression.
    pub fn begin_wake(&mut self, at: Cycle) {
        unwrap_transition(self.try_begin_wake(at));
    }

    /// Sleeping → Waking, reporting failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation message on an illegal transition or a time
    /// regression, leaving the FSM unchanged.
    pub fn try_begin_wake(&mut self, at: Cycle) -> Result<(), String> {
        self.transition(PgState::Sleeping, PgState::Waking, at)
    }

    /// Waking → Active.
    ///
    /// # Panics
    ///
    /// Panics on an illegal transition or a time regression.
    pub fn complete_wake(&mut self, at: Cycle) {
        unwrap_transition(self.try_complete_wake(at));
    }

    /// Waking → Active, reporting failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation message on an illegal transition or a time
    /// regression, leaving the FSM unchanged.
    pub fn try_complete_wake(&mut self, at: Cycle) -> Result<(), String> {
        self.transition(PgState::Waking, PgState::Active, at)
    }

    /// Closes the books at end of run: accumulates the residency of the
    /// final state up to `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last transition.
    pub fn finish(&mut self, at: Cycle) {
        unwrap_transition(self.try_finish(at));
    }

    /// Closes the books, reporting a time regression instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation message if `at` precedes the last transition,
    /// leaving the FSM unchanged.
    pub fn try_finish(&mut self, at: Cycle) -> Result<(), String> {
        self.accumulate(at)?;
        self.since = at;
        Ok(())
    }

    fn transition(&mut self, expect: PgState, next: PgState, at: Cycle) -> Result<(), String> {
        if self.state != expect {
            return Err(format!(
                "illegal transition to {next} from {} (expected {expect})",
                self.state
            ));
        }
        self.accumulate(at)?;
        self.state = next;
        self.since = at;
        Ok(())
    }

    fn accumulate(&mut self, at: Cycle) -> Result<(), String> {
        if at < self.since {
            return Err(format!("time regression: {at} before {}", self.since));
        }
        let span = at - self.since;
        match self.state {
            PgState::Active => self.residency.active += span,
            PgState::Entering => self.residency.entering += span,
            PgState::Sleeping => self.residency.sleeping += span,
            PgState::Waking => self.residency.waking += span,
        }
        Ok(())
    }
}

/// Panics with the violation message, preserving the documented panic
/// behaviour of the non-`try` methods.
fn unwrap_transition(result: Result<(), String>) {
    if let Err(message) = result {
        panic!("{message}");
    }
}

impl Default for GatingFsm {
    fn default() -> Self {
        GatingFsm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle_residency() {
        let mut fsm = GatingFsm::new();
        fsm.begin_entry(Cycle::new(10)); // active: 0..10
        fsm.begin_sleep(Cycle::new(13)); // entering: 10..13
        fsm.begin_wake(Cycle::new(113)); // sleeping: 13..113
        fsm.complete_wake(Cycle::new(123)); // waking: 113..123
        fsm.finish(Cycle::new(200)); // active: 123..200

        let r = *fsm.residency();
        assert_eq!(r.active, Cycles::new(10 + 77));
        assert_eq!(r.entering, Cycles::new(3));
        assert_eq!(r.sleeping, Cycles::new(100));
        assert_eq!(r.waking, Cycles::new(10));
        assert_eq!(r.total(), Cycles::new(200));
        assert_eq!(fsm.sleep_count(), 1);
        assert_eq!(fsm.state(), PgState::Active);
    }

    #[test]
    fn repeated_cycles_accumulate() {
        let mut fsm = GatingFsm::new();
        let mut t = 0u64;
        for _ in 0..5 {
            fsm.begin_entry(Cycle::new(t + 10));
            fsm.begin_sleep(Cycle::new(t + 13));
            fsm.begin_wake(Cycle::new(t + 50));
            fsm.complete_wake(Cycle::new(t + 60));
            t += 100;
        }
        assert_eq!(fsm.sleep_count(), 5);
        assert_eq!(fsm.residency().sleeping, Cycles::new(5 * 37));
        assert_eq!(fsm.residency().entering, Cycles::new(15));
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn cannot_wake_from_active() {
        let mut fsm = GatingFsm::new();
        fsm.begin_wake(Cycle::new(5));
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn cannot_sleep_twice() {
        let mut fsm = GatingFsm::new();
        fsm.begin_entry(Cycle::new(1));
        fsm.begin_sleep(Cycle::new(2));
        fsm.begin_sleep(Cycle::new(3));
    }

    #[test]
    #[should_panic(expected = "time regression")]
    fn time_cannot_go_backwards() {
        let mut fsm = GatingFsm::new();
        fsm.begin_entry(Cycle::new(100));
        fsm.begin_sleep(Cycle::new(50));
    }

    #[test]
    fn zero_length_states_are_legal() {
        let mut fsm = GatingFsm::new();
        fsm.begin_entry(Cycle::new(10));
        fsm.begin_sleep(Cycle::new(10));
        fsm.begin_wake(Cycle::new(10));
        fsm.complete_wake(Cycle::new(10));
        assert_eq!(fsm.residency().total(), Cycles::new(10));
    }

    #[test]
    fn try_variants_report_instead_of_panicking() {
        let mut fsm = GatingFsm::new();
        let err = fsm.try_begin_wake(Cycle::new(5)).unwrap_err();
        assert!(err.contains("illegal transition"), "{err}");
        assert_eq!(fsm.state(), PgState::Active, "FSM unchanged on error");

        fsm.try_begin_entry(Cycle::new(100)).unwrap();
        let err = fsm.try_begin_sleep(Cycle::new(50)).unwrap_err();
        assert!(err.contains("time regression"), "{err}");
        assert_eq!(fsm.state(), PgState::Entering, "FSM unchanged on error");
        assert_eq!(fsm.sleep_count(), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(PgState::Active.to_string(), "active");
        assert_eq!(PgState::Entering.to_string(), "entering");
        assert_eq!(PgState::Sleeping.to_string(), "sleeping");
        assert_eq!(PgState::Waking.to_string(), "waking");
    }
}
