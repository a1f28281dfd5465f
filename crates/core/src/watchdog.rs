//! Safe-mode degradation: a watchdog over gating outcomes.
//!
//! Power gating is only worth its transition energy when wake-ups land on
//! time. Under environmental misbehaviour — slow sleep switches, dropped
//! wake tokens, brownout vetoes, noisy predictors — gated stalls start
//! paying large wake penalties, and aggressive gating becomes strictly
//! worse than plain clock gating. The [`Watchdog`] detects that regime at
//! runtime from a sliding window of per-gated-stall outcomes and degrades
//! the controller to a **safe mode** in which power-gate decisions are
//! demoted to clock gating (always safe: no wake ramp, no transition
//! energy, no rush current).
//!
//! Re-arming uses exponential backoff with hysteresis: each trip doubles
//! the safe-mode hold (capped), the evidence window is cleared on every
//! transition, and a freshly re-armed watchdog must observe a minimum
//! number of new samples before it may trip again — so a marginal system
//! settles into long safe periods instead of flapping.

use mapg_units::{Cycle, Cycles};

use core::fmt;

/// Watchdog thresholds and window sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Sliding-window length, in gated stalls.
    pub window: usize,
    /// Minimum samples in the window before the watchdog may trip
    /// (hysteresis: also required after every re-arm).
    pub min_samples: usize,
    /// Trip when mean wake penalty per gated stall exceeds this multiple
    /// of the nominal wake latency.
    pub penalty_ratio: f64,
    /// Trip when the fraction of failed wake-ups in the window exceeds
    /// this.
    pub failure_threshold: f64,
    /// First safe-mode hold duration.
    pub backoff_base: Cycles,
    /// Safe-mode hold cap for the exponential backoff.
    pub backoff_max: Cycles,
}

impl WatchdogConfig {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 || self.min_samples == 0 {
            return Err("watchdog window and min_samples must be non-zero".into());
        }
        if self.min_samples > self.window {
            return Err(format!(
                "watchdog min_samples ({}) cannot exceed window ({})",
                self.min_samples, self.window
            ));
        }
        if !self.penalty_ratio.is_finite() || self.penalty_ratio < 0.0 {
            return Err("watchdog penalty ratio must be finite and ≥ 0".into());
        }
        if !self.failure_threshold.is_finite() || !(0.0..=1.0).contains(&self.failure_threshold) {
            return Err("watchdog failure threshold must be in [0, 1]".into());
        }
        if self.backoff_base == Cycles::ZERO || self.backoff_max < self.backoff_base {
            return Err("watchdog backoff must satisfy 0 < base ≤ max".into());
        }
        Ok(())
    }
}

impl Default for WatchdogConfig {
    /// Window of 64 gated stalls, trip after ≥ 24 samples when mean
    /// penalty exceeds 2× the wake latency or > 20 % of wakes fail;
    /// backoff 20 k → 640 k cycles.
    fn default() -> Self {
        WatchdogConfig {
            window: 64,
            min_samples: 24,
            penalty_ratio: 2.0,
            failure_threshold: 0.20,
            backoff_base: Cycles::new(20_000),
            backoff_max: Cycles::new(640_000),
        }
    }
}

/// Degradation statistics reported at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Times the watchdog tripped into safe mode.
    pub safe_mode_entries: u64,
    /// Times the watchdog re-armed (recovered) out of safe mode.
    pub recoveries: u64,
    /// Stall cycles served in safe mode (power-gate demoted to clock gate).
    pub safe_stall_cycles: u64,
    /// Power-gate decisions demoted while in safe mode.
    pub demoted_gates: u64,
}

impl DegradationStats {
    /// True when safe mode was never entered.
    pub fn is_empty(&self) -> bool {
        self.safe_mode_entries == 0
    }
}

impl fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} safe-mode entries, {} recoveries, {} demoted gates, {} safe stall cyc",
            self.safe_mode_entries, self.recoveries, self.demoted_gates, self.safe_stall_cycles
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Armed,
    Safe { until: Cycle },
}

/// The runtime watchdog. See the `watchdog` module docs for the mechanism.
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    /// Nominal wake latency, the yardstick for `penalty_ratio`.
    wakeup: Cycles,
    /// Ring buffer of (penalty cycles, wake failed) per gated stall.
    samples: Vec<(u64, bool)>,
    next_slot: usize,
    filled: usize,
    mode: Mode,
    backoff: Cycles,
    stats: DegradationStats,
}

impl Watchdog {
    /// Builds a watchdog judging against the given nominal wake latency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`WatchdogConfig::validate`]).
    pub fn new(config: WatchdogConfig, wakeup: Cycles) -> Self {
        if let Err(message) = config.validate() {
            panic!("{message}");
        }
        Watchdog {
            samples: vec![(0, false); config.window],
            next_slot: 0,
            filled: 0,
            mode: Mode::Armed,
            backoff: config.backoff_base,
            wakeup,
            stats: DegradationStats::default(),
            config,
        }
    }

    /// Advances the watchdog to `now`: leaves safe mode if the hold has
    /// expired. Returns `true` when the controller must operate in safe
    /// mode (demote power gating to clock gating).
    pub fn poll(&mut self, now: Cycle) -> bool {
        if let Mode::Safe { until } = self.mode {
            if now >= until {
                self.mode = Mode::Armed;
                self.stats.recoveries += 1;
                // Hysteresis: fresh evidence only after re-arm.
                self.clear_window();
                return false;
            }
            return true;
        }
        false
    }

    /// Records one gated-stall outcome; call only while armed (samples
    /// taken in safe mode would measure clock gating, not gating health).
    pub fn record(&mut self, now: Cycle, penalty: Cycles, wake_failed: bool) {
        if matches!(self.mode, Mode::Safe { .. }) {
            return;
        }
        self.samples[self.next_slot] = (penalty.raw(), wake_failed);
        self.next_slot = (self.next_slot + 1) % self.config.window;
        self.filled = (self.filled + 1).min(self.config.window);
        if self.filled < self.config.min_samples {
            return;
        }

        let live = &self.samples[..self.filled];
        let mean_penalty = live.iter().map(|&(p, _)| p).sum::<u64>() as f64 / self.filled as f64;
        let failure_rate = live.iter().filter(|&&(_, f)| f).count() as f64 / self.filled as f64;
        let penalty_limit = self.wakeup.raw() as f64 * self.config.penalty_ratio;

        if mean_penalty > penalty_limit || failure_rate > self.config.failure_threshold {
            self.mode = Mode::Safe {
                until: now + self.backoff,
            };
            self.stats.safe_mode_entries += 1;
            self.backoff = self.backoff.scale(2.0).min(self.config.backoff_max);
            self.clear_window();
        } else if self.filled == self.config.window {
            // A full window of healthy samples resets the backoff: the
            // system has demonstrably recovered, so the next trip (if any)
            // starts from the base hold again.
            self.backoff = self.config.backoff_base;
        }
    }

    /// Accounts one demoted power-gate decision spanning `stall` cycles.
    pub fn note_demotion(&mut self, stall: Cycles) {
        self.stats.demoted_gates += 1;
        self.stats.safe_stall_cycles += stall.raw();
    }

    /// Degradation statistics so far.
    pub fn stats(&self) -> DegradationStats {
        self.stats
    }

    /// True while in safe mode (without advancing time).
    pub fn in_safe_mode(&self) -> bool {
        matches!(self.mode, Mode::Safe { .. })
    }

    fn clear_window(&mut self) {
        self.next_slot = 0;
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> WatchdogConfig {
        WatchdogConfig {
            window: 8,
            min_samples: 4,
            penalty_ratio: 1.0,
            failure_threshold: 0.5,
            backoff_base: Cycles::new(1_000),
            backoff_max: Cycles::new(4_000),
        }
    }

    #[test]
    fn healthy_samples_never_trip() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        for i in 0..100u64 {
            let now = Cycle::new(i * 500);
            assert!(!wd.poll(now));
            wd.record(now, Cycles::ZERO, false);
        }
        assert!(wd.stats().is_empty());
        assert!(!wd.in_safe_mode());
    }

    #[test]
    fn trips_on_sustained_penalty_not_before_min_samples() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        // Three bad samples: below min_samples, must not trip.
        for i in 0..3u64 {
            wd.record(Cycle::new(i * 100), Cycles::new(500), true);
            assert!(!wd.in_safe_mode(), "tripped after {} samples", i + 1);
        }
        // Fourth reaches min_samples with mean penalty ≫ wakeup.
        wd.record(Cycle::new(300), Cycles::new(500), true);
        assert!(wd.in_safe_mode());
        assert_eq!(wd.stats().safe_mode_entries, 1);
    }

    #[test]
    fn recovers_after_backoff_with_hysteresis() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        for i in 0..4u64 {
            wd.record(Cycle::new(i), Cycles::new(500), true);
        }
        assert!(wd.in_safe_mode());
        // Still safe before the hold expires.
        assert!(wd.poll(Cycle::new(500)));
        // Recovered after it.
        assert!(!wd.poll(Cycle::new(2_000)));
        assert_eq!(wd.stats().recoveries, 1);
        // Hysteresis: one more bad sample is not enough to re-trip.
        wd.record(Cycle::new(2_001), Cycles::new(500), true);
        assert!(!wd.in_safe_mode());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        let mut now = 0u64;
        let mut holds = Vec::new();
        for _ in 0..4 {
            // Feed bad samples until it trips.
            while !wd.in_safe_mode() {
                wd.record(Cycle::new(now), Cycles::new(500), true);
                now += 1;
            }
            // Find how long the hold lasts by polling forward.
            let entered = now;
            while wd.poll(Cycle::new(now)) {
                now += 100;
            }
            holds.push(now - entered);
        }
        assert!(
            holds[1] > holds[0] && holds[2] > holds[1],
            "backoff must grow: {holds:?}"
        );
        // The cap bounds growth: last two holds are equal-length (±poll
        // granularity).
        assert!(holds[3] - holds[2] < 200, "backoff must cap: {holds:?}");
    }

    #[test]
    fn healthy_full_window_resets_backoff() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        // Trip once (backoff doubles to 2000).
        for i in 0..4u64 {
            wd.record(Cycle::new(i), Cycles::new(500), true);
        }
        assert!(!wd.poll(Cycle::new(10_000)), "recovered");
        // A full healthy window resets the backoff...
        for i in 0..8u64 {
            wd.record(Cycle::new(10_001 + i), Cycles::ZERO, false);
        }
        // ...so the next trip holds for backoff_base again.
        for i in 0..4u64 {
            wd.record(Cycle::new(20_000 + i), Cycles::new(500), true);
        }
        assert!(wd.poll(Cycle::new(20_500)), "inside base hold");
        assert!(!wd.poll(Cycle::new(21_100)), "base hold expired");
    }

    #[test]
    fn trips_on_failure_rate_alone() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        // Zero penalty but most wakes failed (e.g. dropped tokens absorbed
        // by an idle tail): the failure-rate trigger must still fire.
        for i in 0..4u64 {
            wd.record(Cycle::new(i), Cycles::ZERO, true);
        }
        assert!(wd.in_safe_mode());
    }

    #[test]
    fn demotions_accumulate() {
        let mut wd = Watchdog::new(quick_config(), Cycles::new(20));
        wd.note_demotion(Cycles::new(300));
        wd.note_demotion(Cycles::new(200));
        assert_eq!(wd.stats().demoted_gates, 2);
        assert_eq!(wd.stats().safe_stall_cycles, 500);
        assert!(wd.stats().to_string().contains("2 demoted"));
    }

    #[test]
    #[should_panic(expected = "min_samples")]
    fn rejects_min_samples_above_window() {
        let config = WatchdogConfig {
            window: 4,
            min_samples: 8,
            ..WatchdogConfig::default()
        };
        let _ = Watchdog::new(config, Cycles::new(20));
    }

    #[test]
    fn default_config_is_valid() {
        assert!(WatchdogConfig::default().validate().is_ok());
    }
}
