//! The sleep-transistor (power-gating) circuit design space.
//!
//! A power-gating design inserts header switches between the supply and the
//! core's virtual-VDD rail. One free parameter — the **switch width ratio**
//! `W_switch / W_core` — controls every figure of merit through first-order
//! physics:
//!
//! | figure of merit | first-order law | direction |
//! |---|---|---|
//! | wake-up latency | `t_wake ≈ C_virtual·Vdd / I_switch ∝ 1/ratio` | wider = faster |
//! | residual leakage | switch off-current `∝ ratio` (plus retention floor) | wider = leakier |
//! | rush current | `I ≈ C_virtual·Vdd / t_wake` | wider = harsher |
//! | area overhead | switch area `∝ ratio` | wider = bigger |
//! | transition energy | `≈ C_virtual·Vdd²` per sleep/wake pair | ~constant |
//!
//! MAPG's circuit contribution is choosing this trade-off for *fast* wakeup
//! so the break-even time shrinks to a fraction of one DRAM access. The
//! constants below place a 3 %-width design at ≈5 ns wake-up and ≈40-cycle
//! break-even at 2 GHz — inside the envelope DATE-era 45 nm studies report.

use core::ops::RangeInclusive;

use mapg_units::{Amperes, Cycles, Hertz, Joules, Ratio, Seconds};

use crate::tech::TechnologyParams;

/// What happens to the core's state when the rail collapses.
///
/// The choice trades residual leakage against restart cost:
///
/// - **Retentive**: balloon/retention flops hold architectural state on an
///   always-on shadow rail. Restart is instant, but the shadow rail leaks
///   (the residual-leakage *floor*).
/// - **Non-retentive**: architectural state is flushed to the (ungated) L2
///   before collapse. Sleep entry takes longer (the flush) and every wake
///   pays a cold-start penalty (pipeline/predictor refill), but the floor
///   leakage drops — there is nothing left to keep alive.
///
/// MAPG's default is retentive: per-stall gating wakes far too often to
/// amortize cold starts (experiment R-F12 quantifies exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionStyle {
    /// Retention flops hold state; instant restart.
    Retentive,
    /// State flushed; wake pays a cold-start refill penalty.
    NonRetentive,
}

/// Virtual-rail capacitance charged on every wake-up (farads).
/// Core circuit + local decap for a ~1 W embedded core.
const C_VIRTUAL_F: f64 = 5e-9;

/// Control/sequencing energy overhead multiplier on the CV² charge.
const TRANSITION_OVERHEAD: f64 = 1.2;

/// Wake-up time scaling constant: `t_wake = K_WAKE / ratio` seconds.
/// Calibrated so a 3 % switch wakes in 5 ns.
const K_WAKE_S: f64 = 0.15e-9;

/// Sleep-entry time (isolate outputs, assert sleep): fixed.
const T_ENTRY_S: f64 = 1.5e-9;

/// Residual leakage floor with retention flops (shadow rail + control).
const RESIDUAL_FLOOR: f64 = 0.01;

/// Residual leakage floor without retention (control logic only).
const RESIDUAL_FLOOR_NON_RETENTIVE: f64 = 0.003;

/// Extra sleep-entry time for the architectural-state flush (seconds).
const T_FLUSH_S: f64 = 4.0e-9;

/// Cold-start refill time after a non-retentive wake (pipeline, branch
/// predictor warm-up; seconds).
const T_COLD_START_S: f64 = 10.0e-9;

/// Residual leakage slope versus switch width ratio.
const RESIDUAL_SLOPE: f64 = 0.4;

/// Area overhead per unit of switch width ratio.
const AREA_SLOPE: f64 = 0.9;

/// The switch width ratios the model covers (see
/// [`PgCircuitDesign::validate_switch_width`]).
const SWITCH_WIDTH_RANGE: RangeInclusive<f64> = 0.005..=0.2;

/// One point in the power-gating circuit design space.
///
/// See the [crate-level example](crate) for break-even usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgCircuitDesign {
    switch_width_ratio: f64,
    retention: RetentionStyle,
    entry_time: Seconds,
    wakeup_time: Seconds,
    cold_start_time: Seconds,
    transition_energy: Joules,
    residual_leakage: Ratio,
    area_overhead: Ratio,
    rush_current: Amperes,
}

impl PgCircuitDesign {
    /// Checks that the model covers `ratio`: `[0.005, 0.2]` — below, the
    /// switch cannot deliver the core's active current (IR-drop
    /// violation); above, the model's first-order laws stop holding.
    ///
    /// # Errors
    ///
    /// Returns the message naming the range and `ratio` when it is
    /// outside the range (or NaN).
    pub fn validate_switch_width(ratio: f64) -> Result<(), String> {
        if SWITCH_WIDTH_RANGE.contains(&ratio) {
            Ok(())
        } else {
            Err(format!(
                "switch width ratio must be in [{}, {}], got {ratio}",
                SWITCH_WIDTH_RANGE.start(),
                SWITCH_WIDTH_RANGE.end()
            ))
        }
    }

    /// Derives a design point from the switch width ratio.
    ///
    /// # Panics
    ///
    /// Panics if [`PgCircuitDesign::validate_switch_width`] rejects
    /// `ratio`.
    pub fn from_switch_width(ratio: f64, tech: &TechnologyParams) -> Self {
        if let Err(message) = PgCircuitDesign::validate_switch_width(ratio) {
            panic!("{message}");
        }
        let vdd = tech.vdd().as_volts();
        let wakeup_time = Seconds::new(K_WAKE_S / ratio);
        let transition_energy = Joules::new(C_VIRTUAL_F * vdd * vdd * TRANSITION_OVERHEAD);
        let rush_current = Amperes::new(C_VIRTUAL_F * vdd / wakeup_time.as_secs());
        PgCircuitDesign {
            switch_width_ratio: ratio,
            retention: RetentionStyle::Retentive,
            entry_time: Seconds::new(T_ENTRY_S),
            wakeup_time,
            cold_start_time: Seconds::ZERO,
            transition_energy,
            residual_leakage: Ratio::saturating(RESIDUAL_FLOOR + RESIDUAL_SLOPE * ratio),
            area_overhead: Ratio::saturating(AREA_SLOPE * ratio),
            rush_current,
        }
    }

    /// Re-derives the design for a different retention style (see
    /// [`RetentionStyle`]).
    pub fn with_retention(mut self, retention: RetentionStyle) -> Self {
        self.retention = retention;
        match retention {
            RetentionStyle::Retentive => {
                self.entry_time = Seconds::new(T_ENTRY_S);
                self.cold_start_time = Seconds::ZERO;
                self.residual_leakage =
                    Ratio::saturating(RESIDUAL_FLOOR + RESIDUAL_SLOPE * self.switch_width_ratio);
            }
            RetentionStyle::NonRetentive => {
                self.entry_time = Seconds::new(T_ENTRY_S + T_FLUSH_S);
                self.cold_start_time = Seconds::new(T_COLD_START_S);
                self.residual_leakage = Ratio::saturating(
                    RESIDUAL_FLOOR_NON_RETENTIVE + RESIDUAL_SLOPE * self.switch_width_ratio,
                );
            }
        }
        self
    }

    /// The retention style this design point uses.
    pub fn retention(&self) -> RetentionStyle {
        self.retention
    }

    /// Cold-start refill time after a wake (zero for retentive designs).
    pub fn cold_start_time(&self) -> Seconds {
        self.cold_start_time
    }

    /// Cold-start refill in cycles at `clock` (zero for retentive designs).
    pub fn cold_start_cycles(&self, clock: Hertz) -> Cycles {
        if self.cold_start_time.as_secs() == 0.0 {
            Cycles::ZERO
        } else {
            Self::to_cycles(self.cold_start_time, clock)
        }
    }

    /// The MAPG design point: 3 % switches, ≈5 ns wake-up. Fast enough to
    /// hide under a DRAM access, cheap enough to win on stalls of ~50+
    /// cycles.
    pub fn fast_wakeup(tech: &TechnologyParams) -> Self {
        PgCircuitDesign::from_switch_width(0.03, tech)
    }

    /// A conventional low-leakage design: 1 % switches, slow (~15 ns)
    /// wake-up. What pre-MAPG idle-oriented gating would use.
    pub fn conservative(tech: &TechnologyParams) -> Self {
        PgCircuitDesign::from_switch_width(0.01, tech)
    }

    /// An aggressive design: 8 % switches, ~2 ns wake-up, paying residual
    /// leakage and rush current for it.
    pub fn aggressive(tech: &TechnologyParams) -> Self {
        PgCircuitDesign::from_switch_width(0.08, tech)
    }

    /// Evaluates a sweep of width ratios (experiment R-T1).
    pub fn design_space(tech: &TechnologyParams, ratios: &[f64]) -> Vec<PgCircuitDesign> {
        ratios
            .iter()
            .map(|&r| PgCircuitDesign::from_switch_width(r, tech))
            .collect()
    }

    /// The switch width ratio this point was derived from.
    pub fn switch_width_ratio(&self) -> f64 {
        self.switch_width_ratio
    }

    /// Sleep-entry time (isolation + sleep assertion).
    pub fn entry_time(&self) -> Seconds {
        self.entry_time
    }

    /// Wake-up time (virtual-rail recharge to operational voltage).
    pub fn wakeup_time(&self) -> Seconds {
        self.wakeup_time
    }

    /// Sleep-entry latency in cycles at `clock` (rounded up, at least 1).
    pub fn entry_cycles(&self, clock: Hertz) -> Cycles {
        Self::to_cycles(self.entry_time, clock)
    }

    /// Wake-up latency in cycles at `clock` (rounded up, at least 1).
    pub fn wakeup_cycles(&self, clock: Hertz) -> Cycles {
        Self::to_cycles(self.wakeup_time, clock)
    }

    /// Energy dissipated per complete sleep/wake pair.
    pub fn transition_energy(&self) -> Joules {
        self.transition_energy
    }

    /// Fraction of nominal leakage that persists while gated.
    pub fn residual_leakage(&self) -> Ratio {
        self.residual_leakage
    }

    /// Core-area overhead of the switch network.
    pub fn area_overhead(&self) -> Ratio {
        self.area_overhead
    }

    /// Peak inrush current of one core's wake-up. Summed across
    /// simultaneously waking cores, this is what the di/dt (token) budget
    /// constrains.
    pub fn rush_current(&self) -> Amperes {
        self.rush_current
    }

    /// Power drawn while gated (residual leakage).
    pub fn gated_power(&self, tech: &TechnologyParams) -> mapg_units::Watts {
        tech.leakage_power() * self.residual_leakage.value()
    }

    /// The minimum gated duration for a net energy win, in cycles at
    /// `clock`.
    ///
    /// Gating a stall of duration `t` (relative to sitting clock-gated,
    /// which burns full leakage) saves `P_leak·(1−residual)·t` and costs
    /// the transition energy, so the energy break-even is
    /// `t_be = E_trans / (P_leak·(1−residual))`. The mechanism also cannot
    /// profit from stalls shorter than the entry+wake machinery itself, so
    /// the reported break-even is the maximum of the two.
    pub fn break_even_cycles(&self, tech: &TechnologyParams, clock: Hertz) -> Cycles {
        let saved_power = tech.leakage_power() * self.residual_leakage.complement().value();
        let t_energy = Seconds::new(self.transition_energy.as_joules() / saved_power.as_watts());
        let energy_cycles = Self::to_cycles(t_energy, clock);
        let latency_cycles =
            self.entry_cycles(clock) + self.wakeup_cycles(clock) + self.cold_start_cycles(clock);
        energy_cycles.max(latency_cycles)
    }

    fn to_cycles(time: Seconds, clock: Hertz) -> Cycles {
        let cycles = mapg_units::ceil(time.as_secs() * clock.as_hz()) as u64;
        Cycles::new(cycles.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::bulk_45nm()
    }

    #[test]
    fn calibration_point_three_percent() {
        let d = PgCircuitDesign::fast_wakeup(&tech());
        assert!((d.wakeup_time().as_nanos() - 5.0).abs() < 1e-9);
        assert_eq!(d.wakeup_cycles(Hertz::from_ghz(2.0)), Cycles::new(10));
        assert_eq!(d.entry_cycles(Hertz::from_ghz(2.0)), Cycles::new(3));
        assert!((d.transition_energy().as_joules() - 6e-9).abs() < 1e-12);
    }

    #[test]
    fn wider_switch_wakes_faster_but_leaks_more() {
        let t = tech();
        let narrow = PgCircuitDesign::conservative(&t);
        let wide = PgCircuitDesign::aggressive(&t);
        assert!(wide.wakeup_time() < narrow.wakeup_time());
        assert!(wide.residual_leakage() > narrow.residual_leakage());
        assert!(wide.rush_current().as_amps() > narrow.rush_current().as_amps());
        assert!(wide.area_overhead() > narrow.area_overhead());
    }

    #[test]
    fn break_even_in_gateable_range() {
        let t = tech();
        let clock = Hertz::from_ghz(2.0);
        let bet = PgCircuitDesign::fast_wakeup(&t).break_even_cycles(&t, clock);
        // Must be far below a ~150-cycle DRAM stall, far above trivial.
        assert!(bet.raw() > 10, "break-even {bet} suspiciously short");
        assert!(bet.raw() < 150, "break-even {bet} too long");
    }

    #[test]
    fn break_even_floor_is_transition_latency() {
        // With a huge leakage budget the energy term shrinks below the
        // latency floor; the floor must win.
        let t = tech().with_total_power(mapg_units::Watts::new(50.0));
        let clock = Hertz::from_ghz(2.0);
        let d = PgCircuitDesign::fast_wakeup(&t);
        let bet = d.break_even_cycles(&t, clock);
        assert_eq!(bet, d.entry_cycles(clock) + d.wakeup_cycles(clock));
    }

    #[test]
    fn break_even_shrinks_with_leakage_fraction() {
        let clock = Hertz::from_ghz(2.0);
        let lo = tech().with_leakage_fraction(0.15);
        let hi = tech().with_leakage_fraction(0.6);
        let bet_lo = PgCircuitDesign::fast_wakeup(&lo).break_even_cycles(&lo, clock);
        let bet_hi = PgCircuitDesign::fast_wakeup(&hi).break_even_cycles(&hi, clock);
        assert!(
            bet_hi < bet_lo,
            "more leakage ⇒ faster amortization: {bet_hi} !< {bet_lo}"
        );
    }

    #[test]
    fn gated_power_is_residual_leakage() {
        let t = tech();
        let d = PgCircuitDesign::fast_wakeup(&t);
        let expected = t.leakage_power().as_watts() * d.residual_leakage().value();
        assert!((d.gated_power(&t).as_watts() - expected).abs() < 1e-12);
        assert!(d.gated_power(&t) < t.leakage_power());
    }

    #[test]
    fn design_space_is_ordered() {
        let t = tech();
        let space = PgCircuitDesign::design_space(&t, &[0.01, 0.02, 0.04, 0.08]);
        assert_eq!(space.len(), 4);
        for pair in space.windows(2) {
            assert!(pair[0].wakeup_time() > pair[1].wakeup_time());
            assert!(pair[0].residual_leakage() < pair[1].residual_leakage());
        }
    }

    #[test]
    #[should_panic(expected = "switch width ratio")]
    fn rejects_undersized_switch() {
        let _ = PgCircuitDesign::from_switch_width(0.001, &tech());
    }

    #[test]
    #[should_panic(expected = "switch width ratio")]
    fn rejects_oversized_switch() {
        let _ = PgCircuitDesign::from_switch_width(0.5, &tech());
    }

    #[test]
    fn cycle_conversion_rounds_up_with_floor() {
        let t = tech();
        let d = PgCircuitDesign::fast_wakeup(&t);
        // At a very slow clock the latencies collapse to the 1-cycle floor.
        let slow = Hertz::from_mhz(1.0);
        assert_eq!(d.entry_cycles(slow), Cycles::new(1));
        assert_eq!(d.wakeup_cycles(slow), Cycles::new(1));
    }

    #[test]
    fn rush_current_matches_cv_over_t() {
        let t = tech();
        let d = PgCircuitDesign::fast_wakeup(&t);
        let expected = 5e-9 * 1.0 / d.wakeup_time().as_secs();
        assert!((d.rush_current().as_amps() - expected).abs() < 1e-9);
    }
}
