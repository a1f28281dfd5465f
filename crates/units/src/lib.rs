//! Strongly-typed physical quantities for the MAPG reproduction.
//!
//! Power-gating analysis constantly mixes quantities measured in core cycles
//! (stall durations, break-even times, wakeup latencies) with quantities
//! measured in physical units (leakage watts, transition joules, supply
//! volts). Mixing those up is exactly the kind of catastrophic-but-silent bug
//! a reproduction cannot afford, so every quantity gets a newtype
//! ([C-NEWTYPE]) and the conversions between the cycle domain and the time
//! domain are explicit and always go through a [`Hertz`] clock frequency.
//!
//! # Example
//!
//! ```
//! use mapg_units::{Cycles, Hertz, Watts};
//!
//! let clock = Hertz::from_ghz(2.0);
//! let stall = Cycles::new(400);
//! let leakage = Watts::new(0.35);
//!
//! // Energy wasted leaking through a 400-cycle stall at 2 GHz:
//! let wasted = leakage * stall.at(clock);
//! assert!((wasted.as_joules() - 0.35 * 200e-9).abs() < 1e-18);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycles;
mod electrical;
mod energy;
mod float;
mod ratio;

pub use cycles::{Cycle, Cycles};
pub use electrical::{Amperes, Volts};
pub use energy::{Hertz, Joules, Seconds, Watts};
pub use float::{ceil, round};
pub use ratio::Ratio;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_round_trip() {
        let clock = Hertz::from_ghz(1.0);
        let c = Cycles::new(1_000_000_000);
        assert!((c.at(clock).as_secs() - 1.0).abs() < 1e-12);
    }
}
