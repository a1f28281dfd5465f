//! DRAM energy model: converts controller activity counters into joules.
//!
//! Per-operation energies sit in the DDR3 x8-device datasheet range
//! (activate ≈ 15 nJ, read/write burst ≈ 10/12 nJ per 64 B line across the
//! rank) plus a background term for standby/refresh power. Every run adds
//! both terms to its energy ledger (`DramAccess`, `DramBackground`), so
//! they are part of the total energy and of every EDP column; the
//! core-energy columns leave them out, and no experiment prints DRAM
//! energy on its own. Core gating changes DRAM energy only through
//! runtime (the background term).

use mapg_mem::DramStats;
use mapg_units::{Joules, Seconds, Watts};

/// Converts [`DramStats`] into energy.
///
/// ```
/// use mapg_power::DramEnergyModel;
/// use mapg_mem::DramStats;
/// use mapg_units::Seconds;
///
/// let model = DramEnergyModel::ddr3();
/// let stats = DramStats { reads: 1000, writes: 200, activates: 400, ..DramStats::default() };
/// let energy = model.energy(&stats, Seconds::new(1e-3));
/// assert!(energy.as_joules() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramEnergyModel {
    /// Energy per row activation (precharge+activate pair amortized).
    pub activate_energy: Joules,
    /// Energy per read burst (one cache line).
    pub read_energy: Joules,
    /// Energy per write burst (one cache line).
    pub write_energy: Joules,
    /// Standby + refresh background power of the rank.
    pub background_power: Watts,
}

impl DramEnergyModel {
    /// DDR3-class defaults.
    pub fn ddr3() -> Self {
        DramEnergyModel {
            activate_energy: Joules::from_picojoules(15_000.0),
            read_energy: Joules::from_picojoules(10_000.0),
            write_energy: Joules::from_picojoules(12_000.0),
            background_power: Watts::from_milliwatts(150.0),
        }
    }

    /// Total DRAM energy for the given activity over `elapsed` wall-clock
    /// time.
    pub fn energy(&self, stats: &DramStats, elapsed: Seconds) -> Joules {
        self.access_energy(stats) + self.background_power * elapsed
    }

    /// The activity-proportional part only.
    pub fn access_energy(&self, stats: &DramStats) -> Joules {
        self.activate_energy * stats.activates as f64
            + self.read_energy * stats.reads as f64
            + self.write_energy * stats.writes as f64
    }
}

impl Default for DramEnergyModel {
    fn default() -> Self {
        DramEnergyModel::ddr3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_activity_is_background_only() {
        let model = DramEnergyModel::ddr3();
        let stats = DramStats::default();
        let elapsed = Seconds::new(2.0);
        let energy = model.energy(&stats, elapsed);
        assert_eq!(energy, model.background_power * elapsed);
        assert_eq!(model.access_energy(&stats), Joules::ZERO);
    }

    #[test]
    fn access_energy_sums_components() {
        let model = DramEnergyModel::ddr3();
        let stats = DramStats {
            reads: 10,
            writes: 5,
            activates: 3,
            ..DramStats::default()
        };
        let expected = 3.0 * 15e-9 + 10.0 * 10e-9 + 5.0 * 12e-9;
        assert!((model.access_energy(&stats).as_joules() - expected).abs() < 1e-15);
    }

    #[test]
    fn row_hits_are_cheaper_than_conflicts() {
        // Same access count, fewer activates ⇒ less energy. This is why
        // row-buffer locality matters to the total energy numbers.
        let model = DramEnergyModel::ddr3();
        let hits = DramStats {
            reads: 100,
            activates: 10,
            ..DramStats::default()
        };
        let conflicts = DramStats {
            reads: 100,
            activates: 100,
            ..DramStats::default()
        };
        assert!(model.access_energy(&hits) < model.access_energy(&conflicts));
    }

    #[test]
    fn longer_runtime_costs_more_background() {
        let model = DramEnergyModel::ddr3();
        let stats = DramStats::default();
        let short = model.energy(&stats, Seconds::new(1e-3));
        let long = model.energy(&stats, Seconds::new(2e-3));
        assert!(long > short);
    }
}
