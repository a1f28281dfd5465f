//! Run reports: the measured outcome of one simulation.

use mapg_cpu::CoreStats;
use mapg_mem::HierarchyStats;
use mapg_obs::{MetricsRegistry, TraceBuffer};
use mapg_power::EnergyAccount;
use mapg_units::{Joules, Seconds};

use crate::controller::GatingStats;
use crate::faults::FaultStats;
use crate::invariants::InvariantReport;
use crate::predictor::PredictorScore;
use crate::watchdog::DegradationStats;

use core::fmt;

/// Everything measured in one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name.
    pub policy: &'static str,
    /// Workload profile name.
    pub workload: String,
    /// Number of cores simulated.
    pub cores: usize,
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// Slowest core's finishing cycle (the run's makespan).
    pub makespan_cycles: u64,
    /// Makespan in wall-clock time.
    pub runtime: Seconds,
    /// The complete energy ledger (core active + stall + DRAM).
    pub energy: EnergyAccount,
    /// Gating activity counters.
    pub gating: GatingStats,
    /// Per-core execution statistics.
    pub core_stats: Vec<CoreStats>,
    /// Shared-memory statistics.
    pub memory: HierarchyStats,
    /// Predictor accuracy, for predictive policies.
    pub predictor: Option<PredictorScore>,
    /// Peak simultaneous wake-ups observed (1-core runs report ≤ 1).
    pub peak_concurrent_wakes: usize,
    /// Runtime invariant-checking outcome (clean unless the controller's
    /// bookkeeping broke a conservation law during the run).
    pub invariants: InvariantReport,
    /// Safe-mode degradation statistics (all zero without a watchdog).
    pub degradation: DegradationStats,
    /// Controller-side fault-injection counts (all zero without a plan;
    /// DRAM spikes are in [`memory`](RunReport::memory)'s DRAM stats).
    pub faults: FaultStats,
    /// Structured event trace, when requested via
    /// [`SimConfig::with_trace`](crate::SimConfig::with_trace). Per-core
    /// sleep spans in the trace reconcile exactly with
    /// [`gating`](RunReport::gating)'s `gated_cycles`.
    pub trace: Option<TraceBuffer>,
    /// Metrics-registry snapshot, when requested via
    /// [`SimConfig::with_metrics`](crate::SimConfig::with_metrics).
    pub metrics: Option<MetricsRegistry>,
}

impl RunReport {
    /// Total cycles of the run (makespan).
    pub fn total_cycles(&self) -> u64 {
        self.makespan_cycles
    }

    /// Total energy, core + DRAM.
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Core-only energy (the gateable part).
    pub fn core_energy(&self) -> Joules {
        self.energy.core_total()
    }

    /// Leakage-flavoured energy (active leakage + stall + residual).
    pub fn leakage_energy(&self) -> Joules {
        self.energy.leakage_like_total()
    }

    /// Energy-delay product over total energy (J·s).
    pub fn edp(&self) -> f64 {
        self.total_energy() * self.runtime
    }

    /// Energy-delay² product (J·s²).
    pub fn ed2p(&self) -> f64 {
        self.edp() * self.runtime.as_secs()
    }

    /// Aggregate instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.makespan_cycles as f64
        }
    }

    /// Memory-stall fraction, averaged over cores weighted by cycles.
    pub fn stall_fraction(&self) -> f64 {
        let total: u64 = self.core_stats.iter().map(|c| c.total_cycles).sum();
        let stalled: u64 = self.core_stats.iter().map(|c| c.stall_cycles).sum();
        if total == 0 {
            0.0
        } else {
            stalled as f64 / total as f64
        }
    }

    /// Core-energy savings relative to `baseline`, as a fraction
    /// (`0.18` = 18 % less core energy than the baseline run).
    pub fn core_energy_savings_vs(&self, baseline: &RunReport) -> f64 {
        1.0 - self.core_energy() / baseline.core_energy()
    }

    /// Leakage-energy savings relative to `baseline`.
    pub fn leakage_savings_vs(&self, baseline: &RunReport) -> f64 {
        1.0 - self.leakage_energy() / baseline.leakage_energy()
    }

    /// Runtime overhead relative to `baseline` (`0.02` = 2 % slower).
    pub fn perf_overhead_vs(&self, baseline: &RunReport) -> f64 {
        self.makespan_cycles as f64 / baseline.makespan_cycles as f64 - 1.0
    }

    /// EDP change relative to `baseline` (negative = better).
    pub fn edp_delta_vs(&self, baseline: &RunReport) -> f64 {
        self.edp() / baseline.edp() - 1.0
    }

    /// The fraction of stall time that was spent collapsed.
    pub fn gated_stall_coverage(&self) -> f64 {
        let stalled: u64 = self.core_stats.iter().map(|c| c.stall_cycles).sum();
        if stalled == 0 {
            0.0
        } else {
            self.gating.gated_cycles as f64 / stalled as f64
        }
    }

    /// Average power over the run (total energy / runtime).
    pub fn average_power(&self) -> mapg_units::Watts {
        self.total_energy() / self.runtime
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{} / {}] {} cores, {} inst, {} cyc ({}), IPC {:.2}, stall {:.1}%",
            self.workload,
            self.policy,
            self.cores,
            self.instructions,
            self.makespan_cycles,
            self.runtime,
            self.ipc(),
            self.stall_fraction() * 100.0,
        )?;
        writeln!(
            f,
            "  energy: total {} core {} (leak-like {}), EDP {:.3e} J·s",
            self.total_energy(),
            self.core_energy(),
            self.leakage_energy(),
            self.edp(),
        )?;
        writeln!(f, "  gating: {}", self.gating)?;
        if let Some(score) = &self.predictor {
            writeln!(f, "  predictor: {score}")?;
        }
        if self.faults.total() > 0 {
            writeln!(f, "  faults: {}", self.faults)?;
        }
        if !self.degradation.is_empty() {
            writeln!(f, "  safe mode: {}", self.degradation)?;
        }
        if !self.invariants.is_clean() {
            writeln!(f, "  INVARIANTS BROKEN: {}", self.invariants)?;
        }
        Ok(())
    }
}

/// Geometric mean of a sequence of positive values; zero for an empty
/// sequence.
///
/// Headline policy comparisons report geomeans across the workload suite,
/// matching the original evaluation's convention.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geometric_mean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        assert!(v > 0.0, "geometric mean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_mem::{HierarchyConfig, MemoryHierarchy};
    use mapg_power::EnergyCategory;

    fn dummy_report(energy_j: f64, cycles: u64) -> RunReport {
        let mut energy = EnergyAccount::new();
        energy.add(EnergyCategory::ActiveDynamic, Joules::new(energy_j * 0.6));
        energy.add(EnergyCategory::ActiveLeakage, Joules::new(energy_j * 0.4));
        RunReport {
            policy: "test",
            workload: "dummy".to_owned(),
            cores: 1,
            instructions: 1_000,
            makespan_cycles: cycles,
            runtime: Seconds::new(cycles as f64 / 2e9),
            energy,
            gating: GatingStats::default(),
            core_stats: Vec::new(),
            memory: MemoryHierarchy::new(HierarchyConfig::baseline()).stats(),
            predictor: None,
            peak_concurrent_wakes: 0,
            invariants: InvariantReport::default(),
            degradation: DegradationStats::default(),
            faults: FaultStats::default(),
            trace: None,
            metrics: None,
        }
    }

    #[test]
    fn savings_and_overhead_signs() {
        let baseline = dummy_report(10.0, 1000);
        let better = dummy_report(8.0, 1020);
        assert!((better.core_energy_savings_vs(&baseline) - 0.2).abs() < 1e-9);
        assert!((better.perf_overhead_vs(&baseline) - 0.02).abs() < 1e-9);
        assert!(better.edp_delta_vs(&baseline) < 0.0, "EDP should improve");
    }

    #[test]
    fn identical_reports_have_zero_deltas() {
        let a = dummy_report(5.0, 500);
        let b = dummy_report(5.0, 500);
        assert!(a.core_energy_savings_vs(&b).abs() < 1e-12);
        assert!(a.perf_overhead_vs(&b).abs() < 1e-12);
        assert!(a.edp_delta_vs(&b).abs() < 1e-12);
    }

    #[test]
    fn derived_metrics() {
        let r = dummy_report(4.0, 2000);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
        assert!(r.edp() > 0.0);
        assert!(r.ed2p() < r.edp(), "runtime < 1 s shrinks ED²P");
        assert!(r.average_power().as_watts() > 0.0);
        assert_eq!(r.total_cycles(), 2000);
        assert_eq!(r.stall_fraction(), 0.0, "no core stats");
        assert_eq!(r.gated_stall_coverage(), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_nonpositive() {
        let _ = geometric_mean([1.0, 0.0]);
    }

    #[test]
    fn display_contains_key_lines() {
        let text = dummy_report(1.0, 100).to_string();
        assert!(text.contains("dummy"), "{text}");
        assert!(text.contains("energy:"), "{text}");
        assert!(text.contains("gating:"), "{text}");
    }
}
