//! Program-phase modelling.
//!
//! Real programs are not stationary: `gcc` alternates between pointer-heavy
//! IR manipulation and register-allocation number crunching; `mcf` has long
//! memory-bound stretches punctuated by short arithmetic bursts. Phase
//! structure matters to a gating policy because it changes the *stall
//! interval distribution* over time — a predictor tuned during a compute
//! phase mispredicts at the start of a memory phase.
//!
//! The model is a three-state Markov chain over [`Phase`]s with
//! per-transition dwell lengths; each phase applies a multiplier to the
//! profile's memory-reference rate.

use rand::Rng;

use core::fmt;

/// A program phase class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reference-rate multiplier ≈ 2×: the working set is being streamed or
    /// chased.
    MemoryIntensive,
    /// Reference-rate multiplier 1×.
    Balanced,
    /// Reference-rate multiplier ≈ 0.15×: cache-resident computation.
    ComputeIntensive,
}

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; 3] = [
        Phase::MemoryIntensive,
        Phase::Balanced,
        Phase::ComputeIntensive,
    ];

    /// Multiplier applied to the profile's base memory-reference rate while
    /// this phase is active.
    #[inline]
    pub fn intensity_multiplier(self) -> f64 {
        match self {
            Phase::MemoryIntensive => 2.0,
            Phase::Balanced => 1.0,
            Phase::ComputeIntensive => 0.15,
        }
    }

    /// The phase's position in [`Phase::ALL`].
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::MemoryIntensive => 0,
            Phase::Balanced => 1,
            Phase::ComputeIntensive => 2,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::MemoryIntensive => "mem",
            Phase::Balanced => "bal",
            Phase::ComputeIntensive => "cpu",
        };
        f.write_str(s)
    }
}

/// A static description of a workload's phase behaviour: initial phase,
/// Markov transition matrix, and mean dwell length in instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    start: Phase,
    /// `transition[from][to]`, rows sum to 1.
    transition: [[f64; 3]; 3],
    /// Mean instructions spent in a phase before re-rolling.
    mean_dwell_instructions: u64,
}

impl PhaseSchedule {
    /// A schedule that stays almost entirely in the memory-intensive phase
    /// (mcf/lbm-like programs).
    pub fn mostly_memory() -> Self {
        PhaseSchedule {
            start: Phase::MemoryIntensive,
            transition: [[0.85, 0.12, 0.03], [0.60, 0.30, 0.10], [0.50, 0.30, 0.20]],
            mean_dwell_instructions: 200_000,
        }
    }

    /// A schedule that stays almost entirely in the compute-intensive phase
    /// (namd/h264ref-like programs).
    pub fn mostly_compute() -> Self {
        PhaseSchedule {
            start: Phase::ComputeIntensive,
            transition: [[0.20, 0.30, 0.50], [0.10, 0.30, 0.60], [0.03, 0.12, 0.85]],
            mean_dwell_instructions: 200_000,
        }
    }

    /// A schedule that alternates between all three phases (gcc/astar-like
    /// programs).
    pub fn alternating() -> Self {
        PhaseSchedule {
            start: Phase::Balanced,
            transition: [[0.40, 0.40, 0.20], [0.30, 0.40, 0.30], [0.20, 0.40, 0.40]],
            mean_dwell_instructions: 100_000,
        }
    }

    /// A degenerate single-phase schedule; the workload is stationary.
    /// Useful for controlled sensitivity experiments where phase noise
    /// would obscure the parameter under study.
    pub fn stationary(phase: Phase) -> Self {
        let mut transition = [[0.0; 3]; 3];
        for row in &mut transition {
            row[phase.index()] = 1.0;
        }
        PhaseSchedule {
            start: phase,
            transition,
            mean_dwell_instructions: u64::MAX / 4,
        }
    }

    /// The initial phase.
    pub fn start(&self) -> Phase {
        self.start
    }

    /// Mean phase dwell length in instructions.
    pub fn mean_dwell_instructions(&self) -> u64 {
        self.mean_dwell_instructions
    }

    /// Transition probability from `from` to `to`.
    pub fn probability(&self, from: Phase, to: Phase) -> f64 {
        self.transition[from.index()][to.index()]
    }
}

/// The runtime state of a phase schedule: tracks the current phase and
/// re-rolls transitions as instructions retire.
#[derive(Debug, Clone)]
pub struct PhaseModel {
    schedule: PhaseSchedule,
    current: Phase,
    remaining_instructions: u64,
}

impl PhaseModel {
    /// Starts the model in the schedule's initial phase with a full dwell.
    pub fn new(schedule: PhaseSchedule) -> Self {
        let current = schedule.start();
        let remaining = schedule.mean_dwell_instructions();
        PhaseModel {
            schedule,
            current,
            remaining_instructions: remaining,
        }
    }

    /// The currently active phase.
    pub fn current(&self) -> Phase {
        self.current
    }

    /// Retires `instructions` instructions, possibly transitioning phase.
    /// Returns the phase active *after* the retirement.
    pub fn retire<R: Rng>(&mut self, instructions: u64, rng: &mut R) -> Phase {
        if instructions >= self.remaining_instructions {
            self.transition(rng);
        } else {
            self.remaining_instructions -= instructions;
        }
        self.current
    }

    fn transition<R: Rng>(&mut self, rng: &mut R) {
        let row = self.schedule.transition[self.current.index()];
        let draw: f64 = rng.gen();
        let mut cumulative = 0.0;
        let mut next = self.current;
        for (phase, p) in Phase::ALL.into_iter().zip(row) {
            cumulative += p;
            if draw < cumulative {
                next = phase;
                break;
            }
        }
        self.current = next;
        // Dwell lengths are exponential-ish: uniform in [0.5, 1.5] × mean,
        // enough temporal variety without heavy tails that would make short
        // runs unrepresentative.
        let mean = self.schedule.mean_dwell_instructions() as f64;
        let jitter = 0.5 + rng.gen::<f64>();
        self.remaining_instructions = (mean * jitter).max(1.0) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_sum_to_one() {
        for schedule in [
            PhaseSchedule::mostly_memory(),
            PhaseSchedule::mostly_compute(),
            PhaseSchedule::alternating(),
            PhaseSchedule::stationary(Phase::Balanced),
        ] {
            for from in Phase::ALL {
                let sum: f64 = Phase::ALL
                    .into_iter()
                    .map(|to| schedule.probability(from, to))
                    .sum();
                assert!((sum - 1.0).abs() < 1e-9, "row {from} sums to {sum}");
            }
        }
    }

    #[test]
    fn stationary_never_leaves() {
        let mut model = PhaseModel::new(PhaseSchedule::stationary(Phase::MemoryIntensive));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(model.retire(1_000_000, &mut rng), Phase::MemoryIntensive);
        }
    }

    #[test]
    fn mostly_memory_dwells_in_memory_phase() {
        let mut model = PhaseModel::new(PhaseSchedule::mostly_memory());
        let mut rng = StdRng::seed_from_u64(42);
        let mut in_memory = 0u32;
        let steps = 10_000;
        for _ in 0..steps {
            if model.retire(50_000, &mut rng) == Phase::MemoryIntensive {
                in_memory += 1;
            }
        }
        assert!(
            in_memory > steps / 2,
            "expected majority memory phase, got {in_memory}/{steps}"
        );
    }

    #[test]
    fn retire_only_transitions_after_dwell() {
        let schedule = PhaseSchedule::alternating();
        let mut model = PhaseModel::new(schedule.clone());
        let mut rng = StdRng::seed_from_u64(3);
        // One instruction never exhausts the initial dwell.
        let phase = model.retire(1, &mut rng);
        assert_eq!(phase, schedule.start());
    }

    #[test]
    fn multipliers_ordered() {
        assert!(
            Phase::MemoryIntensive.intensity_multiplier() > Phase::Balanced.intensity_multiplier()
        );
        assert!(
            Phase::Balanced.intensity_multiplier() > Phase::ComputeIntensive.intensity_multiplier()
        );
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::MemoryIntensive.to_string(), "mem");
        assert_eq!(Phase::Balanced.to_string(), "bal");
        assert_eq!(Phase::ComputeIntensive.to_string(), "cpu");
    }
}
