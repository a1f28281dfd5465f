//! The synthetic workload generator: turns a [`WorkloadProfile`] into a
//! deterministic, unbounded [`TraceEvent`] stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::address::AddressStream;
use crate::bernoulli::Bernoulli;
use crate::event::{AccessKind, MemAccess, TraceEvent};
use crate::phase::{Phase, PhaseModel};
use crate::profile::WorkloadProfile;

/// A source of trace events, as consumed by the core model.
///
/// The trait exists so the core model is generic over where its instruction
/// stream comes from ([`SyntheticWorkload`] in this workspace, recorded
/// traces in a downstream integration). Streams are unbounded; the consumer
/// decides when to stop (e.g. after N instructions).
pub trait EventSource {
    /// Produces the next event. Never exhausts.
    fn next_event(&mut self) -> TraceEvent;

    /// A human-readable name for reports.
    fn name(&self) -> &str;
}

/// Deterministic synthetic workload driven by a [`WorkloadProfile`].
///
/// The stream alternates compute quanta with memory references. The gap
/// between references (in instructions) is sampled from a geometric
/// distribution whose mean is set by the profile's reference rate, modulated
/// by the current program [phase](crate::Phase). Identical `(profile, seed)`
/// pairs produce identical streams.
///
/// ```
/// use mapg_trace::{EventSource, SyntheticWorkload, WorkloadProfile};
///
/// let profile = WorkloadProfile::mixed("demo");
/// let mut a = SyntheticWorkload::new(&profile, 3);
/// let mut b = SyntheticWorkload::new(&profile, 3);
/// for _ in 0..100 {
///     assert_eq!(a.next_event(), b.next_event());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    profile: WorkloadProfile,
    rng: StdRng,
    phases: PhaseModel,
    /// Mean instruction gap between memory references in each phase,
    /// indexed like [`Phase::ALL`].
    mean_gaps: [f64; 3],
    /// Makes a reference a store (the profile's write fraction).
    store: Bernoulli,
    /// Makes a reference a dependent pointer chase.
    chase: Bernoulli,
    addresses: AddressStream,
    /// Synthetic program counter, cycled over a small set of "instruction
    /// addresses" so PC-indexed predictors see realistic reuse.
    pc_wheel: u64,
    /// A memory access staged to be emitted after the current compute
    /// quantum.
    staged_access: Option<MemAccess>,
    /// Instructions left until the next injected idle period (when the
    /// profile configures idle injection).
    instructions_to_idle: Option<u64>,
}

impl SyntheticWorkload {
    /// Number of distinct synthetic PCs in the wheel.
    const PC_COUNT: u64 = 64;
    /// Byte distance between synthetic PCs.
    const PC_STRIDE: u64 = 4;

    /// Creates the workload for `profile` with the given RNG seed.
    pub fn new(profile: &WorkloadProfile, seed: u64) -> Self {
        let addresses = AddressStream::new(
            profile.working_set_bytes(),
            profile.spatial_locality(),
            profile.hot_regions(),
        );
        let mean_gap = |phase: Phase| {
            let rate = profile.mem_refs_per_kilo_inst() * phase.intensity_multiplier();
            (1000.0 / rate.min(1000.0) - 1.0).max(0.0)
        };
        SyntheticWorkload {
            name: profile.name().to_owned(),
            instructions_to_idle: profile
                .idle_injection()
                .map(|spec| spec.mean_interval_instructions),
            profile: profile.clone(),
            rng: StdRng::seed_from_u64(seed),
            phases: PhaseModel::new(profile.phases().clone()),
            mean_gaps: Phase::ALL.map(mean_gap),
            store: Bernoulli::new(profile.write_fraction()),
            chase: Bernoulli::new(profile.pointer_chase_fraction()),
            addresses,
            pc_wheel: 0,
            staged_access: None,
        }
    }

    /// The profile this workload was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Samples the instruction gap to the next memory reference under the
    /// current phase (geometric distribution, mean `1000/rate - 1`).
    fn sample_gap(&mut self) -> u64 {
        let mean_gap = self.mean_gaps[self.phases.current().index()];
        if mean_gap < 1e-9 {
            return 0;
        }
        // Geometric via inverse transform on the exponential approximation;
        // adequate and cheap for mean gaps in the 2..200 range we use.
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        mapg_units::round(-mean_gap * u.ln()) as u64
    }

    fn make_access(&mut self) -> MemAccess {
        let (addr, pattern) = self.addresses.next_addr(&mut self.rng);
        let kind = if self.store.sample(&mut self.rng) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let dependent = self.chase.sample(&mut self.rng);
        self.pc_wheel = (self.pc_wheel + 1) % Self::PC_COUNT;
        // Real programs issue pointer chases, streaming sweeps and random
        // probes from *different load instructions*; a PC-indexed
        // predictor exploits exactly that correlation. Partition the
        // synthetic PC space by access class so the same structure exists
        // here: class base + a small wheel within the class.
        let class_base = match (dependent, pattern) {
            (true, _) => 0x40_0000,
            (false, crate::AddressPattern::Sequential) => 0x41_0000,
            (false, _) => 0x42_0000,
        };
        MemAccess {
            addr,
            pc: class_base + (self.pc_wheel % (Self::PC_COUNT / 4)) * Self::PC_STRIDE,
            kind,
            dependent,
        }
    }
}

impl EventSource for SyntheticWorkload {
    fn next_event(&mut self) -> TraceEvent {
        // Injected idle periods take precedence; they model the program
        // blocking (I/O, scheduler) regardless of where it was.
        if let (Some(remaining), Some(spec)) =
            (self.instructions_to_idle, self.profile.idle_injection())
        {
            if remaining == 0 {
                // Re-roll the next interval around the configured mean.
                let u: f64 = self.rng.gen::<f64>().max(1e-12);
                let next = (-(spec.mean_interval_instructions as f64) * u.ln()).max(1.0) as u64;
                self.instructions_to_idle = Some(next);
                return TraceEvent::Idle {
                    cycles: spec.duration_cycles,
                };
            }
        }
        if let Some(access) = self.staged_access.take() {
            self.consume_instructions(1);
            self.phases.retire(1, &mut self.rng);
            return TraceEvent::MemAccess(access);
        }
        let gap = self.sample_gap();
        let access = self.make_access();
        if gap == 0 {
            self.consume_instructions(1);
            self.phases.retire(1, &mut self.rng);
            return TraceEvent::MemAccess(access);
        }
        self.staged_access = Some(access);
        let cycles = (mapg_units::ceil(gap as f64 / self.profile.compute_ipc()) as u64).max(1);
        self.consume_instructions(gap);
        self.phases.retire(gap, &mut self.rng);
        TraceEvent::Compute {
            cycles,
            instructions: gap,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl SyntheticWorkload {
    /// Counts retired instructions toward the next injected idle period.
    fn consume_instructions(&mut self, count: u64) {
        if let Some(remaining) = &mut self.instructions_to_idle {
            *remaining = remaining.saturating_sub(count);
        }
    }
}

impl Iterator for SyntheticWorkload {
    type Item = TraceEvent;

    /// Yields the unbounded event stream; never returns `None`.
    fn next(&mut self) -> Option<TraceEvent> {
        Some(self.next_event())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_kinds(workload: &mut SyntheticWorkload, instructions: u64) -> (u64, u64) {
        let mut insts = 0;
        let mut refs = 0;
        while insts < instructions {
            let event = workload.next_event();
            insts += event.instructions();
            if event.as_mem_access().is_some() {
                refs += 1;
            }
        }
        (insts, refs)
    }

    #[test]
    fn reference_rate_tracks_profile() {
        // Stationary balanced phase for a clean measurement.
        let profile = WorkloadProfile::builder("rate_check")
            .mem_refs_per_kilo_inst(100.0)
            .phases(crate::PhaseSchedule::stationary(crate::Phase::Balanced))
            .build();
        let mut w = SyntheticWorkload::new(&profile, 123);
        let (insts, refs) = count_kinds(&mut w, 2_000_000);
        let measured = refs as f64 * 1000.0 / insts as f64;
        assert!(
            (measured - 100.0).abs() < 10.0,
            "measured {measured} refs/ki, expected ~100"
        );
    }

    #[test]
    fn mem_bound_much_denser_than_compute_bound() {
        let mut mem = SyntheticWorkload::new(&WorkloadProfile::mem_bound("m"), 1);
        let mut cpu = SyntheticWorkload::new(&WorkloadProfile::compute_bound("c"), 1);
        let (mi, mr) = count_kinds(&mut mem, 1_000_000);
        let (ci, cr) = count_kinds(&mut cpu, 1_000_000);
        let mem_rate = mr as f64 / mi as f64;
        let cpu_rate = cr as f64 / ci as f64;
        assert!(
            mem_rate > 3.0 * cpu_rate,
            "mem {mem_rate} vs cpu {cpu_rate}"
        );
    }

    #[test]
    fn deterministic_across_clones_of_seed() {
        let profile = WorkloadProfile::mem_bound("det");
        let mut a = SyntheticWorkload::new(&profile, 42);
        let mut b = SyntheticWorkload::new(&profile, 42);
        for _ in 0..10_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let profile = WorkloadProfile::mem_bound("div");
        let mut a = SyntheticWorkload::new(&profile, 1);
        let mut b = SyntheticWorkload::new(&profile, 2);
        let same = (0..1000)
            .filter(|_| a.next_event() == b.next_event())
            .count();
        assert!(same < 1000, "independent seeds produced identical streams");
    }

    #[test]
    fn compute_quanta_respect_ipc() {
        let profile = WorkloadProfile::builder("ipc")
            .compute_ipc(2.0)
            .mem_refs_per_kilo_inst(50.0)
            .build();
        let mut w = SyntheticWorkload::new(&profile, 9);
        for _ in 0..1000 {
            if let TraceEvent::Compute {
                cycles,
                instructions,
            } = w.next_event()
            {
                let expected = (instructions as f64 / 2.0).ceil() as u64;
                assert_eq!(cycles, expected.max(1));
            }
        }
    }

    #[test]
    fn iterator_is_unbounded() {
        let mut w = SyntheticWorkload::new(&WorkloadProfile::mixed("it"), 5);
        assert!(w.by_ref().take(100).count() == 100);
        assert!(w.next().is_some());
    }

    #[test]
    fn pcs_come_from_small_wheel() {
        let mut w = SyntheticWorkload::new(&WorkloadProfile::mem_bound("pc"), 8);
        let mut pcs = std::collections::HashSet::new();
        let mut seen = 0;
        while seen < 1000 {
            if let TraceEvent::MemAccess(access) = w.next_event() {
                pcs.insert(access.pc);
                seen += 1;
            }
        }
        assert!(pcs.len() <= SyntheticWorkload::PC_COUNT as usize);
        assert!(pcs.len() > 1);
    }

    #[test]
    fn idle_injection_emits_idle_periods_at_the_configured_rate() {
        let profile = WorkloadProfile::builder("idle")
            .mem_refs_per_kilo_inst(50.0)
            .idle_injection(crate::IdleInjection::new(10_000, 50_000))
            .build();
        let mut w = SyntheticWorkload::new(&profile, 5);
        let mut idles = 0u64;
        let mut insts = 0u64;
        while insts < 1_000_000 {
            match w.next_event() {
                TraceEvent::Idle { cycles } => {
                    assert_eq!(cycles, 50_000);
                    idles += 1;
                }
                other => insts += other.instructions(),
            }
        }
        let expected = 1_000_000 / 10_000;
        assert!(
            idles as f64 > expected as f64 * 0.7 && (idles as f64) < expected as f64 * 1.4,
            "idle periods {idles}, expected ~{expected}"
        );
    }

    #[test]
    fn no_injection_means_no_idle_events() {
        let mut w = SyntheticWorkload::new(&WorkloadProfile::mem_bound("ni"), 5);
        for _ in 0..10_000 {
            assert!(!matches!(w.next_event(), TraceEvent::Idle { .. }));
        }
    }

    #[test]
    fn store_fraction_matches_profile() {
        let profile = WorkloadProfile::builder("wr")
            .write_fraction(0.25)
            .mem_refs_per_kilo_inst(500.0)
            .build();
        let mut w = SyntheticWorkload::new(&profile, 6);
        let mut stores = 0u32;
        let mut total = 0u32;
        while total < 20_000 {
            if let TraceEvent::MemAccess(access) = w.next_event() {
                total += 1;
                if access.kind == AccessKind::Store {
                    stores += 1;
                }
            }
        }
        let fraction = f64::from(stores) / f64::from(total);
        assert!(
            (fraction - 0.25).abs() < 0.02,
            "store fraction {fraction} far from 0.25"
        );
    }
}
