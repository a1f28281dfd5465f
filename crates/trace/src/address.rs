//! Address-stream generation.
//!
//! The stream is a mixture of region-local sequential runs and random jumps,
//! across a small set of "hot regions". The three knobs map directly to
//! hierarchy behaviour:
//!
//! - **spatial locality** (probability of continuing the current run)
//!   controls cache hit rates and DRAM row-buffer hit rates;
//! - **hot region count** controls DRAM bank-level parallelism;
//! - **working-set size** controls whether the stream fits in the caches at
//!   all.

use rand::Rng;

use crate::bernoulli::Bernoulli;

use core::fmt;

/// Cache-line size assumed throughout the workspace (bytes).
pub const LINE_BYTES: u64 = 64;

/// Byte stride of a sequential run (one word). Eight sequential references
/// share a cache line, so spatial locality translates into L1 hits — the
/// mechanism that separates streaming workloads (lbm-like, high locality,
/// decent hit rates) from pointer chasers (mcf-like, jumps on every
/// reference).
pub const SEQ_STRIDE_BYTES: u64 = 8;

/// A classification of how an address was produced, reported for trace
/// statistics and tested against the configured mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressPattern {
    /// Continued the current sequential run (next line in the region).
    Sequential,
    /// Jumped to a random line within the current hot region.
    RegionJump,
    /// Switched to a different hot region.
    RegionSwitch,
}

impl fmt::Display for AddressPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressPattern::Sequential => "seq",
            AddressPattern::RegionJump => "jump",
            AddressPattern::RegionSwitch => "switch",
        };
        f.write_str(s)
    }
}

/// Deterministic generator of a byte-address stream with controlled
/// locality.
///
/// ```
/// use mapg_trace::AddressStream;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let mut stream = AddressStream::new(8 << 20, 0.8, 4);
/// let (addr, _pattern) = stream.next_addr(&mut rng);
/// assert!(addr < 8 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct AddressStream {
    working_set_bytes: u64,
    /// Continues the current sequential run (the spatial locality).
    continue_run: Bernoulli,
    region_bytes: u64,
    /// Current line cursor per region (byte address).
    cursors: Vec<u64>,
    current_region: usize,
    /// Switches regions when a run breaks.
    switch_region: Bernoulli,
}

impl AddressStream {
    /// Creates a stream over `working_set_bytes` bytes split into `regions`
    /// equal hot regions with the given sequential-continuation probability.
    ///
    /// A working set too small to give every region a full cache line
    /// degenerates gracefully: the region count is clamped so each region
    /// holds at least one line (a 64 B working set is always one region,
    /// whatever was asked for). Differential fuzzing found the old
    /// panic-on-starved-regions contract reachable through profiles the
    /// `ProfileBuilder` accepts, which turned `Simulation::run` into a
    /// crash on tiny working sets.
    ///
    /// # Panics
    ///
    /// Panics if the working set is smaller than one line, if `regions` is
    /// zero, or if `spatial_locality` is outside `[0, 1)`.
    pub fn new(working_set_bytes: u64, spatial_locality: f64, regions: u32) -> Self {
        assert!(regions > 0, "need at least one region");
        assert!(
            (0.0..1.0).contains(&spatial_locality),
            "locality must be in [0,1), got {spatial_locality}"
        );
        assert!(
            working_set_bytes >= LINE_BYTES,
            "working set must hold at least one line, got {working_set_bytes} B"
        );
        let line_budget = working_set_bytes / LINE_BYTES;
        let regions = u64::from(regions).min(line_budget).max(1) as u32;
        let region_bytes = working_set_bytes / u64::from(regions);
        let cursors = (0..u64::from(regions)).map(|r| r * region_bytes).collect();
        AddressStream {
            working_set_bytes,
            continue_run: Bernoulli::new(spatial_locality),
            region_bytes,
            cursors,
            current_region: 0,
            switch_region: Bernoulli::new(0.3),
        }
    }

    /// The configured working-set size in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.working_set_bytes
    }

    /// Number of hot regions.
    pub fn regions(&self) -> usize {
        self.cursors.len()
    }

    /// Produces the next address and the pattern class that produced it.
    pub fn next_addr<R: Rng>(&mut self, rng: &mut R) -> (u64, AddressPattern) {
        if self.continue_run.sample(rng) {
            (self.advance_run(), AddressPattern::Sequential)
        } else if self.cursors.len() > 1 && self.switch_region.sample(rng) {
            self.current_region = rng.gen_range(0..self.cursors.len());
            (self.jump_within_region(rng), AddressPattern::RegionSwitch)
        } else {
            (self.jump_within_region(rng), AddressPattern::RegionJump)
        }
    }

    /// Advances the current region's sequential cursor by one word,
    /// wrapping at the region boundary. A cursor stays inside its region
    /// and a region holds at least one line, so one subtraction wraps.
    fn advance_run(&mut self) -> u64 {
        let base = self.region_base(self.current_region);
        let cursor = &mut self.cursors[self.current_region];
        let mut offset = *cursor - base + SEQ_STRIDE_BYTES;
        if offset >= self.region_bytes {
            offset -= self.region_bytes;
        }
        *cursor = base + offset;
        *cursor
    }

    /// Jumps the current region's cursor to a random line inside it.
    fn jump_within_region<R: Rng>(&mut self, rng: &mut R) -> u64 {
        let base = self.region_base(self.current_region);
        let lines = self.region_bytes / LINE_BYTES;
        let line = rng.gen_range(0..lines);
        let addr = base + line * LINE_BYTES;
        self.cursors[self.current_region] = addr;
        addr
    }

    fn region_base(&self, region: usize) -> u64 {
        region as u64 * self.region_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream() -> AddressStream {
        AddressStream::new(1 << 20, 0.7, 4)
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let mut s = stream();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let (addr, _) = s.next_addr(&mut rng);
            assert!(addr < 1 << 20, "address {addr:#x} escaped working set");
            assert_eq!(addr % SEQ_STRIDE_BYTES, 0, "addresses are word-aligned");
        }
    }

    /// Fuzz regression: a working set smaller than one line per requested
    /// region used to panic from deep inside `Simulation::run`; it must
    /// degrade to fewer regions instead.
    #[test]
    fn starved_regions_clamp_instead_of_panicking() {
        let mut s = AddressStream::new(64, 0.99, 8);
        assert_eq!(s.regions(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let (addr, _) = s.next_addr(&mut rng);
            assert!(addr < 64, "address {addr:#x} escaped working set");
        }
        // Enough lines for every requested region: no clamping.
        let s = AddressStream::new(4 << 10, 0.5, 8);
        assert_eq!(s.regions(), 8);
    }

    #[test]
    fn locality_mixture_approximates_parameter() {
        let mut s = AddressStream::new(1 << 20, 0.8, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let sequential = (0..n)
            .filter(|_| matches!(s.next_addr(&mut rng).1, AddressPattern::Sequential))
            .count();
        let fraction = sequential as f64 / n as f64;
        assert!(
            (fraction - 0.8).abs() < 0.02,
            "sequential fraction {fraction} far from 0.8"
        );
    }

    #[test]
    fn sequential_runs_advance_by_word() {
        let mut s = AddressStream::new(1 << 16, 0.999, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (first, _) = s.next_addr(&mut rng);
        let (second, pattern) = s.next_addr(&mut rng);
        if pattern == AddressPattern::Sequential {
            let expected = (first + SEQ_STRIDE_BYTES) % (1 << 16);
            assert_eq!(second, expected);
        }
        // Eight consecutive sequential references fit in one line.
        const _: () = assert!(SEQ_STRIDE_BYTES * 8 == LINE_BYTES);
    }

    #[test]
    fn zero_locality_never_sequential() {
        let mut s = AddressStream::new(1 << 18, 0.0, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let (_, pattern) = s.next_addr(&mut rng);
            assert_ne!(pattern, AddressPattern::Sequential);
        }
    }

    #[test]
    fn single_region_never_switches() {
        let mut s = AddressStream::new(1 << 18, 0.2, 1);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let (_, pattern) = s.next_addr(&mut rng);
            assert_ne!(pattern, AddressPattern::RegionSwitch);
        }
    }

    #[test]
    #[should_panic(expected = "working set must hold at least one line")]
    fn rejects_tiny_working_set() {
        let _ = AddressStream::new(32, 0.5, 1);
    }

    /// 128 B across 4 requested regions used to be rejected; it now clamps
    /// to the 2 regions the line budget allows.
    #[test]
    fn sub_line_regions_clamp() {
        assert_eq!(AddressStream::new(128, 0.5, 4).regions(), 2);
    }

    #[test]
    fn accessors() {
        let s = stream();
        assert_eq!(s.working_set_bytes(), 1 << 20);
        assert_eq!(s.regions(), 4);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = stream();
        let mut b = stream();
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        for _ in 0..1000 {
            assert_eq!(a.next_addr(&mut rng_a), b.next_addr(&mut rng_b));
        }
    }
}
