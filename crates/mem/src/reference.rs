//! The retained "before" memory stack, kept verbatim as an executable
//! specification.
//!
//! [`ReferenceHierarchy`] is the memory model exactly as this workspace
//! shipped it before the hot-path overhaul: per-set `Vec<Vec<Way>>` cache
//! storage behind one pointer chase per probe, division-based index math in
//! the cache and the DRAM controller, and the original hierarchy walk. It
//! exists as the **equivalence oracle**: the scheduler-equivalence suite
//! and the differential fuzzer run whole clusters against this stack and
//! demand bit-identical statistics, which pins every optimization in
//! [`Cache`](crate::Cache) / [`Dram`](crate::Dram) /
//! [`MemoryHierarchy`](crate::MemoryHierarchy) to the seed semantics.
//!
//! Nothing here is exported for production use, and nothing here should be
//! optimized: it is the specification, not a fast path.

use mapg_trace::{AccessKind, MemAccess};
use mapg_units::{Cycle, Cycles};

use crate::cache::{CacheConfig, CacheOutcome, CacheStats};
use crate::dram::{DramConfig, DramStats, RowBufferOutcome};
use crate::faults::DramFaultConfig;
use crate::hierarchy::{AccessResponse, HierarchyConfig, HierarchyStats, ServiceLevel};
use crate::mshr::MshrOutcome;
use crate::prefetch::{PrefetchCandidates, StreamPrefetcher};
use crate::stats::LatencyHistogram;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    last_use: u64,
}

/// The seed cache: one heap allocation per set, division-based indexing.
#[derive(Debug, Clone)]
struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    stats: CacheStats,
    use_clock: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        RefCache {
            config,
            sets: vec![vec![Way::default(); config.associativity as usize]; sets as usize],
            stats: CacheStats::default(),
            use_clock: 0,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.stats.accesses += 1;
        self.use_clock += 1;
        let line = addr / self.config.line_bytes;
        let set_count = self.sets.len() as u64;
        let set_index = (line % set_count) as usize;
        let tag = line / set_count;
        let stamp = self.use_clock;

        let set = &mut self.sets[set_index];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = stamp;
            way.dirty |= is_write;
            let prefetched = way.prefetched;
            way.prefetched = false;
            self.stats.hits += 1;
            return CacheOutcome::Hit { prefetched };
        }

        let victim_index = Self::select_victim(set);
        let victim = &mut set[victim_index];
        let writeback = if victim.valid && victim.dirty {
            let victim_line = victim.tag * set_count + set_index as u64;
            self.stats.writebacks += 1;
            Some(victim_line)
        } else {
            None
        };
        *victim = Way {
            tag,
            valid: true,
            dirty: is_write,
            prefetched: false,
            last_use: stamp,
        };
        CacheOutcome::Miss { writeback }
    }

    fn select_victim(set: &[Way]) -> usize {
        if let Some(invalid) = set.iter().position(|w| !w.valid) {
            return invalid;
        }
        set.iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_use)
            .map(|(i, _)| i)
            .expect("sets are never empty")
    }

    fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.use_clock += 1;
        let line = addr / self.config.line_bytes;
        let set_count = self.sets.len() as u64;
        let set_index = (line % set_count) as usize;
        let tag = line / set_count;
        let stamp = self.use_clock;
        let set = &mut self.sets[set_index];
        if set.iter().any(|w| w.valid && w.tag == tag) {
            return None;
        }
        let victim_index = Self::select_victim(set);
        let victim = &mut set[victim_index];
        let writeback = if victim.valid && victim.dirty {
            let victim_line = victim.tag * set_count + set_index as u64;
            self.stats.writebacks += 1;
            Some(victim_line)
        } else {
            None
        };
        *victim = Way {
            tag,
            valid: true,
            dirty: false,
            prefetched: true,
            last_use: stamp,
        };
        writeback
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes;
        let set_count = self.sets.len() as u64;
        let set_index = (line % set_count) as usize;
        let tag = line / set_count;
        self.sets[set_index].iter().any(|w| w.valid && w.tag == tag)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    next_free: Cycle,
}

/// The seed DRAM controller: division/modulo bank and row decomposition on
/// every access.
#[derive(Debug, Clone)]
struct RefDram {
    config: DramConfig,
    faults: DramFaultConfig,
    banks: Vec<Bank>,
    bus_free: Cycle,
    stats: DramStats,
    obs: mapg_obs::ObsHandle,
}

impl RefDram {
    fn with_faults(config: DramConfig, faults: DramFaultConfig) -> Self {
        RefDram {
            banks: vec![Bank::default(); config.banks as usize],
            bus_free: Cycle::ZERO,
            stats: DramStats::default(),
            faults,
            config,
            obs: mapg_obs::ObsHandle::disabled(),
        }
    }

    fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.obs = obs;
    }

    fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn access(&mut self, now: Cycle, addr: u64, is_write: bool) -> (Cycle, RowBufferOutcome) {
        let row = addr / self.config.row_bytes;
        let bank_count = self.banks.len() as u64;
        let bank_index = (row % bank_count) as usize;
        let row_id = row / bank_count;

        let mut start = now.max(self.banks[bank_index].next_free);
        start = self.apply_refresh(start);

        let (mut array_latency, outcome) = match self.banks[bank_index].open_row {
            Some(open) if open == row_id => {
                self.stats.row_hits += 1;
                (self.config.t_cas, RowBufferOutcome::Hit)
            }
            Some(_) => {
                self.stats.activates += 1;
                (
                    self.config.t_rp + self.config.t_rcd + self.config.t_cas,
                    RowBufferOutcome::Conflict,
                )
            }
            None => {
                self.stats.activates += 1;
                (
                    self.config.t_rcd + self.config.t_cas,
                    RowBufferOutcome::Empty,
                )
            }
        };

        if self.faults.spikes(bank_index, start.raw()) {
            array_latency += self.faults.spike_cycles;
            self.stats.fault_spikes += 1;
            self.obs.emit(
                start.raw(),
                mapg_obs::Scope::Bank(bank_index as u32),
                mapg_obs::EventKind::FaultInjected(mapg_obs::FaultKind::DramSpike),
            );
        }

        let data_ready = start + array_latency;
        let burst_start = data_ready.max(self.bus_free);
        let burst_end = burst_start + self.config.t_burst;
        self.bus_free = burst_end;
        self.stats.bus_busy_cycles += self.config.t_burst.raw();

        let completion = burst_end + self.config.controller_overhead;
        let bank = &mut self.banks[bank_index];
        bank.next_free = burst_end;
        match self.config.page_policy {
            crate::dram::PagePolicy::Open => bank.open_row = Some(row_id),
            crate::dram::PagePolicy::Closed => {
                bank.open_row = None;
            }
        }

        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        (completion, outcome)
    }

    fn try_access_within(
        &mut self,
        now: Cycle,
        slack: Cycles,
        addr: u64,
        is_write: bool,
    ) -> Option<(Cycle, RowBufferOutcome)> {
        let row = addr / self.config.row_bytes;
        let bank_count = self.banks.len() as u64;
        let bank_index = (row % bank_count) as usize;
        let deadline = now + slack;
        if self.banks[bank_index].next_free > deadline || self.bus_free > deadline {
            return None;
        }
        Some(self.access(now, addr, is_write))
    }

    fn apply_refresh(&mut self, start: Cycle) -> Cycle {
        let interval = self.config.refresh_interval.raw();
        if interval == 0 {
            return start;
        }
        let offset = start.raw() % interval;
        if offset < self.config.refresh_duration.raw() {
            self.stats.refresh_stalls += 1;
            let pushed = start.raw() - offset + self.config.refresh_duration.raw();
            Cycle::new(pushed)
        } else {
            start
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RefMshrEntry {
    line: u64,
    completion: Cycle,
}

/// The seed MSHR file: a `retain` sweep on every lookup, no early-out.
#[derive(Debug, Clone)]
struct RefMshr {
    capacity: usize,
    entries: Vec<RefMshrEntry>,
}

impl RefMshr {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        RefMshr {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    fn lookup(&mut self, now: Cycle, line: u64) -> MshrOutcome {
        self.entries.retain(|e| e.completion > now);
        if let Some(entry) = self.entries.iter().find(|e| e.line == line) {
            return MshrOutcome::Merged {
                completion: entry.completion,
            };
        }
        if self.entries.len() >= self.capacity {
            let free_at = self
                .entries
                .iter()
                .map(|e| e.completion)
                .min()
                .expect("full file is non-empty");
            return MshrOutcome::Full { free_at };
        }
        MshrOutcome::Allocated
    }

    fn commit(&mut self, line: u64, completion: Cycle) {
        assert!(
            self.entries.len() < self.capacity,
            "commit on a full MSHR file"
        );
        assert!(
            self.entries.iter().all(|e| e.line != line),
            "line {line:#x} already has an MSHR entry"
        );
        self.entries.push(RefMshrEntry { line, completion });
    }
}

/// The seed L1 → L2 → MSHR → DRAM hierarchy, frozen.
///
/// Construction mirrors [`MemoryHierarchy::new`](crate::MemoryHierarchy);
/// the access path, statistics and trace emissions are the seed
/// implementation verbatim, so a run against this hierarchy must produce
/// exactly the counters a run against the optimized one does.
#[derive(Debug, Clone)]
pub struct ReferenceHierarchy {
    config: HierarchyConfig,
    l1: RefCache,
    l2: RefCache,
    dram: RefDram,
    mshrs: RefMshr,
    prefetcher: StreamPrefetcher,
    pending_prefetches: Vec<(Cycle, u64)>,
    miss_latency: LatencyHistogram,
    mshr_stalls: u64,
}

impl ReferenceHierarchy {
    /// Builds the frozen seed hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any component configuration is inconsistent, with the same
    /// messages as [`MemoryHierarchy::new`](crate::MemoryHierarchy::new).
    pub fn new(config: HierarchyConfig) -> Self {
        // Same up-front validation as the live stack (the frozen copies
        // skip re-checking).
        config.l1.sets();
        config.l2.sets();
        let _ = crate::Dram::with_faults(config.dram, config.dram_faults);
        ReferenceHierarchy {
            l1: RefCache::new(config.l1),
            l2: RefCache::new(config.l2),
            dram: RefDram::with_faults(config.dram, config.dram_faults),
            mshrs: RefMshr::new(config.mshr_entries),
            prefetcher: StreamPrefetcher::new(config.prefetch),
            pending_prefetches: Vec::new(),
            miss_latency: LatencyHistogram::new(),
            mshr_stalls: 0,
            config,
        }
    }

    /// Attaches an observability handle (same wiring as the live stack).
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.dram.set_obs(obs);
    }

    /// Serves one reference issued at `now` — the seed access path.
    pub fn access(&mut self, now: Cycle, access: &MemAccess) -> AccessResponse {
        self.drain_prefetches(now);
        let is_write = access.kind == AccessKind::Store;
        let l1_done = now + self.config.l1.hit_latency;
        match self.l1.access(access.addr, is_write) {
            CacheOutcome::Hit { .. } => {
                return AccessResponse {
                    completion: l1_done,
                    level: ServiceLevel::L1,
                    row: None,
                };
            }
            CacheOutcome::Miss { writeback } => {
                if let Some(victim_line) = writeback {
                    let victim_addr = victim_line * self.config.l1.line_bytes;
                    if let CacheOutcome::Miss {
                        writeback: Some(l2_victim),
                    } = self.l2.access(victim_addr, true)
                    {
                        let l2_victim_addr = l2_victim * self.config.l2.line_bytes;
                        let _ = self.dram.access(l1_done, l2_victim_addr, true);
                    }
                }
            }
        }

        let l2_done = l1_done + self.config.l2.hit_latency;
        match self.l2.access(access.addr, is_write) {
            CacheOutcome::Hit { prefetched } => {
                if prefetched {
                    let line = access.addr / self.config.l2.line_bytes;
                    let candidates = self.prefetcher.observe_prefetch_hit(line);
                    self.fetch_prefetch_candidates(candidates, l2_done);
                }
                AccessResponse {
                    completion: l2_done,
                    level: ServiceLevel::L2,
                    row: None,
                }
            }
            CacheOutcome::Miss { writeback } => {
                if let Some(victim_line) = writeback {
                    let victim_addr = victim_line * self.config.l2.line_bytes;
                    let _ = self.dram.access(l2_done, victim_addr, true);
                }
                self.dram_fill(now, l2_done, access)
            }
        }
    }

    fn dram_fill(&mut self, issued: Cycle, mut ready: Cycle, access: &MemAccess) -> AccessResponse {
        let line = access.addr / self.config.l2.line_bytes;
        let is_write = access.kind == AccessKind::Store;
        loop {
            match self.mshrs.lookup(ready, line) {
                MshrOutcome::Merged { completion } => {
                    return AccessResponse {
                        completion: completion.max(ready),
                        level: ServiceLevel::Dram,
                        row: None,
                    };
                }
                MshrOutcome::Full { free_at } => {
                    self.mshr_stalls += 1;
                    ready = free_at + Cycles::new(1);
                }
                MshrOutcome::Allocated => {
                    let (completion, row) = self.dram.access(ready, access.addr, is_write);
                    self.mshrs.commit(line, completion);
                    self.miss_latency
                        .record(completion.saturating_since(issued));
                    self.issue_prefetches(line, completion);
                    return AccessResponse {
                        completion,
                        level: ServiceLevel::Dram,
                        row: Some(row),
                    };
                }
            }
        }
    }

    fn issue_prefetches(&mut self, line: u64, after: Cycle) {
        let candidates = self.prefetcher.observe_miss(line);
        self.fetch_prefetch_candidates(candidates, after);
    }

    fn fetch_prefetch_candidates(&mut self, candidates: PrefetchCandidates, ready: Cycle) {
        const PENDING_CAP: usize = 32;
        // The seed collected candidates into a Vec; keep that allocation so
        // the reference's cost profile stays exactly the seed's (only the
        // shared prefetcher's return type changed).
        let candidates: Vec<u64> = candidates.into_iter().collect();
        for candidate in candidates {
            let addr = candidate * self.config.l2.line_bytes;
            if self.l2.probe(addr) {
                continue;
            }
            if self.pending_prefetches.len() >= PENDING_CAP {
                self.pending_prefetches.remove(0);
            }
            self.pending_prefetches.push((ready, addr));
        }
    }

    fn drain_prefetches(&mut self, now: Cycle) {
        if self.pending_prefetches.is_empty() {
            return;
        }
        let mut remaining = Vec::with_capacity(self.pending_prefetches.len());
        let pending = std::mem::take(&mut self.pending_prefetches);
        for (ready, addr) in pending {
            if ready > now {
                remaining.push((ready, addr));
                continue;
            }
            if self.l2.probe(addr) {
                continue;
            }
            let slack = Cycles::new(80);
            if self
                .dram
                .try_access_within(now, slack, addr, false)
                .is_none()
            {
                continue;
            }
            self.prefetcher.record_issued();
            if let Some(victim_line) = self.l2.fill_prefetch(addr) {
                let victim_addr = victim_line * self.config.l2.line_bytes;
                let _ = self.dram.access(now, victim_addr, true);
            }
        }
        self.pending_prefetches = remaining;
    }

    /// Snapshot of all statistics, in the same shape as the live stack's
    /// [`MemoryHierarchy::stats`](crate::MemoryHierarchy::stats).
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: *self.l1.stats(),
            l2: *self.l2.stats(),
            dram: *self.dram.stats(),
            miss_latency: self.miss_latency.clone(),
            mshr_stalls: self.mshr_stalls,
            prefetch: *self.prefetcher.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryHierarchy;

    /// Deterministic pseudo-random access stream shared by the equivalence
    /// tests below.
    fn stream(seed: u64, n: usize) -> Vec<(u64, bool, bool)> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % (64 << 20)) & !7;
            let is_write = x.rotate_left(21).is_multiple_of(4);
            let dependent = x.rotate_left(42).is_multiple_of(8);
            out.push((addr, is_write, dependent));
        }
        out
    }

    fn mem_access(addr: u64, is_write: bool, dependent: bool) -> MemAccess {
        MemAccess {
            addr,
            pc: 0x400 + (addr % 64),
            kind: if is_write {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            dependent,
        }
    }

    /// The live hierarchy must reproduce the frozen seed hierarchy response
    /// for response, timestamp for timestamp, and finish with identical
    /// statistics — over every hierarchy configuration knob we ship.
    #[test]
    fn live_hierarchy_matches_reference_exactly() {
        let configs = [
            HierarchyConfig::baseline(),
            HierarchyConfig::with_stream_prefetcher(),
            HierarchyConfig {
                mshr_entries: 2,
                ..HierarchyConfig::baseline()
            },
        ];
        for (ci, config) in configs.into_iter().enumerate() {
            let mut live = MemoryHierarchy::new(config);
            let mut reference = ReferenceHierarchy::new(config);
            let mut now = Cycle::ZERO;
            for (i, (addr, is_write, dependent)) in
                stream(0x5eed + ci as u64, 30_000).into_iter().enumerate()
            {
                let access = mem_access(addr, is_write, dependent);
                let a = live.access(now, &access);
                let b = reference.access(now, &access);
                assert_eq!(a, b, "config {ci}, access {i} @ {addr:#x}");
                // Advance time like a core would: sometimes wait for the
                // data, sometimes fire the next access quickly.
                now = if i % 3 == 0 {
                    a.completion
                } else {
                    now + Cycles::new(1 + (addr % 7))
                };
            }
            assert_eq!(live.stats(), reference.stats(), "config {ci}");
        }
    }

    /// Drives `live` and `reference` through the same demand accesses and
    /// prefetch fills, checking every outcome, probe and writeback. With
    /// `high` set, a third of the addresses carry tag bits above 2^32, and
    /// their low tag halves collide with the realistic addresses'.
    fn lockstep(live: &mut crate::Cache, reference: &mut RefCache, seed: u64, high: bool) {
        for (i, (addr, is_write, prefetch)) in stream(seed, 6_000).into_iter().enumerate() {
            let mut addr = addr % (1 << 16);
            if high {
                addr |= (addr.rotate_left(29) % 3) << 56;
            }
            if prefetch {
                let next = addr + 64;
                assert_eq!(
                    live.fill_prefetch(next),
                    reference.fill_prefetch(next),
                    "{i}"
                );
            }
            let a = live.access(addr, is_write);
            let b = reference.access(addr, is_write);
            assert_eq!(a, b, "access {i} @ {addr:#x}");
            let other = addr ^ (1 << 57);
            assert_eq!(live.probe(other), reference.probe(other), "probe {i}");
        }
        assert_eq!(live.stats(), reference.stats());
    }

    /// Every supported width matches the frozen cache through demand
    /// accesses, prefetch fills and probes. The high tag plane is
    /// allocated on the first tag with upper bits, and neither that, a
    /// clone nor a reset changes an outcome.
    #[test]
    fn lazy_high_tag_plane_matches_reference() {
        for ways in [1u32, 2, 4, 8, 16] {
            let config = CacheConfig {
                size_bytes: u64::from(ways) * 64 * 16,
                associativity: ways,
                line_bytes: 64,
                hit_latency: Cycles::new(1),
            };
            let mut live = crate::Cache::new(config);
            let mut reference = RefCache::new(config);
            lockstep(&mut live, &mut reference, 1, false);
            assert!(
                !live.has_tags_hi(),
                "{ways}-way: realistic tags allocated the plane"
            );
            lockstep(&mut live, &mut reference, 2, true);
            assert!(
                live.has_tags_hi(),
                "{ways}-way: upper tag bits left the plane empty"
            );

            let (mut live_copy, mut reference_copy) = (live.clone(), reference.clone());
            lockstep(&mut live_copy, &mut reference_copy, 3, true);
            lockstep(&mut live, &mut reference, 3, true);

            live.reset();
            assert!(!live.has_tags_hi(), "{ways}-way: reset kept the plane");
            let mut fresh = RefCache::new(config);
            lockstep(&mut live, &mut fresh, 4, false);
            let mut empty_copy = live.clone();
            assert!(!empty_copy.has_tags_hi());
            lockstep(&mut empty_copy, &mut fresh.clone(), 5, true);
            lockstep(&mut live, &mut fresh, 5, true);
        }
    }
}
