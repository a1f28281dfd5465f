//! The full hierarchy: L1 → L2 (LLC) → MSHRs → DRAM.

use mapg_trace::{AccessKind, MemAccess};
use mapg_units::{Cycle, Cycles};

use crate::cache::{Cache, CacheConfig, CacheOutcome, CacheStats};
use crate::dram::{Dram, DramConfig, DramStats, RowBufferOutcome};
use crate::error::ConfigError;
use crate::faults::DramFaultConfig;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::{PrefetchCandidates, PrefetchConfig, PrefetchStats, StreamPrefetcher};
use crate::stats::LatencyHistogram;

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2, the last-level cache.
    pub l2: CacheConfig,
    /// DRAM device and controller.
    pub dram: DramConfig,
    /// MSHR entries at the LLC (bounds miss-level parallelism).
    pub mshr_entries: usize,
    /// Stream prefetcher at the LLC (disabled by default).
    pub prefetch: PrefetchConfig,
    /// Deterministic DRAM latency-fault injection (disabled by default).
    pub dram_faults: DramFaultConfig,
}

impl HierarchyConfig {
    /// The workspace default: 32 KiB L1 / 2 MiB L2 / DDR3-1333, 16 MSHRs.
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            dram: DramConfig::ddr3_1333(),
            mshr_entries: 16,
            prefetch: PrefetchConfig::disabled(),
            dram_faults: DramFaultConfig::none(),
        }
    }

    /// The baseline hierarchy with a degree-2 stream prefetcher at the
    /// LLC (experiment R-F11).
    pub fn with_stream_prefetcher() -> Self {
        HierarchyConfig {
            prefetch: PrefetchConfig::stream(),
            ..HierarchyConfig::baseline()
        }
    }

    /// Returns a copy with the given DRAM fault injection configured.
    pub fn with_dram_faults(mut self, faults: DramFaultConfig) -> Self {
        self.dram_faults = faults;
        self
    }

    /// Checks the DRAM, fault-injection and MSHR legs for consistency;
    /// the error's message matches the corresponding panicking path.
    ///
    /// Front-ends that accept hierarchy parameters from users (the
    /// `mapgsim` CLI, the fuzz scenario generator) validate here so bad
    /// input comes back as a diagnostic instead of a panic.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        self.dram.try_validate()?;
        self.dram_faults.validate().map_err(ConfigError::Fault)?;
        if self.mshr_entries == 0 {
            return Err(ConfigError::ZeroMshrs);
        }
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::baseline()
    }
}

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// L1 hit.
    L1,
    /// L2 (LLC) hit.
    L2,
    /// Served by DRAM — the stall class MAPG gates on.
    Dram,
}

/// The hierarchy's answer for one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResponse {
    /// Timestamp at which the data is available to the core.
    pub completion: Cycle,
    /// Level that served the reference.
    pub level: ServiceLevel,
    /// Row-buffer behaviour when DRAM was involved.
    pub row: Option<RowBufferOutcome>,
}

impl AccessResponse {
    /// Latency relative to the request time.
    pub fn latency(&self, issued: Cycle) -> Cycles {
        self.completion.saturating_since(issued)
    }
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Distribution of DRAM-serviced (LLC-miss) latencies.
    pub miss_latency: LatencyHistogram,
    /// References that had to wait for a free MSHR.
    pub mshr_stalls: u64,
    /// Prefetcher activity.
    pub prefetch: PrefetchStats,
}

impl HierarchyStats {
    /// LLC misses per kilo-instruction given the retired instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn llc_mpki(&self, instructions: u64) -> f64 {
        assert!(instructions > 0, "MPKI requires a non-zero denominator");
        self.l2.misses() as f64 * 1000.0 / instructions as f64
    }
}

/// The L1 → L2 → DRAM hierarchy with LLC MSHRs.
///
/// Two owned parts serve each reference. [`CacheLevels`] holds the L1 and
/// L2 tag, LRU and dirty state, which depend only on the order of the
/// references; it *resolves* a reference to the level that serves it and
/// the dirty victims the lookups evicted. [`Backside`] holds everything
/// timed — MSHRs, DRAM, the prefetcher and the miss-latency record — and
/// *serves* that resolution at the time the reference is issued.
/// [`MemoryHierarchy::access`] is drain → resolve → serve; a caller that
/// feeds one reference stream to several timings resolves once and serves
/// once per [`Backside`] (DESIGN §9.7).
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    caches: CacheLevels,
    backside: Backside,
}

impl MemoryHierarchy {
    /// Builds a cold hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any component configuration is inconsistent (see
    /// [`CacheConfig::sets`], [`Dram::new`], [`MshrFile::new`]).
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            caches: CacheLevels::new(&config),
            backside: Backside::new(config),
        }
    }

    /// Fallible [`MemoryHierarchy::new`]: DRAM/MSHR/fault-injection
    /// inconsistencies come back as [`ConfigError`] values instead of
    /// panics (see [`HierarchyConfig::try_validate`]).
    pub fn try_new(config: HierarchyConfig) -> Result<Self, ConfigError> {
        config.try_validate()?;
        Ok(MemoryHierarchy::new(config))
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.backside.config
    }

    /// Attaches an observability handle to the hierarchy's DRAM: per-bank
    /// fault events flow through it. LLC-miss and DRAM counts live in
    /// [`HierarchyStats`], which the run renders as metrics once.
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.backside.set_obs(obs);
    }

    /// Serves one reference issued at `now`.
    pub fn access(&mut self, now: Cycle, access: &MemAccess) -> AccessResponse {
        self.backside.drain_prefetches(&mut self.caches, now);
        let resolution = self.caches.resolve(access);
        self.backside.serve(&self.caches, now, &resolution)
    }

    /// Number of misses in flight at `now` (MSHR occupancy).
    pub fn misses_in_flight(&mut self, now: Cycle) -> usize {
        self.backside.mshrs.in_flight(now)
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.backside.stats(&self.caches)
    }

    /// Cold-resets every component and clears statistics.
    pub fn reset(&mut self) {
        self.caches.reset();
        self.backside.reset();
    }
}

/// What the caches answered for one reference: the level that serves it
/// and the dirty victims its lookups evicted from L2, which the
/// [`Backside`] writes to DRAM. Nothing in it depends on time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Level that serves the reference.
    level: ServiceLevel,
    /// Byte address of the reference.
    addr: u64,
    /// Its L2 line (the MSHR and prefetcher key).
    line: u64,
    is_write: bool,
    /// An L2 hit on a line the prefetcher brought in (the stream is
    /// confirmed).
    prefetched: bool,
    /// Byte address of the dirty L2 line that the L1 victim's writeback
    /// evicted, written to DRAM once L1 is done.
    l1_victim_writeback: Option<u64>,
    /// Byte address of the dirty L2 line the demand miss evicted, written
    /// to DRAM once L2 is done.
    l2_victim_writeback: Option<u64>,
}

/// The order-only half of a [`MemoryHierarchy`]: the L1 and L2 tag, LRU
/// and dirty state. [`CacheLevels::resolve`] reads only a reference's
/// address and write flag, so the same reference stream leaves the same
/// state and gives the same resolutions whatever the timing.
#[derive(Debug, Clone)]
pub struct CacheLevels {
    l1: Cache,
    l2: Cache,
}

impl CacheLevels {
    /// Cold L1 and L2 caches with `config`'s geometries.
    ///
    /// # Panics
    ///
    /// Panics if either geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: &HierarchyConfig) -> Self {
        CacheLevels {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
        }
    }

    /// Looks `access` up in L1 and, on a miss, in L2, updating both the
    /// way a demand reference does.
    ///
    /// Always inlined, as is [`Backside::serve`]: a cluster's
    /// [`MemoryHierarchy::access`] is then one call per reference, which
    /// ran the 16-core `sim_cpu_mapg` benchmark a few percent faster than
    /// calling the two halves out of line.
    #[inline(always)]
    pub fn resolve(&mut self, access: &MemAccess) -> Resolution {
        // Start pulling the L2 set's metadata toward the host caches
        // before the L1 probe: L2 planes are too large to stay resident,
        // and on the L1-miss path the probe below would otherwise eat the
        // full host memory latency. Pure hint, no simulated effect.
        self.l2.prefetch_probe(access.addr);
        let is_write = access.kind == AccessKind::Store;
        let mut resolution = Resolution {
            level: ServiceLevel::L1,
            addr: access.addr,
            line: self.l2.line_of(access.addr),
            is_write,
            prefetched: false,
            l1_victim_writeback: None,
            l2_victim_writeback: None,
        };
        if let CacheOutcome::Miss { writeback } = self.l1.access(access.addr, is_write) {
            // An L1 dirty victim is written into L2; it stays on-chip
            // unless L2 in turn evicts a dirty line, which then drains to
            // DRAM off the critical path.
            if let Some(victim_line) = writeback {
                if let CacheOutcome::Miss {
                    writeback: Some(l2_victim),
                } = self
                    .l2
                    .access(victim_line * self.l1.config().line_bytes, true)
                {
                    resolution.l1_victim_writeback = Some(l2_victim * self.l2.config().line_bytes);
                }
            }
            match self.l2.access(access.addr, is_write) {
                CacheOutcome::Hit { prefetched } => {
                    resolution.level = ServiceLevel::L2;
                    resolution.prefetched = prefetched;
                }
                CacheOutcome::Miss { writeback } => {
                    resolution.level = ServiceLevel::Dram;
                    resolution.l2_victim_writeback =
                        writeback.map(|victim_line| victim_line * self.l2.config().line_bytes);
                }
            }
        }
        resolution
    }

    fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }
}

/// The timed half of a [`MemoryHierarchy`]: MSHRs, DRAM, the stream
/// prefetcher and the miss-latency record. [`Backside::serve`] turns a
/// [`Resolution`] into a completion time.
#[derive(Debug, Clone)]
pub struct Backside {
    config: HierarchyConfig,
    dram: Dram,
    mshrs: MshrFile,
    prefetcher: StreamPrefetcher,
    /// Prefetch candidates waiting for their issue time (keeps DRAM calls
    /// chronological; see [`Backside::drain_prefetches`]).
    pending_prefetches: Vec<(Cycle, u64)>,
    /// Exact minimum `ready` time over `pending_prefetches`, `u64::MAX`
    /// when the queue is empty. `drain_prefetches` runs on *every* access,
    /// but nothing can change until time reaches this mark, so the common
    /// case collapses to a single compare instead of a queue sweep.
    next_prefetch_ready: Cycle,
    miss_latency: LatencyHistogram,
    mshr_stalls: u64,
}

impl Backside {
    /// A cold back side for `config`; its cache geometries only set the
    /// hit latencies and line size it times with.
    ///
    /// # Panics
    ///
    /// Panics if the DRAM, fault or MSHR configuration is inconsistent
    /// (see [`Dram::new`], [`MshrFile::new`]).
    fn new(config: HierarchyConfig) -> Self {
        Backside {
            dram: Dram::with_faults(config.dram, config.dram_faults),
            mshrs: MshrFile::new(config.mshr_entries),
            prefetcher: StreamPrefetcher::new(config.prefetch),
            pending_prefetches: Vec::new(),
            next_prefetch_ready: Cycle::new(u64::MAX),
            miss_latency: LatencyHistogram::new(),
            mshr_stalls: 0,
            config,
        }
    }

    /// A cold back side for `config`, timing with its cache geometries'
    /// hit latencies and line size; DRAM/MSHR/fault-injection
    /// inconsistencies come back as [`ConfigError`] values (see
    /// [`HierarchyConfig::try_validate`]).
    pub fn try_new(config: HierarchyConfig) -> Result<Self, ConfigError> {
        config.try_validate()?;
        Ok(Backside::new(config))
    }

    /// Attaches an observability handle to the DRAM (see
    /// [`MemoryHierarchy::set_obs`]).
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.dram.set_obs(obs);
    }

    /// Serves `resolution`, a reference issued at `now` that `caches`
    /// resolved. `caches` is read only by the prefetcher, to skip lines
    /// already resident.
    #[inline(always)]
    pub fn serve(
        &mut self,
        caches: &CacheLevels,
        now: Cycle,
        resolution: &Resolution,
    ) -> AccessResponse {
        let l1_done = now + self.config.l1.hit_latency;
        if resolution.level == ServiceLevel::L1 {
            return AccessResponse {
                completion: l1_done,
                level: ServiceLevel::L1,
                row: None,
            };
        }
        if let Some(addr) = resolution.l1_victim_writeback {
            let _ = self.dram.access(l1_done, addr, true);
        }
        let l2_done = l1_done + self.config.l2.hit_latency;
        if resolution.level == ServiceLevel::L2 {
            if resolution.prefetched {
                // Stream confirmed: keep the runway ahead of the consumer.
                let candidates = self.prefetcher.observe_prefetch_hit(resolution.line);
                self.fetch_prefetch_candidates(caches, candidates, l2_done);
            }
            return AccessResponse {
                completion: l2_done,
                level: ServiceLevel::L2,
                row: None,
            };
        }
        // The L2 dirty victim goes to DRAM off the critical path: it
        // occupies the bank/bus (affecting later accesses) but the demand
        // miss does not wait for it.
        if let Some(addr) = resolution.l2_victim_writeback {
            let _ = self.dram.access(l2_done, addr, true);
        }
        self.dram_fill(caches, now, l2_done, resolution)
    }

    /// Handles the DRAM leg of an LLC miss, including MSHR allocation.
    fn dram_fill(
        &mut self,
        caches: &CacheLevels,
        issued: Cycle,
        mut ready: Cycle,
        resolution: &Resolution,
    ) -> AccessResponse {
        let line = resolution.line;
        loop {
            match self.mshrs.lookup(ready, line) {
                MshrOutcome::Merged { completion } => {
                    // Secondary miss: ride the in-flight fetch.
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
                    let (completion, row) =
                        self.dram
                            .access(ready, resolution.addr, resolution.is_write);
                    self.mshrs.commit(line, completion);
                    self.miss_latency
                        .record(completion.saturating_since(issued));
                    let candidates = self.prefetcher.observe_miss(line);
                    self.fetch_prefetch_candidates(caches, candidates, completion);
                    return AccessResponse {
                        completion,
                        level: ServiceLevel::Dram,
                        row: Some(row),
                    };
                }
            }
        }
    }

    /// Queues not-yet-resident candidate lines for prefetching once time
    /// reaches `ready`. Candidates are not fetched immediately because the
    /// incremental DRAM model serializes by call order: issuing a fetch at
    /// a future timestamp would block demand accesses that arrive earlier.
    fn fetch_prefetch_candidates(
        &mut self,
        caches: &CacheLevels,
        candidates: PrefetchCandidates,
        ready: Cycle,
    ) {
        const PENDING_CAP: usize = 32;
        for candidate in candidates {
            let addr = candidate * self.config.l2.line_bytes;
            if caches.l2.probe(addr) {
                continue;
            }
            if self.pending_prefetches.len() >= PENDING_CAP {
                // Drop the stalest. It may have held the cached minimum;
                // re-derive it (rare: only under sustained overflow).
                self.pending_prefetches.remove(0);
                self.next_prefetch_ready = self
                    .pending_prefetches
                    .iter()
                    .map(|&(r, _)| r)
                    .fold(Cycle::new(u64::MAX), Cycle::min);
            }
            self.pending_prefetches.push((ready, addr));
            self.next_prefetch_ready = self.next_prefetch_ready.min(ready);
        }
    }

    /// Issues queued prefetches whose time has come into `caches`' L2.
    /// Prefetches are lowest priority: they only take idle DRAM slots
    /// ([`Dram::try_access_idle`]) and are dropped under load, like real
    /// prefetch throttling. With the prefetcher disabled nothing is ever
    /// queued, and this never touches `caches`.
    ///
    /// This runs at the top of every demand access, so it is gated on the
    /// cached [`next_prefetch_ready`](Self::next_prefetch_ready) minimum:
    /// until time reaches the earliest queued issue time, a sweep could
    /// only re-keep every entry, so skipping it is behaviour-preserving.
    /// When a sweep does run it compacts the queue in place (stable order,
    /// no allocation) instead of rebuilding it through a scratch `Vec`.
    #[inline]
    fn drain_prefetches(&mut self, caches: &mut CacheLevels, now: Cycle) {
        if self.next_prefetch_ready > now {
            return;
        }
        self.drain_due_prefetches(caches, now);
    }

    /// The sweep of [`Backside::drain_prefetches`], out of line so the
    /// common case stays one compare in every access.
    fn drain_due_prefetches(&mut self, caches: &mut CacheLevels, now: Cycle) {
        let mut write = 0;
        let mut min_ready = Cycle::new(u64::MAX);
        for read in 0..self.pending_prefetches.len() {
            let (ready, addr) = self.pending_prefetches[read];
            if ready > now {
                self.pending_prefetches[write] = (ready, addr);
                write += 1;
                min_ready = min_ready.min(ready);
                continue;
            }
            if caches.l2.probe(addr) {
                continue; // demand beat us to it
            }
            // Up to ~one access worth of queueing is tolerated; beyond
            // that the prefetch is shed (drop-under-load throttling).
            let slack = Cycles::new(80);
            if self
                .dram
                .try_access_within(now, slack, addr, false)
                .is_none()
            {
                continue; // dropped under load
            }
            self.prefetcher.record_issued();
            if let Some(victim_line) = caches.l2.fill_prefetch(addr) {
                let victim_addr = victim_line * self.config.l2.line_bytes;
                let _ = self.dram.access(now, victim_addr, true);
            }
        }
        self.pending_prefetches.truncate(write);
        self.next_prefetch_ready = min_ready;
    }

    /// Snapshot of all statistics, with the cache counters of `caches`.
    pub fn stats(&self, caches: &CacheLevels) -> HierarchyStats {
        HierarchyStats {
            l1: *caches.l1.stats(),
            l2: *caches.l2.stats(),
            dram: *self.dram.stats(),
            miss_latency: self.miss_latency.clone(),
            mshr_stalls: self.mshr_stalls,
            prefetch: *self.prefetcher.stats(),
        }
    }

    fn reset(&mut self) {
        self.dram.reset();
        self.mshrs.reset();
        self.prefetcher = StreamPrefetcher::new(self.config.prefetch);
        self.pending_prefetches.clear();
        self.next_prefetch_ready = Cycle::new(u64::MAX);
        self.miss_latency = LatencyHistogram::new();
        self.mshr_stalls = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(addr: u64) -> MemAccess {
        MemAccess {
            addr,
            pc: 0x400,
            kind: AccessKind::Load,
            dependent: false,
        }
    }

    fn store(addr: u64) -> MemAccess {
        MemAccess {
            addr,
            pc: 0x404,
            kind: AccessKind::Store,
            dependent: false,
        }
    }

    #[test]
    fn cold_access_goes_to_dram_then_warms() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let first = m.access(Cycle::new(0), &load(0x1000));
        assert_eq!(first.level, ServiceLevel::Dram);
        assert!(first.row.is_some());

        let second = m.access(first.completion, &load(0x1000));
        assert_eq!(second.level, ServiceLevel::L1);
        assert_eq!(
            second.latency(first.completion),
            CacheConfig::l1d().hit_latency
        );
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let t0 = Cycle::new(0);
        let dram_resp = m.access(t0, &load(0x40_0000));
        let dram_latency = dram_resp.latency(t0);

        // Evict from L1 but not L2 by touching many L1-conflicting lines...
        // simpler: a fresh line that L2 holds after a DRAM fill, then evict
        // L1 by streaming 64 sets × 8 ways of distinct lines.
        let mut t = dram_resp.completion;
        for i in 0..1024u64 {
            let r = m.access(t, &load(0x100_0000 + i * 64));
            t = r.completion;
        }
        let l2_resp = m.access(t, &load(0x40_0000));
        assert_eq!(l2_resp.level, ServiceLevel::L2);
        let l2_latency = l2_resp.latency(t);

        let l1_resp = m.access(l2_resp.completion, &load(0x40_0000));
        let l1_latency = l1_resp.latency(l2_resp.completion);

        assert!(l1_latency < l2_latency, "{l1_latency} !< {l2_latency}");
        assert!(l2_latency < dram_latency, "{l2_latency} !< {dram_latency}");
    }

    #[test]
    fn secondary_miss_merges_into_flight() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let t0 = Cycle::new(0);
        let first = m.access(t0, &load(0x2000));
        // Another reference to the same line before the fill completes: it
        // must complete with (not after) the in-flight fetch. The L2 has
        // already allocated the line, so model-wise this manifests as the
        // reference hitting the in-flight MSHR via the cache... with this
        // analytic model the L2 allocation happens at access time, so a
        // subsequent access hits in L2. Verify it at least never exceeds
        // the first completion by a full DRAM latency.
        let second = m.access(Cycle::new(1), &load(0x2008));
        assert!(second.completion <= first.completion);
    }

    #[test]
    fn mshr_pressure_counts_stalls() {
        let config = HierarchyConfig {
            mshr_entries: 1,
            ..HierarchyConfig::baseline()
        };
        let mut m = MemoryHierarchy::new(config);
        // Two distinct-line misses at the same instant: the second must
        // wait for the single MSHR.
        let a = m.access(Cycle::new(0), &load(0x0));
        let b = m.access(Cycle::new(0), &load(0x10_0000));
        assert!(b.completion > a.completion);
        assert_eq!(m.stats().mshr_stalls, 1);
    }

    #[test]
    fn store_misses_allocate() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let first = m.access(Cycle::new(0), &store(0x3000));
        assert_eq!(first.level, ServiceLevel::Dram);
        let second = m.access(first.completion, &load(0x3000));
        assert_eq!(second.level, ServiceLevel::L1, "write-allocate");
    }

    #[test]
    fn stats_snapshot_consistency() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut t = Cycle::new(0);
        for i in 0..100u64 {
            let r = m.access(t, &load(i * 64));
            t = r.completion;
        }
        let stats = m.stats();
        assert_eq!(stats.l1.accesses, 100);
        assert_eq!(stats.l1.hits, 0, "all lines distinct");
        assert_eq!(stats.l2.accesses, 100);
        assert_eq!(stats.miss_latency.count(), stats.l2.misses());
        assert!(stats.llc_mpki(100_000) > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero denominator")]
    fn mpki_rejects_zero_instructions() {
        let m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let _ = m.stats().llc_mpki(0);
    }

    #[test]
    fn reset_restores_cold_behaviour() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        let r1 = m.access(Cycle::new(0), &load(0x1000));
        m.reset();
        let r2 = m.access(Cycle::new(0), &load(0x1000));
        assert_eq!(r1.level, r2.level);
        assert_eq!(m.stats().l1.accesses, 1);
    }

    #[test]
    fn misses_in_flight_tracks_mshrs() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::baseline());
        assert_eq!(m.misses_in_flight(Cycle::new(0)), 0);
        let r = m.access(Cycle::new(0), &load(0x5000));
        assert_eq!(m.misses_in_flight(Cycle::new(0)), 1);
        assert_eq!(m.misses_in_flight(r.completion), 0);
    }

    #[test]
    fn stream_prefetcher_converts_misses_to_l2_hits() {
        let mut plain = MemoryHierarchy::new(HierarchyConfig::baseline());
        let mut prefetching = MemoryHierarchy::new(HierarchyConfig::with_stream_prefetcher());
        // A long sequential line stream over a working set far beyond L2.
        let run = |m: &mut MemoryHierarchy| {
            let mut t = Cycle::new(0);
            let mut dram_served = 0u64;
            for i in 0..20_000u64 {
                let r = m.access(t, &load(i * 64));
                if r.level == ServiceLevel::Dram {
                    dram_served += 1;
                }
                t = r.completion;
            }
            dram_served
        };
        let plain_misses = run(&mut plain);
        let prefetched_misses = run(&mut prefetching);
        assert!(
            prefetched_misses < plain_misses / 2,
            "stream prefetcher should absorb most sequential misses: \
             {prefetched_misses} vs {plain_misses}"
        );
        let stats = prefetching.stats();
        assert!(stats.prefetch.issued > 0);
        assert!(
            stats.prefetch.accuracy() > 0.8,
            "sequential stream should make prefetches useful: {:.2}",
            stats.prefetch.accuracy()
        );
    }

    #[test]
    fn prefetcher_stays_silent_on_random_streams() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::with_stream_prefetcher());
        let mut t = Cycle::new(0);
        // Widely-spaced pseudo-random lines: no streaks.
        let mut addr = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000 {
            addr = addr.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
            let r = m.access(t, &load((addr % (1 << 30)) & !63));
            t = r.completion;
        }
        let stats = m.stats();
        assert!(
            stats.prefetch.issued < 200,
            "random stream should trigger few prefetches: {}",
            stats.prefetch.issued
        );
    }
}
