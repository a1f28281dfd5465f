//! Banked DRAM with row-buffer state, bus serialization and refresh.
//!
//! All timing parameters are expressed in **core cycles** — the hierarchy's
//! single clock domain. The defaults approximate a DDR3-1333 part behind a
//! 2 GHz core: a row-buffer hit costs ~75 core cycles end to end, a row
//! conflict ~190, matching the 40–120 ns window the original evaluation's
//! stalls fall into. Making DRAM time explicit in core cycles keeps the
//! entire gating analysis in one unit system ([`mapg_units::Cycles`]).
//!
//! # Hot-path layout
//!
//! Per-bank state is flattened into two contiguous arrays (`open_rows`,
//! `bank_free`) instead of a `Vec<Bank>` of structs, and the row-buffer
//! decision is branchless: the open row is encoded as `row_id + 1` with
//! `0` meaning *precharged*, so `(was_open << 1) | same_row` indexes a
//! four-entry latency/outcome table instead of matching on an
//! `Option<u64>`. The access stream hits effectively random banks, so the
//! `Hit`/`Conflict`/`Empty` branch was unpredictable; a table select is
//! not. See DESIGN.md §12 for the invariants.

use mapg_units::{Cycle, Cycles};

use crate::error::ConfigError;
use crate::faults::DramFaultConfig;

use core::fmt;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Keep the row open after an access (bets on row-buffer locality;
    /// the default, matching the evaluation's workloads).
    #[default]
    Open,
    /// Auto-precharge after every access (bets against locality: every
    /// access pays an activate, no access ever pays a precharge).
    Closed,
}

/// DRAM timing and geometry configuration (all times in core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independently schedulable banks.
    pub banks: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Activate (row open) latency, tRCD.
    pub t_rcd: Cycles,
    /// Column access latency, tCAS.
    pub t_cas: Cycles,
    /// Precharge (row close) latency, tRP.
    pub t_rp: Cycles,
    /// Data-burst occupancy of the shared channel per access.
    pub t_burst: Cycles,
    /// Fixed controller + interconnect overhead added to every access.
    pub controller_overhead: Cycles,
    /// Refresh interval, tREFI (0 disables refresh).
    pub refresh_interval: Cycles,
    /// Refresh duration, tRFC.
    pub refresh_duration: Cycles,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl DramConfig {
    /// DDR3-1333-class part behind a 2 GHz core.
    pub fn ddr3_1333() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 8 << 10,
            t_rcd: Cycles::new(27),
            t_cas: Cycles::new(27),
            t_rp: Cycles::new(27),
            t_burst: Cycles::new(10),
            controller_overhead: Cycles::new(38),
            refresh_interval: Cycles::new(15_600),
            refresh_duration: Cycles::new(320),
            page_policy: PagePolicy::Open,
        }
    }

    /// Returns a copy using a different page policy.
    pub fn with_page_policy(mut self, page_policy: PagePolicy) -> Self {
        self.page_policy = page_policy;
        self
    }

    /// Returns a copy with the *latency* parameters — tRCD, tCAS, tRP and
    /// the fixed controller/interconnect overhead — scaled by `factor`;
    /// this is the "memory wall" sensitivity knob of experiment R-F6.
    ///
    /// Everything on an access's critical path except the data burst
    /// scales together: R-F6 models a uniformly slower (or faster) memory
    /// subsystem, and the controller/interconnect legs slow down with it.
    /// Only `t_burst` is pinned — it models channel *occupancy* (burst
    /// length over bus clock), which latency scaling does not change.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_latency_scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "latency factor must be positive, got {factor}"
        );
        let mut scaled = *self;
        scaled.t_rcd = self.t_rcd.scale(factor);
        scaled.t_cas = self.t_cas.scale(factor);
        scaled.t_rp = self.t_rp.scale(factor);
        scaled.controller_overhead = self.controller_overhead.scale(factor);
        scaled
    }

    /// Checks internal consistency; the error's message is the same text
    /// the panicking constructors abort with.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.banks == 0 {
            return Err(ConfigError::ZeroBanks);
        }
        if self.row_bytes < 64 {
            return Err(ConfigError::RowTooSmall {
                row_bytes: self.row_bytes,
            });
        }
        if self.refresh_interval.raw() > 0 && self.refresh_duration >= self.refresh_interval {
            return Err(ConfigError::RefreshTooLong);
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr3_1333()
    }
}

/// How the row buffer treated an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The addressed row was already open: column access only.
    Hit,
    /// A different row was open: precharge + activate + column access.
    Conflict,
    /// The bank had no open row: activate + column access.
    Empty,
}

/// Running DRAM activity counters (feed the DRAM energy model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses served.
    pub reads: u64,
    /// Write accesses served.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row activations performed (conflicts + empty-bank opens).
    pub activates: u64,
    /// Accesses delayed by a refresh window.
    pub refresh_stalls: u64,
    /// Total cycles the data bus was occupied.
    pub bus_busy_cycles: u64,
    /// Accesses slowed by an injected latency-spike fault.
    pub fault_spikes: u64,
}

impl DramStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} acc ({} rd/{} wr), {:.1}% row hit, {} act",
            self.accesses(),
            self.reads,
            self.writes,
            self.row_hit_rate() * 100.0,
            self.activates
        )
    }
}

/// Row-buffer outcome by `(was_open << 1) | same_row`. Index `0b01`
/// (closed bank, matching row) is unreachable because the open-row tag is
/// `row_id + 1 != 0`; it is filled with `Empty` to keep the table total.
const OUTCOMES: [RowBufferOutcome; 4] = [
    RowBufferOutcome::Empty,
    RowBufferOutcome::Empty,
    RowBufferOutcome::Conflict,
    RowBufferOutcome::Hit,
];

/// The DRAM device + controller model.
///
/// ```
/// use mapg_mem::{Dram, DramConfig, RowBufferOutcome};
/// use mapg_units::Cycle;
///
/// let mut dram = Dram::new(DramConfig::ddr3_1333());
/// let (done_a, first) = dram.access(Cycle::new(0), 0x0000, false);
/// let (done_b, second) = dram.access(done_a, 0x0040, false);
/// assert_eq!(first, RowBufferOutcome::Empty);
/// assert_eq!(second, RowBufferOutcome::Hit); // same row, still open
/// assert!(done_b > done_a);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    faults: DramFaultConfig,
    /// `!faults.is_nop()`, hoisted out of the per-access path.
    faults_armed: bool,
    /// Open-row tag per bank: `row_id + 1`, `0` = precharged. Contiguous
    /// with `bank_free` so one access touches two small dense arrays.
    open_rows: Vec<u64>,
    /// Cycle at which each bank is next free (raw), parallel to
    /// `open_rows`.
    bank_free: Vec<u64>,
    bus_free: Cycle,
    /// Start of the refresh window the last access fell in (a multiple of
    /// `refresh_interval`). Pure cache: [`Dram::apply_refresh`] re-derives
    /// it with a division whenever a query lands outside
    /// `[refresh_window, refresh_window + interval)`, so in-window
    /// queries — the overwhelmingly common case, since global time moves
    /// a few cycles per access while tREFI is thousands — replace the
    /// per-access hardware divide with a subtract and compare.
    refresh_window: u64,
    /// Array latency (raw cycles) by `(was_open << 1) | same_row`; see
    /// [`OUTCOMES`] for the index encoding.
    latency_by_state: [u64; 4],
    /// `row_id + 1` under [`PagePolicy::Open`], `0` (auto-precharge)
    /// under [`PagePolicy::Closed`] — applied by masking, no branch.
    open_mask: u64,
    /// `row_bytes.trailing_zeros()` when the row size is a power of two:
    /// `addr >> row_shift` replaces a 64-bit division per access.
    row_shift: u32,
    row_pow2: bool,
    /// `banks - 1` / `banks.trailing_zeros()` when the bank count is a
    /// power of two: mask-and-shift replaces the `%` / `/` pair.
    bank_mask: u64,
    bank_shift: u32,
    bank_pow2: bool,
    stats: DramStats,
    obs: mapg_obs::ObsHandle,
}

impl Dram {
    /// Creates the device with all banks precharged and no fault injection.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero banks, row smaller
    /// than a line, refresh duration ≥ interval).
    pub fn new(config: DramConfig) -> Self {
        Dram::with_faults(config, DramFaultConfig::none())
    }

    /// Creates the device with deterministic latency-fault injection (see
    /// [`DramFaultConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if either configuration is inconsistent.
    pub fn with_faults(config: DramConfig, faults: DramFaultConfig) -> Self {
        if let Err(e) = config.try_validate() {
            panic!("{e}");
        }
        if let Err(message) = faults.validate() {
            panic!("{message}");
        }
        let bank_count = u64::from(config.banks);
        let hit = config.t_cas.raw();
        let empty = (config.t_rcd + config.t_cas).raw();
        let conflict = (config.t_rp + config.t_rcd + config.t_cas).raw();
        Dram {
            open_rows: vec![0; config.banks as usize],
            bank_free: vec![0; config.banks as usize],
            bus_free: Cycle::ZERO,
            refresh_window: 0,
            latency_by_state: [empty, empty, conflict, hit],
            open_mask: match config.page_policy {
                PagePolicy::Open => u64::MAX,
                PagePolicy::Closed => 0,
            },
            row_shift: config.row_bytes.trailing_zeros(),
            row_pow2: config.row_bytes.is_power_of_two(),
            bank_mask: bank_count - 1,
            bank_shift: bank_count.trailing_zeros(),
            bank_pow2: bank_count.is_power_of_two(),
            stats: DramStats::default(),
            faults_armed: !faults.is_nop(),
            faults,
            config,
            obs: mapg_obs::ObsHandle::disabled(),
        }
    }

    /// The row address containing byte address `addr`.
    #[inline]
    fn row_of(&self, addr: u64) -> u64 {
        if self.row_pow2 {
            addr >> self.row_shift
        } else {
            addr / self.config.row_bytes
        }
    }

    /// Splits a row address into `(bank_index, row_id)`. For power-of-two
    /// bank counts the mask/shift pair is bit-identical to `%` / `/`.
    #[inline]
    fn split(&self, row: u64) -> (usize, u64) {
        if self.bank_pow2 {
            ((row & self.bank_mask) as usize, row >> self.bank_shift)
        } else {
            let bank_count = self.open_rows.len() as u64;
            ((row % bank_count) as usize, row / bank_count)
        }
    }

    /// Attaches an observability handle; injected latency-spike events
    /// (per-bank scope) flow through it.
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.obs = obs;
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Serves one line access arriving at the controller at `now`; returns
    /// the completion timestamp and the row-buffer outcome.
    #[inline(always)]
    pub fn access(&mut self, now: Cycle, addr: u64, is_write: bool) -> (Cycle, RowBufferOutcome) {
        let (bank_index, row_id) = self.split(self.row_of(addr));
        let tag = row_id + 1;

        // The command can issue once the bank is free...
        let mut start = now.max(Cycle::new(self.bank_free[bank_index]));
        // ...and outside any refresh window.
        start = self.apply_refresh(start);

        // Branchless row-buffer resolution: the open-row tag (row_id + 1,
        // 0 = precharged) turns the three-way Hit/Conflict/Empty decision
        // into a table index. Bank targets are effectively random, so the
        // former `match` mispredicted; the select does not.
        let open = self.open_rows[bank_index];
        let state = (((open != 0) as usize) << 1) | ((open == tag) as usize);
        let mut array_latency = Cycles::new(self.latency_by_state[state]);
        let outcome = OUTCOMES[state];
        let hit = (state == 0b11) as u64;
        self.stats.row_hits += hit;
        self.stats.activates += 1 - hit;

        // Injected fault: a spiking (bank, window) pair slows the array
        // access. The decision is a pure hash of (seed, bank, window), so
        // it is independent of access order (see `DramFaultConfig`).
        if self.faults_armed && self.faults.spikes(bank_index, start.raw()) {
            array_latency += self.faults.spike_cycles;
            self.stats.fault_spikes += 1;
            self.obs.emit(
                start.raw(),
                mapg_obs::Scope::Bank(bank_index as u32),
                mapg_obs::EventKind::FaultInjected(mapg_obs::FaultKind::DramSpike),
            );
        }

        // Data leaves the array, then must win the shared channel.
        let data_ready = start + array_latency;
        let burst_start = data_ready.max(self.bus_free);
        let burst_end = burst_start + self.config.t_burst;
        self.bus_free = burst_end;
        self.stats.bus_busy_cycles += self.config.t_burst.raw();

        let completion = burst_end + self.config.controller_overhead;
        self.bank_free[bank_index] = burst_end.raw();
        // Open policy keeps the row open (tag), closed auto-precharges
        // (0); `open_mask` folds the policy into a mask at build time.
        self.open_rows[bank_index] = tag & self.open_mask;

        self.stats.writes += is_write as u64;
        self.stats.reads += !is_write as u64;
        (completion, outcome)
    }

    /// Serves a *low-priority* access (a prefetch) only if the target bank
    /// and the channel are idle at `now`; returns `None` — without touching
    /// any state — when the access would have to queue behind other work.
    ///
    /// This approximates demand-priority scheduling in the incremental
    /// timing model: real controllers deprioritize or drop prefetches under
    /// load, and an analytic bank-free-time model cannot reorder a queue
    /// after the fact, so contended prefetches are dropped instead.
    pub fn try_access_idle(
        &mut self,
        now: Cycle,
        addr: u64,
        is_write: bool,
    ) -> Option<(Cycle, RowBufferOutcome)> {
        self.try_access_within(now, Cycles::ZERO, addr, is_write)
    }

    /// Like [`Dram::try_access_idle`] but tolerates the target resources
    /// becoming free within `slack` cycles — a bounded queue depth for
    /// low-priority traffic. Larger slack raises prefetch coverage at the
    /// cost of (bounded) extra queueing for demand accesses that arrive
    /// just behind the prefetch.
    pub fn try_access_within(
        &mut self,
        now: Cycle,
        slack: Cycles,
        addr: u64,
        is_write: bool,
    ) -> Option<(Cycle, RowBufferOutcome)> {
        let (bank_index, _) = self.split(self.row_of(addr));
        let deadline = (now + slack).raw();
        if self.bank_free[bank_index] > deadline || self.bus_free.raw() > deadline {
            return None;
        }
        Some(self.access(now, addr, is_write))
    }

    /// If `start` falls inside a refresh window, pushes it to the window's
    /// end and counts the stall.
    fn apply_refresh(&mut self, start: Cycle) -> Cycle {
        let interval = self.config.refresh_interval.raw();
        if interval == 0 {
            return start;
        }
        let s = start.raw();
        // `offset = s % interval`, but the divide only runs on a window
        // crossing (see the `refresh_window` field doc); the cached base
        // keeps the result bit-exact for arbitrary timestamps.
        if s < self.refresh_window || s - self.refresh_window >= interval {
            self.refresh_window = s - s % interval;
        }
        let offset = s - self.refresh_window;
        if offset < self.config.refresh_duration.raw() {
            self.stats.refresh_stalls += 1;
            let pushed = s - offset + self.config.refresh_duration.raw();
            Cycle::new(pushed)
        } else {
            start
        }
    }

    /// Precharges all banks and clears statistics.
    pub fn reset(&mut self) {
        self.open_rows.fill(0);
        self.bank_free.fill(0);
        self.bus_free = Cycle::ZERO;
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_refresh() -> DramConfig {
        DramConfig {
            refresh_interval: Cycles::ZERO,
            ..DramConfig::ddr3_1333()
        }
    }

    #[test]
    fn row_hit_is_cheaper_than_conflict() {
        let cfg = no_refresh();
        let mut dram = Dram::new(cfg);
        // Open row 0 of bank 0.
        let (t0, outcome0) = dram.access(Cycle::new(1000), 0, false);
        assert_eq!(outcome0, RowBufferOutcome::Empty);
        let empty_latency = t0 - Cycle::new(1000);

        // Hit the same row after the bank has quiesced.
        let later = t0 + Cycles::new(1000);
        let (t1, outcome1) = dram.access(later, 64, false);
        assert_eq!(outcome1, RowBufferOutcome::Hit);
        let hit_latency = t1 - later;

        // Conflict: same bank (stride banks×row_bytes), different row.
        let stride = u64::from(cfg.banks) * cfg.row_bytes;
        let later2 = t1 + Cycles::new(1000);
        let (t2, outcome2) = dram.access(later2, stride, false);
        assert_eq!(outcome2, RowBufferOutcome::Conflict);
        let conflict_latency = t2 - later2;

        assert!(hit_latency < empty_latency);
        assert!(empty_latency < conflict_latency);
        // Exact decomposition:
        let fixed = cfg.t_burst + cfg.controller_overhead;
        assert_eq!(hit_latency, cfg.t_cas + fixed);
        assert_eq!(empty_latency, cfg.t_rcd + cfg.t_cas + fixed);
        assert_eq!(conflict_latency, cfg.t_rp + cfg.t_rcd + cfg.t_cas + fixed);
    }

    #[test]
    fn different_banks_overlap() {
        let cfg = no_refresh();
        let mut dram = Dram::new(cfg);
        // Two rows in different banks, issued at the same instant: array
        // access overlaps; only the burst serializes.
        let t = Cycle::new(1000);
        let (done0, _) = dram.access(t, 0, false);
        let (done1, _) = dram.access(t, cfg.row_bytes, false);
        let serial_estimate = done0 + (done0 - t);
        assert!(
            done1 < serial_estimate,
            "bank parallelism should beat serial: {done1} vs {serial_estimate}"
        );
        // But bursts can't overlap:
        assert!(done1 >= done0 + cfg.t_burst);
    }

    #[test]
    fn same_bank_serializes() {
        let cfg = no_refresh();
        let mut dram = Dram::new(cfg);
        let t = Cycle::new(1000);
        let stride = u64::from(cfg.banks) * cfg.row_bytes; // same bank, new row
        let (done0, _) = dram.access(t, 0, false);
        let (done1, _) = dram.access(t, stride, false);
        // Second access can't start its activate until the first burst ends.
        assert!(done1 > done0);
        let second_latency = done1 - t;
        let unloaded = cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_burst + cfg.controller_overhead;
        assert!(second_latency > unloaded, "queueing must be visible");
    }

    #[test]
    fn refresh_window_blocks() {
        let cfg = DramConfig {
            refresh_interval: Cycles::new(1000),
            refresh_duration: Cycles::new(100),
            ..DramConfig::ddr3_1333()
        };
        let mut dram = Dram::new(cfg);
        // Arrive mid-refresh (cycle 2050 is inside [2000, 2100)).
        let (done, _) = dram.access(Cycle::new(2050), 0, false);
        let (baseline_done, _) = {
            let mut fresh = Dram::new(cfg);
            fresh.access(Cycle::new(2100), 0, false)
        };
        assert_eq!(done, baseline_done, "access is pushed to window end");
        assert_eq!(dram.stats().refresh_stalls, 1);
    }

    #[test]
    fn stats_accounting() {
        let mut dram = Dram::new(no_refresh());
        dram.access(Cycle::new(0), 0, false);
        dram.access(Cycle::new(500), 64, true);
        let stats = *dram.stats();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.accesses(), 2);
        assert_eq!(stats.row_hits, 1);
        assert_eq!(stats.activates, 1);
        assert!((stats.row_hit_rate() - 0.5).abs() < 1e-12);
        assert!(stats.to_string().contains("2 acc"));
    }

    #[test]
    fn latency_scaling() {
        let base = DramConfig::ddr3_1333();
        let doubled = base.with_latency_scaled(2.0);
        assert_eq!(doubled.t_cas, base.t_cas * 2);
        assert_eq!(doubled.t_rcd, base.t_rcd * 2);
        assert_eq!(doubled.t_rp, base.t_rp * 2);
        assert_eq!(doubled.t_burst, base.t_burst, "burst width unchanged");
    }

    #[test]
    fn latency_scaling_includes_controller_overhead() {
        // R-F6 semantics, pinned: the memory-wall knob scales the whole
        // non-burst critical path — array timings *and* the fixed
        // controller/interconnect overhead — so a 2× "slower memory"
        // config really does double the unloaded miss latency (minus the
        // burst, which models channel occupancy, not latency).
        let base = DramConfig::ddr3_1333();
        let doubled = base.with_latency_scaled(2.0);
        assert_eq!(doubled.controller_overhead, base.controller_overhead * 2);

        let unloaded = |cfg: DramConfig| {
            let mut dram = Dram::new(DramConfig {
                refresh_interval: Cycles::ZERO,
                ..cfg
            });
            let (done, _) = dram.access(Cycle::new(0), 0, false);
            done - Cycle::new(0)
        };
        assert_eq!(
            unloaded(doubled),
            (unloaded(base) - base.t_burst) * 2 + base.t_burst,
            "everything but the burst doubles"
        );
    }

    #[test]
    #[should_panic(expected = "latency factor")]
    fn rejects_nonpositive_scale() {
        let _ = DramConfig::ddr3_1333().with_latency_scaled(0.0);
    }

    #[test]
    #[should_panic(expected = "refresh duration")]
    fn rejects_refresh_longer_than_interval() {
        let cfg = DramConfig {
            refresh_interval: Cycles::new(10),
            refresh_duration: Cycles::new(20),
            ..DramConfig::ddr3_1333()
        };
        let _ = Dram::new(cfg);
    }

    #[test]
    fn try_validate_reports_errors_as_values() {
        let zero_banks = DramConfig {
            banks: 0,
            ..DramConfig::ddr3_1333()
        };
        assert_eq!(zero_banks.try_validate(), Err(ConfigError::ZeroBanks));
        let tiny_row = DramConfig {
            row_bytes: 32,
            ..DramConfig::ddr3_1333()
        };
        assert_eq!(
            tiny_row.try_validate(),
            Err(ConfigError::RowTooSmall { row_bytes: 32 })
        );
        let bad_refresh = DramConfig {
            refresh_interval: Cycles::new(10),
            refresh_duration: Cycles::new(20),
            ..DramConfig::ddr3_1333()
        };
        assert_eq!(bad_refresh.try_validate(), Err(ConfigError::RefreshTooLong));
        assert!(DramConfig::ddr3_1333().try_validate().is_ok());
        // A bad fault plan comes back through the hierarchy's check.
        let bad_faults = crate::HierarchyConfig {
            dram_faults: DramFaultConfig {
                spike_prob: 2.0,
                ..DramFaultConfig::none()
            },
            ..crate::HierarchyConfig::baseline()
        };
        assert!(matches!(
            bad_faults.try_validate(),
            Err(ConfigError::Fault(_))
        ));
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut dram = Dram::new(no_refresh());
        dram.access(Cycle::new(0), 0, false);
        dram.reset();
        assert_eq!(dram.stats().accesses(), 0);
        let (_, outcome) = dram.access(Cycle::new(0), 64, false);
        assert_eq!(outcome, RowBufferOutcome::Empty);
    }

    #[test]
    fn closed_page_trades_hits_for_conflicts() {
        let open_cfg = no_refresh();
        let closed_cfg = no_refresh().with_page_policy(PagePolicy::Closed);

        // Same-row re-access: open page hits, closed page re-activates.
        let same_row = |cfg: DramConfig| {
            let mut dram = Dram::new(cfg);
            let (t0, _) = dram.access(Cycle::new(0), 0, false);
            let later = t0 + Cycles::new(1_000);
            let (t1, outcome) = dram.access(later, 64, false);
            (t1 - later, outcome)
        };
        let (open_latency, open_outcome) = same_row(open_cfg);
        let (closed_latency, closed_outcome) = same_row(closed_cfg);
        assert_eq!(open_outcome, RowBufferOutcome::Hit);
        assert_eq!(closed_outcome, RowBufferOutcome::Empty);
        assert!(open_latency < closed_latency);

        // Different-row re-access in the same bank: closed page skips the
        // precharge and is faster.
        let conflict = |cfg: DramConfig| {
            let stride = u64::from(cfg.banks) * cfg.row_bytes;
            let mut dram = Dram::new(cfg);
            let (t0, _) = dram.access(Cycle::new(0), 0, false);
            let later = t0 + Cycles::new(1_000);
            let (t1, outcome) = dram.access(later, stride, false);
            (t1 - later, outcome)
        };
        let (open_conflict, open_out) = conflict(open_cfg);
        let (closed_conflict, closed_out) = conflict(closed_cfg);
        assert_eq!(open_out, RowBufferOutcome::Conflict);
        assert_eq!(closed_out, RowBufferOutcome::Empty);
        assert!(closed_conflict < open_conflict);
    }

    #[test]
    fn fault_spikes_slow_accesses_and_are_deterministic() {
        let faults = DramFaultConfig {
            spike_prob: 1.0, // every window spikes
            spike_cycles: Cycles::new(500),
            window_cycles: 1_000,
            seed: 3,
        };
        let (clean_done, _) = Dram::new(no_refresh()).access(Cycle::new(0), 0, false);
        let run_faulty = || {
            let mut dram = Dram::with_faults(no_refresh(), faults);
            let (done, _) = dram.access(Cycle::new(0), 0, false);
            (done, dram.stats().fault_spikes)
        };
        let (faulty_done, spikes) = run_faulty();
        assert_eq!(faulty_done, clean_done + Cycles::new(500));
        assert_eq!(spikes, 1);
        // Bit-identical on replay.
        assert_eq!(run_faulty(), (faulty_done, spikes));
    }

    #[test]
    #[should_panic(expected = "spike probability")]
    fn rejects_invalid_fault_probability() {
        let faults = DramFaultConfig {
            spike_prob: -0.5,
            spike_cycles: Cycles::new(1),
            window_cycles: 1_000,
            seed: 0,
        };
        let _ = Dram::with_faults(DramConfig::ddr3_1333(), faults);
    }

    #[test]
    fn completion_is_monotone_in_arrival() {
        let mut a = Dram::new(no_refresh());
        let mut b = Dram::new(no_refresh());
        let (done_early, _) = a.access(Cycle::new(100), 0, false);
        let (done_late, _) = b.access(Cycle::new(200), 0, false);
        assert!(done_late > done_early);
    }

    #[test]
    fn non_pow2_banks_match_division_semantics() {
        // 3 banks exercises the division fallback in split(); row 0/1/2
        // land in banks 0/1/2 and row 3 wraps to bank 0 with row_id 1.
        let cfg = DramConfig {
            banks: 3,
            refresh_interval: Cycles::ZERO,
            ..DramConfig::ddr3_1333()
        };
        let mut dram = Dram::new(cfg);
        let (t0, first) = dram.access(Cycle::new(0), 0, false);
        assert_eq!(first, RowBufferOutcome::Empty);
        // Row 3 = same bank 0, different row: conflict.
        let later = t0 + Cycles::new(1_000);
        let (_, second) = dram.access(later, 3 * cfg.row_bytes, false);
        assert_eq!(second, RowBufferOutcome::Conflict);
    }
}
