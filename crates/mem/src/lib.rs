//! Memory-hierarchy substrate for the MAPG reproduction.
//!
//! MAPG gates a core's power during last-level-cache misses, so the quantity
//! this crate must get right is the **distribution of miss latencies** the
//! core observes: which references miss, how long each miss takes given DRAM
//! bank state and contention, and how misses overlap. The model is a
//! two-level set-associative cache hierarchy with MSHRs in front of a banked
//! DRAM with row-buffer tracking:
//!
//! - [`Cache`] — set-associative, true-LRU, write-back/write-allocate;
//! - [`MshrFile`] — bounds outstanding misses and merges secondary misses;
//! - [`Dram`] — per-bank open-row state, DDR3-class timing, bus serialization
//!   and periodic refresh;
//! - [`MemoryHierarchy`] — glues the levels together and produces, for every
//!   reference, a completion timestamp plus the level that served it. It
//!   owns two parts: [`CacheLevels`] resolves a reference to its level
//!   (order-only state), and [`Backside`] serves that [`Resolution`] in
//!   time (MSHRs, DRAM, prefetcher).
//!
//! Timing is *analytic-incremental* rather than fully event-driven: each
//! resource (bank, bus) tracks the cycle at which it next becomes free, and
//! an access's latency is computed by walking those resources forward. This
//! reproduces queueing, bank conflicts and row locality at a fraction of the
//! cost of a discrete-event simulator — and cost matters, because every
//! policy experiment in `mapg-bench` re-runs the whole hierarchy dozens of
//! times.
//!
//! # Example
//!
//! ```
//! use mapg_mem::{HierarchyConfig, MemoryHierarchy, ServiceLevel};
//! use mapg_trace::{AccessKind, MemAccess};
//! use mapg_units::Cycle;
//!
//! let mut memory = MemoryHierarchy::new(HierarchyConfig::default());
//! let access = MemAccess { addr: 0x4000, pc: 0x100, kind: AccessKind::Load, dependent: false };
//! let response = memory.access(Cycle::new(0), &access);
//! // A cold access misses everywhere and is served by DRAM.
//! assert_eq!(response.level, ServiceLevel::Dram);
//! assert!(response.completion > Cycle::new(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod error;
mod faults;
mod hierarchy;
mod mshr;
mod prefetch;
mod reference;
mod stats;

pub use cache::{Cache, CacheConfig, CacheOutcome, CacheStats};
pub use dram::{Dram, DramConfig, DramStats, PagePolicy, RowBufferOutcome};
pub use error::ConfigError;
pub use faults::DramFaultConfig;
pub use hierarchy::{
    AccessResponse, Backside, CacheLevels, HierarchyConfig, HierarchyStats, MemoryHierarchy,
    Resolution, ServiceLevel,
};
pub use mshr::{MshrFile, MshrOutcome};
pub use prefetch::{PrefetchCandidates, PrefetchConfig, PrefetchStats, StreamPrefetcher};
pub use reference::ReferenceHierarchy;
pub use stats::LatencyHistogram;
