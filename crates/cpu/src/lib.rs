//! Core model for the MAPG reproduction.
//!
//! The gating policy under study needs exactly one thing from the core
//! model: a faithful stream of **stall intervals** — "the core went idle at
//! cycle *t* waiting for data that arrives at cycle *t+d*" — together with
//! enough context (PC, outstanding-miss count, stall cause) for a predictor
//! to act on. This crate provides:
//!
//! - [`Core`] — a bounded-MLP core that consumes a
//!   [`mapg_trace::EventSource`], issues references into a
//!   [`mapg_mem::MemoryHierarchy`], and *calls out* to a [`StallHandler`]
//!   whenever it blocks;
//! - [`StallHandler`] — the hook a power-gating controller implements; the
//!   handler may *extend* a stall (wake-up penalty) by returning a resume
//!   time later than the data-ready time;
//! - [`Cluster`] — N cores sharing one hierarchy, stepped in global time
//!   order so DRAM contention between cores is honoured;
//! - [`Lockstep`] — N single-core runs of one event stream that differ
//!   only in timing, sharing the stream's generation and L1/L2 lookups.
//!
//! # Model summary
//!
//! - Compute quanta advance core time directly.
//! - Stores are posted (write-buffered): they occupy the hierarchy but never
//!   block retirement.
//! - Loads served by L1/L2 charge a small pipelined penalty.
//! - Loads served by DRAM become *outstanding misses*. The core keeps
//!   executing ("runahead" under the miss) until either (a) it reaches its
//!   MLP limit, or (b) it needs the value of an in-flight miss (a
//!   `dependent` access). Both block the core and surface as stalls.
//!
//! # Example
//!
//! ```
//! use mapg_cpu::{Core, CoreConfig, PassiveHandler};
//! use mapg_mem::{HierarchyConfig, MemoryHierarchy};
//! use mapg_trace::{SyntheticWorkload, WorkloadProfile};
//!
//! let profile = WorkloadProfile::mem_bound("demo");
//! let workload = SyntheticWorkload::new(&profile, 1);
//! let mut memory = MemoryHierarchy::new(HierarchyConfig::baseline());
//! let mut core = Core::new(CoreConfig::default(), workload);
//! let mut handler = PassiveHandler;
//! core.run(1_000_000, &mut memory, &mut handler);
//! let stats = core.stats();
//! assert!(stats.stall_cycles > 0, "memory-bound workloads stall");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod core_model;
mod error;
mod lockstep;
mod reference;
mod sched;
mod stall;

pub use cluster::{Cluster, ClusterStats};
pub use core_model::{Core, CoreConfig, CoreStats};
pub use error::RunError;
pub use lockstep::Lockstep;
pub use reference::ReferenceCluster;
pub use stall::{CoreId, PassiveHandler, StallCause, StallHandler, StallInfo};
