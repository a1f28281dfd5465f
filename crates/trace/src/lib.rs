//! Synthetic workload generation for the MAPG reproduction.
//!
//! # Why synthetic workloads
//!
//! The original MAPG evaluation drives a gem5-class simulator with SPEC
//! CPU2006 binaries. Neither is available here, but the power-gating policy
//! under study only ever observes the *memory stall behaviour* of a program:
//! how often the core misses in the last-level cache, how long each miss
//! takes, and how much of that latency can be overlapped (memory-level
//! parallelism). Those properties are induced by a small set of workload
//! parameters — references per kilo-instruction, working-set size, spatial
//! locality, pointer-chase (dependence) fraction, phase structure — which
//! this crate models directly. A [`WorkloadProfile`] pins those parameters
//! to the published characteristics of a SPEC benchmark class; a
//! [`SyntheticWorkload`] turns the profile into a deterministic, seeded
//! event stream the core model consumes.
//!
//! # Chunked sources and the helper thread
//!
//! A simulation reads each core's generator through a [`ChunkedSource`],
//! which serves events out of a buffer of [`CHUNK`] events, each packed
//! into one 8-byte word (an event with a field too wide for its word is
//! kept whole beside the buffer, so nothing is lost). Generation is a
//! pure function of `(profile, seed)` and reads no shared state, so the
//! buffers can be filled on another thread without changing the stream a
//! core sees: when a run is the only one [`InFlight`], the process may
//! run two threads at once and the helper is free, the process's one
//! persistent helper thread keeps every core's next buffer full while the
//! simulation thread runs the model; otherwise each source refills
//! inline. A buffer of words crosses between the two CPUs in a third of
//! the bytes of unpacked events. The generators themselves stay plain
//! [`EventSource`]s, and recorded traces replay without a helper.
//!
//! # Example
//!
//! ```
//! use mapg_trace::{SyntheticWorkload, TraceEvent, WorkloadProfile};
//!
//! let profile = WorkloadProfile::mem_bound("mcf_like");
//! let mut workload = SyntheticWorkload::new(&profile, /*seed=*/ 7);
//! let first = workload.next().expect("workload streams are unbounded");
//! match first {
//!     TraceEvent::Compute { .. } | TraceEvent::MemAccess { .. } => {}
//!     TraceEvent::Idle { .. } => unreachable!("no idle injection configured"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bernoulli;
mod event;
mod generator;
mod handoff;
mod phase;
mod profile;
mod recorded;
mod stats;
pub mod suite;

pub use address::{AddressPattern, AddressStream, LINE_BYTES, SEQ_STRIDE_BYTES};
pub use event::{AccessKind, MemAccess, TraceEvent};
pub use generator::{EventSource, SyntheticWorkload};
pub use handoff::{helper_runs, ChunkedSource, InFlight, CHUNK};
pub use phase::{Phase, PhaseModel, PhaseSchedule};
pub use profile::{IdleInjection, ProfileBuilder, WorkloadProfile};
pub use recorded::{ParseTraceError, RecordedTrace, Replay};
pub use stats::TraceStats;
pub use suite::WorkloadSuite;
