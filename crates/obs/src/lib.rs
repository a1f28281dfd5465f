//! Cycle-level observability for the MAPG simulator.
//!
//! Every MAPG result rests on internal controller dynamics — stall
//! detection, sleep entry/exit, break-even accounting — that the final
//! `RunReport` only shows in aggregate. A regression that shifts *when*
//! the controller gates but not the totals would be invisible. This crate
//! makes the dynamics observable without perturbing them:
//!
//! - **Event trace** ([`TraceBuffer`]): a bounded ring buffer of typed
//!   [`TraceRecord`]s (stall begin/end, sleep enter/exit, wake start/done,
//!   token grant/deny, safe-mode enter/exit, fault injections) with cycle
//!   timestamps and core/bank scopes, packed 8 bytes a record (8 MiB for
//!   a full default ring), exportable as Chrome `trace_event` JSON
//!   (loadable in Perfetto / `chrome://tracing`), and its sleep records
//!   as a per-core power-state waveform ([`TraceBuffer::to_vcd`]). The
//!   `mapgd` event feed ([`EventHub`]) keeps its records in the same
//!   ring.
//! - **Metrics registry** ([`MetricsRegistry`]): named counters and
//!   power-of-two-bucket histograms (stall length, gated duration, wake
//!   latency, break-even shortfall) with a commutative [`merge`], so
//!   aggregation over parallel runs is deterministic.
//! - **Handle** ([`ObsHandle`]): the single instrumentation entry point
//!   components hold. A disabled handle is a `None` — every `emit`/`count`/
//!   `observe` call is a single branch and no allocation, so instrumented
//!   hot paths cost nothing when observability is off.
//! - **Hub** ([`MetricsHub`]): a thread-safe accumulator that many
//!   simulations merge their registries into; merging is commutative and
//!   associative, so the aggregate is identical at any job count.
//! - **JSON codec** ([`json`]): the workspace's one JSON reader and
//!   writer. Metrics, manifests, repro files, the `mapgd` journal and
//!   wire protocol are all built as a [`json::JsonValue`] and rendered
//!   by it.
//!
//! # Determinism contract
//!
//! A simulation emits events in simulation order, on one thread: the
//! handle is `!Send`, so every component holding it stays on the thread
//! that runs the simulation. The buffer preserves insertion order and the
//! JSON renderings iterate sorted maps, so two runs with the same
//! configuration produce byte-identical traces and metrics regardless of
//! how many worker threads the harness fans *whole simulations* across.
//! That property is what the workspace's regression suite pins.
//!
//! ```
//! use mapg_obs::{EventKind, ObsHandle, Scope};
//!
//! let obs = ObsHandle::enabled(Some(1024), true);
//! obs.emit(10, Scope::Core(0), EventKind::StallBegin);
//! obs.count("stalls", 1);
//! obs.observe("stall_length", 90);
//! obs.emit(100, Scope::Core(0), EventKind::StallEnd);
//! let (trace, metrics) = obs.collect();
//! assert_eq!(trace.unwrap().len(), 2);
//! assert_eq!(metrics.unwrap().counter("stalls"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod feed;
mod handle;
pub mod json;
mod metrics;
mod trace;
mod vcd;

pub use event::{EventKind, FaultKind, Scope, TraceRecord};
pub use feed::{
    ambient_event_hub, with_ambient_event_hub, EventHub, FeedBatch, DEFAULT_FEED_CAPACITY,
};
pub use handle::ObsHandle;
pub use metrics::{
    ambient_hub, with_ambient_hub, Histogram, HistogramSummary, MetricsHub, MetricsRegistry,
};
pub use trace::{TraceBuffer, DEFAULT_TRACE_CAPACITY};
