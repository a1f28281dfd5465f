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
//!   power-of-two-bucket [`Histogram`]s (stall length, gated duration,
//!   wake latency, break-even shortfall) with a commutative
//!   [`merge`](MetricsRegistry::merge), so aggregation over parallel runs
//!   is deterministic. A run renders its registry once, at its end, from
//!   the typed statistics its components kept; nothing writes to it per
//!   event.
//! - **Handle** ([`ObsHandle`]): the single instrumentation entry point
//!   components hold. It carries the run's trace ring, if any, and a flag
//!   saying whether the run renders metrics. Without a trace every `emit`
//!   is a single branch on a `None` and no allocation, so instrumented
//!   hot paths cost nothing when tracing is off; with one, `emit` packs
//!   the record into its word at the call site and one out-of-line push
//!   stores it.
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
//! use mapg_obs::{EventKind, Histogram, MetricsRegistry, ObsHandle, Scope};
//!
//! // During the run: trace events go through the handle, and components
//! // keep their own typed statistics.
//! let obs = ObsHandle::enabled(Some(1024), true);
//! let mut stall_length = Histogram::new();
//! obs.emit(10, Scope::Core(0), EventKind::StallBegin);
//! obs.emit(100, Scope::Core(0), EventKind::StallEnd);
//! stall_length.record(90);
//!
//! // At its end: move the trace out, render the metrics once.
//! let trace = obs.take().expect("tracing was enabled");
//! assert_eq!(trace.len(), 2);
//! let mut metrics = MetricsRegistry::new();
//! if obs.metrics_enabled() {
//!     metrics.count("stalls", stall_length.count());
//!     metrics.merge_histogram("stall_length", &stall_length);
//! }
//! assert_eq!(metrics.counter("stalls"), 1);
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
