//! The zero-cost-when-disabled instrumentation handle.

use std::sync::{Arc, Mutex};

use crate::event::{EventKind, Scope, TraceRecord};
use crate::metrics::MetricsRegistry;
use crate::trace::TraceBuffer;

/// The mutable observability state one simulation writes into.
#[derive(Debug)]
struct Observer {
    trace: Option<TraceBuffer>,
    trace_capacity: Option<usize>,
    metrics: bool,
    metrics_registry: Option<MetricsRegistry>,
}

/// The handle components hold to emit events and record metrics.
///
/// A handle is either **disabled** (the default: every call is one branch
/// on a `None`, no allocation, no locking) or **enabled**, in which case
/// clones share a single per-simulation [`Observer`] via `Arc<Mutex<_>>`.
/// A simulation emits single-threaded — in simulation order — so the lock
/// is uncontended there; the `Arc` exists so `Send` components (cores,
/// hierarchies) can carry *forked sibling* handles onto shard workers.
/// Each shard writes into its own fork and the shard driver merges the
/// forks back deterministically (see [`ObsHandle::fork`]); cross-thread
/// metric aggregation across whole runs still goes through
/// [`MetricsHub`](crate::MetricsHub).
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Mutex<Observer>>>,
}

impl ObsHandle {
    /// The no-op handle: all emit/count/observe calls do nothing.
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// An enabled handle tracing into a ring of `trace_capacity` records
    /// (if `Some`) and/or recording metrics (if `metrics`). With neither
    /// requested this degenerates to [`ObsHandle::disabled`].
    pub fn enabled(trace_capacity: Option<usize>, metrics: bool) -> Self {
        if trace_capacity.is_none() && !metrics {
            return ObsHandle::disabled();
        }
        ObsHandle {
            inner: Some(Arc::new(Mutex::new(Observer {
                trace: trace_capacity.map(TraceBuffer::new),
                trace_capacity,
                metrics,
                metrics_registry: metrics.then(MetricsRegistry::new),
            }))),
        }
    }

    /// A fresh, empty handle with the same sink configuration (same trace
    /// capacity, same metrics switch) but its own independent observer.
    ///
    /// This is the shard-worker handle: each shard of a sharded cluster
    /// run writes into a private fork, and the driver merges the forks
    /// back into the parent in deterministic (channel) order, so the
    /// merged result is bit-identical to a single-threaded run no matter
    /// how workers interleave.
    pub fn fork(&self) -> ObsHandle {
        match &self.inner {
            None => ObsHandle::disabled(),
            Some(inner) => {
                let observer = inner.lock().expect("observer lock poisoned");
                ObsHandle::enabled(observer.trace_capacity, observer.metrics)
            }
        }
    }

    /// True when any sink (trace or metrics) is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when a trace sink is attached.
    pub fn trace_enabled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner
                .lock()
                .expect("observer lock poisoned")
                .trace
                .is_some(),
        }
    }

    /// Appends an event to the trace, if tracing is enabled.
    ///
    /// When disabled this compiles to a single never-taken test on the
    /// `Option`'s pointer; the lock/push machinery lives in an
    /// out-of-line `#[cold]` body so it never pollutes the simulator's
    /// hot-loop instruction stream.
    #[inline]
    pub fn emit(&self, at: u64, scope: Scope, kind: EventKind) {
        if let Some(inner) = &self.inner {
            Self::emit_slow(inner, at, scope, kind);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_slow(inner: &Arc<Mutex<Observer>>, at: u64, scope: Scope, kind: EventKind) {
        if let Some(trace) = &mut inner.lock().expect("observer lock poisoned").trace {
            trace.push(TraceRecord { at, scope, kind });
        }
    }

    /// Adds `n` to a named counter, if metrics are enabled.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            Self::count_slow(inner, name, n);
        }
    }

    #[cold]
    #[inline(never)]
    fn count_slow(inner: &Arc<Mutex<Observer>>, name: &'static str, n: u64) {
        if let Some(metrics) = &mut inner
            .lock()
            .expect("observer lock poisoned")
            .metrics_registry
        {
            metrics.count(name, n);
        }
    }

    /// Records a histogram sample, if metrics are enabled.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            Self::observe_slow(inner, name, value);
        }
    }

    #[cold]
    #[inline(never)]
    fn observe_slow(inner: &Arc<Mutex<Observer>>, name: &'static str, value: u64) {
        if let Some(metrics) = &mut inner
            .lock()
            .expect("observer lock poisoned")
            .metrics_registry
        {
            metrics.observe(name, value);
        }
    }

    /// Moves every retained trace record out of this handle's buffer into
    /// `out` (appending, oldest first) and returns the number of records
    /// the ring dropped since the last drain; both are reset. A no-op
    /// returning 0 when tracing is not enabled.
    ///
    /// Shard drivers call this after every scheduler step on a forked
    /// handle, pairing each batch with the step's scheduling key so the
    /// cross-shard merge can reconstruct global emission order exactly.
    pub fn drain_trace(&self, out: &mut Vec<TraceRecord>) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => match &mut inner.lock().expect("observer lock poisoned").trace {
                None => 0,
                Some(trace) => trace.drain_into(out),
            },
        }
    }

    /// Adds `n` to the trace ring's dropped-record count without touching
    /// the retained records. Used by the deterministic shard merge to
    /// account for records a forked ring evicted before the merge.
    pub fn note_trace_dropped(&self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(inner) = &self.inner {
            if let Some(trace) = &mut inner.lock().expect("observer lock poisoned").trace {
                trace.note_dropped(n);
            }
        }
    }

    /// Folds `registry` into this handle's metrics sink (a no-op when
    /// metrics are not enabled). Merging is commutative and associative;
    /// the shard driver still applies forks in channel order so even
    /// non-commutative future sinks would stay deterministic.
    pub fn absorb_metrics(&self, registry: &MetricsRegistry) {
        if let Some(inner) = &self.inner {
            if let Some(metrics) = &mut inner
                .lock()
                .expect("observer lock poisoned")
                .metrics_registry
            {
                metrics.merge(registry);
            }
        }
    }

    /// Moves the accumulated metrics out of this handle, leaving a fresh
    /// empty registry behind (`None` when metrics are not enabled).
    ///
    /// This is the per-segment drain the sharded engine's *persistent*
    /// forks rely on: a fork that lives across many segments hands each
    /// segment's metric delta to the merge, instead of re-reporting (and
    /// double-counting) everything accumulated since the session began.
    pub fn take_metrics(&self) -> Option<MetricsRegistry> {
        let inner = self.inner.as_ref()?;
        let mut observer = inner.lock().expect("observer lock poisoned");
        if observer.metrics_registry.is_some() {
            observer.metrics_registry.replace(MetricsRegistry::new())
        } else {
            None
        }
    }

    /// Copies out the accumulated trace and metrics (either is `None`
    /// when that sink was not enabled). Callable while clones of the
    /// handle are still live in the simulated components.
    pub fn collect(&self) -> (Option<TraceBuffer>, Option<MetricsRegistry>) {
        match &self.inner {
            None => (None, None),
            Some(inner) => {
                let observer = inner.lock().expect("observer lock poisoned");
                (observer.trace.clone(), observer.metrics_registry.clone())
            }
        }
    }

    /// Moves out the accumulated trace and metrics (either is `None` when
    /// that sink was not enabled), leaving empty sinks of the same
    /// configuration behind. The end-of-run counterpart of
    /// [`ObsHandle::collect`]: it hands over the ring instead of copying
    /// it while the original stays resident.
    pub fn take(&self) -> (Option<TraceBuffer>, Option<MetricsRegistry>) {
        match &self.inner {
            None => (None, None),
            Some(inner) => {
                let mut observer = inner.lock().expect("observer lock poisoned");
                let trace = observer
                    .trace
                    .as_mut()
                    .map(|trace| std::mem::replace(trace, TraceBuffer::new(trace.capacity())));
                let metrics = observer.metrics_registry.as_mut().map(std::mem::take);
                (trace, metrics)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.trace_enabled());
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        obs.count("x", 1);
        obs.observe("h", 1);
        obs.note_trace_dropped(3);
        obs.absorb_metrics(&MetricsRegistry::new());
        assert!(obs.drain_trace(&mut Vec::new()) == 0);
        assert_eq!(obs.collect(), (None, None));
        // Requesting nothing is the same as disabling.
        assert!(!ObsHandle::enabled(None, false).is_enabled());
        // A fork of a disabled handle is disabled.
        assert!(!obs.fork().is_enabled());
    }

    #[test]
    fn clones_share_one_observer() {
        let obs = ObsHandle::enabled(Some(16), true);
        let clone = obs.clone();
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        clone.emit(2, Scope::Core(0), EventKind::StallEnd);
        clone.count("stalls", 1);
        obs.count("stalls", 2);
        obs.observe("len", 9);
        let (trace, metrics) = obs.collect();
        let trace = trace.unwrap();
        let metrics = metrics.unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(metrics.counter("stalls"), 3);
        assert_eq!(metrics.histogram("len").unwrap().count(), 1);
        // Collect is a copy, not a drain.
        assert_eq!(obs.collect().0.unwrap().len(), 2);
    }

    #[test]
    fn trace_only_and_metrics_only_modes() {
        let trace_only = ObsHandle::enabled(Some(4), false);
        trace_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        trace_only.count("ignored", 1);
        assert!(trace_only.trace_enabled());
        let (trace, metrics) = trace_only.collect();
        assert_eq!(trace.unwrap().len(), 1);
        assert!(metrics.is_none());

        let metrics_only = ObsHandle::enabled(None, true);
        metrics_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        metrics_only.count("seen", 1);
        assert!(!metrics_only.trace_enabled());
        let (trace, metrics) = metrics_only.collect();
        assert!(trace.is_none());
        assert_eq!(metrics.unwrap().counter("seen"), 1);
    }

    #[test]
    fn fork_is_independent_but_configured_alike() {
        let parent = ObsHandle::enabled(Some(8), true);
        parent.emit(1, Scope::Core(0), EventKind::StallBegin);
        let fork = parent.fork();
        assert!(fork.is_enabled());
        assert!(fork.trace_enabled());
        // The fork starts empty and writes do not leak to the parent.
        assert_eq!(fork.collect().0.unwrap().len(), 0);
        fork.emit(2, Scope::Core(1), EventKind::StallEnd);
        fork.count("c", 5);
        assert_eq!(parent.collect().0.unwrap().len(), 1);
        assert_eq!(parent.collect().1.unwrap().counter("c"), 0);
        // Same ring capacity as the parent.
        assert_eq!(fork.collect().0.unwrap().capacity(), 8);
    }

    #[test]
    fn drain_and_merge_round_trip() {
        let fork = ObsHandle::enabled(Some(4), true);
        for at in 0..3 {
            fork.emit(at, Scope::Core(0), EventKind::StallBegin);
        }
        fork.count("stalls", 3);
        let mut drained = Vec::new();
        assert_eq!(fork.drain_trace(&mut drained), 0);
        assert_eq!(drained.len(), 3);
        // The fork's ring is now empty; a second drain yields nothing.
        assert_eq!(fork.drain_trace(&mut drained), 0);
        assert_eq!(drained.len(), 3);

        // Overflowing the ring surfaces the drop count exactly once.
        for at in 0..6 {
            fork.emit(at, Scope::Core(0), EventKind::StallBegin);
        }
        let mut tail = Vec::new();
        assert_eq!(fork.drain_trace(&mut tail), 2);
        assert_eq!(tail.len(), 4);

        // Merge into a parent: replayed records plus external drops.
        let parent = ObsHandle::enabled(Some(4), true);
        for record in &tail {
            parent.emit(record.at, record.scope, record.kind);
        }
        parent.note_trace_dropped(2);
        let (_, fork_metrics) = fork.collect();
        parent.absorb_metrics(&fork_metrics.unwrap());
        let (trace, metrics) = parent.collect();
        let trace = trace.unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 2);
        assert_eq!(metrics.unwrap().counter("stalls"), 3);
    }

    #[test]
    fn take_metrics_drains_and_resets() {
        let obs = ObsHandle::enabled(None, true);
        obs.count("stalls", 3);
        let first = obs.take_metrics().expect("metrics enabled");
        assert_eq!(first.counter("stalls"), 3);
        // The registry was reset, not copied: a second take is empty.
        let second = obs.take_metrics().expect("metrics enabled");
        assert_eq!(second.counter("stalls"), 0);
        // Counting resumes into the fresh registry.
        obs.count("stalls", 1);
        assert_eq!(obs.collect().1.unwrap().counter("stalls"), 1);
        // Disabled / trace-only handles yield nothing.
        assert!(ObsHandle::disabled().take_metrics().is_none());
        assert!(ObsHandle::enabled(Some(4), false).take_metrics().is_none());
    }

    #[test]
    fn take_moves_out_and_leaves_empty_sinks() {
        let obs = ObsHandle::enabled(Some(2), true);
        for at in 0..3 {
            obs.emit(at, Scope::Core(0), EventKind::StallBegin);
        }
        obs.count("stalls", 3);
        let collected = obs.collect();
        let (trace, metrics) = obs.take();
        assert_eq!((trace.clone(), metrics.clone()), collected);
        assert_eq!(trace.unwrap().dropped(), 1);
        // The sinks stay attached, empty and configured alike.
        let (trace, metrics) = obs.collect();
        let trace = trace.expect("trace sink kept");
        assert!(trace.is_empty() && trace.is_complete());
        assert_eq!(trace.capacity(), 2);
        assert!(metrics.expect("metrics sink kept").is_empty());
        assert_eq!(ObsHandle::disabled().take(), (None, None));
        assert!(ObsHandle::enabled(None, true).take().0.is_none());
    }

    #[test]
    fn enabled_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let obs = ObsHandle::enabled(Some(4), true);
        assert_send_sync(&obs);
    }
}
