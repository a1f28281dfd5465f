//! The zero-cost-when-disabled instrumentation handle.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{EventKind, Scope, TraceRecord};
use crate::metrics::MetricsRegistry;
use crate::trace::TraceBuffer;

/// The mutable observability state one simulation writes into.
#[derive(Debug)]
struct Observer {
    trace: Option<TraceBuffer>,
    metrics_registry: Option<MetricsRegistry>,
}

/// The handle components hold to emit events and record metrics.
///
/// A handle is either **disabled** (the default: every call is one branch
/// on a `None`, no allocation, no borrow) or **enabled**, in which case
/// clones share a single per-simulation observer via `Rc<RefCell<_>>`.
///
/// The handle is thread-confined on purpose: it is neither `Send` nor
/// `Sync`. A simulation emits single-threaded, in simulation order, so an
/// uncontended lock would buy nothing but its cost on every call; the
/// compiler instead guarantees that no component carrying a handle ever
/// crosses a thread. What does cross threads is plain data: the
/// [`TraceBuffer`] and [`MetricsRegistry`] a run hands back through
/// [`ObsHandle::take`], and the whole-run aggregation through
/// [`MetricsHub`](crate::MetricsHub) and [`EventHub`](crate::EventHub).
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<mapg_obs::ObsHandle>();
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Rc<RefCell<Observer>>>,
}

// The sinks a run hands back leave the simulation's thread (pool workers
// return them to the harness), so they must stay `Send` even though the
// handle that fills them is not.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TraceBuffer>();
    assert_send::<MetricsRegistry>();
};

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
            inner: Some(Rc::new(RefCell::new(Observer {
                trace: trace_capacity.map(TraceBuffer::new),
                metrics_registry: metrics.then(MetricsRegistry::new),
            }))),
        }
    }

    /// Appends an event to the trace, if tracing is enabled.
    ///
    /// When disabled this compiles to a single never-taken test on the
    /// `Option`'s pointer; the borrow/push machinery lives in an
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
    fn emit_slow(inner: &RefCell<Observer>, at: u64, scope: Scope, kind: EventKind) {
        if let Some(trace) = &mut inner.borrow_mut().trace {
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
    fn count_slow(inner: &RefCell<Observer>, name: &'static str, n: u64) {
        if let Some(metrics) = &mut inner.borrow_mut().metrics_registry {
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
    fn observe_slow(inner: &RefCell<Observer>, name: &'static str, value: u64) {
        if let Some(metrics) = &mut inner.borrow_mut().metrics_registry {
            metrics.observe(name, value);
        }
    }

    /// Copies out the accumulated trace and metrics (either is `None`
    /// when that sink was not enabled). Callable while clones of the
    /// handle are still live in the simulated components.
    pub fn collect(&self) -> (Option<TraceBuffer>, Option<MetricsRegistry>) {
        match &self.inner {
            None => (None, None),
            Some(inner) => {
                let observer = inner.borrow();
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
                let mut observer = inner.borrow_mut();
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
        assert!(obs.inner.is_none());
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        obs.count("x", 1);
        obs.observe("h", 1);
        assert_eq!(obs.collect(), (None, None));
        // Requesting nothing is the same as disabling.
        assert!(ObsHandle::enabled(None, false).inner.is_none());
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
        let (trace, metrics) = trace_only.collect();
        assert_eq!(trace.unwrap().len(), 1);
        assert!(metrics.is_none());

        let metrics_only = ObsHandle::enabled(None, true);
        metrics_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        metrics_only.count("seen", 1);
        let (trace, metrics) = metrics_only.collect();
        assert!(trace.is_none());
        assert_eq!(metrics.unwrap().counter("seen"), 1);
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
}
