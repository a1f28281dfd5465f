//! The zero-cost-when-disabled instrumentation handle.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{EventKind, Scope, TraceRecord};
use crate::trace::{narrow_word, TraceBuffer};

/// The handle components hold to emit trace events, and to learn whether
/// the run keeps metrics.
///
/// A handle carries the run's trace ring, if tracing is on, and one flag
/// saying whether the run renders metrics. It records no metric itself:
/// components keep typed statistics, and the run renders every metric
/// from them once, at its end. With tracing off, [`ObsHandle::emit`] is
/// one branch on a `None`, no allocation, no borrow; with tracing on,
/// clones share one ring via `Rc<RefCell<_>>`.
///
/// The handle is thread-confined on purpose: it is neither `Send` nor
/// `Sync`. A simulation emits single-threaded, in simulation order, so an
/// uncontended lock would buy nothing but its cost on every call; the
/// compiler instead guarantees that no component carrying a handle ever
/// crosses a thread. What does cross threads is plain data: the
/// [`TraceBuffer`] a run hands back through [`ObsHandle::take`], the
/// [`MetricsRegistry`](crate::MetricsRegistry) it renders, and the
/// whole-run aggregation through [`MetricsHub`](crate::MetricsHub) and
/// [`EventHub`](crate::EventHub).
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<mapg_obs::ObsHandle>();
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    trace: Option<Rc<RefCell<TraceBuffer>>>,
    metrics: bool,
}

// The ring a run hands back leaves the simulation's thread (pool workers
// return it to the harness), so it must stay `Send` even though the
// handle that fills it is not.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TraceBuffer>();
};

impl ObsHandle {
    /// The no-op handle: no trace, no metrics.
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// A handle tracing into a ring of `trace_capacity` records (if
    /// `Some`) and/or telling the run to render metrics (if `metrics`).
    /// With neither requested this is [`ObsHandle::disabled`].
    pub fn enabled(trace_capacity: Option<usize>, metrics: bool) -> Self {
        ObsHandle {
            trace: trace_capacity.map(|capacity| Rc::new(RefCell::new(TraceBuffer::new(capacity)))),
            metrics,
        }
    }

    /// True when the run renders metrics: components then keep the
    /// statistics only metrics read (per-sleep histograms, token waits).
    pub fn metrics_enabled(&self) -> bool {
        self.metrics
    }

    /// Appends an event to the trace, if tracing is enabled.
    ///
    /// Without a trace this is a single never-taken test on the
    /// `Option`'s pointer. With one, the record is packed into its 8-byte
    /// word here, at the call site, where the kind and scope are usually
    /// constants and the packing folds to a few shifts; the out-of-line
    /// push then only borrows, checks the wrap and stores. A record that
    /// does not fit a word takes the ring's wide path.
    #[inline]
    pub fn emit(&self, at: u64, scope: Scope, kind: EventKind) {
        if let Some(trace) = &self.trace {
            let record = TraceRecord { at, scope, kind };
            match narrow_word(record) {
                Some(word) => Self::push_word(trace, word),
                None => Self::push_record(trace, record),
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn push_word(trace: &RefCell<TraceBuffer>, word: u64) {
        trace.borrow_mut().push_word(word);
    }

    #[cold]
    #[inline(never)]
    fn push_record(trace: &RefCell<TraceBuffer>, record: TraceRecord) {
        trace.borrow_mut().push(record);
    }

    /// Moves out the accumulated trace (`None` when tracing is off),
    /// leaving an empty ring of the same capacity behind. A run calls it
    /// once, at its end: it hands over the ring instead of copying it.
    pub fn take(&self) -> Option<TraceBuffer> {
        self.trace.as_ref().map(|trace| {
            let mut trace = trace.borrow_mut();
            let capacity = trace.capacity();
            std::mem::replace(&mut *trace, TraceBuffer::new(capacity))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, scope: Scope, kind: EventKind) -> TraceRecord {
        TraceRecord { at, scope, kind }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        assert!(obs.trace.is_none() && !obs.metrics_enabled());
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        assert_eq!(obs.take(), None);
        // Requesting nothing is the same as disabling.
        let nothing = ObsHandle::enabled(None, false);
        assert!(nothing.trace.is_none() && !nothing.metrics_enabled());
    }

    #[test]
    fn clones_share_one_ring() {
        let obs = ObsHandle::enabled(Some(16), true);
        let clone = obs.clone();
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        clone.emit(2, Scope::Core(0), EventKind::StallEnd);
        assert!(clone.metrics_enabled());
        let trace = obs.take().expect("trace sink");
        assert!(trace.iter().eq([
            rec(1, Scope::Core(0), EventKind::StallBegin),
            rec(2, Scope::Core(0), EventKind::StallEnd),
        ]));
        // The clone's ring was the one taken.
        assert!(clone.take().expect("trace sink kept").is_empty());
    }

    #[test]
    fn trace_only_and_metrics_only_modes() {
        let trace_only = ObsHandle::enabled(Some(4), false);
        trace_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        assert!(!trace_only.metrics_enabled());
        assert_eq!(trace_only.take().expect("trace sink").len(), 1);

        // A metrics-only handle has no ring to enter.
        let metrics_only = ObsHandle::enabled(None, true);
        metrics_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        assert!(metrics_only.trace.is_none() && metrics_only.metrics_enabled());
        assert_eq!(metrics_only.take(), None);
    }

    #[test]
    fn emit_packs_what_push_stores() {
        // Narrow and wide records, the wide ones past the cycle field and
        // past the id field, in one ring; emitted and pushed alike.
        let records = [
            rec(5, Scope::Core(3), EventKind::StallBegin),
            rec(1 << 44, Scope::Global, EventKind::SafeModeExit),
            rec(7, Scope::Bank(2048), EventKind::WakeDone),
            rec(9, Scope::Core(1), EventKind::TokenGrant),
        ];
        let obs = ObsHandle::enabled(Some(3), false);
        let mut pushed = TraceBuffer::new(3);
        for record in records {
            obs.emit(record.at, record.scope, record.kind);
            pushed.push(record);
        }
        let emitted = obs.take().expect("trace sink");
        assert_eq!(emitted, pushed);
        assert_eq!(emitted.dropped(), 1);
        assert!(emitted.iter().eq(records[1..].iter().copied()));
    }

    #[test]
    fn take_moves_out_and_leaves_an_empty_ring() {
        let obs = ObsHandle::enabled(Some(2), true);
        for at in 0..3 {
            obs.emit(at, Scope::Core(0), EventKind::StallBegin);
        }
        let trace = obs.take().expect("trace sink");
        assert_eq!((trace.len(), trace.dropped()), (2, 1));
        // The ring stays attached, empty and configured alike.
        let trace = obs.take().expect("trace sink kept");
        assert!(trace.is_empty() && trace.is_complete());
        assert_eq!(trace.capacity(), 2);
        assert_eq!(ObsHandle::disabled().take(), None);
    }
}
