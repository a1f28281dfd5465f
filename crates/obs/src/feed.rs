//! A shared, bounded, cursor-addressed feed of trace records.
//!
//! [`TraceBuffer`] is private to one simulation run; a *service* (the
//! `mapgd` daemon) needs the opposite shape: one producer-side handle a
//! job publishes batches into as simulations complete, and any number
//! of consumer-side cursors that poll independently without disturbing
//! each other or the producer. [`EventHub`] is that shape:
//!
//! - Every published record gets an absolute, monotonically increasing
//!   sequence number, starting at 0. Consumers address the feed by
//!   cursor (the next sequence they want) and get back the batch plus
//!   the cursor to resume from — stateless on the hub side, so a slow
//!   or disconnected consumer costs nothing.
//! - The buffer is bounded: when `capacity` is exceeded the oldest
//!   records are evicted and *counted*. A consumer whose cursor has
//!   fallen off the tail learns exactly how many records it missed
//!   ([`FeedBatch::missed`]) — losses are observable, never silent
//!   (the same contract as [`TraceBuffer`]'s drop counter).
//! - [`EventHub::close`] marks the stream complete; consumers see
//!   [`FeedBatch::closed`] once they have drained everything, which is
//!   the streaming termination signal.
//!
//! Cloning an [`EventHub`] shares the underlying feed (like
//! [`MetricsHub`](crate::MetricsHub)); the ambient accessors
//! ([`ambient_event_hub`](crate::ambient_event_hub) /
//! [`with_ambient_event_hub`](crate::with_ambient_event_hub)) let a
//! driver install a hub for config-building code deep in a call tree,
//! mirroring the ambient metrics hub.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::event::TraceRecord;

/// One poll result: the records from the requested cursor onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedBatch {
    /// The records, in publication order.
    pub records: Vec<TraceRecord>,
    /// Cursor to pass to the next poll (sequence number one past the
    /// last record returned, or the requested cursor when empty).
    pub next_cursor: u64,
    /// Records the consumer asked for but that were already evicted
    /// (its cursor had fallen off the bounded tail).
    pub missed: u64,
    /// True once the producer closed the feed *and* this batch reaches
    /// its end — no further records will ever arrive.
    pub closed: bool,
}

#[derive(Debug)]
struct FeedState {
    /// Retained records; the front has sequence `start_seq`.
    buf: VecDeque<TraceRecord>,
    /// Absolute sequence of the front of `buf`.
    start_seq: u64,
    /// Absolute sequence the next published record will get.
    next_seq: u64,
    /// Records evicted from the bounded buffer so far.
    evicted: u64,
    /// Producer is done; no more publishes will arrive.
    closed: bool,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<FeedState>,
    wakeup: Condvar,
    capacity: usize,
}

/// A shared bounded event feed (see the module docs).
#[derive(Debug, Clone)]
pub struct EventHub {
    inner: Arc<Inner>,
}

/// Default retained-record capacity for [`EventHub::new`] consumers
/// that have no better number: matches the trace ring default.
pub const DEFAULT_FEED_CAPACITY: usize = crate::DEFAULT_TRACE_CAPACITY;

impl EventHub {
    /// A new feed retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> EventHub {
        assert!(capacity > 0, "event feed capacity must be non-zero");
        EventHub {
            inner: Arc::new(Inner {
                state: Mutex::new(FeedState {
                    buf: VecDeque::new(),
                    start_seq: 0,
                    next_seq: 0,
                    evicted: 0,
                    closed: false,
                }),
                wakeup: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Publishes `records` in order, evicting the oldest retained
    /// records beyond capacity, and wakes blocked consumers. Publishing
    /// to a closed feed is a no-op (the batch is counted as evicted so
    /// totals stay honest). Taking an iterator lets a run publish
    /// straight from its [`TraceBuffer`](crate::TraceBuffer), without
    /// first copying the whole trace.
    pub fn publish(&self, records: impl IntoIterator<Item = TraceRecord>) {
        let mut state = self.lock();
        if state.closed {
            state.evicted += records.into_iter().count() as u64;
            return;
        }
        for record in records {
            if state.buf.len() == self.inner.capacity {
                state.buf.pop_front();
                state.start_seq += 1;
                state.evicted += 1;
            }
            state.buf.push_back(record);
            state.next_seq += 1;
        }
        drop(state);
        self.inner.wakeup.notify_all();
    }

    /// Marks the feed complete. Idempotent; wakes blocked consumers.
    pub fn close(&self) {
        self.lock().closed = true;
        self.inner.wakeup.notify_all();
    }

    /// True once [`EventHub::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Total records ever published (including evicted ones).
    pub fn published(&self) -> u64 {
        self.lock().next_seq
    }

    /// Total records evicted from the bounded buffer (plus any batches
    /// published after close).
    pub fn evicted(&self) -> u64 {
        self.lock().evicted
    }

    /// Non-blocking poll: everything retained from `cursor` onward.
    pub fn poll(&self, cursor: u64) -> FeedBatch {
        Self::batch_from(&self.lock(), cursor)
    }

    /// Blocking poll: like [`EventHub::poll`], but when the feed holds
    /// nothing at `cursor` and is not closed, waits up to `timeout` for
    /// records (or close) to arrive. An empty, non-closed batch after
    /// `timeout` means "nothing yet — poll again".
    pub fn wait(&self, cursor: u64, timeout: Duration) -> FeedBatch {
        let state = self.lock();
        let (state, _timed_out) = self
            .inner
            .wakeup
            .wait_timeout_while(state, timeout, |s| s.next_seq <= cursor && !s.closed)
            .expect("event feed poisoned");
        Self::batch_from(&state, cursor)
    }

    fn batch_from(state: &FeedState, cursor: u64) -> FeedBatch {
        let from = cursor.max(state.start_seq);
        let missed = from - cursor;
        let skip = (from - state.start_seq) as usize;
        let records: Vec<TraceRecord> = state.buf.iter().skip(skip).copied().collect();
        let next_cursor = from + records.len() as u64;
        FeedBatch {
            records,
            next_cursor,
            missed,
            closed: state.closed && next_cursor == state.next_seq,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FeedState> {
        self.inner.state.lock().expect("event feed poisoned")
    }
}

thread_local! {
    static AMBIENT_EVENT_HUB: RefCell<Option<EventHub>> = const { RefCell::new(None) };
}

/// The innermost active [`with_ambient_event_hub`] hub on this thread,
/// if any. Config-building code (the experiment registry) uses this to
/// pick up the feed a driver installed, without threading a parameter
/// through every experiment signature — the same pattern as
/// [`ambient_hub`](crate::ambient_hub).
pub fn ambient_event_hub() -> Option<EventHub> {
    AMBIENT_EVENT_HUB.with(|cell| cell.borrow().clone())
}

/// Runs `f` with [`ambient_event_hub`] resolving to `hub` on the
/// current thread, restoring the previous value afterwards (also on
/// panic).
pub fn with_ambient_event_hub<R>(hub: EventHub, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<EventHub>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_EVENT_HUB.with(|cell| *cell.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(AMBIENT_EVENT_HUB.with(|cell| cell.borrow_mut().replace(hub)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Scope};

    fn rec(at: u64) -> TraceRecord {
        TraceRecord {
            at,
            scope: Scope::Core(0),
            kind: EventKind::StallBegin,
        }
    }

    #[test]
    fn records_flow_in_order_with_resumable_cursors() {
        let hub = EventHub::new(16);
        hub.publish([rec(1), rec(2)]);
        let first = hub.poll(0);
        assert_eq!(first.records, vec![rec(1), rec(2)]);
        assert_eq!(first.next_cursor, 2);
        assert_eq!(first.missed, 0);
        assert!(!first.closed);

        hub.publish([rec(3)]);
        let second = hub.poll(first.next_cursor);
        assert_eq!(second.records, vec![rec(3)]);
        assert_eq!(second.next_cursor, 3);

        // A second, independent consumer still sees everything retained.
        assert_eq!(hub.poll(0).records.len(), 3);
        assert_eq!(hub.published(), 3);
    }

    #[test]
    fn eviction_is_counted_not_silent() {
        let hub = EventHub::new(4);
        let all: Vec<TraceRecord> = (0..10).map(rec).collect();
        hub.publish(all.iter().copied());
        assert_eq!(hub.evicted(), 6);
        let batch = hub.poll(0);
        assert_eq!(batch.missed, 6, "lost records must be reported");
        assert_eq!(batch.records, all[6..].to_vec());
        assert_eq!(batch.next_cursor, 10);
        // A consumer that kept up misses nothing.
        assert_eq!(hub.poll(8).missed, 0);
    }

    #[test]
    fn close_terminates_only_after_drain() {
        let hub = EventHub::new(8);
        hub.publish([rec(1)]);
        hub.close();
        assert!(hub.is_closed());
        let undrained = hub.poll(0);
        assert!(
            undrained.closed,
            "a batch reaching the end of a closed feed is terminal"
        );
        let behind = EventHub::new(8);
        behind.publish([rec(1), rec(2)]);
        behind.close();
        let partial = FeedBatch {
            records: vec![rec(1)],
            next_cursor: 1,
            missed: 0,
            closed: false,
        };
        // Reconstruct a mid-stream view: cursor 0 limited to nothing —
        // poll always drains fully, so emulate by checking cursor math.
        assert_eq!(behind.poll(1).records, vec![rec(2)]);
        assert!(behind.poll(1).closed);
        assert!(!partial.closed);
        // Publishing after close is dropped but counted.
        behind.publish([rec(9)]);
        assert_eq!(behind.published(), 2);
        assert_eq!(behind.evicted(), 1);
    }

    #[test]
    fn wait_blocks_until_publish_or_close() {
        let hub = EventHub::new(8);
        let publisher = hub.clone();
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| hub.wait(0, Duration::from_secs(30)));
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                publisher.publish([rec(7)]);
            });
            waiter.join().unwrap()
        });
        assert_eq!(got.records, vec![rec(7)]);

        let closer = hub.clone();
        let end = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| hub.wait(got.next_cursor, Duration::from_secs(30)));
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                closer.close();
            });
            waiter.join().unwrap()
        });
        assert!(end.records.is_empty());
        assert!(end.closed);

        // Expired timeout with nothing new: empty, not closed.
        let idle = EventHub::new(8);
        let silent = idle.wait(0, Duration::from_millis(10));
        assert!(silent.records.is_empty() && !silent.closed);
    }

    #[test]
    fn ambient_event_hub_overrides_and_restores() {
        assert!(ambient_event_hub().is_none());
        let hub = EventHub::new(8);
        with_ambient_event_hub(hub.clone(), || {
            let seen = ambient_event_hub().expect("ambient event hub visible");
            seen.publish([rec(1)]);
        });
        assert!(ambient_event_hub().is_none());
        assert_eq!(hub.published(), 1);

        with_ambient_event_hub(EventHub::new(8), || {
            let inner =
                std::thread::scope(|s| s.spawn(|| ambient_event_hub().is_none()).join().unwrap());
            assert!(inner, "fresh thread must not inherit the ambient hub");
        });
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = EventHub::new(0);
    }
}
