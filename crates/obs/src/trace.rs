//! Bounded event ring buffer and Chrome `trace_event` export.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{EventKind, FaultKind, Scope, TraceRecord};

/// Default ring capacity: ample for every smoke/quick-scale run in the
/// workspace (the regression suite asserts nothing was dropped). A full
/// ring of this many 16-byte slots holds 16 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Scope tags of a [`Slot`].
const CORE: u8 = 0;
const BANK: u8 = 1;
const GLOBAL: u8 = 2;

/// Every [`EventKind`] but `FaultInjected`, in slot-tag order; the tag
/// one past the end marks a fault, whose kind sits in [`Slot::fault`].
const KINDS: [EventKind; 10] = [
    EventKind::StallBegin,
    EventKind::StallEnd,
    EventKind::SleepEnter,
    EventKind::SleepExit,
    EventKind::WakeStart,
    EventKind::WakeDone,
    EventKind::TokenGrant,
    EventKind::TokenDeny,
    EventKind::SafeModeEnter,
    EventKind::SafeModeExit,
];
const FAULT: u8 = KINDS.len() as u8;

/// Every [`FaultKind`], in slot-tag order.
const FAULTS: [FaultKind; 6] = [
    FaultKind::DramSpike,
    FaultKind::SlowWake,
    FaultKind::TokenDrop,
    FaultKind::BrownoutVeto,
    FaultKind::Brownout,
    FaultKind::SensorNoise,
];

/// One [`TraceRecord`] packed into 16 bytes (a `TraceRecord` pads to 24):
/// the cycle, the scope id, and one tag byte each for the scope, the event
/// kind and the fault kind. Packing is canonical — an unused id or fault
/// byte is 0 — so two slots are equal exactly when their records are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    at: u64,
    id: u32,
    scope: u8,
    kind: u8,
    fault: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    fn pack(record: TraceRecord) -> Slot {
        let (scope, id) = match record.scope {
            Scope::Core(id) => (CORE, id),
            Scope::Bank(id) => (BANK, id),
            Scope::Global => (GLOBAL, 0),
        };
        let (kind, fault) = match record.kind {
            EventKind::StallBegin => (0, 0),
            EventKind::StallEnd => (1, 0),
            EventKind::SleepEnter => (2, 0),
            EventKind::SleepExit => (3, 0),
            EventKind::WakeStart => (4, 0),
            EventKind::WakeDone => (5, 0),
            EventKind::TokenGrant => (6, 0),
            EventKind::TokenDeny => (7, 0),
            EventKind::SafeModeEnter => (8, 0),
            EventKind::SafeModeExit => (9, 0),
            EventKind::FaultInjected(fault) => (FAULT, fault as u8),
        };
        Slot {
            at: record.at,
            id,
            scope,
            kind,
            fault,
        }
    }

    fn unpack(self) -> TraceRecord {
        let scope = match self.scope {
            CORE => Scope::Core(self.id),
            BANK => Scope::Bank(self.id),
            _ => Scope::Global,
        };
        let kind = match self.kind {
            FAULT => EventKind::FaultInjected(FAULTS[usize::from(self.fault)]),
            kind => KINDS[usize::from(kind)],
        };
        TraceRecord {
            at: self.at,
            scope,
            kind,
        }
    }
}

/// A bounded, drop-oldest ring of [`TraceRecord`]s.
///
/// The buffer preserves insertion order — which, for a single simulation,
/// is simulation order — and counts records it had to drop, so consumers
/// can tell a complete trace from a truncated one.
///
/// Records are stored packed, 16 bytes a slot, and decoded only when read.
/// The slot vector grows on demand to exactly `capacity` slots; once full,
/// each push overwrites the oldest slot in place and advances the head.
/// Two rings are equal when their capacities, drop counts and records in
/// logical (oldest-first) order are, whatever their wrap phase.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    capacity: usize,
    slots: Vec<Slot>,
    /// Index of the oldest slot: 0 until the ring first wraps.
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be at least 1");
        TraceBuffer {
            capacity,
            slots: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TraceRecord) {
        let slot = Slot::pack(record);
        if self.slots.len() < self.capacity {
            if self.slots.len() == self.slots.capacity() {
                let grown = (self.slots.len() * 2).max(64).min(self.capacity);
                self.slots.reserve_exact(grown - self.slots.len());
            }
            self.slots.push(slot);
        } else {
            self.slots[self.head] = slot;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when every emitted record is still present.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// Iterates retained records oldest-first, decoding each slot.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceRecord> + '_ {
        self.ordered_slots().map(|slot| slot.unpack())
    }

    /// The retained slots oldest-first.
    fn ordered_slots(&self) -> impl DoubleEndedIterator<Item = Slot> + '_ {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer).copied()
    }

    /// Number of retained records of the given kind.
    pub fn count_kind(&self, kind: EventKind) -> usize {
        self.iter().filter(|r| r.kind == kind).count()
    }

    /// Sums gated residency per core from `SleepEnter`/`SleepExit` pairs.
    ///
    /// This is the trace side of the workspace's load-bearing cross-check:
    /// on a complete trace the per-core sums reconcile exactly with the
    /// controller's `gated_cycles` total. Unpaired events (possible only
    /// on a truncated trace) are ignored.
    pub fn gated_cycles_per_core(&self) -> BTreeMap<u32, u64> {
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
        for record in self.iter() {
            let Scope::Core(core) = record.scope else {
                continue;
            };
            match record.kind {
                EventKind::SleepEnter => {
                    open.insert(core, record.at);
                }
                EventKind::SleepExit => {
                    if let Some(entered) = open.remove(&core) {
                        *totals.entry(core).or_insert(0) += record.at.saturating_sub(entered);
                    }
                }
                _ => {}
            }
        }
        totals
    }

    /// Renders the buffer as Chrome `trace_event` JSON (the "JSON array
    /// format" with a `traceEvents` wrapper), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Timestamps map cycles to microseconds one-to-one (1 cyc = 1 µs on
    /// the viewer's axis); cores, DRAM banks, and the controller render as
    /// separate named processes. Output is deterministic: records appear
    /// in insertion order, metadata in sorted scope order.
    pub fn to_chrome_trace(&self) -> String {
        let mut scopes: BTreeSet<Scope> = BTreeSet::new();
        for record in self.iter() {
            scopes.insert(record.scope);
        }

        let mut out = String::with_capacity(64 + self.len() * 64);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut push_line = |out: &mut String, line: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(line);
        };

        let mut pids: BTreeSet<u32> = BTreeSet::new();
        for scope in &scopes {
            let (pid, tid, process, thread) = scope_ids(*scope);
            if pids.insert(pid) {
                push_line(
                    &mut out,
                    &format!(
                        "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
                         \"args\": {{\"name\": \"{process}\"}}}}"
                    ),
                );
            }
            push_line(
                &mut out,
                &format!(
                    "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"name\": \"thread_name\", \"args\": {{\"name\": \"{thread}\"}}}}"
                ),
            );
        }

        for record in self.iter() {
            let (pid, tid, _, _) = scope_ids(record.scope);
            let name = record.kind.name();
            let ts = record.at;
            let line = if record.kind.is_span_begin() {
                format!(
                    "{{\"ph\": \"B\", \"ts\": {ts}, \"pid\": {pid}, \"tid\": {tid}, \
                     \"cat\": \"mapg\", \"name\": \"{name}\"}}"
                )
            } else if record.kind.is_span_end() {
                format!(
                    "{{\"ph\": \"E\", \"ts\": {ts}, \"pid\": {pid}, \"tid\": {tid}, \
                     \"cat\": \"mapg\", \"name\": \"{name}\"}}"
                )
            } else {
                format!(
                    "{{\"ph\": \"i\", \"ts\": {ts}, \"pid\": {pid}, \"tid\": {tid}, \
                     \"cat\": \"mapg\", \"name\": \"{name}\", \"s\": \"t\"}}"
                )
            };
            push_line(&mut out, &line);
        }

        out.push_str("\n]}\n");
        out
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl PartialEq for TraceBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.dropped == other.dropped
            && self.len() == other.len()
            && self.ordered_slots().eq(other.ordered_slots())
    }
}

impl Eq for TraceBuffer {}

/// Maps a scope onto (pid, tid, process name, thread name) for the Chrome
/// trace: cores are pid 1, DRAM banks pid 2, the controller pid 3.
fn scope_ids(scope: Scope) -> (u32, u32, &'static str, String) {
    match scope {
        Scope::Core(id) => (1, id, "cores", format!("core {id}")),
        Scope::Bank(id) => (2, id, "dram", format!("bank {id}")),
        Scope::Global => (3, 0, "controller", "safe-mode".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;

    fn rec(at: u64, scope: Scope, kind: EventKind) -> TraceRecord {
        TraceRecord { at, scope, kind }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut buf = TraceBuffer::new(2);
        buf.push(rec(1, Scope::Core(0), EventKind::StallBegin));
        buf.push(rec(2, Scope::Core(0), EventKind::StallEnd));
        assert!(buf.is_complete());
        buf.push(rec(3, Scope::Core(0), EventKind::StallBegin));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert!(!buf.is_complete());
        assert_eq!(buf.iter().next().unwrap().at, 2, "oldest record evicted");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = TraceBuffer::new(0);
    }

    #[test]
    fn gated_cycles_sum_per_core() {
        let mut buf = TraceBuffer::default();
        buf.push(rec(10, Scope::Core(0), EventKind::SleepEnter));
        buf.push(rec(40, Scope::Core(0), EventKind::SleepExit));
        buf.push(rec(50, Scope::Core(1), EventKind::SleepEnter));
        buf.push(rec(55, Scope::Core(1), EventKind::SleepExit));
        buf.push(rec(60, Scope::Core(0), EventKind::SleepEnter));
        buf.push(rec(100, Scope::Core(0), EventKind::SleepExit));
        // Bank / unpaired records do not contribute.
        buf.push(rec(
            5,
            Scope::Bank(0),
            EventKind::FaultInjected(FaultKind::DramSpike),
        ));
        buf.push(rec(200, Scope::Core(2), EventKind::SleepExit));
        let per_core = buf.gated_cycles_per_core();
        assert_eq!(per_core.get(&0), Some(&70));
        assert_eq!(per_core.get(&1), Some(&5));
        assert_eq!(per_core.get(&2), None);
    }

    #[test]
    fn chrome_trace_is_wellformed_and_deterministic() {
        let mut buf = TraceBuffer::default();
        buf.push(rec(10, Scope::Core(0), EventKind::StallBegin));
        buf.push(rec(
            12,
            Scope::Bank(1),
            EventKind::FaultInjected(FaultKind::DramSpike),
        ));
        buf.push(rec(20, Scope::Core(0), EventKind::StallEnd));
        buf.push(rec(30, Scope::Global, EventKind::SafeModeEnter));
        buf.push(rec(90, Scope::Global, EventKind::SafeModeExit));
        let json = buf.to_chrome_trace();
        assert_eq!(json, buf.to_chrome_trace(), "rendering must be stable");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}\n"));
        for needle in [
            "\"traceEvents\"",
            "\"process_name\"",
            "\"name\": \"cores\"",
            "\"name\": \"dram\"",
            "\"name\": \"controller\"",
            "\"ph\": \"B\", \"ts\": 10",
            "\"ph\": \"E\", \"ts\": 20",
            "\"ph\": \"i\", \"ts\": 12",
            "\"name\": \"dram-spike\"",
            "\"name\": \"safe-mode\"",
        ] {
            assert!(json.contains(needle), "missing '{needle}' in: {json}");
        }
        // Balanced-brace sanity: every line is one JSON object.
        for line in json.lines().skip(1) {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with('{') {
                assert!(line.ends_with('}'), "unterminated object: {line}");
            }
        }
    }

    #[test]
    fn default_capacity_is_large() {
        assert_eq!(TraceBuffer::default().capacity(), DEFAULT_TRACE_CAPACITY);
    }

    fn every_kind() -> Vec<EventKind> {
        KINDS
            .iter()
            .copied()
            .chain(FAULTS.iter().map(|&fault| EventKind::FaultInjected(fault)))
            .collect()
    }

    #[test]
    fn every_record_round_trips_through_a_slot() {
        let scopes = |id| [Scope::Core(id), Scope::Bank(id), Scope::Global];
        let mut seen = BTreeSet::new();
        for id in [0, 1, 7, u32::MAX] {
            for scope in scopes(id) {
                for kind in every_kind() {
                    for at in [0, 1, 1 << 40, u64::MAX] {
                        let record = rec(at, scope, kind);
                        let slot = Slot::pack(record);
                        assert_eq!(slot.unpack(), record);
                        seen.insert((slot.scope, slot.kind, slot.fault));
                    }
                }
            }
        }
        // 3 scopes x (10 plain kinds + 6 faults), each with its own tags.
        assert_eq!(seen.len(), 3 * 16);
    }

    /// `ring` at another wrap phase: the same records, capacity and drop
    /// count, its slots rotated so the oldest sits at `head`.
    fn rephased(ring: &TraceBuffer, head: usize) -> TraceBuffer {
        let mut slots: Vec<Slot> = ring.ordered_slots().collect();
        let head = if slots.len() == ring.capacity {
            head % slots.len()
        } else {
            0
        };
        slots.rotate_right(head);
        TraceBuffer {
            capacity: ring.capacity,
            slots,
            head,
            dropped: ring.dropped,
        }
    }

    fn record_strategy() -> impl Strategy<Value = TraceRecord> {
        (any::<u64>(), 0u8..3, any::<u32>(), 0usize..16).prop_map(|(at, scope, id, kind)| {
            let scope = match scope {
                0 => Scope::Core(id),
                1 => Scope::Bank(id),
                _ => Scope::Global,
            };
            rec(at, scope, every_kind()[kind])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn ring_matches_a_deque_model(
            capacity in 1usize..40,
            records in prop::collection::vec(record_strategy(), 0..200),
            phase in 0usize..40,
        ) {
            let mut ring = TraceBuffer::new(capacity);
            let mut model: VecDeque<TraceRecord> = VecDeque::new();
            let mut dropped = 0u64;
            for &record in &records {
                ring.push(record);
                if model.len() == capacity {
                    model.pop_front();
                    dropped += 1;
                }
                model.push_back(record);
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.dropped(), dropped);
                prop_assert!(ring.slots.capacity() <= capacity, "grew past capacity");
            }
            prop_assert!(ring.iter().eq(model.iter().copied()));
            prop_assert!(ring.iter().rev().eq(model.iter().rev().copied()));

            let twin = rephased(&ring, phase);
            prop_assert_eq!(&twin, &ring);
            prop_assert!(twin.iter().eq(ring.iter()));
            prop_assert_eq!(twin.to_chrome_trace(), ring.to_chrome_trace());
            if let Some(&last) = model.back() {
                let mut moved = twin.clone();
                let newest = (moved.head + moved.len() - 1) % moved.len();
                moved.slots[newest] = Slot::pack(rec(last.at ^ 1, last.scope, last.kind));
                prop_assert!(moved != ring, "a changed record must break equality");
                let mut recounted = twin.clone();
                recounted.dropped += 1;
                prop_assert!(recounted != ring, "a changed drop count must break equality");
            }
        }
    }
}
