//! Bounded event ring buffer and Chrome `trace_event` export.

use std::collections::{BTreeMap, BTreeSet};
use std::iter::Chain;
use std::slice;

use crate::event::{EventKind, FaultKind, Scope, TraceRecord};

/// Default ring capacity: ample for every smoke/quick-scale run in the
/// workspace (the regression suite asserts nothing was dropped). A full
/// ring of this many 8-byte words holds 8 MiB.
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

/// Field widths of a narrow word, low bits first: the cycle, the scope
/// id, then one code for (scope, kind, fault) — `scope << 4 | kind +
/// fault`, 48 of its 64 values used. The top 3 bits are zero.
const CYCLE_BITS: u32 = 44;
const ID_BITS: u32 = 11;
const CODE_BITS: u32 = 6;
const _: () = assert!(CYCLE_BITS + ID_BITS + CODE_BITS <= 64);
const _: () = assert!(((GLOBAL << 4) | (FAULT + FAULTS.len() as u8 - 1)) >> CODE_BITS == 0);

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

    /// The slot as one narrow word, or `None` when its cycle needs more
    /// than [`CYCLE_BITS`] or its id more than [`ID_BITS`].
    fn to_word(self) -> Option<u64> {
        if self.at >> CYCLE_BITS != 0 || self.id >> ID_BITS != 0 {
            return None;
        }
        let code = u64::from((self.scope << 4) | (self.kind + self.fault));
        Some(self.at | (u64::from(self.id) << CYCLE_BITS) | (code << (CYCLE_BITS + ID_BITS)))
    }

    /// Inverts [`Slot::to_word`].
    fn from_word(word: u64) -> Slot {
        let code = (word >> (CYCLE_BITS + ID_BITS)) as u8;
        let (kind, fault) = match code & 0xf {
            kind if kind < FAULT => (kind, 0),
            fault => (FAULT, fault - FAULT),
        };
        Slot {
            at: word & ((1 << CYCLE_BITS) - 1),
            id: (word >> CYCLE_BITS) as u32 & ((1 << ID_BITS) - 1),
            scope: code >> 4,
            kind,
            fault,
        }
    }
}

/// A ring's storage: narrow words until the first record that does not
/// fit one, 16-byte slots from then on.
#[derive(Debug, Clone)]
enum Slots {
    Narrow(Vec<u64>),
    Wide(Vec<Slot>),
}

/// Stores `value` in a ring of `capacity` whose oldest entry is at
/// `*head`: appended (growing the vector by doubling, never past
/// `capacity`) until full, then over the oldest. True when it overwrote.
fn put<T>(ring: &mut Vec<T>, capacity: usize, head: &mut usize, value: T) -> bool {
    if ring.len() < capacity {
        if ring.len() == ring.capacity() {
            let grown = (ring.len() * 2).max(64).min(capacity);
            ring.reserve_exact(grown - ring.len());
        }
        ring.push(value);
        false
    } else {
        ring[*head] = value;
        *head += 1;
        if *head == capacity {
            *head = 0;
        }
        true
    }
}

/// A ring's entries oldest-first: two physical runs, chained.
type Runs<'a, T> = Chain<slice::Iter<'a, T>, slice::Iter<'a, T>>;

/// The entries of a ring whose oldest is at `head`, oldest-first from
/// the `skip`-th on.
fn runs<T>(ring: &[T], head: usize, skip: usize) -> Runs<'_, T> {
    let (newer, older) = ring.split_at(head);
    let (first, second) = match older.get(skip..) {
        Some(rest) => (rest, newer),
        None => (newer.get(skip - older.len()..).unwrap_or(&[]), &[][..]),
    };
    first.iter().chain(second)
}

/// A ring's slots oldest-first, decoded from either storage width.
enum OrderedSlots<'a> {
    Narrow(Runs<'a, u64>),
    Wide(Runs<'a, Slot>),
}

impl Iterator for OrderedSlots<'_> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        match self {
            OrderedSlots::Narrow(words) => words.next().map(|&word| Slot::from_word(word)),
            OrderedSlots::Wide(slots) => slots.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            OrderedSlots::Narrow(words) => words.size_hint(),
            OrderedSlots::Wide(slots) => slots.size_hint(),
        }
    }
}

impl DoubleEndedIterator for OrderedSlots<'_> {
    fn next_back(&mut self) -> Option<Slot> {
        match self {
            OrderedSlots::Narrow(words) => words.next_back().map(|&word| Slot::from_word(word)),
            OrderedSlots::Wide(slots) => slots.next_back().copied(),
        }
    }
}

/// A bounded, drop-oldest ring of [`TraceRecord`]s.
///
/// The buffer preserves insertion order — which, for a single simulation,
/// is simulation order — and counts records it had to drop, so consumers
/// can tell a complete trace from a truncated one.
///
/// Records are stored packed and decoded only when read: one 8-byte word
/// each while every cycle is below 2^44 and every scope id below 2^11,
/// else 16-byte slots. The first record that does not fit a word switches
/// the ring to slots once, in place, keeping each entry's position. The
/// storage grows on demand to exactly `capacity` entries; once full, each
/// push overwrites the oldest in place and advances the head. Two rings
/// are equal when their capacities, drop counts and records in logical
/// (oldest-first) order are, whatever their wrap phase or width.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    capacity: usize,
    slots: Slots,
    /// Index of the oldest entry: 0 until the ring first wraps.
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
            slots: Slots::Narrow(Vec::new()),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TraceRecord) {
        let slot = Slot::pack(record);
        let overwrote = match (&mut self.slots, slot.to_word()) {
            (Slots::Narrow(words), Some(word)) => put(words, self.capacity, &mut self.head, word),
            (Slots::Wide(slots), _) => put(slots, self.capacity, &mut self.head, slot),
            (Slots::Narrow(words), None) => {
                let mut wide = Vec::with_capacity(words.capacity());
                wide.extend(words.iter().map(|&word| Slot::from_word(word)));
                let overwrote = put(&mut wide, self.capacity, &mut self.head, slot);
                self.slots = Slots::Wide(wide);
                overwrote
            }
        };
        self.dropped += u64::from(overwrote);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Narrow(words) => words.len(),
            Slots::Wide(slots) => slots.len(),
        }
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Iterates retained records oldest-first, decoding each entry.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceRecord> + '_ {
        self.iter_from(0)
    }

    /// Like [`TraceBuffer::iter`], but starting at the `skip`-th oldest
    /// retained record (empty past the newest); the start costs O(1).
    pub(crate) fn iter_from(
        &self,
        skip: usize,
    ) -> impl DoubleEndedIterator<Item = TraceRecord> + '_ {
        self.ordered_slots(skip).map(Slot::unpack)
    }

    /// The retained slots oldest-first, from the `skip`-th on.
    fn ordered_slots(&self, skip: usize) -> OrderedSlots<'_> {
        match &self.slots {
            Slots::Narrow(words) => OrderedSlots::Narrow(runs(words, self.head, skip)),
            Slots::Wide(slots) => OrderedSlots::Wide(runs(slots, self.head, skip)),
        }
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
            && self.ordered_slots(0).eq(other.ordered_slots(0))
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

    /// The first cycle and id that do not fit a narrow word, spelled out
    /// rather than taken from the layout constants under test.
    const WIDE_AT: u64 = 1 << 44;
    const WIDE_ID: u32 = 1 << 11;

    fn fits(record: TraceRecord) -> bool {
        let id = match record.scope {
            Scope::Core(id) | Scope::Bank(id) => id,
            Scope::Global => 0,
        };
        record.at < WIDE_AT && id < WIDE_ID
    }

    fn is_wide(ring: &TraceBuffer) -> bool {
        matches!(ring.slots, Slots::Wide(_))
    }

    #[test]
    fn every_record_round_trips_through_a_slot() {
        let scopes = |id| [Scope::Core(id), Scope::Bank(id), Scope::Global];
        let mut codes = BTreeSet::new();
        for id in [0, 1, 7, WIDE_ID - 1, WIDE_ID, u32::MAX] {
            for scope in scopes(id) {
                for kind in every_kind() {
                    for at in [0, 1, 1 << 40, WIDE_AT - 1, WIDE_AT, u64::MAX] {
                        let record = rec(at, scope, kind);
                        let slot = Slot::pack(record);
                        assert_eq!(slot.unpack(), record);
                        let word = slot.to_word();
                        assert_eq!(word.is_some(), fits(record), "{record:?}");
                        if let Some(word) = word {
                            assert_eq!(Slot::from_word(word), slot, "{record:?}");
                            assert_eq!(word >> (CYCLE_BITS + ID_BITS + CODE_BITS), 0);
                            codes.insert(word >> (CYCLE_BITS + ID_BITS));
                        }
                        let first = rec(5, Scope::Core(3), EventKind::StallBegin);
                        let mut ring = TraceBuffer::new(2);
                        ring.push(first);
                        ring.push(record);
                        assert_eq!(is_wide(&ring), !fits(record));
                        assert!(ring.iter().eq([first, record]));
                    }
                }
            }
        }
        // 3 scopes x (10 plain kinds + 6 faults), each with its own code.
        assert_eq!(codes.len(), 3 * 16);
    }

    #[test]
    fn narrow_words_have_the_documented_layout() {
        let word = |record| Slot::pack(record).to_word().unwrap();
        let fault = EventKind::FaultInjected(FaultKind::SensorNoise);
        assert_eq!(
            word(rec(0x123, Scope::Core(5), fault)),
            0x123 | (5 << 44) | (15 << 55)
        );
        assert_eq!(
            word(rec(
                WIDE_AT - 1,
                Scope::Bank(WIDE_ID - 1),
                EventKind::StallEnd
            )),
            ((1 << 44) - 1) | (2047 << 44) | ((16 + 1) << 55)
        );
        assert_eq!(
            word(rec(7, Scope::Global, EventKind::SafeModeExit)),
            7 | ((32 + 9) << 55)
        );
    }

    /// `ring` at another wrap phase: the same records, capacity, drop
    /// count and width, its entries rotated so the oldest sits at `head`.
    fn rephased(ring: &TraceBuffer, head: usize) -> TraceBuffer {
        let head = if ring.len() == ring.capacity {
            head % ring.len()
        } else {
            0
        };
        let mut ordered: Vec<Slot> = ring.ordered_slots(0).collect();
        ordered.rotate_right(head);
        let slots = if is_wide(ring) {
            Slots::Wide(ordered)
        } else {
            Slots::Narrow(ordered.iter().map(|slot| slot.to_word().unwrap()).collect())
        };
        TraceBuffer {
            capacity: ring.capacity,
            slots,
            head,
            dropped: ring.dropped,
        }
    }

    /// `ring` stored in 16-byte slots, entry for entry.
    fn widened(ring: &TraceBuffer) -> TraceBuffer {
        let Slots::Narrow(words) = &ring.slots else {
            return ring.clone();
        };
        TraceBuffer {
            slots: Slots::Wide(words.iter().map(|&word| Slot::from_word(word)).collect()),
            ..ring.clone()
        }
    }

    /// Overwrites the newest entry of a non-empty ring with `record`.
    fn replace_newest(ring: &mut TraceBuffer, record: TraceRecord) {
        let newest = (ring.head + ring.len() - 1) % ring.len();
        match &mut ring.slots {
            Slots::Narrow(words) => words[newest] = Slot::pack(record).to_word().unwrap(),
            Slots::Wide(slots) => slots[newest] = Slot::pack(record),
        }
    }

    fn record_of(at: u64, scope: u8, id: u32, kind: usize) -> TraceRecord {
        let scope = match scope {
            0 => Scope::Core(id),
            1 => Scope::Bank(id),
            _ => Scope::Global,
        };
        rec(at, scope, every_kind()[kind])
    }

    /// Records that fit a narrow word.
    fn narrow_record() -> impl Strategy<Value = TraceRecord> {
        (0..WIDE_AT, 0u8..3, 0..WIDE_ID, 0usize..16)
            .prop_map(|(at, scope, id, kind)| record_of(at, scope, id, kind))
    }

    /// Records that do not: a cycle or an id (or both) past its field.
    fn wide_record() -> impl Strategy<Value = TraceRecord> {
        (any::<u64>(), 0u8..3, any::<u32>(), 0usize..16, 0u8..3).prop_map(
            |(at, scope, id, kind, past)| {
                let (at, id) = match (past, scope) {
                    (0, _) | (_, 2) => (at | WIDE_AT, id),
                    (1, _) => (at % WIDE_AT, id | WIDE_ID),
                    _ => (at | WIDE_AT, id | WIDE_ID),
                };
                record_of(at, scope, id, kind)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn ring_matches_a_deque_model(
            capacity in 1usize..40,
            records in prop::collection::vec(narrow_record(), 0..200),
            widen in (0u8..3, 0usize..400, wide_record()),
            phase in 0usize..40,
        ) {
            // Two cases in three push one record that forces widening,
            // after a random number of narrow pushes (so at a random
            // wrap phase); the rest stay narrow throughout.
            let (forced, at, wide) = widen;
            let mut records = records;
            let forced_at = (forced > 0).then_some(at % (records.len() + 1));
            if let Some(at) = forced_at {
                records.insert(at, wide);
            }
            let mut ring = TraceBuffer::new(capacity);
            let mut model: VecDeque<TraceRecord> = VecDeque::new();
            let mut dropped = 0u64;
            for (pushed, &record) in records.iter().enumerate() {
                ring.push(record);
                if model.len() == capacity {
                    model.pop_front();
                    dropped += 1;
                }
                model.push_back(record);
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.dropped(), dropped);
                prop_assert_eq!(is_wide(&ring), forced_at.is_some_and(|at| pushed >= at));
                let allocated = match &ring.slots {
                    Slots::Narrow(words) => words.capacity(),
                    Slots::Wide(slots) => slots.capacity(),
                };
                prop_assert!(allocated <= capacity, "grew past capacity");
                prop_assert!(ring.iter().eq(model.iter().copied()));
            }
            prop_assert!(ring.iter().rev().eq(model.iter().rev().copied()));
            for skip in 0..=model.len() + 1 {
                prop_assert!(ring.iter_from(skip).eq(model.iter().skip(skip).copied()));
            }

            let twin = rephased(&ring, phase);
            prop_assert_eq!(&twin, &ring);
            prop_assert!(twin.iter().eq(ring.iter()));
            prop_assert_eq!(twin.to_chrome_trace(), ring.to_chrome_trace());
            let wide_twin = widened(&twin);
            prop_assert_eq!(&wide_twin, &ring);
            prop_assert_eq!(&ring, &wide_twin);
            if let Some(&last) = model.back() {
                for twin in [&twin, &wide_twin] {
                    let mut moved = twin.clone();
                    replace_newest(&mut moved, rec(last.at ^ 1, last.scope, last.kind));
                    prop_assert!(moved != ring, "a changed record must break equality");
                    let mut recounted = twin.clone();
                    recounted.dropped += 1;
                    prop_assert!(recounted != ring, "a changed drop count must break equality");
                }
            }
        }
    }
}
