//! Bounded event ring buffer and Chrome `trace_event` export.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::event::{EventKind, Scope, TraceRecord};

/// Default ring capacity: ample for every smoke/quick-scale run in the
/// workspace (the regression suite asserts nothing was dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// A bounded, drop-oldest ring of [`TraceRecord`]s.
///
/// The buffer preserves insertion order — which, for a single simulation,
/// is simulation order — and counts records it had to drop, so consumers
/// can tell a complete trace from a truncated one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    capacity: usize,
    records: VecDeque<TraceRecord>,
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
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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

    /// Iterates retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
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
    use super::*;
    use crate::event::FaultKind;

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
}
