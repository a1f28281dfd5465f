//! Recorded traces: capture a workload's event stream once, replay it
//! exactly.
//!
//! Recording serves two purposes a downstream user hits quickly:
//! regression corpora (pin the exact stream a bug reproduced on) and
//! cross-tool interchange (the text format is trivially producible from
//! a real pintool/DynamoRIO trace, which is how recorded SPEC traces
//! would enter this harness).
//!
//! # Format
//!
//! One event per line, `#`-prefixed comments, a `!` header line first:
//!
//! ```text
//! ! mapg-trace v1 name=mcf_like
//! C 120 240          # compute: cycles instructions
//! L 1a2b40 400010    # load:  addr_hex pc_hex
//! Ld 1a2b80 400014   # load, dependent on previous miss
//! S 7fe0 400018      # store: addr_hex pc_hex
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::event::{AccessKind, MemAccess, TraceEvent};
use crate::generator::EventSource;

/// A finite, exactly-reproducible event sequence.
///
/// ```
/// use mapg_trace::{RecordedTrace, SyntheticWorkload, WorkloadProfile, EventSource};
///
/// let profile = WorkloadProfile::mixed("capture");
/// let mut live = SyntheticWorkload::new(&profile, 3);
/// let trace = RecordedTrace::record(&mut live, 10_000);
/// assert!(trace.instructions() >= 10_000);
///
/// // Replay produces the identical prefix.
/// let mut fresh = SyntheticWorkload::new(&profile, 3);
/// let mut replay = trace.replay();
/// for _ in 0..100 {
///     assert_eq!(replay.next_event(), fresh.next_event());
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    name: String,
    events: Vec<TraceEvent>,
    instructions: u64,
}

impl RecordedTrace {
    /// Captures events from `source` until at least `instructions` have
    /// been covered.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn record<S: EventSource>(source: &mut S, instructions: u64) -> Self {
        assert!(instructions > 0, "must record at least one instruction");
        let mut events = Vec::new();
        let mut covered = 0;
        while covered < instructions {
            let event = source.next_event();
            covered += event.instructions();
            events.push(event);
        }
        RecordedTrace {
            name: source.name().to_owned(),
            events,
            instructions: covered,
        }
    }

    /// Builds a trace directly from events (for tests and hand-authored
    /// regression inputs).
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty.
    pub fn from_events(name: impl Into<String>, events: Vec<TraceEvent>) -> Self {
        assert!(!events.is_empty(), "a trace needs at least one event");
        let instructions = events.iter().map(TraceEvent::instructions).sum();
        RecordedTrace {
            name: name.into(),
            events,
            instructions,
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total instructions covered by the recording.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Returns a copy with every run of consecutive `Compute` events merged
    /// into one event carrying the summed cycles and instructions.
    ///
    /// Compute events touch no shared state, so a coalesced trace drives a
    /// core through the identical timeline with fewer events. Real pintool-style
    /// recordings are the main beneficiary: they often emit one tiny
    /// compute quantum per basic block. Stall-relevant events (memory
    /// accesses, idle periods) are never merged or reordered.
    pub fn coalesce_compute(&self) -> Self {
        let mut events: Vec<TraceEvent> = Vec::with_capacity(self.events.len());
        for &event in &self.events {
            if let (
                TraceEvent::Compute {
                    cycles,
                    instructions,
                },
                Some(TraceEvent::Compute {
                    cycles: acc_cycles,
                    instructions: acc_instructions,
                }),
            ) = (event, events.last_mut())
            {
                *acc_cycles += cycles;
                *acc_instructions += instructions;
            } else {
                events.push(event);
            }
        }
        RecordedTrace {
            name: self.name.clone(),
            events,
            instructions: self.instructions,
        }
    }

    /// Returns a copy with every `Compute` event split into quanta of at
    /// most `quantum` instructions, cycles apportioned proportionally —
    /// the inverse of [`RecordedTrace::coalesce_compute`].
    ///
    /// Pintool/DynamoRIO-style frontends emit one compute quantum per
    /// basic block (conventionally ~4 instructions), where the synthetic
    /// generator emits one coarse event per inter-access gap. Quantizing a
    /// coarse recording reproduces that fine-grained trace shape without
    /// needing a real binary frontend. Totals are preserved exactly: the
    /// quanta of one event sum to its original cycles and instructions,
    /// and non-compute events are never moved, so a core driven through
    /// the quantized trace follows the identical timeline.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn quantize_compute(&self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be at least one instruction");
        let mut events = Vec::with_capacity(self.events.len());
        for &event in &self.events {
            if let TraceEvent::Compute {
                mut cycles,
                mut instructions,
            } = event
            {
                while instructions > quantum {
                    // Proportional share of the remaining cycles, clamped
                    // so the tail never underflows; any rounding remainder
                    // lands on the final quantum.
                    let share = (cycles * quantum / instructions).max(1).min(cycles);
                    events.push(TraceEvent::Compute {
                        cycles: share,
                        instructions: quantum,
                    });
                    cycles -= share;
                    instructions -= quantum;
                }
                events.push(TraceEvent::Compute {
                    cycles,
                    instructions,
                });
            } else {
                events.push(event);
            }
        }
        RecordedTrace {
            name: self.name.clone(),
            events,
            instructions: self.instructions,
        }
    }

    /// An [`EventSource`] replaying this trace (cyclically — streams are
    /// unbounded by contract, so the replay wraps around at the end and a
    /// consumer that runs longer than the recording sees it repeated).
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            trace: self,
            index: 0,
        }
    }

    /// Serializes in the text format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`. Note that a `&mut W` can be
    /// passed for any `W: Write`.
    pub fn write_to<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut w = BufWriter::new(writer);
        writeln!(w, "! mapg-trace v1 name={}", self.name)?;
        for event in &self.events {
            match event {
                TraceEvent::Compute {
                    cycles,
                    instructions,
                } => writeln!(w, "C {cycles} {instructions}")?,
                TraceEvent::MemAccess(access) => {
                    let tag = match (access.kind, access.dependent) {
                        (AccessKind::Load, false) => "L",
                        (AccessKind::Load, true) => "Ld",
                        (AccessKind::Store, false) => "S",
                        (AccessKind::Store, true) => "Sd",
                    };
                    writeln!(w, "{tag} {:x} {:x}", access.addr, access.pc)?;
                }
                TraceEvent::Idle { cycles } => writeln!(w, "I {cycles}")?,
            }
        }
        w.flush()
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on malformed input (with the offending
    /// line number) and propagates I/O errors as
    /// [`ParseTraceError::Io`].
    pub fn read_from<R: Read>(reader: R) -> Result<Self, ParseTraceError> {
        let reader = BufReader::new(reader);
        let mut name = String::from("unnamed");
        let mut events = Vec::new();
        for (index, line) in reader.lines().enumerate() {
            let line = line.map_err(ParseTraceError::Io)?;
            let number = index + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('!') {
                if let Some(n) = header
                    .split_whitespace()
                    .find_map(|tok| tok.strip_prefix("name="))
                {
                    name = n.to_owned();
                }
                continue;
            }
            events.push(Self::parse_event(line, number)?);
        }
        if events.is_empty() {
            return Err(ParseTraceError::Empty);
        }
        Ok(RecordedTrace::from_events(name, events))
    }

    fn parse_event(line: &str, number: usize) -> Result<TraceEvent, ParseTraceError> {
        let bad = |reason: &'static str| ParseTraceError::Malformed {
            line: number,
            reason,
        };
        let mut parts = line.split_whitespace();
        let tag = parts.next().ok_or_else(|| bad("empty line"))?;
        match tag {
            "C" => {
                let cycles = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("bad cycle count"))?;
                let instructions = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("bad instruction count"))?;
                Ok(TraceEvent::Compute {
                    cycles,
                    instructions,
                })
            }
            "I" => {
                let cycles = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("bad idle cycle count"))?;
                Ok(TraceEvent::Idle { cycles })
            }
            "L" | "Ld" | "S" | "Sd" => {
                let addr = parts
                    .next()
                    .and_then(|t| u64::from_str_radix(t, 16).ok())
                    .ok_or_else(|| bad("bad address"))?;
                let pc = parts
                    .next()
                    .and_then(|t| u64::from_str_radix(t, 16).ok())
                    .ok_or_else(|| bad("bad pc"))?;
                Ok(TraceEvent::MemAccess(MemAccess {
                    addr,
                    pc,
                    kind: if tag.starts_with('L') {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    },
                    dependent: tag.ends_with('d'),
                }))
            }
            _ => Err(bad("unknown event tag")),
        }
    }

    /// Saves to a file in the text format.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_to(File::create(path)?)
    }

    /// Loads from a file in the text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on open, read or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ParseTraceError> {
        let file = File::open(path).map_err(ParseTraceError::Io)?;
        Self::read_from(file)
    }
}

/// Replaying view over a [`RecordedTrace`].
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    trace: &'a RecordedTrace,
    index: usize,
}

impl EventSource for Replay<'_> {
    #[inline]
    fn next_event(&mut self) -> TraceEvent {
        let event = self.trace.events[self.index];
        // Wrap with a compare, not `%`: replay feeds the cores' innermost
        // fetch loop, where a hardware divide per event is measurable.
        self.index += 1;
        if self.index == self.trace.events.len() {
            self.index = 0;
        }
        event
    }

    fn name(&self) -> &str {
        &self.trace.name
    }
}

impl Iterator for Replay<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        Some(self.next_event())
    }
}

/// Error parsing a recorded trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line failed to parse.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// The input contained no events.
    Empty,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "malformed trace at line {line}: {reason}")
            }
            ParseTraceError::Empty => f.write_str("trace contains no events"),
        }
    }
}

impl std::error::Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticWorkload;
    use crate::profile::WorkloadProfile;

    fn sample() -> RecordedTrace {
        let profile = WorkloadProfile::mem_bound("roundtrip");
        let mut workload = SyntheticWorkload::new(&profile, 77);
        RecordedTrace::record(&mut workload, 5_000)
    }

    #[test]
    fn quantize_preserves_totals_and_order() {
        let trace = sample();
        let quantized = trace.quantize_compute(4);
        let totals = |t: &RecordedTrace| {
            t.events().iter().fold((0u64, 0u64), |(c, i), e| match e {
                TraceEvent::Compute {
                    cycles,
                    instructions,
                } => (c + cycles, i + instructions),
                _ => (c, i),
            })
        };
        assert_eq!(totals(&trace), totals(&quantized));
        assert!(quantized.events().len() > trace.events().len());
        // Every quantum respects the bound and non-compute events keep
        // their relative order.
        let non_compute = |t: &RecordedTrace| {
            t.events()
                .iter()
                .filter(|e| !matches!(e, TraceEvent::Compute { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        for event in quantized.events() {
            if let TraceEvent::Compute { instructions, .. } = event {
                assert!(*instructions <= 4);
            }
        }
        assert_eq!(non_compute(&trace), non_compute(&quantized));
        // Coalescing is the exact inverse up to compute-run merging.
        assert_eq!(
            quantized.coalesce_compute().events(),
            trace.coalesce_compute().events()
        );
    }

    #[test]
    fn quantize_handles_cycle_starved_blocks() {
        // Fewer cycles than quanta: the tail quanta must absorb zero
        // cycles rather than underflow.
        let trace = RecordedTrace::from_events(
            "starved",
            vec![TraceEvent::Compute {
                cycles: 2,
                instructions: 100,
            }],
        );
        let quantized = trace.quantize_compute(4);
        let (cycles, instructions) =
            quantized
                .events()
                .iter()
                .fold((0u64, 0u64), |(c, i), e| match e {
                    TraceEvent::Compute {
                        cycles,
                        instructions,
                    } => (c + cycles, i + instructions),
                    _ => (c, i),
                });
        assert_eq!((cycles, instructions), (2, 100));
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = sample().quantize_compute(0);
    }

    #[test]
    fn record_covers_requested_instructions() {
        let trace = sample();
        assert!(trace.instructions() >= 5_000);
        assert_eq!(trace.name(), "roundtrip");
        assert!(!trace.events().is_empty());
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let trace = sample();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("in-memory write");
        let parsed = RecordedTrace::read_from(buffer.as_slice()).expect("parse back");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn replay_wraps_around() {
        let events = vec![
            TraceEvent::Compute {
                cycles: 1,
                instructions: 2,
            },
            TraceEvent::MemAccess(MemAccess {
                addr: 0x40,
                pc: 0x1000,
                kind: AccessKind::Load,
                dependent: true,
            }),
        ];
        let trace = RecordedTrace::from_events("tiny", events.clone());
        let mut replay = trace.replay();
        for round in 0..3 {
            for expected in &events {
                assert_eq!(replay.next_event(), *expected, "round {round}");
            }
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let input = "! mapg-trace v1 name=x\nC 10 20\nL zz 4\n";
        match RecordedTrace::read_from(input.as_bytes()) {
            Err(ParseTraceError::Malformed { line, reason }) => {
                assert_eq!(line, 3);
                assert_eq!(reason, "bad address");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unknown_tags() {
        let input = "X 1 2\n";
        assert!(matches!(
            RecordedTrace::read_from(input.as_bytes()),
            Err(ParseTraceError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn parse_rejects_empty_input() {
        let input = "# only a comment\n";
        assert!(matches!(
            RecordedTrace::read_from(input.as_bytes()),
            Err(ParseTraceError::Empty)
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let input = "\n# hello\n! mapg-trace v1 name=commented\nC 5 5\n\nS ff 10\n";
        let trace = RecordedTrace::read_from(input.as_bytes()).expect("parses");
        assert_eq!(trace.name(), "commented");
        assert_eq!(trace.events().len(), 2);
    }

    #[test]
    fn dependent_flags_round_trip() {
        let events = vec![
            TraceEvent::MemAccess(MemAccess {
                addr: 0x100,
                pc: 0x4,
                kind: AccessKind::Load,
                dependent: true,
            }),
            TraceEvent::MemAccess(MemAccess {
                addr: 0x200,
                pc: 0x8,
                kind: AccessKind::Store,
                dependent: true,
            }),
        ];
        let trace = RecordedTrace::from_events("deps", events);
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("write");
        let text = String::from_utf8(buffer.clone()).expect("utf8");
        assert!(text.contains("Ld 100 4"), "{text}");
        assert!(text.contains("Sd 200 8"), "{text}");
        let parsed = RecordedTrace::read_from(buffer.as_slice()).expect("parse");
        assert_eq!(parsed.events(), trace.events());
    }

    #[test]
    fn file_save_load_round_trip() {
        let trace = sample();
        let path = std::env::temp_dir().join("mapg_trace_roundtrip.trc");
        trace.save(&path).expect("save");
        let loaded = RecordedTrace::load(&path).expect("load");
        assert_eq!(loaded, trace);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn coalesce_merges_compute_runs_only() {
        let load = TraceEvent::MemAccess(MemAccess {
            addr: 0x40,
            pc: 0x1000,
            kind: AccessKind::Load,
            dependent: false,
        });
        let compute = |cycles, instructions| TraceEvent::Compute {
            cycles,
            instructions,
        };
        let trace = RecordedTrace::from_events(
            "merge",
            vec![
                compute(1, 2),
                compute(3, 4),
                compute(5, 6),
                load,
                TraceEvent::Idle { cycles: 9 },
                compute(7, 8),
                compute(9, 10),
            ],
        );
        let merged = trace.coalesce_compute();
        assert_eq!(
            merged.events(),
            &[
                compute(9, 12),
                load,
                TraceEvent::Idle { cycles: 9 },
                compute(16, 18),
            ]
        );
        assert_eq!(merged.instructions(), trace.instructions());
        assert_eq!(merged.name(), trace.name());
    }

    #[test]
    fn coalesce_is_identity_without_adjacent_computes() {
        let trace = sample();
        let merged = trace.coalesce_compute();
        // The synthetic generator never emits back-to-back computes, so
        // coalescing must be a no-op on its recordings.
        assert_eq!(merged, trace);
    }

    #[test]
    fn error_display_forms() {
        let malformed = ParseTraceError::Malformed {
            line: 7,
            reason: "bad pc",
        };
        assert!(malformed.to_string().contains("line 7"));
        assert!(ParseTraceError::Empty.to_string().contains("no events"));
    }
}
