//! Value Change Dump export of the cores' power-gating states.
//!
//! The trace already records every sleep: `SleepEnter` when the entry
//! ramp completes, `WakeStart` and `WakeDone` around the wake ramp.
//! [`TraceBuffer::to_vcd`] replays those records as one 2-bit state wire
//! per core, so the gating behaviour can be inspected in any waveform
//! viewer (GTKWave etc.) next to the rest of a chip's signals.

use std::io::{self, BufWriter, Write};

use crate::event::{EventKind, Scope};
use crate::trace::TraceBuffer;

/// State encodings on the wire: active, entering, sleeping, waking.
const ACTIVE: &str = "00";
const ENTERING: &str = "01";
const SLEEPING: &str = "10";
const WAKING: &str = "11";

impl TraceBuffer {
    /// Writes every core's power-gating state as a Value Change Dump: one
    /// 2-bit wire per core that gated (`00` active, `01` entering, `10`
    /// sleeping, `11` waking), one VCD time unit per core cycle.
    ///
    /// A `SleepEnter` at cycle `t` marks the entry ramp, which began
    /// `entry_cycles` earlier, and the start of sleep at `t`; `WakeStart`
    /// and `WakeDone` mark the wake ramp. Changes are written in time
    /// order; changes at the same cycle keep their trace order.
    ///
    /// ```
    /// use mapg_obs::{EventKind, Scope, TraceBuffer, TraceRecord};
    ///
    /// let mut trace = TraceBuffer::default();
    /// for (at, kind) in [
    ///     (103, EventKind::SleepEnter),
    ///     (200, EventKind::WakeStart),
    ///     (210, EventKind::WakeDone),
    /// ] {
    ///     trace.push(TraceRecord { at, scope: Scope::Core(0), kind });
    /// }
    /// let mut vcd = Vec::new();
    /// trace.to_vcd(3, &mut vcd).expect("in-memory write");
    /// let text = String::from_utf8(vcd).expect("vcd is ascii");
    /// assert!(text.contains("$enddefinitions"));
    /// assert!(text.contains("#100\nb01 !"));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] when the ring dropped
    /// records, because the waveform of a truncated trace would misstate
    /// the early states. Propagates I/O errors from `writer`.
    pub fn to_vcd<W: Write>(&self, entry_cycles: u64, writer: W) -> io::Result<()> {
        if !self.is_complete() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "the trace dropped {} record(s); a waveform needs the whole run \
                     (raise the trace capacity)",
                    self.dropped()
                ),
            ));
        }
        let mut changes: Vec<(u64, u32, &str)> = Vec::new();
        for record in self.iter() {
            let Scope::Core(core) = record.scope else {
                continue;
            };
            match record.kind {
                EventKind::SleepEnter => {
                    changes.push((record.at.saturating_sub(entry_cycles), core, ENTERING));
                    changes.push((record.at, core, SLEEPING));
                }
                EventKind::WakeStart => changes.push((record.at, core, WAKING)),
                EventKind::WakeDone => changes.push((record.at, core, ACTIVE)),
                _ => {}
            }
        }

        let mut w = BufWriter::new(writer);
        let cores = changes
            .iter()
            .map(|&(_, core, _)| core as usize + 1)
            .max()
            .unwrap_or(0)
            .max(1);
        writeln!(w, "$comment MAPG gating timeline $end")?;
        writeln!(w, "$timescale 1ns $end")?;
        writeln!(w, "$scope module mapg $end")?;
        for core in 0..cores {
            writeln!(w, "$var wire 2 {} core{core}_pg_state $end", code(core))?;
        }
        writeln!(w, "$upscope $end")?;
        writeln!(w, "$enddefinitions $end")?;

        // Initial values: every core starts active.
        writeln!(w, "#0")?;
        writeln!(w, "$dumpvars")?;
        for core in 0..cores {
            writeln!(w, "b{ACTIVE} {}", code(core))?;
        }
        writeln!(w, "$end")?;

        // Changes must be written in global time order.
        changes.sort_by_key(|&(at, _, _)| at);
        let mut current_time = None;
        for (at, core, state) in changes {
            if current_time != Some(at) {
                writeln!(w, "#{at}")?;
                current_time = Some(at);
            }
            writeln!(w, "b{state} {}", code(core as usize))?;
        }
        w.flush()
    }
}

/// VCD identifier code for a core index (printable ASCII from `!`).
fn code(core: usize) -> String {
    // Base-94 over the printable VCD identifier alphabet.
    let mut n = core;
    let mut out = String::new();
    loop {
        out.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceRecord;

    fn push(trace: &mut TraceBuffer, at: u64, core: u32, kind: EventKind) {
        trace.push(TraceRecord {
            at,
            scope: Scope::Core(core),
            kind,
        });
    }

    /// One sleep whose entry ramp starts at `base`, with a 3-cycle entry.
    fn full_cycle(trace: &mut TraceBuffer, core: u32, base: u64) {
        push(trace, base + 3, core, EventKind::SleepEnter);
        push(trace, base + 100, core, EventKind::SleepExit);
        push(trace, base + 100, core, EventKind::WakeStart);
        push(trace, base + 110, core, EventKind::WakeDone);
    }

    fn render(trace: &TraceBuffer) -> String {
        let mut out = Vec::new();
        trace.to_vcd(3, &mut out).expect("write");
        String::from_utf8(out).expect("ascii")
    }

    #[test]
    fn vcd_structure() {
        let mut trace = TraceBuffer::default();
        // Stall records, even on a core that never gated, add no wire.
        push(&mut trace, 5, 4, EventKind::StallBegin);
        full_cycle(&mut trace, 0, 10);
        let text = render(&trace);
        assert!(text.contains("$var wire 2 ! core0_pg_state $end"), "{text}");
        assert!(!text.contains("core1_pg_state"), "{text}");
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("#10\nb01 !"), "{text}");
        assert!(text.contains("#13\nb10 !"), "{text}");
        assert!(text.contains("#110\nb11 !"), "{text}");
        assert!(text.contains("#120\nb00 !"), "{text}");
    }

    #[test]
    fn vcd_orders_interleaved_cores_by_time() {
        let mut trace = TraceBuffer::default();
        push(&mut trace, 103, 0, EventKind::SleepEnter);
        // Core 1 is behind core 0 in time: allowed.
        push(&mut trace, 43, 1, EventKind::SleepEnter);
        let text = render(&trace);
        assert!(text.contains("core1_pg_state"), "{text}");
        let pos40 = text.find("#40").expect("time 40");
        let pos100 = text.find("#100").expect("time 100");
        assert!(pos40 < pos100, "{text}");
    }

    #[test]
    fn identifier_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for core in 0..500 {
            let code = code(core);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code), "duplicate code for core {core}");
        }
    }

    #[test]
    fn empty_trace_writes_valid_header() {
        let text = render(&TraceBuffer::default());
        assert!(text.contains("core0_pg_state"), "at least one signal");
        assert!(text.ends_with("$end\n"), "{text}");
    }

    #[test]
    fn truncated_trace_is_refused() {
        let mut trace = TraceBuffer::new(2);
        full_cycle(&mut trace, 0, 10);
        let mut out = Vec::new();
        let err = trace.to_vcd(3, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("dropped 2 record(s)"), "{err}");
        assert!(out.is_empty(), "no partial waveform");
    }
}
