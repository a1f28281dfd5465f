//! Miss-status holding registers.
//!
//! MSHRs bound how many distinct line misses can be outstanding at once —
//! the hardware limit on memory-level parallelism — and merge *secondary*
//! misses (another reference to a line that is already being fetched) into
//! the existing entry instead of issuing duplicate DRAM traffic.

use mapg_units::Cycle;

use crate::error::ConfigError;

/// Outcome of presenting a missing line to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the fetch.
    Allocated,
    /// The line is already in flight; this reference completes when the
    /// existing fetch does.
    Merged {
        /// Completion time of the in-flight fetch.
        completion: Cycle,
    },
    /// All entries are busy; the reference must stall until `free_at`, the
    /// earliest completion among current entries, then retry.
    Full {
        /// Earliest time an entry frees up.
        free_at: Cycle,
    },
}

/// A file of miss-status holding registers.
///
/// The file is stored line-keyed as two parallel arrays (`lines`,
/// `completions`) rather than an array of entry structs: `lookup` is a
/// scan over every in-flight line on the demand-miss path, and a
/// contiguous `u64` key array lets that scan vectorize instead of striding
/// over interleaved `(line, completion)` pairs.
///
/// ```
/// use mapg_mem::{MshrFile, MshrOutcome};
/// use mapg_units::Cycle;
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.lookup(Cycle::new(0), 7), MshrOutcome::Allocated);
/// mshrs.commit(7, Cycle::new(100));
/// // Same line again: merged into the in-flight fetch.
/// assert!(matches!(mshrs.lookup(Cycle::new(1), 7), MshrOutcome::Merged { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// In-flight line addresses; `completions[i]` pairs with `lines[i]`.
    lines: Vec<u64>,
    /// Completion timestamps, raw cycles, parallel to `lines`.
    completions: Vec<u64>,
    /// Earliest completion among the entries, `u64::MAX` when empty.
    ///
    /// This is an *exact* cache, not a hint: `commit` min-folds the new
    /// completion in and `retire` recomputes over the survivors, so every
    /// consumer (lazy retirement's early-out, the `Full` stall time,
    /// [`MshrFile::earliest_completion`]) reads one word instead of
    /// re-minimizing the file.
    earliest: Cycle,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a core with no MSHRs cannot miss at
    /// all, which is never the intent).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "{}", ConfigError::ZeroMshrs);
        MshrFile {
            capacity,
            lines: Vec::with_capacity(capacity),
            completions: Vec::with_capacity(capacity),
            earliest: Cycle::new(u64::MAX),
        }
    }

    /// Number of entries currently in flight at time `now` (entries whose
    /// completion has passed are retired lazily by this call).
    pub fn in_flight(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.lines.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Presents a missing `line` at time `now`.
    ///
    /// If `Allocated` is returned the caller must follow up with
    /// [`MshrFile::commit`] once it knows the fetch's completion time.
    #[inline]
    pub fn lookup(&mut self, now: Cycle, line: u64) -> MshrOutcome {
        self.retire(now);
        // Branchless find: lines are unique, so the last match is the only
        // match, and the select compiles to a conditional move — an
        // early-exit `find` mispredicts on effectively random positions.
        let mut found = usize::MAX;
        for (i, &l) in self.lines.iter().enumerate() {
            found = if l == line { i } else { found };
        }
        if found != usize::MAX {
            return MshrOutcome::Merged {
                completion: Cycle::new(self.completions[found]),
            };
        }
        if self.lines.len() >= self.capacity {
            // `earliest` is exact whenever the file is non-empty (and a
            // full file is non-empty because new() rejects capacity == 0),
            // so the stall time is the cache — no re-minimization.
            return MshrOutcome::Full {
                free_at: self.earliest,
            };
        }
        MshrOutcome::Allocated
    }

    /// Records the completion time of a fetch previously `Allocated` for
    /// `line`.
    ///
    /// # Panics
    ///
    /// Panics if the file is already full or the line is already tracked —
    /// both indicate the caller skipped `lookup`.
    #[inline]
    pub fn commit(&mut self, line: u64, completion: Cycle) {
        assert!(
            self.lines.len() < self.capacity,
            "commit on a full MSHR file"
        );
        assert!(
            self.lines.iter().all(|&l| l != line),
            "line {line:#x} already has an MSHR entry"
        );
        self.lines.push(line);
        self.completions.push(completion.raw());
        self.earliest = self.earliest.min(completion);
    }

    /// Earliest completion among in-flight entries, if any (the maintained
    /// cache, not a scan).
    pub fn earliest_completion(&self) -> Option<Cycle> {
        if self.lines.is_empty() {
            None
        } else {
            Some(self.earliest)
        }
    }

    /// Latest completion among in-flight entries, if any.
    pub fn latest_completion(&self) -> Option<Cycle> {
        self.completions.iter().max().map(|&c| Cycle::new(c))
    }

    /// Drops entries whose fetch completed at or before `now`.
    ///
    /// Entry order is irrelevant (`lookup` keys on the unique line and the
    /// full-file path reads the cached minimum), so expiry compacts with
    /// `swap_remove` rather than a shifting `retain`.
    fn retire(&mut self, now: Cycle) {
        if self.earliest > now {
            return;
        }
        let mut earliest = u64::MAX;
        let mut i = 0;
        while i < self.lines.len() {
            let completion = self.completions[i];
            if completion <= now.raw() {
                self.lines.swap_remove(i);
                self.completions.swap_remove(i);
            } else {
                earliest = earliest.min(completion);
                i += 1;
            }
        }
        self.earliest = Cycle::new(earliest);
    }

    /// Clears all entries.
    pub fn reset(&mut self) {
        self.lines.clear();
        self.completions.clear();
        self.earliest = Cycle::new(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_retire_cycle() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.lookup(Cycle::new(0), 1), MshrOutcome::Allocated);
        m.commit(1, Cycle::new(50));
        assert_eq!(m.in_flight(Cycle::new(0)), 1);

        match m.lookup(Cycle::new(10), 1) {
            MshrOutcome::Merged { completion } => {
                assert_eq!(completion, Cycle::new(50));
            }
            other => panic!("expected merge, got {other:?}"),
        }

        // After completion, the entry is retired and the line re-allocates.
        assert_eq!(m.lookup(Cycle::new(51), 1), MshrOutcome::Allocated);
        assert_eq!(m.in_flight(Cycle::new(51)), 0);
    }

    #[test]
    fn full_file_reports_earliest_free() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.lookup(Cycle::new(0), 1), MshrOutcome::Allocated);
        m.commit(1, Cycle::new(100));
        assert_eq!(m.lookup(Cycle::new(0), 2), MshrOutcome::Allocated);
        m.commit(2, Cycle::new(80));
        match m.lookup(Cycle::new(0), 3) {
            MshrOutcome::Full { free_at } => {
                assert_eq!(free_at, Cycle::new(80));
            }
            other => panic!("expected full, got {other:?}"),
        }
        // Once the earliest entry retires there is room again.
        assert_eq!(m.lookup(Cycle::new(81), 3), MshrOutcome::Allocated);
    }

    #[test]
    fn full_free_at_is_exact_after_partial_retirement() {
        // Retire a strict subset of entries, refill, and check the Full
        // stall time still equals the true minimum — the cache must be
        // maintained, not merely initialized.
        let mut m = MshrFile::new(2);
        m.lookup(Cycle::new(0), 1);
        m.commit(1, Cycle::new(60));
        m.lookup(Cycle::new(0), 2);
        m.commit(2, Cycle::new(140));
        // now=70 retires line 1 only; refill with a later completion.
        assert_eq!(m.lookup(Cycle::new(70), 3), MshrOutcome::Allocated);
        m.commit(3, Cycle::new(90));
        match m.lookup(Cycle::new(71), 4) {
            MshrOutcome::Full { free_at } => assert_eq!(free_at, Cycle::new(90)),
            other => panic!("expected full, got {other:?}"),
        }
    }

    #[test]
    fn completion_extremes() {
        let mut m = MshrFile::new(4);
        assert!(m.earliest_completion().is_none());
        m.lookup(Cycle::new(0), 1);
        m.commit(1, Cycle::new(30));
        m.lookup(Cycle::new(0), 2);
        m.commit(2, Cycle::new(90));
        assert_eq!(m.earliest_completion(), Some(Cycle::new(30)));
        assert_eq!(m.latest_completion(), Some(Cycle::new(90)));
    }

    #[test]
    #[should_panic(expected = "full MSHR")]
    fn commit_past_capacity_panics() {
        let mut m = MshrFile::new(1);
        m.commit(1, Cycle::new(10));
        m.commit(2, Cycle::new(10));
    }

    #[test]
    #[should_panic(expected = "already has an MSHR entry")]
    fn duplicate_commit_panics() {
        let mut m = MshrFile::new(2);
        m.commit(1, Cycle::new(10));
        m.commit(1, Cycle::new(20));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn reset_empties_the_file() {
        let mut m = MshrFile::new(2);
        m.lookup(Cycle::new(0), 1);
        m.commit(1, Cycle::new(10));
        m.reset();
        assert_eq!(m.in_flight(Cycle::new(0)), 0);
        assert_eq!(m.capacity(), 2);
    }
}
