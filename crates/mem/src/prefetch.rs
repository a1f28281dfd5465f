//! A stream (next-line streak) prefetcher at the LLC.
//!
//! Detects runs of sequential line misses and fetches ahead. Prefetching
//! interacts with memory-access gating in an interesting way — it converts
//! long, gateable stalls into hits (good for performance, bad for gating
//! opportunity) while adding DRAM traffic — which is exactly what
//! experiment R-F11 measures.

/// Stream-prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Lines fetched ahead once a streak is detected (0 disables).
    pub degree: u32,
    /// How many recent miss lines are remembered for streak detection.
    pub history: usize,
}

impl PrefetchConfig {
    /// Disabled (the workspace default, keeping the baseline hierarchy
    /// identical to the paper's plain configuration).
    pub fn disabled() -> Self {
        PrefetchConfig {
            degree: 0,
            history: 8,
        }
    }

    /// A conventional degree-4 stream prefetcher.
    pub fn stream() -> Self {
        PrefetchConfig {
            degree: 4,
            history: 16,
        }
    }

    /// Whether prefetching is active.
    pub fn is_enabled(&self) -> bool {
        self.degree > 0
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig::disabled()
    }
}

/// Prefetcher activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch fetches issued to DRAM.
    pub issued: u64,
    /// Demand hits on lines brought in by a prefetch.
    pub useful: u64,
}

impl PrefetchStats {
    /// Fraction of prefetches that were later hit by demand accesses.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }
}

/// A contiguous run of candidate prefetch lines, `first .. first + count`.
///
/// A streak prefetcher's proposals are always the next `degree` lines, so
/// the set is fully described by two words. Returning this instead of a
/// `Vec<u64>` keeps the LLC-miss path allocation-free — the old
/// collect-into-Vec showed up in profiles on every streak-detected miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchCandidates {
    first: u64,
    count: u32,
}

impl PrefetchCandidates {
    /// The empty candidate set.
    pub const NONE: PrefetchCandidates = PrefetchCandidates { first: 0, count: 0 };

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of candidate lines.
    pub fn len(&self) -> usize {
        self.count as usize
    }
}

impl IntoIterator for PrefetchCandidates {
    type Item = u64;
    type IntoIter = std::ops::Range<u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.first..self.first + u64::from(self.count)
    }
}

/// The streak detector: remembers recent demand-miss lines and proposes
/// prefetch candidates.
///
/// ```
/// use mapg_mem::{PrefetchConfig, StreamPrefetcher};
///
/// let mut pf = StreamPrefetcher::new(PrefetchConfig::stream());
/// assert!(pf.observe_miss(100).is_empty()); // no streak yet
/// let candidates = pf.observe_miss(101);    // 100 -> 101 is a streak
/// assert_eq!(candidates.into_iter().collect::<Vec<_>>(), vec![102, 103, 104, 105]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    config: PrefetchConfig,
    /// Fixed ring of the most recent `history` observed lines — a bounded
    /// FIFO, exactly a `VecDeque` capped at `history`, but flat so the
    /// per-miss membership scan is a branchless fixed-trip fold instead
    /// of an early-exit deque walk that mispredicts on random misses.
    /// Never-written slots hold [`NO_LINE`], which no probe can match.
    recent_lines: Vec<u64>,
    /// Next ring slot to overwrite (the oldest entry).
    head: usize,
    stats: PrefetchStats,
}

/// Ring-slot sentinel for "never written". Unmatchable: the only probed
/// value is `line - 1` of a non-zero `line`, which is at most
/// `u64::MAX - 1`.
const NO_LINE: u64 = u64::MAX;

impl StreamPrefetcher {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the history window is zero.
    pub fn new(config: PrefetchConfig) -> Self {
        assert!(config.history > 0, "history window must be non-zero");
        StreamPrefetcher {
            config,
            recent_lines: vec![NO_LINE; config.history],
            head: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PrefetchConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Reports a demand miss on `line`; returns candidate lines to
    /// prefetch (empty when no streak is detected or prefetching is
    /// disabled). The caller filters already-resident candidates and
    /// reports each actual fetch with [`StreamPrefetcher::record_issued`].
    pub fn observe_miss(&mut self, line: u64) -> PrefetchCandidates {
        if !self.config.is_enabled() {
            return PrefetchCandidates::NONE;
        }
        let streak = line.checked_sub(1).is_some_and(|prev| {
            // Branchless membership: random misses make an early-exit
            // `contains` mispredict; the fold vectorizes instead.
            let mut found = false;
            for &l in &self.recent_lines {
                found |= l == prev;
            }
            found
        });
        self.remember(line);
        if !streak {
            return PrefetchCandidates::NONE;
        }
        self.runway(line)
    }

    /// Reports a demand hit on a line the prefetcher brought in: the
    /// stream is confirmed, so keep the runway ahead of the consumer.
    /// Returns further candidate lines (same contract as
    /// [`StreamPrefetcher::observe_miss`]).
    pub fn observe_prefetch_hit(&mut self, line: u64) -> PrefetchCandidates {
        self.stats.useful += 1;
        if !self.config.is_enabled() {
            return PrefetchCandidates::NONE;
        }
        self.remember(line);
        self.runway(line)
    }

    /// Counts one candidate that was actually fetched from DRAM.
    pub fn record_issued(&mut self) {
        self.stats.issued += 1;
    }

    fn remember(&mut self, line: u64) {
        self.recent_lines[self.head] = line;
        self.head += 1;
        if self.head == self.recent_lines.len() {
            self.head = 0;
        }
    }

    fn runway(&self, line: u64) -> PrefetchCandidates {
        PrefetchCandidates {
            first: line + 1,
            count: self.config.degree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(candidates: PrefetchCandidates) -> Vec<u64> {
        candidates.into_iter().collect()
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig::disabled());
        for line in 0..100 {
            assert!(pf.observe_miss(line).is_empty());
        }
        assert_eq!(pf.stats().issued, 0);
    }

    #[test]
    fn streak_triggers_degree_prefetches() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig {
            degree: 3,
            history: 8,
        });
        assert!(pf.observe_miss(10).is_empty());
        assert_eq!(collect(pf.observe_miss(11)), vec![12, 13, 14]);
        assert_eq!(pf.stats().issued, 0, "caller reports actual fetches");
        pf.record_issued();
        assert_eq!(pf.stats().issued, 1);
    }

    #[test]
    fn prefetch_hits_extend_the_stream() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig {
            degree: 2,
            history: 8,
        });
        pf.observe_miss(10);
        assert_eq!(collect(pf.observe_miss(11)), vec![12, 13]);
        // Demand consumes the prefetched line 12: runway extends.
        assert_eq!(collect(pf.observe_prefetch_hit(12)), vec![13, 14]);
        assert_eq!(pf.stats().useful, 1);
        // And the history now contains 12, so a miss on 13 streaks too.
        assert_eq!(collect(pf.observe_miss(13)), vec![14, 15]);
    }

    #[test]
    fn random_misses_do_not_trigger() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig::stream());
        for line in [100u64, 5, 999, 42, 7000] {
            assert!(pf.observe_miss(line).is_empty(), "line {line}");
        }
    }

    #[test]
    fn history_window_forgets() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig {
            degree: 1,
            history: 2,
        });
        pf.observe_miss(10);
        pf.observe_miss(500); // evicts nothing yet (window 2)
        pf.observe_miss(900); // evicts 10
        assert!(pf.observe_miss(11).is_empty(), "line 10 must have aged out");
    }

    #[test]
    fn accuracy_accounting() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig::stream());
        pf.observe_miss(1);
        pf.observe_miss(2);
        pf.record_issued();
        pf.record_issued();
        pf.observe_prefetch_hit(3);
        assert_eq!(pf.stats().useful, 1);
        assert!((pf.stats().accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_line_miss_is_safe() {
        let mut pf = StreamPrefetcher::new(PrefetchConfig::stream());
        assert!(pf.observe_miss(0).is_empty());
        assert_eq!(collect(pf.observe_miss(1)), vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "history window")]
    fn zero_history_rejected() {
        let _ = StreamPrefetcher::new(PrefetchConfig {
            degree: 1,
            history: 0,
        });
    }
}
