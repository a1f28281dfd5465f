//! Miss-latency (stall-duration) predictors.
//!
//! MAPG's gating decision is a comparison between the *predicted* duration
//! of the stall that just began and the circuit's break-even time. Since a
//! DRAM access's latency varies with row-buffer state, bank contention and
//! refresh, a predictor is needed; the paper-era design space — static
//! estimate, last value, exponential average, PC-indexed history — is
//! implemented here and compared in experiment R-F7.

use mapg_cpu::StallInfo;
use mapg_units::Cycles;

use core::fmt;

/// Predicts the duration of a stall at its onset, learning from completed
/// stalls.
///
/// Implementations must derive predictions **only** from past observations
/// and the onset context in [`StallInfo`] (PC, cause, outstanding count) —
/// never from `StallInfo::data_ready`, which is oracle information. The
/// only intentional exception is [`OraclePredictor`], the upper-bound
/// reference.
pub trait MissLatencyPredictor {
    /// Predicts the duration of the stall described by `info`.
    fn predict(&mut self, info: &StallInfo) -> Cycles;

    /// Learns from a completed stall of duration `actual`.
    fn observe(&mut self, info: &StallInfo, actual: Cycles);
}

/// Always predicts a fixed duration (e.g. the nominal DRAM round trip).
#[derive(Debug, Clone, Copy)]
pub struct StaticPredictor {
    estimate: Cycles,
}

impl StaticPredictor {
    /// Creates the predictor with a fixed `estimate`.
    pub fn new(estimate: Cycles) -> Self {
        StaticPredictor { estimate }
    }
}

impl MissLatencyPredictor for StaticPredictor {
    fn predict(&mut self, _info: &StallInfo) -> Cycles {
        self.estimate
    }

    fn observe(&mut self, _info: &StallInfo, _actual: Cycles) {}
}

/// Predicts the duration of the previous stall (global last-value).
#[derive(Debug, Clone, Copy)]
pub struct LastValuePredictor {
    last: Cycles,
}

impl LastValuePredictor {
    /// Creates the predictor seeded with `initial` (used before the first
    /// observation).
    pub fn new(initial: Cycles) -> Self {
        LastValuePredictor { last: initial }
    }
}

impl MissLatencyPredictor for LastValuePredictor {
    fn predict(&mut self, _info: &StallInfo) -> Cycles {
        self.last
    }

    fn observe(&mut self, _info: &StallInfo, actual: Cycles) {
        self.last = actual;
    }
}

/// Fixed-point exponentially weighted moving average over all stalls.
///
/// The EWMA is maintained in 1/16-cycle fixed point with `alpha = n/16`,
/// matching what a hardware implementation (shift-add) would do.
#[derive(Debug, Clone, Copy)]
pub struct EwmaPredictor {
    /// EWMA in 1/16 cycles.
    state_x16: u64,
    /// Numerator of alpha over 16 (1..=16).
    alpha_x16: u64,
}

impl EwmaPredictor {
    /// Creates the predictor with smoothing `alpha_x16/16` seeded at
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha_x16` is not in `1..=16`.
    pub fn new(initial: Cycles, alpha_x16: u64) -> Self {
        assert!(
            (1..=16).contains(&alpha_x16),
            "alpha_x16 must be in 1..=16, got {alpha_x16}"
        );
        EwmaPredictor {
            state_x16: initial.raw() * 16,
            alpha_x16,
        }
    }

    fn fold(&mut self, actual: Cycles) {
        let sample_x16 = actual.raw() * 16;
        self.state_x16 =
            (self.state_x16 * (16 - self.alpha_x16) + sample_x16 * self.alpha_x16) / 16;
    }
}

impl MissLatencyPredictor for EwmaPredictor {
    fn predict(&mut self, _info: &StallInfo) -> Cycles {
        Cycles::new(self.state_x16 / 16)
    }

    fn observe(&mut self, _info: &StallInfo, actual: Cycles) {
        self.fold(actual);
    }
}

/// PC-indexed table of EWMAs: stalls caused by different load instructions
/// (different traversal patterns) learn independently. This is the
/// predictor MAPG's policy uses.
///
/// The table is open-addressed with linear probing over a fixed,
/// power-of-two number of buckets at least twice its capacity, indexed by
/// a multiplicative hash of the PC, so lookups are deterministic and need
/// no hasher state. Entries are inserted until the table is full and
/// never replaced or removed.
#[derive(Debug, Clone)]
pub struct HistoryTablePredictor {
    buckets: Box<[Option<(u64, EwmaPredictor)>]>,
    entries: usize,
    default_estimate: Cycles,
    alpha_x16: u64,
    capacity: usize,
}

impl HistoryTablePredictor {
    /// Creates a table of at most `capacity` PC entries, each an EWMA with
    /// the given smoothing, falling back to `default_estimate` for unseen
    /// PCs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `alpha_x16` not in `1..=16`.
    pub fn new(default_estimate: Cycles, alpha_x16: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "history table needs capacity");
        assert!(
            (1..=16).contains(&alpha_x16),
            "alpha_x16 must be in 1..=16, got {alpha_x16}"
        );
        let buckets = (2 * capacity).next_power_of_two();
        HistoryTablePredictor {
            buckets: vec![None; buckets].into_boxed_slice(),
            entries: 0,
            default_estimate,
            alpha_x16,
            capacity,
        }
    }

    /// The hardware-realistic default: 64 entries, alpha = 4/16, seeded at
    /// 200 cycles (a typical loaded DRAM round trip).
    pub fn hardware_default() -> Self {
        HistoryTablePredictor::new(Cycles::new(200), 4, 64)
    }

    /// Current number of tracked PCs.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The bucket holding `pc`, or the free bucket its probe ends at (the
    /// table is at most half full, so one exists).
    fn bucket(&self, pc: u64) -> usize {
        let mask = self.buckets.len() - 1;
        // Fibonacci hashing: the top bits of the product.
        let hash = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut index = (hash >> (64 - self.buckets.len().trailing_zeros())) as usize;
        while let Some((tracked, _)) = self.buckets[index] {
            if tracked == pc {
                break;
            }
            index = (index + 1) & mask;
        }
        index
    }
}

impl MissLatencyPredictor for HistoryTablePredictor {
    fn predict(&mut self, info: &StallInfo) -> Cycles {
        match &mut self.buckets[self.bucket(info.pc)] {
            Some((_, entry)) => entry.predict(info),
            None => self.default_estimate,
        }
    }

    fn observe(&mut self, info: &StallInfo, actual: Cycles) {
        let index = self.bucket(info.pc);
        if let Some((_, entry)) = &mut self.buckets[index] {
            entry.fold(actual);
            return;
        }
        if self.entries < self.capacity {
            let mut entry = EwmaPredictor::new(self.default_estimate, self.alpha_x16);
            entry.fold(actual);
            self.buckets[index] = Some((info.pc, entry));
            self.entries += 1;
        }
        // Table full and PC untracked: drop the sample (no replacement
        // policy, like a direct-mapped untagged table would alias — the
        // conservative choice for a model).
    }
}

/// The oracle: "predicts" the actual duration. Upper bound for R-F7 and
/// the decision engine for the `MapgOracle` policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePredictor;

impl MissLatencyPredictor for OraclePredictor {
    fn predict(&mut self, info: &StallInfo) -> Cycles {
        info.natural_duration()
    }

    fn observe(&mut self, _info: &StallInfo, _actual: Cycles) {}
}

/// Accuracy bookkeeping wrapped around any predictor (experiment R-F7).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorScore {
    predictions: u64,
    /// |error| within 25 % of actual.
    within_band: u64,
    overpredictions: u64,
    underpredictions: u64,
    abs_error_sum: u64,
}

impl PredictorScore {
    /// An empty score.
    pub fn new() -> Self {
        PredictorScore {
            predictions: 0,
            within_band: 0,
            overpredictions: 0,
            underpredictions: 0,
            abs_error_sum: 0,
        }
    }

    /// Records one (predicted, actual) pair.
    pub fn record(&mut self, predicted: Cycles, actual: Cycles) {
        self.predictions += 1;
        let p = predicted.raw();
        let a = actual.raw();
        let err = p.abs_diff(a);
        self.abs_error_sum += err;
        if err * 4 <= a {
            self.within_band += 1;
        } else if p > a {
            self.overpredictions += 1;
        } else {
            self.underpredictions += 1;
        }
    }

    /// Number of predictions scored.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Fraction of predictions within ±25 % of the actual duration.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.within_band as f64 / self.predictions as f64
        }
    }

    /// Fraction of significant overpredictions (would gate stalls that are
    /// too short — energy loss).
    pub fn over_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.overpredictions as f64 / self.predictions as f64
        }
    }

    /// Fraction of significant underpredictions (would wake too early or
    /// skip good stalls — opportunity loss).
    pub fn under_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.underpredictions as f64 / self.predictions as f64
        }
    }

    /// Mean absolute error in cycles.
    pub fn mean_abs_error(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.abs_error_sum as f64 / self.predictions as f64
        }
    }
}

impl Default for PredictorScore {
    fn default() -> Self {
        PredictorScore::new()
    }
}

impl fmt::Display for PredictorScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} preds, {:.1}% within 25%, MAE {:.0} cyc",
            self.predictions,
            self.accuracy() * 100.0,
            self.mean_abs_error()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mapg_cpu::{CoreId, StallCause};
    use mapg_units::Cycle;
    use proptest::prelude::*;

    use super::*;

    fn info(pc: u64, duration: u64) -> StallInfo {
        StallInfo {
            core: CoreId(0),
            start: Cycle::new(1000),
            data_ready: Cycle::new(1000 + duration),
            pc,
            outstanding: 1,
            cause: StallCause::Dependency,
        }
    }

    #[test]
    fn static_predictor_never_moves() {
        let mut p = StaticPredictor::new(Cycles::new(150));
        let i = info(0x400, 500);
        assert_eq!(p.predict(&i), Cycles::new(150));
        p.observe(&i, Cycles::new(500));
        assert_eq!(p.predict(&i), Cycles::new(150));
    }

    #[test]
    fn last_value_tracks_previous() {
        let mut p = LastValuePredictor::new(Cycles::new(100));
        let i = info(0x400, 300);
        assert_eq!(p.predict(&i), Cycles::new(100));
        p.observe(&i, Cycles::new(300));
        assert_eq!(p.predict(&i), Cycles::new(300));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut p = EwmaPredictor::new(Cycles::new(100), 4);
        let i = info(0x400, 400);
        for _ in 0..100 {
            p.observe(&i, Cycles::new(400));
        }
        let predicted = p.predict(&i).raw();
        assert!(
            predicted.abs_diff(400) <= 2,
            "EWMA should converge, got {predicted}"
        );
    }

    #[test]
    fn ewma_is_smoother_than_last_value() {
        let mut ewma = EwmaPredictor::new(Cycles::new(200), 2);
        let i = info(0x400, 0);
        // One outlier among steady 200s.
        for _ in 0..20 {
            ewma.observe(&i, Cycles::new(200));
        }
        ewma.observe(&i, Cycles::new(2000));
        let after_outlier = ewma.predict(&i).raw();
        assert!(
            after_outlier < 500,
            "one outlier shouldn't dominate: {after_outlier}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha_x16")]
    fn ewma_rejects_bad_alpha() {
        let _ = EwmaPredictor::new(Cycles::new(10), 0);
    }

    #[test]
    fn history_table_separates_pcs() {
        let mut p = HistoryTablePredictor::new(Cycles::new(200), 8, 16);
        let fast = info(0x100, 0);
        let slow = info(0x200, 0);
        for _ in 0..50 {
            p.observe(&fast, Cycles::new(80));
            p.observe(&slow, Cycles::new(600));
        }
        let fast_pred = p.predict(&fast).raw();
        let slow_pred = p.predict(&slow).raw();
        assert!(fast_pred < 150, "fast PC learned {fast_pred}");
        assert!(slow_pred > 400, "slow PC learned {slow_pred}");
        assert_eq!(p.entries(), 2);
    }

    #[test]
    fn history_table_caps_capacity() {
        let mut p = HistoryTablePredictor::new(Cycles::new(200), 8, 4);
        for pc in 0..100u64 {
            p.observe(&info(pc, 0), Cycles::new(100));
        }
        assert_eq!(p.entries(), 4);
        // Untracked PCs fall back to the default.
        assert_eq!(p.predict(&info(99, 0)), Cycles::new(200));
    }

    proptest! {
        /// The table keeps a map's rule: a PC gets an entry on its first
        /// sample while the table has room, and keeps it; every other PC
        /// predicts the default.
        #[test]
        fn history_table_matches_a_map_model(
            capacity in 1usize..12,
            samples in prop::collection::vec((0u64..40, 1u64..1_000), 0..300),
        ) {
            let mut table = HistoryTablePredictor::new(Cycles::new(200), 4, capacity);
            let mut model: BTreeMap<u64, EwmaPredictor> = BTreeMap::new();
            for (pc, actual) in samples {
                // Spread the PCs like the synthetic ones: 4-byte strides
                // in a few distant classes.
                let pc = 0x40_0000 + (pc % 3) * 0x1_0000 + pc * 4;
                let stall = info(pc, 0);
                let expected = model.get_mut(&pc).map_or(Cycles::new(200), |e| e.predict(&stall));
                prop_assert_eq!(table.predict(&stall), expected);
                table.observe(&stall, Cycles::new(actual));
                if let Some(entry) = model.get_mut(&pc) {
                    entry.fold(Cycles::new(actual));
                } else if model.len() < capacity {
                    let mut entry = EwmaPredictor::new(Cycles::new(200), 4);
                    entry.fold(Cycles::new(actual));
                    model.insert(pc, entry);
                }
                prop_assert_eq!(table.entries(), model.len());
            }
        }
    }

    #[test]
    fn oracle_reads_the_future() {
        let mut p = OraclePredictor;
        assert_eq!(p.predict(&info(0x1, 432)), Cycles::new(432));
    }

    #[test]
    fn score_classifies_errors() {
        let mut score = PredictorScore::new();
        score.record(Cycles::new(100), Cycles::new(100)); // exact
        score.record(Cycles::new(110), Cycles::new(100)); // within 25%
        score.record(Cycles::new(300), Cycles::new(100)); // over
        score.record(Cycles::new(10), Cycles::new(100)); // under
        assert_eq!(score.predictions(), 4);
        assert!((score.accuracy() - 0.5).abs() < 1e-12);
        assert!((score.over_rate() - 0.25).abs() < 1e-12);
        assert!((score.under_rate() - 0.25).abs() < 1e-12);
        assert!(score.mean_abs_error() > 0.0);
        assert!(score.to_string().contains("4 preds"));
    }

    #[test]
    fn empty_score_is_benign() {
        let score = PredictorScore::new();
        assert_eq!(score.accuracy(), 0.0);
        assert_eq!(score.over_rate(), 0.0);
        assert_eq!(score.under_rate(), 0.0);
        assert_eq!(score.mean_abs_error(), 0.0);
    }
}
