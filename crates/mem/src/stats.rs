//! Latency distribution bookkeeping.

use mapg_obs::Histogram;
use mapg_units::Cycles;

use core::fmt;

/// A power-of-two-bucketed histogram of cycle latencies.
///
/// Miss-latency *distributions* (not just means) drive gating decisions —
/// the break-even comparison happens per stall — so the hierarchy records
/// every DRAM-serviced latency here. Power-of-two buckets give ~1 bit of
/// relative precision, plenty for the "how much of the mass is above the
/// break-even time" questions the experiments ask.
///
/// The storage is a [`mapg_obs::Histogram`] — 65 buckets spanning every
/// `u64`, saturating sum — so a run renders its `stall_length` and
/// `miss_latency` metrics by copying these histograms exactly.
///
/// ```
/// use mapg_mem::LatencyHistogram;
/// use mapg_units::Cycles;
///
/// let mut h = LatencyHistogram::new();
/// for latency in [100u64, 120, 200, 400] {
///     h.record(Cycles::new(latency));
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), Cycles::new(205));
/// assert!(h.percentile(0.95) >= Cycles::new(256));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram(Histogram);

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram(Histogram::new())
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Cycles) {
        self.0.record(latency.raw());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Exact mean latency (zero when empty).
    pub fn mean(&self) -> Cycles {
        Cycles::new(self.0.sum().checked_div(self.0.count()).unwrap_or(0))
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> Cycles {
        Cycles::new(self.0.min())
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Cycles {
        Cycles::new(self.0.max())
    }

    /// Approximate `q`-quantile (bucket upper bound containing the
    /// quantile). Returns zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Cycles {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count() == 0 {
            return Cycles::ZERO;
        }
        let target = (q * self.count() as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (index, &n) in self.0.bucket_counts().iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if index == 0 {
                    0
                } else {
                    1u64.checked_shl(index as u32).unwrap_or(u64::MAX)
                };
                return Cycles::new(upper.min(self.0.max()));
            }
        }
        self.max()
    }

    /// Fraction of samples strictly greater than `threshold`, computed
    /// exactly at bucket granularity (conservative: a bucket straddling the
    /// threshold counts as above only if its lower bound is above).
    pub fn fraction_above(&self, threshold: Cycles) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        let mut above = 0;
        for (index, &n) in self.0.bucket_counts().iter().enumerate() {
            let lower = if index == 0 { 0 } else { 1u64 << (index - 1) };
            if lower > threshold.raw() {
                above += n;
            }
        }
        above as f64 / self.count() as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.0.merge(&other.0);
    }

    /// The underlying observability histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.0
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p95={} max={}",
            self.count(),
            self.mean(),
            self.percentile(0.95),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_benign() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Cycles::ZERO);
        assert_eq!(h.min(), Cycles::ZERO);
        assert_eq!(h.max(), Cycles::ZERO);
        assert_eq!(h.percentile(0.5), Cycles::ZERO);
        assert_eq!(h.fraction_above(Cycles::new(10)), 0.0);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(Cycles::new(v));
        }
        assert_eq!(h.mean(), Cycles::new(20));
        assert_eq!(h.min(), Cycles::new(10));
        assert_eq!(h.max(), Cycles::new(30));
    }

    #[test]
    fn percentile_monotone() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(Cycles::new(v));
        }
        let p50 = h.percentile(0.5);
        let p95 = h.percentile(0.95);
        let p100 = h.percentile(1.0);
        assert!(p50 <= p95);
        assert!(p95 <= p100);
        assert_eq!(p100, Cycles::new(1000));
    }

    #[test]
    fn fraction_above_counts_upper_buckets() {
        let mut h = LatencyHistogram::new();
        // 4 samples in [64,128), 4 in [1024, 2048).
        for _ in 0..4 {
            h.record(Cycles::new(100));
            h.record(Cycles::new(1500));
        }
        let fraction = h.fraction_above(Cycles::new(512));
        assert!((fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_latency_goes_to_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(Cycles::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(1.0), Cycles::ZERO);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Cycles::new(10));
        b.record(Cycles::new(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Cycles::new(10));
        assert_eq!(a.max(), Cycles::new(1000));
        assert_eq!(a.mean(), Cycles::new(505));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_rejected() {
        let _ = LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn samples_past_32_bits_keep_their_buckets() {
        let samples = [0, 100, 1 << 32, 1 << 40, u64::MAX, u64::MAX];
        let mut h = LatencyHistogram::new();
        let mut exact = Histogram::new();
        for v in samples {
            h.record(Cycles::new(v));
            exact.record(v);
        }
        assert_eq!(h.histogram(), &exact);
        assert_eq!(exact.sum(), u64::MAX, "the sum saturates");
        assert_eq!(h.percentile(0.3), Cycles::new(128));
        assert_eq!(h.percentile(0.5), Cycles::new(1 << 33));
        assert_eq!(h.percentile(1.0), Cycles::new(u64::MAX));
        assert!((h.fraction_above(Cycles::new(1 << 35)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let mut h = LatencyHistogram::new();
        h.record(Cycles::new(100));
        let text = h.to_string();
        assert!(text.contains("n=1"), "{text}");
    }
}
