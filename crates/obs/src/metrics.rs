//! Counters, power-of-two-bucket histograms, and the merge hub.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::json::{self, JsonValue};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`, up to the full `u64` range.
const BUCKETS: usize = 65;

/// A power-of-two-bucket histogram over `u64` samples.
///
/// The bucket vector reaches only as far as the highest bucket a sample
/// fell into, so a histogram of cycle latencies stays a few words long;
/// that length is a function of the samples alone, so equal sample sets
/// still compare equal.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let index = bucket_index(value);
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sample counts by bucket index, up to the highest non-empty bucket:
    /// index 0 holds zeros, index `i ≥ 1` holds `[2^(i-1), 2^i)`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Folds another histogram into this one. Commutative and associative.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// The scalar summary used in manifests.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
        }
    }

    /// Non-empty buckets as `(lower bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower_bound(i), n))
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Renders every one of the 65 buckets, as the fixed-size array this
/// storage replaced did.
impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut buckets = [0u64; BUCKETS];
        buckets[..self.buckets.len()].copy_from_slice(&self.buckets);
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("buckets", &buckets)
            .finish()
    }
}

/// Scalar summary of a histogram (for manifests and quick assertions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
}

fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// One metric kind's storage: names in sorted order, values alongside.
///
/// Lookups binary-search by the name's text, so the same literal compiled
/// into two crates (two addresses) lands in one entry.
#[derive(Clone, PartialEq, Eq)]
struct Table<V> {
    names: Vec<&'static str>,
    values: Vec<V>,
}

impl<V: Default> Table<V> {
    /// The value stored under `name`, inserted as `V::default()` if absent.
    fn entry(&mut self, name: &'static str) -> &mut V {
        let index = self.names.binary_search(&name).unwrap_or_else(|index| {
            self.names.insert(index, name);
            self.values.insert(index, V::default());
            index
        });
        &mut self.values[index]
    }
}

impl<V> Table<V> {
    fn get(&self, name: &str) -> Option<&V> {
        let index = self
            .names
            .binary_search_by(|known| (*known).cmp(name))
            .ok()?;
        Some(&self.values[index])
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> + '_ {
        self.names.iter().copied().zip(&self.values)
    }

    fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table {
            names: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Renders as a name → value map, as a sorted map would.
impl<V: std::fmt::Debug> std::fmt::Debug for Table<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A registry of named counters and histograms.
///
/// Names are `&'static str` because every metric site in the workspace
/// names its metric with a literal; name-sorted storage makes the JSON
/// rendering — and therefore the regression goldens — deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    counters: Table<u64>,
    histograms: Table<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name) += n;
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).record(value);
    }

    /// Folds `histogram` into the named histogram, creating it if absent.
    pub fn merge_histogram(&mut self, name: &'static str, histogram: &Histogram) {
        self.histograms.entry(name).merge(histogram);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(name, &value)| (name, value))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one. Commutative and associative,
    /// so parallel aggregation is order-independent.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in other.counters.iter() {
            *self.counters.entry(name) += value;
        }
        for (name, hist) in other.histograms.iter() {
            self.histograms.entry(name).merge(hist);
        }
    }

    /// The registry as a JSON object: `"counters"` maps each counter to
    /// its value and `"histograms"` each histogram to its count, sum, min,
    /// max, mean (three fractional digits) and non-empty buckets keyed by
    /// lower bound, all sorted by name.
    pub fn to_json_value(&self) -> JsonValue {
        let number = |n: u64| JsonValue::Number(n.to_string());
        let counters = self
            .counters()
            .map(|(name, value)| (name.to_owned(), number(value)))
            .collect();
        let histograms = self
            .histograms()
            .map(|(name, hist)| {
                let buckets = hist
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(lo, n)| (lo.to_string(), number(n)))
                    .collect();
                let summary = vec![
                    ("count".to_owned(), number(hist.count())),
                    ("sum".to_owned(), number(hist.sum())),
                    ("min".to_owned(), number(hist.min())),
                    ("max".to_owned(), number(hist.max())),
                    ("mean".to_owned(), JsonValue::fixed3(hist.mean())),
                    ("buckets".to_owned(), JsonValue::Object(buckets)),
                ];
                (name.to_owned(), JsonValue::Object(summary))
            })
            .collect();
        JsonValue::Object(vec![
            ("counters".to_owned(), JsonValue::Object(counters)),
            ("histograms".to_owned(), JsonValue::Object(histograms)),
        ])
    }

    /// Renders the registry as deterministic, pretty-printed JSON
    /// (sorted names, stable number formats, trailing newline).
    pub fn to_json(&self) -> String {
        json::write_pretty(&self.to_json_value())
    }
}

/// A thread-safe accumulator many simulations merge their registries
/// into; cloning shares the underlying storage.
///
/// Because [`MetricsRegistry::merge`] is commutative and associative, the
/// final snapshot does not depend on merge order — parallel harness runs
/// aggregate deterministically.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Folds a registry into the hub.
    pub fn merge(&self, registry: &MetricsRegistry) {
        self.inner
            .lock()
            .expect("metrics hub poisoned")
            .merge(registry);
    }

    /// A copy of everything merged so far.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.inner.lock().expect("metrics hub poisoned").clone()
    }
}

thread_local! {
    static AMBIENT_HUB: RefCell<Option<MetricsHub>> = const { RefCell::new(None) };
}

/// The innermost active [`with_ambient_hub`] hub on this thread, if any.
///
/// Harness code that builds simulation configs deep inside a call tree
/// (e.g. the experiment registry) uses this to pick up the hub the
/// `experiments --metrics` driver installed, without threading a parameter
/// through every experiment signature.
pub fn ambient_hub() -> Option<MetricsHub> {
    AMBIENT_HUB.with(|cell| cell.borrow().clone())
}

/// Runs `f` with [`ambient_hub`] resolving to `hub` on the current thread,
/// restoring the previous value afterwards (also on panic).
pub fn with_ambient_hub<R>(hub: MetricsHub, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<MetricsHub>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_HUB.with(|cell| *cell.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(AMBIENT_HUB.with(|cell| cell.borrow_mut().replace(hub)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(3), 4);
    }

    #[test]
    fn histogram_tracks_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [0, 1, 7, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (4, 1), (8, 1)]);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.count("x", 2);
        a.observe("h", 5);
        let mut b = MetricsRegistry::new();
        b.count("x", 3);
        b.count("y", 1);
        b.observe("h", 50);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 5);
        assert_eq!(ab.counter("y"), 1);
        assert_eq!(ab.counter("absent"), 0);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.count("zeta", 1);
        r.count("alpha", 2);
        r.observe("lat", 3);
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters must render sorted: {json}");
        assert!(
            json.contains("\"lat\": {\"count\": 1, \"sum\": 3"),
            "{json}"
        );
        assert!(json.ends_with("}\n"));
        assert!(MetricsRegistry::new()
            .to_json()
            .contains("\"counters\": {}"));
    }

    #[test]
    fn equal_names_at_distinct_addresses_share_one_entry() {
        let literal: &'static str = "token_grants";
        let copy: &'static str = Box::leak(String::from(literal).into_boxed_str());
        assert_ne!(literal.as_ptr(), copy.as_ptr());
        let mut r = MetricsRegistry::new();
        r.count(literal, 2);
        r.count(copy, 3);
        r.observe(copy, 7);
        r.observe(literal, 9);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("token_grants", 5)]);
        assert_eq!(r.histograms().count(), 1);
        assert_eq!(r.histogram("token_grants").unwrap().count(), 2);

        let mut other = MetricsRegistry::new();
        other.count(literal, 5);
        other.observe(literal, 9);
        other.observe(literal, 7);
        assert_eq!(r, other, "equality compares names by text");
    }

    /// The JSON and `Debug` renderings, byte for byte, of the sorted-map
    /// storage this registry replaced, for one fixed update sequence.
    #[test]
    fn rendering_matches_the_sorted_map_bytes() {
        let mut r = MetricsRegistry::new();
        for (i, name) in [
            "wake_latency",
            "stalls",
            "gated",
            "bet_shortfall",
            "stalls",
            "token_grants",
        ]
        .iter()
        .enumerate()
        {
            r.count(name, i as u64 + 1);
        }
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            r.observe("stall_length", v);
            r.observe("gated_duration", v / 3);
        }
        r.observe("token_wait", 0);
        let expected = r#"{
  "counters": {
    "bet_shortfall": 4,
    "gated": 3,
    "stalls": 7,
    "token_grants": 6,
    "wake_latency": 1
  },
  "histograms": {
    "gated_duration": {"count": 8, "sum": 6148914691236517543, "min": 0, "max": 6148914691236517205, "mean": 768614336404564736.000, "buckets": {"0": 3, "1": 1, "2": 2, "256": 1, "4611686018427387904": 1}},
    "stall_length": {"count": 8, "sum": 18446744073709551615, "min": 0, "max": 18446744073709551615, "mean": 2305843009213693952.000, "buckets": {"0": 1, "1": 1, "2": 2, "4": 1, "8": 1, "512": 1, "9223372036854775808": 1}},
    "token_wait": {"count": 1, "sum": 0, "min": 0, "max": 0, "mean": 0.000, "buckets": {"0": 1}}
  }
}
"#;
        assert_eq!(r.to_json(), expected);
        let debug = format!("{r:?}");
        assert!(
            debug.starts_with(
                "MetricsRegistry { counters: {\"bet_shortfall\": 4, \"gated\": 3, \
                 \"stalls\": 7, \"token_grants\": 6, \"wake_latency\": 1}, \
                 histograms: {\"gated_duration\": Histogram { count: 8, "
            ),
            "{debug}"
        );
        assert!(debug.ends_with("0, 0, 0] }} }"), "{debug}");
    }

    #[test]
    fn hub_accumulates_across_clones() {
        let hub = MetricsHub::new();
        let clone = hub.clone();
        let mut r = MetricsRegistry::new();
        r.count("sims", 1);
        hub.merge(&r);
        clone.merge(&r);
        assert_eq!(hub.snapshot().counter("sims"), 2);
    }

    #[test]
    fn ambient_hub_overrides_and_restores() {
        assert!(ambient_hub().is_none());
        let hub = MetricsHub::new();
        with_ambient_hub(hub.clone(), || {
            let seen = ambient_hub().expect("ambient hub visible inside scope");
            let mut r = MetricsRegistry::new();
            r.count("seen", 1);
            seen.merge(&r);
        });
        assert!(ambient_hub().is_none());
        assert_eq!(hub.snapshot().counter("seen"), 1);
    }

    #[test]
    fn ambient_hub_is_thread_local() {
        with_ambient_hub(MetricsHub::new(), || {
            let inner = std::thread::scope(|s| s.spawn(|| ambient_hub().is_none()).join().unwrap());
            assert!(inner, "fresh thread must not inherit the ambient hub");
        });
    }
}
