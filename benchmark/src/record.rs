//! Benchmark records and the comparison of two of them.
//!
//! A record holds, per workload, every end-to-end metric's raw sample
//! values with their median and quartiles, the traced run's per-layer
//! metrics, and the operations attempted and failed. Every read and write
//! goes through the repository's JSON codec ([`mapg::fuzz::JsonValue`]).

use mapg::fuzz::JsonValue;

use crate::metrics::{self, Better, EndToEnd};
use crate::stats::Summary;

/// Schema tag of a record file.
pub const RECORD_SCHEMA: &str = "mapg-benchmark/1";

/// A JSON number from a measured value (`null` if it is not finite).
pub fn number(value: f64) -> JsonValue {
    if value.is_finite() {
        JsonValue::Number(format!("{value:?}"))
    } else {
        JsonValue::Null
    }
}

/// A JSON number from a count.
pub fn count(value: u64) -> JsonValue {
    JsonValue::Number(value.to_string())
}

/// A JSON object from `(key, value)` pairs.
pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// Samples plus correctness checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Raw sample values per end-to-end metric.
    pub samples: Vec<(String, Vec<f64>)>,
    /// The traced run's per-layer metrics.
    pub layers: Vec<(String, f64)>,
}

impl WorkloadRecord {
    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The raw values of end-to-end metric `name`.
    pub fn values(&self, name: &str) -> Option<&[f64]> {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    fn to_json(&self) -> JsonValue {
        let metrics = self.samples.iter().filter_map(|(name, values)| {
            let metric = metrics::end_to_end(name)?;
            let summary = Summary::of(values)?;
            Some((
                name.clone(),
                object([
                    ("unit", JsonValue::String(metric.unit.into())),
                    ("median", number(summary.median)),
                    ("q1", number(summary.q1)),
                    ("q3", number(summary.q3)),
                    ("n", count(summary.n as u64)),
                    (
                        "values",
                        JsonValue::Array(values.iter().map(|&v| number(v)).collect()),
                    ),
                ]),
            ))
        });
        let units: Vec<_> = metrics::per_layer();
        let layers = self.layers.iter().map(|(name, value)| {
            let unit = units
                .iter()
                .find(|l| &l.name == name)
                .map_or("", |l| l.unit);
            (
                name.clone(),
                object([
                    ("unit", JsonValue::String(unit.into())),
                    ("value", number(*value)),
                ]),
            )
        });
        object([
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("fail_rate", number(self.fail_rate())),
            ("metrics", object(metrics)),
            ("layers", object(layers)),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<WorkloadRecord, String> {
        let field = |key: &str| value.get(key).ok_or_else(|| format!("missing '{key}'"));
        let entries = |key: &str| match field(key)? {
            JsonValue::Object(entries) => Ok(entries.as_slice()),
            _ => Err(format!("'{key}' is not an object")),
        };
        let mut samples = Vec::new();
        for (name, metric) in entries("metrics")? {
            let Some(JsonValue::Array(items)) = metric.get("values") else {
                return Err(format!("metric '{name}' has no values"));
            };
            let values = items
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| format!("non-number in '{name}'")))
                .collect::<Result<Vec<_>, _>>()?;
            samples.push((name.clone(), values));
        }
        let mut layers = Vec::new();
        for (name, layer) in entries("layers")? {
            let value = layer.get("value").and_then(JsonValue::as_f64);
            layers.push((name.clone(), value.unwrap_or(f64::NAN)));
        }
        Ok(WorkloadRecord {
            attempted: field("attempted")?.as_u64().ok_or("bad 'attempted'")?,
            failed: field("failed")?.as_u64().ok_or("bad 'failed'")?,
            samples,
            layers,
        })
    }
}

/// Facts about the machine a record was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker threads the suite ran with.
    pub workers: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
}

/// A full benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Where it was measured.
    pub host: Host,
    /// The sim workloads' seed.
    pub seed: u64,
    /// Per-workload results, in [`metrics::WORKLOADS`] order.
    pub workloads: Vec<(String, WorkloadRecord)>,
}

impl Record {
    /// Renders the record as JSON.
    pub fn to_json(&self) -> JsonValue {
        object([
            ("schema", JsonValue::String(RECORD_SCHEMA.into())),
            (
                "host",
                object([
                    ("nproc", count(self.host.nproc as u64)),
                    ("workers", count(self.host.workers as u64)),
                    ("rustc", JsonValue::String(self.host.rustc.clone())),
                ]),
            ),
            ("seed", count(self.seed)),
            (
                "workloads",
                object(self.workloads.iter().map(|(n, w)| (n.clone(), w.to_json()))),
            ),
        ])
    }

    /// Reads a record rendered by [`Record::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn from_json(value: &JsonValue) -> Result<Record, String> {
        if value.get("schema").and_then(JsonValue::as_str) != Some(RECORD_SCHEMA) {
            return Err(format!("not a {RECORD_SCHEMA} record"));
        }
        let host = value.get("host").ok_or("missing 'host'")?;
        let Some(JsonValue::Object(workloads)) = value.get("workloads") else {
            return Err("missing 'workloads'".into());
        };
        Ok(Record {
            host: Host {
                nproc: host.get("nproc").and_then(JsonValue::as_usize).unwrap_or(0),
                workers: host
                    .get("workers")
                    .and_then(JsonValue::as_usize)
                    .unwrap_or(0),
                rustc: host
                    .get("rustc")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
            },
            seed: value.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
            workloads: workloads
                .iter()
                .map(|(name, w)| {
                    WorkloadRecord::from_json(w)
                        .map(|w| (name.clone(), w))
                        .map_err(|e| format!("workload '{name}': {e}"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// One line per workload and end-to-end metric: median, quartiles
    /// and sample count; then each workload's operations.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, workload) in &self.workloads {
            for (metric, values) in &workload.samples {
                if let Some(s) = Summary::of(values) {
                    out.push_str(&format!(
                        "{name:<17} {metric:<12} median {:.6} [{:.6}, {:.6}] n={}\n",
                        s.median, s.q1, s.q3, s.n
                    ));
                }
            }
            out.push_str(&format!(
                "{name:<17} {:<12} {} attempted, {} failed\n",
                "operations", workload.attempted, workload.failed
            ));
        }
        out
    }
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and not every new
    /// run reads better than every base run: no conclusion either way.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: EndToEnd,
    /// Base side.
    pub base: Summary,
    /// New side.
    pub new: Summary,
    /// `new median / base median - 1`.
    pub delta: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges `new` against `base` for `metric`.
///
/// A median worse by more than the bound is `worse`, unless the spread
/// (the wider side's interquartile range over its median) also exceeds
/// the bound, which makes it `unresolved`. A spread beyond the bound is
/// `unresolved` in any case unless every new value beats every base
/// value.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> (Summary, Summary, Verdict) {
    let b = Summary::of(base).expect("base has samples");
    let n = Summary::of(new).expect("new has samples");
    let worse_by = match metric.better {
        Better::Lower => n.median / b.median - 1.0,
        Better::Higher => 1.0 - n.median / b.median,
    };
    let fold = |values: &[f64], pick: fn(f64, f64) -> f64| {
        values.iter().copied().reduce(pick).expect("non-empty")
    };
    let every_run_better = match metric.better {
        Better::Lower => fold(new, f64::max) < fold(base, f64::min),
        Better::Higher => fold(new, f64::min) > fold(base, f64::max),
    };
    let spread = b.relative_spread().max(n.relative_spread());
    let verdict = if spread > metric.bound && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (b, n, verdict)
}

/// The comparison of two records.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload and end-to-end metric both records hold.
    pub rows: Vec<Row>,
    /// `(workload, base fail rate, new fail rate)` per shared workload.
    pub fail_rates: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// True when some row is `worse` or some fail rate rose.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
            || self.fail_rates.iter().any(|(_, base, new)| new > base)
    }

    /// A fixed-width table of every row, then the fail rates.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<17} {:<12} {:>30} {:>30} {:>8}  verdict\n",
            "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "delta"
        );
        let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
        for row in &self.rows {
            out.push_str(&format!(
                "{:<17} {:<12} {:>30} {:>30} {:>+7.1}%  {}\n",
                row.workload,
                row.metric.name,
                side(&row.base),
                side(&row.new),
                row.delta * 100.0,
                row.verdict.name()
            ));
        }
        for (workload, base, new) in &self.fail_rates {
            let verdict = if new > base { "worse" } else { "ok" };
            out.push_str(&format!(
                "{workload:<17} {:<12} {base:>30} {new:>30} {:>8}  {verdict}\n",
                "fail_rate", ""
            ));
        }
        out
    }
}

/// Compares every workload and end-to-end metric the two records share.
pub fn compare(base: &Record, new: &Record) -> Comparison {
    let mut rows = Vec::new();
    let mut fail_rates = Vec::new();
    for (name, b) in &base.workloads {
        let Some((_, n)) = new.workloads.iter().find(|(m, _)| m == name) else {
            continue;
        };
        fail_rates.push((name.clone(), b.fail_rate(), n.fail_rate()));
        for metric in &metrics::END_TO_END {
            let (Some(bv), Some(nv)) = (b.values(metric.name), n.values(metric.name)) else {
                continue;
            };
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let (bs, ns, verdict) = judge(metric, bv, nv);
            rows.push(Row {
                workload: name.clone(),
                metric: *metric,
                delta: ns.median / bs.median - 1.0,
                base: bs,
                new: ns,
                verdict,
            });
        }
    }
    Comparison { rows, fail_rates }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Same distribution: ok.
        assert_eq!(judge(&WALL, &base, &base).2, Verdict::Ok);
        // Tight and 20% slower: worse.
        let slow = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge(&WALL, &base, &slow).2, Verdict::Worse);
        // Tight and 20% faster: ok.
        let fast = [0.80, 0.81, 0.79, 0.80, 0.82];
        assert_eq!(judge(&WALL, &base, &fast).2, Verdict::Ok);
        // Spread far beyond the bound with overlapping runs: unresolved,
        // whether the median moved up or not.
        let noisy = [0.70, 1.30, 1.00, 0.60, 1.40];
        assert_eq!(judge(&WALL, &base, &noisy).2, Verdict::Unresolved);
        let noisy_slow = [0.90, 1.60, 1.25, 0.80, 1.70];
        assert_eq!(judge(&WALL, &base, &noisy_slow).2, Verdict::Unresolved);
        // Noisy but every run better than every base run: ok.
        let noisy_fast = [0.50, 0.90, 0.70, 0.40, 0.95];
        assert_eq!(judge(&WALL, &base, &noisy_fast).2, Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let metric = EndToEnd {
            better: Better::Higher,
            ..WALL
        };
        let base = [10.0, 10.1, 9.9];
        assert_eq!(judge(&metric, &base, &[8.0, 8.1, 7.9]).2, Verdict::Worse);
        assert_eq!(judge(&metric, &base, &[12.0, 12.1, 11.9]).2, Verdict::Ok);
    }

    fn record(wall: &[f64], failed: u64) -> Record {
        Record {
            host: Host {
                nproc: 2,
                workers: 2,
                rustc: "rustc test".into(),
            },
            seed: 42,
            workloads: vec![(
                "sim_mem_mapg".into(),
                WorkloadRecord {
                    attempted: 10,
                    failed,
                    samples: vec![("wall_s".into(), wall.to_vec())],
                    layers: vec![("controller.stalls".into(), 12.0)],
                },
            )],
        }
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        let original = record(&[1.0, 1.25, 0.5], 1);
        let text = mapg::fuzz::write_json(&original.to_json());
        let parsed = Record::from_json(&mapg::fuzz::parse_json(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
        assert!(Record::from_json(&mapg::fuzz::parse_json("{}").unwrap()).is_err());
    }

    #[test]
    fn regressions_are_flagged() {
        let base = record(&[1.0, 1.0, 1.0], 0);
        assert!(!compare(&base, &base).regressed());
        let slower = compare(&base, &record(&[1.5, 1.5, 1.5], 0));
        assert_eq!(slower.rows[0].verdict, Verdict::Worse);
        assert!(slower.regressed());
        assert!(slower.render().contains("worse"));
        let failing = compare(&base, &record(&[1.0, 1.0, 1.0], 1));
        assert!(failing.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(failing.regressed(), "a higher fail rate is a regression");
    }
}
