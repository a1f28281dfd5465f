//! The benchmark harness: a closed loop with one client, one fresh sample
//! process at a time.
//!
//! ```text
//! mapg-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! mapg-benchmark record --out FILE [--seed N] [--smoke]
//! mapg-benchmark compare BASE.json NEW.json
//! ```
//!
//! The first form measures one workload for `S` seconds and prints, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: every end-to-end metric's best observation
//! with `--trace 0` (a shared host's interference only ever adds time,
//! so the fastest sample is the steadiest estimate of the code's own
//! cost), every per-layer metric with `--trace 1`.
//!
//! `record` runs every workload a fixed number of times in interleaved
//! rounds, so a burst of noise from other tenants lands on every workload
//! instead of on one workload's whole set, then runs the correctness
//! checks and one traced pass per workload, and writes a record file.
//! `compare` prints one verdict row per workload and end-to-end metric
//! of two record files and exits 1 on a regression.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use mapg::fuzz::{parse_json, write_json, JsonValue};
use mapg_benchmark::metrics::{self, Layer, DEFAULT_SEED, END_TO_END, SUITE_IDS, WORKLOADS};
use mapg_benchmark::record::{self, count, number, object, Host, Record, WorkloadRecord};
use mapg_benchmark::stats::{median, Summary};
use mapg_benchmark::Args;

const USAGE: &str =
    "usage: mapg-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
     \x20      mapg-benchmark record --out FILE [--seed N] [--smoke]\n\
     \x20      mapg-benchmark compare BASE.json NEW.json";

/// Samples per workload in a record, in [`WORKLOADS`] order.
const RECORD_SAMPLES: [usize; 4] = [5, 9, 9, 9];
/// The same with `--smoke`.
const SMOKE_RECORD_SAMPLES: [usize; 4] = [2, 3, 3, 3];
/// Seconds of traced rounds per workload in a record (one round with
/// `--smoke`); a suite round alone takes longer, so it runs once.
const RECORD_TRACE_SECONDS: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("record") => record(&args[1..]),
        _ => run_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failed for one workload, and the sample
/// values that passed their checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    /// Each passing sample's timed section split into its parts: one
    /// per experiment for the suite, the whole run for a sim.
    parts_s: Vec<Vec<f64>>,
    /// Wall time of every sample process, passed or not.
    process_s: Vec<f64>,
    /// The first passing sample's report digest.
    digest: Option<String>,
}

impl Tally {
    fn fail(&mut self, workload: &str, error: &str) {
        self.failed += 1;
        eprintln!("{workload}: FAILED: {error}");
    }

    /// The best observation of each end-to-end metric, in
    /// [`END_TO_END`] order: the fewest seconds and the smallest peak
    /// RSS any sample reached. The best timed section is assembled part
    /// by part, so a suite pass is the sum of each experiment's fastest
    /// run. `None` before any sample passed.
    fn best(&self) -> Option<[f64; 3]> {
        let min = |values: &[f64]| values.iter().copied().reduce(f64::min);
        let parts = self.parts_s.first()?.len();
        let wall = (0..parts)
            .map(|i| min(&self.parts_s.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .sum::<Option<f64>>()?;
        Some([wall, min(&self.setup_s)?, min(&self.peak_rss_mb)?])
    }

    fn samples(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("wall_s".into(), self.wall_s.clone()),
            ("setup_s".into(), self.setup_s.clone()),
            ("peak_rss_mb".into(), self.peak_rss_mb.clone()),
        ]
    }
}

/// Spawns the sample binaries, which live next to this one.
struct Harness {
    dir: PathBuf,
    seed: u64,
    smoke: bool,
    /// The suite's inner worker budget.
    jobs: usize,
}

impl Harness {
    fn new(seed: u64, smoke: bool) -> Result<Harness, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate harness: {e}"))?;
        let dir = exe.parent().ok_or("harness has no directory")?.to_owned();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Harness {
            dir,
            seed,
            smoke,
            jobs: nproc.min(2),
        })
    }

    /// Runs one sample process in `mode`; returns its wall seconds and
    /// its JSON line, which must say `"ok": true`.
    fn spawn(&self, workload: &str, mode: &str, seconds: f64) -> Result<(f64, JsonValue), String> {
        let mut command = if workload == "suite_paper" {
            let mut c = Command::new(self.dir.join("suite-sample"));
            c.args(["--jobs", &self.jobs.to_string()]);
            c
        } else {
            let mut c = Command::new(self.dir.join("sim-sample"));
            c.args(["--workload", workload, "--seed", &self.seed.to_string()]);
            c
        };
        command.args(["--mode", mode, "--seconds", &seconds.to_string()]);
        if self.smoke {
            command.arg("--smoke");
        }
        let start = Instant::now();
        let output = command
            .output()
            .map_err(|e| format!("cannot run sample process: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let doc = parse_json(line).map_err(|e| format!("bad sample output ({e}): {line}"))?;
        if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) || !output.status.success() {
            let error = doc.get("error").and_then(JsonValue::as_str).unwrap_or("");
            return Err(format!("{mode} failed ({}): {error}", output.status));
        }
        Ok((wall_s, doc))
    }

    /// One end-to-end sample: the report must be clean and equal to the
    /// first sample's.
    fn sample(&self, workload: &str, tally: &mut Tally) {
        tally.attempted += 1;
        let (wall_s, doc) = match self.spawn(workload, "sample", 0.0) {
            Ok(result) => result,
            Err(error) => return tally.fail(workload, &error),
        };
        tally.process_s.push(wall_s);
        let f = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
        let (Some(timed), Some(check), Some(rss)) = (f("timed_s"), f("check_s"), f("peak_rss_mb"))
        else {
            return tally.fail(workload, "sample output lacks a measurement");
        };
        let parts: Option<Vec<f64>> = match doc.get("parts_s") {
            Some(JsonValue::Array(items)) => items.iter().map(JsonValue::as_f64).collect(),
            _ => None,
        };
        let expected = tally.parts_s.first().map(Vec::len);
        let Some(parts) = parts.filter(|p| !p.is_empty() && expected.is_none_or(|n| n == p.len()))
        else {
            return tally.fail(workload, "sample output lacks its timed parts");
        };
        if doc.get("clean").and_then(JsonValue::as_bool) == Some(false) {
            return tally.fail(workload, "report invariants broken");
        }
        let digest = doc.get("digest").and_then(JsonValue::as_str).unwrap_or("");
        match &tally.digest {
            None => tally.digest = Some(digest.to_owned()),
            Some(first) if first != digest => {
                return tally.fail(workload, "output differs from the first sample's")
            }
            Some(_) => {}
        }
        tally.wall_s.push(timed);
        tally.parts_s.push(parts);
        tally.setup_s.push(wall_s - timed - check);
        tally.peak_rss_mb.push(rss);
    }

    /// The workload's correctness checks: the goldens for the suite, the
    /// frozen reference stack for a sim.
    fn check(&self, workload: &str, tally: &mut Tally) {
        if workload == "suite_paper" {
            tally.attempted += SUITE_IDS.len() as u64;
            match self.spawn(workload, "golden", 0.0) {
                Ok((_, doc)) => {
                    if let Some(JsonValue::Array(ids)) = doc.get("mismatched") {
                        for id in ids {
                            let id = id.as_str().unwrap_or("?");
                            tally.fail(workload, &format!("{id} differs from its golden"));
                        }
                    }
                }
                Err(error) => {
                    eprintln!("{workload}: FAILED: {error}");
                    tally.failed += SUITE_IDS.len() as u64;
                }
            }
        } else {
            tally.attempted += 1;
            if let Err(error) = self.spawn(workload, "oracle", 0.0) {
                tally.fail(workload, &error);
            }
        }
    }

    /// Closed-loop samples until `seconds` are used up: a sample starts
    /// only if the median sample so far still fits.
    fn measure(&self, workload: &str, seconds: f64, tally: &mut Tally) {
        let start = Instant::now();
        loop {
            let next = median(&tally.process_s);
            let spent = start.elapsed().as_secs_f64();
            if !tally.process_s.is_empty() && spent + next > seconds {
                break;
            }
            if tally.wall_s.is_empty() && tally.failed >= 3 {
                break;
            }
            self.sample(workload, tally);
        }
    }

    /// The traced run; every per-layer metric the workload does not
    /// exercise reads 0.
    fn traced(&self, workload: &str, seconds: f64, tally: &mut Tally) -> Option<Vec<(Layer, f64)>> {
        tally.attempted += 1;
        let doc = match self.spawn(workload, "traced", seconds) {
            Ok((_, doc)) => doc,
            Err(error) => {
                tally.fail(workload, &error);
                return None;
            }
        };
        let layers = doc.get("layers");
        Some(
            metrics::per_layer()
                .into_iter()
                .map(|layer| {
                    let value = layers
                        .and_then(|l| l.get(&layer.name))
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0);
                    (layer, value)
                })
                .collect(),
        )
    }
}

fn known_workload(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .find(|w| **w == name)
        .copied()
        .ok_or_else(|| {
            format!(
                "unknown workload '{name}' (one of {})",
                WORKLOADS.join(", ")
            )
        })
}

/// `--workload NAME --seed N --seconds S --trace 0|1`.
fn run_workload(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["workload", "seed", "seconds", "trace"])?;
    let workload = known_workload(args.get("workload").ok_or("--workload is required")?)?;
    let seconds: f64 = args.parsed("seconds", 10.0)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let harness = Harness::new(args.parsed("seed", DEFAULT_SEED)?, args.smoke)?;
    let mut tally = Tally::default();
    let metrics =
        if trace {
            let Some(layers) = harness.traced(workload, seconds, &mut tally) else {
                return Ok(ExitCode::FAILURE);
            };
            object(layers.into_iter().map(|(layer, value)| {
                let unit = JsonValue::String(layer.unit.into());
                (
                    layer.name,
                    object([("value", number(value)), ("unit", unit)]),
                )
            }))
        } else {
            harness.check(workload, &mut tally);
            harness.measure(workload, seconds, &mut tally);
            let Some(best) = tally.best() else {
                eprintln!("{workload}: no sample passed");
                return Ok(ExitCode::FAILURE);
            };
            let samples = tally.samples();
            object(END_TO_END.iter().zip(best).zip(&samples).map(
                |((metric, best), (_, values))| {
                    let s = Summary::of(values).expect("every passing sample has every metric");
                    eprintln!(
                        "{workload}: {} best {best:.6}, median {:.6} [{:.6}, {:.6}] {} (n={})",
                        metric.name, s.median, s.q1, s.q3, metric.unit, s.n
                    );
                    let unit = JsonValue::String(metric.unit.into());
                    (
                        metric.name,
                        object([("value", number(best)), ("unit", unit)]),
                    )
                },
            ))
        };
    let result = object([
        ("correct", JsonValue::Bool(tally.failed == 0)),
        ("attempted", count(tally.attempted)),
        ("failed", count(tally.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", write_json(&result));
    Ok(ExitCode::SUCCESS)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// `record --out FILE [--seed N] [--smoke]`.
fn record(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["out", "seed"])?;
    let out = PathBuf::from(args.get("out").ok_or("--out is required")?);
    let harness = Harness::new(args.parsed("seed", DEFAULT_SEED)?, args.smoke)?;
    let (counts, trace_seconds) = if harness.smoke {
        (SMOKE_RECORD_SAMPLES, 0.0)
    } else {
        (RECORD_SAMPLES, RECORD_TRACE_SECONDS)
    };
    let mut tallies: Vec<Tally> = WORKLOADS.iter().map(|_| Tally::default()).collect();
    let rounds = counts.iter().copied().max().unwrap_or(0);
    for round in 0..rounds {
        for ((workload, tally), &n) in WORKLOADS.iter().zip(&mut tallies).zip(&counts) {
            if round < n {
                harness.sample(workload, tally);
            }
        }
    }
    let mut workloads = Vec::new();
    for (workload, mut tally) in WORKLOADS.iter().zip(tallies) {
        harness.check(workload, &mut tally);
        let layers = harness
            .traced(workload, trace_seconds, &mut tally)
            .unwrap_or_default()
            .into_iter()
            .map(|(layer, value)| (layer.name, value))
            .collect();
        workloads.push((
            (*workload).to_owned(),
            WorkloadRecord {
                attempted: tally.attempted,
                failed: tally.failed,
                samples: tally.samples(),
                layers,
            },
        ));
    }
    let record = Record {
        host: Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: harness.jobs,
            rustc: rustc_version(),
        },
        seed: harness.seed,
        workloads,
    };
    let text = write_json(&record.to_json()) + "\n";
    mapg::write_atomic(&out, text.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    print!("{}", record.summary());
    println!("record written to {}", out.display());
    let failed: u64 = record.workloads.iter().map(|(_, w)| w.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_record(path: &Path) -> Result<Record, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Record::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare BASE.json NEW.json`.
fn compare(raw: &[String]) -> Result<ExitCode, String> {
    let [base, new] = raw else {
        return Err("compare needs exactly two record files".into());
    };
    let comparison = record::compare(
        &read_record(Path::new(base))?,
        &read_record(Path::new(new))?,
    );
    print!("{}", comparison.render());
    Ok(if comparison.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
