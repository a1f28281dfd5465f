//! One suite sample process: runs the benchmark's experiment list through
//! `mapg_bench::ExperimentJob::execute` and prints one JSON line on
//! stdout.
//!
//! Usage: `suite-sample --mode sample|golden|traced [--jobs N]
//! [--seconds S] [--smoke]`
//!
//! - `sample`: one timed pass, serially over the experiments, each with
//!   inner worker budget `--jobs`; reports the timed seconds, the peak
//!   RSS and a digest of the rendered tables.
//! - `golden`: a smoke-scale pass compared byte for byte against the
//!   committed goldens under `crates/bench/tests/golden/`.
//! - `traced`: a pass timing each experiment, then a pass at one worker
//!   (the pool's speedup), repeated while another round fits in
//!   `--seconds`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mapg::fuzz::JsonValue;
use mapg_bench::{experiments, ExperimentJob, OutputFormat, Scale};
use mapg_benchmark::metrics::SUITE_IDS;
use mapg_benchmark::record::{count, number, object};
use mapg_benchmark::stats::median;
use mapg_benchmark::{peak_rss_mb, report_sample, Args};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    report_sample(run(&args))
}

/// One pass over the experiments: each one's host seconds and rendered
/// tables, in [`SUITE_IDS`] order.
struct Pass {
    seconds: Vec<f64>,
    rendered: Vec<String>,
}

impl Pass {
    fn digest(&self) -> String {
        let mut hasher = DefaultHasher::new();
        self.rendered.hash(&mut hasher);
        format!("{:016x}", hasher.finish())
    }
}

fn pass(scale: Scale, jobs: usize) -> Result<Pass, String> {
    let mut seconds = Vec::with_capacity(SUITE_IDS.len());
    let mut rendered = Vec::with_capacity(SUITE_IDS.len());
    for id in SUITE_IDS {
        let experiment = experiments::find(id).ok_or_else(|| format!("unknown experiment {id}"))?;
        let job = ExperimentJob::new(experiment, scale, OutputFormat::Csv, jobs);
        let start = Instant::now();
        let output = job.execute();
        seconds.push(start.elapsed().as_secs_f64());
        rendered.push(output.rendered);
    }
    Ok(Pass { seconds, rendered })
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/tests/golden")
}

fn run(args: &[String]) -> Result<Vec<(&'static str, JsonValue)>, String> {
    let args = Args::parse(args, &["mode", "jobs", "seconds"])?;
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Paper
    };
    let jobs: usize = args.parsed("jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    match args.get("mode").unwrap_or("sample") {
        "sample" => {
            let start = Instant::now();
            let pass = pass(scale, jobs)?;
            let timed_s = start.elapsed().as_secs_f64();
            let check = Instant::now();
            let digest = pass.digest();
            let check_s = check.elapsed().as_secs_f64();
            let parts = pass.seconds.iter().map(|&s| number(s)).collect();
            drop(pass);
            Ok(vec![
                ("timed_s", number(timed_s)),
                ("parts_s", JsonValue::Array(parts)),
                ("check_s", number(check_s)),
                ("peak_rss_mb", number(peak_rss_mb()?)),
                ("digest", JsonValue::String(digest)),
            ])
        }
        "golden" => {
            let mut mismatched = Vec::new();
            for (id, rendered) in SUITE_IDS.iter().zip(pass(Scale::Smoke, jobs)?.rendered) {
                let path = golden_dir().join(format!("{}.csv", id.to_lowercase()));
                let golden = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                if golden != rendered {
                    mismatched.push(JsonValue::String((*id).to_owned()));
                }
            }
            Ok(vec![
                ("checked", count(SUITE_IDS.len() as u64)),
                ("mismatched", JsonValue::Array(mismatched)),
            ])
        }
        "traced" => {
            let seconds: f64 = args.parsed("seconds", 0.0)?;
            let start = Instant::now();
            let mut per_experiment: Vec<Vec<f64>> = vec![Vec::new(); SUITE_IDS.len()];
            let mut speedups = Vec::new();
            let mut digests = Vec::new();
            let mut round_s = 0.0;
            while speedups.is_empty() || start.elapsed().as_secs_f64() + round_s <= seconds {
                let round_start = Instant::now();
                let parallel = pass(scale, jobs)?;
                let serial_start = Instant::now();
                let serial = pass(scale, 1)?;
                let serial_s = serial_start.elapsed().as_secs_f64();
                for (all, s) in per_experiment.iter_mut().zip(&parallel.seconds) {
                    all.push(*s);
                }
                speedups.push(serial_s / parallel.seconds.iter().sum::<f64>());
                digests.push(parallel.digest());
                digests.push(serial.digest());
                round_s = round_start.elapsed().as_secs_f64();
            }
            if digests.iter().any(|d| d != &digests[0]) {
                return Err("rendered tables differ between passes".into());
            }
            let mut layers: Vec<(String, JsonValue)> = SUITE_IDS
                .iter()
                .zip(&per_experiment)
                .map(|(id, s)| (format!("engine.{id}.wall_s"), number(median(s))))
                .collect();
            layers.push(("pool.speedup".into(), number(median(&speedups))));
            layers.push(("pool.workers".into(), number(jobs as f64)));
            Ok(vec![
                ("rounds", count(speedups.len() as u64)),
                ("layers", object(layers)),
            ])
        }
        other => Err(format!("unknown mode '{other}'")),
    }
}
