//! One sim sample process: runs a sim workload once and prints one JSON
//! line on stdout.
//!
//! Usage: `sim-sample --workload NAME --seed N --mode sample|oracle|traced
//! [--seconds S] [--smoke]`
//!
//! - `sample`: one timed `Simulation::try_run`; reports the timed
//!   seconds, the seconds spent checking the report, the peak RSS, the
//!   report's digest and whether its invariants are clean.
//! - `oracle`: the live stack against the frozen reference stack.
//! - `traced`: the per-layer split (see `mapg_benchmark::sim::traced`),
//!   repeated while another round fits in `--seconds`.
//!
//! This binary never references `mapg-bench`: the simulator's hot loop is
//! laid out by LTO exactly as in a focused consumer of the simulator.

use std::process::ExitCode;
use std::time::Instant;

use mapg::fuzz::JsonValue;
use mapg_benchmark::record::{count, number, object};
use mapg_benchmark::sim::{self, SimRun, SimWorkload};
use mapg_benchmark::{metrics, peak_rss_mb, report_sample, Args};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    report_sample(run(&args))
}

fn run(args: &[String]) -> Result<Vec<(&'static str, JsonValue)>, String> {
    let args = Args::parse(args, &["workload", "seed", "mode", "seconds"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = SimWorkload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let run = SimRun {
        workload,
        seed: args.parsed("seed", metrics::DEFAULT_SEED)?,
        smoke: args.smoke,
    };
    match args.get("mode").unwrap_or("sample") {
        "sample" => {
            let (mut report, timed_s) = sim::timed_run(run.config())?;
            let check = Instant::now();
            let clean = report.invariants.is_clean();
            let digest = sim::digest(&mut report);
            let check_s = check.elapsed().as_secs_f64();
            drop(report);
            Ok(vec![
                ("timed_s", number(timed_s)),
                ("parts_s", JsonValue::Array(vec![number(timed_s)])),
                ("check_s", number(check_s)),
                ("peak_rss_mb", number(peak_rss_mb()?)),
                ("digest", JsonValue::String(digest)),
                ("clean", JsonValue::Bool(clean)),
            ])
        }
        "oracle" => {
            sim::oracle_check(&run)?;
            Ok(Vec::new())
        }
        "traced" => {
            let traced = sim::traced(&run, args.parsed("seconds", 0.0)?)?;
            let layers = traced
                .metrics
                .into_iter()
                .map(|(name, value)| (name, number(value)));
            Ok(vec![
                ("rounds", count(traced.rounds as u64)),
                ("layers", object(layers)),
            ])
        }
        other => Err(format!("unknown mode '{other}'")),
    }
}
