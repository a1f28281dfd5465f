//! Regenerates the reconstructed tables and figures of the MAPG
//! reproduction.
//!
//! ```bash
//! experiments                      # everything, paper scale
//! experiments rt1 rf5              # selected experiments
//! experiments --scale quick        # smaller runs (full is an alias for paper)
//! experiments --csv rf2            # CSV instead of aligned text
//! experiments --csv --out-dir out  # also one <ID>.csv file per experiment
//! experiments --jobs 8             # parallel run (output still registry order)
//! experiments --manifest run.json  # machine-readable run record
//! experiments --metrics agg.json   # aggregated metrics of every simulation
//! experiments --list               # registry
//! ```
//!
//! The selected experiments run as one plan ([`execute_all`]): every
//! experiment's runs are computed in one batch across `--jobs` workers,
//! each distinct run once, and each experiment's tables are rendered
//! from its own reports and printed in registry order, so stdout is
//! byte-identical at any job count (the `--jobs 1` serial run is the
//! reference). A panicking run aborts the whole invocation with a
//! nonzero exit.

use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use mapg_bench::experiments::Experiment;
use mapg_bench::{
    execute_all, experiments, ExperimentJob, Manifest, ManifestEntry, OutputFormat, Scale,
};

const USAGE: &str = "usage: experiments [--scale smoke|quick|paper|full] [--csv] [--jobs N] \
     [--manifest FILE] [--metrics FILE] [--out-dir DIR] [--list] [IDS...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut io::stdout().lock()) {
        Ok(code) => code,
        // A reader that stopped reading (`experiments | head`) ends the
        // run quietly.
        Err(error) if error.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("cannot write to stdout: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `args` and runs the selected experiments, writing tables to
/// `out`; only a failed write to `out` is an `Err`.
fn run(args: &[String], out: &mut impl Write) -> io::Result<ExitCode> {
    let mut scale = Scale::Paper;
    let mut csv = false;
    let mut jobs = mapg_pool::default_jobs();
    let mut manifest_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for experiment in experiments::all() {
                    writeln!(out, "{:<7} {}", experiment.id, experiment.title)?;
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--csv" => csv = true,
            "--scale" => {
                let Some(name) = iter.next() else {
                    eprintln!("--scale needs a value (smoke|quick|paper|full)");
                    return Ok(ExitCode::FAILURE);
                };
                let Some(parsed) = Scale::parse(name) else {
                    eprintln!("unknown scale '{name}' (smoke|quick|paper|full)");
                    return Ok(ExitCode::FAILURE);
                };
                scale = parsed;
            }
            "--jobs" => {
                let Some(value) = iter.next() else {
                    eprintln!("--jobs needs a value (a worker count >= 1)");
                    return Ok(ExitCode::FAILURE);
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("invalid job count '{value}' (need an integer >= 1)");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--manifest" => {
                let Some(path) = iter.next() else {
                    eprintln!("--manifest needs an output path");
                    return Ok(ExitCode::FAILURE);
                };
                manifest_path = Some(path.to_owned());
            }
            "--metrics" => {
                let Some(path) = iter.next() else {
                    eprintln!("--metrics needs an output path");
                    return Ok(ExitCode::FAILURE);
                };
                metrics_path = Some(path.to_owned());
            }
            "--out-dir" => {
                let Some(path) = iter.next() else {
                    eprintln!("--out-dir needs a directory path");
                    return Ok(ExitCode::FAILURE);
                };
                out_dir = Some(path.to_owned());
            }
            "--help" | "-h" => {
                writeln!(out, "{USAGE}")?;
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                return Ok(ExitCode::FAILURE);
            }
            id => selected.push(id.to_owned()),
        }
    }

    if out_dir.is_some() && !csv {
        eprintln!("--out-dir writes per-experiment CSV files and requires --csv");
        return Ok(ExitCode::FAILURE);
    }

    let to_run: Vec<Experiment> = if selected.is_empty() {
        experiments::all()
    } else {
        let mut list: Vec<Experiment> = Vec::new();
        for id in &selected {
            match experiments::find(id) {
                Some(experiment) => {
                    if list.iter().any(|e: &Experiment| e.id == experiment.id) {
                        eprintln!("warning: duplicate experiment '{id}' ignored");
                    } else {
                        list.push(experiment);
                    }
                }
                None => {
                    eprintln!("unknown experiment '{id}'; try --list");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        list
    };

    // An unusable output directory fails before anything runs.
    if let Some(dir) = &out_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out-dir '{dir}': {error}");
            return Ok(ExitCode::FAILURE);
        }
    }

    writeln!(
        out,
        "# MAPG reproduction — {} experiment(s) at {scale:?} scale\n",
        to_run.len()
    )?;

    // Metrics collection is opt-in (a manifest or metrics file was
    // requested): one hub per experiment, which every run the experiment
    // plans merges its registry into. Merging is commutative, so the
    // snapshot is deterministic at any job count.
    let collect_metrics = manifest_path.is_some() || metrics_path.is_some();
    let format = if csv {
        OutputFormat::Csv
    } else {
        OutputFormat::Text
    };
    let run_started = Instant::now();
    let jobs_to_run: Vec<ExperimentJob> = to_run
        .iter()
        .map(|&experiment| {
            let mut job = ExperimentJob::new(experiment, scale, format, jobs);
            job.metrics_hub = collect_metrics.then(mapg_obs::MetricsHub::new);
            job
        })
        .collect();
    // One batch computes each distinct run once, so a memo lookup could
    // never hit here; the process-wide run memo stays off (DESIGN §7.1).
    let outputs = experiments::without_run_cache(|| execute_all(&jobs_to_run));
    let total_wall = run_started.elapsed();

    let mut entries = Vec::with_capacity(outputs.len());
    for (job, output) in jobs_to_run.iter().zip(outputs) {
        eprintln!(
            "[{} planned and rendered in {:.2?}]\n",
            output.id, output.wall
        );
        write!(out, "{}", output.rendered)?;
        if let Some(dir) = &out_dir {
            let path = Path::new(dir).join(format!("{}.csv", output.id));
            if let Err(error) = mapg::write_atomic(&path, output.rendered.as_bytes()) {
                eprintln!("cannot write '{}': {error}", path.display());
                return Ok(ExitCode::FAILURE);
            }
        }
        entries.push(ManifestEntry {
            id: output.id.to_owned(),
            title: job.experiment.title.to_owned(),
            wall_ms: output.wall.as_secs_f64() * 1e3,
            metrics: job.metrics_hub.as_ref().map(mapg_obs::MetricsHub::snapshot),
            tables: output.tables,
        });
    }
    eprintln!("[total: {total_wall:.2?} with {jobs} job(s)]");

    if let Some(path) = metrics_path {
        // The aggregate is a pure merge over per-experiment registries in
        // registry order — no wall times, no job count — so the file is
        // byte-identical across `--jobs` values.
        let mut combined = mapg_obs::MetricsRegistry::new();
        for entry in &entries {
            if let Some(metrics) = &entry.metrics {
                combined.merge(metrics);
            }
        }
        if let Err(error) = mapg::write_atomic(Path::new(&path), combined.to_json().as_bytes()) {
            eprintln!("cannot write metrics '{path}': {error}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("[metrics written to {path}]");
    }

    if let Some(path) = manifest_path {
        let manifest = Manifest {
            scale,
            jobs,
            total_wall_ms: total_wall.as_secs_f64() * 1e3,
            fuzz: None,
            experiments: entries,
        };
        if let Err(error) = mapg::write_atomic(Path::new(&path), manifest.to_json().as_bytes()) {
            eprintln!("cannot write manifest '{path}': {error}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("[manifest written to {path}]");
    }
    Ok(ExitCode::SUCCESS)
}
