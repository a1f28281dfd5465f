//! Regenerates the reconstructed tables and figures of the MAPG
//! reproduction.
//!
//! ```bash
//! experiments                      # everything, paper scale
//! experiments rt1 rf5              # selected experiments
//! experiments --scale quick        # smaller runs (full is an alias for paper)
//! experiments --csv rf2            # CSV instead of aligned text
//! experiments --jobs 8             # parallel run (output still registry order)
//! experiments --manifest run.json  # machine-readable run record
//! experiments --journal j.json     # crash-safe completion journal
//! experiments --resume j.json      # replay completed work, run the rest
//! experiments --list               # registry
//! ```
//!
//! Experiments run concurrently under a supervised pool: a panicking
//! experiment is quarantined (the rest of the suite completes), a
//! `--deadline-ms` overrun abandons the hung job, and `--retries`
//! re-runs failures with backoff. Per-experiment outcomes land in the
//! manifest (schema v4) and the run exits nonzero when anything failed.
//!
//! With `--journal FILE` every completed experiment is appended to a
//! crash-safe journal (atomic rewrite per append); `--resume FILE`
//! replays journaled payloads verbatim and runs only the rest, so the
//! CSV/manifest outputs of an interrupted-then-resumed run are
//! byte-identical to an uninterrupted one. Journaled manifests zero
//! all wall times and omit metrics to keep that comparison exact.
//!
//! Tables are buffered per experiment and printed in registry order, so
//! stdout is byte-identical at any job count (the `--jobs 1` serial run
//! is the reference).

use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mapg_bench::experiments::Experiment;
use mapg_bench::{
    experiments, ExperimentJob, Journal, JournalEntry, Manifest, ManifestEntry, OutputFormat, Scale,
};
use mapg_pool::{JobOutcome, Supervisor};

const USAGE: &str = "usage: experiments [--scale smoke|quick|paper|full] [--csv] [--jobs N] \
     [--manifest FILE] [--metrics FILE] [--out-dir DIR] \
     [--journal FILE | --resume FILE] \
     [--deadline-ms N] [--retries N] [--list] [IDS...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut csv = false;
    let mut jobs = mapg_pool::default_jobs();
    let mut manifest_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut retries: u32 = 1;
    let mut inject_panic: Option<String> = None;
    let mut inject_hang: Option<String> = None;
    let mut inject_flaky: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for experiment in experiments::all() {
                    println!("{:<7} {}", experiment.id, experiment.title);
                }
                return ExitCode::SUCCESS;
            }
            "--csv" => csv = true,
            "--scale" => {
                let Some(name) = iter.next() else {
                    eprintln!("--scale needs a value (smoke|quick|paper|full)");
                    return ExitCode::FAILURE;
                };
                let Some(parsed) = Scale::parse(name) else {
                    eprintln!("unknown scale '{name}' (smoke|quick|paper|full)");
                    return ExitCode::FAILURE;
                };
                scale = parsed;
            }
            "--jobs" => {
                let Some(value) = iter.next() else {
                    eprintln!("--jobs needs a value (a worker count >= 1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("invalid job count '{value}' (need an integer >= 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--manifest" => {
                let Some(path) = iter.next() else {
                    eprintln!("--manifest needs an output path");
                    return ExitCode::FAILURE;
                };
                manifest_path = Some(path.to_owned());
            }
            "--metrics" => {
                let Some(path) = iter.next() else {
                    eprintln!("--metrics needs an output path");
                    return ExitCode::FAILURE;
                };
                metrics_path = Some(path.to_owned());
            }
            "--out-dir" => {
                let Some(path) = iter.next() else {
                    eprintln!("--out-dir needs a directory path");
                    return ExitCode::FAILURE;
                };
                out_dir = Some(path.to_owned());
            }
            "--journal" => {
                let Some(path) = iter.next() else {
                    eprintln!("--journal needs a journal path");
                    return ExitCode::FAILURE;
                };
                journal_path = Some(path.to_owned());
            }
            "--resume" => {
                let Some(path) = iter.next() else {
                    eprintln!("--resume needs a journal path");
                    return ExitCode::FAILURE;
                };
                resume_path = Some(path.to_owned());
            }
            "--deadline-ms" => {
                let Some(value) = iter.next() else {
                    eprintln!("--deadline-ms needs a value (milliseconds >= 1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => deadline_ms = Some(n),
                    _ => {
                        eprintln!("invalid deadline '{value}' (need an integer >= 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--retries" => {
                let Some(value) = iter.next() else {
                    eprintln!("--retries needs a value (max attempts >= 1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u32>() {
                    Ok(n) if n >= 1 => retries = n,
                    _ => {
                        eprintln!("invalid retry count '{value}' (need an integer >= 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--inject-panic" | "--inject-hang" | "--inject-flaky" => {
                let Some(value) = iter.next() else {
                    eprintln!("{arg} needs an experiment id");
                    return ExitCode::FAILURE;
                };
                let Some(experiment) = experiments::find(value) else {
                    eprintln!("unknown experiment '{value}' for {arg}; try --list");
                    return ExitCode::FAILURE;
                };
                let slot = match arg.as_str() {
                    "--inject-panic" => &mut inject_panic,
                    "--inject-hang" => &mut inject_hang,
                    _ => &mut inject_flaky,
                };
                *slot = Some(experiment.id.to_owned());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            id => selected.push(id.to_owned()),
        }
    }

    if journal_path.is_some() && resume_path.is_some() {
        eprintln!("--journal and --resume are exclusive (resume continues its own journal)");
        return ExitCode::FAILURE;
    }
    if out_dir.is_some() && !csv {
        eprintln!("--out-dir writes per-experiment CSV files and requires --csv");
        return ExitCode::FAILURE;
    }
    if inject_hang.is_some() && deadline_ms.is_none() {
        eprintln!("--inject-hang would wedge the run forever; it requires --deadline-ms");
        return ExitCode::FAILURE;
    }
    let journaled = journal_path.is_some() || resume_path.is_some();
    if metrics_path.is_some() && journaled {
        eprintln!(
            "--metrics cannot be combined with --journal/--resume (metrics are not journaled)"
        );
        return ExitCode::FAILURE;
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
                    return ExitCode::FAILURE;
                }
            }
        }
        list
    };

    // The journal context pins everything that shapes the deterministic
    // outputs — driver, scale, format, selection — and deliberately not
    // the job count or injection flags, which only change scheduling.
    let ids: Vec<&str> = to_run.iter().map(|e| e.id).collect();
    let context = format!(
        "experiments scale={} format={} ids={}",
        scale.name(),
        if csv { "csv" } else { "text" },
        ids.join(",")
    );
    let journal: Option<Arc<Mutex<Journal>>> =
        match resume_path.as_deref().or(journal_path.as_deref()) {
            None => None,
            Some(path) => {
                if resume_path.is_some() && !Path::new(path).exists() {
                    eprintln!("cannot resume: journal '{path}' does not exist");
                    return ExitCode::FAILURE;
                }
                match Journal::open(path, &context) {
                    Ok(journal) => Some(Arc::new(Mutex::new(journal))),
                    Err(error) => {
                        eprintln!("{error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };

    println!(
        "# MAPG reproduction — {} experiment(s) at {scale:?} scale\n",
        to_run.len()
    );

    // Split the registry-ordered selection into journaled completions
    // (replayed verbatim) and fresh work for the supervisor.
    enum Slot {
        Replayed(JournalEntry),
        Fresh(usize),
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(to_run.len());
    let mut fresh: Vec<Experiment> = Vec::new();
    for experiment in &to_run {
        let replay = journal.as_ref().and_then(|j| {
            j.lock()
                .expect("journal lock")
                .completed("experiment", experiment.id)
                .cloned()
        });
        match replay {
            Some(entry) => slots.push(Slot::Replayed(entry)),
            None => {
                slots.push(Slot::Fresh(fresh.len()));
                fresh.push(*experiment);
            }
        }
    }

    // Fan the fresh experiments out under supervision, buffering each
    // one's rendered output; ordered results keep the printed stream
    // byte-identical to a serial run. The inner suite fan-out of each
    // experiment is pinned to the same job count.
    // Metrics collection is opt-in (a manifest or metrics file was
    // requested) and off for journaled runs, whose outputs must be
    // byte-stable across interruptions.
    let collect_metrics = !journaled && (manifest_path.is_some() || metrics_path.is_some());
    let run_started = Instant::now();
    let mut supervisor = Supervisor::new(jobs);
    if let Some(ms) = deadline_ms {
        supervisor = supervisor.with_deadline(Duration::from_millis(ms));
    }
    if retries > 1 {
        supervisor = supervisor.with_retries(retries, Duration::from_millis(25));
    }
    let job_journal = journal.clone();
    let injections = (inject_panic, inject_hang, inject_flaky);
    let reports = supervisor.map_supervised(fresh.clone(), move |experiment: &Experiment, ctx| {
        let (inject_panic, inject_hang, inject_flaky) = &injections;
        if inject_panic.as_deref() == Some(experiment.id) {
            panic!("injected panic in {}", experiment.id);
        }
        if inject_flaky.as_deref() == Some(experiment.id) && ctx.attempt == 1 {
            panic!("injected flaky panic in {} (attempt 1)", experiment.id);
        }
        if inject_hang.as_deref() == Some(experiment.id) {
            // Models a wedged job: ignores the cancel token on purpose,
            // so only the deadline monitor can release the worker.
            loop {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let started = Instant::now();
        // One hub per experiment: every simulation the experiment spawns
        // (its inner fan-out included) merges its registry in. Merging is
        // commutative, so the snapshot is deterministic at any job count.
        let hub = collect_metrics.then(mapg_obs::MetricsHub::new);
        let mut job = ExperimentJob::new(
            *experiment,
            scale,
            if csv {
                OutputFormat::Csv
            } else {
                OutputFormat::Text
            },
            jobs,
        );
        job.metrics_hub = hub.clone();
        let output = job.execute();
        let elapsed = started.elapsed();
        let rendered = output.rendered;
        let summaries = output.tables;
        // A worker abandoned by the deadline monitor sees its token
        // cancelled: its (now unwanted) result must not reach the
        // journal, or resume would disagree with the reported outcome.
        if !ctx.token.is_cancelled() {
            if let Some(journal) = &job_journal {
                let entry = JournalEntry::new(
                    "experiment",
                    experiment.id,
                    0,
                    ctx.attempt,
                    elapsed.as_secs_f64() * 1e3,
                    rendered.clone(),
                    summaries.clone(),
                );
                journal
                    .lock()
                    .expect("journal lock")
                    .append(entry)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
        let entry = ManifestEntry {
            id: experiment.id.to_owned(),
            title: experiment.title.to_owned(),
            outcome: "ok".to_owned(),
            attempts: ctx.attempt,
            wall_ms: if journaled {
                0.0
            } else {
                elapsed.as_secs_f64() * 1e3
            },
            metrics: hub.as_ref().map(mapg_obs::MetricsHub::snapshot),
            tables: summaries,
        };
        (experiment.id, rendered, elapsed, entry)
    });
    let total_wall = run_started.elapsed();

    if let Some(dir) = &out_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out-dir '{dir}': {error}");
            return ExitCode::FAILURE;
        }
    }

    let mut reports: Vec<Option<_>> = reports.into_iter().map(Some).collect();
    let mut entries = Vec::with_capacity(to_run.len());
    let mut failed: Vec<String> = Vec::new();
    let mut ok_count = 0usize;
    let mut replayed_count = 0usize;
    for (experiment, slot) in to_run.iter().zip(slots) {
        let (payload, entry) = match slot {
            Slot::Replayed(journal_entry) => {
                replayed_count += 1;
                eprintln!("[{} replayed from journal]\n", experiment.id);
                let entry = ManifestEntry {
                    id: experiment.id.to_owned(),
                    title: experiment.title.to_owned(),
                    outcome: "ok".to_owned(),
                    attempts: journal_entry.attempts,
                    wall_ms: 0.0,
                    metrics: None,
                    tables: journal_entry.tables.clone(),
                };
                (Some(journal_entry.payload), entry)
            }
            Slot::Fresh(index) => {
                let report = reports[index].take().expect("one report per fresh job");
                match report.outcome {
                    JobOutcome::Ok((id, rendered, elapsed, entry)) => {
                        ok_count += 1;
                        eprintln!("[{id} done in {elapsed:.2?}]\n");
                        (Some(rendered), entry)
                    }
                    outcome => {
                        let label = outcome.label();
                        if let JobOutcome::Panicked { message } = &outcome {
                            eprintln!("[{}: panic: {message}]", experiment.id);
                        }
                        eprintln!(
                            "[{} {label} after {} attempt(s)]\n",
                            experiment.id, report.attempts
                        );
                        failed.push(format!(
                            "{} ({label} after {} attempt(s))",
                            experiment.id, report.attempts
                        ));
                        let entry = ManifestEntry {
                            id: experiment.id.to_owned(),
                            title: experiment.title.to_owned(),
                            outcome: label.to_owned(),
                            attempts: report.attempts,
                            wall_ms: if journaled {
                                0.0
                            } else {
                                report.wall.as_secs_f64() * 1e3
                            },
                            metrics: None,
                            tables: Vec::new(),
                        };
                        (None, entry)
                    }
                }
            }
        };
        if let Some(payload) = payload {
            print!("{payload}");
            if let Some(dir) = &out_dir {
                let path = Path::new(dir).join(format!("{}.csv", experiment.id));
                if let Err(error) = mapg::write_atomic(&path, payload.as_bytes()) {
                    eprintln!("cannot write '{}': {error}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        entries.push(entry);
    }
    eprintln!("[total: {total_wall:.2?} with {jobs} job(s)]");
    eprintln!(
        "[supervised: {ok_count} ok, {} failed, {replayed_count} replayed]",
        failed.len()
    );
    if !failed.is_empty() {
        eprintln!("[failed entries: {}]", failed.join("; "));
    }

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
            return ExitCode::FAILURE;
        }
        eprintln!("[metrics written to {path}]");
    }

    if let Some(path) = manifest_path {
        let manifest = Manifest {
            scale,
            jobs,
            total_wall_ms: if journaled {
                0.0
            } else {
                total_wall.as_secs_f64() * 1e3
            },
            fuzz: None,
            experiments: entries,
        };
        if let Err(error) = mapg::write_atomic(Path::new(&path), manifest.to_json().as_bytes()) {
            eprintln!("cannot write manifest '{path}': {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("[manifest written to {path}]");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
