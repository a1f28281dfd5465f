//! Seeded differential fuzz campaigns for the MAPG stack.
//!
//! ```bash
//! mapg-fuzz                                  # 200 scenarios, default seed
//! mapg-fuzz --scenarios 2000 --seed 7        # bigger sweep
//! mapg-fuzz --out fuzz-artifacts             # write repro JSONs on divergence
//! mapg-fuzz --max-seconds 60                 # wall-clock budget
//! ```
//!
//! Every scenario runs through the live event-wheel stack and the frozen
//! reference stack; any disagreement (stats mismatch, broken invariant,
//! ledger non-reconciliation, trace/metrics asymmetry, panic) is shrunk
//! to a minimal scenario and written as a self-contained repro file that
//! `mapgsim --repro FILE` replays. Exit status is nonzero when any
//! scenario diverged or was quarantined, so CI can gate on a clean
//! campaign.
//!
//! `--max-seconds N` bounds the campaign's wall clock: once elapsed no
//! new scenario starts, in-flight scenarios finish, and the manifest
//! stays valid with `executed < scenarios`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mapg_bench::{run_campaign, CampaignConfig, FuzzProvenance, Manifest, Scale};

const USAGE: &str = "usage: mapg-fuzz [--scenarios N] [--seed S] [--shrink-budget N] \
     [--jobs N] [--out DIR] [--manifest FILE] [--max-seconds N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = CampaignConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scenarios" => {
                let Some(value) = iter.next() else {
                    eprintln!("--scenarios needs a value (a scenario count >= 1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => config.scenarios = n,
                    _ => {
                        eprintln!("invalid scenario count '{value}' (need an integer >= 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                let Some(value) = iter.next() else {
                    eprintln!("--seed needs a value (a u64)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(seed) => config.seed = seed,
                    _ => {
                        eprintln!("invalid seed '{value}' (need a u64)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--shrink-budget" => {
                let Some(value) = iter.next() else {
                    eprintln!("--shrink-budget needs a value (candidate evaluations >= 1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => config.shrink_budget = n,
                    _ => {
                        eprintln!("invalid shrink budget '{value}' (need an integer >= 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" => {
                let Some(value) = iter.next() else {
                    eprintln!("--jobs needs a value (a worker count >= 1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => config.jobs = n,
                    _ => {
                        eprintln!("invalid job count '{value}' (need an integer >= 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-seconds" => {
                let Some(value) = iter.next() else {
                    eprintln!("--max-seconds needs a value (seconds > 0)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<f64>() {
                    Ok(n) if n > 0.0 && n.is_finite() => config.max_seconds = Some(n),
                    _ => {
                        eprintln!("invalid budget '{value}' (need seconds > 0)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => {
                let Some(path) = iter.next() else {
                    eprintln!("--out needs a directory path");
                    return ExitCode::FAILURE;
                };
                out_dir = Some(PathBuf::from(path));
            }
            "--manifest" => {
                let Some(path) = iter.next() else {
                    eprintln!("--manifest needs an output path");
                    return ExitCode::FAILURE;
                };
                manifest_path = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "# MAPG differential fuzz — {} scenario(s), seed {}, {} job(s)",
        config.scenarios, config.seed, config.jobs
    );

    // Panics inside scenarios are an expected finding class and the differ
    // catches them; silence the default hook so a campaign over a panicking
    // build doesn't print thousands of backtraces. Restored on exit.
    let quiet_panics = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let started = Instant::now();
    let report = run_campaign(&config);
    let elapsed = started.elapsed();
    std::panic::set_hook(quiet_panics);

    if let Some(dir) = &out_dir {
        if !report.findings.is_empty() {
            if let Err(error) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create '{}': {error}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    for finding in &report.findings {
        let outcome = &finding.outcome;
        println!(
            "FINDING scenario {:05}: {} after {} shrink step(s) ({} runs) — {}",
            finding.index,
            outcome.finding.class,
            outcome.steps,
            outcome.runs,
            outcome.finding.detail
        );
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("repro-{:05}.json", finding.index));
            let repro = finding.to_repro(report.seed);
            match repro.save(&path) {
                Ok(()) => eprintln!("[repro written to {}]", path.display()),
                Err(error) => {
                    eprintln!("{error}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    for failure in &report.failures {
        println!(
            "QUARANTINED scenario {:05}: {}",
            failure.index, failure.outcome
        );
    }

    if let Some(path) = &manifest_path {
        // Campaign manifests carry no experiments; the scale tag is
        // nominal (scenarios pick their own instruction budgets) and the
        // authoritative campaign size lives under `fuzz.scenarios`.
        let manifest = Manifest {
            scale: Scale::Smoke,
            jobs: config.jobs,
            total_wall_ms: elapsed.as_secs_f64() * 1e3,
            fuzz: Some(FuzzProvenance::of(&report)),
            experiments: Vec::new(),
        };
        if let Err(error) = mapg::write_atomic(Path::new(path), manifest.to_json().as_bytes()) {
            eprintln!("cannot write manifest '{}': {error}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[manifest written to {}]", path.display());
    }

    let skipped = report.scenarios - report.executed - report.failures.len() as u64;
    if skipped > 0 {
        println!(
            "budget: {skipped} of {} scenario(s) not started (--max-seconds reached)",
            report.scenarios
        );
    }
    if report.is_clean() {
        println!(
            "clean: {} scenario(s) agreed across both stacks in {elapsed:.2?}",
            report.executed
        );
        ExitCode::SUCCESS
    } else {
        for (class, count) in report.class_counts() {
            println!("  {class}: {count}");
        }
        println!(
            "{} of {} scenario(s) diverged ({} quarantined) in {elapsed:.2?}",
            report.findings.len(),
            report.executed,
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}
