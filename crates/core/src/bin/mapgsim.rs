//! `mapgsim` — run one MAPG simulation from the command line.
//!
//! ```bash
//! mapgsim --workload mcf_like --policy mapg --instructions 1000000
//! mapgsim --workload mem_bound --policy mapg --compare   # vs no-gating
//! mapgsim --workload mem_bound --fault-plan moderate --safe-mode
//! mapgsim --repro fuzz-artifacts/repro-00017.json   # replay a fuzz finding
//! mapgsim --list-workloads
//! mapgsim --list-policies
//! ```

use std::fmt::Display;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use mapg::fuzz::ReproFile;
use mapg::{FaultPlan, PolicyKind, PredictorKind, SimConfig, Simulation};
use mapg_trace::{WorkloadProfile, WorkloadSuite};

const POLICIES: [PolicyKind; 11] = [
    PolicyKind::NoGating,
    PolicyKind::ClockGating,
    PolicyKind::DvfsStall,
    PolicyKind::NaiveOnMiss,
    PolicyKind::Timeout { idle_cycles: 100 },
    PolicyKind::Mapg,
    PolicyKind::MapgOracle,
    PolicyKind::MapgAlwaysGate,
    PolicyKind::MapgNoEarlyWake,
    PolicyKind::MapgWith {
        predictor: PredictorKind::Ewma,
    },
    PolicyKind::MapgWith {
        predictor: PredictorKind::LastValue,
    },
];

fn find_workload(name: &str) -> Option<WorkloadProfile> {
    match name {
        "mem_bound" => return Some(WorkloadProfile::mem_bound(name)),
        "compute_bound" => return Some(WorkloadProfile::compute_bound(name)),
        "mixed" => return Some(WorkloadProfile::mixed(name)),
        _ => {}
    }
    WorkloadSuite::spec_like().get(name).cloned()
}

fn usage(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "usage: mapgsim [OPTIONS]\n\
         \n\
         options:\n\
         \x20 --workload NAME      suite profile or mem_bound|compute_bound|mixed (default mem_bound)\n\
         \x20 --policy NAME        gating policy (default mapg; see --list-policies)\n\
         \x20 --instructions N     per-core instruction budget (default 1000000)\n\
         \x20 --cores N            core count (default 1)\n\
         \x20 --seed N             RNG seed (default 42)\n\
         \x20 --tokens N           wake-token budget (default unlimited)\n\
         \x20 --switch-width PCT   sleep-switch width ratio in percent (default 3.0)\n\
         \x20 --mshr-entries N     LLC MSHR entries, bounds miss parallelism (default 16)\n\
         \x20 --dram-banks N       independently schedulable DRAM banks (default 8)\n\
         \x20 --fault-plan SPEC    inject faults: none|light|moderate|heavy or an\n\
         \x20                      intensity multiplier on moderate (e.g. 0.5)\n\
         \x20 --safe-mode          arm the safe-mode watchdog (degrades to clock\n\
         \x20                      gating when wake-ups misbehave)\n\
         \x20 --compare            also run the no-gating baseline and print deltas\n\
         \x20 --trace PATH         write a Chrome trace_event JSON (Perfetto-loadable)\n\
         \x20                      of the run's power-gating events\n\
         \x20 --metrics PATH       write the run's counters and histograms as JSON\n\
         \x20 --repro FILE         replay a fuzz repro file through the live and\n\
         \x20                      reference stacks; exits nonzero if it still\n\
         \x20                      diverges (conflicts with every run-shaping flag)\n\
         \x20 --list-workloads     print available workload names\n\
         \x20 --list-policies      print available policy names"
    )
}

/// Parses `--flag VALUE`, with an explicit message for a missing value and
/// for a malformed one (the raw text is echoed back, never swallowed).
fn parse_value<T: FromStr>(flag: &str, what: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = value.ok_or_else(|| format!("{flag} needs a {what}"))?;
    raw.parse()
        .map_err(|e| format!("invalid {what} for {flag}: '{raw}' ({e})"))
}

/// Why a run ended early: a message for the user, or a failed write to
/// stdout.
enum Failure {
    Message(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<io::Error> for Failure {
    fn from(error: io::Error) -> Self {
        Failure::Stdout(error)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut io::stdout().lock()) {
        Ok(code) => code,
        // A reader that stopped reading (`mapgsim | head`) ends the run
        // quietly.
        Err(Failure::Stdout(error)) if error.kind() == io::ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(Failure::Stdout(error)) => {
            eprintln!("error: cannot write to stdout: {error}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `args` and runs what they ask for, writing the output to `out`.
fn run(args: &[String], out: &mut impl Write) -> Result<ExitCode, Failure> {
    let mut workload = String::from("mem_bound");
    let mut policy_name = String::from("mapg");
    let mut instructions: u64 = 1_000_000;
    let mut cores: usize = 1;
    let mut seed: u64 = 42;
    let mut tokens: Option<usize> = None;
    let mut switch_width_pct: f64 = 3.0;
    let mut fault_plan = FaultPlan::none();
    let mut mshr_entries: Option<usize> = None;
    let mut dram_banks: Option<u32> = None;
    let mut safe_mode = false;
    let mut compare = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut repro_path: Option<String> = None;
    // Flags that shape a run, recorded when explicitly given: `--repro`
    // replays a self-contained scenario, so combining it with any of them
    // is a contradiction worth rejecting rather than silently ignoring.
    let mut run_flags: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if matches!(
            arg.as_str(),
            "--workload"
                | "--policy"
                | "--instructions"
                | "--cores"
                | "--seed"
                | "--tokens"
                | "--switch-width"
                | "--mshr-entries"
                | "--dram-banks"
                | "--fault-plan"
                | "--safe-mode"
                | "--compare"
                | "--trace"
                | "--metrics"
        ) {
            run_flags.push(arg.clone());
        }
        match arg.as_str() {
            "--help" | "-h" => {
                usage(out)?;
                return Ok(ExitCode::SUCCESS);
            }
            "--list-workloads" => {
                for profile in WorkloadSuite::spec_like().iter() {
                    writeln!(out, "{}", profile.name())?;
                }
                writeln!(out, "mem_bound\ncompute_bound\nmixed")?;
                return Ok(ExitCode::SUCCESS);
            }
            "--list-policies" => {
                for policy in POLICIES {
                    writeln!(out, "{}", policy.name())?;
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--workload" => {
                workload = parse_value(arg, "name", iter.next())?;
            }
            "--policy" => {
                policy_name = parse_value(arg, "name", iter.next())?;
            }
            "--instructions" => {
                instructions = parse_value(arg, "count", iter.next())?;
            }
            "--cores" => {
                cores = parse_value(arg, "count", iter.next())?;
            }
            "--seed" => {
                seed = parse_value(arg, "seed", iter.next())?;
            }
            "--tokens" => {
                tokens = Some(parse_value(arg, "count", iter.next())?);
            }
            "--switch-width" => {
                switch_width_pct = parse_value(arg, "percent", iter.next())?;
            }
            "--mshr-entries" => {
                mshr_entries = Some(parse_value(arg, "count", iter.next())?);
            }
            "--dram-banks" => {
                dram_banks = Some(parse_value(arg, "count", iter.next())?);
            }
            "--fault-plan" => {
                let spec: String = parse_value(arg, "spec", iter.next())?;
                fault_plan = FaultPlan::from_spec(&spec)
                    .map_err(|e| format!("{e} (try none|light|moderate|heavy or a number)"))?;
            }
            "--safe-mode" => safe_mode = true,
            "--compare" => compare = true,
            "--trace" => {
                trace_path = Some(parse_value(arg, "path", iter.next())?);
            }
            "--metrics" => {
                metrics_path = Some(parse_value(arg, "path", iter.next())?);
            }
            "--repro" => {
                repro_path = Some(parse_value(arg, "path", iter.next())?);
            }
            other => {
                return Err(format!("unknown option '{other}' (try --help)").into());
            }
        }
    }

    if let Some(path) = &repro_path {
        if !run_flags.is_empty() {
            return Err(format!(
                "--repro replays a self-contained recorded scenario; drop {}",
                run_flags.join(", ")
            )
            .into());
        }
        return replay_repro(path, out);
    }

    if compare && (trace_path.is_some() || metrics_path.is_some()) {
        return Err(
            "--trace/--metrics capture exactly one run; drop --compare or the capture flags"
                .to_owned()
                .into(),
        );
    }

    let profile = find_workload(&workload)
        .ok_or_else(|| format!("unknown workload '{workload}'; try --list-workloads"))?;
    let policy = POLICIES
        .into_iter()
        .find(|policy| policy.name() == policy_name)
        .ok_or_else(|| format!("unknown policy '{policy_name}'; try --list-policies"))?;

    let mut config = SimConfig::default()
        .with_profile(profile)
        .with_instructions(instructions)
        .with_cores(cores)
        .with_seed(seed)
        .with_switch_width(switch_width_pct / 100.0)
        .with_fault_plan(fault_plan);
    if mshr_entries.is_some() || dram_banks.is_some() {
        let mut memory = mapg_mem::HierarchyConfig::baseline();
        if let Some(entries) = mshr_entries {
            memory.mshr_entries = entries;
        }
        if let Some(banks) = dram_banks {
            memory.dram.banks = banks;
        }
        config = config.with_memory(memory);
    }
    if let Some(budget) = tokens {
        config = config.with_tokens(budget);
    }
    if safe_mode {
        config = config.with_safe_mode_default();
    }
    if trace_path.is_some() {
        config = config.with_trace();
    }
    if metrics_path.is_some() {
        config = config.with_metrics();
    }

    let report = Simulation::new(config.clone(), policy)
        .try_run()
        .map_err(|e| e.to_string())?;
    write!(out, "{report}")?;

    if let Some(path) = &trace_path {
        let trace = report
            .trace
            .as_ref()
            .ok_or_else(|| "internal: report carries no trace despite --trace".to_owned())?;
        if trace.dropped() > 0 {
            eprintln!(
                "warning: trace ring wrapped; oldest {} event(s) dropped",
                trace.dropped()
            );
        }
        mapg::write_atomic(Path::new(path), trace.to_chrome_trace().as_bytes())
            .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
        writeln!(out, "trace written to {path} ({} events)", trace.len())?;
    }
    if let Some(path) = &metrics_path {
        let metrics = report
            .metrics
            .as_ref()
            .ok_or_else(|| "internal: report carries no metrics despite --metrics".to_owned())?;
        mapg::write_atomic(Path::new(path), metrics.to_json().as_bytes())
            .map_err(|e| format!("cannot write metrics '{path}': {e}"))?;
        writeln!(out, "metrics written to {path}")?;
    }

    if compare && policy != PolicyKind::NoGating {
        let baseline = Simulation::new(config, PolicyKind::NoGating)
            .try_run()
            .map_err(|e| e.to_string())?;
        writeln!(out, "--- vs no-gating ---")?;
        writeln!(
            out,
            "core energy savings : {:+.1}%",
            report.core_energy_savings_vs(&baseline) * 100.0
        )?;
        writeln!(
            out,
            "leakage savings     : {:+.1}%",
            report.leakage_savings_vs(&baseline) * 100.0
        )?;
        writeln!(
            out,
            "runtime overhead    : {:+.2}%",
            report.perf_overhead_vs(&baseline) * 100.0
        )?;
        writeln!(
            out,
            "EDP delta           : {:+.1}%",
            report.edp_delta_vs(&baseline) * 100.0
        )?;
    }
    if !report.invariants.is_clean() {
        eprintln!("error: invariants broken: {}", report.invariants);
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--repro` mode: replay a fuzz repro file through the differential
/// oracle (live vs reference stack plus reconciliation laws) and exit
/// nonzero when any divergence still reproduces.
fn replay_repro(path: &str, out: &mut impl Write) -> Result<ExitCode, Failure> {
    const REPRO_USAGE: &str =
        "usage: mapgsim --repro FILE  (FILE is a repro JSON written by `mapg-fuzz --out DIR`)";
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--repro: cannot read '{path}': {e}\n{REPRO_USAGE}"))?;
    let repro = ReproFile::from_json_text(&text)
        .map_err(|e| format!("--repro: '{path}' is not a valid repro file: {e}\n{REPRO_USAGE}"))?;
    writeln!(out, "repro      : {path}")?;
    if let (Some(seed), Some(index)) = (repro.campaign_seed, repro.scenario_index) {
        writeln!(
            out,
            "provenance : campaign seed {seed}, scenario {index}, {} shrink step(s)",
            repro.shrink_steps
        )?;
    }
    writeln!(
        out,
        "recorded   : {} — {}",
        repro.finding_class, repro.finding_detail
    )?;
    match repro.replay().map_err(|e| e.to_string())? {
        Some(finding) => {
            writeln!(out, "replay     : {} — {}", finding.class, finding.detail)?;
            eprintln!("error: divergence still reproduces");
            Ok(ExitCode::FAILURE)
        }
        None => {
            writeln!(out, "replay     : clean (both stacks agree, all laws hold)")?;
            Ok(ExitCode::SUCCESS)
        }
    }
}
