//! The sim workloads: one full-policy `Simulation` per sample, and the
//! traced run that splits a simulation's host time by layer.
//!
//! Reading the clock twice costs about 75 ns on a 2-vCPU cloud VM, more
//! than one mean generator call (26-34 ns), so per-call spans would
//! mostly time the clock. The traced run therefore times each layer in bulk: it drives
//! the run once by hand while logging every stall and counting every
//! trace event, then replays each layer's inputs through a fresh
//! instance of that layer alone, one clock pair per replay.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mapg::{
    Controller, ControllerConfig, FaultPlan, GatingStats, HistoryTablePredictor,
    MissLatencyPredictor, PolicyKind, PredictorScore, RunReport, SimConfig, Simulation,
};
use mapg_cpu::{Cluster, ClusterStats, CoreConfig, StallHandler, StallInfo};
use mapg_mem::HierarchyConfig;
use mapg_obs::ObsHandle;
use mapg_trace::{EventSource, SyntheticWorkload, TraceEvent, WorkloadProfile};
use mapg_units::Cycle;

use crate::stats::median;

/// Every sim workload runs the paper's policy.
const POLICY: PolicyKind = PolicyKind::Mapg;

/// A sim workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// One `mapgsim --policy mapg` run of the memory-bound profile.
    MemMapg,
    /// The compute-bound profile: almost no stalls reach the controller.
    CpuMapg,
    /// `MemMapg` with four wake tokens and the trace and metrics on.
    MemObserved,
}

impl SimWorkload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<SimWorkload> {
        match name {
            "sim_mem_mapg" => Some(SimWorkload::MemMapg),
            "sim_cpu_mapg" => Some(SimWorkload::CpuMapg),
            "sim_mem_observed" => Some(SimWorkload::MemObserved),
            _ => None,
        }
    }

    fn profile(self) -> WorkloadProfile {
        match self {
            SimWorkload::MemMapg | SimWorkload::MemObserved => {
                WorkloadProfile::mem_bound("mem_bound")
            }
            SimWorkload::CpuMapg => WorkloadProfile::compute_bound("compute_bound"),
        }
    }

    fn tokens(self) -> Option<usize> {
        (self == SimWorkload::MemObserved).then_some(4)
    }

    fn observed(self) -> bool {
        self == SimWorkload::MemObserved
    }
}

/// Simulated cores per run.
pub const CORES: usize = 16;

/// One sim input: a workload, its seed, and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRun {
    /// The workload.
    pub workload: SimWorkload,
    /// Master seed; core `i` runs seed `seed + i`.
    pub seed: u64,
    /// Runs 1/100 of the instructions (tests).
    pub smoke: bool,
}

impl SimRun {
    /// Instructions each core retires.
    pub fn instructions_per_core(&self) -> u64 {
        let full = match self.workload {
            SimWorkload::MemMapg | SimWorkload::MemObserved => 2_000_000,
            SimWorkload::CpuMapg => 20_000_000,
        };
        if self.smoke {
            full / 100
        } else {
            full
        }
    }

    /// The simulation's configuration, observers off.
    fn base_config(&self) -> SimConfig {
        let config = SimConfig::default()
            .with_profile(self.workload.profile())
            .with_cores(CORES)
            .with_instructions(self.instructions_per_core())
            .with_seed(self.seed);
        match self.workload.tokens() {
            Some(tokens) => config.with_tokens(tokens),
            None => config,
        }
    }

    /// The configuration a sample runs.
    pub fn config(&self) -> SimConfig {
        let config = self.base_config();
        if self.workload.observed() {
            config.with_trace().with_metrics()
        } else {
            config
        }
    }

    /// What [`Simulation::try_run`] builds its controller from.
    fn controller_config(&self) -> ControllerConfig {
        let config = self.base_config();
        ControllerConfig {
            tech: *config.tech(),
            circuit: config.circuit(),
            clock: CoreConfig::baseline().clock,
            tokens: self.workload.tokens(),
            regate_on_early_wake: true,
            fault_plan: FaultPlan::none(),
            fault_seed: self.seed,
            watchdog: None,
        }
    }

    /// The observability handle [`Simulation::try_run`] attaches.
    fn obs(&self) -> ObsHandle {
        if self.workload.observed() {
            ObsHandle::enabled(Some(mapg_obs::DEFAULT_TRACE_CAPACITY), true)
        } else {
            ObsHandle::disabled()
        }
    }
}

/// Runs `config` under the paper's policy; returns the report and the
/// host seconds `Simulation::try_run` took.
///
/// # Errors
///
/// Returns the simulator's error text.
pub fn timed_run(config: SimConfig) -> Result<(RunReport, f64), String> {
    let start = Instant::now();
    let report = Simulation::new(config, POLICY)
        .try_run()
        .map_err(|e| e.to_string())?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// A digest of everything a report says, for comparing the reports of
/// separate sample processes. The trace enters by length and drop count
/// only: its records are covered by the in-process oracle comparison.
pub fn digest(report: &mut RunReport) -> String {
    use std::hash::{Hash, Hasher};
    let trace = report.trace.take();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{report:?}").hash(&mut hasher);
    trace
        .as_ref()
        .map(|t| (t.len(), t.dropped()))
        .hash(&mut hasher);
    report.trace = trace;
    format!("{:016x}", hasher.finish())
}

/// Checks the live stack against the frozen reference stack: the two
/// reports must be equal field for field, trace and metrics included.
///
/// # Errors
///
/// Describes the disagreement.
pub fn oracle_check(run: &SimRun) -> Result<(), String> {
    let (live, _) = timed_run(run.config())?;
    let (reference, _) = timed_run(run.config().with_reference_scheduler())?;
    if live != reference {
        return Err("live report differs from the reference-scheduler report".into());
    }
    if !live.invariants.is_clean() {
        return Err(format!("invariants broken: {}", live.invariants));
    }
    Ok(())
}

/// A trace source that counts the events it hands out.
struct Counted {
    inner: SyntheticWorkload,
    count: Rc<Cell<u64>>,
}

impl EventSource for Counted {
    fn next_event(&mut self) -> TraceEvent {
        self.count.set(self.count.get() + 1);
        self.inner.next_event()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Logs each stall, then forwards it to the controller.
struct Logging<'a> {
    controller: &'a mut Controller,
    log: &'a mut Vec<StallInfo>,
}

impl StallHandler for Logging<'_> {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        self.log.push(*info);
        self.controller.on_stall(info)
    }
}

/// The hand-driven run: what each layer was fed, and what it produced.
#[derive(Debug)]
pub struct Drive {
    /// Host seconds of the drive.
    pub wall_s: f64,
    /// Every stall, in the order the controller saw it.
    pub log: Vec<StallInfo>,
    /// Trace events each core consumed.
    pub events: Vec<u64>,
    /// The substrate's statistics.
    pub cluster: ClusterStats,
    /// The controller's counters.
    pub gating: GatingStats,
    /// The policy's prediction score.
    pub predictor: Option<PredictorScore>,
    /// Each core's finishing cycle.
    pub final_times: Vec<Cycle>,
}

/// Drives `run` by hand: the same controller, cluster and observers
/// [`Simulation::try_run`] builds, with every stall logged on its way to
/// the controller and every trace event counted. `expected_stalls`
/// pre-sizes the log.
///
/// # Errors
///
/// Returns the simulator's error text.
pub fn drive(run: &SimRun, expected_stalls: usize) -> Result<Drive, String> {
    let profile = run.workload.profile();
    let counts: Vec<Rc<Cell<u64>>> = (0..CORES).map(|_| Rc::new(Cell::new(0))).collect();
    let mut log = Vec::with_capacity(expected_stalls);
    let start = Instant::now();
    let obs = run.obs();
    let mut controller = Controller::new(POLICY.instantiate(), run.controller_config());
    controller.set_obs(obs.clone());
    let sources = counts
        .iter()
        .enumerate()
        .map(|(i, count)| Counted {
            inner: SyntheticWorkload::new(&profile, run.seed + i as u64),
            count: Rc::clone(count),
        })
        .collect();
    let mut cluster =
        Cluster::try_new(CoreConfig::baseline(), HierarchyConfig::baseline(), sources)
            .map_err(|e| e.to_string())?;
    cluster.set_obs(obs);
    let mut handler = Logging {
        controller: &mut controller,
        log: &mut log,
    };
    cluster
        .try_run(run.instructions_per_core(), &mut handler)
        .map_err(|e| e.to_string())?;
    let stats = cluster.stats();
    let final_times = final_times(&stats);
    controller.finish(&final_times);
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Drive {
        wall_s,
        log,
        events: counts.iter().map(|c| c.get()).collect(),
        gating: *controller.stats(),
        predictor: controller.policy().predictor_score().cloned(),
        cluster: stats,
        final_times,
    })
}

fn final_times(stats: &ClusterStats) -> Vec<Cycle> {
    stats
        .per_core
        .iter()
        .map(|c| Cycle::new(c.total_cycles))
        .collect()
}

/// Replays run back to back until at least this long has passed, so a
/// layer that does microseconds of work is still timed above clock noise.
const MIN_REPLAY: Duration = Duration::from_millis(50);

/// Seconds per call of `replay`, and the last call's result.
fn time_replay<R>(mut replay: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        let result = replay();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= MIN_REPLAY {
            return (elapsed.as_secs_f64() / f64::from(calls), result);
        }
    }
}

/// Host seconds of each layer's replay.
#[derive(Debug, Clone, Copy)]
pub struct Replays {
    /// `SyntheticWorkload::next_event` over each core's counted stream.
    pub trace_s: f64,
    /// A fresh controller fed the logged stalls, then `finish`.
    pub controller_s: f64,
    /// A fresh policy fed `decide` then `observe` per logged stall.
    pub policy_s: f64,
    /// A fresh predictor fed `predict` then `observe` per logged stall.
    pub predictor_s: f64,
}

/// Replays each layer's logged inputs through a fresh instance of that
/// layer alone, and checks the controller and policy replays reproduce
/// what the drive's own instances ended with.
///
/// The policy and predictor replays train on each stall's natural
/// duration, which is what the controller feeds them whenever no fault
/// plan corrupts the observation; no workload here has one.
///
/// # Errors
///
/// Names the replay that diverged.
pub fn replay(run: &SimRun, drive: &Drive) -> Result<Replays, String> {
    let profile = run.workload.profile();
    let (trace_s, ()) = time_replay(|| {
        for (i, &events) in drive.events.iter().enumerate() {
            let mut source = SyntheticWorkload::new(&profile, run.seed + i as u64);
            for _ in 0..events {
                black_box(source.next_event());
            }
        }
    });

    let config = run.controller_config();
    let (controller_s, (gating, score)) = time_replay(|| {
        let mut controller = Controller::new(POLICY.instantiate(), config);
        controller.set_obs(run.obs());
        for info in &drive.log {
            black_box(controller.on_stall(info));
        }
        controller.finish(&drive.final_times);
        let score = controller.policy().predictor_score().cloned();
        (*controller.stats(), score)
    });
    if gating != drive.gating || score != drive.predictor {
        return Err("controller replay diverged from the drive".into());
    }

    let ctx = *Controller::new(POLICY.instantiate(), config).context();
    let (policy_s, score) = time_replay(|| {
        let mut policy = POLICY.instantiate();
        for info in &drive.log {
            black_box(policy.decide(info, &ctx));
            policy.observe(info, info.natural_duration());
        }
        policy.predictor_score().cloned()
    });
    if score != drive.predictor {
        return Err("policy replay diverged from the drive".into());
    }

    let (predictor_s, ()) = time_replay(|| {
        // The predictor `MapgPolicy::predictive` wraps.
        let mut predictor = HistoryTablePredictor::hardware_default();
        for info in &drive.log {
            black_box(predictor.predict(info));
            predictor.observe(info, info.natural_duration());
        }
    });

    Ok(Replays {
        trace_s,
        controller_s,
        policy_s,
        predictor_s,
    })
}

/// Checks the drive reproduced the report of a plain run of the same
/// input.
///
/// # Errors
///
/// Names the statistics that differ.
pub fn check_drive(drive: &Drive, report: &RunReport) -> Result<(), String> {
    if drive.cluster.per_core != report.core_stats || drive.cluster.memory != report.memory {
        return Err("drive's cluster statistics differ from the report".into());
    }
    if drive.gating != report.gating {
        return Err("drive's gating statistics differ from the report".into());
    }
    if drive.predictor != report.predictor {
        return Err("drive's predictor score differs from the report".into());
    }
    Ok(())
}

/// One traced round's measurements.
struct Round {
    plain_s: f64,
    obs_off_s: f64,
    drive_s: f64,
    replays: Replays,
}

/// The traced run's result: per-layer metrics by name.
#[derive(Debug)]
pub struct Traced {
    /// `(metric, value)` pairs, names as in [`crate::metrics::per_layer`].
    pub metrics: Vec<(String, f64)>,
    /// Traced rounds run.
    pub rounds: usize,
}

/// Runs traced rounds while another round still fits in `seconds` (at
/// least one) and reports each layer's median self time, plus the
/// model's own counts.
///
/// A round is: a plain run (the end-to-end reference and the report the
/// drive must reproduce), the same run with observers off (the
/// observed workload only), the drive, and the replays.
///
/// # Errors
///
/// Returns the first failed run or check.
pub fn traced(run: &SimRun, seconds: f64) -> Result<Traced, String> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last: Option<(RunReport, Drive)> = None;
    let mut round_s = 0.0;
    while rounds.is_empty() || start.elapsed().as_secs_f64() + round_s <= seconds {
        let round_start = Instant::now();
        let (report, plain_s) = timed_run(run.config())?;
        if !report.invariants.is_clean() {
            return Err(format!("invariants broken: {}", report.invariants));
        }
        let obs_off_s = if run.workload.observed() {
            timed_run(run.base_config())?.1
        } else {
            plain_s
        };
        let drive = drive(run, report.gating.stalls as usize)?;
        check_drive(&drive, &report)?;
        let replays = replay(run, &drive)?;
        rounds.push(Round {
            plain_s,
            obs_off_s,
            drive_s: drive.wall_s,
            replays,
        });
        last = Some((report, drive));
        round_s = round_start.elapsed().as_secs_f64();
    }
    let (report, drive) = last.expect("at least one round ran");
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let plain = med(|r| r.plain_s);
    let drive_s = med(|r| r.drive_s);
    let trace = med(|r| r.replays.trace_s);
    let controller = med(|r| r.replays.controller_s);
    let policy = med(|r| r.replays.policy_s);
    let predictor = med(|r| r.replays.predictor_s);
    let events: u64 = drive.events.iter().sum();
    let stalls = report.gating.stalls;
    let substrate = drive_s - trace - controller;
    let per = |seconds: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            seconds * 1e9 / count as f64
        }
    };
    let (records, dropped) = report
        .trace
        .as_ref()
        .map_or((0, 0), |t| (t.len() as u64, t.dropped()));
    let metrics = vec![
        ("trace.self_s", trace),
        ("trace.events", events as f64),
        ("trace.ns_per_event", per(trace, events)),
        ("substrate.self_s", substrate),
        (
            "substrate.ns_per_instr",
            per(substrate, report.instructions),
        ),
        ("controller.self_s", controller - policy),
        ("controller.stalls", stalls as f64),
        ("controller.ns_per_stall", per(controller - policy, stalls)),
        ("policy.self_s", policy - predictor),
        ("predictor.self_s", predictor),
        ("tokens.delayed", report.gating.token_delayed as f64),
        (
            "tokens.delay_cycles",
            report.gating.token_delay_cycles as f64,
        ),
        ("obs.overhead_s", plain - med(|r| r.obs_off_s)),
        ("obs.records", records as f64),
        ("obs.dropped", dropped as f64),
        ("model.makespan_cycles", report.makespan_cycles as f64),
        ("model.gated_frac", report.gating.gated_fraction()),
        (
            "model.llc_mpki",
            report.memory.llc_mpki(report.instructions),
        ),
        ("model.total_energy_j", report.total_energy().as_joules()),
        ("tracing.overhead_frac", drive_s / plain - 1.0),
    ];
    Ok(Traced {
        metrics: metrics
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
        rounds: rounds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: SimWorkload) -> SimRun {
        SimRun {
            workload,
            seed: 7,
            smoke: true,
        }
    }

    /// The hand-driven run and the controller, policy and predictor
    /// replays reproduce a plain run's report (`replay` itself errors on
    /// a controller or policy divergence).
    #[test]
    fn drive_and_replays_reproduce_the_report() {
        for workload in [SimWorkload::MemMapg, SimWorkload::MemObserved] {
            let run = small(workload);
            let (report, _) = timed_run(run.config()).unwrap();
            assert!(report.gating.stalls > 0 && report.gating.gated > 0);
            let drive = drive(&run, 0).unwrap();
            check_drive(&drive, &report).unwrap();
            assert_eq!(drive.log.len() as u64, report.gating.stalls);
            let replays = replay(&run, &drive).unwrap();
            assert!(replays.controller_s > 0.0 && replays.predictor_s > 0.0);
        }
    }

    #[test]
    fn a_diverging_log_is_caught() {
        let run = small(SimWorkload::MemMapg);
        let mut drive = drive(&run, 0).unwrap();
        drive.log.pop();
        assert!(replay(&run, &drive).is_err());
    }

    #[test]
    fn observers_only_on_the_observed_workload() {
        for (workload, observed) in [
            (SimWorkload::MemMapg, false),
            (SimWorkload::CpuMapg, false),
            (SimWorkload::MemObserved, true),
        ] {
            let (report, _) = timed_run(small(workload).config()).unwrap();
            assert_eq!(report.trace.is_some(), observed);
            assert_eq!(report.metrics.is_some(), observed);
        }
    }

    #[test]
    fn digest_is_seed_sensitive_and_trace_preserving() {
        let (mut a, _) = timed_run(small(SimWorkload::MemObserved).config()).unwrap();
        let (mut b, _) = timed_run(small(SimWorkload::MemObserved).config()).unwrap();
        assert_eq!(digest(&mut a), digest(&mut b));
        assert!(a.trace.is_some(), "digest must put the trace back");
        let other = SimRun {
            seed: 8,
            ..small(SimWorkload::MemObserved)
        };
        let (mut c, _) = timed_run(other.config()).unwrap();
        assert_ne!(digest(&mut a), digest(&mut c));
    }
}
