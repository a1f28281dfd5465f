//! The reconstructed-experiment registry.
//!
//! One module per table/figure from DESIGN.md §5. Every experiment is a
//! plan and a renderer: [`Experiment::plan`] lists the runs its tables
//! read, and [`Experiment::render`] builds the tables from those runs'
//! reports, in plan order. A caller computes the plans of any number of
//! experiments as one [`mapg::run_all`] batch (the engine does, for the
//! `experiments` binary and the `mapgd` daemon), or one experiment alone
//! through [`Experiment::run`].

use std::cell::Cell;
use std::sync::OnceLock;

use mapg::{run_all, PolicyKind, RunCache, RunReport, SimConfig};
use mapg_trace::WorkloadSuite;

use crate::scale::Scale;
use crate::table::Table;

pub mod rf1;
pub mod rf10;
pub mod rf11;
pub mod rf12;
pub mod rf13;
pub mod rf14;
pub mod rf15;
pub mod rf16;
pub mod rf2;
pub mod rf3;
pub mod rf4;
pub mod rf5;
pub mod rf6;
pub mod rf7;
pub mod rf8;
pub mod rf9;
pub mod rt1;
pub mod rt2;
pub mod rt3;
pub mod rt4;

/// The runs an experiment reads, in the order its renderer reads their
/// reports.
pub type Plan = Vec<(SimConfig, PolicyKind)>;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id (matches DESIGN.md §5, lowercase accepted on the CLI).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The runs at a scale. Build it on the thread whose ambient hubs and
    /// run-cache switch the runs should carry (`base_config`).
    pub plan: fn(Scale) -> Plan,
    /// The tables at a scale, from the reports of `plan`'s runs.
    pub render: fn(Scale, &[RunReport]) -> Vec<Table>,
}

impl Experiment {
    /// Plans the experiment, computes its runs as one batch and renders
    /// the tables.
    pub fn run(&self, scale: Scale) -> Vec<Table> {
        (self.render)(scale, &run_all((self.plan)(scale)))
    }
}

/// Every experiment, in DESIGN.md order.
pub fn all() -> Vec<Experiment> {
    macro_rules! experiment {
        ($id:literal, $module:ident, $title:literal) => {
            Experiment {
                id: $id,
                title: $title,
                plan: $module::plan,
                render: $module::render,
            }
        };
    }
    vec![
        experiment!("R-T1", rt1, "power-gating circuit design space"),
        experiment!("R-T2", rt2, "workload characterization"),
        experiment!("R-T3", rt3, "headline policy comparison (geomeans)"),
        experiment!("R-T4", rt4, "extension: seed sensitivity (paired replicas)"),
        experiment!("R-F1", rf1, "motivation: memory-stall time fraction"),
        experiment!("R-F2", rf2, "per-benchmark core-energy savings"),
        experiment!("R-F3", rf3, "per-benchmark performance overhead"),
        experiment!("R-F4", rf4, "sensitivity: break-even guard sweep"),
        experiment!(
            "R-F5",
            rf5,
            "sensitivity: wake-up latency (switch width) sweep"
        ),
        experiment!("R-F6", rf6, "sensitivity: DRAM latency scaling"),
        experiment!("R-F7", rf7, "predictor comparison"),
        experiment!("R-F8", rf8, "many-core scaling with wake tokens"),
        experiment!("R-F9", rf9, "technology scaling: leakage fraction sweep"),
        experiment!("R-F10", rf10, "ablations: early wake and break-even guard"),
        experiment!(
            "R-F11",
            rf11,
            "extension: interaction with stream prefetching"
        ),
        experiment!("R-F12", rf12, "extension: state-retention style ablation"),
        experiment!("R-F13", rf13, "extension: thermal feedback on leakage"),
        experiment!("R-F14", rf14, "extension: MAPG vs interval DVFS governor"),
        experiment!(
            "R-F15",
            rf15,
            "extension: interactive workloads (stalls + OS idle)"
        ),
        experiment!(
            "R-F16",
            rf16,
            "extension: fault injection and safe-mode degradation"
        ),
    ]
}

/// Looks an experiment up by id, case-insensitively, with or without the
/// dash (`rt1`, `R-T1`, `r-t1` all match).
pub fn find(id: &str) -> Option<Experiment> {
    let norm = id.to_ascii_lowercase().replace('-', "");
    all()
        .into_iter()
        .find(|e| e.id.to_ascii_lowercase().replace('-', "") == norm)
}

/// The workload suite an experiment uses at `scale`.
pub(crate) fn suite_for(scale: Scale) -> WorkloadSuite {
    if scale.full_suite() {
        WorkloadSuite::spec_like()
    } else {
        WorkloadSuite::extremes()
    }
}

thread_local! {
    /// Set while [`without_run_cache`] runs on this thread.
    static CACHE_OFF: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the process-wide run memo switched off on this thread:
/// every experiment `f` runs here simulates afresh. The `experiments`
/// binary plans its one deduplicated batch under it, and determinism
/// tests use it to compare two real computations inside one process.
pub fn without_run_cache<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            CACHE_OFF.with(|off| off.set(self.0));
        }
    }
    let _restore = Restore(CACHE_OFF.with(|off| off.replace(true)));
    f()
}

/// The base simulation configuration at `scale`.
///
/// Every run built on this base is memoized in one process-wide
/// [`RunCache`] (unless [`without_run_cache`] is in effect): the
/// experiments reread many of the same runs (R-F2 and R-F3 are views of
/// R-T3's matrix; the no-gating baseline recurs in almost every figure),
/// and a repeat returns the earlier report instead of simulating again.
/// Nothing outside the experiment registry shares this cache.
///
/// When an ambient [`mapg_obs::MetricsHub`] is installed (the
/// `experiments` binary does this per experiment for `--metrics` and
/// `--manifest` runs), every simulation built on this base merges its
/// metrics into the hub; otherwise observability stays disabled and
/// costs one branch per would-be event.
pub(crate) fn base_config(scale: Scale) -> SimConfig {
    static RUNS: OnceLock<RunCache> = OnceLock::new();
    let config = SimConfig::default().with_instructions(scale.instructions());
    let config = if CACHE_OFF.with(Cell::get) {
        config
    } else {
        config.with_run_cache(RUNS.get_or_init(RunCache::new).clone())
    };
    let config = match mapg_obs::ambient_hub() {
        Some(hub) => config.with_metrics_hub(hub),
        None => config,
    };
    // Same pattern for the streaming event feed: a daemon job installs
    // an ambient `EventHub` so every simulation the experiment runs
    // publishes its trace batch to subscribers as it completes.
    match mapg_obs::ambient_event_hub() {
        Some(feed) => config.with_event_hub(feed),
        None => config,
    }
}

/// The tables of experiment `id` at smoke scale, for the experiment
/// modules' tests.
#[cfg(test)]
fn smoke(id: &str) -> Vec<Table> {
    find(id).expect("registered experiment").run(Scale::Smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let experiments = all();
        assert_eq!(experiments.len(), 20);
        let mut ids: Vec<_> = experiments.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 20, "duplicate experiment ids");
    }

    #[test]
    fn lookup_is_forgiving() {
        assert!(find("R-T1").is_some());
        assert!(find("rt1").is_some());
        assert!(find("r-f10").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_experiment_runs_at_smoke_scale() {
        for experiment in all() {
            let tables = experiment.run(Scale::Smoke);
            assert!(!tables.is_empty(), "{} produced no tables", experiment.id);
            for table in &tables {
                assert!(
                    !table.rows().is_empty(),
                    "{} produced an empty table {}",
                    experiment.id,
                    table.id()
                );
            }
        }
    }
}
