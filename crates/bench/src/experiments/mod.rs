//! The reconstructed-experiment registry.
//!
//! One module per table/figure from DESIGN.md §5. Every experiment is a
//! pure function `Scale -> Vec<Table>`, so the `experiments` binary, the
//! `mapgd` daemon and the integration tests all drive the same code.

use std::cell::Cell;
use std::sync::OnceLock;

use mapg::{RunCache, SimConfig};
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

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id (matches DESIGN.md §5, lowercase accepted on the CLI).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The runner.
    pub run: fn(Scale) -> Vec<Table>,
}

/// Every experiment, in DESIGN.md order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "R-T1",
            title: "power-gating circuit design space",
            run: rt1::run,
        },
        Experiment {
            id: "R-T2",
            title: "workload characterization",
            run: rt2::run,
        },
        Experiment {
            id: "R-T3",
            title: "headline policy comparison (geomeans)",
            run: rt3::run,
        },
        Experiment {
            id: "R-T4",
            title: "extension: seed sensitivity (paired replicas)",
            run: rt4::run,
        },
        Experiment {
            id: "R-F1",
            title: "motivation: memory-stall time fraction",
            run: rf1::run,
        },
        Experiment {
            id: "R-F2",
            title: "per-benchmark core-energy savings",
            run: rf2::run,
        },
        Experiment {
            id: "R-F3",
            title: "per-benchmark performance overhead",
            run: rf3::run,
        },
        Experiment {
            id: "R-F4",
            title: "sensitivity: break-even guard sweep",
            run: rf4::run,
        },
        Experiment {
            id: "R-F5",
            title: "sensitivity: wake-up latency (switch width) sweep",
            run: rf5::run,
        },
        Experiment {
            id: "R-F6",
            title: "sensitivity: DRAM latency scaling",
            run: rf6::run,
        },
        Experiment {
            id: "R-F7",
            title: "predictor comparison",
            run: rf7::run,
        },
        Experiment {
            id: "R-F8",
            title: "many-core scaling with wake tokens",
            run: rf8::run,
        },
        Experiment {
            id: "R-F9",
            title: "technology scaling: leakage fraction sweep",
            run: rf9::run,
        },
        Experiment {
            id: "R-F10",
            title: "ablations: early wake and break-even guard",
            run: rf10::run,
        },
        Experiment {
            id: "R-F11",
            title: "extension: interaction with stream prefetching",
            run: rf11::run,
        },
        Experiment {
            id: "R-F12",
            title: "extension: state-retention style ablation",
            run: rf12::run,
        },
        Experiment {
            id: "R-F13",
            title: "extension: thermal feedback on leakage",
            run: rf13::run,
        },
        Experiment {
            id: "R-F14",
            title: "extension: MAPG vs interval DVFS governor",
            run: rf14::run,
        },
        Experiment {
            id: "R-F15",
            title: "extension: interactive workloads (stalls + OS idle)",
            run: rf15::run,
        },
        Experiment {
            id: "R-F16",
            title: "extension: fault injection and safe-mode degradation",
            run: rf16::run,
        },
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
/// every experiment `f` runs here simulates afresh. Determinism tests use
/// this to compare two real computations inside one process.
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
            let tables = (experiment.run)(Scale::Smoke);
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
