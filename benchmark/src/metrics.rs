//! What the benchmark measures: workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics of the traced run.
//!
//! `BENCHMARK.json` at the repository root names the same metrics; the
//! `smoke` integration test fails if the two ever disagree.

/// The four workloads, in the order rounds visit them.
pub const WORKLOADS: [&str; 4] = [
    "suite_paper",
    "sim_mem_mapg",
    "sim_cpu_mapg",
    "sim_mem_observed",
];

/// Default workload seed for the sim workloads.
pub const DEFAULT_SEED: u64 = 42;

/// The experiments `suite_paper` runs, listed explicitly so that a new
/// registry entry does not silently change the workload.
pub const SUITE_IDS: [&str; 20] = [
    "R-T1", "R-T2", "R-T3", "R-T4", "R-F1", "R-F2", "R-F3", "R-F4", "R-F5", "R-F6", "R-F7", "R-F8",
    "R-F9", "R-F10", "R-F11", "R-F12", "R-F13", "R-F14", "R-F15", "R-F16",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric, reported for every workload.
pub const END_TO_END: [EndToEnd; 3] = [
    // Host seconds of one sample's timed section: one suite pass, or one
    // `Simulation::try_run`. The bound covers the seed's own effect on
    // the simulated work (about 2% between quartile seeds) plus a shared
    // 2-vCPU host's sustained slow periods, which even the fastest sample
    // of a run cannot escape.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Sample process wall time minus its timed section: exec, input
    // construction and teardown. Micro- to milliseconds, so it gets the
    // widest bound.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The sample process's peak resident set (`VmHWM`).
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports its metrics as 0.
pub fn per_layer() -> Vec<Layer> {
    let layer = |name: &str, unit, better| Layer {
        name: name.to_owned(),
        unit,
        better,
    };
    let mut layers: Vec<Layer> = SUITE_IDS
        .iter()
        .map(|id| layer(&format!("engine.{id}.wall_s"), "s", Better::Lower))
        .collect();
    layers.extend([
        layer("pool.speedup", "x", Better::Higher),
        layer("pool.workers", "count", Better::Higher),
        layer("trace.self_s", "s", Better::Lower),
        layer("trace.events", "count", Better::Lower),
        layer("trace.ns_per_event", "ns", Better::Lower),
        layer("substrate.self_s", "s", Better::Lower),
        layer("substrate.ns_per_instr", "ns", Better::Lower),
        layer("controller.self_s", "s", Better::Lower),
        layer("controller.stalls", "count", Better::Lower),
        layer("controller.ns_per_stall", "ns", Better::Lower),
        layer("policy.self_s", "s", Better::Lower),
        layer("predictor.self_s", "s", Better::Lower),
        layer("tokens.delayed", "count", Better::Lower),
        layer("tokens.delay_cycles", "cycles", Better::Lower),
        layer("obs.overhead_s", "s", Better::Lower),
        layer("obs.records", "count", Better::Lower),
        layer("obs.dropped", "count", Better::Lower),
        layer("model.makespan_cycles", "cycles", Better::Lower),
        layer("model.gated_frac", "fraction", Better::Higher),
        layer("model.llc_mpki", "mpki", Better::Lower),
        layer("model.total_energy_j", "J", Better::Lower),
        layer("tracing.overhead_frac", "fraction", Better::Lower),
    ]);
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_owned()).collect();
        names.extend(per_layer().into_iter().map(|l| l.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    #[test]
    fn suite_ids_are_registered() {
        for id in SUITE_IDS {
            assert!(mapg_bench::experiments::find(id).is_some(), "{id}");
        }
    }
}
