//! The shared experiment-execution engine.
//!
//! The `experiments` binary and the `mapgd` daemon are both thin
//! callers of this module: one place decides how experiments run (one
//! batch for every job's plan, the worker budget, metrics/event hubs)
//! and — critically — how their tables are *rendered*. The rendering is
//! the repo's byte-identity contract: the committed goldens, the journal
//! payloads, `--out-dir` CSV files, and a daemon-fetched result must
//! all be the same bytes for the same `(experiment, scale, format)`,
//! which only holds if there is exactly one renderer.

use std::time::{Duration, Instant};

use mapg_obs::{EventHub, MetricsHub};

use crate::experiments::{Experiment, Plan};
use crate::manifest::TableSummary;
use crate::scale::Scale;
use crate::table::Table;

/// How rendered tables are formatted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// `# {id} — {title}\n` header followed by the CSV rows — the
    /// golden-file and daemon-fetch format.
    Csv,
    /// Aligned human-readable text, one blank line after each table.
    Text,
}

impl OutputFormat {
    /// Parses `csv` / `text` (the journal-context and wire names).
    pub fn parse(name: &str) -> Option<OutputFormat> {
        match name {
            "csv" => Some(OutputFormat::Csv),
            "text" => Some(OutputFormat::Text),
            _ => None,
        }
    }

    /// Stable lowercase name (journal contexts, wire protocol).
    pub fn name(self) -> &'static str {
        match self {
            OutputFormat::Csv => "csv",
            OutputFormat::Text => "text",
        }
    }
}

/// Renders `tables` exactly the way every output channel must: this is
/// the single definition of the byte format (see the module docs).
pub fn render_tables(tables: &[Table], format: OutputFormat) -> String {
    let mut rendered = String::new();
    for table in tables {
        match format {
            OutputFormat::Csv => {
                rendered.push_str(&format!("# {} — {}\n", table.id(), table.title()));
                rendered.push_str(&table.to_csv());
            }
            OutputFormat::Text => {
                rendered.push_str(&table.to_text());
                rendered.push('\n');
            }
        }
    }
    rendered
}

/// One experiment execution: what to run and under which resources.
#[derive(Debug, Clone)]
pub struct ExperimentJob {
    /// The registry entry to run.
    pub experiment: Experiment,
    /// Simulation scale.
    pub scale: Scale,
    /// Output rendering.
    pub format: OutputFormat,
    /// Worker budget for the job's runs. A scheduler running several
    /// jobs concurrently hands each job a slice of the host so N jobs
    /// never oversubscribe to N × `available_parallelism`.
    pub jobs: usize,
    /// Merge every simulation's metrics into this hub.
    pub metrics_hub: Option<MetricsHub>,
    /// Publish every simulation's trace batch into this feed.
    pub event_hub: Option<EventHub>,
}

impl ExperimentJob {
    /// A job with no observers: `experiment` at `scale`, rendered as
    /// `format`, worker budget `jobs`.
    pub fn new(experiment: Experiment, scale: Scale, format: OutputFormat, jobs: usize) -> Self {
        ExperimentJob {
            experiment,
            scale,
            format,
            jobs: jobs.max(1),
            metrics_hub: None,
            event_hub: None,
        }
    }

    /// Runs the experiment and renders its tables: [`execute_all`] with
    /// this one job.
    ///
    /// Deterministic contract: for a fixed `(experiment, scale,
    /// format)` the rendered bytes are identical at any `jobs` or
    /// observer configuration — those only change
    /// scheduling and side channels, never the tables.
    pub fn execute(&self) -> ExperimentOutput {
        execute_all(std::slice::from_ref(self))
            .pop()
            .expect("one output per job")
    }

    /// The job's plan, built under the job's ambient hubs so every run
    /// carries them.
    fn plan(&self) -> Plan {
        let plan = || (self.experiment.plan)(self.scale);
        let plan_with_feed = || match &self.event_hub {
            Some(feed) => mapg_obs::with_ambient_event_hub(feed.clone(), plan),
            None => plan(),
        };
        match &self.metrics_hub {
            Some(hub) => mapg_obs::with_ambient_hub(hub.clone(), plan_with_feed),
            None => plan_with_feed(),
        }
    }
}

/// Runs `jobs` as one plan: plans every job in order, computes all their
/// runs as one [`mapg::run_all`] batch on the largest of the jobs' worker
/// budgets, then renders each job from its own slice of the reports.
///
/// A run several jobs plan is computed once (DESIGN §7.1), and every job
/// renders the bytes it would render alone. Each job's metrics hub
/// receives what running the job alone would merge into it.
pub fn execute_all(jobs: &[ExperimentJob]) -> Vec<ExperimentOutput> {
    let mut runs = Vec::new();
    let mut planned = Vec::with_capacity(jobs.len());
    for job in jobs {
        let started = Instant::now();
        let plan = job.plan();
        planned.push((plan.len(), started.elapsed()));
        runs.extend(plan);
    }
    let workers = jobs.iter().map(|job| job.jobs).max().unwrap_or(1);
    let reports = mapg_pool::with_default_jobs(workers, || mapg::run_all(runs));
    let mut rest = &reports[..];
    jobs.iter()
        .zip(planned)
        .map(|(job, (len, planning))| {
            let (reports, later) = rest.split_at(len);
            rest = later;
            let started = Instant::now();
            let tables = (job.experiment.render)(job.scale, reports);
            ExperimentOutput {
                id: job.experiment.id,
                rendered: render_tables(&tables, job.format),
                tables: tables.iter().map(TableSummary::of).collect(),
                wall: planning + started.elapsed(),
            }
        })
        .collect()
}

// Jobs are handed to pool and supervisor worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ExperimentJob>();
};

/// What an [`ExperimentJob`] produced.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The experiment id (registry casing, e.g. `R-T1`).
    pub id: &'static str,
    /// The rendered tables — the byte-identity payload.
    pub rendered: String,
    /// Per-table summaries for manifests and journals.
    pub tables: Vec<TableSummary>,
    /// Time spent planning and rendering this experiment. The batch that
    /// computes its runs is shared with the other jobs and not included.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn format_names_round_trip() {
        for format in [OutputFormat::Csv, OutputFormat::Text] {
            assert_eq!(OutputFormat::parse(format.name()), Some(format));
        }
        assert_eq!(OutputFormat::parse("json"), None);
    }

    /// The engine renders byte-identically to the inlined renderer the
    /// `experiments` binary used to carry, at any jobs setting.
    #[test]
    fn execute_is_deterministic_across_resources() {
        let experiment = experiments::find("R-T1").expect("registry has R-T1");
        let base = ExperimentJob::new(experiment, Scale::Smoke, OutputFormat::Csv, 1).execute();
        assert!(base.rendered.starts_with("# R-T1 — "), "{}", base.rendered);
        assert!(!base.tables.is_empty());

        let mut wide = ExperimentJob::new(experiment, Scale::Smoke, OutputFormat::Csv, 4);
        wide.metrics_hub = Some(MetricsHub::new());
        wide.event_hub = Some(EventHub::new(4096));
        let observed = wide.execute();
        assert_eq!(
            observed.rendered, base.rendered,
            "resources and observers must never change the rendered bytes"
        );
        let text = ExperimentJob::new(experiment, Scale::Smoke, OutputFormat::Text, 1).execute();
        assert_ne!(text.rendered, base.rendered);
        assert!(!text.rendered.starts_with("# R-T1"));
    }

    /// A simulating experiment (R-T1 is analytic) publishes its trace
    /// batches into the job's event hub.
    #[test]
    fn simulating_jobs_feed_the_event_hub() {
        let experiment = experiments::find("R-F1").expect("registry has R-F1");
        let mut job = ExperimentJob::new(experiment, Scale::Smoke, OutputFormat::Csv, 2);
        job.event_hub = Some(EventHub::new(65_536));
        let output = job.execute();
        assert!(!output.rendered.is_empty());
        let feed = job.event_hub.as_ref().unwrap();
        assert!(
            feed.published() > 0,
            "an event hub must see the job's trace records"
        );
        let batch = feed.poll(0);
        assert_eq!(
            batch.records.len() as u64 + batch.missed,
            feed.published(),
            "poll must account for every published record"
        );
    }
}
