//! Experiment harness for the MAPG reproduction.
//!
//! Everything the `experiments` binary, the criterion benches and the
//! workspace integration tests share:
//!
//! - [`Scale`] — smoke / quick / paper instruction budgets;
//! - [`Table`] — the text/CSV result format;
//! - [`experiments`] — one module per reconstructed table/figure, plus the
//!   [`experiments::all`] registry.
//!
//! # Regenerating the paper's evaluation
//!
//! ```bash
//! cargo run -p mapg-bench --release --bin experiments            # all, paper scale
//! cargo run -p mapg-bench --release --bin experiments -- rt3    # one experiment
//! cargo run -p mapg-bench --release --bin experiments -- --scale quick rf5
//! ```
//!
//! # Programmatic use
//!
//! ```
//! use mapg_bench::{experiments, Scale};
//!
//! let rt1 = experiments::find("rt1").expect("registered");
//! let tables = (rt1.run)(Scale::Smoke);
//! assert_eq!(tables[0].id(), "R-T1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod daemon;
mod engine;
pub mod experiments;
mod fuzz;
mod journal;
mod manifest;
mod scale;
mod table;

pub use client::{Client, ClientError, JobResult, JobStatus, StreamEnd, StreamEvent};
pub use daemon::{Daemon, DaemonConfig, PROTOCOL_VERSION};
pub use engine::{render_tables, ExperimentJob, ExperimentOutput, OutputFormat};
pub use fuzz::{
    run_campaign, run_campaign_supervised, CampaignConfig, CampaignFailure, CampaignFinding,
    CampaignReport,
};
pub use journal::{fnv1a64, Journal, JournalEntry, JournalError, JOURNAL_SCHEMA};
pub use manifest::{
    FuzzFindingSummary, FuzzProvenance, Manifest, ManifestEntry, TableSummary, MANIFEST_SCHEMA,
};
pub use scale::Scale;
pub use table::{pct, ratio, Table};
