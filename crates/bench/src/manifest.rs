//! Machine-readable run records for the `experiments` binary.
//!
//! `experiments --manifest out.json` emits one [`Manifest`] per run so the
//! bench trajectory (per-experiment wall time, table sizes, job count)
//! accumulates across CI runs and PRs. The layout is hand-rendered — the
//! build environment has no registry access, so no serde — with strings
//! escaped by the shared codec in [`mapg::fuzz`], and kept to a flat,
//! stable schema:
//!
//! ```json
//! {
//!   "schema": 4,
//!   "scale": "smoke",
//!   "jobs": 4,
//!   "total_wall_ms": 123.456,
//!   "fuzz": {
//!     "seed": 1,
//!     "scenarios": 200,
//!     "executed": 200,
//!     "findings": [
//!       {"scenario": 1928, "class": "panic", "shrink_steps": 4}
//!     ]
//!   },
//!   "experiments": [
//!     {
//!       "id": "R-T1",
//!       "title": "power-gating circuit design space",
//!       "outcome": "ok",
//!       "attempts": 1,
//!       "wall_ms": 1.234,
//!       "metrics": {"counters": {"gates": 42}, "histograms": {}},
//!       "tables": [{"id": "R-T1", "rows": 7}]
//!     }
//!   ]
//! }
//! ```
//!
//! Schema history: v2 added the optional per-experiment `"metrics"`
//! object (aggregated observability counters and histograms); v3 added
//! the optional top-level `"fuzz"` object (differential-fuzz campaign
//! provenance: campaign seed, scenario count, and one
//! `{scenario, class, shrink_steps}` record per divergence), written by
//! `mapg-fuzz --manifest`; v4 added per-entry supervision fields
//! (`"outcome"`: `ok`/`panicked`/`timed-out`/`cancelled`, and
//! `"attempts"`) plus `"executed"` under `"fuzz"` (scenarios actually
//! run, which a `--max-seconds` budget can cap below `"scenarios"`).
//! Journaled (checkpoint/resume) runs zero every wall-time field so the
//! manifest is byte-identical between an uninterrupted run and a
//! kill-and-resume run; real wall times live in the journal.

use mapg::fuzz::render_json_string;
use mapg_obs::MetricsRegistry;

use crate::fuzz::CampaignReport;
use crate::scale::Scale;
use crate::table::Table;

/// Schema version stamped into every manifest.
pub const MANIFEST_SCHEMA: u32 = 4;

/// Row counts of one rendered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSummary {
    /// Table id (e.g. `R-T1`).
    pub id: String,
    /// Number of data rows.
    pub rows: usize,
}

impl TableSummary {
    /// Summarizes a rendered table.
    pub fn of(table: &Table) -> Self {
        TableSummary {
            id: table.id().to_owned(),
            rows: table.rows().len(),
        }
    }
}

/// The record of one experiment within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Experiment id (e.g. `R-F5`).
    pub id: String,
    /// One-line experiment title.
    pub title: String,
    /// Supervision outcome: `ok`, `panicked`, `timed-out`, or
    /// `cancelled` (schema v4).
    pub outcome: String,
    /// Attempts the supervised run took (1 = no retry; schema v4).
    pub attempts: u32,
    /// Wall time of the experiment's `run` call, in milliseconds
    /// (zeroed in journaled runs for byte-stable resume).
    pub wall_ms: f64,
    /// Aggregated observability metrics across the experiment's
    /// simulations, when the run collected them.
    pub metrics: Option<MetricsRegistry>,
    /// Summaries of the tables the experiment produced.
    pub tables: Vec<TableSummary>,
}

/// One divergence of a fuzz campaign, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFindingSummary {
    /// Index of the diverging scenario within the campaign.
    pub scenario: u64,
    /// Finding class tag (e.g. `"panic"`, `"stats-mismatch"`).
    pub class: String,
    /// Shrink passes that were applied before the repro was written.
    pub shrink_steps: u64,
}

/// Provenance of a differential-fuzz campaign (schema v3).
///
/// Everything needed to regenerate the campaign — and to locate each
/// divergence inside it — without the repro files themselves: re-running
/// `mapg-fuzz --seed <seed> --scenarios <scenarios>` reproduces every
/// listed finding bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzProvenance {
    /// Seed the scenario stream was generated from.
    pub seed: u64,
    /// Scenarios the campaign was asked for.
    pub scenarios: u64,
    /// Scenarios actually executed (a `--max-seconds` wall-clock budget
    /// can stop the campaign short of `scenarios`; schema v4).
    pub executed: u64,
    /// Divergences, in scenario-index order (empty for a clean campaign).
    pub findings: Vec<FuzzFindingSummary>,
}

impl FuzzProvenance {
    /// Summarizes a finished campaign.
    pub fn of(report: &CampaignReport) -> Self {
        FuzzProvenance {
            seed: report.seed,
            scenarios: report.scenarios,
            executed: report.executed,
            findings: report
                .findings
                .iter()
                .map(|f| FuzzFindingSummary {
                    scenario: f.index,
                    class: f.outcome.finding.class.tag().to_owned(),
                    shrink_steps: f.outcome.steps,
                })
                .collect(),
        }
    }
}

/// A machine-readable record of one `experiments` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scale the run used.
    pub scale: Scale,
    /// Job count the run used (`--jobs`).
    pub jobs: usize,
    /// Wall time of the whole run, in milliseconds.
    pub total_wall_ms: f64,
    /// Fuzz-campaign provenance, when the run was an `mapg-fuzz`
    /// campaign. Campaign manifests carry no experiments and tag the
    /// `smoke` scale (the scale knob is an instruction budget, which
    /// randomized scenarios override); the authoritative campaign size
    /// is `fuzz.scenarios`.
    pub fuzz: Option<FuzzProvenance>,
    /// Per-experiment records, in registry order.
    pub experiments: Vec<ManifestEntry>,
}

impl Manifest {
    /// Renders the manifest as pretty-printed JSON (trailing newline
    /// included).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", MANIFEST_SCHEMA));
        out.push_str(&format!(
            "  \"scale\": {},\n",
            render_json_string(self.scale.name())
        ));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!(
            "  \"total_wall_ms\": {},\n",
            json_number(self.total_wall_ms)
        ));
        if let Some(fuzz) = &self.fuzz {
            out.push_str("  \"fuzz\": {\n");
            out.push_str(&format!("    \"seed\": {},\n", fuzz.seed));
            out.push_str(&format!("    \"scenarios\": {},\n", fuzz.scenarios));
            out.push_str(&format!("    \"executed\": {},\n", fuzz.executed));
            out.push_str("    \"findings\": [");
            for (i, finding) in fuzz.findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"scenario\": {}, \"class\": {}, \"shrink_steps\": {}}}",
                    finding.scenario,
                    render_json_string(&finding.class),
                    finding.shrink_steps
                ));
            }
            if !fuzz.findings.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]\n  },\n");
        }
        out.push_str("  \"experiments\": [");
        for (i, entry) in self.experiments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!(
                "      \"id\": {},\n",
                render_json_string(&entry.id)
            ));
            out.push_str(&format!(
                "      \"title\": {},\n",
                render_json_string(&entry.title)
            ));
            out.push_str(&format!(
                "      \"outcome\": {},\n",
                render_json_string(&entry.outcome)
            ));
            out.push_str(&format!("      \"attempts\": {},\n", entry.attempts));
            out.push_str(&format!(
                "      \"wall_ms\": {},\n",
                json_number(entry.wall_ms)
            ));
            if let Some(metrics) = &entry.metrics {
                out.push_str("      \"metrics\": {\n");
                out.push_str(&metrics.to_json_body("        "));
                out.push_str("      },\n");
            }
            out.push_str("      \"tables\": [");
            for (j, table) in entry.tables.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"id\": {}, \"rows\": {}}}",
                    render_json_string(&table.id),
                    table.rows
                ));
            }
            out.push_str("]\n    }");
        }
        if !self.experiments.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Renders a finite float as a JSON number with millisecond-precision
/// stability (3 fractional digits); non-finite values degrade to `0`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            scale: Scale::Smoke,
            jobs: 4,
            total_wall_ms: 12.3456,
            fuzz: None,
            experiments: vec![
                ManifestEntry {
                    id: "R-T1".to_owned(),
                    title: "power-gating circuit design space".to_owned(),
                    outcome: "ok".to_owned(),
                    attempts: 1,
                    wall_ms: 1.5,
                    metrics: None,
                    tables: vec![TableSummary {
                        id: "R-T1".to_owned(),
                        rows: 7,
                    }],
                },
                ManifestEntry {
                    id: "R-F5".to_owned(),
                    title: "wake \"latency\" sweep".to_owned(),
                    outcome: "timed-out".to_owned(),
                    attempts: 3,
                    wall_ms: 2.25,
                    metrics: None,
                    tables: vec![
                        TableSummary {
                            id: "R-F5".to_owned(),
                            rows: 6,
                        },
                        TableSummary {
                            id: "R-F5b".to_owned(),
                            rows: 2,
                        },
                    ],
                },
            ],
        }
    }

    /// The complete rendering, byte for byte: any change to layout,
    /// escaping or number formatting shows up here first.
    #[test]
    fn sample_renders_byte_for_byte() {
        let expected = r#"{
  "schema": 4,
  "scale": "smoke",
  "jobs": 4,
  "total_wall_ms": 12.346,
  "experiments": [
    {
      "id": "R-T1",
      "title": "power-gating circuit design space",
      "outcome": "ok",
      "attempts": 1,
      "wall_ms": 1.500,
      "tables": [{"id": "R-T1", "rows": 7}]
    },
    {
      "id": "R-F5",
      "title": "wake \"latency\" sweep",
      "outcome": "timed-out",
      "attempts": 3,
      "wall_ms": 2.250,
      "tables": [{"id": "R-F5", "rows": 6}, {"id": "R-F5b", "rows": 2}]
    }
  ]
}
"#;
        assert_eq!(sample().to_json(), expected);
    }

    /// A campaign manifest with one finding, byte for byte.
    #[test]
    fn fuzz_manifest_renders_byte_for_byte() {
        let mut manifest = sample();
        manifest.experiments.clear();
        manifest.fuzz = Some(FuzzProvenance {
            seed: 1,
            scenarios: 200,
            executed: 150,
            findings: vec![FuzzFindingSummary {
                scenario: 1928,
                class: "panic".to_owned(),
                shrink_steps: 4,
            }],
        });
        let expected = r#"{
  "schema": 4,
  "scale": "smoke",
  "jobs": 4,
  "total_wall_ms": 12.346,
  "fuzz": {
    "seed": 1,
    "scenarios": 200,
    "executed": 150,
    "findings": [
      {"scenario": 1928, "class": "panic", "shrink_steps": 4}
    ]
  },
  "experiments": []
}
"#;
        assert_eq!(manifest.to_json(), expected);
    }

    #[test]
    fn renders_the_documented_schema() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": 4"), "{json}");
        assert!(json.contains("\"scale\": \"smoke\""), "{json}");
        assert!(json.contains("\"jobs\": 4"), "{json}");
        assert!(json.contains("\"total_wall_ms\": 12.346"), "{json}");
        assert!(json.contains("\"id\": \"R-T1\""), "{json}");
        assert!(json.contains("\"outcome\": \"ok\""), "{json}");
        assert!(json.contains("\"outcome\": \"timed-out\""), "{json}");
        assert!(json.contains("\"attempts\": 1"), "{json}");
        assert!(json.contains("\"attempts\": 3"), "{json}");
        assert!(json.contains("{\"id\": \"R-F5b\", \"rows\": 2}"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn strings_are_escaped() {
        let json = sample().to_json();
        assert!(json.contains(r#""wake \"latency\" sweep""#), "{json}");
        let mut manifest = sample();
        manifest.experiments[0].title = "a\\b\nc\t\u{1}".to_owned();
        let json = manifest.to_json();
        assert!(json.contains(r#""title": "a\\b\nc\t\u0001","#), "{json}");
    }

    #[test]
    fn empty_run_is_valid_json() {
        let manifest = Manifest {
            scale: Scale::Paper,
            jobs: 1,
            total_wall_ms: 0.0,
            fuzz: None,
            experiments: Vec::new(),
        };
        assert!(manifest.to_json().contains("\"experiments\": []"));
    }

    /// Schema v3: fuzz provenance renders under `"fuzz"` with one record
    /// per divergence; manifests without a campaign omit the key.
    #[test]
    fn fuzz_provenance_embeds_under_the_manifest() {
        assert!(!sample().to_json().contains("\"fuzz\""));
        let mut manifest = sample();
        manifest.experiments.clear();
        manifest.fuzz = Some(FuzzProvenance {
            seed: 1,
            scenarios: 2000,
            executed: 1500,
            findings: vec![
                FuzzFindingSummary {
                    scenario: 1928,
                    class: "panic".to_owned(),
                    shrink_steps: 4,
                },
                FuzzFindingSummary {
                    scenario: 42,
                    class: "stats-mismatch".to_owned(),
                    shrink_steps: 0,
                },
            ],
        });
        let json = manifest.to_json();
        assert!(json.contains("\"seed\": 1"), "{json}");
        assert!(json.contains("\"scenarios\": 2000"), "{json}");
        assert!(
            json.contains("{\"scenario\": 1928, \"class\": \"panic\", \"shrink_steps\": 4}"),
            "{json}"
        );
        assert!(json.contains("\"stats-mismatch\""), "{json}");

        // A clean campaign still records its provenance.
        manifest.fuzz.as_mut().unwrap().findings.clear();
        let json = manifest.to_json();
        assert!(json.contains("\"findings\": []"), "{json}");
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(0.5), "0.500");
    }

    #[test]
    fn metrics_embed_under_the_entry() {
        let mut manifest = sample();
        let mut registry = MetricsRegistry::new();
        registry.count("gates", 42);
        registry.observe("gated_duration", 512);
        manifest.experiments[0].metrics = Some(registry);
        let json = manifest.to_json();
        assert!(json.contains("\"metrics\": {"), "{json}");
        assert!(json.contains("\"gates\": 42"), "{json}");
        assert!(json.contains("\"gated_duration\""), "{json}");
        // The entry without metrics stays metrics-free.
        assert_eq!(json.matches("\"metrics\": {").count(), 1, "{json}");
    }

    #[test]
    fn table_summary_counts_rows() {
        let mut t = Table::new("R-X", "x", vec!["a"]);
        t.push_row(vec!["1"]);
        t.push_row(vec!["2"]);
        let s = TableSummary::of(&t);
        assert_eq!(s.id, "R-X");
        assert_eq!(s.rows, 2);
    }
}
