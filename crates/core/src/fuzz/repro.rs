//! Self-contained crash-repro files.
//!
//! A repro file carries everything needed to replay a divergence
//! bit-for-bit: the shrunk scenario, the finding it produced, and the
//! campaign provenance (`campaign_seed`, `scenario_index`, shrink count)
//! that lets anyone regenerate the original unshrunk scenario too.
//! `mapgsim --repro file.json` and the committed regression tests both
//! replay through [`ReproFile::replay`].

use std::path::Path;

use crate::error::MapgError;
use crate::fuzz::differ::{run_scenario, Finding, FindingClass};
use crate::fuzz::scenario::Scenario;
use mapg_obs::json::{self, JsonValue};

/// Repro-file schema version.
pub const REPRO_SCHEMA: u32 = 1;

/// A serialized divergence: scenario + expected finding + provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproFile {
    /// Campaign seed the scenario came from (absent for hand-written
    /// repros).
    pub campaign_seed: Option<u64>,
    /// Scenario index within the campaign.
    pub scenario_index: Option<u64>,
    /// Accepted shrink steps between the generated and stored scenario.
    pub shrink_steps: u64,
    /// The finding class this scenario reproduces.
    pub finding_class: FindingClass,
    /// Human-readable detail captured when the finding was recorded.
    pub finding_detail: String,
    /// The (shrunk) scenario to replay.
    pub scenario: Scenario,
}

impl ReproFile {
    /// Renders the repro as a JSON document.
    pub fn to_json_text(&self) -> String {
        let opt = |v: Option<u64>| match v {
            Some(n) => JsonValue::Number(n.to_string()),
            None => JsonValue::Null,
        };
        let doc = JsonValue::Object(vec![
            ("schema".into(), JsonValue::Number(REPRO_SCHEMA.to_string())),
            ("campaign_seed".into(), opt(self.campaign_seed)),
            ("scenario_index".into(), opt(self.scenario_index)),
            (
                "shrink_steps".into(),
                JsonValue::Number(self.shrink_steps.to_string()),
            ),
            (
                "finding_class".into(),
                JsonValue::String(self.finding_class.tag().into()),
            ),
            (
                "finding_detail".into(),
                JsonValue::String(self.finding_detail.clone()),
            ),
            ("scenario".into(), self.scenario.to_json()),
        ]);
        let mut text = json::write(&doc);
        text.push('\n');
        text
    }

    /// Parses a repro document.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] on malformed JSON, an
    /// unsupported schema version, or a mistyped field.
    pub fn from_json_text(text: &str) -> Result<ReproFile, MapgError> {
        let doc = json::parse(text).map_err(|e| MapgError::invalid(format!("repro file: {e}")))?;
        let missing =
            |field: &str| MapgError::invalid(format!("repro field '{field}' missing or mistyped"));
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_u32)
            .ok_or_else(|| missing("schema"))?;
        if schema != REPRO_SCHEMA {
            return Err(MapgError::invalid(format!(
                "unsupported repro schema {schema} (this build reads {REPRO_SCHEMA})"
            )));
        }
        let opt = |field: &str| -> Result<Option<u64>, MapgError> {
            match doc.get(field) {
                None => Err(missing(field)),
                Some(JsonValue::Null) => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| missing(field)),
            }
        };
        let class_tag = doc
            .get("finding_class")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| missing("finding_class"))?;
        Ok(ReproFile {
            campaign_seed: opt("campaign_seed")?,
            scenario_index: opt("scenario_index")?,
            shrink_steps: doc
                .get("shrink_steps")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| missing("shrink_steps"))?,
            finding_class: FindingClass::from_tag(class_tag).ok_or_else(|| {
                MapgError::invalid(format!("unknown finding class '{class_tag}'"))
            })?,
            finding_detail: doc
                .get("finding_detail")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| missing("finding_detail"))?
                .to_owned(),
            scenario: Scenario::from_json(doc.get("scenario").ok_or_else(|| missing("scenario"))?)?,
        })
    }

    /// Writes the repro to `path` atomically (staged to `<path>.tmp`,
    /// fsync'd, renamed), so a crash mid-write never leaves a
    /// truncated repro.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when the file cannot be
    /// written.
    pub fn save(&self, path: &Path) -> Result<(), MapgError> {
        crate::fsutil::write_atomic(path, self.to_json_text().as_bytes())
            .map_err(|e| MapgError::invalid(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads a repro from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when the file cannot be read
    /// or parsed.
    pub fn load(path: &Path) -> Result<ReproFile, MapgError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| MapgError::invalid(format!("cannot read {}: {e}", path.display())))?;
        ReproFile::from_json_text(&text)
    }

    /// Replays the stored scenario through the differential oracle and
    /// reports what it produces *now* (which a regression test compares
    /// against [`ReproFile::finding_class`]).
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when the stored scenario is
    /// out of range.
    pub fn replay(&self) -> Result<Option<Finding>, MapgError> {
        run_scenario(&self.scenario)
    }

    /// True when replaying still produces the recorded finding class.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when the stored scenario is
    /// out of range.
    pub fn still_reproduces(&self) -> Result<bool, MapgError> {
        Ok(self
            .replay()?
            .is_some_and(|finding| finding.class == self.finding_class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReproFile {
        ReproFile {
            campaign_seed: Some(0xFEED_F00D_DEAD_BEEF),
            scenario_index: Some(17),
            shrink_steps: 4,
            finding_class: FindingClass::StatsMismatch,
            finding_detail: "live and reference reports differ in: makespan".into(),
            scenario: Scenario::generate(0xFEED_F00D_DEAD_BEEF, 17),
        }
    }

    #[test]
    fn repro_files_round_trip() {
        let repro = sample();
        let text = repro.to_json_text();
        let back = ReproFile::from_json_text(&text).unwrap();
        assert_eq!(repro, back);
    }

    #[test]
    fn future_schemas_are_rejected() {
        let text = sample()
            .to_json_text()
            .replace("\"schema\": 1", "\"schema\": 99");
        let err = ReproFile::from_json_text(&text).unwrap_err();
        assert!(err.to_string().contains("unsupported repro schema"));
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let repro = sample();
        let path =
            std::env::temp_dir().join(format!("mapg-repro-test-{}.json", std::process::id()));
        repro.save(&path).unwrap();
        let back = ReproFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(repro, back);
    }

    /// A clean scenario's repro does not "reproduce" — the guard the
    /// regression runner relies on.
    #[test]
    fn clean_scenarios_do_not_reproduce() {
        let repro = ReproFile {
            campaign_seed: None,
            scenario_index: None,
            shrink_steps: 0,
            finding_class: FindingClass::Panic,
            finding_detail: "synthetic".into(),
            scenario: Scenario::generate(0xC1EA, 3),
        };
        assert!(!repro.still_reproduces().unwrap());
    }
}
