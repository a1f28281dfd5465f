//! The differential fuzz campaign driver.
//!
//! Couples the `mapg::fuzz` primitives (scenario generation, the
//! live-vs-reference differ, shrinking, repro files) with the
//! supervised pool: scenarios fan out across workers, a panicking
//! scenario is quarantined instead of ending the campaign, an optional
//! wall-clock budget stops new scenarios from starting, and results come
//! back in index order. A campaign that runs to completion is a pure
//! function of `(campaign seed, scenario count, shrink budget)`; the job
//! count only changes wall-clock time.

use std::time::{Duration, Instant};

use mapg::fuzz::{run_scenario, shrink, FindingClass, ReproFile, Scenario, ShrinkOutcome};
use mapg_pool::{JobOutcome, Supervisor};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for the scenario stream.
    pub seed: u64,
    /// Scenarios to generate and run.
    pub scenarios: u64,
    /// Shrink budget per finding (candidate evaluations; each costs one
    /// live+reference pair).
    pub shrink_budget: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Campaign wall-clock budget (`--max-seconds`). Once elapsed, no
    /// new scenario starts; in-flight scenarios finish and the report
    /// stays valid with `executed < scenarios`.
    pub max_seconds: Option<f64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x4D41_5047, // "MAPG"
            scenarios: 200,
            shrink_budget: 150,
            jobs: mapg_pool::default_jobs(),
            max_seconds: None,
        }
    }
}

/// One divergence a campaign surfaced, already shrunk.
#[derive(Debug, Clone)]
pub struct CampaignFinding {
    /// Index of the generated scenario within the campaign.
    pub index: u64,
    /// The scenario exactly as generated (before shrinking).
    pub original: Scenario,
    /// Shrinking result: minimal scenario + surviving finding.
    pub outcome: ShrinkOutcome,
}

impl CampaignFinding {
    /// Packages the finding as a self-contained repro file.
    pub fn to_repro(&self, campaign_seed: u64) -> ReproFile {
        ReproFile {
            campaign_seed: Some(campaign_seed),
            scenario_index: Some(self.index),
            shrink_steps: self.outcome.steps,
            finding_class: self.outcome.finding.class,
            finding_detail: self.outcome.finding.detail.clone(),
            scenario: self.outcome.scenario.clone(),
        }
    }
}

/// A scenario the supervisor quarantined instead of finishing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignFailure {
    /// Index of the scenario within the campaign.
    pub index: u64,
    /// Outcome label (`panicked`; a campaign is never cancelled).
    pub outcome: String,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the scenario stream was generated from.
    pub seed: u64,
    /// Scenarios the campaign was asked for.
    pub scenarios: u64,
    /// Scenarios that completed. Less than `scenarios` when a
    /// `--max-seconds` budget stopped the campaign early or the
    /// supervisor quarantined scenarios.
    pub executed: u64,
    /// All divergences, in scenario-index order.
    pub findings: Vec<CampaignFinding>,
    /// Quarantined scenarios, in index order.
    pub failures: Vec<CampaignFailure>,
}

impl CampaignReport {
    /// True when every executed scenario completed without divergence
    /// and nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.failures.is_empty()
    }

    /// Finding counts per class, most severe class first (zero-count
    /// classes omitted).
    pub fn class_counts(&self) -> Vec<(FindingClass, u64)> {
        FindingClass::ALL
            .iter()
            .filter_map(|&class| {
                let count = self
                    .findings
                    .iter()
                    .filter(|f| f.outcome.finding.class == class)
                    .count() as u64;
                (count > 0).then_some((class, count))
            })
            .collect()
    }
}

/// What one supervised scenario job produced.
enum RunSlot {
    /// Ran to completion (divergence or clean).
    Done(Box<Option<CampaignFinding>>),
    /// Not started: the campaign budget was already exhausted.
    Skipped,
}

/// Runs a campaign: generate, diff, shrink. Scenario `i` is
/// `Scenario::generate(config.seed, i)`; a scenario that produces a
/// finding is shrunk immediately on the same worker. A panicking
/// scenario is quarantined into [`CampaignReport::failures`] and the
/// rest of the campaign keeps running.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let seed = config.seed;
    let shrink_budget = config.shrink_budget;
    let jobs = if config.jobs == 0 {
        mapg_pool::default_jobs()
    } else {
        config.jobs
    };
    let budget_end = config
        .max_seconds
        .map(|s| Instant::now() + Duration::from_secs_f64(s.max(0.0)));
    let indices: Vec<u64> = (0..config.scenarios).collect();
    let outcomes = Supervisor::new(jobs).map_supervised(indices, move |&index, _| {
        if budget_end.is_some_and(|end| Instant::now() >= end) {
            return RunSlot::Skipped;
        }
        let scenario = Scenario::generate(seed, index);
        // Generated scenarios are valid by construction; an Err here
        // would itself be a generator bug, surfaced as a panic.
        let finding = run_scenario(&scenario)
            .unwrap_or_else(|e| panic!("generated scenario {index} invalid: {e}"));
        let finding = finding.map(|finding| CampaignFinding {
            index,
            outcome: shrink(&scenario, &finding, shrink_budget),
            original: scenario,
        });
        RunSlot::Done(Box::new(finding))
    });

    let mut findings: Vec<CampaignFinding> = Vec::new();
    let mut failures: Vec<CampaignFailure> = Vec::new();
    let mut executed: u64 = 0;
    for (index, outcome) in (0..config.scenarios).zip(outcomes) {
        match outcome {
            JobOutcome::Ok(RunSlot::Done(finding)) => {
                executed += 1;
                findings.extend(*finding);
            }
            JobOutcome::Ok(RunSlot::Skipped) => {}
            outcome => failures.push(CampaignFailure {
                index,
                outcome: outcome.label().to_owned(),
            }),
        }
    }
    CampaignReport {
        seed,
        scenarios: config.scenarios,
        executed,
        findings,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_deterministic() {
        let config = CampaignConfig {
            seed: 0xABCD,
            scenarios: 4,
            shrink_budget: 10,
            jobs: 2,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&config);
        let b = run_campaign(&CampaignConfig { jobs: 1, ..config });
        assert_eq!(a.scenarios, b.scenarios);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.findings.len(), b.findings.len());
        assert!(a.failures.is_empty() && b.failures.is_empty());
        for (fa, fb) in a.findings.iter().zip(&b.findings) {
            assert_eq!(fa.index, fb.index);
            assert_eq!(fa.outcome.scenario, fb.outcome.scenario);
            assert_eq!(fa.outcome.finding, fb.outcome.finding);
        }
    }

    #[test]
    fn zero_second_budget_executes_nothing_but_stays_valid() {
        let config = CampaignConfig {
            seed: 0xABCD,
            scenarios: 6,
            shrink_budget: 10,
            jobs: 2,
            max_seconds: Some(0.0),
        };
        let report = run_campaign(&config);
        assert_eq!(report.scenarios, 6);
        assert_eq!(report.executed, 0);
        assert!(report.findings.is_empty());
        assert!(report.failures.is_empty());
    }
}
