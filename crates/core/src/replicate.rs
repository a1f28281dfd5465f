//! Multi-seed replication: statistical confidence for simulation claims.
//!
//! A single seeded run is deterministic but still one draw from the
//! workload generator's distribution. Replicating a configuration across
//! seeds and reporting mean ± deviation separates real policy effects from
//! generator noise — the hygiene behind experiment R-T4.
//!
//! The replicas are one [`run_all`] batch: the seeded configs are built on
//! the calling thread and fanned out across the caller's worker budget,
//! and the reports come back in seed order at any job count. Replicating
//! several policies at once ([`Replication::run_policies`]) puts every
//! policy's replica of one seed in that batch, so a single-core seed's
//! runs share one front end (DESIGN §9.7).

use core::fmt;

use crate::policy::PolicyKind;
use crate::report::RunReport;
use crate::sim::SimConfig;
use crate::suite::run_all;

/// Summary statistics of one scalar metric across replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (zero for a single replica).
    pub stdev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl MetricSummary {
    /// Summarizes a sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "samples must be finite"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stdev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        MetricSummary {
            mean,
            stdev,
            min,
            max,
            n,
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval on
    /// the mean (`1.96 · s/√n`).
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stdev / (self.n as f64).sqrt()
        }
    }

    /// Coefficient of variation (`stdev / |mean|`); infinity when the mean
    /// is zero but the deviation is not.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            if self.stdev == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.stdev / self.mean.abs()
        }
    }
}

impl fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, range {:.4}..{:.4})",
            self.mean, self.stdev, self.n, self.min, self.max
        )
    }
}

/// The reports of one configuration replicated across seeds.
///
/// ```
/// use mapg::{PolicyKind, Replication, SimConfig};
///
/// let config = SimConfig::default().with_instructions(20_000);
/// let replicas = Replication::run(config, PolicyKind::Mapg, 3);
/// let ipc = replicas.summarize(|r| r.ipc());
/// assert_eq!(ipc.n, 3);
/// assert!(ipc.mean > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Replication {
    reports: Vec<RunReport>,
}

impl Replication {
    /// Runs `config` under `policy` once per seed (`1_000 + 977·i` for
    /// replica `i`), as one [`run_all`] batch: the one-policy case of
    /// [`Replication::run_policies`].
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn run(config: SimConfig, policy: PolicyKind, replicas: usize) -> Self {
        Replication::run_policies(config, &[policy], replicas)
            .pop()
            .expect("one replication per policy")
    }

    /// Runs `config` under each of `policies` once per seed (the seeds of
    /// [`Replication::run`]) as one seed-major [`run_all`] batch, and
    /// returns one replication per policy, in `policies` order. Replicas
    /// of the same seed are paired samples for
    /// [`Replication::summarize_paired`].
    ///
    /// ```
    /// use mapg::{PolicyKind, Replication, SimConfig};
    ///
    /// let config = SimConfig::default().with_instructions(20_000);
    /// let pair = Replication::run_policies(config, &[PolicyKind::NoGating, PolicyKind::Mapg], 3);
    /// let savings = pair[1].summarize_paired(&pair[0], |m, b| m.core_energy_savings_vs(b));
    /// assert!(savings.min > 0.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn run_policies(
        config: SimConfig,
        policies: &[PolicyKind],
        replicas: usize,
    ) -> Vec<Replication> {
        assert!(replicas > 0, "need at least one replica");
        let runs = (0..replicas as u64)
            .flat_map(|i| {
                let seeded = config.clone().with_seed(1_000 + 977 * i);
                policies.iter().map(move |&policy| (seeded.clone(), policy))
            })
            .collect();
        let mut replications: Vec<Replication> = policies
            .iter()
            .map(|_| Replication {
                reports: Vec::with_capacity(replicas),
            })
            .collect();
        for (i, report) in run_all(runs).into_iter().enumerate() {
            replications[i % policies.len()].reports.push(report);
        }
        replications
    }

    /// The individual reports (seed order).
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// Summarizes a scalar metric across replicas.
    pub fn summarize<F: Fn(&RunReport) -> f64>(&self, metric: F) -> MetricSummary {
        let samples: Vec<f64> = self.reports.iter().map(metric).collect();
        MetricSummary::from_samples(&samples)
    }

    /// Summarizes a *paired* metric against a baseline replication with the
    /// same seeds (e.g. per-seed energy savings). Pairing removes the
    /// between-seed workload variance from the comparison.
    ///
    /// # Panics
    ///
    /// Panics if the replica counts differ.
    pub fn summarize_paired<F>(&self, baseline: &Replication, metric: F) -> MetricSummary
    where
        F: Fn(&RunReport, &RunReport) -> f64,
    {
        assert!(
            self.reports.len() == baseline.reports.len(),
            "paired summaries need equal replica counts"
        );
        let samples: Vec<f64> = self
            .reports
            .iter()
            .zip(&baseline.reports)
            .map(|(a, b)| metric(a, b))
            .collect();
        MetricSummary::from_samples(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;

    #[test]
    fn summary_statistics_are_correct() {
        let s = MetricSummary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stdev - 1.2909944487358056).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.n, 4);
        assert!(s.ci95_halfwidth() > 0.0);
        assert!((s.cv() - s.stdev / 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = MetricSummary::from_samples(&[7.5]);
        assert_eq!(s.stdev, 0.0);
        assert_eq!(s.ci95_halfwidth(), 0.0);
        assert_eq!(s.min, s.max);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        let _ = MetricSummary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_samples_rejected() {
        let _ = MetricSummary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn replication_produces_distinct_but_similar_runs() {
        let config = SimConfig::default().with_instructions(20_000);
        let replicas = Replication::run(config, PolicyKind::NoGating, 4);
        assert_eq!(replicas.reports().len(), 4);
        let cycles = replicas.summarize(|r| r.makespan_cycles as f64);
        // Different seeds give different runs...
        assert!(cycles.stdev > 0.0, "seeds should differ");
        // ...but the same workload distribution: spread within 20 %.
        assert!(
            cycles.cv() < 0.2,
            "coefficient of variation too large: {}",
            cycles.cv()
        );
    }

    #[test]
    fn replicas_are_equal_at_any_job_count_and_in_seed_order() {
        let config = SimConfig::default().with_instructions(10_000);
        let serial = mapg_pool::with_default_jobs(1, || {
            Replication::run(config.clone(), PolicyKind::Mapg, 4)
        });
        let parallel = mapg_pool::with_default_jobs(4, || {
            Replication::run(config.clone(), PolicyKind::Mapg, 4)
        });
        assert_eq!(serial.reports(), parallel.reports());
        for (i, report) in parallel.reports().iter().enumerate() {
            let seeded = config.clone().with_seed(1_000 + 977 * i as u64);
            assert_eq!(report, &Simulation::new(seeded, PolicyKind::Mapg).run());
        }
    }

    #[test]
    fn paired_savings_are_tighter_than_unpaired() {
        let config = SimConfig::default().with_instructions(20_000);
        let baseline = Replication::run(config.clone(), PolicyKind::NoGating, 4);
        let mapg = Replication::run(config, PolicyKind::Mapg, 4);
        let paired = mapg.summarize_paired(&baseline, |m, b| m.core_energy_savings_vs(b));
        assert!(paired.mean > 0.0, "MAPG saves energy on every seed");
        assert!(paired.min > 0.0);
    }

    #[test]
    fn policies_replicated_together_equal_their_own_replications() {
        let config = SimConfig::default().with_instructions(10_000);
        let policies = [
            PolicyKind::NoGating,
            PolicyKind::Mapg,
            PolicyKind::MapgOracle,
        ];
        let together = Replication::run_policies(config.clone(), &policies, 3);
        assert_eq!(together.len(), 3);
        for (policy, replication) in policies.into_iter().zip(&together) {
            let alone = Replication::run(config.clone(), policy, 3);
            assert_eq!(replication.reports(), alone.reports());
        }
    }

    #[test]
    #[should_panic(expected = "equal replica counts")]
    fn mismatched_pairing_rejected() {
        let config = SimConfig::default().with_instructions(10_000);
        let a = Replication::run(config.clone(), PolicyKind::NoGating, 2);
        let b = Replication::run(config, PolicyKind::Mapg, 3);
        let _ = b.summarize_paired(&a, |x, y| x.perf_overhead_vs(y));
    }

    #[test]
    fn display_form() {
        let s = MetricSummary::from_samples(&[1.0, 2.0]);
        let text = s.to_string();
        assert!(text.contains("n=2"), "{text}");
    }
}
