//! Batch execution: [`run_all`], the one ordered fan-out every suite,
//! replication and experiment sweep goes through, and [`SuiteRunner`], the
//! workload-suite × policy-set driver built on it.
//!
//! A batch is a list of `(SimConfig, PolicyKind)` runs. Every simulation is
//! a seeded pure function of its pair, so the batch's reports are identical
//! bit-for-bit at any worker count; [`mapg_pool::Pool::map`] returns them in
//! submission order regardless of completion order.
//!
//! Workers run [`Simulation::new`]`(config, policy).run()` and nothing
//! else. Build every [`SimConfig`] on the calling thread: pool workers do
//! not inherit the caller's thread-locals (an ambient metrics or event
//! hub, a `with_default_jobs` override), so a config assembled inside a
//! worker would silently lose them.

use mapg_pool::Pool;
use mapg_trace::WorkloadSuite;

use crate::policy::PolicyKind;
use crate::report::{geometric_mean, RunReport};
use crate::sim::{SimConfig, Simulation};

/// Runs every `(config, policy)` pair on a [`Pool`] sized by
/// [`mapg_pool::default_jobs`] and returns the reports in submission
/// order.
///
/// The worker count is the caller's: the innermost
/// [`mapg_pool::with_default_jobs`] override on this thread, else the
/// host's parallelism. `1` runs the batch inline on the calling thread.
///
/// ```
/// use mapg::{run_all, PolicyKind, SimConfig};
///
/// let config = SimConfig::default().with_instructions(20_000);
/// let reports = run_all(vec![
///     (config.clone(), PolicyKind::NoGating),
///     (config, PolicyKind::Mapg),
/// ]);
/// assert_eq!(reports[0].policy, "no-gating");
/// assert_eq!(reports[1].policy, "mapg");
/// ```
///
/// # Panics
///
/// Re-raises the first panicking run's payload (an invalid config), after
/// cancelling the runs not yet started.
pub fn run_all(runs: Vec<(SimConfig, PolicyKind)>) -> Vec<RunReport> {
    Pool::with_default_jobs().map(runs, |(config, policy)| {
        Simulation::new(config, policy).run()
    })
}

/// Runs every (profile, policy) combination of a suite and collects the
/// reports.
///
/// The matrix is one [`run_all`] batch in (workload-major, policy-minor)
/// order, so it is identical bit-for-bit at any job count.
///
/// ```
/// use mapg::{PolicyKind, SimConfig, SuiteRunner};
/// use mapg_trace::WorkloadSuite;
///
/// let runner = SuiteRunner::new(
///     WorkloadSuite::extremes(),
///     SimConfig::default().with_instructions(20_000),
/// );
/// let matrix = runner.run(&[PolicyKind::NoGating, PolicyKind::Mapg]);
/// assert_eq!(matrix.reports().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    suite: WorkloadSuite,
    base: SimConfig,
}

impl SuiteRunner {
    /// Creates a runner; `base` supplies everything but the profile.
    pub fn new(suite: WorkloadSuite, base: SimConfig) -> Self {
        SuiteRunner { suite, base }
    }

    /// The suite being run.
    pub fn suite(&self) -> &WorkloadSuite {
        &self.suite
    }

    /// Runs all combinations as one [`run_all`] batch.
    pub fn run(&self, policies: &[PolicyKind]) -> SuiteMatrix {
        let runs = self
            .suite
            .iter()
            .flat_map(|profile| {
                policies
                    .iter()
                    .map(|&policy| (self.base.clone().with_profile(profile.clone()), policy))
            })
            .collect();
        SuiteMatrix {
            reports: run_all(runs),
        }
    }
}

/// The (workload × policy) report matrix with comparison helpers.
#[derive(Debug, Clone)]
pub struct SuiteMatrix {
    reports: Vec<RunReport>,
}

impl SuiteMatrix {
    /// All reports, in (workload-major, policy-minor) order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The report for a (workload, policy) pair.
    pub fn get(&self, workload: &str, policy: &str) -> Option<&RunReport> {
        self.reports
            .iter()
            .find(|r| r.workload == workload && r.policy == policy)
    }

    /// Distinct workload names, in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.reports {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// Distinct policy names, in first-seen order.
    pub fn policies(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.reports {
            if !names.contains(&r.policy) {
                names.push(r.policy);
            }
        }
        names
    }

    /// Geometric-mean *normalized core energy* of `policy` relative to
    /// `baseline` across workloads (`0.82` = 18 % geomean savings).
    ///
    /// # Panics
    ///
    /// Panics if either policy is missing for some workload.
    pub fn geomean_normalized_energy(&self, policy: &str, baseline: &str) -> f64 {
        geometric_mean(self.workloads().iter().map(|w| {
            let p = self.get(w, policy).expect("policy report missing");
            let b = self.get(w, baseline).expect("baseline report missing");
            p.core_energy() / b.core_energy()
        }))
    }

    /// Geometric-mean normalized runtime of `policy` relative to
    /// `baseline` (`1.01` = 1 % geomean slowdown).
    ///
    /// # Panics
    ///
    /// Panics if either policy is missing for some workload.
    pub fn geomean_normalized_runtime(&self, policy: &str, baseline: &str) -> f64 {
        geometric_mean(self.workloads().iter().map(|w| {
            let p = self.get(w, policy).expect("policy report missing");
            let b = self.get(w, baseline).expect("baseline report missing");
            p.makespan_cycles as f64 / b.makespan_cycles as f64
        }))
    }

    /// Geometric-mean normalized EDP of `policy` relative to `baseline`.
    ///
    /// # Panics
    ///
    /// Panics if either policy is missing for some workload.
    pub fn geomean_normalized_edp(&self, policy: &str, baseline: &str) -> f64 {
        geometric_mean(self.workloads().iter().map(|w| {
            let p = self.get(w, policy).expect("policy report missing");
            let b = self.get(w, baseline).expect("baseline report missing");
            p.edp() / b.edp()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_trace::WorkloadSuite;

    fn tiny_runner() -> SuiteRunner {
        SuiteRunner::new(
            WorkloadSuite::extremes(),
            SimConfig::default().with_instructions(30_000),
        )
    }

    #[test]
    fn matrix_covers_all_combinations() {
        let matrix = tiny_runner().run(&[
            PolicyKind::NoGating,
            PolicyKind::Mapg,
            PolicyKind::MapgOracle,
        ]);
        assert_eq!(matrix.reports().len(), 6);
        assert_eq!(matrix.workloads().len(), 2);
        assert_eq!(matrix.policies().len(), 3);
        assert!(matrix.get("mem_bound", "mapg").is_some());
        assert!(matrix.get("mem_bound", "nonexistent").is_none());
    }

    #[test]
    fn geomeans_are_sensible() {
        let matrix = tiny_runner().run(&[PolicyKind::NoGating, PolicyKind::Mapg]);
        let energy = matrix.geomean_normalized_energy("mapg", "no-gating");
        let runtime = matrix.geomean_normalized_runtime("mapg", "no-gating");
        let edp = matrix.geomean_normalized_edp("mapg", "no-gating");
        assert!(energy < 1.0, "MAPG should save energy: {energy}");
        assert!(runtime < 1.10, "runtime should stay close: {runtime}");
        assert!(edp < 1.05, "EDP should not blow up: {edp}");
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let policies = [
            PolicyKind::NoGating,
            PolicyKind::Mapg,
            PolicyKind::NaiveOnMiss,
        ];
        let runner = tiny_runner();
        let serial = mapg_pool::with_default_jobs(1, || runner.run(&policies));
        let parallel = mapg_pool::with_default_jobs(8, || runner.run(&policies));
        assert_eq!(serial.reports(), parallel.reports());
    }

    #[test]
    fn baseline_normalized_to_itself_is_unity() {
        let matrix = tiny_runner().run(&[PolicyKind::NoGating]);
        let unity = matrix.geomean_normalized_energy("no-gating", "no-gating");
        assert!((unity - 1.0).abs() < 1e-12);
    }
}
