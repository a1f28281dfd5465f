//! Batch execution: [`run_all`], the one ordered fan-out every suite,
//! replication and experiment sweep goes through, and [`SuiteRunner`], the
//! workload-suite × policy-set driver built on it.
//!
//! A batch is a list of `(SimConfig, PolicyKind)` runs. Every simulation is
//! a seeded pure function of its pair, so the batch's reports are identical
//! bit-for-bit at any worker count; [`mapg_pool::Pool::map`] returns them in
//! submission order regardless of completion order.
//!
//! The runs a batch must compute are grouped first: single-core runs that
//! read the same event stream through the same caches share one front end
//! and run in lockstep, one generator and one set of L1/L2 lookups feeding
//! every run's timing (DESIGN §9.7). Workers compute one group each and
//! nothing else. Build every [`SimConfig`] on the calling thread: pool
//! workers do not inherit the caller's thread-locals (an ambient metrics or
//! event hub, a `with_default_jobs` override), so a config assembled inside
//! a worker would silently lose them.

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
/// Every config is validated first. Runs with a
/// [`RunCache`](crate::RunCache) are then looked up in it. The misses are
/// grouped by front end, a group being split when there are fewer groups
/// than workers, and computed; their reports are memoized in submission
/// order.
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
/// Panics with the message of [`SimConfig::validate`] for the first
/// invalid config, before any run starts.
pub fn run_all(runs: Vec<(SimConfig, PolicyKind)>) -> Vec<RunReport> {
    for (config, _) in &runs {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
    }
    let mut reports: Vec<Option<RunReport>> = Vec::with_capacity(runs.len());
    let mut groups: Vec<Group> = Vec::new();
    for (index, (config, policy)) in runs.into_iter().enumerate() {
        let recalled = Simulation::recall(&config, policy);
        if recalled.is_some() {
            reports.push(recalled);
            continue;
        }
        reports.push(None);
        let shared = groups
            .iter_mut()
            .find(|group| group.runs[0].0.shares_front_end_with(&config));
        match shared {
            Some(group) => {
                group.indices.push(index);
                group.runs.push((config, policy));
            }
            None => groups.push(Group {
                indices: vec![index],
                runs: vec![(config, policy)],
            }),
        }
    }
    let pool = Pool::with_default_jobs();
    spread(&mut groups, pool.jobs());
    let mut computed: Vec<(usize, (SimConfig, PolicyKind), RunReport)> = pool
        .map(groups, |group| {
            let computed = Simulation::compute(&group.runs).unwrap_or_else(|e| panic!("{e}"));
            (group, computed)
        })
        .into_iter()
        .flat_map(|(group, computed)| {
            group
                .indices
                .into_iter()
                .zip(group.runs)
                .zip(computed)
                .map(|((index, run), report)| (index, run, report))
        })
        .collect();
    computed.sort_unstable_by_key(|&(index, ..)| index);
    for (index, (config, policy), report) in computed {
        Simulation::remember(config, policy, &report);
        reports[index] = Some(report);
    }
    reports
        .into_iter()
        .map(|report| report.expect("every run recalled or computed"))
        .collect()
}

/// Runs computed together: several that share one front end, or one that
/// shares none. `indices[i]` is the batch position of `runs[i]`.
struct Group {
    indices: Vec<usize>,
    runs: Vec<(SimConfig, PolicyKind)>,
}

/// Halves the largest group until every one of `workers` has a group or
/// every group is a single run. A split repeats the front end once, which
/// costs less than a worker left idle.
fn spread(groups: &mut Vec<Group>, workers: usize) {
    while groups.len() < workers {
        let Some(at) = (0..groups.len())
            .filter(|&at| groups[at].runs.len() > 1)
            .max_by_key(|&at| groups[at].runs.len())
        else {
            return;
        };
        let half = groups[at].runs.len() / 2;
        let split = Group {
            indices: groups[at].indices.split_off(half),
            runs: groups[at].runs.split_off(half),
        };
        groups.insert(at + 1, split);
    }
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
    fn spread_halves_the_largest_group_until_every_worker_has_one() {
        let group = |size: usize| Group {
            indices: (0..size).collect(),
            runs: vec![(SimConfig::default(), PolicyKind::Mapg); size],
        };
        let sizes = |groups: &[Group]| groups.iter().map(|g| g.runs.len()).collect::<Vec<_>>();
        let mut groups = vec![group(28)];
        spread(&mut groups, 2);
        assert_eq!(sizes(&groups), [14, 14]);
        assert_eq!(groups[1].indices[0], 14, "positions travel with their runs");
        let mut groups = vec![group(3), group(1)];
        spread(&mut groups, 8);
        assert_eq!(sizes(&groups), [1, 1, 1, 1], "single runs are not split");
        let mut groups = vec![group(5), group(2)];
        spread(&mut groups, 1);
        assert_eq!(sizes(&groups), [5, 2], "enough groups: nothing to split");
    }

    #[test]
    fn baseline_normalized_to_itself_is_unity() {
        let matrix = tiny_runner().run(&[PolicyKind::NoGating]);
        let unity = matrix.geomean_normalized_energy("no-gating", "no-gating");
        assert!((unity - 1.0).abs() < 1e-12);
    }
}
