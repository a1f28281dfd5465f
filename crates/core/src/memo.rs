//! An in-process memo of whole runs.
//!
//! A run is a pure function of its `(SimConfig, PolicyKind)` (DESIGN §7),
//! so a repeated pair may return the report computed earlier instead of
//! simulating again. The paper's experiments read several figures off the
//! same runs — R-F2 and R-F3 are views of R-T3's matrix, and the no-gating
//! baseline is the denominator of almost every figure — so a memo that
//! outlives one experiment removes most of the suite's repeated work.
//!
//! Runs opt in through [`SimConfig::with_run_cache`]; see
//! [`Simulation::try_run`](crate::Simulation::try_run) for which runs
//! consult the cache.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::policy::PolicyKind;
use crate::report::RunReport;
use crate::sim::SimConfig;

/// A bounded, exact, shareable memo of run reports.
///
/// Cloning shares the underlying storage (like
/// [`MetricsHub`](mapg_obs::MetricsHub)), so one cache can serve every
/// pool worker. Entries are keyed by exact equality on every
/// [`SimConfig`] field that can change a report, plus the
/// [`PolicyKind`]; the least recently used entry is evicted once
/// [`RunCache::CAPACITY`] are held.
///
/// ```
/// use mapg::{PolicyKind, RunCache, SimConfig, Simulation};
///
/// let cache = RunCache::new();
/// let config = SimConfig::default()
///     .with_instructions(20_000)
///     .with_run_cache(cache.clone());
/// let first = Simulation::new(config.clone(), PolicyKind::Mapg).run();
/// let again = Simulation::new(config, PolicyKind::Mapg).run();
/// assert_eq!(first, again);
/// ```
#[derive(Clone, Default)]
pub struct RunCache {
    /// Least to most recently used.
    entries: Arc<Mutex<Vec<Entry>>>,
}

struct Entry {
    /// The run's configuration with its hubs and cache handle cleared.
    config: SimConfig,
    policy: PolicyKind,
    report: Box<RunReport>,
}

impl RunCache {
    /// Entries kept before the least recently used one is evicted. The
    /// paper-scale suite makes ~300 distinct runs; 128 keeps R-T3's
    /// 84-run matrix resident across R-T4 and R-F1 until R-F2 and R-F3
    /// reread it, which 64 does not.
    pub const CAPACITY: usize = 128;

    /// An empty cache.
    pub fn new() -> Self {
        RunCache::default()
    }

    /// Number of cached runs.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// The cached report of `(config, policy)`, marked most recently used.
    pub(crate) fn get(&self, config: &SimConfig, policy: PolicyKind) -> Option<RunReport> {
        let mut entries = self.lock();
        touch(&mut entries, config, policy).map(|entry| (*entry.report).clone())
    }

    /// Caches `report` as the outcome of `(config, policy)`. Two workers
    /// that missed on the same key both insert; the reports are equal, so
    /// the second only refreshes the entry's recency.
    pub(crate) fn insert(&self, config: SimConfig, policy: PolicyKind, report: RunReport) {
        let mut entries = self.lock();
        if touch(&mut entries, &config, policy).is_some() {
            return;
        }
        if entries.len() == Self::CAPACITY {
            entries.remove(0);
        }
        entries.push(Entry {
            config: config.without_observers(),
            policy,
            report: Box::new(report),
        });
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().expect("run cache poisoned")
    }
}

/// Moves the entry for `(config, policy)`, if any, to the most recently
/// used end and returns it.
fn touch<'a>(
    entries: &'a mut Vec<Entry>,
    config: &SimConfig,
    policy: PolicyKind,
) -> Option<&'a Entry> {
    let at = entries
        .iter()
        .rposition(|e| e.policy == policy && e.config.same_run(config))?;
    let entry = entries.remove(at);
    entries.push(entry);
    entries.last()
}

impl fmt::Debug for RunCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunCache")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::sim::Simulation;
    use mapg_mem::{DramConfig, HierarchyConfig};
    use mapg_obs::{EventHub, MetricsHub};
    use std::sync::Barrier;

    fn quick() -> SimConfig {
        SimConfig::default().with_instructions(20_000)
    }

    #[test]
    fn a_hit_equals_the_computed_report() {
        let cache = RunCache::new();
        let computed = Simulation::new(quick(), PolicyKind::Mapg).run();
        let config = quick().with_run_cache(cache.clone());
        let first = Simulation::new(config.clone(), PolicyKind::Mapg).run();
        assert!(cache.get(&quick(), PolicyKind::Mapg).is_some());
        let hit = Simulation::new(config, PolicyKind::Mapg).run();
        assert_eq!(first, computed);
        assert_eq!(hit, computed);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hits_replay_metrics_into_the_hub() {
        let snapshot = |cache: Option<&RunCache>| {
            let hub = MetricsHub::new();
            for policy in [PolicyKind::NoGating, PolicyKind::Mapg, PolicyKind::Mapg] {
                let mut config = quick().with_metrics_hub(hub.clone());
                if let Some(cache) = cache {
                    config = config.with_run_cache(cache.clone());
                }
                Simulation::new(config, policy).run();
            }
            hub.snapshot()
        };
        let cache = RunCache::new();
        let uncached = snapshot(None);
        assert_eq!(snapshot(Some(&cache)), uncached, "first pass, one hit");
        assert_eq!(snapshot(Some(&cache)), uncached, "second pass, all hits");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn metrics_on_is_part_of_the_key() {
        let cache = RunCache::new();
        let plain = Simulation::new(quick().with_run_cache(cache.clone()), PolicyKind::Mapg).run();
        let metered = quick().with_metrics().with_run_cache(cache.clone());
        let metered = Simulation::new(metered, PolicyKind::Mapg).run();
        assert!(plain.metrics.is_none());
        assert!(metered.metrics.is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn policy_objects_traces_and_event_hubs_bypass_the_cache() {
        let cache = RunCache::new();
        let config = quick().with_run_cache(cache.clone());
        Simulation::with_policy(config.clone(), PolicyKind::Mapg.instantiate()).run();
        let traced = Simulation::new(config.clone().with_trace(), PolicyKind::Mapg).run();
        assert!(traced.trace.is_some());
        let feed = EventHub::new(1024);
        let published = config.with_event_hub(feed.clone());
        Simulation::new(published, PolicyKind::Mapg).run();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn the_bound_holds_and_evicts_the_least_recently_used() {
        let cache = RunCache::new();
        let report = Simulation::new(quick().with_instructions(1_000), PolicyKind::NoGating).run();
        let key = |seed: u64| quick().with_seed(seed);
        for seed in 0..RunCache::CAPACITY as u64 {
            cache.insert(key(seed), PolicyKind::NoGating, report.clone());
        }
        assert_eq!(cache.len(), RunCache::CAPACITY);
        // Touch seed 0 so seed 1 is now the least recently used.
        assert!(cache.get(&key(0), PolicyKind::NoGating).is_some());
        cache.insert(key(1_000), PolicyKind::NoGating, report);
        assert_eq!(cache.len(), RunCache::CAPACITY);
        assert!(cache.get(&key(0), PolicyKind::NoGating).is_some());
        assert!(cache.get(&key(1), PolicyKind::NoGating).is_none());
        assert!(cache.get(&key(1_000), PolicyKind::NoGating).is_some());
    }

    #[test]
    fn racing_workers_get_equal_reports() {
        let cache = RunCache::new();
        let config = quick().with_cores(2).with_run_cache(cache.clone());
        let start = Barrier::new(2);
        let reports: Vec<RunReport> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (config, start) = (config.clone(), &start);
                    scope.spawn(move || {
                        start.wait();
                        Simulation::new(config, PolicyKind::Mapg).run()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(reports[0], reports[1]);
        assert_eq!(cache.len(), 1);
        // The loser of a race inserts an equal report: one entry remains.
        cache.insert(config.clone(), PolicyKind::Mapg, reports[1].clone());
        assert_eq!(cache.len(), 1);
        let hit = Simulation::new(config, PolicyKind::Mapg).run();
        assert_eq!(hit, reports[0]);
    }

    #[test]
    fn changing_any_keyed_field_misses() {
        let base = quick();
        let mut memory = HierarchyConfig::baseline();
        memory.dram = DramConfig::ddr3_1333().with_latency_scaled(2.0);
        let variants = [
            base.clone().with_seed(7),
            base.clone().with_tokens(2),
            base.clone().with_switch_width(0.05),
            base.clone().with_fault_plan(FaultPlan::light()),
            base.clone().with_memory(memory),
            base.clone().with_compute_quantum(4),
            base.clone().with_reference_scheduler(),
            base.clone().with_instructions(20_001),
            base.clone().without_regate(),
        ];
        let cache = RunCache::new();
        let report = Simulation::new(base.clone(), PolicyKind::Mapg).run();
        cache.insert(base.clone(), PolicyKind::Mapg, report);
        assert!(cache.get(&base, PolicyKind::Mapg).is_some());
        assert!(cache.get(&base, PolicyKind::NaiveOnMiss).is_none());
        for variant in &variants {
            assert!(!variant.same_run(&base), "{variant:?}");
            assert!(
                cache.get(variant, PolicyKind::Mapg).is_none(),
                "{variant:?}"
            );
        }
    }
}
