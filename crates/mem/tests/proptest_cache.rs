//! Property tests: the set-associative cache against an executable
//! reference model (a per-set LRU list), plus geometry invariants.

use proptest::prelude::*;
use std::collections::VecDeque;

use mapg_mem::{Cache, CacheConfig, CacheOutcome};
use mapg_units::Cycles;

/// A deliberately naive reference: per-set LRU as an ordered deque of
/// (tag, dirty).
struct ReferenceCache {
    sets: Vec<VecDeque<(u64, bool)>>,
    ways: usize,
    line: u64,
}

impl ReferenceCache {
    fn new(config: &CacheConfig) -> Self {
        ReferenceCache {
            sets: (0..config.sets()).map(|_| VecDeque::new()).collect(),
            ways: config.associativity as usize,
            line: config.line_bytes,
        }
    }

    /// Returns (hit, dirty_eviction_line).
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let line = addr / self.line;
        let set_count = self.sets.len() as u64;
        let set = (line % set_count) as usize;
        let tag = line / set_count;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&(t, _)| t == tag) {
            let (_, dirty) = entries.remove(pos).expect("position exists");
            entries.push_back((tag, dirty || write));
            return (true, None);
        }
        let mut evicted = None;
        if entries.len() == self.ways {
            let (victim_tag, dirty) = entries.pop_front().expect("full set is non-empty");
            if dirty {
                evicted = Some(victim_tag * set_count + set as u64);
            }
        }
        entries.push_back((tag, write));
        (false, evicted)
    }
}

fn small_config() -> CacheConfig {
    CacheConfig {
        size_bytes: 2048,
        associativity: 4,
        line_bytes: 64,
        hit_latency: Cycles::new(1),
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_model(
        accesses in prop::collection::vec((0u64..16_384, any::<bool>()), 1..2_000)
    ) {
        let config = small_config();
        let mut cache = Cache::new(config);
        let mut reference = ReferenceCache::new(&config);
        for (addr, write) in accesses {
            let outcome = cache.access(addr, write);
            let (ref_hit, ref_evict) = reference.access(addr, write);
            match outcome {
                CacheOutcome::Hit { .. } => prop_assert!(ref_hit, "model hit, reference missed @{addr:#x}"),
                CacheOutcome::Miss { writeback } => {
                    prop_assert!(!ref_hit, "model missed, reference hit @{addr:#x}");
                    prop_assert_eq!(
                        writeback,
                        ref_evict,
                        "writeback mismatch @{:#x}",
                        addr
                    );
                }
            }
        }
    }

    #[test]
    fn hit_rate_is_one_for_single_line(
        offsets in prop::collection::vec(0u64..64, 2..100)
    ) {
        // All accesses inside one line: everything after the first hits.
        let mut cache = Cache::new(small_config());
        cache.access(offsets[0], false);
        for &offset in &offsets[1..] {
            prop_assert!(cache.access(offset, false).is_hit());
        }
    }

    #[test]
    fn stats_count_every_access(
        accesses in prop::collection::vec((0u64..65_536, any::<bool>()), 1..500)
    ) {
        let mut cache = Cache::new(small_config());
        for &(addr, write) in &accesses {
            cache.access(addr, write);
        }
        prop_assert_eq!(cache.stats().accesses, accesses.len() as u64);
        prop_assert!(cache.stats().hits <= cache.stats().accesses);
        prop_assert!(cache.stats().writebacks <= cache.stats().misses());
    }

    #[test]
    fn probe_agrees_with_subsequent_access(
        accesses in prop::collection::vec(0u64..8_192, 1..300),
        probe_addr in 0u64..8_192,
    ) {
        let mut cache = Cache::new(small_config());
        for &addr in &accesses {
            cache.access(addr, false);
        }
        let resident = cache.probe(probe_addr);
        let hit = cache.access(probe_addr, false).is_hit();
        prop_assert_eq!(resident, hit, "probe and access disagree");
    }
}
