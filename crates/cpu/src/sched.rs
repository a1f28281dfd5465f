//! The cluster's event-wheel scheduler: a compact binary min-heap of
//! cores keyed by local time.
//!
//! [`Cluster::run`](crate::Cluster::run) must always advance the core with
//! the globally smallest timestamp so shared-DRAM contention emerges from
//! real interleaving. The original implementation re-scanned every core
//! with a linear `min_by_key` on each event step — O(steps × cores), and
//! cache-hostile because the scan strides over the full `Core` structs
//! (workload state, histograms, …) just to read two words. This heap keeps
//! exactly those two words per core — `(local_time, core_index)` — in one
//! contiguous allocation, making a scheduling decision O(log N) with all
//! key comparisons landing in a handful of cache lines.
//!
//! Determinism: keys order lexicographically by `(time, index)`, so ties
//! in local time always resolve to the lowest core index — the same core
//! the linear scan's `min_by_key` would have picked. The equivalence is
//! enforced by the proptest oracle in `tests/proptest_scheduler.rs` and
//! by the byte-identical golden tables.

use mapg_units::Cycle;

/// Scheduling key for one core: its local timestamp plus its index as the
/// deterministic tie-break.
///
/// Packed as `(time << 32) | index` in one `u128` so the lexicographic
/// `(time, index)` order is a single scalar compare. The derived
/// two-field `Ord` compiled to a compare-branch-compare chain on the
/// sift-down's critical path; a `u128` compare is a branch-free
/// `sub`/`sbb` pair, which lets the min-of-children select below run on
/// conditional moves alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CoreKey(u128);

impl CoreKey {
    /// Packs a core's local time (primary sort key) and cluster index
    /// (tie-break, always unique).
    pub fn new(at: Cycle, index: u32) -> Self {
        CoreKey((u128::from(at.raw()) << 32) | u128::from(index))
    }

    /// The core's index within the cluster.
    pub fn index(self) -> u32 {
        self.0 as u32
    }
}

/// A hand-rolled 4-ary min-heap of [`CoreKey`]s.
///
/// `std::collections::BinaryHeap` would do, but the scheduler's common
/// operation after the run-ahead loop is *update the minimum in place*
/// (the popped core ran ahead and merely needs its key refreshed), which
/// the standard heap can only express as pop + push — two sifts instead of
/// one. The three operations here are exactly what `Cluster::run` needs.
///
/// The branching factor is 4 rather than 2: a sift-down then touches half
/// as many levels (two for 16 cores), and the min-of-children select
/// compiles to conditional moves, so the only data-dependent branch per
/// level is the final parent-vs-child compare. Heap shape is internal —
/// every valid arrangement pops the identical `(time, index)` sequence —
/// so this cannot perturb the schedule.
#[derive(Debug, Default)]
pub(crate) struct SchedHeap {
    keys: Vec<CoreKey>,
}

impl SchedHeap {
    /// An empty heap with room for `capacity` cores.
    pub fn with_capacity(capacity: usize) -> Self {
        SchedHeap {
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Number of cores currently scheduled.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The smallest key, if any.
    pub fn peek(&self) -> Option<CoreKey> {
        self.keys.first().copied()
    }

    /// Whether `key` is still the global minimum — i.e. no *other*
    /// scheduled core beats it. The run-ahead loop itself uses the fused
    /// [`SchedHeap::replace_min`] (whose fast path is exactly this test);
    /// kept for the scheduler tests, which exercise the predicate
    /// directly.
    #[cfg(test)]
    pub fn still_min(&self, key: CoreKey) -> bool {
        match self.peek() {
            Some(top) => key < top,
            None => true,
        }
    }

    /// Inserts a core.
    pub fn push(&mut self, key: CoreKey) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1);
    }

    /// The fused form of push-then-pop: returns `key` untouched when it
    /// still outranks every scheduled core (the run-ahead case, no heap
    /// traffic at all), otherwise swaps `key` into the root's place and
    /// returns the old root after one sift-down — half the work of the
    /// separate push + pop the standard heap forces.
    #[inline]
    pub fn replace_min(&mut self, key: CoreKey) -> CoreKey {
        match self.peek() {
            Some(top) if top < key => {
                self.keys[0] = key;
                self.sift_down(0);
                top
            }
            _ => key,
        }
    }

    /// Removes and returns the smallest key.
    pub fn pop(&mut self) -> Option<CoreKey> {
        let min = self.peek()?;
        let last = self.keys.pop().expect("peek succeeded, heap non-empty");
        if !self.keys.is_empty() {
            self.keys[0] = last;
            self.sift_down(0);
        }
        Some(min)
    }

    fn sift_up(&mut self, mut child: usize) {
        while child > 0 {
            let parent = (child - 1) / 4;
            if self.keys[child] >= self.keys[parent] {
                break;
            }
            self.keys.swap(child, parent);
            child = parent;
        }
    }

    fn sift_down(&mut self, mut parent: usize) {
        let len = self.keys.len();
        loop {
            let first = 4 * parent + 1;
            if first >= len {
                break;
            }
            // Branchless min over the up-to-four children: each candidate
            // folds in with a conditional move.
            let mut smallest_child = first;
            let mut smallest = self.keys[first];
            let last = (first + 4).min(len);
            for child in first + 1..last {
                let key = self.keys[child];
                let better = key < smallest;
                smallest_child = if better { child } else { smallest_child };
                smallest = if better { key } else { smallest };
            }
            if self.keys[parent] <= smallest {
                break;
            }
            self.keys.swap(parent, smallest_child);
            parent = smallest_child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, index: u32) -> CoreKey {
        CoreKey::new(Cycle::new(at), index)
    }

    #[test]
    fn pops_in_time_order() {
        let mut heap = SchedHeap::with_capacity(4);
        for (at, index) in [(30, 0), (10, 1), (20, 2), (5, 3)] {
            heap.push(key(at, index));
        }
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop())
            .map(|k| k.index())
            .collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        let mut heap = SchedHeap::with_capacity(4);
        for index in [2, 0, 3, 1] {
            heap.push(key(100, index));
        }
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop())
            .map(|k| k.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn still_min_consults_remaining_keys_only() {
        let mut heap = SchedHeap::with_capacity(3);
        heap.push(key(10, 1));
        heap.push(key(20, 2));
        let popped = heap.pop().expect("non-empty");
        assert_eq!(popped.index(), 1);
        // The popped core ran to t=15: still ahead of core 2 at t=20.
        assert!(heap.still_min(key(15, 1)));
        // At t=20 the times tie; index 1 < 2 keeps the runner in front.
        assert!(heap.still_min(key(20, 1)));
        // Past t=20 core 2 wins.
        assert!(!heap.still_min(key(21, 1)));
        // An empty heap never outranks the runner.
        let mut solo = SchedHeap::with_capacity(1);
        assert!(solo.still_min(key(u64::MAX, 0)));
        assert_eq!(solo.pop(), None);
        assert_eq!(solo.len(), 0);
    }

    /// The run-ahead fast path on an empty heap: a lone core must keep
    /// running (its key comes straight back) and the heap must stay
    /// untouched — this is every single-core simulation's steady state.
    #[test]
    fn replace_min_on_empty_heap_returns_key_unchanged() {
        let mut heap = SchedHeap::with_capacity(1);
        for at in [0, 7, u64::MAX] {
            let k = key(at, 0);
            assert_eq!(heap.replace_min(k), k);
            assert_eq!(heap.len(), 0);
        }
    }

    /// While the runner still outranks every scheduled core, `replace_min`
    /// must not move anything: no swap, no sift, heap bit-identical.
    #[test]
    fn replace_min_fast_path_leaves_heap_untouched() {
        let mut heap = SchedHeap::with_capacity(3);
        heap.push(key(50, 1));
        heap.push(key(60, 2));
        let runner = key(49, 0);
        assert_eq!(heap.replace_min(runner), runner);
        assert_eq!(heap.peek(), Some(key(50, 1)));
        assert_eq!(heap.len(), 2);
    }

    /// Tie-breaking through the fused path, both directions: at equal
    /// times the lower index must win, whether it is the runner or the
    /// scheduled core. A `<=` in place of `<` in either comparison would
    /// flip one of these and diverge from the reference scan.
    #[test]
    fn replace_min_resolves_ties_by_index() {
        // Scheduled core 1 ties the runner (index 2): core 1 preempts.
        let mut heap = SchedHeap::with_capacity(2);
        heap.push(key(100, 1));
        assert_eq!(heap.replace_min(key(100, 2)), key(100, 1));
        assert_eq!(heap.peek(), Some(key(100, 2)));

        // Runner (index 0) ties scheduled core 1: the runner keeps going.
        let mut heap = SchedHeap::with_capacity(2);
        heap.push(key(100, 1));
        assert_eq!(heap.replace_min(key(100, 0)), key(100, 0));
        assert_eq!(heap.peek(), Some(key(100, 1)));
    }

    /// Draining to empty and re-admitting (what incremental `Cluster::run`
    /// calls do when finished cores rejoin) must behave like a fresh heap.
    #[test]
    fn drain_then_readmit_behaves_like_fresh() {
        let mut heap = SchedHeap::with_capacity(2);
        heap.push(key(10, 0));
        assert_eq!(heap.pop(), Some(key(10, 0)));
        assert_eq!(heap.pop(), None);
        heap.push(key(5, 1));
        heap.push(key(3, 0));
        assert_eq!(heap.replace_min(key(4, 2)), key(3, 0));
        assert_eq!(heap.pop(), Some(key(4, 2)));
        assert_eq!(heap.pop(), Some(key(5, 1)));
        assert_eq!(heap.pop(), None);
    }

    /// Partial child families at every size around the branching factor:
    /// the sift-down child scan must clamp at `len` without skipping or
    /// over-reading (sizes 1..=6 cross the one-level/two-level boundary
    /// of the 4-ary layout).
    #[test]
    fn partial_child_families_sort_correctly() {
        for n in 1..=6u32 {
            let mut heap = SchedHeap::with_capacity(n as usize);
            // Descending pushes force a sift on every insert and leave the
            // worst-case arrangement for the pops.
            for index in 0..n {
                heap.push(key(u64::from(n - index) * 10, index));
            }
            let popped: Vec<u32> = std::iter::from_fn(|| heap.pop())
                .map(|k| k.index())
                .collect();
            let expected: Vec<u32> = (0..n).rev().collect();
            assert_eq!(popped, expected, "n = {n}");
        }
    }

    #[test]
    fn random_workout_matches_sorted_order() {
        // Deterministic xorshift stream of keys; popping must sort them.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut keys = Vec::new();
        for index in 0..200u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.push(key(x % 50, index));
        }
        let mut heap = SchedHeap::with_capacity(keys.len());
        for &k in &keys {
            heap.push(k);
        }
        assert_eq!(heap.len(), keys.len());
        let popped: Vec<CoreKey> = std::iter::from_fn(|| heap.pop()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(popped, sorted);
    }
}
