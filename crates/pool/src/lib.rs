//! Vendored work-sharing thread pool for the MAPG workspace.
//!
//! The build environment has no registry access, so instead of `rayon` the
//! workspace vendors this std-only pool covering exactly what the
//! simulation harness needs:
//!
//! - [`Pool::map`] — an **ordered** parallel map: results come back in
//!   submission order regardless of completion order, so seeded
//!   (deterministic) runs produce bit-identical output at any job count;
//! - **scoped workers** — workers borrow from the caller's stack via
//!   [`std::thread::scope`], no `'static` bounds on items or closures;
//! - **work sharing** — workers pull the next item index from a shared
//!   atomic counter, so an uneven matrix (one slow simulation, many fast
//!   ones) still keeps every worker busy;
//! - **panic propagation** — the first worker panic cancels remaining
//!   items and is re-raised on the calling thread with its original
//!   payload;
//! - a **degenerate serial path** — `jobs == 1` (or a single item) runs
//!   inline on the caller with no threads spawned, which is the baseline
//!   the determinism tests compare against;
//! - a **supervised mode** — [`Supervisor::map_supervised`] runs each
//!   job on its own thread with panic quarantine (per-job
//!   [`JobOutcome`]s instead of batch aborts) and cooperative
//!   cancellation ([`CancelToken`]), for the daemon and the fuzz
//!   campaign, where one bad job must not take down the rest.
//!
//! ```
//! use mapg_pool::Pool;
//!
//! let squares = Pool::new(4).map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! # Default job count
//!
//! [`default_jobs`] resolves to [`std::thread::available_parallelism`],
//! overridable per-thread with [`with_default_jobs`] so a harness (or a
//! test) can pin the whole call tree beneath it — e.g. the `experiments`
//! binary pins each experiment's inner [`run_all`] batches to the
//! `--jobs` value, and the determinism tests pin `1` vs `N` without
//! touching process-global state.
//!
//! [`run_all`]: https://docs.rs/mapg

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fair;
mod supervise;

pub use fair::{ClientStats, Dispatch, FairQueue, Priority};
pub use supervise::{CancelToken, JobOutcome, Supervisor};

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static DEFAULT_JOBS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The job count [`Pool::with_default_jobs`] uses: the innermost active
/// [`with_default_jobs`] override on this thread, else the
/// `MAPG_JOBS` environment variable (see [`env_jobs`]), else
/// [`std::thread::available_parallelism`] (1 if that is unavailable).
pub fn default_jobs() -> usize {
    DEFAULT_JOBS.with(|cell| match cell.get() {
        Some(jobs) => jobs,
        None => env_jobs().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
    })
}

/// The process-wide worker budget from the `MAPG_JOBS` environment
/// variable, if set to a positive integer (read once, then cached).
///
/// This is how a scheduler that spawns worker *processes* (a CI runner,
/// an operator wrapping `mapgsim`/`experiments` under a job manager)
/// threads a worker budget into every pool in the child's process tree
/// without touching each call site; `mapgd` grants the same per-job
/// budget in-process via [`with_default_jobs`]. Unparseable or zero
/// values are ignored.
pub fn env_jobs() -> Option<usize> {
    static ENV_JOBS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV_JOBS.get_or_init(|| parse_jobs(std::env::var("MAPG_JOBS").ok().as_deref()))
}

/// Parses a worker-budget string: a positive integer, else `None`.
fn parse_jobs(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Runs `f` with [`default_jobs`] pinned to `jobs` on the current thread,
/// restoring the previous value afterwards (also on panic).
///
/// The override is thread-local and nestable, so concurrent tests (and the
/// pool's own workers) never observe each other's setting.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn with_default_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    assert!(jobs > 0, "job count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEFAULT_JOBS.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(DEFAULT_JOBS.with(|cell| cell.replace(Some(jobs))));
    f()
}

/// A work-sharing pool configured with a job count.
///
/// The pool is a lightweight handle: workers are scoped to each
/// [`map`](Pool::map) call rather than kept alive between calls, which
/// keeps the crate `unsafe`-free and lets closures borrow locals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running at most `jobs` items concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "job count must be at least 1");
        Pool { jobs }
    }

    /// A pool sized by [`default_jobs`].
    pub fn with_default_jobs() -> Self {
        Pool::new(default_jobs())
    }

    /// The configured job count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, returning results in **submission
    /// order** regardless of which worker finished first.
    ///
    /// With `jobs == 1` (or fewer than two items) this degenerates to a
    /// plain serial loop on the calling thread — byte-identical behaviour,
    /// zero threads.
    ///
    /// # Panics
    ///
    /// If a worker's `f` panics, remaining unstarted items are cancelled
    /// and the first panic payload is re-raised on the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.jobs == 1 || items.len() < 2 {
            return items.into_iter().map(f).collect();
        }

        let total = items.len();
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(total) {
                scope.spawn(|| {
                    while !poisoned.load(Ordering::Acquire) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(index) else { break };
                        let item = slot
                            .lock()
                            .expect("input slot poisoned")
                            .take()
                            .expect("item taken twice");
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(result) => {
                                *results[index].lock().expect("result slot poisoned") =
                                    Some(result);
                            }
                            Err(payload) => {
                                let mut first = first_panic.lock().expect("panic slot poisoned");
                                if first.is_none() {
                                    *first = Some(payload);
                                }
                                poisoned.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                });
            }
        });

        if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without producing a result")
            })
            .collect()
    }
}

impl Default for Pool {
    /// Equivalent to [`Pool::with_default_jobs`].
    fn default() -> Self {
        Pool::with_default_jobs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn jobs_env_parser_accepts_positive_integers_only() {
        assert_eq!(parse_jobs(None), None);
        assert_eq!(parse_jobs(Some("")), None);
        assert_eq!(parse_jobs(Some("0")), None);
        assert_eq!(parse_jobs(Some("-3")), None);
        assert_eq!(parse_jobs(Some("many")), None);
        assert_eq!(parse_jobs(Some("4")), Some(4));
        assert_eq!(parse_jobs(Some(" 16 ")), Some(16));
    }

    #[test]
    fn thread_local_override_beats_env_budget() {
        // Whatever MAPG_JOBS says (usually unset under `cargo test`),
        // an explicit with_default_jobs pin must win.
        assert_eq!(with_default_jobs(3, default_jobs), 3);
    }

    #[test]
    fn map_preserves_submission_order() {
        // Later items finish first (earlier ones sleep longer), so ordered
        // output proves reordering happens on collection, not by luck.
        let items: Vec<u64> = (0..32).collect();
        let out = Pool::new(8).map(items, |x| {
            std::thread::sleep(Duration::from_millis(32 - x));
            x * 10
        });
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_map() {
        let serial: Vec<u64> = (0..100u64).map(|x| x.wrapping_mul(x) ^ 7).collect();
        let parallel = Pool::new(5).map((0..100u64).collect(), |x| x.wrapping_mul(x) ^ 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_one_runs_inline_without_threads() {
        let caller = std::thread::current().id();
        let out = Pool::new(1).map(vec![1, 2, 3], |x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn single_item_runs_inline() {
        let caller = std::thread::current().id();
        let out = Pool::new(8).map(vec![41], |x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = Pool::new(4).map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_borrow_from_the_caller() {
        let counter = AtomicUsize::new(0);
        let out = Pool::new(4).map((0..10).collect(), |x: usize| {
            counter.fetch_add(x, Ordering::Relaxed)
        });
        assert_eq!(out.len(), 10);
        assert_eq!(counter.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).map((0..16).collect(), |x: u32| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                x
            });
        }));
        let payload = result.expect_err("panic should propagate");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload should be the original format string");
        assert_eq!(message, "boom at 5");
    }

    #[test]
    fn panic_cancels_remaining_items() {
        let started = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Two workers; item 0 panics immediately, so the pool should
            // stop well before all 10 000 items have been started.
            Pool::new(2).map((0..10_000).collect(), |x: u32| {
                started.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("early");
                }
                std::thread::sleep(Duration::from_millis(1));
                x
            });
        }));
        assert!(result.is_err());
        assert!(
            started.load(Ordering::Relaxed) < 10_000,
            "panic did not cancel the remaining work"
        );
    }

    #[test]
    fn zero_jobs_rejected() {
        assert!(catch_unwind(|| Pool::new(0)).is_err());
        assert!(catch_unwind(|| with_default_jobs(0, || ())).is_err());
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn with_default_jobs_overrides_and_restores() {
        let ambient = default_jobs();
        let seen = with_default_jobs(3, || {
            assert_eq!(Pool::with_default_jobs().jobs(), 3);
            with_default_jobs(7, default_jobs)
        });
        assert_eq!(seen, 7);
        assert_eq!(default_jobs(), ambient);
    }

    #[test]
    fn with_default_jobs_restores_on_panic() {
        let ambient = default_jobs();
        let _ = catch_unwind(|| with_default_jobs(2, || panic!("inner")));
        assert_eq!(default_jobs(), ambient);
    }

    #[test]
    fn with_default_jobs_is_thread_local() {
        with_default_jobs(9999, || {
            assert_eq!(default_jobs(), 9999);
            // A fresh thread sees the ambient default, not our override.
            let inner = std::thread::scope(|s| s.spawn(default_jobs).join().unwrap());
            assert_ne!(inner, 9999);
        });
    }
}
