//! Supervised job execution: per-job panic quarantine and cooperative
//! cancellation.
//!
//! [`Pool::map`](crate::Pool::map) is the right tool for a batch of
//! trusted pure functions: a panic anywhere aborts the whole batch.
//! A service or a fuzz campaign needs the opposite discipline — one bad
//! job must not take the rest down — so [`Supervisor::map_supervised`]
//! turns every per-job failure into a [`JobOutcome`] instead:
//!
//! - **panic quarantine** — each job runs on its own thread under
//!   `catch_unwind`; a panic becomes [`JobOutcome::Panicked`] with the
//!   original payload message, and the rest of the batch keeps running;
//! - **cancellation** — the batch shares one [`CancelToken`], handed to
//!   every job. Cooperative jobs poll it and return early; a job still
//!   running when the token is cancelled is abandoned (its thread keeps
//!   running detached until it returns) and reported
//!   [`JobOutcome::Cancelled`], as is every job not yet started. Workers
//!   poll the token every few milliseconds, so cancellation latency is
//!   bounded by that poll interval.
//!
//! Results come back in submission order, so a supervised batch is as
//! deterministic as its jobs: outcomes depend only on job behaviour,
//! never on scheduling.
//!
//! ```
//! use mapg_pool::{JobOutcome, Supervisor};
//!
//! let outcomes = Supervisor::new(4).map_supervised(vec![1u64, 2, 3], |&x, _token| {
//!     if x == 2 {
//!         panic!("bad item");
//!     }
//!     x * 10
//! });
//! assert!(matches!(outcomes[0], JobOutcome::Ok(10)));
//! assert!(matches!(outcomes[1], JobOutcome::Panicked { .. }));
//! assert!(matches!(outcomes[2], JobOutcome::Ok(30)));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often a waiting worker re-checks the batch token. Bounds
/// cancellation latency.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// A cooperative cancellation token.
///
/// Clones share one flag: cancelling any clone cancels them all.
/// Cancellation is sticky — there is no un-cancel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Cancels this token and every clone of it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// How one supervised job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<R> {
    /// The job returned a value.
    Ok(R),
    /// The job panicked; the batch kept running.
    Panicked {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The batch was cancelled before (or while) the job ran.
    Cancelled,
}

impl<R> JobOutcome<R> {
    /// A stable machine-readable tag: `ok`, `panicked` or `cancelled`.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

/// A supervised batch executor: a worker count and the batch
/// [`CancelToken`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    jobs: usize,
    token: CancelToken,
}

impl Supervisor {
    /// A supervisor running at most `jobs` items concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "job count must be at least 1");
        Supervisor {
            jobs,
            token: CancelToken::new(),
        }
    }

    /// Uses `token` as the batch cancellation token, so an external
    /// holder — a server, a test — can cancel the batch while it runs.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Applies `f` to every item under supervision, returning one
    /// [`JobOutcome`] per item in **submission order**. `f` receives the
    /// batch token so a long job can poll it and stop early.
    ///
    /// Each job runs on a dedicated thread so a panic is quarantined
    /// instead of aborting the batch. `T: Sync + 'static` and
    /// `F: 'static` are required because an abandoned (cancelled) job
    /// thread may outlive this call.
    pub fn map_supervised<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<JobOutcome<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T, &CancelToken) -> R + Send + Sync + 'static,
    {
        let total = items.len();
        let items = Arc::new(items);
        let f = Arc::new(f);
        let results: Vec<Mutex<Option<JobOutcome<R>>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(total) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let outcome = self.run_one(index, &items, &f);
                    *results[index].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without reporting")
            })
            .collect()
    }

    /// Runs one item on a fresh job thread and waits for its result or
    /// for the batch to be cancelled.
    fn run_one<T, R, F>(&self, index: usize, items: &Arc<Vec<T>>, f: &Arc<F>) -> JobOutcome<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T, &CancelToken) -> R + Send + Sync + 'static,
    {
        if self.token.is_cancelled() {
            return JobOutcome::Cancelled;
        }
        let (tx, rx) = mpsc::channel();
        let spawned = {
            let items = Arc::clone(items);
            let f = Arc::clone(f);
            let token = self.token.clone();
            std::thread::Builder::new()
                .name(format!("mapg-job-{index}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(&items[index], &token)));
                    // The receiver may be gone (job abandoned) — ignore.
                    let _ = tx.send(result.map_err(panic_message));
                })
        };
        let handle = match spawned {
            Ok(handle) => handle,
            Err(error) => {
                return JobOutcome::Panicked {
                    message: format!("cannot spawn job thread: {error}"),
                }
            }
        };
        loop {
            match rx.recv_timeout(POLL_INTERVAL) {
                // Join a job thread that finished: its teardown releases
                // the closure's shared resources (observer handles, for
                // one), which callers may reuse as soon as
                // `map_supervised` returns. Only a cancelled job's thread
                // stays detached.
                Ok(result) => {
                    let _ = handle.join();
                    return match result {
                        Ok(value) => JobOutcome::Ok(value),
                        Err(message) => JobOutcome::Panicked { message },
                    };
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.token.is_cancelled() {
                        return JobOutcome::Cancelled;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let _ = handle.join();
                    return JobOutcome::Panicked {
                        message: "job thread exited without reporting".to_owned(),
                    };
                }
            }
        }
    }
}

/// Renders a panic payload as text, preferring the original message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use std::time::Instant;

    #[test]
    fn tokens_are_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(token.is_cancelled());
        // Independent tokens do not share a flag.
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn ok_batch_matches_plain_map() {
        let outcomes = Supervisor::new(4).map_supervised((0..16u64).collect(), |&x, _| x * x);
        assert_eq!(outcomes.len(), 16);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(*outcome, JobOutcome::Ok((i as u64) * (i as u64)));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let outcomes: Vec<JobOutcome<u32>> =
            Supervisor::new(4).map_supervised(Vec::new(), |&x: &u32, _| x);
        assert!(outcomes.is_empty());
    }

    #[test]
    fn panic_is_quarantined_not_propagated() {
        let outcomes = Supervisor::new(2).map_supervised((0..8u32).collect(), |&x, _| {
            if x == 3 {
                panic!("boom at {x}");
            }
            x
        });
        assert_eq!(outcomes.len(), 8);
        match &outcomes[3] {
            JobOutcome::Panicked { message } => assert_eq!(message, "boom at 3"),
            other => panic!("expected quarantined panic, got {other:?}"),
        }
        let ok = outcomes.iter().filter(|o| o.label() == "ok").count();
        assert_eq!(ok, 7, "every other job should complete");
    }

    /// A panic in the *last* job of the batch must still be quarantined
    /// (no off-by-one in the pull loop or result collection).
    #[test]
    fn panic_in_last_job_is_quarantined() {
        let outcomes = Supervisor::new(3).map_supervised((0..5u32).collect(), |&x, _| {
            if x == 4 {
                panic!("last job");
            }
            x
        });
        assert_eq!(outcomes[4].label(), "panicked");
        assert!(outcomes[..4].iter().all(|o| o.label() == "ok"));
    }

    /// Batch cancellation: unstarted jobs report `Cancelled`, and the
    /// call returns promptly (bounded by the worker poll interval).
    #[test]
    fn cancellation_latency_is_bounded() {
        let token = CancelToken::new();
        let supervisor = Supervisor::new(4).with_cancel_token(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let started = Instant::now();
        // 64 jobs of 10s each on 4 workers would run ~160s uncancelled.
        let outcomes = supervisor.map_supervised((0..64u32).collect(), |_, token| {
            let wake = Instant::now() + Duration::from_secs(10);
            while Instant::now() < wake && !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let elapsed = started.elapsed();
        canceller.join().unwrap();
        // Generous wall-clock bound: cancel at 50ms + poll slack; CI
        // boxes are slow, so allow seconds, not the 160s of a runaway.
        assert!(elapsed < Duration::from_secs(10), "cancel took {elapsed:?}");
        let cancelled = outcomes
            .iter()
            .filter(|o| **o == JobOutcome::Cancelled)
            .count();
        let ok = outcomes.iter().filter(|o| o.label() == "ok").count();
        assert_eq!(cancelled + ok, 64);
        assert!(cancelled > 0, "most of the batch should be cancelled");
    }

    #[test]
    fn cancelled_batch_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let outcomes = Supervisor::new(2)
            .with_cancel_token(token)
            .map_supervised(vec![1u32, 2], |&x, _| x);
        assert!(outcomes.iter().all(|o| *o == JobOutcome::Cancelled));
    }

    /// Nested pools: a supervised job may fan out across a [`Pool`] of
    /// its own (each `mapgd` job's inner suite runs on a nested pool).
    #[test]
    fn supervised_jobs_can_nest_pools() {
        let outcomes = Supervisor::new(2).map_supervised(vec![4u64, 5, 6], |&n, _| {
            crate::with_default_jobs(2, || {
                Pool::with_default_jobs()
                    .map((0..n).collect(), |x| x + 1)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        assert_eq!(
            outcomes,
            vec![JobOutcome::Ok(10), JobOutcome::Ok(15), JobOutcome::Ok(21)]
        );
    }

    /// A nested *supervised* batch inside a supervised job: panics in
    /// the inner batch stay quarantined there.
    #[test]
    fn supervised_batches_nest() {
        let outcomes = Supervisor::new(2).map_supervised(vec![0u32, 1], |&outer, _| {
            let inner = Supervisor::new(2).map_supervised(vec![0u32, 1, 2], move |&x, _| {
                if outer == 1 && x == 1 {
                    panic!("inner");
                }
                x
            });
            inner.iter().filter(|o| o.label() == "ok").count()
        });
        assert_eq!(outcomes, vec![JobOutcome::Ok(3), JobOutcome::Ok(2)]);
    }

    #[test]
    fn zero_worker_supervisor_rejected() {
        assert!(catch_unwind(|| Supervisor::new(0)).is_err());
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(JobOutcome::Ok(1u8).label(), "ok");
        assert_eq!(
            JobOutcome::<u8>::Panicked {
                message: String::new()
            }
            .label(),
            "panicked"
        );
        assert_eq!(JobOutcome::<u8>::Cancelled.label(), "cancelled");
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let outcomes = Supervisor::new(8).map_supervised((0..32u64).collect(), |&x, _| {
            std::thread::sleep(Duration::from_millis(32 - x));
            x
        });
        let values: Vec<JobOutcome<u64>> = (0..32).map(JobOutcome::Ok).collect();
        assert_eq!(outcomes, values);
    }
}
