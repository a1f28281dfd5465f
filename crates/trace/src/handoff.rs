//! Chunked event sources, and the one helper thread that can fill them.
//!
//! A [`ChunkedSource`] serves a generator's events out of a buffer of
//! [`CHUNK`] events. When the buffer runs out it refills in one of two
//! ways, fixed when the run's sources are built:
//!
//! - **inline**: the source owns its generator and refills the buffer
//!   from it on the calling thread;
//! - **hand-off**: the generator lives in a per-source slot that the
//!   process's helper thread keeps full, and the source swaps its spent
//!   buffer for the slot's full one.
//!
//! Either way a source yields exactly its generator's stream, in order:
//! the helper only ever runs ahead by one buffer, and nothing else reads
//! the generator. Events generated past a run's budget are dropped with
//! the generators when the run's sources are dropped.
//!
//! The helper is one persistent thread, spawned on the first successful
//! claim and parked whenever it has no work. At most one run holds it at
//! a time (an atomic try-lock), and [`ChunkedSource::for_run`] tries to
//! claim it only when its run is the only one [`InFlight`] and the
//! process may run two threads at once; any other run fills inline. The
//! helper stands down while a second run is in flight, and a source fills
//! any chunk the helper has not begun itself. A generator that panics on
//! the helper has its panic caught there and resumed, with the same
//! payload, on the thread that reads the source; the helper survives it.
//! DESIGN §9.6 has the protocol and the measurements behind it.

use std::any::Any;
use std::hint;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::event::TraceEvent;
use crate::generator::EventSource;

/// Events per buffer. Two buffers per source in hand-off mode: at 16
/// cores that is 16 × 2 × 32 × 24 B ≈ 25 KB.
pub const CHUNK: usize = 32;

/// How long the helper keeps polling for work before it parks.
const HELPER_SPIN: Duration = Duration::from_micros(20);

/// `spin_loop` rounds between two polls of an idle helper: a poll every
/// microsecond or so, while the hardware thread it shares a core with, if
/// any, keeps the pipeline.
const POLL_SPINS: u32 = 32;

/// `spin_loop` rounds a source waits on an empty slot before it starts
/// yielding its time slice instead.
const CONSUMER_SPINS: u32 = 1 << 10;

type Chunk = Box<[TraceEvent; CHUNK]>;

fn chunk() -> Chunk {
    Box::new([TraceEvent::Idle { cycles: 0 }; CHUNK])
}

/// One copy of the generator loop, whichever thread fills.
#[inline(never)]
fn fill<S: EventSource>(source: &mut S, chunk: &mut Chunk) {
    for event in chunk.iter_mut() {
        *event = source.next_event();
    }
}

/// A lock that no panic can leave poisoned for good: fills catch their own
/// panics, so a poisoned mutex still holds consistent data.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] without blocking; `None` while another thread holds `mutex`.
fn try_lock<T: ?Sized>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// An [`EventSource`] that reads its generator in chunks of [`CHUNK`]
/// events, filled either inline or by the helper thread (see the module
/// docs). It yields exactly the wrapped generator's stream.
///
/// ```
/// use mapg_trace::{ChunkedSource, EventSource, InFlight, SyntheticWorkload, WorkloadProfile};
///
/// let profile = WorkloadProfile::mem_bound("chunked");
/// let run = InFlight::enter();
/// let mut sources = ChunkedSource::for_run(vec![SyntheticWorkload::new(&profile, 5)], &run);
/// let mut direct = SyntheticWorkload::new(&profile, 5);
/// for _ in 0..100 {
///     assert_eq!(sources[0].next_event(), direct.next_event());
/// }
/// ```
pub struct ChunkedSource<S> {
    chunk: Chunk,
    /// Index of the next event of `chunk` to serve; `CHUNK` when spent.
    next: usize,
    fill: Fill<S>,
}

enum Fill<S> {
    Inline(S),
    HandOff { lease: Arc<Lease<S>>, slot: usize },
}

impl<S: EventSource + Send + 'static> ChunkedSource<S> {
    /// Wraps the generators of the run `in_flight` counts, one source
    /// each. The run claims the helper when it is the only run in flight,
    /// the process may run two threads at once and the helper is free;
    /// otherwise every source fills inline. The claim is released, and the
    /// helper has let go of the generators, once the last returned source
    /// is dropped.
    pub fn for_run(generators: Vec<S>, in_flight: &InFlight) -> Vec<Self> {
        let helper = if in_flight.alone() && spare_hardware_thread() {
            try_claim()
        } else {
            None
        };
        build(generators, helper)
    }
}

/// Counts one run in flight in this process from [`InFlight::enter`]
/// until it is dropped, even by a panic. A run claims the helper only
/// while it is the only one, and the helper stands down, leaving every
/// fill to the sources, while another is in flight: with the pool's
/// workers busy, a third busy thread only takes a CPU from one of them.
#[derive(Debug)]
pub struct InFlight(());

impl InFlight {
    /// Counts the calling run in flight.
    pub fn enter() -> Self {
        IN_FLIGHT.fetch_add(1, Ordering::SeqCst);
        InFlight(())
    }

    /// Whether no other run is in flight.
    fn alone(&self) -> bool {
        alone()
    }
}

/// Whether at most one run is in flight (none only in this module's
/// tests, which build sources without a run).
fn alone() -> bool {
    IN_FLIGHT.load(Ordering::SeqCst) <= 1
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // Back to one run: wake the helper if it stood down for this one.
        if IN_FLIGHT.fetch_sub(1, Ordering::SeqCst) == 2 {
            wake_helper();
        }
    }
}

/// Wraps `generators`, handing them to `helper` when one was claimed.
fn build<S: EventSource + Send + 'static>(
    generators: Vec<S>,
    helper: Option<&'static Thread>,
) -> Vec<ChunkedSource<S>> {
    let Some(helper) = helper else {
        return generators
            .into_iter()
            .map(|source| ChunkedSource {
                chunk: chunk(),
                next: CHUNK,
                fill: Fill::Inline(source),
            })
            .collect();
    };
    let count = generators.len();
    let run = Arc::new(Slots {
        // Every slot starts empty.
        empty: (0..count.div_ceil(64))
            .map(|word| AtomicU64::new(u64::MAX >> (64 - (count - 64 * word).min(64))))
            .collect(),
        slots: generators
            .into_iter()
            .map(|source| Slot {
                handed: Line(Mutex::new(Handed {
                    chunk: chunk(),
                    full: false,
                    panic: None,
                })),
                name: source.name().to_owned(),
                source: Mutex::new(source),
            })
            .collect(),
    });
    *lock(&JOB) = Some(Arc::clone(&run) as Arc<dyn Job>);
    helper.unpark();
    SERVED.fetch_add(1, Ordering::Relaxed);
    let lease = Arc::new(Lease { run });
    (0..count)
        .map(|slot| ChunkedSource {
            chunk: chunk(),
            next: CHUNK,
            fill: Fill::HandOff {
                lease: Arc::clone(&lease),
                slot,
            },
        })
        .collect()
}

impl<S: EventSource> ChunkedSource<S> {
    // Out of the hot loop, but not `#[cold]`: it runs once per chunk.
    #[inline(never)]
    fn refill(&mut self) {
        match &mut self.fill {
            Fill::Inline(source) => fill(source, &mut self.chunk),
            Fill::HandOff { lease, slot } => lease.refill(*slot, &mut self.chunk),
        }
        self.next = 0;
    }
}

impl<S: EventSource> EventSource for ChunkedSource<S> {
    #[inline]
    fn next_event(&mut self) -> TraceEvent {
        if self.next == CHUNK {
            self.refill();
        }
        let event = self.chunk[self.next];
        self.next += 1;
        event
    }

    fn name(&self) -> &str {
        match &self.fill {
            Fill::Inline(source) => source.name(),
            Fill::HandOff { lease, slot } => &lease.run.slots[*slot].name,
        }
    }
}

/// One run's generators as the helper sees them.
struct Slots<S> {
    slots: Box<[Slot<S>]>,
    /// One bit per slot the helper has to fill, set by the source that
    /// emptied it and cleared by whichever thread takes the fill on, so a
    /// pass costs one word per 64 slots plus the fills (a 2100-core run
    /// has 2100 slots).
    empty: Box<[AtomicU64]>,
}

/// One source's hand-off point.
///
/// Whoever clears the slot's `empty` bit fills from `source` next: the
/// helper, into `handed`, or the source itself, straight into its own
/// buffer. Only the source sets the bit again, after it has taken the
/// chunk. So a slot has at most one chunk pending or being filled, and
/// chunks reach the source in generation order. The source touches
/// `source` only to fill a chunk the helper has not begun; `handed` is
/// the one cache line a swap moves between the threads.
struct Slot<S> {
    handed: Line<Mutex<Handed>>,
    source: Mutex<S>,
    name: String,
}

/// Keeps its content on cache lines of its own.
#[repr(align(64))]
struct Line<T>(T);

struct Handed {
    chunk: Chunk,
    /// `chunk` holds the slot's next events.
    full: bool,
    /// A panic the generator raised on the helper, resumed by the source.
    panic: Option<Box<dyn Any + Send>>,
}

/// The helper's view of a run, with the generator type erased.
trait Job: Send + Sync {
    /// Fills empty slots while no other run is in flight; whether it
    /// filled one.
    fn fill_empty(&self) -> bool;

    /// Whether a slot is empty.
    fn has_empty(&self) -> bool;
}

impl<S: EventSource + Send> Job for Slots<S> {
    fn fill_empty(&self) -> bool {
        let mut filled = false;
        for (word, bits) in self.empty.iter().enumerate() {
            // Read before writing: an idle poll leaves the line shared.
            let mut pending = bits.load(Ordering::Relaxed);
            while pending != 0 && alone() {
                let bit = pending & pending.wrapping_neg();
                pending &= pending - 1;
                // One slot at a time, so a source can still fill any slot
                // the helper has not reached yet.
                if bits.fetch_and(!bit, Ordering::Acquire) & bit != 0 {
                    self.fill_slot(64 * word + bit.trailing_zeros() as usize);
                    filled = true;
                }
            }
        }
        filled
    }

    fn has_empty(&self) -> bool {
        self.empty
            .iter()
            .any(|bits| bits.load(Ordering::SeqCst) != 0)
    }
}

impl<S: EventSource> Slots<S> {
    fn fill_slot(&self, index: usize) {
        let slot = &self.slots[index];
        let mut source = lock(&slot.source);
        let mut handed = lock(&slot.handed.0);
        let Handed { chunk, full, panic } = &mut *handed;
        // Caught inside the guards' scope, so neither mutex is poisoned.
        // The source never marks a panicked slot empty again, so the
        // helper never touches its generator again.
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| fill(&mut *source, chunk))) {
            *panic = Some(payload);
        }
        *full = true;
    }
}

/// A run's claim on the helper, shared by the run's sources. Dropping the
/// last one releases the claim.
struct Lease<S> {
    run: Arc<Slots<S>>,
}

impl<S: EventSource> Lease<S> {
    /// Refills `spent` with slot `index`'s next chunk and leaves the slot
    /// empty for the helper. The chunk is the slot's full buffer, swapped
    /// for `spent`, if the helper has filled it. If the helper has not
    /// taken the slot on yet (it is descheduled, or busy with other
    /// slots), this thread fills `spent` from the slot's generator itself.
    /// It waits only for a fill already under way.
    fn refill(&self, index: usize, spent: &mut Chunk) {
        let slot = &self.run.slots[index];
        let (word, bit) = (&self.run.empty[index / 64], 1 << (index % 64));
        let mut waited = 0;
        loop {
            // Blocked only while the helper fills this slot.
            if let Some(mut handed) = try_lock(&slot.handed.0) {
                if handed.full {
                    if let Some(payload) = handed.panic.take() {
                        drop(handed);
                        panic::resume_unwind(payload);
                    }
                    mem::swap(&mut handed.chunk, spent);
                    handed.full = false;
                    break;
                }
                drop(handed);
                if waited == 0 && word.fetch_and(!bit, Ordering::Acquire) & bit != 0 {
                    fill(&mut *lock(&slot.source), spent);
                    break;
                }
            }
            if waited < CONSUMER_SPINS {
                hint::spin_loop();
            } else {
                thread::yield_now();
            }
            waited += 1;
        }
        // SeqCst pairs with the helper's `PARKED` store and its second
        // look: either it sees this slot empty, or this thread sees it
        // parked and wakes it. A helper standing down for another run
        // stays parked.
        word.fetch_or(bit, Ordering::SeqCst);
        if alone() {
            wake_helper();
        }
    }
}

impl<S> Drop for Lease<S> {
    fn drop(&mut self) {
        // The helper holds the job lock for a whole fill pass, so taking
        // the job here waits that pass out: afterwards the helper holds no
        // reference to this run's generators.
        let job = lock(&JOB).take();
        drop(job);
        CLAIMED.store(false, Ordering::Release);
    }
}

/// Unparks the helper if it is parked; only the thread that lowers the
/// flag pays for the wake-up.
fn wake_helper() {
    if PARKED.load(Ordering::SeqCst) && PARKED.swap(false, Ordering::SeqCst) {
        if let Some(Some(helper)) = HELPER.get() {
            helper.unpark();
        }
    }
}

/// Runs in flight in this process (see [`InFlight`]).
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
/// The slots of the run holding the claim, if any: the helper's work.
static JOB: Mutex<Option<Arc<dyn Job>>> = Mutex::new(None);
/// Raised while the helper is parked, or about to park.
static PARKED: AtomicBool = AtomicBool::new(false);
/// The helper thread, spawned on the first claim; `None` if spawning
/// failed, in which case every run fills inline.
static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
/// The try-lock a run takes to use the helper.
static CLAIMED: AtomicBool = AtomicBool::new(false);
/// Runs the helper has served since the process started.
static SERVED: AtomicU64 = AtomicU64::new(0);

/// How many runs the helper has filled since the process started.
pub fn helper_runs() -> u64 {
    SERVED.load(Ordering::Relaxed)
}

/// Whether this process may run two threads at once: at least two CPUs
/// in its affinity mask, which `taskset` sets, and no cgroup CPU quota
/// below two CPUs. Without a readable `/proc/self/status` it says no.
/// `std::thread::available_parallelism` answers the same question, but it
/// finds the quota by walking `/proc/self/mountinfo`, and the code that
/// walk runs costs a `sim_mem_mapg` run ~0.065 MB of peak RSS, a quarter
/// of that workload's 10 % bound (DESIGN §9.6); it is used only off
/// Linux.
#[cfg(target_os = "linux")]
fn spare_hardware_thread() -> bool {
    static SPARE: OnceLock<bool> = OnceLock::new();
    *SPARE.get_or_init(|| affinity_cpus().is_some_and(|cpus| cpus >= 2) && !quota_below_two_cpus())
}

#[cfg(not(target_os = "linux"))]
fn spare_hardware_thread() -> bool {
    static SPARE: OnceLock<bool> = OnceLock::new();
    *SPARE.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

/// CPUs in this process's affinity mask: the `Cpus_allowed` hex mask of
/// `/proc/self/status`.
#[cfg(target_os = "linux")]
fn affinity_cpus() -> Option<u32> {
    let mut status = [0; 4096];
    let status = read_small("/proc/self/status", &mut status)?;
    let key = b"\nCpus_allowed:";
    let at = status.windows(key.len()).position(|w| w == key)? + key.len();
    let mask = status[at..].split(|&b| b == b'\n').next()?;
    Some(
        mask.iter()
            .filter_map(|&b| char::from(b).to_digit(16))
            .map(u32::count_ones)
            .sum(),
    )
}

/// Whether the cgroup mounted where a container sees its own caps this
/// process below two CPUs. cgroup v2 keeps `<quota> <period>` or
/// `max <period>` in `cpu.max`; v1 keeps the two in files, with -1 for no
/// quota. An unlimited quota does not parse as a `u64`.
#[cfg(target_os = "linux")]
fn quota_below_two_cpus() -> bool {
    let (mut quota, mut period) = ([0; 64], [0; 64]);
    let number = |text: &[u8]| {
        std::str::from_utf8(text.trim_ascii())
            .ok()?
            .parse::<u64>()
            .ok()
    };
    let limits = match read_small("/sys/fs/cgroup/cpu.max", &mut quota) {
        Some(max) => {
            let mut fields = max.split(|&b| b == b' ');
            fields
                .next()
                .and_then(number)
                .zip(fields.next().and_then(number))
        }
        None => read_small("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", &mut quota)
            .and_then(number)
            .zip(read_small("/sys/fs/cgroup/cpu/cpu.cfs_period_us", &mut period).and_then(number)),
    };
    limits.is_some_and(|(quota, period)| quota < 2 * period)
}

/// The start of a small file, with one `read` into `buf`: no metadata
/// call, no heap buffer, no UTF-8 check.
#[cfg(target_os = "linux")]
fn read_small<'a>(path: &str, buf: &'a mut [u8]) -> Option<&'a [u8]> {
    use std::io::Read;
    let len = std::fs::File::open(path).ok()?.read(buf).ok()?;
    Some(&buf[..len])
}

/// Claims the helper, spawning it on first use; `None` if another run
/// holds it.
fn try_claim() -> Option<&'static Thread> {
    if CLAIMED
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return None;
    }
    let helper = HELPER
        .get_or_init(|| {
            thread::Builder::new()
                .name("mapg-trace-fill".into())
                // Explicit, so spawning reads no `RUST_MIN_STACK`.
                .stack_size(2 << 20)
                .spawn(|| serve())
                .ok()
                .map(|handle| handle.thread().clone())
        })
        .as_ref();
    if helper.is_none() {
        CLAIMED.store(false, Ordering::Release);
    }
    helper
}

/// The helper's loop: fill every empty slot of the current job; when a
/// pass finds none, poll for [`HELPER_SPIN`], then park. While another
/// run is in flight it parks at once and leaves the fills to the sources.
fn serve() -> ! {
    let mut idle_since = None;
    loop {
        let filled = lock(&JOB).as_ref().is_some_and(|job| job.fill_empty());
        if filled {
            idle_since = None;
            continue;
        }
        if alone() && idle_since.get_or_insert_with(Instant::now).elapsed() < HELPER_SPIN {
            for _ in 0..POLL_SPINS {
                hint::spin_loop();
            }
            continue;
        }
        PARKED.store(true, Ordering::SeqCst);
        // Look again after raising the flag: a source that emptied its
        // slot, or a run that left, before it could see the flag did not
        // unpark us.
        if !(alone() && lock(&JOB).as_ref().is_some_and(|job| job.has_empty())) {
            thread::park();
        }
        PARKED.store(false, Ordering::SeqCst);
        idle_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyntheticWorkload, WorkloadSuite};
    use proptest::prelude::*;

    /// Claims the helper for a test, waiting while another test holds it.
    fn claim_for_test() -> &'static Thread {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(helper) = try_claim() {
                return helper;
            }
            assert!(Instant::now() < deadline, "helper never came free");
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn generators(profile_index: usize, seed: u64, cores: usize) -> Vec<SyntheticWorkload> {
        let suite = WorkloadSuite::spec_like();
        let profile = &suite.profiles()[profile_index % suite.len()];
        (0..cores)
            .map(|i| SyntheticWorkload::new(profile, seed.wrapping_add(i as u64)))
            .collect()
    }

    /// Reads `reads[i]` events from source `i % n`, round-robin, and
    /// checks each against that core's own generator.
    fn assert_streams_match(
        mut chunked: Vec<ChunkedSource<SyntheticWorkload>>,
        mut direct: Vec<SyntheticWorkload>,
        reads: &[usize],
    ) {
        for (turn, &count) in reads.iter().enumerate() {
            let core = turn % chunked.len();
            for _ in 0..count {
                assert_eq!(chunked[core].next_event(), direct[core].next_event());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chunked_streams_equal_the_generators(
            profile in 0usize..64,
            seed in any::<u64>(),
            cores in 1usize..=8,
            reads in prop::collection::vec(0usize..3 * CHUNK, 1..24),
        ) {
            let direct = || generators(profile, seed, cores);
            assert_streams_match(build(direct(), None), direct(), &reads);
            assert_streams_match(build(direct(), Some(claim_for_test())), direct(), &reads);
        }
    }

    #[test]
    fn slots_past_the_first_bitmap_word_are_filled() {
        let cores = 130;
        let reads: Vec<usize> = (0..2 * cores).map(|turn| turn % (2 * CHUNK)).collect();
        let direct = || generators(1, 3, cores);
        assert_streams_match(build(direct(), Some(claim_for_test())), direct(), &reads);
    }

    /// Yields compute quanta, then panics on event `limit`.
    struct Failing {
        served: u32,
        limit: u32,
    }

    impl EventSource for Failing {
        fn next_event(&mut self) -> TraceEvent {
            assert!(
                self.served < self.limit,
                "generator failed at {}",
                self.limit
            );
            self.served += 1;
            TraceEvent::Compute {
                cycles: 1,
                instructions: u64::from(self.served),
            }
        }

        fn name(&self) -> &str {
            "failing"
        }
    }

    #[test]
    fn a_panic_on_the_helper_reaches_the_reader_and_frees_the_helper() {
        let limit = 3 * CHUNK as u32 + 5;
        let mut sources = build(vec![Failing { served: 0, limit }], Some(claim_for_test()));
        assert_eq!(sources[0].name(), "failing");
        let Fill::HandOff { lease, .. } = &sources[0].fill else {
            panic!("a claimed run hands off");
        };
        let slot = Arc::clone(&lease.run);
        let mut read = 0;
        let payload = panic::catch_unwind(AssertUnwindSafe(|| loop {
            // Let the helper reach every chunk first, so the panic is
            // raised on the helper rather than by a fill of this thread.
            while !lock(&slot.slots[0].handed.0).full {
                thread::yield_now();
            }
            for _ in 0..CHUNK {
                sources[0].next_event();
                read += 1;
            }
        }))
        .expect_err("the generator panics");
        assert_eq!(
            read,
            3 * CHUNK,
            "every full chunk before the panic is served"
        );
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("generator failed at 101"),
        );
        drop(sources);
        drop(slot);

        let before = helper_runs();
        let mut again = build(generators(0, 7, 2), Some(claim_for_test()));
        assert!(helper_runs() > before);
        let mut direct = generators(0, 7, 2);
        for _ in 0..4 * CHUNK {
            for (chunked, direct) in again.iter_mut().zip(&mut direct) {
                assert_eq!(chunked.next_event(), direct.next_event());
            }
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_affinity_probe_bounds_std_from_above() {
        // std takes the minimum of the affinity mask and the quota.
        if let (Some(cpus), Ok(std)) = (affinity_cpus(), thread::available_parallelism()) {
            assert!(std.get() <= cpus as usize, "std {std} > affinity {cpus}");
        }
    }

    #[test]
    fn inline_sources_do_not_touch_the_helper() {
        let mut sources = build(
            vec![Failing {
                served: 0,
                limit: 10,
            }],
            None,
        );
        assert!(matches!(sources[0].fill, Fill::Inline(_)));
        let payload = panic::catch_unwind(AssertUnwindSafe(|| sources[0].next_event()))
            .expect_err("the inline fill panics on the first chunk");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("generator failed at 10"),
        );
    }
}
