//! Chunked event sources, and the one helper thread that can fill them.
//!
//! A [`ChunkedSource`] serves events out of a buffer of [`CHUNK`] events,
//! each packed into one 8-byte word when it is generated and unpacked
//! when the core reads it (see `pack`). When the buffer runs out it
//! refills in one of two ways, fixed when the run's sources are built:
//!
//! - **inline**: the source owns its generator and refills the buffer
//!   from it on the calling thread;
//! - **hand-off**: the generator lives in a per-source slot that the
//!   process's helper thread keeps full, and the source swaps its spent
//!   buffer for the slot's full one.
//!
//! Either way a source yields exactly its generator's stream, in order:
//! the helper only ever runs ahead by one buffer, nothing else reads the
//! generator, and an event too wide for a word is kept whole beside the
//! buffer. Events generated past a run's budget are dropped with the
//! generators when the run's sources are dropped.
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

use crate::event::{AccessKind, MemAccess, TraceEvent};
use crate::generator::EventSource;

/// Events per buffer, one 8-byte word each. Two buffers per source in
/// hand-off mode: at 16 cores that is 16 × 2 × 128 × 8 B = 32 KiB.
pub const CHUNK: usize = 128;

/// How long the helper keeps polling for work before it parks.
const HELPER_SPIN: Duration = Duration::from_micros(20);

/// `spin_loop` rounds between two polls of an idle helper: a poll every
/// microsecond or so, while the hardware thread it shares a core with, if
/// any, keeps the pipeline.
const POLL_SPINS: u32 = 32;

/// `spin_loop` rounds a source waits on an empty slot before it starts
/// yielding its time slice instead.
const CONSUMER_SPINS: u32 = 1 << 10;

/// Low bits of a packed word: which [`TraceEvent`] it holds, or that the
/// event sits whole in its chunk's `wide` list.
const TAG_BITS: u32 = 2;
const COMPUTE: u64 = 0;
const ACCESS: u64 = 1;
const IDLE: u64 = 2;
const WIDE: u64 = 3;

/// Field widths of the narrow words. A `Compute` word holds its cycles,
/// then its instructions; a `MemAccess` word a store bit, a dependent
/// bit, the pc, then the address; an `Idle` word its cycles. Each
/// fills the 62 bits above the tag.
const COUNT_BITS: u32 = 31;
const PC_BITS: u32 = 23;
const ADDR_BITS: u32 = 37;
const IDLE_BITS: u32 = 64 - TAG_BITS;

const PC_SHIFT: u32 = TAG_BITS + 2;
const ADDR_SHIFT: u32 = PC_SHIFT + PC_BITS;

/// `event` as one narrow word, if each of its fields fits its width.
#[inline]
fn narrow(event: &TraceEvent) -> Option<u64> {
    match *event {
        TraceEvent::Compute {
            cycles,
            instructions,
        } => ((cycles | instructions) >> COUNT_BITS == 0)
            .then_some(COMPUTE | cycles << TAG_BITS | instructions << (TAG_BITS + COUNT_BITS)),
        TraceEvent::MemAccess(MemAccess {
            addr,
            pc,
            kind,
            dependent,
        }) => (pc >> PC_BITS == 0 && addr >> ADDR_BITS == 0).then_some(
            ACCESS
                | u64::from(kind == AccessKind::Store) << TAG_BITS
                | u64::from(dependent) << (TAG_BITS + 1)
                | pc << PC_SHIFT
                | addr << ADDR_SHIFT,
        ),
        TraceEvent::Idle { cycles } => {
            (cycles >> IDLE_BITS == 0).then_some(IDLE | cycles << TAG_BITS)
        }
    }
}

/// `event` as one word: its narrow word, or a `WIDE` word that indexes
/// the event, pushed whole onto `wide`. No event is lost.
#[inline]
fn pack(event: TraceEvent, wide: &mut Vec<TraceEvent>) -> u64 {
    narrow(&event).unwrap_or_else(|| {
        wide.push(event);
        WIDE | ((wide.len() - 1) as u64) << TAG_BITS
    })
}

/// The event [`pack`] turned into `word`, with the same `wide` list.
#[inline(always)]
fn unpack(word: u64, wide: &[TraceEvent]) -> TraceEvent {
    let field = |shift: u32, bits: u32| (word >> shift) & ((1 << bits) - 1);
    match word & ((1 << TAG_BITS) - 1) {
        COMPUTE => TraceEvent::Compute {
            cycles: field(TAG_BITS, COUNT_BITS),
            instructions: word >> (TAG_BITS + COUNT_BITS),
        },
        ACCESS => TraceEvent::MemAccess(MemAccess {
            addr: word >> ADDR_SHIFT,
            pc: field(PC_SHIFT, PC_BITS),
            kind: if field(TAG_BITS, 1) != 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            dependent: field(TAG_BITS + 1, 1) != 0,
        }),
        IDLE => TraceEvent::Idle {
            cycles: word >> TAG_BITS,
        },
        _ => wide[(word >> TAG_BITS) as usize],
    }
}

/// One buffer: [`CHUNK`] packed events, and the events too wide to pack
/// that its `WIDE` words index, in stream order. A swap moves both.
struct Chunk {
    words: Box<[u64; CHUNK]>,
    /// Empty unless a generator emits a field past its narrow width; it
    /// keeps its capacity from fill to fill.
    wide: Vec<TraceEvent>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            words: Box::new([0; CHUNK]),
            wide: Vec::new(),
        }
    }
}

/// One copy of the generator loop, whichever thread fills.
#[inline(never)]
fn fill<S: EventSource>(source: &mut S, chunk: &mut Chunk) {
    chunk.wide.clear();
    for word in chunk.words.iter_mut() {
        *word = pack(source.next_event(), &mut chunk.wide);
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
/// packed events, filled either inline or by the helper thread (see the
/// module docs). It yields exactly the wrapped generator's stream.
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
                chunk: Chunk::new(),
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
                    chunk: Chunk::new(),
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
            chunk: Chunk::new(),
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
        let word = self.chunk.words[self.next];
        self.next += 1;
        unpack(word, &self.chunk.wide)
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
    use crate::{SyntheticWorkload, WorkloadProfile, WorkloadSuite};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
    fn assert_streams_match<S: EventSource>(
        mut chunked: Vec<ChunkedSource<S>>,
        mut direct: Vec<S>,
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

    /// Field values around every narrow width: small, just under and just
    /// past each bound, odd, anything, and `u64::MAX`.
    fn field() -> impl Strategy<Value = u64> {
        let widths = [COUNT_BITS, PC_BITS, ADDR_BITS, IDLE_BITS, 63];
        prop_oneof![
            0u64..4096,
            (0..widths.len(), 0u64..3).prop_map(move |(w, d)| (1 << widths[w]) - 2 + d),
            any::<u64>().prop_map(|x| x | 1),
            any::<u64>(),
            Just(u64::MAX),
        ]
    }

    fn event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            (field(), field()).prop_map(|(cycles, instructions)| TraceEvent::Compute {
                cycles,
                instructions
            }),
            (field(), field(), any::<bool>(), any::<bool>()).prop_map(
                |(addr, pc, store, dependent)| TraceEvent::MemAccess(MemAccess {
                    addr,
                    pc,
                    kind: if store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    },
                    dependent,
                })
            ),
            field().prop_map(|cycles| TraceEvent::Idle { cycles }),
        ]
    }

    /// A deterministic stream that mixes narrow events with events past
    /// every narrow width, about one in `wide_every` wide.
    struct Scripted {
        rng: StdRng,
        wide_every: u64,
    }

    impl EventSource for Scripted {
        fn next_event(&mut self) -> TraceEvent {
            let x = self.rng.next_u64();
            let wide = x.is_multiple_of(self.wide_every);
            let (small, big) = (x >> 40, x | 1 << 63);
            match (x >> 8) % 3 {
                0 => TraceEvent::Compute {
                    cycles: if wide { big } else { small },
                    instructions: small,
                },
                1 => TraceEvent::MemAccess(MemAccess {
                    addr: if wide { big } else { small | 1 },
                    pc: small >> 2,
                    kind: if x & 1 == 0 {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    },
                    dependent: x & 2 != 0,
                }),
                _ => TraceEvent::Idle {
                    cycles: if wide { u64::MAX } else { small },
                },
            }
        }

        fn name(&self) -> &str {
            "scripted"
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packing_is_lossless(events in prop::collection::vec(event(), 1..CHUNK + 1)) {
            let mut wide = Vec::new();
            let words: Vec<u64> = events.iter().map(|&event| pack(event, &mut wide)).collect();
            for (&event, &word) in events.iter().zip(&words) {
                prop_assert_eq!(unpack(word, &wide), event);
                prop_assert_eq!(word & ((1 << TAG_BITS) - 1) == WIDE, narrow(&event).is_none());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn wide_events_cross_both_fill_paths(
            seed in any::<u64>(),
            wide_every in 1u64..=64,
            cores in 1usize..=4,
            reads in prop::collection::vec(0usize..3 * CHUNK, 1..16),
        ) {
            let direct = || {
                (0..cores as u64)
                    .map(|i| Scripted {
                        rng: StdRng::seed_from_u64(seed ^ i),
                        wide_every,
                    })
                    .collect::<Vec<_>>()
            };
            assert_streams_match(build(direct(), None), direct(), &reads);
            assert_streams_match(build(direct(), Some(claim_for_test())), direct(), &reads);
        }
    }

    /// Every generator stream a reported number or the benchmark reads
    /// stays on the narrow path: the first million events of each suite
    /// profile at the benchmark's per-core seeds (42–57) and R-T4's
    /// replica seeds (`1_000 + 977·i`, `mapg::Replication`).
    #[test]
    fn generated_streams_pack_narrow() {
        let mut profiles = WorkloadSuite::spec_like().profiles().to_vec();
        profiles.extend([
            WorkloadProfile::mem_bound("mem_bound"),
            WorkloadProfile::compute_bound("compute_bound"),
            WorkloadProfile::mixed("mixed"),
        ]);
        let seeds: Vec<u64> = (42..58).chain((0..8).map(|i| 1_000 + 977 * i)).collect();
        let work: Vec<(&WorkloadProfile, u64)> = profiles
            .iter()
            .flat_map(|profile| seeds.iter().map(move |&seed| (profile, seed)))
            .collect();
        thread::scope(|scope| {
            for part in work.chunks(work.len().div_ceil(2)) {
                scope.spawn(move || {
                    for &(profile, seed) in part {
                        let mut source = SyntheticWorkload::new(profile, seed);
                        for n in 0..1_000_000 {
                            let event = source.next_event();
                            assert!(
                                narrow(&event).is_some(),
                                "{} seed {seed} event {n} is wide: {event:?}",
                                profile.name(),
                            );
                        }
                    }
                });
            }
        });
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
            Some(format!("generator failed at {limit}").as_str()),
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
