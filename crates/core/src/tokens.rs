//! Token-limited wake-up scheduling.
//!
//! Every waking core draws a large inrush current while its virtual rail
//! recharges. If many cores wake simultaneously the combined di/dt can
//! collapse the shared supply; the token mechanism (the TAP companion
//! work's device) caps the number of *concurrent* wake-ups: a core must
//! hold a token for the duration of its wake ramp. Waiting for a token
//! delays the wake and turns into a performance penalty — the trade
//! experiment R-F8 sweeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mapg_units::{Cycle, Cycles};

/// Why a zero token capacity is refused: with no tokens no core could
/// ever wake.
pub(crate) const ZERO_CAPACITY: &str = "token capacity must be non-zero";

/// Grants at most `capacity` concurrent wake-up slots.
///
/// ```
/// use mapg::TokenManager;
/// use mapg_units::{Cycle, Cycles};
///
/// let mut tokens = TokenManager::new(1);
/// let first = tokens.acquire(Cycle::new(100), Cycles::new(10));
/// let second = tokens.acquire(Cycle::new(100), Cycles::new(10));
/// assert_eq!(first, Cycle::new(100));
/// assert_eq!(second, Cycle::new(110), "second wake waits for the token");
/// ```
#[derive(Debug, Clone)]
pub struct TokenManager {
    /// Busy-until time of each token slot.
    slots: Vec<Cycle>,
    grants: u64,
    delayed_grants: u64,
    delay_cycles: u64,
    /// Streaming sweep over the granted intervals, for exact peak
    /// concurrency in O(capacity) memory.
    ledger: Ledger,
    obs: mapg_obs::ObsHandle,
}

/// One sweep event: a token taken (`+1`) or released (`-1`) at a cycle.
/// Ordered by `(cycle, delta)`, so releases sort before takes at the same
/// instant: a token is held for the half-open `[start, end)`.
type Event = (u64, i64);

/// An exact sweep-line over granted intervals that forgets each event as
/// soon as it is final.
///
/// Every grant starts at or after the *horizon* `H = min(slots)`: a grant
/// starts at `max(ready, slots[argmin])`, and the minimum slot only ever
/// grows. So no event entered later falls before `H`: every event at or
/// before `H` is final, and the sweep consumes it. The events still
/// pending are those of the last grant on each slot — at most two per
/// slot — so memory is O(capacity) however long the run.
///
/// Events at exactly `H` may arrive in later batches (a grant starting at
/// an unmoved `H`). Such a batch brings a start at `H` with every end at
/// `H` it carries (only a zero-length grant ends at `H`), so the running
/// count at `H` never falls between batches and the peak is the one a
/// full sort would find.
#[derive(Debug, Clone, Default)]
struct Ledger {
    /// Events after the horizon, not yet swept (a min-heap).
    pending: BinaryHeap<Reverse<Event>>,
    /// Every event at or before this cycle has been swept.
    horizon: u64,
    /// Tokens held at the horizon, after every swept event.
    live: i64,
    /// Highest `live` seen over the swept events.
    peak: i64,
    /// Intervals entered.
    intervals: u64,
    /// The first interval entered with `end < start`.
    backwards: Option<(u64, u64)>,
    /// The first event entered behind the horizon, with that horizon: the
    /// sweep is exact only while this stays `None`.
    behind: Option<(u64, u64)>,
}

impl Ledger {
    /// Enters the granted interval `[start, end)`.
    fn enter(&mut self, start: u64, end: u64) {
        self.intervals += 1;
        if end < start && self.backwards.is_none() {
            self.backwards = Some((start, end));
        }
        let earliest = start.min(end);
        if earliest < self.horizon && self.behind.is_none() {
            self.behind = Some((earliest, self.horizon));
        }
        self.pending.push(Reverse((start, 1)));
        self.pending.push(Reverse((end, -1)));
    }

    /// Sweeps every pending event at or before `horizon`.
    fn sweep_to(&mut self, horizon: u64) {
        while let Some(&Reverse((at, delta))) = self.pending.peek() {
            if at > horizon {
                break;
            }
            self.pending.pop();
            self.live += delta;
            self.peak = self.peak.max(self.live);
        }
        self.horizon = self.horizon.max(horizon);
    }

    /// The peak over every interval entered: the swept peak, continued
    /// over the few pending events in order.
    fn peak(&self) -> usize {
        let mut pending: Vec<Event> = self.pending.iter().map(|&Reverse(event)| event).collect();
        pending.sort_unstable();
        let mut live = self.live;
        let mut peak = self.peak;
        for (_, delta) in pending {
            live += delta;
            peak = peak.max(live);
        }
        peak as usize
    }
}

impl TokenManager {
    /// Creates a manager with `capacity` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — with no tokens no core could ever
    /// wake.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "{ZERO_CAPACITY}");
        TokenManager {
            slots: vec![Cycle::ZERO; capacity],
            grants: 0,
            delayed_grants: 0,
            delay_cycles: 0,
            ledger: Ledger::default(),
            obs: mapg_obs::ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle; grant counts and token-wait
    /// distributions flow through it.
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.obs = obs;
    }

    /// Token capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Requests a wake slot of length `duration` no earlier than `ready`.
    /// Returns the granted start time (`>= ready`); the token is held for
    /// `[start, start + duration)`.
    pub fn acquire(&mut self, ready: Cycle, duration: Cycles) -> Cycle {
        // Earliest-available slot.
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy_until)| busy_until)
            .map(|(i, _)| i)
            .expect("capacity is non-zero");
        let start = ready.max(self.slots[slot]);
        self.slots[slot] = start + duration;
        self.grants += 1;
        self.obs.count("token_grants", 1);
        self.obs.observe("token_wait", (start - ready).raw());
        if start > ready {
            self.delayed_grants += 1;
            self.delay_cycles += (start - ready).raw();
        }
        self.ledger.enter(start.raw(), (start + duration).raw());
        let horizon = self.slots.iter().min().expect("capacity is non-zero");
        self.ledger.sweep_to(horizon.raw());
        start
    }

    /// Total grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants that had to wait for a token.
    pub fn delayed_grants(&self) -> u64 {
        self.delayed_grants
    }

    /// Total cycles of token-wait added across all grants.
    pub fn delay_cycles(&self) -> u64 {
        self.delay_cycles
    }

    /// Highest number of simultaneously held tokens over the whole run,
    /// exact (a token is held for `[start, start + duration)`). Costs a
    /// sort of at most `2 × capacity` pending events, whatever the run
    /// length.
    pub fn peak_concurrency(&self) -> usize {
        self.ledger.peak()
    }

    /// Audits token conservation: every grant left an interval, no
    /// interval runs backwards or entered the sweep behind its horizon,
    /// delayed-grant bookkeeping is mutually consistent, and concurrency
    /// never exceeded capacity. Returns one message per broken law.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.grants != self.ledger.intervals {
            problems.push(format!(
                "token ledger: {} grants but {} recorded intervals",
                self.grants, self.ledger.intervals
            ));
        }
        if let Some((start, end)) = self.ledger.backwards {
            problems.push(format!(
                "token ledger: interval runs backwards ({start} → {end})"
            ));
        }
        if let Some((at, horizon)) = self.ledger.behind {
            problems.push(format!(
                "token ledger: event at {at} entered behind the swept horizon {horizon}"
            ));
        }
        if self.delayed_grants > self.grants {
            problems.push(format!(
                "token ledger: {} delayed grants exceed {} total grants",
                self.delayed_grants, self.grants
            ));
        }
        if self.delay_cycles > 0 && self.delayed_grants == 0 {
            problems.push(format!(
                "token ledger: {} delay cycles with zero delayed grants",
                self.delay_cycles
            ));
        }
        let peak = self.peak_concurrency();
        if peak > self.capacity() {
            problems.push(format!(
                "token conservation: peak concurrency {peak} exceeds \
                 capacity {}",
                self.capacity()
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_grants_up_to_capacity() {
        let mut t = TokenManager::new(3);
        for _ in 0..3 {
            assert_eq!(t.acquire(Cycle::new(50), Cycles::new(10)), Cycle::new(50));
        }
        // Fourth must wait.
        assert_eq!(t.acquire(Cycle::new(50), Cycles::new(10)), Cycle::new(60));
        assert_eq!(t.grants(), 4);
        assert_eq!(t.delayed_grants(), 1);
        assert_eq!(t.delay_cycles(), 10);
        assert_eq!(t.peak_concurrency(), 3);
    }

    #[test]
    fn tokens_free_over_time() {
        let mut t = TokenManager::new(1);
        assert_eq!(t.acquire(Cycle::new(0), Cycles::new(10)), Cycle::new(0));
        // Requested after the first released: no delay.
        assert_eq!(t.acquire(Cycle::new(20), Cycles::new(10)), Cycle::new(20));
        assert_eq!(t.delayed_grants(), 0);
    }

    #[test]
    fn cascading_delays_serialize() {
        let mut t = TokenManager::new(1);
        let starts: Vec<_> = (0..4)
            .map(|_| t.acquire(Cycle::new(0), Cycles::new(25)).raw())
            .collect();
        assert_eq!(starts, vec![0, 25, 50, 75]);
        assert_eq!(t.delay_cycles(), 25 + 50 + 75);
    }

    #[test]
    #[should_panic(expected = "token capacity")]
    fn zero_capacity_rejected() {
        let _ = TokenManager::new(0);
    }

    #[test]
    fn capacity_accessor() {
        assert_eq!(TokenManager::new(7).capacity(), 7);
    }

    #[test]
    fn audit_passes_on_normal_use() {
        let mut t = TokenManager::new(2);
        for i in 0..10u64 {
            t.acquire(Cycle::new(i * 3), Cycles::new(10));
        }
        assert!(t.audit().is_empty(), "{:?}", t.audit());
    }

    #[test]
    fn ledger_holds_at_most_two_events_per_slot() {
        let mut t = TokenManager::new(4);
        for i in 0..10_000u64 {
            // Out-of-order readiness, zero-length and long ramps.
            let ready = (i * 7_919) % 5_000 + i / 2;
            t.acquire(Cycle::new(ready), Cycles::new(i % 13));
            assert!(t.ledger.pending.len() <= 2 * t.capacity());
        }
        assert!(t.audit().is_empty(), "{:?}", t.audit());
    }

    #[test]
    fn zero_length_grants_at_the_horizon_keep_the_peak() {
        let mut t = TokenManager::new(2);
        t.acquire(Cycle::new(10), Cycles::new(5));
        t.acquire(Cycle::new(10), Cycles::new(0));
        t.acquire(Cycle::new(10), Cycles::new(0));
        t.acquire(Cycle::new(10), Cycles::new(3));
        // [10,15) and [10,13) overlap; the empty grants hold nothing.
        assert_eq!(t.peak_concurrency(), 2);
        assert!(t.audit().is_empty(), "{:?}", t.audit());
    }

    #[test]
    fn event_behind_the_horizon_is_a_ledger_violation() {
        let mut t = TokenManager::new(1);
        t.acquire(Cycle::new(100), Cycles::new(10));
        assert!(t.audit().is_empty());
        // Every future grant starts at or after 110; one that does not
        // would make the sweep inexact, so the audit must say so.
        t.grants += 1;
        t.ledger.enter(50, 60);
        let problems = t.audit();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("event at 50 entered behind the swept horizon 110"),
            "{problems:?}"
        );
    }

    /// Pins the call-order allocation: a request waits behind later
    /// reservations even when no token is held at its ready time. See
    /// DESIGN §4 ("Token allocation is call-ordered").
    #[test]
    fn early_request_waits_behind_future_reservations() {
        let mut t = TokenManager::new(2);
        assert_eq!(t.acquire(Cycle::new(500), Cycles::new(10)), Cycle::new(500));
        assert_eq!(t.acquire(Cycle::new(500), Cycles::new(10)), Cycle::new(500));
        // Nothing is held over [0, 500), yet the request queues to 510.
        assert_eq!(t.acquire(Cycle::new(100), Cycles::new(10)), Cycle::new(510));
        assert_eq!(t.delayed_grants(), 1);
        assert_eq!(t.delay_cycles(), 410);
        assert_eq!(t.peak_concurrency(), 2);
    }
}
