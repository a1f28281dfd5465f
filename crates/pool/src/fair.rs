//! Fair multi-tenant job queue: the scheduling policy under `mapgd`.
//!
//! [`FairQueue`] decides *which* job runs next when many clients share
//! one daemon; the [`Supervisor`](crate::Supervisor) then decides *how*
//! it runs (panic quarantine and cancellation). The policy:
//!
//! - **per-client FIFO** — within one client and one priority class,
//!   jobs dispatch in submission order;
//! - **priorities** — higher [`Priority`] values dispatch first,
//!   strictly: a priority-2 job anywhere beats every priority-1 job
//!   (within a client a higher-priority job overtakes earlier
//!   lower-priority submissions);
//! - **round-robin across clients** — among clients whose best pending
//!   priority ties, dispatch rotates in client-registration order
//!   starting after the last dispatched client, so one chatty tenant
//!   cannot starve the rest;
//! - **per-client in-flight quotas** — a client at its quota is
//!   ineligible until [`FairQueue::mark_done`] frees a slot; its queued
//!   jobs wait without blocking other clients;
//! - **cancellation by id** — a queued job can be removed before it
//!   ever dispatches ([`FairQueue::cancel`]); cancelling *running* jobs
//!   is the executor's business (cancel the job's
//!   [`CancelToken`](crate::CancelToken)).
//!
//! The queue is a plain single-threaded data structure — deterministic
//! and directly testable. A server wraps it in a `Mutex` + `Condvar`
//! and calls [`FairQueue::next`] from its runner threads.

use std::collections::VecDeque;

/// Job priority: higher dispatches first. The default is 1; 0 is a
/// background class.
pub type Priority = u8;

/// One queued job, not yet dispatched.
#[derive(Debug, Clone)]
struct Queued<T> {
    id: u64,
    priority: Priority,
    seq: u64,
    payload: T,
}

/// One tenant's state: FIFO queue, in-flight count, quota.
#[derive(Debug)]
struct Client<T> {
    name: String,
    queue: VecDeque<Queued<T>>,
    inflight: usize,
    quota: usize,
}

/// A dispatched job, as returned by [`FairQueue::next`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatch<T> {
    /// The queue-assigned job id (process-unique, monotonic).
    pub id: u64,
    /// The submitting client.
    pub client: String,
    /// The job's priority class.
    pub priority: Priority,
    /// The job payload.
    pub payload: T,
}

/// Aggregate queue statistics for one client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientStats {
    /// Client name.
    pub client: String,
    /// Jobs queued (not yet dispatched).
    pub queued: usize,
    /// Jobs dispatched and not yet marked done.
    pub inflight: usize,
    /// The client's in-flight quota.
    pub quota: usize,
}

/// The fair multi-tenant queue. See the module docs for the policy.
#[derive(Debug)]
pub struct FairQueue<T> {
    clients: Vec<Client<T>>,
    /// Index (into `clients`) where the round-robin scan starts: one
    /// past the last dispatched client.
    cursor: usize,
    next_id: u64,
    next_seq: u64,
    default_quota: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue where every client may have up to `default_quota`
    /// jobs in flight at once.
    ///
    /// # Panics
    ///
    /// Panics if `default_quota` is zero (a zero quota could never
    /// dispatch anything).
    pub fn new(default_quota: usize) -> Self {
        assert!(default_quota > 0, "quota must be at least 1");
        FairQueue {
            clients: Vec::new(),
            cursor: 0,
            next_id: 1,
            next_seq: 0,
            default_quota,
        }
    }

    fn client_index(&mut self, name: &str) -> usize {
        match self.clients.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.clients.push(Client {
                    name: name.to_owned(),
                    queue: VecDeque::new(),
                    inflight: 0,
                    quota: self.default_quota,
                });
                self.clients.len() - 1
            }
        }
    }

    /// Enqueues a job for `client` and returns its id.
    pub fn submit(&mut self, client: &str, priority: Priority, payload: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = self.client_index(client);
        self.clients[index].queue.push_back(Queued {
            id,
            priority,
            seq,
            payload,
        });
        id
    }

    /// Caps `client` at `quota` concurrent in-flight jobs (registering
    /// the client if it has not submitted yet).
    ///
    /// # Panics
    ///
    /// Panics if `quota` is zero.
    pub fn set_quota(&mut self, client: &str, quota: usize) {
        assert!(quota > 0, "quota must be at least 1");
        let index = self.client_index(client);
        self.clients[index].quota = quota;
    }

    /// Removes a still-queued job, returning its payload. `None` when
    /// the id is unknown or the job already dispatched.
    pub fn cancel(&mut self, id: u64) -> Option<T> {
        for client in &mut self.clients {
            if let Some(pos) = client.queue.iter().position(|j| j.id == id) {
                return client.queue.remove(pos).map(|j| j.payload);
            }
        }
        None
    }

    /// Dispatches the next job under the fairness policy, or `None`
    /// when no client is eligible (all empty or all at quota).
    ///
    /// The dispatched client's in-flight count is incremented; the
    /// executor must call [`mark_done`](Self::mark_done) when the job
    /// finishes (however it finishes) to free the slot.
    // Not an Iterator: dispatch mutates quota state and must stay
    // `&mut self`-with-side-effects, not a resumable iteration.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Dispatch<T>> {
        let n = self.clients.len();
        if n == 0 {
            return None;
        }
        // Highest pending priority among clients under quota.
        let best = self
            .clients
            .iter()
            .filter(|c| c.inflight < c.quota)
            .flat_map(|c| c.queue.iter().map(|j| j.priority))
            .max()?;
        // Round-robin: first client at or after the cursor holding a
        // job at that priority (and under quota).
        for step in 0..n {
            let index = (self.cursor + step) % n;
            let client = &mut self.clients[index];
            if client.inflight >= client.quota {
                continue;
            }
            // Oldest job at the best priority (per-client FIFO within
            // the priority class).
            let pick = client
                .queue
                .iter()
                .enumerate()
                .filter(|(_, j)| j.priority == best)
                .min_by_key(|(_, j)| j.seq)
                .map(|(pos, _)| pos);
            if let Some(pos) = pick {
                let job = client.queue.remove(pos).expect("position just found");
                client.inflight += 1;
                self.cursor = (index + 1) % n;
                return Some(Dispatch {
                    id: job.id,
                    client: client.name.clone(),
                    priority: job.priority,
                    payload: job.payload,
                });
            }
        }
        None
    }

    /// Frees one in-flight slot for `client` (the job finished,
    /// whatever its outcome).
    pub fn mark_done(&mut self, client: &str) {
        if let Some(c) = self.clients.iter_mut().find(|c| c.name == client) {
            c.inflight = c.inflight.saturating_sub(1);
        }
    }

    /// Total queued (undispatched) jobs across all clients.
    pub fn queued(&self) -> usize {
        self.clients.iter().map(|c| c.queue.len()).sum()
    }

    /// Total dispatched-but-unfinished jobs across all clients.
    pub fn inflight(&self) -> usize {
        self.clients.iter().map(|c| c.inflight).sum()
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queued() == 0 && self.inflight() == 0
    }

    /// Per-client statistics, in client-registration order.
    pub fn stats(&self) -> Vec<ClientStats> {
        self.clients
            .iter()
            .map(|c| ClientStats {
                client: c.name.clone(),
                queued: c.queue.len(),
                inflight: c.inflight,
                quota: c.quota,
            })
            .collect()
    }

    /// Drains every queued job (e.g. at shutdown), returning
    /// `(id, client, payload)` triples in no particular order.
    pub fn drain(&mut self) -> Vec<(u64, String, T)> {
        let mut out = Vec::new();
        for client in &mut self.clients {
            while let Some(job) = client.queue.pop_front() {
                out.push((job.id, client.name.clone(), job.payload));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch everything currently eligible, recording client names.
    fn drain_order(queue: &mut FairQueue<&'static str>) -> Vec<(String, &'static str)> {
        let mut order = Vec::new();
        while let Some(d) = queue.next() {
            order.push((d.client.clone(), d.payload));
            queue.mark_done(&d.client);
        }
        order
    }

    #[test]
    fn per_client_fifo_is_preserved() {
        let mut q = FairQueue::new(4);
        q.submit("a", 1, "a1");
        q.submit("a", 1, "a2");
        q.submit("a", 1, "a3");
        let order = drain_order(&mut q);
        assert_eq!(
            order,
            vec![
                ("a".to_owned(), "a1"),
                ("a".to_owned(), "a2"),
                ("a".to_owned(), "a3")
            ]
        );
    }

    #[test]
    fn round_robin_across_clients() {
        let mut q = FairQueue::new(4);
        // Client a floods first; b and c each submit afterwards.
        q.submit("a", 1, "a1");
        q.submit("a", 1, "a2");
        q.submit("a", 1, "a3");
        q.submit("b", 1, "b1");
        q.submit("c", 1, "c1");
        let order = drain_order(&mut q);
        let clients: Vec<&str> = order.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(
            clients,
            vec!["a", "b", "c", "a", "a"],
            "one job per client per round, registration order"
        );
    }

    #[test]
    fn higher_priority_dispatches_first_even_across_clients() {
        let mut q = FairQueue::new(4);
        q.submit("a", 1, "a-normal");
        q.submit("b", 3, "b-urgent");
        q.submit("a", 2, "a-high");
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|(_, p)| *p).collect::<Vec<_>>(),
            vec!["b-urgent", "a-high", "a-normal"]
        );
    }

    #[test]
    fn within_a_client_priority_overtakes_fifo() {
        let mut q = FairQueue::new(4);
        q.submit("a", 0, "background");
        q.submit("a", 2, "urgent");
        q.submit("a", 0, "background2");
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|(_, p)| *p).collect::<Vec<_>>(),
            vec!["urgent", "background", "background2"]
        );
    }

    #[test]
    fn quota_blocks_dispatch_until_done() {
        let mut q = FairQueue::new(1);
        q.submit("a", 1, "a1");
        q.submit("a", 1, "a2");
        q.submit("b", 1, "b1");
        let first = q.next().unwrap();
        assert_eq!(first.payload, "a1");
        // a is at quota; only b is eligible.
        let second = q.next().unwrap();
        assert_eq!(second.payload, "b1");
        assert!(q.next().is_none(), "both clients at quota");
        q.mark_done("a");
        let third = q.next().unwrap();
        assert_eq!(third.payload, "a2");
        assert_eq!(q.inflight(), 2);
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn quota_never_starves_other_clients_of_lower_priority() {
        // a holds an urgent job but is at quota: b's normal job must
        // dispatch instead of the queue stalling on a's priority.
        let mut q = FairQueue::new(1);
        q.submit("a", 1, "a1");
        assert_eq!(q.next().unwrap().payload, "a1");
        q.submit("a", 9, "a-urgent");
        q.submit("b", 1, "b1");
        assert_eq!(q.next().unwrap().payload, "b1");
        q.mark_done("a");
        assert_eq!(q.next().unwrap().payload, "a-urgent");
    }

    #[test]
    fn cancel_removes_queued_jobs_only() {
        let mut q = FairQueue::new(2);
        let a1 = q.submit("a", 1, "a1");
        let a2 = q.submit("a", 1, "a2");
        let dispatched = q.next().unwrap();
        assert_eq!(dispatched.id, a1);
        assert!(q.cancel(a1).is_none(), "already dispatched");
        assert_eq!(q.cancel(a2), Some("a2"));
        assert!(q.cancel(a2).is_none(), "already cancelled");
        assert!(q.cancel(999).is_none(), "unknown id");
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut q = FairQueue::new(2);
        let ids: Vec<u64> = (0..5).map(|i| q.submit("a", 1, i)).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stats_track_queue_and_inflight() {
        let mut q = FairQueue::new(3);
        q.set_quota("a", 2);
        q.submit("a", 1, "a1");
        q.submit("b", 1, "b1");
        q.next().unwrap();
        let stats = q.stats();
        assert_eq!(
            stats[0],
            ClientStats {
                client: "a".to_owned(),
                queued: 0,
                inflight: 1,
                quota: 2
            }
        );
        assert_eq!(
            stats[1],
            ClientStats {
                client: "b".to_owned(),
                queued: 1,
                inflight: 0,
                quota: 3
            }
        );
        assert!(!q.is_idle());
    }

    #[test]
    fn drain_empties_every_queue() {
        let mut q = FairQueue::new(2);
        q.submit("a", 1, "a1");
        q.submit("b", 1, "b1");
        q.submit("a", 1, "a2");
        let drained = q.drain();
        assert_eq!(drained.len(), 3);
        assert!(q.is_idle());
        assert!(q.next().is_none());
    }

    #[test]
    fn empty_queue_dispatches_nothing() {
        let mut q: FairQueue<u32> = FairQueue::new(1);
        assert!(q.next().is_none());
        assert!(q.is_idle());
        q.mark_done("ghost"); // unknown client: no-op, no panic
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_default_quota_rejected() {
        let _ = FairQueue::<u32>::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_quota_rejected() {
        FairQueue::<u32>::new(1).set_quota("a", 0);
    }
}
