//! Bounded, fair admission of jobs to a fixed number of execution turns.
//!
//! A job runs on the connection worker that parsed it, once that worker
//! holds a [`Turn`]; at most `turns` are held at once.
//!
//! Admission control happens at [`JobQueue::submit`]: at most
//! `capacity` jobs wait for a turn *in total*; one more is rejected
//! immediately ([`SubmitError::Full`] — the server turns this into a
//! typed 429 **before** any execution work happens), so latency under
//! overload is bounded by queue depth rather than unbounded buffering.
//!
//! Fairness happens when a turn frees: waiting jobs are grouped per
//! tenant (the API-token header) and granted turns round-robin across
//! tenants, so one tenant flooding the queue delays its *own* backlog,
//! not other tenants' next job. Within a tenant, order is FIFO.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was not admitted.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// `capacity` jobs already wait; the job was NOT admitted.
    Full {
        /// The configured bound that tripped.
        capacity: usize,
    },
}

struct Inner {
    /// Per-tenant FIFO lanes of waiting jobs' tickets, in
    /// first-appearance order. Lanes persist for the queue's lifetime:
    /// the tenant set is bounded by distinct API tokens seen, which
    /// admission control keeps small relative to job volume.
    lanes: Vec<(String, VecDeque<u64>)>,
    /// Round-robin cursor over `lanes`.
    cursor: usize,
    /// Jobs waiting for a turn, across all lanes.
    waiting: usize,
    /// Turns currently held.
    held: usize,
    next_ticket: u64,
}

/// The bounded fair queue of jobs waiting for an execution turn.
pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    /// Signalled whenever a turn frees or is taken with more waiting.
    changed: Condvar,
    capacity: usize,
    turns: usize,
}

/// The right to execute one job. Dropping it, on return or unwind,
/// frees the turn for the next waiting job.
pub(crate) struct Turn<'q>(&'q JobQueue);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        // Every critical section leaves `Inner` consistent, so a
        // poisoned lock still guards valid data, and `Drop` must not
        // panic.
        let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.held -= 1;
        drop(inner);
        self.0.changed.notify_all();
    }
}

impl JobQueue {
    /// Creates a queue admitting at most `capacity` waiting jobs to at
    /// most `turns` concurrent turns.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0` or `turns == 0` (nothing could ever
    /// be admitted or run).
    pub(crate) fn new(capacity: usize, turns: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        assert!(turns >= 1, "turns must be at least 1");
        JobQueue {
            inner: Mutex::new(Inner {
                lanes: Vec::new(),
                cursor: 0,
                waiting: 0,
                held: 0,
                next_ticket: 0,
            }),
            changed: Condvar::new(),
            capacity,
            turns,
        }
    }

    /// The configured admission bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting for a turn (momentary gauge).
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").waiting
    }

    /// Turns currently held, i.e. jobs executing (momentary gauge).
    pub(crate) fn running(&self) -> usize {
        self.inner.lock().expect("queue lock").held
    }

    /// Admits a job for `tenant` and blocks until its fair turn, or
    /// rejects it without side effects.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when `capacity` jobs already wait; the job
    /// never entered the queue.
    pub(crate) fn submit(&self, tenant: &str) -> Result<Turn<'_>, SubmitError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.waiting >= self.capacity {
            return Err(SubmitError::Full {
                capacity: self.capacity,
            });
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        match inner.lanes.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, lane)) => lane.push_back(ticket),
            None => inner
                .lanes
                .push((tenant.to_string(), VecDeque::from([ticket]))),
        }
        inner.waiting += 1;
        loop {
            if inner.held < self.turns {
                // The lane whose front job is next in round-robin order.
                let lanes = inner.lanes.len();
                let lane = (0..lanes)
                    .map(|probe| (inner.cursor + probe) % lanes)
                    .find(|&lane| !inner.lanes[lane].1.is_empty())
                    .expect("this job is waiting");
                if inner.lanes[lane].1.front() == Some(&ticket) {
                    inner.lanes[lane].1.pop_front();
                    // Advance past the lane we served so the next turn
                    // goes to the following tenant.
                    inner.cursor = (lane + 1) % inner.lanes.len();
                    inner.waiting -= 1;
                    inner.held += 1;
                    if inner.held < self.turns && inner.waiting > 0 {
                        // A turn is still free for the next job in line.
                        self.changed.notify_all();
                    }
                    return Ok(Turn(self));
                }
            }
            inner = self.changed.wait(inner).expect("queue wait");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds the only turn of `q` while `jobs` (tenant, label) submit
    /// one after another, then frees it; returns the labels in the
    /// order their jobs were granted turns.
    fn grant_order(q: &JobQueue, jobs: &[(&str, &str)]) -> Vec<String> {
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let held = q.submit("holder").expect("a free turn");
            for (queued, &(tenant, label)) in jobs.iter().enumerate() {
                let order = &order;
                scope.spawn(move || {
                    let _turn = q.submit(tenant).expect("admitted");
                    order.lock().expect("order lock").push(label.to_string());
                });
                while q.depth() <= queued {
                    std::thread::yield_now();
                }
            }
            drop(held);
        });
        order.into_inner().expect("order lock")
    }

    #[test]
    fn fifo_within_a_tenant() {
        let q = JobQueue::new(8, 1);
        let jobs = [
            ("alice", "0"),
            ("alice", "1"),
            ("alice", "2"),
            ("alice", "3"),
        ];
        assert_eq!(grant_order(&q, &jobs), ["0", "1", "2", "3"]);
    }

    #[test]
    fn round_robin_across_tenants() {
        let q = JobQueue::new(16, 1);
        // alice floods, bob and carol each submit one.
        let mut jobs: Vec<(&str, &str)> = ["a0", "a1", "a2", "a3", "a4"]
            .into_iter()
            .map(|label| ("alice", label))
            .collect();
        jobs.extend([("bob", "b0"), ("carol", "c0")]);
        let order = grant_order(&q, &jobs);
        // bob and carol are served within the first rotation, not after
        // alice's whole backlog.
        let pos = |s: &str| order.iter().position(|x| x == s).unwrap();
        assert!(pos("b0") <= 2, "order: {order:?}");
        assert!(pos("c0") <= 2, "order: {order:?}");
        // Within alice's lane the order stays FIFO.
        let alice: Vec<&String> = order.iter().filter(|s| s.starts_with('a')).collect();
        assert_eq!(alice, ["a0", "a1", "a2", "a3", "a4"]);
    }

    #[test]
    fn full_queue_rejects_without_admitting() {
        let q = JobQueue::new(2, 1);
        std::thread::scope(|scope| {
            let held = q.submit("t").expect("a free turn");
            for _ in 0..2 {
                scope.spawn(|| drop(q.submit("t").expect("admitted")));
            }
            while q.depth() < 2 {
                std::thread::yield_now();
            }
            assert_eq!(q.submit("t").err(), Some(SubmitError::Full { capacity: 2 }));
            assert_eq!(q.depth(), 2, "the rejected job never entered");
            drop(held);
        });
        // Granting turns frees capacity again.
        assert_eq!((q.depth(), q.running()), (0, 0));
        assert!(q.submit("t").is_ok());
    }

    #[test]
    fn at_most_job_workers_turns_are_held() {
        let q = JobQueue::new(4, 2);
        let first = q.submit("x").expect("a free turn");
        let second = q.submit("y").expect("a free turn");
        std::thread::scope(|scope| {
            let third = scope.spawn(|| {
                let _turn = q.submit("z").expect("admitted");
                q.running()
            });
            while q.depth() < 1 {
                std::thread::yield_now();
            }
            assert_eq!(
                q.running(),
                2,
                "the third job waits while both turns are held"
            );
            drop(first);
            assert_eq!(
                third.join().expect("third job"),
                2,
                "the freed turn went to the waiting job"
            );
        });
        drop(second);
        assert_eq!((q.depth(), q.running()), (0, 0));
    }
}
