//! Tickets: the client's handle to an in-flight request.
//!
//! `submit` returns a [`Ticket`] immediately; the dispatcher resolves
//! it when the request's group drains (or when the request fails).
//!
//! Resolution is a **mutex-guarded one-shot**: the outcome lands in a
//! per-ticket slot under the ticket's own mutex, never the server's
//! global state mutex, and blocking [`Ticket::wait`] parks on the
//! ticket's condvar until it is resolved.
//! The lock is held only to move one value in or out, so a resolve
//! costs well under a microsecond against dispatcher ticks of
//! milliseconds.

use crate::error::ServeError;
use crate::request::ServeOutput;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How a request reached completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionPath {
    /// Dispatched in a shared work pool with `group_size − 1` other
    /// requests of the same shape class.
    Coalesced { group_size: usize },
    /// Dispatched as its own group (coalescing off, or nothing
    /// compatible in the queue).
    Solo,
    /// Deadline budget exhausted through every retry; served by a
    /// dedicated serial replay instead of being dropped.
    DegradedSerial,
}

impl CompletionPath {
    pub fn label(&self) -> &'static str {
        match self {
            CompletionPath::Coalesced { .. } => "coalesced",
            CompletionPath::Solo => "solo",
            CompletionPath::DegradedSerial => "degraded-serial",
        }
    }
}

/// A resolved request: the numeric payload plus the service account of
/// how it got there.
#[derive(Debug, Clone)]
pub struct Completed {
    /// Server-assigned request id (submission order).
    pub id: u64,
    pub output: ServeOutput,
    pub via: CompletionPath,
    /// Dispatch attempts consumed (1 = first try).
    pub attempts: u32,
    /// Simulated clock when the request was admitted — the origin every
    /// end-to-end deadline and latency measurement charges from.
    pub admitted_at: f64,
    /// Simulated cycles spent eligible-but-waiting before the final
    /// attempt's group started.
    pub queue_cycles: f64,
    /// Simulated cycles from group start to completion (the group
    /// makespan, plus the serial replay for degraded completions).
    pub service_cycles: f64,
    /// Simulated clock when the request completed.
    pub finished_at: f64,
    /// Dispatcher tick that completed the request.
    pub tick: u64,
}

impl Completed {
    /// End-to-end latency in simulated cycles: admission to completion,
    /// retries and backoff parking included.
    pub fn latency_cycles(&self) -> f64 {
        self.finished_at - self.admitted_at
    }
}

/// The one-shot slot: `resolved` flips once, when the outcome lands;
/// the outcome then moves out once.
#[derive(Debug, Default)]
struct Slot {
    resolved: bool,
    outcome: Option<Result<Completed, ServeError>>,
}

/// The shared half of a ticket: a mutex-guarded one-shot slot plus the
/// condvar that `wait` parks on.
#[derive(Debug, Default)]
pub(crate) struct TicketInner {
    slot: Mutex<Slot>,
    cv: Condvar,
}

impl TicketInner {
    /// The slot; a panic while it was held cannot leave it torn (every
    /// critical section is a flag flip and a single move), so poisoning
    /// is ignored.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Publish the outcome (exactly once; a second resolve is a server
    /// bug and is dropped) and wake every waiter.
    pub(crate) fn resolve(&self, outcome: Result<Completed, ServeError>) {
        let mut slot = self.slot();
        if slot.resolved {
            debug_assert!(false, "ticket resolved twice");
            return;
        }
        *slot = Slot {
            resolved: true,
            outcome: Some(outcome),
        };
        drop(slot);
        self.cv.notify_all();
    }

    /// Whether an outcome has been published (or already consumed).
    fn is_done(&self) -> bool {
        self.slot().resolved
    }

    /// Take the outcome if published; `None` while in flight (or if
    /// another thread already took it).
    fn try_take(&self) -> Option<Result<Completed, ServeError>> {
        self.slot().outcome.take()
    }
}

/// The client's handle to a submitted request.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) inner: Arc<TicketInner>,
}

impl Ticket {
    /// Server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the request has resolved (without consuming the result).
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Take the outcome if resolved; `None` while still in flight.
    pub fn try_take(&self) -> Option<Result<Completed, ServeError>> {
        self.inner.try_take()
    }

    /// Block until the request resolves and take the outcome. Some
    /// thread must be ticking the server (or `drain` must already have
    /// run) for this to return.
    ///
    /// # Panics
    ///
    /// If [`Ticket::try_take`] already took the outcome.
    pub fn wait(self) -> Result<Completed, ServeError> {
        let slot = self.inner.slot();
        let mut slot = self
            .inner
            .cv
            .wait_while(slot, |s| !s.resolved)
            .unwrap_or_else(|p| p.into_inner());
        slot.outcome
            .take()
            .expect("ticket outcome already taken by `try_take`")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(id: u64) -> Result<Completed, ServeError> {
        Err(ServeError::ShuttingDown) // payload content is irrelevant here
            .or(Err(ServeError::QueueFull {
                capacity: id as usize,
            }))
    }

    #[test]
    fn one_shot_resolve_take_cycle() {
        let t = TicketInner::default();
        assert!(!t.is_done());
        assert!(t.try_take().is_none());
        t.resolve(done(3));
        assert!(t.is_done());
        let got = t.try_take().expect("ready outcome is takeable");
        assert_eq!(got.unwrap_err(), ServeError::QueueFull { capacity: 3 });
        // Taken: still done, but the value is gone.
        assert!(t.is_done());
        assert!(t.try_take().is_none());
    }

    #[test]
    fn waiters_wake_across_threads() {
        let inner = Arc::new(TicketInner::default());
        let ticket = Ticket {
            id: 0,
            inner: Arc::clone(&inner),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(move || ticket.wait());
            // Let the waiter park, then resolve from this thread.
            std::thread::sleep(std::time::Duration::from_millis(20));
            inner.resolve(done(9));
            let got = waiter.join().expect("waiter panicked");
            assert_eq!(got.unwrap_err(), ServeError::QueueFull { capacity: 9 });
        });
    }

    #[test]
    fn double_resolve_keeps_the_first_outcome() {
        // Release builds drop the second resolve silently (the
        // debug_assert documents it as a server bug).
        let t = TicketInner::default();
        t.resolve(done(1));
        let first = t.try_take().expect("first resolve wins");
        assert_eq!(first.unwrap_err(), ServeError::QueueFull { capacity: 1 });
    }
}
