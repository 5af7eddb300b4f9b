//! Bounded admission for specialization fills: a max-in-flight gate plus
//! a bounded FIFO-ish wait queue with load shedding.
//!
//! Specialization cost is wildly input-dependent, and every fill holds
//! its own specializer state and residual code — so unbounded
//! concurrency means unbounded memory. The gate caps concurrent fills at `max_inflight`; up to
//! `queue_bound` further requesters block waiting for a slot (honouring
//! their per-request deadline), and everyone beyond that is shed
//! immediately with an `Overloaded` error instead of piling up.
//!
//! Only flight *leaders* pass through the gate: cache hits and coalesced
//! waiters cost no specializer work and are never shed.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use two4one::obs;

use crate::cache::lock;

/// The admission gate. One per service.
#[derive(Debug)]
pub(crate) struct Gate {
    max_inflight: usize,
    queue_bound: usize,
    state: Mutex<GateState>,
    freed: Condvar,
    /// Mirrors `GateState::inflight` for the exposition page
    /// (`t4o_serve_inflight`); the mutex-guarded count stays the source
    /// of truth for admission decisions.
    inflight_gauge: obs::Gauge,
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    queued: usize,
}

/// The outcome of an admission attempt.
pub(crate) enum Admission<'a> {
    /// Admitted: the permit returns the slot on drop (also on unwind).
    Admitted(Permit<'a>),
    /// The wait queue is full; the request is shed.
    Shed {
        /// Queue depth observed at the moment of shedding.
        queue_depth: usize,
    },
    /// The request's deadline passed while it was queued.
    TimedOut,
}

impl Gate {
    pub(crate) fn new(max_inflight: usize, queue_bound: usize, inflight_gauge: obs::Gauge) -> Self {
        Gate {
            max_inflight: max_inflight.max(1),
            queue_bound,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            inflight_gauge,
        }
    }

    /// Total requests the gate will hold at once (running + queued);
    /// anything beyond this in one burst is shed.
    pub(crate) fn capacity(&self) -> usize {
        self.max_inflight + self.queue_bound
    }

    /// Acquires an in-flight slot, waiting (up to `until`) in the bounded
    /// queue if the gate is full.
    pub(crate) fn admit(&self, until: Option<Instant>) -> Admission<'_> {
        let mut s = lock(&self.state);
        if s.inflight < self.max_inflight && s.queued == 0 {
            s.inflight += 1;
            self.inflight_gauge.add(1);
            return Admission::Admitted(Permit { gate: self });
        }
        if s.queued >= self.queue_bound {
            return Admission::Shed {
                queue_depth: s.queued,
            };
        }
        s.queued += 1;
        loop {
            if s.inflight < self.max_inflight {
                s.queued = s.queued.saturating_sub(1);
                s.inflight += 1;
                self.inflight_gauge.add(1);
                return Admission::Admitted(Permit { gate: self });
            }
            match until {
                Some(t) => {
                    let now = Instant::now();
                    if now >= t {
                        s.queued = s.queued.saturating_sub(1);
                        return Admission::TimedOut;
                    }
                    s = self
                        .freed
                        .wait_timeout(s, t - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                None => {
                    s = self.freed.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn release(&self) {
        let mut s = lock(&self.state);
        s.inflight = s.inflight.saturating_sub(1);
        self.inflight_gauge.add(-1);
        drop(s);
        // Waiters race for the freed slot; wake them all so a timed-out
        // waiter cannot swallow the only wakeup.
        self.freed.notify_all();
    }
}

/// An RAII in-flight slot.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn admits_up_to_max_inflight_without_queueing() {
        let gate = Gate::new(2, 4, obs::Gauge::new());
        let a = gate.admit(None);
        let b = gate.admit(None);
        assert!(matches!(a, Admission::Admitted(_)));
        assert!(matches!(b, Admission::Admitted(_)));
        drop(a);
        assert!(matches!(gate.admit(None), Admission::Admitted(_)));
    }

    #[test]
    fn sheds_beyond_queue_bound() {
        let gate = Gate::new(1, 0, obs::Gauge::new());
        let held = gate.admit(None);
        assert!(matches!(held, Admission::Admitted(_)));
        // Queue bound 0: a second requester is shed at once.
        match gate.admit(Some(Instant::now())) {
            Admission::Shed { queue_depth } => assert_eq!(queue_depth, 0),
            _ => panic!("expected shed"),
        };
        drop(held);
    }

    #[test]
    fn queued_request_times_out_at_deadline() {
        let gate = Gate::new(1, 4, obs::Gauge::new());
        let _held = gate.admit(None);
        let t0 = Instant::now();
        let r = gate.admit(Some(Instant::now() + Duration::from_millis(30)));
        assert!(matches!(r, Admission::TimedOut));
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn burst_admits_at_most_capacity() {
        const BURST: usize = 32;
        let gate = Gate::new(2, 4, obs::Gauge::new());
        let admitted = AtomicUsize::new(0);
        let shed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..BURST {
                scope.spawn(|| match gate.admit(Some(Instant::now())) {
                    Admission::Admitted(_p) => {
                        admitted.fetch_add(1, Ordering::Relaxed);
                        // Hold the permit long enough that the burst
                        // overlaps, then release (drop).
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Admission::Shed { .. } | Admission::TimedOut => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // With an already-passed deadline, queued requests give up rather
        // than waiting for slots, so at most max_inflight + queue_bound
        // requests are ever admitted or queued; everyone else is shed.
        assert_eq!(
            admitted.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
            BURST
        );
        assert!(admitted.load(Ordering::Relaxed) <= 6);
        assert!(shed.load(Ordering::Relaxed) >= BURST - 6);
    }
}
