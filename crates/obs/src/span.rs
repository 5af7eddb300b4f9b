//! Lightweight spans and a bounded per-thread trace ring.
//!
//! A [`Span`] marks one pipeline phase on the current thread: entering
//! pushes an `Enter` event into the thread's ring buffer, dropping pushes
//! an `Exit` with the measured duration and records it into the global
//! per-phase latency histogram (`t4o_phase_nanos{phase=...}`). Point
//! events ([`event`]) mark individual decisions — an unfold, a memo hit,
//! a cache hit, a breaker trip — so a request's trace (front-end → BTA →
//! genext-build → genext-run → vm-exec plus its decisions) can be dumped
//! on demand or on error.
//!
//! The ring is strictly per-thread and bounded ([`TRACE_CAP`] events,
//! oldest evicted first), so tracing can stay on in production: no locks,
//! no allocation beyond the ring itself, no unbounded growth. Work that
//! hops to a helper thread carries its trace back explicitly — see
//! [`take_trace`] / [`absorb_trace`].
//!
//! Everything here is gated by [`set_enabled`](crate::set_enabled): with
//! observability off, `Span::enter` and `event` are a single relaxed
//! atomic load.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::Histogram;

/// Capacity of the per-thread trace ring, in events.
pub const TRACE_CAP: usize = 256;

/// A pipeline phase, used to label spans and per-phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reader + front end (desugar, rename, lift, lower).
    Frontend,
    /// Binding-time analysis.
    Bta,
    /// The stand-alone ANF compiler.
    Compile,
    /// Byte-code VM execution.
    VmExec,
    /// One serving-layer request end to end.
    Serve,
    /// Staging + compiling a generating extension.
    GenextBuild,
    /// Running a compiled generating extension on static inputs.
    GenextRun,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Frontend,
        Phase::Bta,
        Phase::Compile,
        Phase::VmExec,
        Phase::Serve,
        Phase::GenextBuild,
        Phase::GenextRun,
    ];

    /// The phase's label value in metrics and traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Frontend => "frontend",
            Phase::Bta => "bta",
            Phase::Compile => "compile",
            Phase::VmExec => "vm-exec",
            Phase::Serve => "serve",
            Phase::GenextBuild => "genext-build",
            Phase::GenextRun => "genext-run",
        }
    }
}

/// A point decision worth seeing in a request trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The specializer unfolded a call.
    Unfold,
    /// Specialization-point memo hit.
    MemoHit,
    /// Specialization-point memo miss (a new residual function).
    MemoMiss,
    /// A recoverable limit downgraded a call to generic fallback code.
    Fallback,
    /// The serving layer retried a transiently starved fill.
    Retry,
    /// Serving-layer cache hit.
    CacheHit,
    /// Serving-layer cache miss (this request leads the fill).
    CacheMiss,
    /// Request coalesced onto another leader's in-flight fill.
    Coalesced,
    /// Request shed at admission (overload).
    Shed,
    /// A per-request deadline fired.
    DeadlineExceeded,
    /// The circuit breaker answered with generic fallback code.
    BreakerOpen,
    /// A cache entry was restored from a snapshot.
    Restored,
    /// A snapshot record was quarantined during restore.
    Quarantined,
    /// A program was redefined; the detail word is the new epoch.
    Redefined,
    /// Cached specializations were invalidated by a redefinition; the
    /// detail word is how many.
    Invalidated,
    /// Snapshot records were dropped on restore because their program was
    /// redefined since the snapshot; the detail word is how many.
    StaleDropped,
    /// An in-flight fill finished for an epoch that died under it; the
    /// result was served to its waiters but never cached.
    EpochConflict,
    /// A Tier-0 (generically compiled, provisional) image answered a cold
    /// miss instead of blocking on the specializer.
    Tier0Served,
    /// A hot provisional entry was enqueued for background
    /// specialization; the detail word is its observed hit count.
    PromoteEnqueued,
    /// A background promotion finished and the specialized image was
    /// hot-swapped into the current-epoch cache slot.
    Promoted,
    /// A finished background promotion was tombstoned because its epoch
    /// died mid-build (a `redefine` landed); nothing was swapped in.
    SwapEpochConflict,
    /// A promoted entry was demoted back to the provisional tier (its
    /// background specialization failed or degraded irrecoverably).
    Demoted,
}

impl EventKind {
    /// The event's name in trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Unfold => "unfold",
            EventKind::MemoHit => "memo-hit",
            EventKind::MemoMiss => "memo-miss",
            EventKind::Fallback => "fallback",
            EventKind::Retry => "retry",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
            EventKind::Coalesced => "coalesced",
            EventKind::Shed => "shed",
            EventKind::DeadlineExceeded => "deadline-exceeded",
            EventKind::BreakerOpen => "breaker-open",
            EventKind::Restored => "restored",
            EventKind::Quarantined => "quarantined",
            EventKind::Redefined => "redefined",
            EventKind::Invalidated => "invalidated",
            EventKind::StaleDropped => "stale-dropped",
            EventKind::EpochConflict => "epoch-conflict",
            EventKind::Tier0Served => "tier0-served",
            EventKind::PromoteEnqueued => "promote-enqueued",
            EventKind::Promoted => "promoted",
            EventKind::SwapEpochConflict => "swap-epoch-conflict",
            EventKind::Demoted => "demoted",
        }
    }
}

/// One entry in a thread's trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process's observability epoch (first use).
    pub at_ns: u64,
    /// What happened.
    pub what: TraceWhat,
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceWhat {
    /// A phase began on this thread.
    Enter(Phase),
    /// A phase ended; `nanos` is its measured duration.
    Exit {
        /// The phase that ended.
        phase: Phase,
        /// Measured duration of the span.
        nanos: u64,
    },
    /// A point decision, with an event-specific detail word (0 when the
    /// event carries no quantity).
    Point(EventKind, u64),
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the observability epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static TRACE: RefCell<VecDeque<TraceEvent>> =
        RefCell::new(VecDeque::with_capacity(TRACE_CAP));
}

fn push(ev: TraceEvent) {
    // `try_*` throughout: a trace entry is never worth a panic, and the
    // TLS slot may already be gone during thread teardown.
    let _ = TRACE.try_with(|t| {
        if let Ok(mut ring) = t.try_borrow_mut() {
            if ring.len() >= TRACE_CAP {
                ring.pop_front();
            }
            ring.push_back(ev);
        }
    });
}

/// Records a point event on the current thread (no-op when observability
/// is disabled).
pub fn event(kind: EventKind) {
    event_with(kind, 0);
}

/// Records a point event carrying a detail word (a count, an index, …).
pub fn event_with(kind: EventKind, detail: u64) {
    if !crate::enabled() {
        return;
    }
    push(TraceEvent {
        at_ns: now_ns(),
        what: TraceWhat::Point(kind, detail),
    });
}

/// A copy of the current thread's trace, oldest event first.
pub fn trace() -> Vec<TraceEvent> {
    TRACE
        .try_with(|t| {
            t.try_borrow()
                .map(|ring| ring.iter().copied().collect())
                .unwrap_or_default()
        })
        .unwrap_or_default()
}

/// Drains the current thread's trace (oldest first), leaving it empty.
/// Used to hand a worker thread's events back to the thread that owns the
/// request — see [`absorb_trace`].
pub fn take_trace() -> Vec<TraceEvent> {
    TRACE
        .try_with(|t| {
            t.try_borrow_mut()
                .map(|mut ring| ring.drain(..).collect())
                .unwrap_or_default()
        })
        .unwrap_or_default()
}

/// Appends events (typically a worker thread's [`take_trace`] result) to
/// the current thread's ring, evicting oldest entries past capacity.
pub fn absorb_trace(events: Vec<TraceEvent>) {
    for ev in events {
        push(ev);
    }
}

/// Clears the current thread's trace.
pub fn clear_trace() {
    let _ = TRACE.try_with(|t| {
        if let Ok(mut ring) = t.try_borrow_mut() {
            ring.clear();
        }
    });
}

/// Renders a trace as one human-readable line per event.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let at_us = ev.at_ns / 1_000;
        match ev.what {
            TraceWhat::Enter(p) => {
                out.push_str(&format!("[{at_us:>10} µs] enter {}\n", p.name()));
            }
            TraceWhat::Exit { phase, nanos } => {
                out.push_str(&format!(
                    "[{at_us:>10} µs] exit  {} ({:.3} ms)\n",
                    phase.name(),
                    nanos as f64 / 1e6
                ));
            }
            TraceWhat::Point(kind, 0) => {
                out.push_str(&format!("[{at_us:>10} µs] event {}\n", kind.name()));
            }
            TraceWhat::Point(kind, detail) => {
                out.push_str(&format!(
                    "[{at_us:>10} µs] event {} ({detail})\n",
                    kind.name()
                ));
            }
        }
    }
    out
}

fn phase_histograms() -> &'static [Histogram; Phase::ALL.len()] {
    static H: OnceLock<[Histogram; Phase::ALL.len()]> = OnceLock::new();
    H.get_or_init(|| {
        Phase::ALL
            .map(|p| crate::global().histogram_with("t4o_phase_nanos", Some(("phase", p.name()))))
    })
}

/// Forces registration of every per-phase histogram in the global
/// registry, so an exposition page shows all phase families even before
/// any span has run.
pub fn touch_phase_metrics() {
    let _ = phase_histograms();
}

/// An RAII phase marker. `enter` pushes an `Enter` trace event; dropping
/// pushes `Exit` with the measured duration and records it into the
/// global `t4o_phase_nanos{phase=...}` histogram. Inert (two relaxed
/// loads total) when observability is disabled.
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Span {
    /// Enters `phase` on the current thread.
    #[must_use = "a span measures until it is dropped; binding it to _ drops immediately"]
    pub fn enter(phase: Phase) -> Span {
        if !crate::enabled() {
            return Span { phase, start: None };
        }
        push(TraceEvent {
            at_ns: now_ns(),
            what: TraceWhat::Enter(phase),
        });
        Span {
            phase,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        push(TraceEvent {
            at_ns: now_ns(),
            what: TraceWhat::Exit {
                phase: self.phase,
                nanos,
            },
        });
        phase_histograms()[self.phase as usize].record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read the trace ring or toggle the global
    /// enabled switch, so `disabled_records_nothing`'s off-window cannot
    /// drop a concurrent test's events.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn span_records_enter_exit_and_histogram() {
        let _g = serial();
        clear_trace();
        {
            let _s = Span::enter(Phase::Bta);
        }
        let tr = trace();
        assert!(tr
            .iter()
            .any(|e| matches!(e.what, TraceWhat::Enter(Phase::Bta))));
        assert!(tr.iter().any(|e| matches!(
            e.what,
            TraceWhat::Exit {
                phase: Phase::Bta,
                ..
            }
        )));
        assert!(phase_histograms()[Phase::Bta as usize].count() >= 1);
        clear_trace();
    }

    #[test]
    fn ring_wraps_keeping_the_newest_events() {
        let _g = serial();
        clear_trace();
        let extra = 44;
        for i in 0..(TRACE_CAP as u64 + extra) {
            event_with(EventKind::Unfold, i);
        }
        let tr = trace();
        assert_eq!(tr.len(), TRACE_CAP);
        // The oldest `extra` events were evicted: the ring starts at
        // `extra` and ends at the last one pushed.
        assert_eq!(tr[0].what, TraceWhat::Point(EventKind::Unfold, extra));
        assert_eq!(
            tr[TRACE_CAP - 1].what,
            TraceWhat::Point(EventKind::Unfold, TRACE_CAP as u64 + extra - 1)
        );
        clear_trace();
    }

    #[test]
    fn take_and_absorb_move_events_between_threads() {
        let _g = serial();
        clear_trace();
        let carried = std::thread::spawn(|| {
            event(EventKind::MemoHit);
            event(EventKind::MemoMiss);
            take_trace()
        })
        .join()
        .unwrap_or_default();
        assert_eq!(carried.len(), 2);
        absorb_trace(carried);
        let tr = trace();
        assert!(tr
            .iter()
            .any(|e| e.what == TraceWhat::Point(EventKind::MemoHit, 0)));
        clear_trace();
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        clear_trace();
        crate::set_enabled(false);
        event(EventKind::Unfold);
        {
            let _s = Span::enter(Phase::Compile);
        }
        crate::set_enabled(true);
        assert!(trace().is_empty());
    }

    #[test]
    fn render_trace_is_line_per_event() {
        let events = vec![
            TraceEvent {
                at_ns: 1_000,
                what: TraceWhat::Enter(Phase::GenextRun),
            },
            TraceEvent {
                at_ns: 2_000,
                what: TraceWhat::Point(EventKind::Unfold, 3),
            },
            TraceEvent {
                at_ns: 3_000,
                what: TraceWhat::Exit {
                    phase: Phase::GenextRun,
                    nanos: 2_000,
                },
            },
        ];
        let text = render_trace(&events);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("enter genext-run"));
        assert!(text.contains("event unfold (3)"));
        assert!(text.contains("exit  genext-run"));
    }
}
