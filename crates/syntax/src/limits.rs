//! Resource governance: one [`Limits`] vocabulary for the whole pipeline.
//!
//! The system performs run-time code generation: specialization happens
//! while the system serves requests, so a diverging static loop, an
//! exploding memo table, or an oversized input must surface as a
//! *recoverable error* (or a graceful downgrade), never as a crash or a
//! hang. Every phase — reader, front end, binding-time analysis,
//! specializer, compiler, interpreter, VM — accepts the same [`Limits`]
//! record and reports violations as a typed [`LimitExceeded`] embedded in
//! its own error enum.
//!
//! The knobs:
//!
//! | field | guards | enforced by |
//! |---|---|---|
//! | `timeout` | wall-clock | BTA, specializer, interpreter, VM |
//! | `step_fuel` | executed instructions / eval steps | interpreter, VM |
//! | `unfold_fuel` | call unfoldings | specializer |
//! | `max_depth` | specializer nesting depth | specializer |
//! | `memo_cap` | memo-table entries | specializer |
//! | `code_cap` | emitted residual code size | specializer, compiler |
//! | `input_node_cap` | datums read | reader |
//! | `input_depth_cap` | datum nesting depth | reader |
//!
//! `None` means "unlimited". [`Limits::default`] picks generous but finite
//! production defaults; [`Limits::none`] switches everything off (the
//! pre-governance behaviour).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which limit was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// Wall-clock deadline (`timeout`).
    Deadline,
    /// Caller-side cancellation (a [`CancelToken`] fired: an explicit
    /// cancel or a per-request deadline). Unlike [`LimitKind::Deadline`]
    /// this is *not* recoverable: the caller no longer wants the result,
    /// so degrading to a fallback image would be wasted work.
    Cancelled,
    /// Instruction/step fuel (`step_fuel`).
    StepFuel,
    /// Specializer unfold fuel (`unfold_fuel`).
    UnfoldFuel,
    /// Specializer recursion depth (`max_depth`).
    Depth,
    /// Memoization-table entries (`memo_cap`).
    MemoEntries,
    /// Emitted residual code size (`code_cap`).
    CodeSize,
    /// Number of datums read (`input_node_cap`).
    InputNodes,
    /// Datum nesting depth (`input_depth_cap`).
    InputDepth,
}

impl LimitKind {
    /// Every limit kind, in declaration order. Lets observability layers
    /// pre-register one labeled counter per kind so "fallbacks by kind"
    /// metric families appear (zero-valued) before any limit ever fires.
    pub const ALL: [LimitKind; 9] = [
        LimitKind::Deadline,
        LimitKind::Cancelled,
        LimitKind::StepFuel,
        LimitKind::UnfoldFuel,
        LimitKind::Depth,
        LimitKind::MemoEntries,
        LimitKind::CodeSize,
        LimitKind::InputNodes,
        LimitKind::InputDepth,
    ];

    /// A stable kebab-case identifier, suitable as a metric label value.
    pub fn label(self) -> &'static str {
        match self {
            LimitKind::Deadline => "deadline",
            LimitKind::Cancelled => "cancelled",
            LimitKind::StepFuel => "step-fuel",
            LimitKind::UnfoldFuel => "unfold-fuel",
            LimitKind::Depth => "depth",
            LimitKind::MemoEntries => "memo-entries",
            LimitKind::CodeSize => "code-size",
            LimitKind::InputNodes => "input-nodes",
            LimitKind::InputDepth => "input-depth",
        }
    }

    /// Human-readable name of the limit.
    pub fn describe(self) -> &'static str {
        match self {
            LimitKind::Deadline => "wall-clock deadline",
            LimitKind::Cancelled => "request cancelled",
            LimitKind::StepFuel => "step fuel",
            LimitKind::UnfoldFuel => "unfold fuel",
            LimitKind::Depth => "recursion depth",
            LimitKind::MemoEntries => "memo-table entry cap",
            LimitKind::CodeSize => "emitted-code-size cap",
            LimitKind::InputNodes => "input size cap",
            LimitKind::InputDepth => "input nesting cap",
        }
    }
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// A typed, recoverable "resource limit hit" fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LimitExceeded {
    /// Which limit fired.
    pub kind: LimitKind,
    /// The configured bound, in the limit's own unit (steps, entries,
    /// bytes, milliseconds, …); `0` when the unit does not apply.
    pub limit: u64,
}

impl LimitExceeded {
    /// Creates a fault record.
    pub fn new(kind: LimitKind, limit: u64) -> Self {
        LimitExceeded { kind, limit }
    }
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            // Cancellation is not a budget that ran out; `limit` carries
            // the per-request deadline in ms when one was armed.
            LimitKind::Cancelled if self.limit > 0 => {
                write!(f, "request cancelled (deadline {} ms)", self.limit)
            }
            LimitKind::Cancelled => f.write_str("request cancelled"),
            _ => write!(f, "{} exceeded (limit {})", self.kind, self.limit),
        }
    }
}

impl std::error::Error for LimitExceeded {}

/// Resource limits carried through the whole pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock budget for one operation (analysis, specialization, or a
    /// program run). Checked at call boundaries and periodically in the
    /// engines' hot loops.
    pub timeout: Option<Duration>,
    /// Execution fuel for the interpreter and VM (evaluation steps /
    /// executed instructions).
    pub step_fuel: Option<u64>,
    /// Specializer unfold fuel (bounds static recursion).
    pub unfold_fuel: Option<u64>,
    /// Specializer nesting depth: the recursion depth of the walker (the
    /// reference specializer, where it bounds the Rust stack), which the
    /// gen-ext machine keeps as a count without recursing. A hard limit —
    /// violations are never recoverable — and the work bound that stops a
    /// statically divergent unfolding before unfold-fuel exhaustion makes
    /// fallback replay quadratic.
    pub max_depth: Option<usize>,
    /// Maximum distinct specialization points in the memo table.
    pub memo_cap: Option<usize>,
    /// Maximum emitted residual code size, in backend code units
    /// (instructions for the object backend, constructor operations for
    /// the source backend).
    pub code_cap: Option<usize>,
    /// Maximum number of datum nodes the reader will construct.
    pub input_node_cap: Option<usize>,
    /// Maximum datum nesting depth the reader will accept.
    pub input_depth_cap: Option<usize>,
}

impl Default for Limits {
    /// Generous but finite production defaults: every knob that guards
    /// against *unbounded* behaviour is on, wall-clock and step fuel (which
    /// legitimately vary by workload) are off.
    fn default() -> Self {
        Limits {
            timeout: None,
            step_fuel: None,
            unfold_fuel: Some(2_000_000),
            max_depth: Some(400_000),
            memo_cap: Some(1_000_000),
            code_cap: Some(50_000_000),
            input_node_cap: Some(10_000_000),
            input_depth_cap: Some(100_000),
        }
    }
}

impl Limits {
    /// The default (governed) limits.
    pub fn new() -> Self {
        Limits::default()
    }

    /// No limits at all (the pre-governance behaviour). Useful for trusted
    /// batch workloads; dangerous for anything serving traffic.
    pub fn none() -> Self {
        Limits {
            timeout: None,
            step_fuel: None,
            unfold_fuel: None,
            max_depth: None,
            memo_cap: None,
            code_cap: None,
            input_node_cap: None,
            input_depth_cap: None,
        }
    }

    /// Sets the wall-clock budget.
    pub fn with_timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// Sets the interpreter/VM step fuel.
    pub fn with_step_fuel(mut self, fuel: u64) -> Self {
        self.step_fuel = Some(fuel);
        self
    }

    /// Sets the specializer unfold fuel.
    pub fn with_unfold_fuel(mut self, fuel: u64) -> Self {
        self.unfold_fuel = Some(fuel);
        self
    }

    /// Sets the specializer recursion-depth limit.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the memo-table entry cap.
    pub fn with_memo_cap(mut self, entries: usize) -> Self {
        self.memo_cap = Some(entries);
        self
    }

    /// Sets the emitted-code-size cap.
    pub fn with_code_cap(mut self, units: usize) -> Self {
        self.code_cap = Some(units);
        self
    }

    /// Sets the reader node cap.
    pub fn with_input_node_cap(mut self, nodes: usize) -> Self {
        self.input_node_cap = Some(nodes);
        self
    }

    /// Sets the reader nesting cap.
    pub fn with_input_depth_cap(mut self, depth: usize) -> Self {
        self.input_depth_cap = Some(depth);
        self
    }

    /// Starts the wall-clock for one operation.
    pub fn deadline(&self) -> Deadline {
        Deadline::start(self.timeout)
    }
}

/// A shareable cancellation token: the caller-side half of cooperative
/// cancellation. A token can be fired explicitly ([`CancelToken::cancel`])
/// or armed with a per-request deadline ([`CancelToken::expire_at`]); the
/// engine observes it through the [`Deadline`] it is attached to and
/// aborts with [`LimitKind::Cancelled`] — a *non-recoverable* fault, so a
/// cancelled specialization stops instead of degrading to fallback code.
///
/// Cloning is cheap (an `Arc`); all clones observe the same state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Per-request expiry instant; set at most once, when the serving
    /// layer arms the request deadline.
    expires: OnceLock<Instant>,
    /// The armed deadline in milliseconds, for fault reporting.
    deadline_ms: OnceLock<u64>,
    /// Optional parent scope: a child token also observes every ancestor,
    /// so firing a connection-level token cancels the request-level token
    /// derived from it, while the child's own expiry stays private.
    parent: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// A fresh, unfired token with no expiry.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token: every holder observes cancellation from now on.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Derives a child token scoped under this one. The child observes its
    /// own firing *and* every ancestor's, but cancelling or arming an
    /// expiry on the child never affects the parent. This is the shape a
    /// network front end needs: one connection-level token (fired when the
    /// peer disconnects) with a fresh per-request child carrying each
    /// request's own deadline — [`CancelToken::expire_at`] is first-call-
    /// wins, so a long-lived token could not be re-armed per request.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                expires: OnceLock::new(),
                deadline_ms: OnceLock::new(),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Arms a per-request expiry instant. The first call wins; later
    /// calls are ignored (a token serves exactly one request).
    pub fn expire_at(&self, at: Instant, timeout: Duration) {
        let _ = self.inner.expires.set(at);
        let _ = self.inner.deadline_ms.set(timeout.as_millis() as u64);
    }

    /// Convenience: arm an expiry `timeout` from now.
    pub fn expire_after(&self, timeout: Duration) {
        self.expire_at(Instant::now() + timeout, timeout);
    }

    /// Was the token fired explicitly (not via expiry)? A child token
    /// reports cancellation when any ancestor fired.
    pub fn is_cancelled(&self) -> bool {
        let mut scope: &CancelInner = &self.inner;
        loop {
            if scope.cancelled.load(Ordering::Acquire) {
                return true;
            }
            match &scope.parent {
                Some(p) => scope = p,
                None => return false,
            }
        }
    }

    /// Has the armed per-request deadline passed (on this token or any
    /// ancestor)?
    pub fn deadline_expired(&self) -> bool {
        let now = Instant::now();
        let mut scope: &CancelInner = &self.inner;
        loop {
            if let Some(t) = scope.expires.get() {
                if now >= *t {
                    return true;
                }
            }
            match &scope.parent {
                Some(p) => scope = p,
                None => return false,
            }
        }
    }

    /// Fired, either explicitly or by deadline expiry?
    pub fn is_stopped(&self) -> bool {
        self.is_cancelled() || self.deadline_expired()
    }

    /// The typed fault this token reports when it fires.
    pub fn fault(&self) -> LimitExceeded {
        let ms = self.inner.deadline_ms.get().copied().unwrap_or(0);
        LimitExceeded::new(LimitKind::Cancelled, ms)
    }
}

/// A started wall-clock deadline, derived from [`Limits::timeout`] at the
/// beginning of an operation, optionally carrying a caller-side
/// [`CancelToken`]. Cheap to clone; `expired` costs one `Instant::now` —
/// engines amortize it with [`Deadline::check_every`].
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    expires: Option<Instant>,
    timeout_ms: u64,
    cancel: Option<CancelToken>,
}

impl Deadline {
    /// A deadline `timeout` from now (`None` = never expires).
    pub fn start(timeout: Option<Duration>) -> Self {
        Deadline {
            expires: timeout.map(|d| Instant::now() + d),
            timeout_ms: timeout.map_or(0, |d| d.as_millis() as u64),
            cancel: None,
        }
    }

    /// A deadline that never expires.
    pub fn unlimited() -> Self {
        Deadline::start(None)
    }

    /// Attaches a caller-side cancellation token. The engine then honours
    /// whichever fires first: the wall-clock budget (recoverable,
    /// [`LimitKind::Deadline`]) or the token ([`LimitKind::Cancelled`]).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Is there a deadline or a cancellation token at all?
    pub fn is_limited(&self) -> bool {
        self.expires.is_some() || self.cancel.is_some()
    }

    /// Has the deadline passed? (Ignores the cancellation token; use
    /// [`Deadline::check`] to observe both.)
    pub fn expired(&self) -> bool {
        match self.expires {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// Returns the typed fault if the token fired or the deadline passed.
    /// Cancellation is reported first: it is non-recoverable and must not
    /// be masked by a concurrent (recoverable) engine timeout.
    pub fn check(&self) -> Result<(), LimitExceeded> {
        if let Some(token) = &self.cancel {
            if token.is_stopped() {
                return Err(token.fault());
            }
        }
        if self.expired() {
            Err(LimitExceeded::new(LimitKind::Deadline, self.timeout_ms))
        } else {
            Ok(())
        }
    }

    /// Amortized check: only consults the clock when `counter` is a
    /// multiple of `stride` (use a power of two). Increments `counter`.
    pub fn check_every(&self, counter: &mut u64, stride: u64) -> Result<(), LimitExceeded> {
        *counter = counter.wrapping_add(1);
        if self.is_limited() && (*counter).is_multiple_of(stride) {
            self.check()
        } else {
            Ok(())
        }
    }

    /// The fault record for this deadline (for callers that detected
    /// expiry themselves).
    pub fn fault(&self) -> LimitExceeded {
        LimitExceeded::new(LimitKind::Deadline, self.timeout_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_governed() {
        let l = Limits::default();
        assert!(l.unfold_fuel.is_some());
        assert!(l.memo_cap.is_some());
        assert!(l.input_depth_cap.is_some());
        assert!(l.timeout.is_none());
        assert_eq!(Limits::none().unfold_fuel, None);
    }

    #[test]
    fn builder_methods_set_fields() {
        let l = Limits::none()
            .with_timeout(Duration::from_millis(5))
            .with_step_fuel(10)
            .with_unfold_fuel(20)
            .with_max_depth(30)
            .with_memo_cap(40)
            .with_code_cap(50)
            .with_input_node_cap(60)
            .with_input_depth_cap(70);
        assert_eq!(l.step_fuel, Some(10));
        assert_eq!(l.unfold_fuel, Some(20));
        assert_eq!(l.max_depth, Some(30));
        assert_eq!(l.memo_cap, Some(40));
        assert_eq!(l.code_cap, Some(50));
        assert_eq!(l.input_node_cap, Some(60));
        assert_eq!(l.input_depth_cap, Some(70));
        assert!(l.timeout.is_some());
    }

    #[test]
    fn unlimited_deadline_never_expires() {
        let d = Deadline::unlimited();
        assert!(!d.is_limited());
        assert!(!d.expired());
        assert!(d.check().is_ok());
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let d = Deadline::start(Some(Duration::ZERO));
        assert!(d.is_limited());
        assert!(d.expired());
        let e = d.check().unwrap_err();
        assert_eq!(e.kind, LimitKind::Deadline);
    }

    #[test]
    fn check_every_strides() {
        let d = Deadline::start(Some(Duration::ZERO));
        let mut c = 0u64;
        // Counter starts at 0; first increment makes it 1 → no check until
        // the stride boundary.
        assert!(d.check_every(&mut c, 4).is_ok());
        assert!(d.check_every(&mut c, 4).is_ok());
        assert!(d.check_every(&mut c, 4).is_ok());
        assert!(d.check_every(&mut c, 4).is_err());
    }

    #[test]
    fn cancel_token_fires_through_deadline() {
        let token = CancelToken::new();
        let d = Deadline::unlimited().with_cancel(token.clone());
        assert!(d.is_limited());
        assert!(d.check().is_ok());
        token.cancel();
        let e = d.check().unwrap_err();
        assert_eq!(e.kind, LimitKind::Cancelled);
        // Clones share state.
        assert!(token.clone().is_stopped());
    }

    #[test]
    fn cancel_token_deadline_expiry() {
        let token = CancelToken::new();
        token.expire_after(Duration::ZERO);
        assert!(!token.is_cancelled());
        assert!(token.deadline_expired());
        assert!(token.is_stopped());
        assert_eq!(token.fault().kind, LimitKind::Cancelled);
        // A second arm attempt is ignored.
        token.expire_after(Duration::from_secs(3600));
        assert!(token.deadline_expired());
    }

    #[test]
    fn child_token_observes_parent_not_vice_versa() {
        let conn = CancelToken::new();
        let req1 = conn.child();
        // Child firing stays scoped to the child.
        req1.cancel();
        assert!(req1.is_cancelled());
        assert!(!conn.is_cancelled());
        // A sibling derived later is unaffected by the first child.
        let req2 = conn.child();
        assert!(!req2.is_stopped());
        // Parent firing reaches every live child (the disconnect path).
        conn.cancel();
        assert!(req2.is_cancelled());
        assert!(req2.is_stopped());
    }

    #[test]
    fn child_token_arms_its_own_deadline() {
        let conn = CancelToken::new();
        let req1 = conn.child();
        req1.expire_after(Duration::ZERO);
        assert!(req1.deadline_expired());
        assert!(!conn.deadline_expired());
        // `expire_at` is first-call-wins per token, but each child is a
        // fresh token, so per-request deadlines keep working.
        let req2 = conn.child();
        req2.expire_after(Duration::from_secs(3600));
        assert!(!req2.deadline_expired());
        // A parent-armed expiry is visible to children.
        let parent = CancelToken::new();
        let kid = parent.child();
        parent.expire_after(Duration::ZERO);
        assert!(kid.deadline_expired());
    }

    #[test]
    fn cancellation_outranks_engine_timeout() {
        let token = CancelToken::new();
        token.cancel();
        let d = Deadline::start(Some(Duration::ZERO)).with_cancel(token);
        // Both fired; cancellation is reported (non-recoverable) rather
        // than the engine's own (recoverable) deadline.
        assert_eq!(d.check().unwrap_err().kind, LimitKind::Cancelled);
    }

    #[test]
    fn faults_display() {
        let e = LimitExceeded::new(LimitKind::UnfoldFuel, 64);
        assert!(e.to_string().contains("unfold fuel"));
        assert!(e.to_string().contains("64"));
    }
}
