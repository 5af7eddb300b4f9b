//! The specializer — Fig. 3 of the paper, generic over the code backend.
//!
//! This is a continuation-based offline specializer for Annotated Core
//! Scheme, built around an explicit **staged-code IR**
//! ([`GenProgram`](two4one_vm::GenProgram)): the annotated source is first
//! *staged* ([`stage`]) into a flat instruction array — variables resolved
//! to lexical addresses, globals to definition indices, generic bodies
//! pre-compiled — and specialization proper then executes that IR.
//! Two consumers exist:
//!
//! * the **gen-ext machine** ([`genrun`]) — the staged IR run as bytecode
//!   with explicit continuation frames and slot-addressed environments:
//!   the compiled generating extension of the second Futamura projection,
//!   and the only specializer a request runs;
//! * the interpretive **walker** ([`walk`]) — the classical
//!   continuation-based engine (Bondorf; Lawall & Danvy), whose
//!   heap-allocated continuations make residual code come out in A-normal
//!   form. It is the reference semantics: tests hold the machine to
//!   bit-identical residual programs and equal stats.
//!
//! Both are **generic over [`CodeBuilder`]** — the reification of
//! the paper's Sec. 6.3. With `SourceBuilder` the system is the classical
//! source-to-source partial evaluator; with the compiler's `ObjectBuilder`
//! it *is* the fused run-time code generator: monomorphization plays the
//! role of deforestation (Sec. 5.4) and no residual syntax tree is ever
//! built.
//!
//! Memoization (Sec. 4's "standard" machinery, Thiemann 1996): calls to
//! functions marked [`CallPolicy::Memoize`](two4one_syntax::acs::CallPolicy::Memoize) are residualized; each distinct
//! tuple of static argument values produces one residual definition, driven
//! from a pending queue so cross-function work does not nest.
//!
//! Every fallback has one answer, the **generic image**
//! ([`generic_image`]): Kleene's s-m-n specialization, a stub that passes
//! the statics as constants to the generic version of the entry, plus the
//! generic version of every definition reachable from it. With everything
//! dynamic, generation is compilation (the paper's Fig. 8), so the image
//! is correct under any division. A run that hits a recoverable limit
//! answers with it, in both engines, and a serving layer can ask for it
//! directly.

pub mod engine;
pub mod genrun;
pub mod staged;
pub mod walk;

pub use engine::SpecStats;
pub use genrun::{generic_image, run_genext};
pub use staged::stage;
pub use walk::specialize_staged;

use std::fmt;
use two4one_anf::build::CodeBuilder;
use two4one_syntax::acs::AProgram;
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::{LimitExceeded, LimitKind, Limits};
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;
use two4one_syntax::value::PrimError;

/// Specializes `entry` with respect to `static_args`, producing a residual
/// program through the given backend.
///
/// Stages `prog` into the gen-ext IR and runs it on the gen-ext machine
/// ([`run_genext`]), the engine that serves requests, under a deadline
/// started from `options.limits.timeout`. The interpretive walker stays
/// reachable through [`specialize_staged`] as the oracle the machine is
/// checked against.
///
/// `static_args` are matched positionally against the *static* parameters
/// of the entry's division; its dynamic parameters become the parameters of
/// the residual entry definition (which keeps the entry's name).
///
/// # Errors
///
/// See [`PeError`].
pub fn specialize<B: CodeBuilder + Default>(
    prog: &AProgram,
    entry: &Symbol,
    static_args: &[Datum],
    builder: B,
    options: &SpecOptions,
) -> Result<(B::Program, SpecStats), PeError> {
    let staged = stage(prog)?;
    let deadline = options.limits.deadline();
    run_genext(&staged, entry, static_args, builder, options, deadline)
}

/// Tuning knobs for specialization.
///
/// The resource knobs live in [`Limits`] (shared with the rest of the
/// engine): [`Limits::unfold_fuel`] meters call unfolding,
/// [`Limits::max_depth`] bounds specialization nesting depth,
/// [`Limits::memo_cap`] bounds the memoization cache,
/// [`Limits::code_cap`] bounds emitted residual code, and
/// [`Limits::timeout`] bounds wall-clock time.
///
/// `fallback` selects what happens when a *recoverable* limit is hit
/// ([`PeError::is_recoverable`]): with `true` (the default) the run is
/// dropped and the answer is the [`generic_image`] of the request, correct
/// by construction and built under no limit; with `false` the run aborts
/// with the corresponding [`PeError`], which is useful in tests and when a
/// limit overrun should be loud.
#[derive(Debug, Clone)]
pub struct SpecOptions {
    /// Resource limits (see [`Limits`]).
    pub limits: Limits,
    /// Answer with the generic image at recoverable limits instead of
    /// aborting.
    pub fallback: bool,
}

impl Default for SpecOptions {
    fn default() -> Self {
        SpecOptions::new()
    }
}

impl SpecOptions {
    /// Governed limits with graceful fallback — the production default.
    pub fn new() -> Self {
        SpecOptions {
            limits: Limits::default(),
            fallback: true,
        }
    }

    /// The given limits with fallback disabled: limit overruns abort with
    /// a typed error instead of degrading.
    pub fn strict(limits: Limits) -> Self {
        SpecOptions {
            limits,
            fallback: false,
        }
    }
}

/// Errors during specialization.
#[derive(Debug, Clone, PartialEq)]
pub enum PeError {
    /// Entry point or callee not defined.
    NoSuchFunction(Symbol),
    /// Static application of a non-procedure.
    NotAProcedure(String),
    /// Wrong number of arguments in a static call.
    ArityMismatch {
        /// Callee.
        name: Symbol,
        /// Expected.
        expected: usize,
        /// Got.
        got: usize,
    },
    /// Wrong number of static arguments supplied to the entry point.
    StaticArgCount {
        /// Entry name.
        entry: Symbol,
        /// Static parameters of the entry.
        expected: usize,
        /// Static arguments supplied.
        got: usize,
    },
    /// A static primitive application failed at specialization time. Note
    /// that offline partial evaluation evaluates static code under dynamic
    /// conditionals *speculatively*, so this can fire for a branch the
    /// program would never take at run time.
    StaticPrim {
        /// The primitive.
        prim: Prim,
        /// The failure.
        error: PrimError,
    },
    /// A specialization-time closure reached a memoization key position;
    /// the binding-time analysis should have residualized it.
    ClosureInMemoKey(Symbol),
    /// Unfold fuel exhausted: static recursion did not terminate. Consider
    /// marking the offending function as a memoization point.
    UnfoldLimit(u64),
    /// Specializer recursion-depth limit exceeded; includes the unfold
    /// count at the point of failure for diagnosis.
    DepthLimit {
        /// Configured limit.
        limit: usize,
        /// Unfolds performed when the limit was hit.
        unfolds: u64,
    },
    /// A resource limit other than unfold fuel or depth was exceeded
    /// (deadline, memoization-cache cap, or emitted-code cap).
    Limit(LimitExceeded),
    /// Invariant violation (an annotation or specializer bug).
    Internal(String),
}

impl PeError {
    /// True for limit overruns the specializer recovers from by answering
    /// with the [`generic_image`] (see [`SpecOptions::fallback`]): unfold
    /// fuel, the memo cap, the code cap, and the deadline. Depth overruns,
    /// cancellation and genuine specialization errors are not recoverable.
    pub fn is_recoverable(&self) -> bool {
        match self {
            PeError::UnfoldLimit(_) => true,
            PeError::Limit(l) => matches!(
                l.kind,
                LimitKind::Deadline | LimitKind::MemoEntries | LimitKind::CodeSize
            ),
            _ => false,
        }
    }
}

impl fmt::Display for PeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeError::NoSuchFunction(g) => write!(f, "no top-level definition `{g}`"),
            PeError::NotAProcedure(v) => {
                write!(f, "static application of non-procedure {v}")
            }
            PeError::ArityMismatch {
                name,
                expected,
                got,
            } => write!(f, "`{name}` expects {expected} argument(s), got {got}"),
            PeError::StaticArgCount {
                entry,
                expected,
                got,
            } => write!(
                f,
                "entry `{entry}` has {expected} static parameter(s), got {got} static argument(s)"
            ),
            PeError::StaticPrim { prim, error } => {
                write!(f, "static `{prim}` failed at specialization time: {error}")
            }
            PeError::ClosureInMemoKey(g) => write!(
                f,
                "closure in memoization key of `{g}`; this indicates a \
                 binding-time analysis bug"
            ),
            PeError::UnfoldLimit(n) => write!(
                f,
                "unfold fuel ({n}) exhausted: static recursion does not \
                 terminate — mark the function as a memoization point"
            ),
            PeError::DepthLimit { limit, unfolds } => write!(
                f,
                "specializer depth limit ({limit}) exceeded after {unfolds} \
                 unfolds"
            ),
            PeError::Limit(l) => write!(f, "specialization limit: {l}"),
            PeError::Internal(m) => write!(f, "internal specializer error: {m}"),
        }
    }
}

impl std::error::Error for PeError {}
