//! # two4one — Composing Partial Evaluation and Compilation
//!
//! A reproduction of Michael Sperber and Peter Thiemann, *"Two for the
//! Price of One: Composing Partial Evaluation and Compilation"*, PLDI 1997.
//!
//! The system composes an offline partial evaluator (a program-generator
//! generator, PGG) for a Scheme subset with a byte-code compiler, so that
//! specialization emits **object code directly** — a run-time code
//! generation system built from independently developed components, glued
//! together by deforestation (here: a builder trait + monomorphization).
//!
//! ## Quick start
//!
//! ```
//! use two4one::{Pgg, Division, BT, Datum};
//!
//! # fn main() -> Result<(), two4one::Error> {
//! let pgg = Pgg::new();
//! let program = pgg.parse(
//!     "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
//! )?;
//! // n is static, x is dynamic.
//! let genext = pgg.cogen(&program, "power", &Division::new([BT::Dynamic, BT::Static]))?;
//!
//! // Classic partial evaluation: residual *source* code…
//! let residual = genext.specialize_source(&[Datum::Int(5)])?;
//! assert!(residual.to_source().contains('*'));
//!
//! // …or, fused with the compiler: object code, directly.
//! let image = genext.specialize_object(&[Datum::Int(5)])?;
//! let out = two4one::run_image(&image, "power", &[Datum::Int(2)])?;
//! assert_eq!(out.value, Datum::Int(32));
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | `two4one-syntax` | data, reader/printer, Core Scheme + annotated syntax, primitives |
//! | `two4one-frontend` | desugaring, alpha renaming, assignment elimination, lambda lifting |
//! | `two4one-anf` | A-normal form, the normalizer, and the `CodeBuilder` fusion seam |
//! | `two4one-bta` | binding-time analysis |
//! | `two4one-pe` | the continuation-based specializer |
//! | `two4one-vm` | the byte-code VM, assembler, templates |
//! | `two4one-compiler` | the ANF compiler and its combinator form (`ObjectBuilder`) |

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use two4one_anf::build::CodeBuilder;
pub use two4one_anf::{self as anf, Program as AnfProgram, SourceBuilder};
pub use two4one_bta::{Division, Options as BtaOptions};
pub use two4one_compiler::{compile_program, ObjectBuilder};
pub use two4one_interp::{Interp, RtError, Value as InterpValue};
pub use two4one_obs as obs;
pub use two4one_pe::{PeError, SpecOptions, SpecStats};
pub use two4one_syntax::acs::{AProgram, CallPolicy, BT};
pub use two4one_syntax::cs;
pub use two4one_syntax::datum::Datum;
pub use two4one_syntax::limits::{CancelToken, Deadline, LimitExceeded, LimitKind, Limits};
pub use two4one_syntax::printer;
pub use two4one_syntax::reader;
pub use two4one_syntax::stack::{with_stack, with_stack_size};
pub use two4one_syntax::symbol::Symbol;
use two4one_syntax::symbol::{fnv1a, FNV1A_BASIS};
pub use two4one_vm::{
    crc32, decode_genext, decode_image, encode_genext, encode_image, objfile, ExecProfile,
    GenProgram, Image, Machine, ObjError, Value, VmError,
};

/// Any error the pipeline can produce.
#[derive(Debug)]
pub enum Error {
    /// Reader / front-end failure.
    Front(two4one_frontend::FrontError),
    /// Binding-time analysis failure.
    Bta(two4one_bta::BtaError),
    /// Specialization failure.
    Pe(PeError),
    /// Compilation failure.
    Compile(two4one_compiler::CompileError),
    /// VM runtime failure.
    Vm(two4one_vm::VmError),
    /// Interpreter runtime failure.
    Interp(RtError),
    /// Result was not first-order data (a procedure or cell).
    NonDatumResult(String),
    /// A panic escaped an engine component. The panic was caught at the
    /// facade boundary, so the process survives; this always indicates a
    /// bug worth reporting.
    Panicked(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Front(e) => write!(f, "{e}"),
            Error::Bta(e) => write!(f, "{e}"),
            Error::Pe(e) => write!(f, "{e}"),
            Error::Compile(e) => write!(f, "{e}"),
            Error::Vm(e) => write!(f, "{e}"),
            Error::Interp(e) => write!(f, "{e}"),
            Error::NonDatumResult(v) => {
                write!(f, "result is not first-order data: {v}")
            }
            Error::Panicked(m) => {
                write!(f, "internal engine panic (caught): {m}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Front(e) => Some(e),
            Error::Bta(e) => Some(e),
            Error::Pe(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Vm(e) => Some(e),
            Error::Interp(e) => Some(e),
            Error::NonDatumResult(_) | Error::Panicked(_) => None,
        }
    }
}

/// Runs `f`, converting an escaped panic into [`Error::Panicked`]. The
/// library crates are written to return typed errors instead of
/// panicking; this is the belt-and-braces boundary that keeps a missed
/// invariant from tearing down an embedding application.
fn catching<T>(f: impl FnOnce() -> Result<T, Error>) -> Result<T, Error> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Error::Panicked(msg))
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        }
    };
}

from_error!(Front, two4one_frontend::FrontError);
from_error!(Bta, two4one_bta::BtaError);
from_error!(Pe, PeError);
from_error!(Compile, two4one_compiler::CompileError);
from_error!(Vm, two4one_vm::VmError);
from_error!(Interp, RtError);

/// Process-wide counters the facade feeds from per-run [`SpecStats`]
/// totals. The specializer's hot loop keeps its cheap local counters;
/// the facade folds them into the shared registry once per run, so the
/// registry sees every run without contended atomics inside the engine.
struct SpecMetrics {
    spec_runs: obs::Counter,
    unfolds: obs::Counter,
    memo_hits: obs::Counter,
    memo_misses: obs::Counter,
    fallbacks: [obs::Counter; LimitKind::ALL.len()],
}

fn spec_metrics() -> &'static SpecMetrics {
    static M: OnceLock<SpecMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = obs::global();
        SpecMetrics {
            spec_runs: g.counter("t4o_spec_runs_total"),
            unfolds: g.counter("t4o_spec_unfolds_total"),
            memo_hits: g.counter("t4o_spec_memo_hits_total"),
            memo_misses: g.counter("t4o_spec_memo_misses_total"),
            fallbacks: LimitKind::ALL
                .map(|k| g.counter_with("t4o_spec_fallbacks_total", Some(("kind", k.label())))),
        }
    })
}

fn note_spec_stats(stats: &SpecStats) {
    let m = spec_metrics();
    m.spec_runs.inc();
    m.unfolds.add(stats.unfolds);
    m.memo_hits.add(stats.memo_hits);
    m.memo_misses.add(stats.memo_misses);
    if stats.fallbacks > 0 {
        let kind = stats.fallback_kind.unwrap_or(LimitKind::UnfoldFuel);
        if let Some(idx) = LimitKind::ALL.iter().position(|k| *k == kind) {
            m.fallbacks[idx].add(stats.fallbacks);
        }
    }
}

/// Process-wide generating-extension counters: how many gen-exts were
/// staged, and how many specializations ran through one.
struct GenextMetrics {
    builds: obs::Counter,
    runs: obs::Counter,
}

fn genext_metrics() -> &'static GenextMetrics {
    static M: OnceLock<GenextMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = obs::global();
        GenextMetrics {
            builds: g.counter("t4o_genext_builds_total"),
            runs: g.counter("t4o_genext_runs_total"),
        }
    })
}

/// Forces registration of every pipeline metric family in the global
/// registry — per-phase latency histograms, specializer run/unfold/memo
/// counters, the per-kind fallback counters, and the gen-ext counters —
/// so an exposition page (`t4o stats`, `--metrics-file`) shows all
/// families, zero-valued, before any workload has run.
pub fn init_metrics() {
    obs::touch_phase_metrics();
    let _ = spec_metrics();
    let _ = genext_metrics();
    two4one_vm::init_dispatch_metrics();
}

/// A monotonically increasing version of a logical program.
///
/// A serving layer that accepts program *redefinition* registers each
/// program under a stable logical name and stamps every registration
/// with an `Epoch`. Residual code is only valid relative to the exact
/// source it was derived from (the derivation is a revocable artifact,
/// not a permanent fact), so anything cached on behalf of a program —
/// specializations, breaker state, snapshot records — carries the epoch
/// it was derived under and dies with it. Epochs start at
/// [`Epoch::FIRST`] and only move forward; they are per-name and
/// per-process (snapshot restore compares program *identity*, not raw
/// epoch numbers, across processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(u64);

impl Epoch {
    /// The epoch of a program's first registration.
    pub const FIRST: Epoch = Epoch(1);

    /// Wraps a raw epoch number (used when decoding persisted state).
    pub const fn from_raw(n: u64) -> Epoch {
        Epoch(n)
    }

    /// The raw epoch number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The epoch after this one (saturating — an epoch never wraps back
    /// to an earlier generation).
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0.saturating_add(1))
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The program-generator generator: front end + BTA + specializer engine,
/// with configuration.
///
/// One [`Limits`] record governs every stage derived from a `Pgg`: the
/// reader (input size/nesting), the binding-time analysis (deadline), the
/// specializer (unfold fuel, recursion depth, memo cap, code cap,
/// deadline), and — through [`run_image_with`] / [`interpret_with`] —
/// execution of the result (step fuel, deadline). The default limits are
/// generous but finite; use [`Limits::none()`] to switch them all off.
#[derive(Debug, Clone, Default)]
pub struct Pgg {
    bta_options: BtaOptions,
    spec_options: SpecOptions,
    limits: Limits,
}

impl Pgg {
    /// A PGG with default (governed, graceful-fallback) options.
    pub fn new() -> Self {
        Pgg::default()
    }

    /// Overrides the unfold/memoize policy for a function.
    pub fn policy(mut self, name: &str, policy: CallPolicy) -> Self {
        self.bta_options
            .policy_overrides
            .insert(Symbol::new(name), policy);
        self
    }

    /// Replaces the whole limit record.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the wall-clock budget for analysis and specialization.
    pub fn timeout(mut self, d: std::time::Duration) -> Self {
        self.limits = self.limits.with_timeout(d);
        self
    }

    /// Sets the unfold fuel.
    pub fn unfold_fuel(mut self, fuel: u64) -> Self {
        self.limits = self.limits.with_unfold_fuel(fuel);
        self
    }

    /// Enables or disables graceful degradation at recoverable limits
    /// (see [`SpecOptions`]); enabled by default.
    pub fn fallback(mut self, on: bool) -> Self {
        self.spec_options.fallback = on;
        self
    }

    /// Parses and lowers source text into Core Scheme, enforcing the
    /// reader limits.
    ///
    /// # Errors
    ///
    /// Fails on read, syntax, scope, or over-limit input.
    pub fn parse(&self, src: &str) -> Result<cs::Program, Error> {
        catching(|| {
            let _span = obs::Span::enter(obs::Phase::Frontend);
            Ok(two4one_frontend::frontend_with(src, &self.limits)?)
        })
    }

    /// Builds a *generating extension* for `entry` under `division`: the
    /// binding-time analysis runs once, the result can then be applied to
    /// many different static inputs (and through either backend).
    ///
    /// # Errors
    ///
    /// Fails if `entry` is unknown or the division has the wrong arity.
    pub fn cogen(
        &self,
        program: &cs::Program,
        entry: &str,
        division: &Division,
    ) -> Result<GenExt, Error> {
        catching(|| {
            let _span = obs::Span::enter(obs::Phase::Bta);
            let mut bta_options = self.bta_options.clone();
            bta_options.limits = self.limits.clone();
            let aprog = two4one_bta::bta_with(program, entry, division, &bta_options)?;
            let mut options = self.spec_options.clone();
            options.limits = self.limits.clone();
            Ok(GenExt {
                aprog: Some(Arc::new(aprog)),
                entry: Symbol::new(entry),
                options,
                identity: Arc::new(OnceLock::new()),
                staged: Arc::new(OnceLock::new()),
                bytes: Arc::new(OnceLock::new()),
            })
        })
    }
}

/// The cache identity of a generating extension
/// ([`GenExt::cache_identity`]): its rendered text behind a shared `Arc`,
/// and the FNV-1a digest of that text, computed with it. Equal
/// identities have equal text; the digest only routes and hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheIdentity {
    text: Arc<str>,
    digest: u64,
}

impl CacheIdentity {
    /// The identity rendered as `text`, digested once here.
    pub fn new(text: impl Into<Arc<str>>) -> CacheIdentity {
        let text = text.into();
        let digest = fnv1a(FNV1A_BASIS, text.as_bytes());
        CacheIdentity { text, digest }
    }

    /// The rendered identity, shareable without copying.
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    /// The FNV-1a digest of [`CacheIdentity::text`]; a caller hashing the
    /// identity followed by more bytes continues from it with
    /// [`two4one_syntax::symbol::fnv1a`].
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// A generating extension: apply it to static inputs to obtain residual
/// programs — as source text (the classic PGG) or directly as object code
/// (the fused run-time code generator).
///
/// Every `specialize_*` method runs the *compiled* generating extension
/// (the second Futamura projection): the annotated program is staged
/// once into the flat gen-ext IR ([`GenProgram`]) and the gen-ext machine
/// executes that IR. Staging happens on first use, or is skipped by
/// setting the staged program from `.t4og` bytes ([`GenExt::from_bytes`],
/// [`GenExt::adopt_bytes`]). Clones share the annotated program, the
/// staged program and its wire form behind `Arc`s, so a clone is cheap
/// and a program is staged once however many clones serve it.
#[derive(Debug, Clone)]
pub struct GenExt {
    /// The annotated program; `None` for an extension decoded from
    /// `.t4og` bytes alone.
    aprog: Option<Arc<AProgram>>,
    entry: Symbol,
    options: SpecOptions,
    /// Lazily rendered cache identity, shared by all clones of this
    /// extension (see [`GenExt::cache_identity`]).
    identity: Arc<OnceLock<CacheIdentity>>,
    /// The staged program, shared by all clones.
    staged: Arc<OnceLock<Arc<GenProgram>>>,
    /// The `.t4og` wire form of the staged program, encoded on first
    /// request and shared by all clones.
    bytes: Arc<OnceLock<Arc<[u8]>>>,
}

impl GenExt {
    /// The annotated program (for inspection); `None` for an extension
    /// decoded from `.t4og` bytes alone.
    pub fn annotated(&self) -> Option<&AProgram> {
        self.aprog.as_deref()
    }

    /// The entry point.
    pub fn entry(&self) -> &Symbol {
        &self.entry
    }

    /// The cache identity of this generating extension: the annotated
    /// program rendered to text plus its specialization options (two
    /// extensions differing only in, say, fuel must not share residual
    /// code). An extension decoded from bytes alone renders its whole
    /// `.t4og` wire form instead, never a digest of it. Rendered and
    /// digested **once** and shared by every clone, so a serving layer
    /// can key its result cache per request without re-rendering or
    /// re-hashing the program each time.
    pub fn cache_identity(&self) -> &CacheIdentity {
        self.identity.get_or_init(|| {
            let options = &self.options;
            CacheIdentity::new(match &self.aprog {
                Some(aprog) => format!("{aprog}\u{0}{options:?}"),
                None => {
                    let bytes = self.bytes.get().map_or(&[][..], |b| b);
                    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
                    format!("genext:{hex}\u{0}{options:?}")
                }
            })
        })
    }

    /// Stages the annotated program into the gen-ext IR, unless this
    /// extension (or a clone of it) is staged already. Returns whether
    /// this call did the staging, so a caller can count builds.
    ///
    /// # Errors
    ///
    /// Fails on staging errors (malformed annotated program).
    pub fn stage(&self) -> Result<bool, Error> {
        // Without an annotated program the extension came from bytes,
        // which set the staged program at construction.
        let Some(aprog) = &self.aprog else {
            return Ok(false);
        };
        if self.staged.get().is_some() {
            return Ok(false);
        }
        let staged = catching(|| {
            let _span = obs::Span::enter(obs::Phase::GenextBuild);
            Ok(two4one_pe::stage(aprog)?)
        })?;
        // A racing clone may have staged first; its program is equal.
        let fresh = self.staged.set(staged).is_ok();
        if fresh {
            genext_metrics().builds.inc();
        }
        Ok(fresh)
    }

    /// True once the staged program exists (staged, or set from bytes).
    pub fn is_staged(&self) -> bool {
        self.staged.get().is_some()
    }

    /// The staged program, staged on first use.
    ///
    /// # Errors
    ///
    /// Fails on staging errors (malformed annotated program).
    pub fn staged(&self) -> Result<&Arc<GenProgram>, Error> {
        self.stage()?;
        self.staged
            .get()
            .ok_or_else(|| Error::Pe(PeError::Internal("gen-ext has no staged program".into())))
    }

    /// The `.t4og` wire form of the staged program (staging it first if
    /// needed), encoded once and shared by every clone.
    ///
    /// # Errors
    ///
    /// Fails on staging errors (malformed annotated program).
    pub fn to_bytes(&self) -> Result<Arc<[u8]>, Error> {
        if let Some(bytes) = self.bytes.get() {
            return Ok(bytes.clone());
        }
        let staged = self.staged()?;
        Ok(self
            .bytes
            .get_or_init(|| encode_genext(staged, &self.entry).into())
            .clone())
    }

    /// Decodes a generating extension from its `.t4og` wire form, to run
    /// under `options`. It has no annotated program: it can specialize
    /// and re-encode, but not be re-staged.
    ///
    /// # Errors
    ///
    /// Fails on malformed or corrupt input (checksum, range checks).
    pub fn from_bytes(bytes: &[u8], options: SpecOptions) -> Result<GenExt, ObjError> {
        let (staged, entry) = decode_genext(bytes)?;
        Ok(GenExt {
            aprog: None,
            entry,
            options,
            identity: Arc::new(OnceLock::new()),
            staged: Arc::new(OnceLock::from(staged)),
            bytes: Arc::new(OnceLock::from(Arc::<[u8]>::from(bytes))),
        })
    }

    /// Sets the staged program of this extension and all its clones from
    /// `.t4og` bytes — a warm start that skips staging — unless it is
    /// staged already. The caller vouches that the bytes were staged from
    /// this extension's annotated program (a snapshot record matched by
    /// cache identity and entry).
    ///
    /// # Errors
    ///
    /// Fails on malformed or corrupt input (checksum, range checks).
    pub fn adopt_bytes(&self, bytes: &[u8]) -> Result<(), ObjError> {
        let (staged, _) = decode_genext(bytes)?;
        if self.staged.set(staged).is_ok() {
            let _ = self.bytes.set(bytes.into());
        }
        Ok(())
    }

    /// Runs the gen-ext machine under explicit `options` and an optional
    /// caller-side [`CancelToken`], through the given backend.
    fn run<B: CodeBuilder + Default>(
        &self,
        statics: &[Datum],
        builder: B,
        options: &SpecOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<(B::Program, SpecStats), Error> {
        catching(|| {
            let mut deadline = options.limits.deadline();
            if let Some(token) = cancel {
                deadline = deadline.with_cancel(token.clone());
            }
            let staged = self.staged()?;
            let _span = obs::Span::enter(obs::Phase::GenextRun);
            let (prog, stats) =
                two4one_pe::run_genext(staged, &self.entry, statics, builder, options, deadline)?;
            genext_metrics().runs.inc();
            note_spec_stats(&stats);
            Ok((prog, stats))
        })
    }

    /// Specializes to residual **source** (ANF Scheme).
    ///
    /// # Errors
    ///
    /// Fails on specialization errors (see [`PeError`]).
    pub fn specialize_source(&self, statics: &[Datum]) -> Result<AnfProgram, Error> {
        Ok(self.specialize_source_with_stats(statics)?.0)
    }

    /// Like [`GenExt::specialize_source`], also returning statistics.
    ///
    /// # Errors
    ///
    /// Fails on specialization errors.
    pub fn specialize_source_with_stats(
        &self,
        statics: &[Datum],
    ) -> Result<(AnfProgram, SpecStats), Error> {
        self.run(statics, SourceBuilder::new(), &self.options, None)
    }

    /// Specializes to residual source and then runs the ANF optimizer
    /// (copy propagation, unit laws, dead-binding elimination) over it.
    ///
    /// # Errors
    ///
    /// Fails on specialization errors.
    pub fn specialize_source_optimized(&self, statics: &[Datum]) -> Result<AnfProgram, Error> {
        Ok(two4one_anf::optimize(&self.specialize_source(statics)?))
    }

    /// Specializes **directly to object code** — the composed system of the
    /// paper. No residual syntax tree is constructed.
    ///
    /// # Errors
    ///
    /// Fails on specialization or code-generation errors.
    pub fn specialize_object(&self, statics: &[Datum]) -> Result<Image, Error> {
        Ok(self.specialize_object_with_stats(statics)?.0)
    }

    /// Like [`GenExt::specialize_object`], also returning statistics.
    ///
    /// # Errors
    ///
    /// Fails on specialization or code-generation errors.
    pub fn specialize_object_with_stats(
        &self,
        statics: &[Datum],
    ) -> Result<(Image, SpecStats), Error> {
        self.specialize_object_governed(statics, &self.options, None)
    }

    /// The fully-governed object-code path: specializes under explicit
    /// `options` (which may differ from this extension's own, e.g. a
    /// serving layer retrying with an escalated budget) and an optional
    /// caller-side [`CancelToken`]. The token — which may carry a
    /// per-request deadline — is checked cooperatively at the
    /// specializer's memo/unfold points, so firing it stops a run
    /// mid-specialization with [`LimitKind::Cancelled`].
    ///
    /// # Errors
    ///
    /// Fails on specialization or code-generation errors; a fired token
    /// surfaces as `Error::Pe(PeError::Limit(..))` with kind `Cancelled`.
    pub fn specialize_object_governed(
        &self,
        statics: &[Datum],
        options: &SpecOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<(Image, SpecStats), Error> {
        let (image, stats) = self.run(statics, ObjectBuilder::new(), options, cancel)?;
        Ok((image?, stats))
    }

    /// The generic image of `statics` as object code: Kleene's s-m-n
    /// specialization, a stub passing the statics as constants to the
    /// generic version of the entry, plus the generic version of every
    /// definition reachable from it (see `two4one_pe::generic_image`). It
    /// is what a fallback answers with, built directly: correct under any
    /// division, linear in the source program, and under no limit. It is
    /// not a specialization, so it counts as no gen-ext run.
    ///
    /// # Errors
    ///
    /// Fails on a bad request (wrong static argument count), a staging
    /// error, or a code-generation error.
    pub fn generic_object(&self, statics: &[Datum]) -> Result<(Image, SpecStats), Error> {
        catching(|| {
            let staged = self.staged()?;
            let (image, stats) =
                two4one_pe::generic_image(staged, &self.entry, statics, ObjectBuilder::new())?;
            Ok((image?, stats))
        })
    }

    /// The limits and fallback setting this generating extension runs
    /// under.
    pub fn options(&self) -> &SpecOptions {
        &self.options
    }

    /// A copy of this generating extension running under different
    /// options (limits / fallback). The annotated and staged programs are
    /// shared: neither binding-time analysis nor staging is redone.
    pub fn with_options(&self, options: SpecOptions) -> GenExt {
        GenExt {
            options,
            // Fresh cell: options are part of the identity.
            identity: Arc::new(OnceLock::new()),
            ..self.clone()
        }
    }
}

/// Writes a generating extension's staged program to a `.t4og` file.
///
/// # Errors
///
/// Fails on staging or I/O errors.
pub fn save_genext(genext: &GenExt, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, genext.to_bytes().map_err(std::io::Error::other)?)
}

/// Reads a generating extension back from a `.t4og` file, to run under
/// `options`.
///
/// # Errors
///
/// Fails on I/O errors or malformed files.
pub fn load_genext(
    path: impl AsRef<std::path::Path>,
    options: SpecOptions,
) -> std::io::Result<GenExt> {
    let bytes = std::fs::read(path)?;
    GenExt::from_bytes(&bytes, options)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Compiles a Core Scheme program with the stock pipeline
/// (A-normalization + byte-code compiler).
///
/// # Errors
///
/// Fails on compile errors.
pub fn compile(program: &cs::Program, entry: &str) -> Result<Image, Error> {
    Ok(compile_program(&two4one_anf::normalize(program), entry)?)
}

/// The "load residual source back" path of the paper's Fig. 7: read text,
/// run the front end, normalize, compile.
///
/// # Errors
///
/// Fails on read, front-end, or compile errors.
pub fn compile_source_text(src: &str, entry: &str) -> Result<Image, Error> {
    let prog = two4one_frontend::frontend(src)?;
    compile(&prog, entry)
}

/// The outcome of running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The result value (first-order data).
    pub value: Datum,
    /// Text written by `display`/`write`/`newline`.
    pub output: String,
}

/// Loads an image and calls `entry` on data arguments.
///
/// # Errors
///
/// Fails on VM errors or when the result is not first-order data.
pub fn run_image(image: &Image, entry: &str, args: &[Datum]) -> Result<RunOutcome, Error> {
    run_image_with(image, entry, args, &Limits::none())
}

/// Like [`run_image`], but executing under `limits`: step fuel
/// ([`Limits::step_fuel`]) and wall-clock deadline ([`Limits::timeout`])
/// bound the run.
///
/// # Errors
///
/// Fails on VM errors (including [`VmError`] limit overruns) or when the
/// result is not first-order data.
pub fn run_image_with(
    image: &Image,
    entry: &str,
    args: &[Datum],
    limits: &Limits,
) -> Result<RunOutcome, Error> {
    catching(|| {
        let mut m = Machine::load(image).with_limits(limits);
        let argv = args.iter().map(two4one_vm::Value::from).collect();
        let v = m.call_global(&Symbol::new(entry), argv)?;
        let value = v
            .to_datum()
            .ok_or_else(|| Error::NonDatumResult(format!("{v:?}")))?;
        Ok(RunOutcome {
            value,
            output: m.output,
        })
    })
}

/// Like [`run_image_with`], but accumulating execution counts into
/// `profile` (see [`ExecProfile`]): instruction fetches, frame retires,
/// and call visits are flushed into the shared atomics at the VM's
/// amortized deadline stride and at run end, so a profile reader — e.g.
/// the serving layer's tiered-promotion worker — observes hotness
/// without stopping execution.
///
/// # Errors
///
/// Fails on VM errors (including limit overruns) or when the result is
/// not first-order data.
pub fn run_image_profiled(
    image: &Image,
    entry: &str,
    args: &[Datum],
    limits: &Limits,
    profile: &Arc<ExecProfile>,
) -> Result<RunOutcome, Error> {
    catching(|| {
        let mut m = Machine::load(image)
            .with_limits(limits)
            .with_profile(profile.clone());
        let argv = args.iter().map(two4one_vm::Value::from).collect();
        let v = m.call_global(&Symbol::new(entry), argv)?;
        let value = v
            .to_datum()
            .ok_or_else(|| Error::NonDatumResult(format!("{v:?}")))?;
        Ok(RunOutcome {
            value,
            output: m.output,
        })
    })
}

/// Writes a compiled image to a `.t4o` object file.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn save_image(image: &Image, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, encode_image(image))
}

/// Reads a compiled image back from a `.t4o` object file.
///
/// # Errors
///
/// Fails on I/O errors or malformed object files.
pub fn load_image(path: impl AsRef<std::path::Path>) -> std::io::Result<Image> {
    let bytes = std::fs::read(path)?;
    decode_image(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Incremental specialization (an application the paper highlights in
/// Secs. 1 and 9, after Thiemann's memoization work): static inputs arrive
/// in stages, and each stage's residual program is an ordinary program
/// that can be analyzed and specialized again.
pub mod incremental {
    use super::*;

    /// Performs one stage: specializes `entry` under `division` to the
    /// given static inputs and returns the residual as a fresh Core Scheme
    /// program, re-analyzed by the front end so further stages (or
    /// compilation) can be applied directly.
    ///
    /// # Errors
    ///
    /// Fails on analysis or specialization errors.
    pub fn stage(
        pgg: &Pgg,
        program: &cs::Program,
        entry: &str,
        division: &Division,
        statics: &[Datum],
    ) -> Result<cs::Program, Error> {
        let genext = pgg.cogen(program, entry, division)?;
        let residual = genext.specialize_source(statics)?;
        pgg.parse(&residual.to_source())
    }
}

/// Runs a Core Scheme program in the tree-walking interpreter (the
/// "interpreted" baseline and semantic oracle).
///
/// # Errors
///
/// Fails on interpreter errors or when the result is not first-order data.
pub fn interpret(program: &cs::Program, entry: &str, args: &[Datum]) -> Result<RunOutcome, Error> {
    interpret_with(program, entry, args, &Limits::none())
}

/// Like [`interpret`], but executing under `limits` (step fuel and
/// wall-clock deadline).
///
/// # Errors
///
/// Fails on interpreter errors (including limit overruns) or when the
/// result is not first-order data.
pub fn interpret_with(
    program: &cs::Program,
    entry: &str,
    args: &[Datum],
    limits: &Limits,
) -> Result<RunOutcome, Error> {
    catching(|| {
        let (v, output) = two4one_interp::run_program_with(program, entry, args, limits)?;
        let value = v
            .to_datum()
            .ok_or_else(|| Error::NonDatumResult(format!("{v:?}")))?;
        Ok(RunOutcome { value, output })
    })
}

// Compile-time proof that the pipeline is thread-safe end-to-end: every
// type that crosses the serving layer's thread boundaries must be
// `Send + Sync`. A regression (e.g. an `Rc` sneaking back in) fails to
// compile rather than failing at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pgg>();
    assert_send_sync::<GenExt>();
    assert_send_sync::<Image>();
    assert_send_sync::<Datum>();
    assert_send_sync::<AnfProgram>();
    assert_send_sync::<AProgram>();
    assert_send_sync::<Symbol>();
    assert_send_sync::<Limits>();
    assert_send_sync::<SpecStats>();
    assert_send_sync::<Error>();
    assert_send_sync::<ExecProfile>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trip() {
        let pgg = Pgg::new();
        let p = pgg
            .parse("(define (inc x) (+ x 1)) (define (main a b) (+ (inc a) b))")
            .unwrap();
        // Stock compilation.
        let image = compile(&p, "main").unwrap();
        let out = run_image(&image, "main", &[Datum::Int(1), Datum::Int(2)]).unwrap();
        assert_eq!(out.value, Datum::Int(4));
        // Interpreted baseline agrees.
        let out2 = interpret(&p, "main", &[Datum::Int(1), Datum::Int(2)]).unwrap();
        assert_eq!(out2.value, Datum::Int(4));
    }

    #[test]
    fn genext_reuse_across_static_inputs() {
        let pgg = Pgg::new();
        let p = pgg
            .parse("(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))")
            .unwrap();
        let genext = pgg
            .cogen(&p, "power", &Division::new([BT::Dynamic, BT::Static]))
            .unwrap();
        for n in 0..8 {
            let image = genext.specialize_object(&[Datum::Int(n)]).unwrap();
            let out = run_image(&image, "power", &[Datum::Int(2)]).unwrap();
            assert_eq!(out.value, Datum::Int(1 << n));
        }
    }

    #[test]
    fn source_text_load_path() {
        let pgg = Pgg::new();
        let p = pgg.parse("(define (f x) (* x x))").unwrap();
        let genext = pgg.cogen(&p, "f", &Division::new([BT::Dynamic])).unwrap();
        let residual = genext.specialize_source(&[]).unwrap();
        let image = compile_source_text(&residual.to_source(), "f").unwrap();
        let out = run_image(&image, "f", &[Datum::Int(9)]).unwrap();
        assert_eq!(out.value, Datum::Int(81));
    }

    #[test]
    fn compiled_genext_is_bit_identical_and_round_trips() {
        let pgg = Pgg::new();
        let p = pgg
            .parse("(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))")
            .unwrap();
        let genext = pgg
            .cogen(&p, "power", &Division::new([BT::Dynamic, BT::Static]))
            .unwrap();
        // Wire round trip: the decoded extension has no annotated
        // program, yet specializes bit-identically and re-encodes to the
        // same bytes.
        let bytes = genext.to_bytes().unwrap();
        let restored = GenExt::from_bytes(&bytes, genext.options().clone()).unwrap();
        assert!(restored.annotated().is_none());
        assert!(restored.is_staged());
        assert_eq!(*restored.to_bytes().unwrap(), *bytes);
        for n in 0..6 {
            let a = genext.specialize_object(&[Datum::Int(n)]).unwrap();
            let b = restored.specialize_object(&[Datum::Int(n)]).unwrap();
            assert_eq!(encode_image(&a), encode_image(&b), "n={n}");
        }
        let image = restored.specialize_object(&[Datum::Int(3)]).unwrap();
        let out = run_image(&image, "power", &[Datum::Int(2)]).unwrap();
        assert_eq!(out.value, Datum::Int(8));
        // Its identity carries the whole wire form, not a digest: equal
        // bytes agree, and it never aliases the source extension's.
        let again = GenExt::from_bytes(&bytes, genext.options().clone()).unwrap();
        assert_eq!(restored.cache_identity(), again.cache_identity());
        assert_ne!(restored.cache_identity(), genext.cache_identity());
        assert!(restored.cache_identity().text().len() > 2 * bytes.len());
    }

    #[test]
    fn clones_share_one_staging() {
        let pgg = Pgg::new();
        let p = pgg
            .parse("(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))")
            .unwrap();
        let genext = pgg
            .cogen(&p, "power", &Division::new([BT::Dynamic, BT::Static]))
            .unwrap();
        let clone = genext.clone();
        let governed = genext.with_options(SpecOptions::strict(Limits::none()));
        assert!(!genext.is_staged(), "staging is lazy");
        clone.specialize_object(&[Datum::Int(2)]).unwrap();
        assert!(genext.is_staged() && governed.is_staged());
        assert!(!genext.stage().unwrap(), "staged once for every clone");
        assert!(Arc::ptr_eq(
            genext.staged().unwrap(),
            governed.staged().unwrap()
        ));
        // Options are part of the identity; the staged program is not.
        assert_ne!(genext.cache_identity(), governed.cache_identity());
        // Bytes adopted by an unstaged extension replace its staging.
        let fresh = pgg
            .cogen(&p, "power", &Division::new([BT::Dynamic, BT::Static]))
            .unwrap();
        fresh.adopt_bytes(&genext.to_bytes().unwrap()).unwrap();
        assert!(fresh.is_staged());
        assert!(!fresh.stage().unwrap());
    }

    #[test]
    fn errors_display() {
        let pgg = Pgg::new();
        assert!(pgg.parse("(define (f").is_err());
        let p = pgg.parse("(define (f x) x)").unwrap();
        let e = pgg
            .cogen(&p, "g", &Division::new([BT::Static]))
            .unwrap_err();
        assert!(e.to_string().contains("g"));
    }
}
