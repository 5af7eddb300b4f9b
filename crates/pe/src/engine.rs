//! Types shared by the two consumers of the staged-code IR: the
//! interpretive walker ([`crate::walk`]) and the gen-ext machine
//! ([`crate::genrun`]).
//!
//! Both engines execute the same [`GenProgram`](two4one_vm::GenProgram)
//! and must agree bit-for-bit on the residual program they emit, so the
//! bookkeeping that *shapes* residual code — free-variable tracking,
//! memoization keys, fallback classification — lives here, written once.

use crate::PeError;
use std::hash::{Hash, Hasher};
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::LimitKind;
use two4one_syntax::symbol::Symbol;
use two4one_syntax::symset::SymSet;

/// A residual trivial term together with its free variables (the
/// specializer-side bookkeeping that feeds `CodeBuilder::lambda`, resolving
/// the paper's Sec. 6.4 name/compilator duality) and a size hint used to
/// avoid duplicating heavyweight trivials when unfolding.
pub struct Resid<T> {
    /// The backend trivial.
    pub triv: T,
    /// Free (dynamic) variables. A [`SymSet`] clones by refcount, so
    /// threading the set through continuations costs no tree copies.
    pub fv: SymSet,
    /// True for variables and constants, false for compiled lambdas.
    pub simple: bool,
}

impl<T: Clone> Clone for Resid<T> {
    fn clone(&self) -> Self {
        Resid {
            triv: self.triv.clone(),
            fv: self.fv.clone(),
            simple: self.simple,
        }
    }
}

/// Residual code with its free variables.
pub struct RCode<B: two4one_anf::build::CodeBuilder> {
    /// Backend code.
    pub code: B::Code,
    /// Free (dynamic) variables.
    pub fv: SymSet,
}

impl<B: two4one_anf::build::CodeBuilder> Clone for RCode<B> {
    fn clone(&self) -> Self {
        RCode {
            code: self.code.clone(),
            fv: self.fv.clone(),
        }
    }
}

/// Key of the memoization cache: callee plus the static argument tuple.
///
/// The 64-bit digest is sealed at construction from the callee's symbol
/// digest and the (already hash-consed, see [`Datum::digest`]) digests of
/// the static arguments, so a memo probe hashes one word no matter how
/// large the static data is. Equality still compares the full tuple —
/// the digest can route, never decide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemoKey {
    digest: u64,
    fn_name: Symbol,
    statics: Vec<StaticKey>,
}

impl MemoKey {
    pub(crate) fn new(fn_name: Symbol, statics: Vec<StaticKey>) -> Self {
        let mut d: u64 = 0xcbf2_9ce4_8422_2325 ^ fn_name.digest();
        for k in &statics {
            let w = match k {
                StaticKey::Data(datum) => datum.digest(),
                // Tag fn-refs apart from a datum that happens to share a
                // symbol digest.
                StaticKey::Fn(g) => g.digest() ^ 0x9e37_79b9_7f4a_7c15,
            };
            d = (d.rotate_left(5) ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        MemoKey {
            digest: d,
            fn_name,
            statics,
        }
    }
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// One component of a memoization key. Function references are keyed by
/// the *source* name of the referenced definition, so the walker and the
/// gen-ext machine — which addresses definitions by index — agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StaticKey {
    Data(Datum),
    Fn(Symbol),
}

/// Counters reported after specialization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Calls unfolded.
    pub unfolds: u64,
    /// Memoization cache hits.
    pub memo_hits: u64,
    /// Distinct specialization points created.
    pub memo_misses: u64,
    /// Residual definitions emitted.
    pub residual_defs: u64,
    /// Runs dropped at a recoverable limit and answered with the generic
    /// image instead (see `two4one_pe::genrun`): 0 or 1.
    pub fallbacks: u64,
    /// Generic (all-dynamic) residual definitions emitted: those of a
    /// generic image.
    pub generic_defs: u64,
    /// The limit behind the fallback, when one fired. Lets a serving
    /// layer distinguish transient starvation (unfold fuel, memo cap —
    /// worth retrying with a bigger budget) from structural limits.
    pub fallback_kind: Option<LimitKind>,
}

impl SpecStats {
    /// True when the residual program is generic code: a generic image,
    /// whether a run fell back to it or it was asked for directly.
    pub fn degraded(&self) -> bool {
        self.fallbacks > 0 || self.generic_defs > 0
    }

    /// Records the fallback of a run dropped at the recoverable limit `e`.
    pub(crate) fn note_fallback(&mut self, e: &PeError) {
        self.fallbacks += 1;
        two4one_obs::event(two4one_obs::EventKind::Fallback);
        self.fallback_kind = match e {
            PeError::UnfoldLimit(_) => Some(LimitKind::UnfoldFuel),
            PeError::Limit(l) => Some(l.kind),
            _ => None,
        };
    }
}
