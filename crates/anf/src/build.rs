//! The residual-code construction interface — the fusion seam of the paper.
//!
//! The specializer of Fig. 3 constructs residual code through a fixed
//! vocabulary of constructors (underlined in the paper): make a constant,
//! make a variable, wrap a serious computation in a `let`, build a residual
//! `if`, `lambda`, call, or primitive application. Sec. 6.3 implements that
//! vocabulary twice: once producing *source* syntax and once producing the
//! compiler's *code generation combinators*.
//!
//! [`CodeBuilder`] is that vocabulary as a trait. The specializer
//! (`two4one-pe`) is generic over it; instantiating with:
//!
//! * [`SourceBuilder`] yields the classical source-to-source partial
//!   evaluator (residual ANF syntax, printable as Scheme text);
//! * `ObjectBuilder` (in `two4one-compiler`) yields the *fused* system that
//!   emits byte code directly — the intermediate residual syntax tree is
//!   never constructed, which is precisely the deforestation result of
//!   Sec. 5.4, realized by monomorphization.
//!
//! The `free` parameter of [`CodeBuilder::lambda`] reifies the paper's
//! Sec. 6.4 observation: the compilator for lambdas needs the names of the
//! free variables of the residual body, which the specializer tracks.

use crate::{App, Def, Expr, Lambda, Program, Rhs, Triv};
use std::sync::Arc;
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;

/// Constructors for residual programs in A-normal form.
///
/// Every `Code` value is a complete expression *body*: it terminates in
/// [`ret`](CodeBuilder::ret) or [`tail`](CodeBuilder::tail) on every path.
/// `Triv` and `Serious` values are consumed exactly once.
pub trait CodeBuilder {
    /// Trivial residual terms (constants, variables, lambdas).
    type Triv: Clone;
    /// Serious residual terms (calls and primitive applications).
    type Serious;
    /// Residual expression bodies.
    type Code;
    /// The finished residual program.
    type Program;

    /// A constant (the paper's `lift` lands here).
    fn const_(&mut self, d: &Datum) -> Self::Triv;

    /// A local (dynamic) variable.
    fn var(&mut self, x: &Symbol) -> Self::Triv;

    /// A reference to a top-level residual function used as a value.
    fn global(&mut self, x: &Symbol) -> Self::Triv;

    /// A residual lambda. `free` lists the free variables of `body` (minus
    /// `params`), which the object-code backend needs to build a flat
    /// closure; the source backend ignores it.
    fn lambda(
        &mut self,
        name: &Symbol,
        params: &[Symbol],
        free: &[Symbol],
        body: Self::Code,
    ) -> Self::Triv;

    /// A call to a computed procedure.
    fn call(&mut self, f: Self::Triv, args: Vec<Self::Triv>) -> Self::Serious;

    /// A call to a top-level residual function by name.
    fn call_global(&mut self, g: &Symbol, args: Vec<Self::Triv>) -> Self::Serious;

    /// A primitive application.
    fn prim(&mut self, p: Prim, args: Vec<Self::Triv>) -> Self::Serious;

    /// Terminates a body by returning a trivial value.
    fn ret(&mut self, t: Self::Triv) -> Self::Code;

    /// Terminates a body with a tail call / tail primitive.
    fn tail(&mut self, s: Self::Serious) -> Self::Code;

    /// `(let (x serious) body)` — the continuation-based specializer wraps
    /// every named serious computation this way (Fig. 3).
    fn let_serious(&mut self, x: &Symbol, rhs: Self::Serious, body: Self::Code) -> Self::Code;

    /// `(let (x triv) body)`.
    fn let_triv(&mut self, x: &Symbol, rhs: Self::Triv, body: Self::Code) -> Self::Code;

    /// A residual conditional with a trivial test; both branches are
    /// complete bodies (the specializer duplicates its continuation).
    fn if_(&mut self, t: Self::Triv, then: Self::Code, els: Self::Code) -> Self::Code;

    /// A join point, `(let ((j (lambda (r) jbody))) body)`, where `body`
    /// refers to `j` only in tail calls `(j a)`. The source backend builds
    /// exactly that `let` (its lambda marked [`Lambda::join`]); the object
    /// backend emits `jbody` as a block of the enclosing template and each
    /// call as a jump to it, so no closure is ever built.
    fn join(&mut self, j: &Symbol, r: &Symbol, jbody: Self::Code, body: Self::Code) -> Self::Code;

    /// Adds a top-level residual definition.
    ///
    /// A definition is the last use of every `Code` built before it: a
    /// backend may free their storage here (the object backend clears its
    /// node arena, and a `Code` used after that fails the program with a
    /// typed error), so a caller builds one definition's body completely,
    /// defines it, and only then starts the next. Both specializer engines
    /// call `define` only when a work item ends.
    fn define(&mut self, name: &Symbol, params: &[Symbol], body: Self::Code);

    /// Finishes the program; `entry` names the main residual definition.
    fn finish(self, entry: &Symbol) -> Self::Program;

    /// A monotone measure of the residual code built so far, in
    /// backend-specific units (syntax nodes for the source backend,
    /// emitted instructions for the object backend). The specializer
    /// polls this to enforce
    /// [`Limits::code_cap`](two4one_syntax::limits::Limits::code_cap) —
    /// run-time code generation must not fill memory with residual code
    /// before anyone runs it.
    fn code_size(&self) -> usize;
}

/// The source backend: builds residual ANF syntax, printable as Scheme.
///
/// # Example
///
/// ```
/// use two4one_anf::build::{CodeBuilder, SourceBuilder};
/// use two4one_syntax::{Datum, Symbol};
///
/// let mut b = SourceBuilder::new();
/// let x = Symbol::new("x");
/// let one = b.const_(&Datum::Int(1));
/// let xv = b.var(&x);
/// let sum = b.prim(two4one_syntax::Prim::Add, vec![xv, one]);
/// let body = b.tail(sum);
/// b.define(&Symbol::new("inc"), &[x], body);
/// let prog = b.finish(&Symbol::new("inc"));
/// assert_eq!(prog.defs[0].body.to_string(), "(+ x 1)");
/// ```
#[derive(Debug, Default)]
pub struct SourceBuilder {
    defs: Vec<Def>,
    ops: usize,
}

impl SourceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SourceBuilder {
            defs: Vec::new(),
            ops: 0,
        }
    }

    fn count(&mut self) {
        self.ops += 1;
    }
}

impl CodeBuilder for SourceBuilder {
    type Triv = Triv;
    type Serious = App;
    type Code = Expr;
    type Program = Program;

    fn const_(&mut self, d: &Datum) -> Triv {
        self.count();
        Triv::Const(d.clone())
    }

    fn var(&mut self, x: &Symbol) -> Triv {
        self.count();
        Triv::Var(*x)
    }

    fn global(&mut self, x: &Symbol) -> Triv {
        self.count();
        Triv::Var(*x)
    }

    fn lambda(&mut self, name: &Symbol, params: &[Symbol], _free: &[Symbol], body: Expr) -> Triv {
        self.count();
        Triv::Lambda(Arc::new(Lambda {
            name: *name,
            params: params.to_vec(),
            body,
            join: false,
        }))
    }

    fn call(&mut self, f: Triv, args: Vec<Triv>) -> App {
        self.count();
        App::Call(f, args)
    }

    fn call_global(&mut self, g: &Symbol, args: Vec<Triv>) -> App {
        self.count();
        App::Call(Triv::Var(*g), args)
    }

    fn prim(&mut self, p: Prim, args: Vec<Triv>) -> App {
        self.count();
        App::Prim(p, args)
    }

    fn ret(&mut self, t: Triv) -> Expr {
        self.count();
        Expr::Ret(t)
    }

    fn tail(&mut self, s: App) -> Expr {
        self.count();
        Expr::Tail(s)
    }

    fn let_serious(&mut self, x: &Symbol, rhs: App, body: Expr) -> Expr {
        self.count();
        Expr::Let(*x, Rhs::App(rhs), Box::new(body))
    }

    fn let_triv(&mut self, x: &Symbol, rhs: Triv, body: Expr) -> Expr {
        self.count();
        Expr::Let(*x, Rhs::Triv(rhs), Box::new(body))
    }

    fn if_(&mut self, t: Triv, then: Expr, els: Expr) -> Expr {
        self.count();
        Expr::If(t, Box::new(then), Box::new(els))
    }

    fn join(&mut self, j: &Symbol, r: &Symbol, jbody: Expr, body: Expr) -> Expr {
        // Two syntax nodes: the `let` and its lambda.
        self.ops += 2;
        let lam = Lambda {
            name: *j,
            params: vec![*r],
            body: jbody,
            join: true,
        };
        Expr::Let(*j, Rhs::Triv(Triv::Lambda(Arc::new(lam))), Box::new(body))
    }

    fn define(&mut self, name: &Symbol, params: &[Symbol], body: Expr) {
        self.count();
        self.defs.push(Def {
            name: *name,
            params: params.to_vec(),
            body,
        });
    }

    fn finish(mut self, entry: &Symbol) -> Program {
        // Put the entry definition first for readability.
        if let Some(pos) = self.defs.iter().position(|d| &d.name == entry) {
            let d = self.defs.remove(pos);
            self.defs.insert(0, d);
        }
        Program { defs: self.defs }
    }

    fn code_size(&self) -> usize {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs_is_anf;

    #[test]
    fn built_programs_are_anf_by_construction() {
        let mut b = SourceBuilder::new();
        let x = Symbol::new("x");
        let t = Symbol::new("t");
        let xv = b.var(&x);
        let one = b.const_(&Datum::Int(1));
        let s = b.prim(Prim::Sub, vec![xv, one]);
        let rec = {
            let tv = b.var(&t);
            b.call_global(&Symbol::new("f"), vec![tv])
        };
        let inner = b.tail(rec);
        let body = b.let_serious(&t, s, inner);
        let xv2 = b.var(&x);
        let zero_test = b.prim(Prim::ZeroP, vec![xv2]);
        let done = {
            let c = b.const_(&Datum::Int(0));
            b.ret(c)
        };
        let tz = Symbol::new("tz");
        let tzv = b.var(&tz);
        let cond = b.if_(tzv, done, body);
        let whole = b.let_serious(&tz, zero_test, cond);
        b.define(&Symbol::new("f"), &[x], whole);
        let p = b.finish(&Symbol::new("f"));
        assert!(cs_is_anf(&p.defs[0].body.to_cs()));
        assert_eq!(p.defs[0].name, Symbol::new("f"));
    }

    #[test]
    fn finish_moves_entry_first() {
        let mut b = SourceBuilder::new();
        let u = b.const_(&Datum::Int(1));
        let code = b.ret(u);
        b.define(&Symbol::new("helper"), &[], code);
        let u2 = b.const_(&Datum::Int(2));
        let code2 = b.ret(u2);
        b.define(&Symbol::new("main"), &[], code2);
        let p = b.finish(&Symbol::new("main"));
        assert_eq!(p.defs[0].name, Symbol::new("main"));
        assert_eq!(p.defs[1].name, Symbol::new("helper"));
    }
}
