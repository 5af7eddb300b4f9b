//! A-normal form (ANF) — Fig. 2 of the paper.
//!
//! ANF is the target language of the specializer and the source language of
//! the byte-code compiler. Its grammar is encoded in the types of this
//! crate, so "validation" is construction: a [`Expr`] *cannot* represent a
//! non-ANF term. Control flow is explicit: applications not bound by `let`
//! are tail calls ("jumps"), which is exactly the property that lets the
//! compiler drop the compile-time continuation (Sec. 6.1).
//!
//! The [`normalize`](normalize::normalize) function converts arbitrary Core Scheme into ANF (the
//! stock-compiler path); the specializer produces ANF directly.

pub mod build;
pub mod normalize;
pub mod optimize;

pub use build::{CodeBuilder, SourceBuilder};
pub use normalize::{normalize, normalize_expr};
pub use optimize::{optimize, optimize_expr};

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use two4one_syntax::cs;
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::printer;
use two4one_syntax::symbol::Symbol;

/// A trivial term: evaluation cannot diverge or have effects.
#[derive(Debug, Clone, PartialEq)]
pub enum Triv {
    /// A constant.
    Const(Datum),
    /// A variable (local or top-level).
    Var(Symbol),
    /// A lambda whose body is again in ANF.
    Lambda(Arc<Lambda>),
}

/// A lambda abstraction in ANF.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Name hint (used for template names).
    pub name: Symbol,
    /// Parameters.
    pub params: Vec<Symbol>,
    /// Body.
    pub body: Expr,
    /// Marks a *join point*: the lambda is the right-hand side of a `let`
    /// whose body uses the bound name only as the operator of
    /// one-argument tail calls, never inside a nested lambda. The
    /// compiler emits such a body as a block of the enclosing template and
    /// each call as a jump; printing ignores the mark.
    pub join: bool,
}

/// A *serious* term: a call or primitive application over trivials.
#[derive(Debug, Clone, PartialEq)]
pub enum App {
    /// Procedure call.
    Call(Triv, Vec<Triv>),
    /// Primitive application.
    Prim(Prim, Vec<Triv>),
}

/// The right-hand side of a `let`.
#[derive(Debug, Clone, PartialEq)]
pub enum Rhs {
    /// A trivial binding.
    Triv(Triv),
    /// A serious binding (the only non-tail call form).
    App(App),
}

/// An ANF expression (the `M` of Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Return a trivial value.
    Ret(Triv),
    /// A tail call or tail primitive — a jump.
    Tail(App),
    /// `(let (x rhs) body)`.
    Let(Symbol, Rhs, Box<Expr>),
    /// `(if t then else)` with a trivial test.
    If(Triv, Box<Expr>, Box<Expr>),
}

/// A top-level ANF definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Global name.
    pub name: Symbol,
    /// Parameters.
    pub params: Vec<Symbol>,
    /// Body.
    pub body: Expr,
}

/// A whole ANF program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Definitions in order; residual programs put the entry point first.
    pub defs: Vec<Def>,
}

impl Triv {
    /// Embeds back into Core Scheme.
    pub fn to_cs(&self) -> cs::Expr {
        match self {
            Triv::Const(d) => cs::Expr::Const(d.clone()),
            Triv::Var(x) => cs::Expr::Var(*x),
            Triv::Lambda(l) => cs::Expr::Lambda(Arc::new(cs::Lambda {
                name: l.name,
                params: l.params.clone(),
                body: l.body.to_cs(),
            })),
        }
    }

    fn free_into(&self, bound: &mut Vec<Symbol>, acc: &mut BTreeSet<Symbol>) {
        match self {
            Triv::Const(_) => {}
            Triv::Var(x) => {
                if !bound.contains(x) {
                    acc.insert(*x);
                }
            }
            Triv::Lambda(l) => {
                let n = bound.len();
                bound.extend(l.params.iter().cloned());
                l.body.free_into(bound, acc);
                bound.truncate(n);
            }
        }
    }
}

impl App {
    /// Embeds back into Core Scheme.
    pub fn to_cs(&self) -> cs::Expr {
        match self {
            App::Call(f, args) => cs::Expr::app(f.to_cs(), args.iter().map(Triv::to_cs).collect()),
            App::Prim(p, args) => cs::Expr::PrimApp(*p, args.iter().map(Triv::to_cs).collect()),
        }
    }

    fn free_into(&self, bound: &mut Vec<Symbol>, acc: &mut BTreeSet<Symbol>) {
        match self {
            App::Call(f, args) => {
                f.free_into(bound, acc);
                args.iter().for_each(|a| a.free_into(bound, acc));
            }
            App::Prim(_, args) => args.iter().for_each(|a| a.free_into(bound, acc)),
        }
    }
}

impl Expr {
    /// Embeds back into Core Scheme (ANF is a sublanguage of CS), used for
    /// oracle testing and for pretty-printing residual programs.
    pub fn to_cs(&self) -> cs::Expr {
        match self {
            Expr::Ret(t) => t.to_cs(),
            Expr::Tail(a) => a.to_cs(),
            Expr::Let(x, rhs, body) => {
                let rhs = match rhs {
                    Rhs::Triv(t) => t.to_cs(),
                    Rhs::App(a) => a.to_cs(),
                };
                cs::Expr::let_(*x, rhs, body.to_cs())
            }
            Expr::If(t, c, a) => cs::Expr::if_(t.to_cs(), c.to_cs(), a.to_cs()),
        }
    }

    fn free_into(&self, bound: &mut Vec<Symbol>, acc: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Ret(t) => t.free_into(bound, acc),
            Expr::Tail(a) => a.free_into(bound, acc),
            Expr::Let(x, rhs, body) => {
                match rhs {
                    Rhs::Triv(t) => t.free_into(bound, acc),
                    Rhs::App(a) => a.free_into(bound, acc),
                }
                bound.push(*x);
                body.free_into(bound, acc);
                bound.pop();
            }
            Expr::If(t, c, a) => {
                t.free_into(bound, acc);
                c.free_into(bound, acc);
                a.free_into(bound, acc);
            }
        }
    }

    /// Free variables (including references to top-level names; the
    /// compiler filters those against the global table).
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut acc = BTreeSet::new();
        self.free_into(&mut Vec::new(), &mut acc);
        acc
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        fn triv(t: &Triv) -> usize {
            match t {
                Triv::Lambda(l) => 1 + l.body.size(),
                _ => 1,
            }
        }
        fn app(a: &App) -> usize {
            match a {
                App::Call(f, args) => 1 + triv(f) + args.iter().map(triv).sum::<usize>(),
                App::Prim(_, args) => 1 + args.iter().map(triv).sum::<usize>(),
            }
        }
        match self {
            Expr::Ret(t) => triv(t),
            Expr::Tail(a) => app(a),
            Expr::Let(_, Rhs::Triv(t), body) => 1 + triv(t) + body.size(),
            Expr::Let(_, Rhs::App(a), body) => 1 + app(a) + body.size(),
            Expr::If(t, c, a) => 1 + triv(t) + c.size() + a.size(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_cs().to_datum())
    }
}

impl Program {
    /// Looks up a definition.
    pub fn def(&self, name: &Symbol) -> Option<&Def> {
        self.defs.iter().find(|d| &d.name == name)
    }

    /// Embeds into a Core Scheme program.
    pub fn to_cs(&self) -> cs::Program {
        cs::Program {
            defs: self
                .defs
                .iter()
                .map(|d| cs::Def {
                    name: d.name,
                    params: d.params.clone(),
                    body: d.body.to_cs(),
                })
                .collect(),
        }
    }

    /// Pretty-prints the program as residual Scheme source text.
    pub fn to_source(&self) -> String {
        printer::pretty_program(&self.to_cs().to_data(), printer::DEFAULT_WIDTH)
    }

    /// Total AST size.
    pub fn size(&self) -> usize {
        self.defs.iter().map(|d| d.body.size() + 1).sum()
    }
}

/// Checks whether an arbitrary Core Scheme expression conforms to the ANF
/// grammar of Fig. 2 — used to validate that the specializer's source
/// backend really emits ANF.
pub fn cs_is_anf(e: &cs::Expr) -> bool {
    fn is_triv(e: &cs::Expr) -> bool {
        match e {
            cs::Expr::Const(_) | cs::Expr::Var(_) => true,
            cs::Expr::Lambda(l) => cs_is_anf(&l.body),
            _ => false,
        }
    }
    fn is_app(e: &cs::Expr) -> bool {
        match e {
            cs::Expr::App(f, args) => is_triv(f) && args.iter().all(is_triv),
            cs::Expr::PrimApp(_, args) => args.iter().all(is_triv),
            _ => false,
        }
    }
    match e {
        _ if is_triv(e) || is_app(e) => true,
        cs::Expr::Let(_, rhs, body) => (is_triv(rhs) || is_app(rhs)) && cs_is_anf(body),
        cs::Expr::If(t, c, a) => is_triv(t) && cs_is_anf(c) && cs_is_anf(a),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_syntax::reader::read_one;

    fn cs_expr(src: &str) -> cs::Expr {
        cs::parse_expr(&read_one(src).unwrap()).unwrap()
    }

    #[test]
    fn anf_grammar_checker() {
        assert!(cs_is_anf(&cs_expr("x")));
        assert!(cs_is_anf(&cs_expr("(f x 1)")));
        assert!(cs_is_anf(&cs_expr("(let ((t (f x))) (g t))")));
        assert!(cs_is_anf(&cs_expr("(if x (f x) (g x))")));
        assert!(cs_is_anf(&cs_expr("(lambda (x) (let ((y (+ x 1))) y))")));
        // Nested serious argument: not ANF.
        assert!(!cs_is_anf(&cs_expr("(f (g x))")));
        // Serious test: not ANF.
        assert!(!cs_is_anf(&cs_expr("(if (f x) 1 2)")));
        // If as rhs of let: not ANF.
        assert!(!cs_is_anf(&cs_expr("(let ((t (if a b c))) t)")));
        // Lambda body must be ANF too.
        assert!(!cs_is_anf(&cs_expr("(lambda (x) (f (g x)))")));
    }

    #[test]
    fn embedding_matches_display() {
        let e = Expr::Let(
            Symbol::new("t"),
            Rhs::App(App::Prim(
                Prim::Add,
                vec![Triv::Var(Symbol::new("x")), Triv::Const(Datum::Int(1))],
            )),
            Box::new(Expr::Ret(Triv::Var(Symbol::new("t")))),
        );
        assert_eq!(e.to_string(), "(let ((t (+ x 1))) t)");
        assert!(cs_is_anf(&e.to_cs()));
    }

    #[test]
    fn free_vars_of_anf() {
        let e = Expr::Let(
            Symbol::new("t"),
            Rhs::App(App::Call(
                Triv::Var(Symbol::new("f")),
                vec![Triv::Var(Symbol::new("x"))],
            )),
            Box::new(Expr::Ret(Triv::Var(Symbol::new("t")))),
        );
        // Sets iterate in Symbol order (intern id, not name), so compare
        // contents order-insensitively.
        let mut fv: Vec<String> = e.free_vars().iter().map(|s| s.to_string()).collect();
        fv.sort();
        assert_eq!(fv, vec!["f", "x"]);
    }

    #[test]
    fn size_accounts_lambdas() {
        let lam = Triv::Lambda(Arc::new(Lambda {
            name: Symbol::new("l"),
            params: vec![Symbol::new("x")],
            body: Expr::Ret(Triv::Var(Symbol::new("x"))),
            join: false,
        }));
        assert_eq!(Expr::Ret(lam).size(), 2);
    }
}
