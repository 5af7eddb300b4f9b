//! Random-program generators and fault injection for testing.
//!
//! The central oracle of the workspace is *engine agreement*: the
//! tree-walking interpreter, the stock compiler + VM, and the specializer
//! must compute the same function. This crate generates random but
//! well-scoped Core Scheme programs (and random data) to drive those
//! comparisons, plus deterministic fault schedules ([`faults`]) for the
//! robustness suite.
//!
//! Everything is driven by the in-repo [`Rng`] (the workspace builds
//! offline, with no property-testing dependency): a test picks a range of
//! seeds, and each seed reproduces one case exactly.
//!
//! Program generation happens in two phases: first a *sketch* tree with de
//! Bruijn-ish variable indices, then a resolution pass that maps indices to
//! the variables actually in scope (or to literals when the scope is
//! empty), guaranteeing closed programs with unique binders.

pub mod faults;
pub mod rng;

pub use rng::Rng;

use std::sync::Arc;
use two4one_syntax::cs::{Def, Expr, Lambda, Program};
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;

/// An expression sketch: variables are indices into the enclosing scope.
#[derive(Debug, Clone)]
pub enum Sketch {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// A variable, resolved modulo the scope size.
    Var(usize),
    /// Arithmetic on two subterms.
    Arith(Prim, Box<Sketch>, Box<Sketch>),
    /// Comparison producing a boolean.
    Cmp(Prim, Box<Sketch>, Box<Sketch>),
    /// Conditional.
    If(Box<Sketch>, Box<Sketch>, Box<Sketch>),
    /// Let binding.
    Let(Box<Sketch>, Box<Sketch>),
    /// Immediately applied unary lambda (keeps arities trivially correct).
    ApplyLambda(Box<Sketch>, Box<Sketch>),
    /// A lambda passed to a higher-order global.
    CallGlobal(usize, Box<Sketch>, Box<Sketch>),
    /// Pair construction and access (kept total by construction/selection
    /// pairing).
    ConsCar(Box<Sketch>, Box<Sketch>),
}

const ARITH: &[Prim] = &[Prim::Add, Prim::Sub, Prim::Mul];
const CMP: &[Prim] = &[Prim::Lt, Prim::Le, Prim::NumEq, Prim::EqualP];

/// Generates a random sketch with at most `depth` levels of nesting.
pub fn gen_sketch(rng: &mut Rng, depth: usize) -> Sketch {
    if depth == 0 {
        return match rng.index(3) {
            0 => Sketch::Int(rng.range_i64(-20, 20)),
            1 => Sketch::Bool(rng.flip()),
            _ => Sketch::Var(rng.index(8)),
        };
    }
    let d = depth - 1;
    match rng.index(8) {
        0 => Sketch::Int(rng.range_i64(-20, 20)),
        1 => Sketch::Arith(
            *rng.pick(ARITH),
            Box::new(gen_sketch(rng, d)),
            Box::new(gen_sketch(rng, d)),
        ),
        2 => Sketch::Cmp(
            *rng.pick(CMP),
            Box::new(gen_sketch(rng, d)),
            Box::new(gen_sketch(rng, d)),
        ),
        3 => Sketch::If(
            Box::new(gen_sketch(rng, d)),
            Box::new(gen_sketch(rng, d)),
            Box::new(gen_sketch(rng, d)),
        ),
        4 => Sketch::Let(Box::new(gen_sketch(rng, d)), Box::new(gen_sketch(rng, d))),
        5 => Sketch::ApplyLambda(Box::new(gen_sketch(rng, d)), Box::new(gen_sketch(rng, d))),
        6 => Sketch::CallGlobal(
            rng.index(GLOBALS.len()),
            Box::new(gen_sketch(rng, d)),
            Box::new(gen_sketch(rng, d)),
        ),
        _ => Sketch::ConsCar(Box::new(gen_sketch(rng, d)), Box::new(gen_sketch(rng, d))),
    }
}

/// Names and arities of the fixed global functions every generated program
/// defines.
const GLOBALS: &[(&str, usize)] = &[("gadd", 2), ("gsel", 2)];

struct Resolver {
    counter: u64,
}

impl Resolver {
    fn fresh(&mut self) -> Symbol {
        self.counter += 1;
        Symbol::new(&format!("v%{}", self.counter))
    }

    fn resolve(&mut self, s: &Sketch, scope: &[Symbol]) -> Expr {
        match s {
            Sketch::Int(n) => Expr::Const(Datum::Int(*n)),
            Sketch::Bool(b) => Expr::Const(Datum::Bool(*b)),
            Sketch::Var(i) => {
                if scope.is_empty() {
                    Expr::Const(Datum::Int(*i as i64))
                } else {
                    Expr::Var(scope[i % scope.len()])
                }
            }
            Sketch::Arith(p, a, b) => {
                Expr::PrimApp(*p, vec![self.resolve(a, scope), self.resolve(b, scope)])
            }
            Sketch::Cmp(p, a, b) => {
                Expr::PrimApp(*p, vec![self.resolve(a, scope), self.resolve(b, scope)])
            }
            Sketch::If(t, c, a) => Expr::if_(
                self.resolve(t, scope),
                self.resolve(c, scope),
                self.resolve(a, scope),
            ),
            Sketch::Let(r, b) => {
                let x = self.fresh();
                let rhs = self.resolve(r, scope);
                let mut inner = scope.to_vec();
                inner.push(x);
                Expr::let_(x, rhs, self.resolve(b, &inner))
            }
            Sketch::ApplyLambda(body, arg) => {
                let x = self.fresh();
                let mut inner = scope.to_vec();
                inner.push(x);
                let lam = Expr::Lambda(Arc::new(Lambda {
                    name: Symbol::new("anon"),
                    params: vec![x],
                    body: self.resolve(body, &inner),
                }));
                Expr::app(lam, vec![self.resolve(arg, scope)])
            }
            Sketch::CallGlobal(g, a, b) => {
                let (name, arity) = GLOBALS[g % GLOBALS.len()];
                debug_assert_eq!(arity, 2);
                Expr::app(
                    Expr::Var(Symbol::new(name)),
                    vec![self.resolve(a, scope), self.resolve(b, scope)],
                )
            }
            Sketch::ConsCar(a, b) => {
                // (car (cons a b)) — exercises pairs while staying total.
                let pair = Expr::PrimApp(
                    Prim::Cons,
                    vec![self.resolve(a, scope), self.resolve(b, scope)],
                );
                Expr::PrimApp(Prim::Car, vec![pair])
            }
        }
    }
}

/// Builds a closed program from sketches: fixed library globals plus a
/// two-parameter `main` whose body is the resolved sketch.
pub fn program_from_sketch(main_body: &Sketch, gadd_body: &Sketch) -> Program {
    let mut r = Resolver { counter: 0 };
    let a = Symbol::new("a%main");
    let b = Symbol::new("b%main");
    let main = Def {
        name: Symbol::new("main"),
        params: vec![a, b],
        body: r.resolve(main_body, &[a, b]),
    };
    let ga = Symbol::new("a%gadd");
    let gb = Symbol::new("b%gadd");
    let gadd = Def {
        name: Symbol::new("gadd"),
        params: vec![ga, gb],
        body: r.resolve(gadd_body, &[ga, gb]),
    };
    // gsel: a higher-orderish selector on plain values.
    let sa = Symbol::new("a%gsel");
    let sb = Symbol::new("b%gsel");
    let gsel = Def {
        name: Symbol::new("gsel"),
        params: vec![sa, sb],
        body: Expr::if_(
            Expr::PrimApp(Prim::Lt, vec![Expr::Var(sa), Expr::Var(sb)]),
            Expr::Var(sa),
            Expr::Var(sb),
        ),
    };
    Program {
        defs: vec![main, gadd, gsel],
    }
}

/// Generates a whole closed program (main body and `gadd` body are
/// independent random sketches).
pub fn gen_program(rng: &mut Rng) -> Program {
    let main = gen_sketch(rng, 5);
    let gadd = gen_sketch(rng, 4);
    program_from_sketch(&main, &gadd)
}

const SYM_HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const SYM_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789!?<>=+*-";
/// Characters, among them every one the printer names or that is a
/// delimiter elsewhere in the syntax.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '\n', '\t', 'λ', '(', ')', '"', '\\', ';', '#', '\'',
];
/// Integers at and next to the ends of the `i64` range.
const EXTREME_INTS: &[i64] = &[i64::MIN, i64::MIN + 1, -1, 0, i64::MAX];
/// String characters the printer must escape, or passes through raw.
const STRING_SPECIALS: &[char] = &['"', '\\', '\n', '\t', 'λ'];
/// The heads the printer writes as quote sugar.
const SUGAR: &[&str] = &["quote", "quasiquote", "unquote", "unquote-splicing"];

/// Generates random first-order data (for reader/printer round-trips) with
/// at most `depth` levels of nesting: pairs with dotted tails, proper
/// lists, quote sugar, and atoms including extreme integers, named and
/// delimiter characters, and strings that need escapes.
pub fn gen_datum(rng: &mut Rng, depth: usize) -> Datum {
    if depth > 0 && rng.chance(2, 5) {
        return match rng.index(3) {
            0 => Datum::cons(gen_datum(rng, depth - 1), gen_datum(rng, depth - 1)),
            1 => {
                let n = rng.index(4);
                Datum::list(
                    (0..n)
                        .map(|_| gen_datum(rng, depth - 1))
                        .collect::<Vec<_>>(),
                )
            }
            _ => {
                let head = rng.pick(SUGAR);
                Datum::list([Datum::sym(head), gen_datum(rng, depth - 1)])
            }
        };
    }
    match rng.index(6) {
        0 => Datum::Nil,
        1 => Datum::Bool(rng.flip()),
        2 if rng.chance(1, 4) => Datum::Int(*rng.pick(EXTREME_INTS)),
        2 => Datum::Int(rng.range_i64(-1000, 1000)),
        3 => {
            let mut s = String::new();
            s.push(*rng.pick(SYM_HEAD) as char);
            for _ in 0..rng.index(6) {
                s.push(*rng.pick(SYM_TAIL) as char);
            }
            Datum::sym(&s)
        }
        4 => {
            let mut s = String::new();
            for _ in 0..rng.index(8) {
                if rng.chance(1, 4) {
                    s.push(*rng.pick(STRING_SPECIALS));
                } else {
                    // Printable ASCII.
                    s.push((0x20 + rng.below(0x5f) as u8) as char);
                }
            }
            Datum::string(&s)
        }
        _ => Datum::Char(*rng.pick(CHARS)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_are_closed() {
        for seed in 0..200 {
            let p = gen_program(&mut Rng::new(seed));
            assert!(
                p.unbound_vars().is_empty(),
                "seed {seed}: {:?}",
                p.unbound_vars()
            );
        }
    }

    #[test]
    fn generated_programs_have_unique_binders() {
        // Collect all binders; uniqueness is what BTA requires.
        fn binders(e: &Expr, out: &mut Vec<Symbol>) {
            match e {
                Expr::Lambda(l) => {
                    out.extend(l.params.iter().cloned());
                    binders(&l.body, out);
                }
                Expr::Let(x, r, b) => {
                    out.push(*x);
                    binders(r, out);
                    binders(b, out);
                }
                Expr::If(a, b, c) => {
                    binders(a, out);
                    binders(b, out);
                    binders(c, out);
                }
                Expr::App(f, args) => {
                    binders(f, out);
                    args.iter().for_each(|a| binders(a, out));
                }
                Expr::PrimApp(_, args) => args.iter().for_each(|a| binders(a, out)),
                _ => {}
            }
        }
        for seed in 0..200 {
            let p = gen_program(&mut Rng::new(seed));
            let mut all = Vec::new();
            for d in &p.defs {
                all.extend(d.params.iter().cloned());
                binders(&d.body, &mut all);
            }
            let set: std::collections::HashSet<_> = all.iter().collect();
            assert_eq!(set.len(), all.len(), "seed {seed}");
        }
    }

    #[test]
    fn datum_generator_is_printable_and_deterministic() {
        for seed in 0..200 {
            let d1 = gen_datum(&mut Rng::new(seed), 4);
            let d2 = gen_datum(&mut Rng::new(seed), 4);
            assert_eq!(d1, d2, "seed {seed}");
            let _ = d1.to_string();
        }
    }
}
