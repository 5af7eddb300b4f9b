//! A post-pass optimizer for ANF programs.
//!
//! Residual programs produced by the specializer are correct but carry
//! artifacts of the generation discipline: `let`-bindings of trivials
//! introduced when unfolding rebinds heavyweight arguments, multiplications
//! by lifted `1`s at recursion bases (`power`'s `(* x 1)`), and bindings
//! that the continuation never ended up using. This pass cleans them up:
//!
//! * **copy/constant propagation** — `(let (x t) M)` with trivial `t`
//!   substitutes `t` for `x` in `M` (lambdas are propagated only when used
//!   once, to avoid duplicating code);
//! * **algebraic simplification** — `(if #t …)`/`(if #f …)`, constant
//!   folding of pure primitives on constants;
//! * **dead-binding elimination** — `(let (x a) M)` where `x` is unused and
//!   `a` is a *total* primitive application is dropped (calls and faulting
//!   primitives are kept: they may diverge, fault, or perform effects).
//!
//! The optimizer is **fault-preserving**: a program that raises a runtime
//! error keeps raising it. That is why it has no unit laws: `(* x 1) → x`
//! erases the type error the original raises when `x` is not a number. It
//! runs to a fixpoint and is checked against the interpreter oracle in
//! the test suite and by property tests.

use crate::{App, Def, Expr, Lambda, Program, Rhs, Triv};
use std::collections::HashMap;
use std::sync::Arc;
use two4one_syntax::datum::Datum;
use two4one_syntax::symbol::Symbol;
use two4one_syntax::value::apply_prim_datum;

/// Optimizes a whole program to a fixpoint, preserving faults.
///
/// # Example
///
/// ```
/// use two4one_anf::{normalize, optimize};
/// use two4one_syntax::cs::parse_program;
/// use two4one_syntax::reader::read_all;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cs = parse_program(&read_all(
///     "(define (f x) (let ((dead (cons x x))) (if #t (+ 1 2) x)))",
/// )?)?;
/// let optimized = optimize(&normalize(&cs));
/// assert_eq!(optimized.defs[0].body.to_string(), "3");
/// # Ok(())
/// # }
/// ```
pub fn optimize(p: &Program) -> Program {
    Program {
        defs: p
            .defs
            .iter()
            .map(|d| Def {
                name: d.name,
                params: d.params.clone(),
                body: optimize_expr(&d.body),
            })
            .collect(),
    }
}

/// Optimizes one expression to a fixpoint (fault-preserving).
pub fn optimize_expr(e: &Expr) -> Expr {
    let mut cur = e.clone();
    for _ in 0..16 {
        let next = pass(&cur, &mut HashMap::new());
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

/// Substitution environment: variables mapped to replacement trivials.
type Subst = HashMap<Symbol, Triv>;

fn subst_triv(t: &Triv, s: &Subst) -> Triv {
    match t {
        Triv::Var(x) => s.get(x).cloned().unwrap_or_else(|| t.clone()),
        Triv::Const(_) => t.clone(),
        Triv::Lambda(l) => Triv::Lambda(Arc::new(Lambda {
            name: l.name,
            params: l.params.clone(),
            body: pass(&l.body, &mut shadowed(s, &l.params)),
            join: l.join,
        })),
    }
}

fn shadowed(s: &Subst, params: &[Symbol]) -> Subst {
    let mut s2 = s.clone();
    for p in params {
        s2.remove(p);
    }
    s2
}

fn subst_app(a: &App, s: &Subst) -> App {
    match a {
        App::Call(f, args) => App::Call(
            subst_triv(f, s),
            args.iter().map(|t| subst_triv(t, s)).collect(),
        ),
        App::Prim(p, args) => App::Prim(*p, args.iter().map(|t| subst_triv(t, s)).collect()),
    }
}

/// Algebraic simplification of a serious term; returns a trivial when the
/// whole application collapses.
fn simplify_app(a: &App) -> Result<Triv, App> {
    if let App::Prim(p, args) = a {
        // Constant folding of pure primitives over constants.
        if p.is_pure() && !args.is_empty() {
            let consts: Option<Vec<Datum>> = args
                .iter()
                .map(|t| match t {
                    Triv::Const(d) => Some(d.clone()),
                    _ => None,
                })
                .collect();
            if let Some(ds) = consts {
                if let Ok(d) = apply_prim_datum(*p, &ds) {
                    return Ok(Triv::Const(d));
                }
            }
        }
    }
    Err(a.clone())
}

fn uses_in_triv(t: &Triv, x: &Symbol) -> usize {
    match t {
        Triv::Var(y) => usize::from(y == x),
        Triv::Const(_) => 0,
        Triv::Lambda(l) => {
            if l.params.contains(x) {
                0
            } else {
                uses_in_expr(&l.body, x)
            }
        }
    }
}

fn uses_in_app(a: &App, x: &Symbol) -> usize {
    match a {
        App::Call(f, args) => {
            uses_in_triv(f, x) + args.iter().map(|t| uses_in_triv(t, x)).sum::<usize>()
        }
        App::Prim(_, args) => args.iter().map(|t| uses_in_triv(t, x)).sum(),
    }
}

fn uses_in_expr(e: &Expr, x: &Symbol) -> usize {
    match e {
        Expr::Ret(t) => uses_in_triv(t, x),
        Expr::Tail(a) => uses_in_app(a, x),
        Expr::Let(y, rhs, body) => {
            let rhs_uses = match rhs {
                Rhs::Triv(t) => uses_in_triv(t, x),
                Rhs::App(a) => uses_in_app(a, x),
            };
            // Names are unique, so shadowing cannot occur, but guard anyway.
            rhs_uses + if y == x { 0 } else { uses_in_expr(body, x) }
        }
        Expr::If(t, c, a) => uses_in_triv(t, x) + uses_in_expr(c, x) + uses_in_expr(a, x),
    }
}

fn pass(e: &Expr, s: &mut Subst) -> Expr {
    match e {
        Expr::Ret(t) => Expr::Ret(subst_triv(t, s)),
        Expr::Tail(a) => {
            let a = subst_app(a, s);
            match simplify_app(&a) {
                Ok(t) => Expr::Ret(t),
                Err(a) => Expr::Tail(a),
            }
        }
        Expr::Let(x, rhs, body) => {
            match rhs {
                Rhs::Triv(t) => {
                    let t = subst_triv(t, s);
                    let propagate = match &t {
                        Triv::Const(_) | Triv::Var(_) => true,
                        // Don't duplicate lambdas: propagate only when the
                        // binding is used at most once (also preserves
                        // `eq?` identity of the closure). A join point
                        // stays bound while anything jumps to it:
                        // substituted into its call it would be a closure.
                        Triv::Lambda(l) => match uses_in_expr(body, x) {
                            0 => true,
                            1 => !l.join,
                            _ => false,
                        },
                    };
                    if propagate {
                        s.insert(*x, t);
                        pass(body, s)
                    } else {
                        Expr::Let(*x, Rhs::Triv(t), Box::new(pass(body, s)))
                    }
                }
                Rhs::App(a) => {
                    let a = subst_app(a, s);
                    match simplify_app(&a) {
                        Ok(t) => {
                            s.insert(*x, t);
                            pass(body, s)
                        }
                        Err(a) => {
                            let body2 = pass(body, s);
                            // Fault preservation: only *total* primitives
                            // may vanish.
                            let droppable = matches!(&a, App::Prim(p, _) if p.is_total());
                            if droppable && uses_in_expr(&body2, x) == 0 {
                                body2
                            } else {
                                Expr::Let(*x, Rhs::App(a), Box::new(body2))
                            }
                        }
                    }
                }
            }
        }
        Expr::If(t, c, a) => {
            let t = subst_triv(t, s);
            if let Triv::Const(d) = &t {
                let branch = if d.is_truthy() { c } else { a };
                return pass(branch, s);
            }
            Expr::If(
                t,
                Box::new(pass(c, &mut s.clone())),
                Box::new(pass(a, &mut s.clone())),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_syntax::reader::read_one;

    fn parse_anf(src: &str) -> Expr {
        // Build via normalization of the strict core parser for convenience.
        let e = two4one_syntax::cs::parse_expr(&read_one(src).unwrap()).unwrap();
        crate::normalize_expr(&e, &mut two4one_syntax::symbol::Gensym::new())
    }

    fn opt(src: &str) -> String {
        optimize_expr(&parse_anf(src)).to_string()
    }

    #[test]
    fn constant_folding_chains() {
        assert_eq!(opt("(+ 1 (+ 2 3))"), "6");
        assert_eq!(opt("(car '(1 2))"), "1");
        // Folding must not fold faulting applications.
        assert_eq!(opt("(car 5)"), "(car 5)");
        // Division by zero stays residual.
        assert_eq!(opt("(quotient 1 0)"), "(quotient 1 0)");
        // No unit laws: `x` may not be a number, and the fault must stay.
        assert_eq!(opt("(* x 1)"), "(* x 1)");
    }

    #[test]
    fn copy_propagation_collapses_let_chains() {
        let e = opt("(let ((a x)) (let ((b a)) (+ b 1)))");
        assert_eq!(e, "(+ x 1)");
    }

    #[test]
    fn dead_binding_elimination_respects_totality() {
        // cons is total: safe to drop.
        assert_eq!(opt("(let ((unused (cons x y))) 42)"), "42");
        // + can fault on non-numbers: it stays.
        assert!(opt("(let ((unused (+ x 1))) 42)").contains("+"));
        // Calls are never dropped: they may diverge or have effects.
        let e = opt("(let ((unused (f x))) 42)");
        assert!(e.contains("(f x)"), "{e}");
    }

    #[test]
    fn effectful_prims_are_kept() {
        let e = opt("(let ((u (display x))) 42)");
        assert!(e.contains("display"), "{e}");
    }

    #[test]
    fn static_conditionals_collapse() {
        assert_eq!(opt("(if #t 1 2)"), "1");
        assert_eq!(opt("(if #f 1 2)"), "2");
        assert_eq!(opt("(if 0 1 2)"), "1"); // 0 is truthy in Scheme
    }

    #[test]
    fn lambda_bindings_propagate_only_when_linear() {
        // Used once: inlined into the call position.
        let e = opt("(let ((f (lambda (y) y))) (f 1))");
        assert_eq!(e, "((lambda (y) y) 1)");
        // Used twice: stays bound (no code duplication).
        let e = opt("(let ((f (lambda (y) y))) (g f f))");
        assert!(e.starts_with("(let ((f"), "{e}");
    }

    #[test]
    fn join_points_stay_bound_while_anything_jumps_to_them() {
        // Folding the static test leaves one jump to the join point.
        // Substituting the join into that call would turn it into a
        // closure applied on the spot; it must stay a bound join.
        let e = optimize_expr(&parse_anf("(+ (if #t x 2) 1)"));
        match &e {
            Expr::Let(j, Rhs::Triv(Triv::Lambda(l)), body) => {
                assert!(l.join, "{e}");
                assert_eq!(
                    **body,
                    Expr::Tail(App::Call(Triv::Var(*j), vec![Triv::Var(Symbol::new("x"))]))
                );
            }
            other => panic!("join point propagated away: {other}"),
        }
    }

    #[test]
    fn optimizer_is_idempotent() {
        for src in [
            "(let ((a (* x 1))) (let ((b (+ a 0))) (f b b)))",
            "(if (< x 1) (* 2 3) (+ x 0))",
        ] {
            let once = optimize_expr(&parse_anf(src));
            let twice = optimize_expr(&once);
            assert_eq!(once, twice, "{src}");
        }
    }

    #[test]
    fn output_remains_valid_anf() {
        for src in [
            "(let ((a (* x 1))) (let ((b (f a))) (+ b 2)))",
            "(if x (let ((u (g x))) u) 2)",
        ] {
            let o = optimize_expr(&parse_anf(src));
            assert!(crate::cs_is_anf(&o.to_cs()), "{o}");
        }
    }
}
