//! A-normalization: Core Scheme → ANF.
//!
//! This is the path a *stock* compiler takes for arbitrary programs (the
//! "Compile" column of the paper's Fig. 8); the specializer bypasses it by
//! emitting ANF directly.
//!
//! The normalizer is continuation-based. Non-tail conditionals get a *join
//! point* — a let-bound lambda receiving the branch result — so the
//! normalization continuation is used linearly and code size stays linear
//! in the input. The lambda is marked [`Lambda::join`], so the compiler
//! emits its body as a jump target in the enclosing template rather than
//! as a closure. (The specializer inserts the same join points through
//! `CodeBuilder::join`.)

use crate::{App, Def, Expr, Lambda, Program, Rhs, Triv};
use std::sync::Arc;
use two4one_syntax::cs;
use two4one_syntax::symbol::{Gensym, Symbol};

/// Normalizes a whole program.
pub fn normalize(prog: &cs::Program) -> Program {
    let mut gensym = Gensym::new();
    Program {
        defs: prog
            .defs
            .iter()
            .map(|d| Def {
                name: d.name,
                params: d.params.clone(),
                body: normalize_expr(&d.body, &mut gensym),
            })
            .collect(),
    }
}

/// Normalizes a single expression (in tail position).
pub fn normalize_expr(e: &cs::Expr, gensym: &mut Gensym) -> Expr {
    Norm { gensym }.tail(e)
}

struct Norm<'g> {
    gensym: &'g mut Gensym,
}

type K<'a> = Box<dyn FnOnce(&mut Norm, Triv) -> Expr + 'a>;
type KSeq<'a> = Box<dyn FnOnce(&mut Norm, Vec<Triv>) -> Expr + 'a>;

impl Norm<'_> {
    /// Normalizes `e` in tail position.
    fn tail(&mut self, e: &cs::Expr) -> Expr {
        match e {
            cs::Expr::Const(_) | cs::Expr::Var(_) | cs::Expr::Lambda(_) => {
                let t = self.triv(e);
                Expr::Ret(t)
            }
            cs::Expr::If(t, c, a) => self.name(
                t,
                Box::new(move |s, tv| Expr::If(tv, Box::new(s.tail(c)), Box::new(s.tail(a)))),
            ),
            cs::Expr::Let(x, rhs, body) => self.named(*x, rhs, Box::new(move |s| s.tail(body))),
            cs::Expr::App(f, args) => self.name(
                f,
                Box::new(move |s, ft| {
                    s.name_seq(
                        args,
                        Vec::new(),
                        Box::new(move |_, argts| Expr::Tail(App::Call(ft, argts))),
                    )
                }),
            ),
            cs::Expr::PrimApp(p, args) => {
                let p = *p;
                self.name_seq(
                    args,
                    Vec::new(),
                    Box::new(move |_, argts| Expr::Tail(App::Prim(p, argts))),
                )
            }
        }
    }

    /// Normalizes `e`, then passes a *trivial* term denoting its value to
    /// the continuation `k`.
    fn name(&mut self, e: &cs::Expr, k: K<'_>) -> Expr {
        match e {
            cs::Expr::Const(_) | cs::Expr::Var(_) | cs::Expr::Lambda(_) => {
                let t = self.triv(e);
                k(self, t)
            }
            cs::Expr::If(t, c, a) => {
                // Join point: (let ((j (lambda (r) K[r]))) (if t (j …) (j …)))
                let j = self.gensym.fresh("join");
                let r = self.gensym.fresh("r");
                let jt = j;
                let join_body = {
                    let rv = Triv::Var(r);
                    k(self, rv)
                };
                let jump = move |s: &mut Norm, br: &cs::Expr, j: Symbol| {
                    s.name(
                        br,
                        Box::new(move |_, bt| Expr::Tail(App::Call(Triv::Var(j), vec![bt]))),
                    )
                };
                let jc = jump(self, c, j);
                let ja = jump(self, a, j);
                let test_and_branch = self.name(
                    t,
                    Box::new(move |_, tv| Expr::If(tv, Box::new(jc), Box::new(ja))),
                );
                Expr::Let(
                    jt,
                    Rhs::Triv(Triv::Lambda(Arc::new(Lambda {
                        name: j,
                        params: vec![r],
                        body: join_body,
                        join: true,
                    }))),
                    Box::new(test_and_branch),
                )
            }
            cs::Expr::Let(x, rhs, body) => self.named(*x, rhs, Box::new(move |s| s.name(body, k))),
            cs::Expr::App(f, args) => {
                let tmp = self.gensym.fresh("t");
                let tmp2 = tmp;
                self.name(
                    f,
                    Box::new(move |s, ft| {
                        s.name_seq(
                            args,
                            Vec::new(),
                            Box::new(move |s, argts| {
                                let rest = k(s, Triv::Var(tmp2));
                                Expr::Let(tmp2, Rhs::App(App::Call(ft, argts)), Box::new(rest))
                            }),
                        )
                    }),
                )
            }
            cs::Expr::PrimApp(p, args) => {
                let p = *p;
                let tmp = self.gensym.fresh("t");
                self.name_seq(
                    args,
                    Vec::new(),
                    Box::new(move |s, argts| {
                        let rest = k(s, Triv::Var(tmp));
                        Expr::Let(tmp, Rhs::App(App::Prim(p, argts)), Box::new(rest))
                    }),
                )
            }
        }
    }

    /// Normalizes a list of expressions left-to-right into trivials.
    fn name_seq<'a>(&mut self, es: &'a [cs::Expr], mut acc: Vec<Triv>, k: KSeq<'a>) -> Expr {
        match es.split_first() {
            None => k(self, acc),
            Some((first, rest)) => self.name(
                first,
                Box::new(move |s, t| {
                    acc.push(t);
                    s.name_seq(rest, acc, k)
                }),
            ),
        }
    }

    /// Normalizes `(let (x rhs) …)` keeping the binding structure: serious
    /// right-hand sides bind directly without an extra temporary.
    fn named(
        &mut self,
        x: Symbol,
        rhs: &cs::Expr,
        then: Box<dyn FnOnce(&mut Norm) -> Expr + '_>,
    ) -> Expr {
        match rhs {
            cs::Expr::Const(_) | cs::Expr::Var(_) | cs::Expr::Lambda(_) => {
                let t = self.triv(rhs);
                Expr::Let(x, Rhs::Triv(t), Box::new(then(self)))
            }
            cs::Expr::App(f, args) => self.name(
                f,
                Box::new(move |s, ft| {
                    s.name_seq(
                        args,
                        Vec::new(),
                        Box::new(move |s, argts| {
                            Expr::Let(x, Rhs::App(App::Call(ft, argts)), Box::new(then(s)))
                        }),
                    )
                }),
            ),
            cs::Expr::PrimApp(p, args) => {
                let p = *p;
                self.name_seq(
                    args,
                    Vec::new(),
                    Box::new(move |s, argts| {
                        Expr::Let(x, Rhs::App(App::Prim(p, argts)), Box::new(then(s)))
                    }),
                )
            }
            cs::Expr::Let(y, rhs2, body2) => {
                self.named(*y, rhs2, Box::new(move |s| s.named(x, body2, then)))
            }
            cs::Expr::If(..) => {
                // General case: produce a trivial for the conditional
                // (introduces a join point) and bind it.
                self.name(
                    rhs,
                    Box::new(move |s, t| Expr::Let(x, Rhs::Triv(t), Box::new(then(s)))),
                )
            }
        }
    }

    /// Converts an expression that is already trivial.
    fn triv(&mut self, e: &cs::Expr) -> Triv {
        match e {
            cs::Expr::Const(d) => Triv::Const(d.clone()),
            cs::Expr::Var(x) => Triv::Var(*x),
            cs::Expr::Lambda(l) => Triv::Lambda(Arc::new(Lambda {
                name: l.name,
                params: l.params.clone(),
                body: self.tail(&l.body),
                join: false,
            })),
            _ => unreachable!("triv called on serious expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs_is_anf;
    use two4one_syntax::reader::read_one;

    fn norm(src: &str) -> Expr {
        let e = cs::parse_expr(&read_one(src).unwrap()).unwrap();
        normalize_expr(&e, &mut Gensym::new())
    }

    #[test]
    fn already_anf_stays_put_shapewise() {
        let e = norm("(let ((t (f x))) (g t))");
        assert!(cs_is_anf(&e.to_cs()));
        assert!(matches!(e, Expr::Let(_, Rhs::App(App::Call(..)), _)));
    }

    #[test]
    fn nested_calls_get_named() {
        let e = norm("(f (g x) (h y))");
        assert!(cs_is_anf(&e.to_cs()));
        // let t1 = (g x) in let t2 = (h y) in tail (f t1 t2)
        match &e {
            Expr::Let(_, Rhs::App(App::Call(f1, _)), body) => {
                assert_eq!(*f1, Triv::Var(Symbol::new("g")));
                assert!(matches!(&**body, Expr::Let(_, Rhs::App(App::Call(..)), _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn evaluation_order_left_to_right() {
        let e = norm("(f (g 1) (h 2))");
        let text = e.to_string();
        let g_pos = text.find("(g 1)").unwrap();
        let h_pos = text.find("(h 2)").unwrap();
        assert!(g_pos < h_pos, "{text}");
    }

    #[test]
    fn serious_test_is_named() {
        let e = norm("(if (f x) 1 2)");
        assert!(cs_is_anf(&e.to_cs()));
        assert!(matches!(e, Expr::Let(..)));
    }

    #[test]
    fn tail_if_has_no_join_point() {
        let e = norm("(if x (f x) (g x))");
        assert!(matches!(e, Expr::If(..)));
        assert!(!e.to_string().contains("join"));
    }

    #[test]
    fn nontail_if_gets_join_point() {
        let e = norm("(+ 1 (if x 2 3))");
        assert!(cs_is_anf(&e.to_cs()));
        assert!(e.to_string().contains("join"), "{e}");
    }

    #[test]
    fn let_of_if_goes_through_join() {
        let e = norm("(let ((v (if a 1 2))) (+ v 1))");
        assert!(cs_is_anf(&e.to_cs()));
    }

    #[test]
    fn lambda_bodies_are_normalized() {
        let e = norm("(lambda (x) (f (g x)))");
        match e {
            Expr::Ret(Triv::Lambda(l)) => assert!(cs_is_anf(&l.body.to_cs())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_points_linearize_nested_ifs() {
        // Two non-tail ifs: code must stay linear (2 join points, no 4-way
        // duplication of the continuation).
        let e = norm("(+ (if a 1 2) (if b 3 4))");
        let text = e.to_string();
        assert!(text.matches("join").count() >= 2);
        assert!(cs_is_anf(&e.to_cs()));
    }

    #[test]
    fn whole_program_normalization() {
        let p = cs::parse_program(
            &two4one_syntax::reader::read_all(
                "(define (f x) (g (h x))) (define (g y) y) (define (h z) z)",
            )
            .unwrap(),
        )
        .unwrap();
        let anf = normalize(&p);
        assert_eq!(anf.defs.len(), 3);
        for d in &anf.defs {
            assert!(cs_is_anf(&d.body.to_cs()), "{}", d.body);
        }
        // Round-trip through source text re-parses.
        let text = anf.to_source();
        assert!(two4one_syntax::reader::read_all(&text).is_ok());
    }
}
