//! Reconstruction: analysis results → Annotated Core Scheme with lifts.
//!
//! The `demand` flag means "this value must be residual code". A static
//! node under demand is wrapped in `lift` *at the outermost point* — the
//! specializer then evaluates the whole static subtree and inlines its
//! value as a constant, which is the essence of constant propagation by
//! partial evaluation.

use crate::analysis::{Analysis, Node, NodeId, ProcId};
use std::sync::Arc;
use two4one_syntax::acs::{ADef, AExpr, ALambda, AParam, AProgram, CallPolicy, BT};

/// Builds the annotated program from a finished analysis.
pub fn reconstruct(a: &Analysis) -> AProgram {
    let defs = a
        .fns
        .iter()
        .enumerate()
        .map(|(g, f)| {
            let memo = a.memo_fn[g];
            // Note: no `demand` on the body even for the entry and for
            // memoized functions — the specializer's Tail continuation
            // lifts static results at the boundary itself, and wrapping
            // the body in `lift` here would force *recursive unfoldings*
            // of the same definition to residualize their results.
            // Closures escaping through those boundaries are handled in
            // the analysis (escape rules), not by a syntactic lift.
            ADef {
                name: f.name,
                params: f
                    .params
                    .iter()
                    .map(|p| AParam {
                        name: *p,
                        bt: a.bt_var.get(p).copied().unwrap_or(BT::Static),
                    })
                    .collect(),
                body: annotate(a, f.body, false),
                policy: if memo {
                    CallPolicy::Memoize
                } else {
                    CallPolicy::Unfold
                },
                result_bt: a.result_fn[g],
            }
        })
        .collect();
    AProgram { defs }
}

fn annotate(a: &Analysis, n: NodeId, demand: bool) -> AExpr {
    let bt = a.bt_node[n];
    if demand && bt == BT::Static {
        // A top-level function lifts to its all-dynamic residual version
        // (the fixpoint made every escaping function all-dynamic); a
        // closure cannot be lifted.
        debug_assert!(
            a.flow_node[n].iter().all(|p| matches!(p, ProcId::Fn(_))),
            "static node with closure flow under demand: the fixpoint \
             should have residualized {:?}",
            a.flow_node[n]
        );
        return AExpr::Lift(Arc::new(annotate(a, n, false)));
    }
    match &a.nodes[n] {
        Node::Const(d) => AExpr::Const(d.clone()),
        Node::Var(x) => AExpr::Var(*x),
        Node::Lam(l) => {
            let info = &a.lams[*l];
            let lam = |body| {
                Arc::new(ALambda {
                    name: info.name,
                    params: info.params.clone(),
                    body,
                })
            };
            if a.dyn_lam[*l] {
                AExpr::LamD(lam(annotate(a, info.body, true)))
            } else {
                AExpr::Lam(lam(annotate(a, info.body, false)))
            }
        }
        Node::If(t, c, alt) => {
            let test_dynamic = a.bt_node[*t].is_dynamic();
            let result_dynamic = bt.is_dynamic();
            let branch_demand = result_dynamic;
            let (tc, cc, ac) = (
                annotate(a, *t, test_dynamic),
                annotate(a, *c, branch_demand),
                annotate(a, *alt, branch_demand),
            );
            if test_dynamic {
                AExpr::IfD(Arc::new(tc), Arc::new(cc), Arc::new(ac))
            } else {
                AExpr::If(Arc::new(tc), Arc::new(cc), Arc::new(ac))
            }
        }
        Node::Let(x, rhs, body) => AExpr::Let(
            *x,
            Arc::new(annotate(a, *rhs, false)),
            Arc::new(annotate(a, *body, demand)),
        ),
        Node::App(f, args) => {
            if a.bt_node[*f].is_dynamic() {
                AExpr::AppD(
                    Arc::new(annotate(a, *f, true)),
                    args.iter()
                        .map(|x| Arc::new(annotate(a, *x, true)))
                        .collect(),
                )
            } else {
                let callees = a.callees(*f);
                if callees.is_empty() {
                    // Degenerate: operator is static but no procedure can
                    // reach it (dead code or a type error at run time).
                    // Residualize conservatively.
                    return AExpr::AppD(
                        Arc::new(annotate(a, *f, true)),
                        args.iter()
                            .map(|x| Arc::new(annotate(a, *x, true)))
                            .collect(),
                    );
                }
                AExpr::App(
                    Arc::new(annotate(a, *f, false)),
                    args.iter()
                        .enumerate()
                        .map(|(i, x)| {
                            Arc::new(annotate(a, *x, a.site_param_bt(&callees, i).is_dynamic()))
                        })
                        .collect(),
                )
            }
        }
        Node::Prim(p, args) => {
            let all_static = args.iter().all(|x| !a.bt_node[*x].is_dynamic());
            if p.is_pure() && all_static {
                AExpr::Prim(
                    *p,
                    args.iter()
                        .map(|x| Arc::new(annotate(a, *x, false)))
                        .collect(),
                )
            } else {
                AExpr::PrimD(
                    *p,
                    args.iter()
                        .map(|x| Arc::new(annotate(a, *x, true)))
                        .collect(),
                )
            }
        }
    }
}

/// Well-formedness check for annotated programs, used in tests: no static
/// construct consumes a dynamic value, lifts wrap only static expressions,
/// and dynamic constructs only consume dynamic or lifted operands.
pub fn well_formed(a: &Analysis, prog: &AProgram) -> bool {
    // Spot-check the key invariant on the analysis side: every dynamic
    // lambda has dynamic parameters.
    let lams_ok = (0..a.lams.len()).all(|l| {
        !a.dyn_lam[l]
            || a.lams[l]
                .params
                .iter()
                .all(|p| a.bt_var.get(p).copied() == Some(BT::Dynamic))
    });
    // Memoized functions must have dynamic results.
    let fns_ok = prog
        .defs
        .iter()
        .all(|d| d.policy != CallPolicy::Memoize || d.result_bt == BT::Dynamic);
    lams_ok && fns_ok
}

#[allow(unused_imports)]
pub use self::well_formed as check_well_formed;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Division, Options};
    use two4one_frontend::frontend;

    #[test]
    fn well_formedness_on_samples() {
        for (src, entry, div) in [
            (
                "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
                "power",
                vec![BT::Dynamic, BT::Static],
            ),
            (
                "(define (walk xs acc) (if (null? xs) acc (walk (cdr xs) (+ acc 1))))",
                "walk",
                vec![BT::Dynamic, BT::Dynamic],
            ),
            (
                "(define (mk n) (lambda (x) (+ x n)))",
                "mk",
                vec![BT::Static],
            ),
        ] {
            let p = frontend(src).unwrap();
            let mut a =
                Analysis::build(&p, &entry.into(), &Division::new(div), &Options::default());
            a.run(&two4one_syntax::limits::Deadline::unlimited())
                .unwrap();
            let prog = reconstruct(&a);
            assert!(well_formed(&a, &prog), "{src}\n{prog}");
        }
    }
}
