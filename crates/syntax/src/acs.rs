//! Annotated Core Scheme (ACS) — the two-level syntax of Sec. 4.
//!
//! ACS is CS with *dynamic* variants of primitive operations, lambda
//! abstractions, applications, and conditionals (the paper's superscript-D
//! constructs), plus `lift`, which coerces a static first-order value into
//! code. The binding-time analysis (`two4one-bta`) produces ACS; the
//! specializer (`two4one-pe`) consumes it. Static constructs are executed at
//! specialization time; dynamic constructs *generate residual code*.

use crate::datum::Datum;
use crate::prim::Prim;
use crate::symbol::Symbol;
use std::fmt;
use std::sync::Arc;

/// A binding time: static (known at specialization time) or dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BT {
    /// Known at specialization time.
    #[default]
    Static,
    /// Known only at run time.
    Dynamic,
}

impl BT {
    /// Least upper bound in the two-point lattice `S ⊑ D`.
    pub fn lub(self, other: BT) -> BT {
        if self == BT::Dynamic || other == BT::Dynamic {
            BT::Dynamic
        } else {
            BT::Static
        }
    }

    /// True if dynamic.
    pub fn is_dynamic(self) -> bool {
        self == BT::Dynamic
    }
}

impl fmt::Display for BT {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BT::Static => "S",
            BT::Dynamic => "D",
        })
    }
}

/// An annotated expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AExpr {
    /// A constant (always static).
    Const(Datum),
    /// A variable reference.
    Var(Symbol),
    /// Coerce the static value of the subexpression to code.
    Lift(Arc<AExpr>),
    /// A static lambda: a specialization-time closure.
    Lam(Arc<ALambda>),
    /// A dynamic lambda: generates a residual `lambda`.
    LamD(Arc<ALambda>),
    /// Static conditional: the test is decided at specialization time.
    If(Arc<AExpr>, Arc<AExpr>, Arc<AExpr>),
    /// Dynamic conditional: generates a residual `if` (and duplicates the
    /// specialization continuation into both branches, as in Fig. 3).
    IfD(Arc<AExpr>, Arc<AExpr>, Arc<AExpr>),
    /// `let` — unannotated; the continuation-based specializer handles
    /// static and dynamic right-hand sides uniformly (see Fig. 3).
    Let(Symbol, Arc<AExpr>, Arc<AExpr>),
    /// Static application: the operator is a specialization-time closure or
    /// a top-level function; the call is unfolded or memoized.
    App(Arc<AExpr>, Vec<Arc<AExpr>>),
    /// Dynamic application: generates a residual call.
    AppD(Arc<AExpr>, Vec<Arc<AExpr>>),
    /// Static primitive application: evaluated at specialization time.
    Prim(Prim, Vec<Arc<AExpr>>),
    /// Dynamic primitive application: generates residual code.
    PrimD(Prim, Vec<Arc<AExpr>>),
}

/// An annotated lambda.
#[derive(Debug, Clone, PartialEq)]
pub struct ALambda {
    /// Name hint.
    pub name: Symbol,
    /// Formal parameters.
    pub params: Vec<Symbol>,
    /// The body.
    pub body: AExpr,
}

/// A parameter of an annotated definition, with its binding time.
#[derive(Debug, Clone, PartialEq)]
pub struct AParam {
    /// The parameter name.
    pub name: Symbol,
    /// Its binding time.
    pub bt: BT,
}

/// How calls to a top-level function are treated by the specializer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CallPolicy {
    /// Inline the body at the call site (specialization-time β).
    #[default]
    Unfold,
    /// Residualize the call and specialize the callee once per distinct
    /// tuple of static arguments (a *specialization point*).
    Memoize,
}

/// An annotated top-level definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ADef {
    /// The global name.
    pub name: Symbol,
    /// Parameters with binding times.
    pub params: Vec<AParam>,
    /// The annotated body.
    pub body: AExpr,
    /// Unfold or memoize calls to this function.
    pub policy: CallPolicy,
    /// Binding time of the result.
    pub result_bt: BT,
}

/// An annotated program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AProgram {
    /// The definitions.
    pub defs: Vec<ADef>,
}

impl AProgram {
    /// Looks up an annotated definition by name.
    pub fn def(&self, name: &Symbol) -> Option<&ADef> {
        self.defs.iter().find(|d| &d.name == name)
    }
}

impl AExpr {
    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            AExpr::Const(_) | AExpr::Var(_) => 1,
            AExpr::Lift(e) => 1 + e.size(),
            AExpr::Lam(l) | AExpr::LamD(l) => 1 + l.body.size(),
            AExpr::If(a, b, c) | AExpr::IfD(a, b, c) => 1 + a.size() + b.size() + c.size(),
            AExpr::Let(_, rhs, body) => 1 + rhs.size() + body.size(),
            AExpr::App(f, args) | AExpr::AppD(f, args) => {
                1 + f.size() + args.iter().map(|a| a.size()).sum::<usize>()
            }
            AExpr::Prim(_, args) | AExpr::PrimD(_, args) => {
                1 + args.iter().map(|a| a.size()).sum::<usize>()
            }
        }
    }

    /// Renders to concrete syntax with the paper's underline convention
    /// spelled `_name` for dynamic constructs, for inspection, tests and
    /// cache identities. Renders in a loop: a node waits on `todo` with
    /// the number of rendered data before its children (`Some`) until
    /// they are rendered, so a deep program costs no stack.
    pub fn to_datum(&self) -> Datum {
        let mut todo = vec![(self, None)];
        let mut done: Vec<Datum> = Vec::new();
        while let Some((e, base)) = todo.pop() {
            let Some(base) = base else {
                todo.push((e, Some(done.len())));
                match e {
                    AExpr::Const(_) | AExpr::Var(_) => {}
                    AExpr::Lift(x) => todo.push((x, None)),
                    AExpr::Lam(l) | AExpr::LamD(l) => todo.push((&l.body, None)),
                    AExpr::If(a, b, c) | AExpr::IfD(a, b, c) => {
                        todo.extend([c, b, a].map(|x| (&**x, None)));
                    }
                    AExpr::Let(_, rhs, body) => todo.extend([body, rhs].map(|x| (&**x, None))),
                    AExpr::App(f, args) | AExpr::AppD(f, args) => {
                        todo.extend([f].into_iter().chain(args).rev().map(|x| (&**x, None)));
                    }
                    AExpr::Prim(_, args) | AExpr::PrimD(_, args) => {
                        todo.extend(args.iter().rev().map(|x| (&**x, None)));
                    }
                }
                continue;
            };
            let d = {
                let mut kids = done.drain(base..);
                let head = |tag: &str| std::iter::once(Datum::sym(tag));
                let lam = |tag: &str, l: &ALambda| {
                    let params = l.params.iter().cloned().map(Datum::Sym);
                    head(tag).chain([Datum::list(params.collect::<Vec<_>>())])
                };
                match e {
                    AExpr::Const(d) if d.is_self_evaluating() => d.clone(),
                    AExpr::Const(d) => Datum::list([Datum::sym("quote"), d.clone()]),
                    AExpr::Var(x) => Datum::Sym(*x),
                    AExpr::Lift(_) => Datum::list(head("lift").chain(kids)),
                    AExpr::Lam(l) => Datum::list(lam("lambda", l).chain(kids)),
                    AExpr::LamD(l) => Datum::list(lam("_lambda", l).chain(kids)),
                    AExpr::If(..) => Datum::list(head("if").chain(kids)),
                    AExpr::IfD(..) => Datum::list(head("_if").chain(kids)),
                    AExpr::Let(x, ..) => {
                        let rhs = kids.next().unwrap_or(Datum::Nil);
                        let binding = Datum::list([Datum::list([Datum::Sym(*x), rhs])]);
                        Datum::list(head("let").chain([binding]).chain(kids))
                    }
                    AExpr::App(..) => Datum::list(kids),
                    AExpr::AppD(..) => Datum::list(head("_apply").chain(kids)),
                    AExpr::Prim(p, _) => Datum::list(head(p.name()).chain(kids)),
                    AExpr::PrimD(p, _) => Datum::list(head(&format!("_{}", p.name())).chain(kids)),
                }
            };
            done.push(d);
        }
        done.pop().unwrap_or(Datum::Nil)
    }
}

impl fmt::Display for AExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_datum())
    }
}

impl ADef {
    /// Renders to concrete syntax: `(define[-memo] (f x:S y:D) body)`.
    pub fn to_datum(&self) -> Datum {
        let mut head = vec![Datum::Sym(self.name)];
        for p in &self.params {
            head.push(Datum::sym(&format!("{}:{}", p.name, p.bt)));
        }
        let keyword = match self.policy {
            CallPolicy::Unfold => "define",
            CallPolicy::Memoize => "define-memo",
        };
        Datum::list([Datum::sym(keyword), Datum::list(head), self.body.to_datum()])
    }
}

impl fmt::Display for AProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.defs {
            writeln!(f, "{}", d.to_datum())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bt_lattice() {
        assert_eq!(BT::Static.lub(BT::Static), BT::Static);
        assert_eq!(BT::Static.lub(BT::Dynamic), BT::Dynamic);
        assert_eq!(BT::Dynamic.lub(BT::Static), BT::Dynamic);
        assert!(BT::Dynamic.is_dynamic());
        assert!(!BT::Static.is_dynamic());
        assert_eq!(BT::Static.to_string(), "S");
    }

    #[test]
    fn a_deep_program_renders_on_a_small_stack() {
        // Built and freed on a big stack: dropping the tree recurses.
        crate::stack::with_stack(|| {
            let x = Symbol::new("x");
            let depth = 100_000;
            let body = (0..depth).fold(AExpr::Var(x), |body, _| {
                let test = Arc::new(AExpr::Var(x));
                AExpr::IfD(test, Arc::new(AExpr::Const(Datum::Int(1))), Arc::new(body))
            });
            let prog = Arc::new(AProgram {
                defs: vec![ADef {
                    name: Symbol::new("f"),
                    params: vec![AParam {
                        name: x,
                        bt: BT::Dynamic,
                    }],
                    body,
                    policy: CallPolicy::Unfold,
                    result_bt: BT::Dynamic,
                }],
            });
            let shared = prog.clone();
            let text = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || shared.to_string())
                .expect("spawn")
                .join()
                .expect("rendered without overflowing its stack");
            assert!(text.starts_with("(define (f x:D) (_if x 1 (_if x 1 "));
            // `(_if x 1 ` and `)` per level around the innermost `x`.
            assert_eq!(text.len(), "(define (f x:D) x)\n".len() + 10 * depth);
        });
    }

    #[test]
    fn annotated_rendering_marks_dynamic_constructs() {
        let e = AExpr::PrimD(
            Prim::Add,
            vec![
                Arc::new(AExpr::Var(Symbol::new("x"))),
                Arc::new(AExpr::Lift(Arc::new(AExpr::Const(Datum::Int(1))))),
            ],
        );
        assert_eq!(e.to_string(), "(_+ x (lift 1))");
        let e = AExpr::IfD(
            Arc::new(AExpr::Var(Symbol::new("t"))),
            Arc::new(AExpr::Const(Datum::Int(1))),
            Arc::new(AExpr::Const(Datum::Int(2))),
        );
        assert_eq!(e.to_string(), "(_if t 1 2)");
    }

    #[test]
    fn def_rendering_shows_division_and_policy() {
        let d = ADef {
            name: Symbol::new("f"),
            params: vec![
                AParam {
                    name: Symbol::new("s"),
                    bt: BT::Static,
                },
                AParam {
                    name: Symbol::new("d"),
                    bt: BT::Dynamic,
                },
            ],
            body: AExpr::Var(Symbol::new("d")),
            policy: CallPolicy::Memoize,
            result_bt: BT::Dynamic,
        };
        assert_eq!(d.to_datum().to_string(), "(define-memo (f s:S d:D) d)");
    }

    #[test]
    fn sizes() {
        let e = AExpr::Lift(Arc::new(AExpr::Const(Datum::Int(1))));
        assert_eq!(e.size(), 2);
    }
}
