//! Binding-time analysis: Core Scheme + a division → Annotated Core Scheme.
//!
//! The paper's PGG contains "a binding-time analysis, which … can
//! automatically determine a proper staging of computations" (Sec. 1).
//! This crate implements an offline, monovariant BTA in the Similix
//! tradition:
//!
//! 1. a **control-flow analysis** (0-CFA, [`analysis`]) computes which
//!    lambdas and top-level functions can reach each application site;
//! 2. a **binding-time fixpoint** propagates `S ⊑ D` forward through the
//!    program and *demands* backward: a static closure meeting a dynamic
//!    context cannot be lifted, so its lambda becomes dynamic (residual);
//! 3. **memoization points** are chosen Bondorf-style: a call is
//!    residualized-and-memoized iff the callee sits in a recursive
//!    component of the call graph and contains dynamic control, with
//!    explicit per-function overrides;
//! 4. **lift insertion** ([`annotate`]) wraps the outermost static
//!    subexpressions that flow into dynamic contexts.
//!
//! # Example
//!
//! ```
//! use two4one_bta::{bta, Division};
//! use two4one_frontend::frontend;
//! use two4one_syntax::acs::BT;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = frontend(
//!     "(define (power x n)
//!        (if (= n 0) 1 (* x (power x (- n 1)))))",
//! )?;
//! // x dynamic, n static: the classic power example.
//! let aprog = bta(&p, "power", &Division::new([BT::Dynamic, BT::Static]))?;
//! let def = aprog.def(&"power".into()).unwrap();
//! assert_eq!(def.params[0].bt, BT::Dynamic);
//! assert_eq!(def.params[1].bt, BT::Static);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod annotate;

use std::collections::{HashMap, HashSet};
use std::fmt;
use two4one_syntax::acs::{AProgram, CallPolicy, BT};
use two4one_syntax::cs;
use two4one_syntax::limits::{LimitExceeded, Limits};
use two4one_syntax::symbol::Symbol;

/// The binding times of the entry point's parameters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Division {
    /// One binding time per entry parameter.
    pub params: Vec<BT>,
}

impl Division {
    /// Creates a division from parameter binding times.
    pub fn new(params: impl IntoIterator<Item = BT>) -> Self {
        Division {
            params: params.into_iter().collect(),
        }
    }

    /// The all-dynamic division of `n` parameters — "normal compilation"
    /// mode (the paper's Fig. 8).
    pub fn all_dynamic(n: usize) -> Self {
        Division {
            params: vec![BT::Dynamic; n],
        }
    }

    /// The all-static division of `n` parameters.
    pub fn all_static(n: usize) -> Self {
        Division {
            params: vec![BT::Static; n],
        }
    }
}

/// Tuning knobs for the analysis.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Per-function unfold/memoize overrides (by top-level name).
    pub policy_overrides: HashMap<Symbol, CallPolicy>,
    /// Resource limits; only [`Limits::timeout`] is relevant here (the
    /// fixpoints are finite but can be slow on huge programs).
    pub limits: Limits,
}

/// Errors from the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtaError {
    /// The entry function does not exist.
    NoSuchEntry(Symbol),
    /// The division's arity does not match the entry function.
    DivisionArity {
        /// Entry name.
        entry: Symbol,
        /// Parameter count of the entry.
        expected: usize,
        /// Binding times supplied.
        got: usize,
    },
    /// The program is not alpha-renamed (duplicate binder); run the front
    /// end first.
    NonUniqueBinder(Symbol),
    /// The analysis made dynamic an entry parameter that the division
    /// marks static: the entry escapes into dynamic code, or a call to it
    /// passes a dynamic argument there. No static value can be supplied
    /// for that parameter, so the division is rejected.
    StaticParamRaised {
        /// Entry name.
        entry: Symbol,
        /// The parameter the analysis raised.
        param: Symbol,
    },
    /// A resource limit was hit (wall-clock deadline of
    /// [`Options::limits`]).
    Limit(LimitExceeded),
}

impl fmt::Display for BtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtaError::NoSuchEntry(e) => write!(f, "no top-level definition `{e}`"),
            BtaError::DivisionArity {
                entry,
                expected,
                got,
            } => write!(
                f,
                "division for `{entry}` has {got} binding time(s), expected {expected}"
            ),
            BtaError::NonUniqueBinder(x) => write!(
                f,
                "binder `{x}` is not unique; binding-time analysis requires \
                 alpha-renamed input (run the front end)"
            ),
            BtaError::StaticParamRaised { entry, param } => write!(
                f,
                "parameter `{param}` of entry `{entry}` is static in the division, but \
                 the binding-time analysis made it dynamic (the entry escapes into \
                 dynamic code or is called with a dynamic argument for it); mark it dynamic"
            ),
            BtaError::Limit(l) => write!(f, "binding-time analysis: {l}"),
        }
    }
}

impl std::error::Error for BtaError {}

/// Runs the analysis with default options.
///
/// # Errors
///
/// See [`BtaError`].
pub fn bta(prog: &cs::Program, entry: &str, division: &Division) -> Result<AProgram, BtaError> {
    bta_with(prog, entry, division, &Options::default())
}

/// Runs the analysis with explicit options.
///
/// # Errors
///
/// See [`BtaError`].
pub fn bta_with(
    prog: &cs::Program,
    entry: &str,
    division: &Division,
    options: &Options,
) -> Result<AProgram, BtaError> {
    let entry_sym = Symbol::new(entry);
    let edef = prog
        .def(&entry_sym)
        .ok_or(BtaError::NoSuchEntry(entry_sym))?;
    if edef.params.len() != division.params.len() {
        return Err(BtaError::DivisionArity {
            entry: entry_sym,
            expected: edef.params.len(),
            got: division.params.len(),
        });
    }
    check_unique_binders(prog)?;
    let mut a = analysis::Analysis::build(prog, &entry_sym, division, options);
    a.run(&options.limits.deadline()).map_err(BtaError::Limit)?;
    for (param, bt) in edef.params.iter().zip(&division.params) {
        if *bt == BT::Static && a.bt_var.get(param).is_some_and(|b| b.is_dynamic()) {
            return Err(BtaError::StaticParamRaised {
                entry: entry_sym,
                param: *param,
            });
        }
    }
    Ok(annotate::reconstruct(&a))
}

fn check_unique_binders(prog: &cs::Program) -> Result<(), BtaError> {
    fn add(x: &Symbol, seen: &mut HashSet<Symbol>) -> Result<(), BtaError> {
        if seen.insert(*x) {
            Ok(())
        } else {
            Err(BtaError::NonUniqueBinder(*x))
        }
    }
    fn walk(e: &cs::Expr, seen: &mut HashSet<Symbol>) -> Result<(), BtaError> {
        match e {
            cs::Expr::Const(_) | cs::Expr::Var(_) => Ok(()),
            cs::Expr::Lambda(l) => {
                for p in &l.params {
                    add(p, seen)?;
                }
                walk(&l.body, seen)
            }
            cs::Expr::If(a, b, c) => {
                walk(a, seen)?;
                walk(b, seen)?;
                walk(c, seen)
            }
            cs::Expr::Let(x, rhs, body) => {
                walk(rhs, seen)?;
                add(x, seen)?;
                walk(body, seen)
            }
            cs::Expr::App(f, args) => {
                walk(f, seen)?;
                args.iter().try_for_each(|a| walk(a, seen))
            }
            cs::Expr::PrimApp(_, args) => args.iter().try_for_each(|a| walk(a, seen)),
        }
    }
    let mut seen = HashSet::new();
    for d in &prog.defs {
        for p in &d.params {
            if !seen.insert(*p) {
                return Err(BtaError::NonUniqueBinder(*p));
            }
        }
        walk(&d.body, &mut seen)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_frontend::frontend;
    use two4one_syntax::acs::AExpr;

    fn analyze(src: &str, entry: &str, div: &[BT]) -> AProgram {
        let p = frontend(src).unwrap();
        bta(&p, entry, &Division::new(div.iter().copied())).unwrap()
    }

    fn contains_dynamic_if(e: &AExpr) -> bool {
        match e {
            AExpr::IfD(..) => true,
            AExpr::Const(_) | AExpr::Var(_) => false,
            AExpr::Lift(e) => contains_dynamic_if(e),
            AExpr::Lam(l) | AExpr::LamD(l) => contains_dynamic_if(&l.body),
            AExpr::If(a, b, c) => {
                contains_dynamic_if(a) || contains_dynamic_if(b) || contains_dynamic_if(c)
            }
            AExpr::Let(_, r, b) => contains_dynamic_if(r) || contains_dynamic_if(b),
            AExpr::App(f, args) | AExpr::AppD(f, args) => {
                contains_dynamic_if(f) || args.iter().any(|a| contains_dynamic_if(a))
            }
            AExpr::Prim(_, args) | AExpr::PrimD(_, args) => {
                args.iter().any(|a| contains_dynamic_if(a))
            }
        }
    }

    #[test]
    fn power_classic_division() {
        let a = analyze(
            "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            "power",
            &[BT::Dynamic, BT::Static],
        );
        let d = a.def(&"power".into()).unwrap();
        // The conditional test (= n 0) is static, so the recursion unfolds.
        assert_eq!(d.policy, CallPolicy::Unfold);
        assert!(!contains_dynamic_if(&d.body));
        // The multiplication is dynamic (x is dynamic).
        assert!(matches!(
            &d.body,
            AExpr::If(..) // static if
        ));
    }

    #[test]
    fn dynamic_test_forces_memoization_of_recursive_fn() {
        let a = analyze(
            "(define (walk xs acc)
               (if (null? xs) acc (walk (cdr xs) (+ acc 1))))",
            "walk",
            &[BT::Dynamic, BT::Dynamic],
        );
        let d = a.def(&"walk".into()).unwrap();
        assert_eq!(d.policy, CallPolicy::Memoize);
        assert!(contains_dynamic_if(&d.body));
        assert_eq!(d.result_bt, BT::Dynamic);
    }

    #[test]
    fn nonrecursive_functions_unfold_even_when_dynamic() {
        let a = analyze(
            "(define (helper x) (if x 1 2))
             (define (main b) (helper b))",
            "main",
            &[BT::Dynamic],
        );
        assert_eq!(a.def(&"helper".into()).unwrap().policy, CallPolicy::Unfold);
    }

    #[test]
    fn static_computation_is_lifted_at_the_outermost_point() {
        let a = analyze(
            "(define (f x n) (+ x (* n n)))",
            "f",
            &[BT::Dynamic, BT::Static],
        );
        let d = a.def(&"f".into()).unwrap();
        // (+ x (* n n)) must become (_+ x (lift (* n n))) — the whole
        // static product lifted, not its leaves.
        let text = d.body.to_string();
        assert!(text.contains("(lift (* n%"), "{text}");
    }

    #[test]
    fn fully_static_entry_body_stays_static() {
        // No lift at the body: the specializer's Tail continuation lifts
        // static results itself, and a syntactic lift here would force
        // recursive unfoldings to residualize (the fib regression).
        let a = analyze("(define (f n) (* n n))", "f", &[BT::Static]);
        let d = a.def(&"f".into()).unwrap();
        assert!(matches!(d.body, AExpr::Prim(..)), "{}", d.body);
    }

    #[test]
    fn all_dynamic_division_residualizes_everything() {
        let a = analyze(
            "(define (f x) (if (null? x) 0 (+ 1 (f (cdr x)))))",
            "f",
            &[BT::Dynamic],
        );
        let d = a.def(&"f".into()).unwrap();
        assert_eq!(d.policy, CallPolicy::Memoize);
        assert!(contains_dynamic_if(&d.body));
    }

    #[test]
    fn lambda_escaping_into_dynamic_context_becomes_dynamic() {
        // The lambda is returned as the (dynamic) result of the entry, so
        // it must be residualized.
        let a = analyze("(define (mk n) (lambda (x) (+ x n)))", "mk", &[BT::Dynamic]);
        let d = a.def(&"mk".into()).unwrap();
        fn has_dynamic_lam(e: &AExpr) -> bool {
            match e {
                AExpr::LamD(_) => true,
                AExpr::Lift(e) => has_dynamic_lam(e),
                AExpr::Let(_, r, b) => has_dynamic_lam(r) || has_dynamic_lam(b),
                AExpr::If(a, b, c) | AExpr::IfD(a, b, c) => {
                    has_dynamic_lam(a) || has_dynamic_lam(b) || has_dynamic_lam(c)
                }
                _ => false,
            }
        }
        assert!(has_dynamic_lam(&d.body), "{}", d.body);
    }

    #[test]
    fn statically_applied_lambda_stays_static() {
        let a = analyze(
            "(define (main n) ((lambda (k) (* k 2)) (+ n 1)))",
            "main",
            &[BT::Static],
        );
        let d = a.def(&"main".into()).unwrap();
        fn count_dynamic_lams(e: &AExpr) -> usize {
            match e {
                AExpr::LamD(_) => 1,
                AExpr::Lift(e) => count_dynamic_lams(e),
                AExpr::Lam(l) => count_dynamic_lams(&l.body),
                AExpr::App(f, args) => {
                    count_dynamic_lams(f)
                        + args.iter().map(|a| count_dynamic_lams(a)).sum::<usize>()
                }
                _ => 0,
            }
        }
        assert_eq!(count_dynamic_lams(&d.body), 0, "{}", d.body);
    }

    #[test]
    fn effectful_prims_are_always_dynamic() {
        let a = analyze(
            "(define (f n) (display (* n n)) (* n 2))",
            "f",
            &[BT::Static],
        );
        let text = a.def(&"f".into()).unwrap().body.to_string();
        assert!(text.contains("_display"), "{text}");
    }

    #[test]
    fn interpreter_shape_gets_classic_annotation() {
        // A miniature interpreter: program static, input dynamic.
        let src = r#"
          (define (run e x)
            (cond ((number? e) e)
                  ((eq? e 'arg) x)
                  ((eq? (car e) 'inc) (+ 1 (run (cadr e) x)))
                  (else (error "bad" e))))
        "#;
        let a = analyze(src, "run", &[BT::Static, BT::Dynamic]);
        let d = a.def(&"run".into()).unwrap();
        // The dispatch on the (static) expression stays static; `run`
        // unfolds because there is no dynamic conditional.
        assert_eq!(d.policy, CallPolicy::Unfold);
        assert_eq!(d.params[0].bt, BT::Static);
        assert_eq!(d.params[1].bt, BT::Dynamic);
    }

    #[test]
    fn policy_override_forces_memo() {
        let p = frontend("(define (id x) x) (define (main d) (id d))").unwrap();
        let mut opts = Options::default();
        opts.policy_overrides
            .insert(Symbol::new("id"), CallPolicy::Memoize);
        let a = bta_with(&p, "main", &Division::new([BT::Dynamic]), &opts).unwrap();
        assert_eq!(a.def(&"id".into()).unwrap().policy, CallPolicy::Memoize);
    }

    #[test]
    fn error_branches_do_not_poison_result_binding_times() {
        // The classic lookup shape: the unreachable `error` branch must not
        // drag the (static) result to dynamic.
        let a = analyze(
            "(define (lookup k names vals)
               (cond ((null? names) (error \"unbound\" k))
                     ((eq? k (car names)) (car vals))
                     (else (lookup k (cdr names) (cdr vals)))))
             (define (main vals) (lookup 'b '(a b) vals))",
            "main",
            &[BT::Dynamic],
        );
        let d = a.def(&"lookup".into()).unwrap();
        // k and names stay static; only vals is dynamic.
        assert_eq!(d.params[0].bt, BT::Static, "{}", d.to_datum());
        assert_eq!(d.params[1].bt, BT::Static, "{}", d.to_datum());
        assert_eq!(d.params[2].bt, BT::Dynamic, "{}", d.to_datum());
        // And lookup unfolds (static control only).
        assert_eq!(d.policy, CallPolicy::Unfold);
    }

    #[test]
    fn fully_diverging_functions_are_handled() {
        let a = analyze(
            "(define (die x) (error \"always\" x))
             (define (main d) (if (null? d) (die 1) 2))",
            "main",
            &[BT::Dynamic],
        );
        // Should annotate without panicking; result is dynamic because of
        // the dynamic test.
        assert_eq!(a.def(&"main".into()).unwrap().result_bt, BT::Dynamic);
    }

    #[test]
    fn errors() {
        let p = frontend("(define (f x) x)").unwrap();
        assert!(matches!(
            bta(&p, "g", &Division::new([BT::Static])),
            Err(BtaError::NoSuchEntry(_))
        ));
        assert!(matches!(
            bta(&p, "f", &Division::new([])),
            Err(BtaError::DivisionArity { .. })
        ));
        // Hand-built program with duplicate binders.
        let dup = cs::parse_program(
            &two4one_syntax::reader::read_all("(define (f x) x) (define (g x) x)").unwrap(),
        )
        .unwrap();
        assert!(matches!(
            bta(&dup, "f", &Division::new([BT::Static])),
            Err(BtaError::NonUniqueBinder(_))
        ));
    }

    #[test]
    fn a_static_entry_parameter_the_analysis_raises_is_rejected() {
        // `f` escapes into a dynamic call, so every parameter of `f`
        // becomes dynamic; the division cannot keep `s` static.
        let p = frontend("(define (f s d) (d f))").unwrap();
        let err = bta(&p, "f", &Division::new([BT::Static, BT::Dynamic])).unwrap_err();
        let BtaError::StaticParamRaised { entry, param } = &err else {
            panic!("expected StaticParamRaised, got {err:?}");
        };
        assert_eq!(entry.as_str(), "f");
        assert_eq!(param, &p.def(&"f".into()).unwrap().params[0]);
        assert!(err.to_string().contains("static in the division"), "{err}");
        // A recursive call passing a dynamic argument raises it too.
        let p = frontend("(define (g s d) (if (= d 0) s (g d (- d 1))))").unwrap();
        assert!(matches!(
            bta(&p, "g", &Division::new([BT::Static, BT::Dynamic])),
            Err(BtaError::StaticParamRaised { .. })
        ));
        // The same programs with the parameter dynamic are accepted.
        let p = frontend("(define (f s d) (d f))").unwrap();
        assert!(bta(&p, "f", &Division::all_dynamic(2)).is_ok());
    }
}
