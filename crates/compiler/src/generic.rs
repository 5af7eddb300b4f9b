//! The *generic* Core Scheme compiler — what the paper's Act 1 chopped
//! away.
//!
//! "In principle, it is possible to simply use the stock Scheme 48
//! byte-code compiler which passes a compile-time continuation to identify
//! tail-calls. However, the target code of the specialization engine is in
//! ANF … Hence, the propagation of a compile-time continuation is
//! unnecessary, and it is sensible to make do with a drastically cut-down
//! version of the compiler. Removing the compile-time continuation
//! simplifies the compiler, and also speeds up later code generation, as
//! it could not be removed by fusion." (Sec. 6.1)
//!
//! This module implements that *uncut* compiler: it accepts arbitrary Core
//! Scheme (not just ANF) and threads a compile-time continuation
//! ([`Cont`]) that identifies tail positions and stitches control-flow
//! merges together. It exists for two reasons:
//!
//! 1. as the baseline for the ablation benchmark quantifying the paper's
//!    claim (the ANF compilators vs. the continuation-passing compiler);
//! 2. as an independent second compiler whose agreement with the
//!    ANF pipeline is a strong correctness oracle.
//!
//! The complexity the ANF compiler avoids is visible here: every
//! non-tail conditional needs a merge label and a `trim` on both arms to
//! re-synchronize the local-slot depth. In ANF a non-tail conditional is
//! an explicit join point, and only a jump to it from an arm that bound
//! `let`s of its own needs a `trim`.

use crate::cenv::{CEnv, Loc};
use crate::emit::{Dest, Operand};
use crate::{emit, CompileError};
use std::collections::BTreeSet;
use std::sync::Arc;
use two4one_syntax::cs::{Def, Expr, Lambda, Program};
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;
use two4one_vm::{Asm, Image, Instr, Template};

/// The compile-time continuation: what happens to the value in `val`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cont {
    /// The expression is in tail position: return its value (calls become
    /// jumps).
    Return,
    /// Control falls through to the following code with the value in
    /// `val`.
    Next,
}

/// Compiles a whole program with the generic (continuation-passing)
/// compiler.
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
pub fn compile_program_generic(p: &Program, entry: &str) -> Result<Image, CompileError> {
    let _span = two4one_obs::Span::enter(two4one_obs::Phase::Compile);
    let globals: BTreeSet<Symbol> = p.defs.iter().map(|d| d.name).collect();
    let mut templates = Vec::with_capacity(p.defs.len());
    for d in &p.defs {
        templates.push((d.name, compile_def_generic(d, &globals)?));
    }
    Ok(Image {
        templates,
        entry: Symbol::new(entry),
    })
}

/// Compiles one definition.
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
pub fn compile_def_generic(
    d: &Def,
    globals: &BTreeSet<Symbol>,
) -> Result<Arc<Template>, CompileError> {
    let arity =
        u8::try_from(d.params.len()).map_err(|_| CompileError::TooManyArgs(d.params.len()))?;
    let mut asm = Asm::new(d.name, arity, 0);
    let mut cenv = CEnv::empty();
    for (i, p) in d.params.iter().enumerate() {
        cenv = cenv.bind(*p, Loc::Local(i as u16));
    }
    compile(
        &d.body,
        &mut asm,
        &cenv,
        d.params.len() as u16,
        globals,
        Cont::Return,
    )?;
    Ok(asm.finish()?)
}

/// The compiler proper: one function, every construct, continuation
/// threaded throughout.
fn compile(
    e: &Expr,
    asm: &mut Asm,
    cenv: &CEnv,
    depth: u16,
    globals: &BTreeSet<Symbol>,
    cont: Cont,
) -> Result<(), CompileError> {
    match e {
        Expr::Const(d) => {
            emit::emit_const(asm, d)?;
            finish(asm, cont);
            Ok(())
        }
        Expr::Var(x) => {
            match cenv.lookup(x) {
                Some(loc) => emit::emit_var(asm, x, loc)?,
                None if globals.contains(x) => emit::emit_global(asm, x)?,
                None => return Err(CompileError::Unbound(*x)),
            }
            finish(asm, cont);
            Ok(())
        }
        Expr::Lambda(l) => {
            let free: Vec<Symbol> = l
                .body
                .free_vars()
                .into_iter()
                .filter(|v| !l.params.contains(v) && !globals.contains(v))
                .collect();
            let template = compile_lambda_generic(l, &free, globals)?;
            emit::emit_make_closure(asm, template, &free, cenv)?;
            finish(asm, cont);
            Ok(())
        }
        Expr::If(t, c, a) => {
            let load = |asm: &mut Asm, t: &Expr| compile(t, asm, cenv, depth, globals, Cont::Next);
            let alt = emit::emit_branch(asm, cenv, &**t, operand, load)?;
            compile(c, asm, cenv, depth, globals, cont)?;
            match cont {
                Cont::Return => {
                    // Both arms return; no merge needed.
                    emit::attach(asm, alt);
                    compile(a, asm, cenv, depth, globals, cont)
                }
                Cont::Next => {
                    // The arms fall through: jump the consequent over the
                    // alternative and re-synchronize the local depth —
                    // exactly the bookkeeping ANF makes unnecessary.
                    let join = asm.make_label();
                    asm.emit(Instr::Trim(depth));
                    asm.emit_jump(join);
                    emit::attach(asm, alt);
                    compile(a, asm, cenv, depth, globals, cont)?;
                    asm.emit(Instr::Trim(depth));
                    emit::attach(asm, join);
                    Ok(())
                }
            }
        }
        Expr::Let(x, rhs, body) => {
            if let Expr::PrimApp(p, args) = &**rhs {
                compile_prim(*p, args, Dest::Bind, asm, cenv, depth, globals)?;
            } else {
                compile(rhs, asm, cenv, depth, globals, Cont::Next)?;
                emit::emit_bind(asm);
            }
            let inner = cenv.bind(*x, Loc::Local(depth));
            compile(body, asm, &inner, depth + 1, globals, cont)?;
            // On `Cont::Next` the value falls through to code compiled at
            // `depth`: drop the binding, or the next local bound there
            // lands a slot above where its environment puts it.
            if cont == Cont::Next {
                asm.emit(Instr::Trim(depth));
            }
            Ok(())
        }
        Expr::App(f, args) => {
            let n = u8::try_from(args.len()).map_err(|_| CompileError::TooManyArgs(args.len()))?;
            for a in args {
                compile(a, asm, cenv, depth, globals, Cont::Next)?;
                emit::emit_push(asm);
            }
            compile(f, asm, cenv, depth, globals, Cont::Next)?;
            match cont {
                Cont::Return => emit::emit_tail_call(asm, n),
                Cont::Next => emit::emit_call(asm, n),
            }
            Ok(())
        }
        Expr::PrimApp(p, args) => {
            compile_prim(*p, args, Dest::Val, asm, cenv, depth, globals)?;
            finish(asm, cont);
            Ok(())
        }
    }
}

/// An expression as an operand of the in-place compilators: constants and
/// variables qualify, nested expressions are compiled through `val`.
fn operand(e: &Expr) -> Operand<'_> {
    match e {
        Expr::Const(d) => Operand::Const(d),
        Expr::Var(x) => Operand::Var(x),
        _ => Operand::Other,
    }
}

/// Applies `p` to `args` through the primitive compilator.
fn compile_prim(
    p: Prim,
    args: &[Expr],
    dest: Dest,
    asm: &mut Asm,
    cenv: &CEnv,
    depth: u16,
    globals: &BTreeSet<Symbol>,
) -> Result<(), CompileError> {
    let load = |asm: &mut Asm, a: &Expr| compile(a, asm, cenv, depth, globals, Cont::Next);
    emit::emit_prim_app(asm, cenv, p, args, dest, operand, load)
}

fn compile_lambda_generic(
    l: &Lambda,
    free: &[Symbol],
    globals: &BTreeSet<Symbol>,
) -> Result<Arc<Template>, CompileError> {
    let arity =
        u8::try_from(l.params.len()).map_err(|_| CompileError::TooManyArgs(l.params.len()))?;
    let nfree = u16::try_from(free.len()).map_err(|_| CompileError::TooManyArgs(free.len()))?;
    let mut asm = Asm::new(l.name, arity, nfree);
    let mut cenv = CEnv::empty();
    for (i, p) in l.params.iter().enumerate() {
        cenv = cenv.bind(*p, Loc::Local(i as u16));
    }
    for (i, v) in free.iter().enumerate() {
        cenv = cenv.bind(*v, Loc::Captured(i as u16));
    }
    compile(
        &l.body,
        &mut asm,
        &cenv,
        l.params.len() as u16,
        globals,
        Cont::Return,
    )?;
    Ok(asm.finish()?)
}

fn finish(asm: &mut Asm, cont: Cont) {
    if cont == Cont::Return {
        emit::emit_return(asm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_frontend::frontend;
    use two4one_syntax::datum::Datum;
    use two4one_vm::{Machine, Value};

    fn run_generic(src: &str, entry: &str, args: &[Datum]) -> Result<Datum, two4one_vm::VmError> {
        let cs = frontend(src).unwrap();
        let image = compile_program_generic(&cs, entry).unwrap();
        let mut m = Machine::load(&image);
        let argv = args.iter().map(Value::from).collect();
        m.call_global(&Symbol::new(entry), argv)
            .map(|v| v.to_datum().expect("first-order result"))
    }

    #[test]
    fn straight_line_and_recursion() {
        assert_eq!(
            run_generic(
                "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))",
                "fact",
                &[Datum::Int(6)]
            )
            .unwrap(),
            Datum::Int(720)
        );
    }

    #[test]
    fn nontail_conditionals_merge_correctly() {
        // The case the ANF compiler never sees: an `if` in argument
        // position, with a `let` in only one arm.
        let src = "(define (f a b) (+ (if a (let ((x 10)) (* x 2)) 3) b))";
        assert_eq!(
            run_generic(src, "f", &[Datum::Bool(true), Datum::Int(1)]).unwrap(),
            Datum::Int(21)
        );
        assert_eq!(
            run_generic(src, "f", &[Datum::Bool(false), Datum::Int(1)]).unwrap(),
            Datum::Int(4)
        );
    }

    #[test]
    fn depth_resynchronization_across_arms() {
        // Bindings made inside a non-tail arm must not shift later slots.
        let src = "(define (g c)
                     (let ((r (if c (let ((a 1)) (let ((b 2)) (+ a b))) 0)))
                       (let ((z 100))
                         (+ r z))))";
        assert_eq!(
            run_generic(src, "g", &[Datum::Bool(true)]).unwrap(),
            Datum::Int(103)
        );
        assert_eq!(
            run_generic(src, "g", &[Datum::Bool(false)]).unwrap(),
            Datum::Int(100)
        );
    }

    #[test]
    fn an_operand_let_drops_its_binding() {
        // The inner `let` sits in an operand of `+`: its slot must be free
        // again before `x` is bound, or `x` reads `y`'s slot.
        let src = "(define (f) (let ((x (+ (let ((y 1)) y) 2))) x))";
        assert_eq!(run_generic(src, "f", &[]).unwrap(), Datum::Int(3));
        let src = "(define (g a) (+ (let ((y (* a 10))) (+ y 1)) (let ((z a)) (- z 5))))";
        assert_eq!(
            run_generic(src, "g", &[Datum::Int(2)]).unwrap(),
            Datum::Int(18)
        );
    }

    #[test]
    fn tail_calls_still_jump() {
        let src = "(define (loop i) (if (= i 0) 'done (loop (- i 1))))";
        assert_eq!(
            run_generic(src, "loop", &[Datum::Int(300_000)]).unwrap(),
            Datum::sym("done")
        );
    }

    #[test]
    fn closures_in_the_generic_compiler() {
        let src = "(define (mk n) (lambda (x) (+ x n)))
                   (define (main a b) ((mk a) b))";
        assert_eq!(
            run_generic(src, "main", &[Datum::Int(3), Datum::Int(4)]).unwrap(),
            Datum::Int(7)
        );
    }

    #[test]
    fn generic_agrees_with_anf_pipeline() {
        use two4one_anf::normalize;
        for (src, entry, args) in [
            (
                "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
                "fib",
                vec![Datum::Int(12)],
            ),
            (
                "(define (sum xs) (if (null? xs) 0 (+ (car xs) (sum (cdr xs)))))
                 (define (main) (sum '(1 2 3 4 5)))",
                "main",
                vec![],
            ),
            (
                "(define (main a) (+ (if a 1 2) (if a 10 20)))",
                "main",
                vec![Datum::Bool(true)],
            ),
        ] {
            let cs = frontend(src).unwrap();
            let anf_image = crate::compile_program(&normalize(&cs), entry).unwrap();
            let gen_image = compile_program_generic(&cs, entry).unwrap();
            let argv: Vec<Value> = args.iter().map(Value::from).collect();
            let mut m1 = Machine::load(&anf_image);
            let mut m2 = Machine::load(&gen_image);
            let v1 = m1.call_global(&Symbol::new(entry), argv.clone()).unwrap();
            let v2 = m2.call_global(&Symbol::new(entry), argv).unwrap();
            assert_eq!(v1.to_datum(), v2.to_datum(), "{src}");
        }
    }

    #[test]
    fn anf_trims_branch_lets_right_before_the_jump_to_the_join() {
        use two4one_anf::normalize;
        // The then-arm binds `x` before it reaches the join point, so its
        // jump must drop that slot: `trim` is what puts the join parameter
        // in the slot the join body reads. The second program makes a
        // missing `trim` observable (the join would read `x`, not `r`).
        for src in [
            "(define (f a) (+ (if a (let ((x 1)) x) 2) 3))",
            "(define (f a) (+ (if a (let ((x 1)) (- x 5)) 2) 3))",
        ] {
            let cs = frontend(src).unwrap();
            let gen_image = compile_program_generic(&cs, "f").unwrap();
            let anf_image = crate::compile_program(&normalize(&cs), "f").unwrap();
            for a in [true, false] {
                let args = [Datum::Bool(a)];
                let expect = two4one_interp::run_program(&cs, "f", &args)
                    .unwrap()
                    .0
                    .to_datum();
                for image in [&gen_image, &anf_image] {
                    let mut m = Machine::load(image);
                    let got = m.call_global(&Symbol::new("f"), vec![Value::Bool(a)]);
                    assert_eq!(got.unwrap().to_datum(), expect, "{src} a={a}");
                }
            }
            // The join is a block of `f`, not a closure, and the one
            // `trim` sits right before the then-arm's `bind; jump`.
            let code = &anf_image.templates[0].1.code;
            assert!(
                !code.iter().any(|i| matches!(i, Instr::MakeClosure { .. })),
                "{src}"
            );
            let trims: Vec<usize> = (0..code.len())
                .filter(|&i| matches!(code[i], Instr::Trim(_)))
                .collect();
            assert_eq!(trims.len(), 1, "{src}");
            assert!(
                matches!(code[trims[0] + 1..], [Instr::Bind, Instr::Jump(_), ..]),
                "{src}"
            );
        }
    }
}
