//! The byte-code compiler and its combinator form.
//!
//! Act 1 of the paper (Sec. 2.1/6.1): a recursive-descent compiler for
//! A-normal form targeting the byte-code VM. Because ANF makes control flow
//! explicit — "only those function applications wrapped in a `let` are
//! non-tail calls; all others are jumps" — the compiler needs no
//! compile-time continuation, just a compile-time environment and the
//! current stack depth, exactly as described in the paper. A join point
//! (a `let`-bound lambda marked [`anf::Lambda::join`]) takes that literally:
//! its body becomes a block of the enclosing template and each call to it
//! a `jump`.
//!
//! Acts 2–3 (Secs. 6.2–6.3): the same per-construct code generators
//! ("compilators", in [`emit`]) are exposed a second time as
//! [`ObjectBuilder`], an implementation of the specializer's
//! [`CodeBuilder`](two4one_anf::build::CodeBuilder) interface. Plugging it into the specializer *fuses*
//! specialization with compilation: residual programs are emitted directly
//! as byte code and the residual syntax tree never exists.

pub mod cenv;
pub mod emit;
pub mod object;

pub use cenv::{CEnv, Loc};
pub use object::ObjectBuilder;

use emit::{Dest, Operand};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use two4one_anf as anf;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;
use two4one_vm::{Asm, AsmError, Image, Template};

/// Compiler errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A variable is neither in the compile-time environment nor global.
    Unbound(Symbol),
    /// Assembler fault (table overflow, unattached label).
    Asm(AsmError),
    /// More parameters or arguments than the instruction encoding allows.
    TooManyArgs(usize),
    /// A join point used other than as the operator of a one-argument
    /// tail call: as a value, captured by a lambda, or called otherwise.
    JoinMisuse(Symbol),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unbound(x) => write!(f, "unbound variable `{x}` at compile time"),
            CompileError::Asm(e) => write!(f, "{e}"),
            CompileError::TooManyArgs(n) => write!(f, "too many arguments ({n})"),
            CompileError::JoinMisuse(j) => {
                write!(
                    f,
                    "join point `{j}` used other than as a one-argument tail call"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Asm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AsmError> for CompileError {
    fn from(e: AsmError) -> Self {
        CompileError::Asm(e)
    }
}

/// Compiles a whole ANF program into a runnable [`Image`].
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
///
/// # Example
///
/// ```
/// use two4one_anf::normalize;
/// use two4one_compiler::compile_program;
/// use two4one_frontend::frontend;
/// use two4one_vm::{Machine, Value};
/// use two4one_syntax::{Datum, Symbol};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cs = frontend("(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))")?;
/// let image = compile_program(&normalize(&cs), "fact")?;
/// let mut m = Machine::load(&image);
/// let v = m.call_global(&Symbol::new("fact"), vec![Value::Int(5)])?;
/// assert_eq!(v.to_datum(), Some(Datum::Int(120)));
/// # Ok(())
/// # }
/// ```
pub fn compile_program(p: &anf::Program, entry: &str) -> Result<Image, CompileError> {
    let _span = two4one_obs::Span::enter(two4one_obs::Phase::Compile);
    let globals: BTreeSet<Symbol> = p.defs.iter().map(|d| d.name).collect();
    let mut templates = Vec::with_capacity(p.defs.len());
    for d in &p.defs {
        templates.push((d.name, compile_def(d, &globals)?));
    }
    Ok(Image {
        templates,
        entry: Symbol::new(entry),
    })
}

/// Compiles one top-level definition to a template.
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
pub fn compile_def(
    d: &anf::Def,
    globals: &BTreeSet<Symbol>,
) -> Result<Arc<Template>, CompileError> {
    let arity =
        u8::try_from(d.params.len()).map_err(|_| CompileError::TooManyArgs(d.params.len()))?;
    let mut asm = Asm::new(d.name, arity, 0);
    let mut cenv = CEnv::empty();
    for (i, p) in d.params.iter().enumerate() {
        cenv = cenv.bind(*p, Loc::Local(i as u16));
    }
    let depth = d.params.len() as u16;
    compile_body(&d.body, &mut asm, &cenv, depth, globals)?;
    Ok(asm.finish()?)
}

/// Compiles an ANF body (which is always in tail position) into `asm`.
///
/// This is the recursive-descent core: the syntax dispatch happens here,
/// and each construct is handed to its compilator in [`emit`]. The
/// [`ObjectBuilder`] runs the *same* compilators with the dispatch already
/// performed by the specializer — that is the content of the fusion
/// theorem (Sec. 5.4).
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
pub fn compile_body(
    e: &anf::Expr,
    asm: &mut Asm,
    cenv: &CEnv,
    depth: u16,
    globals: &BTreeSet<Symbol>,
) -> Result<(), CompileError> {
    match e {
        anf::Expr::Ret(t) => {
            compile_triv(t, asm, cenv, globals)?;
            emit::emit_return(asm);
            Ok(())
        }
        anf::Expr::Tail(app) => {
            if let anf::App::Call(anf::Triv::Var(f), args) = app {
                let load = |asm: &mut Asm, a: &anf::Triv| compile_triv(a, asm, cenv, globals);
                if emit::emit_join_call(asm, cenv, depth, f, args, load)? {
                    return Ok(());
                }
            }
            match app {
                anf::App::Call(f, args) => {
                    let n = compile_call_args(args, asm, cenv, globals)?;
                    compile_triv(f, asm, cenv, globals)?;
                    emit::emit_tail_call(asm, n);
                }
                anf::App::Prim(p, args) => {
                    compile_prim(*p, args, Dest::Val, asm, cenv, globals)?;
                    emit::emit_return(asm);
                }
            }
            Ok(())
        }
        anf::Expr::Let(j, anf::Rhs::Triv(anf::Triv::Lambda(l)), body) if l.join => {
            let [r] = l.params[..] else {
                return Err(CompileError::JoinMisuse(*j));
            };
            emit::emit_join(
                asm,
                cenv,
                depth,
                *j,
                r,
                |asm, cenv, depth| compile_body(body, asm, cenv, depth, globals),
                |asm, cenv, depth| compile_body(&l.body, asm, cenv, depth, globals),
            )
        }
        anf::Expr::Let(x, rhs, body) => {
            match rhs {
                anf::Rhs::Triv(t) => {
                    compile_triv(t, asm, cenv, globals)?;
                    emit::emit_bind(asm);
                }
                anf::Rhs::App(anf::App::Call(f, args)) => {
                    let n = compile_call_args(args, asm, cenv, globals)?;
                    compile_triv(f, asm, cenv, globals)?;
                    emit::emit_call(asm, n);
                    emit::emit_bind(asm);
                }
                anf::Rhs::App(anf::App::Prim(p, args)) => {
                    compile_prim(*p, args, Dest::Bind, asm, cenv, globals)?;
                }
            }
            let inner = cenv.bind(*x, Loc::Local(depth));
            compile_body(body, asm, &inner, depth + 1, globals)
        }
        anf::Expr::If(t, then, els) => {
            let load = |asm: &mut Asm, t: &anf::Triv| compile_triv(t, asm, cenv, globals);
            let alt = emit::emit_branch(asm, cenv, t, operand, load)?;
            compile_body(then, asm, cenv, depth, globals)?;
            emit::attach(asm, alt);
            compile_body(els, asm, cenv, depth, globals)
        }
    }
}

/// A trivial term as an operand of the in-place compilators.
fn operand(t: &anf::Triv) -> Operand<'_> {
    match t {
        anf::Triv::Const(d) => Operand::Const(d),
        anf::Triv::Var(x) => Operand::Var(x),
        anf::Triv::Lambda(_) => Operand::Other,
    }
}

/// Applies `p` to `args` through the primitive compilator.
fn compile_prim(
    p: Prim,
    args: &[anf::Triv],
    dest: Dest,
    asm: &mut Asm,
    cenv: &CEnv,
    globals: &BTreeSet<Symbol>,
) -> Result<(), CompileError> {
    let load = |asm: &mut Asm, a: &anf::Triv| compile_triv(a, asm, cenv, globals);
    emit::emit_prim_app(asm, cenv, p, args, dest, operand, load)
}

/// Pushes the arguments of a call; returns the argument count.
fn compile_call_args(
    args: &[anf::Triv],
    asm: &mut Asm,
    cenv: &CEnv,
    globals: &BTreeSet<Symbol>,
) -> Result<u8, CompileError> {
    let n = u8::try_from(args.len()).map_err(|_| CompileError::TooManyArgs(args.len()))?;
    for a in args {
        compile_triv(a, asm, cenv, globals)?;
        emit::emit_push(asm);
    }
    Ok(n)
}

/// Compiles a trivial term, leaving its value in `val`.
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
pub fn compile_triv(
    t: &anf::Triv,
    asm: &mut Asm,
    cenv: &CEnv,
    globals: &BTreeSet<Symbol>,
) -> Result<(), CompileError> {
    match t {
        anf::Triv::Const(d) => emit::emit_const(asm, d),
        anf::Triv::Var(x) => match cenv.lookup(x) {
            Some(loc) => emit::emit_var(asm, x, loc),
            None if globals.contains(x) => emit::emit_global(asm, x),
            None => Err(CompileError::Unbound(*x)),
        },
        anf::Triv::Lambda(l) => {
            let free = lambda_free_vars(l, globals);
            let template = compile_lambda(l, &free, globals)?;
            emit::emit_make_closure(asm, template, &free, cenv)
        }
    }
}

/// The free variables a lambda must capture, in deterministic order.
pub fn lambda_free_vars(l: &anf::Lambda, globals: &BTreeSet<Symbol>) -> Vec<Symbol> {
    l.body
        .free_vars()
        .into_iter()
        .filter(|v| !l.params.contains(v) && !globals.contains(v))
        .collect()
}

/// Compiles a lambda into its own template, with parameters as locals and
/// `free` as captured slots.
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or encoding overflows.
pub fn compile_lambda(
    l: &anf::Lambda,
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
    compile_body(&l.body, &mut asm, &cenv, l.params.len() as u16, globals)?;
    Ok(asm.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_anf::normalize;
    use two4one_frontend::frontend;
    use two4one_syntax::datum::Datum;
    use two4one_syntax::reader::read_one;
    use two4one_vm::{Machine, Value};

    fn run(src: &str, entry: &str, args: &[Datum]) -> Result<Datum, two4one_vm::VmError> {
        let cs = frontend(src).unwrap();
        let image = compile_program(&normalize(&cs), entry).unwrap();
        let mut m = Machine::load(&image);
        let argv = args.iter().map(Value::from).collect();
        m.call_global(&Symbol::new(entry), argv)
            .map(|v| v.to_datum().expect("first-order result"))
    }

    #[test]
    fn basics_run_on_the_vm() {
        assert_eq!(
            run("(define (f x) (+ x 1))", "f", &[Datum::Int(1)]).unwrap(),
            Datum::Int(2)
        );
        assert_eq!(
            run(
                "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))",
                "fact",
                &[Datum::Int(10)]
            )
            .unwrap(),
            Datum::Int(3628800)
        );
    }

    #[test]
    fn closures_and_higher_order() {
        let src = "(define (compose f g) (lambda (x) (f (g x))))
                   (define (inc x) (+ x 1))
                   (define (dbl x) (* x 2))
                   (define (main x) ((compose inc dbl) x))";
        assert_eq!(run(src, "main", &[Datum::Int(5)]).unwrap(), Datum::Int(11));
    }

    #[test]
    fn tail_call_loops_do_not_grow() {
        let src = "(define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc 2))))";
        assert_eq!(
            run(src, "loop", &[Datum::Int(500_000), Datum::Int(0)]).unwrap(),
            Datum::Int(1_000_000)
        );
    }

    #[test]
    fn join_points_from_nontail_ifs() {
        let src = "(define (f a b) (+ (if a 1 2) (if b 10 20)))";
        assert_eq!(
            run(src, "f", &[Datum::Bool(true), Datum::Bool(false)]).unwrap(),
            Datum::Int(21)
        );
    }

    #[test]
    fn data_and_quasiquote() {
        let src =
            "(define (pairup xs) (if (null? xs) '() (cons `(v ,(car xs)) (pairup (cdr xs)))))";
        let xs = Datum::list([Datum::Int(1), Datum::Int(2)]);
        assert_eq!(
            run(src, "pairup", &[xs]).unwrap(),
            two4one_syntax::reader::read_one("((v 1) (v 2))").unwrap()
        );
    }

    #[test]
    fn mutation_boxes_work_on_vm() {
        let src = "(define (main)
                     (let ((n 0))
                       (let ((inc (lambda () (set! n (+ n 1)) n)))
                         (inc) (inc) (inc))))";
        assert_eq!(run(src, "main", &[]).unwrap(), Datum::Int(3));
    }

    #[test]
    fn trivial_operands_are_read_in_place() {
        // One local, a local and a constant, two locals, and a test on a
        // local are read in place; a constant first operand or a captured
        // one goes through `val` and the stack.
        let src = "(define (f x y)
                     (let ((a (car x)))
                       (let ((b (eq? a 'k)))
                         (if b (cons a y) (- 1 x)))))
                   (define (g n) (lambda (z) (+ z n)))";
        let image = compile_program(&normalize(&frontend(src).unwrap()), "f").unwrap();
        let dis = image.disassemble();
        for line in [
            "0  prim car/1 local 0 → bind",
            "1  prim eq?/2 local 2, const k → bind",
            "2  jump-if-false local 3 → 5",
            "3  prim cons/2 local 2, local 1",
            "5  const 1\n",
            "7  local 0\n",
            "9  prim -/2\n",
            "2  captured 0\n",
            "4  prim +/2\n",
        ] {
            assert!(dis.contains(line), "{line:?} missing from\n{dis}");
        }
        let mut m = Machine::load(&image);
        let pair = Value::cons(Value::Sym(Symbol::new("k")), Value::Nil);
        let v = m.call_global(&Symbol::new("f"), vec![pair, Value::Int(2)]);
        assert_eq!(v.unwrap().to_datum(), read_one("(k . 2)").ok());
    }

    #[test]
    fn anf_trims_branch_lets_right_before_the_jump_to_the_join() {
        use two4one_vm::Instr;
        // The then-arm binds `x` before it reaches the join point, so its
        // jump must drop that slot: `trim` is what puts the join parameter
        // in the slot the join body reads. The second program makes a
        // missing `trim` observable (the join would read `x`, not `r`).
        for src in [
            "(define (f a) (+ (if a (let ((x 1)) x) 2) 3))",
            "(define (f a) (+ (if a (let ((x 1)) (- x 5)) 2) 3))",
        ] {
            let cs = frontend(src).unwrap();
            let image = compile_program(&normalize(&cs), "f").unwrap();
            for a in [true, false] {
                let args = [Datum::Bool(a)];
                let expect = two4one_interp::run_program(&cs, "f", &args)
                    .unwrap()
                    .0
                    .to_datum();
                let mut m = Machine::load(&image);
                let got = m.call_global(&Symbol::new("f"), vec![Value::Bool(a)]);
                assert_eq!(got.unwrap().to_datum(), expect, "{src} a={a}");
            }
            // The join is a block of `f`, not a closure, and the one
            // `trim` sits right before the then-arm's `bind; jump`.
            let code = &image.templates[0].1.code;
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

    #[test]
    fn unbound_variable_is_a_compile_error() {
        // Bypass the front end (which would catch it) by building ANF directly.
        let body = anf::Expr::Ret(anf::Triv::Var(Symbol::new("nope")));
        let def = anf::Def {
            name: Symbol::new("f"),
            params: vec![],
            body,
        };
        let e = compile_def(&def, &BTreeSet::new()).unwrap_err();
        assert_eq!(e, CompileError::Unbound(Symbol::new("nope")));
    }

    #[test]
    fn lifted_loops_match_interpreter() {
        let src = "(define (sum-squares n)
                     (let loop ((i 1) (acc 0))
                       (if (> i n) acc (loop (+ i 1) (+ acc (* i i))))))";
        let cs = frontend(src).unwrap();
        let expect = two4one_interp::run_program(&cs, "sum-squares", &[Datum::Int(50)])
            .unwrap()
            .0
            .to_datum()
            .unwrap();
        assert_eq!(run(src, "sum-squares", &[Datum::Int(50)]).unwrap(), expect);
    }

    #[test]
    fn vm_output_matches_interpreter_output() {
        let src = "(define (main) (display '(1 2)) (newline) (write \"s\") 'ok)";
        let cs = frontend(src).unwrap();
        let (_, iout) = two4one_interp::run_program(&cs, "main", &[]).unwrap();
        let image = compile_program(&normalize(&cs), "main").unwrap();
        let mut m = Machine::load(&image);
        m.call_global(&Symbol::new("main"), vec![]).unwrap();
        assert_eq!(m.output, iout);
    }
}
