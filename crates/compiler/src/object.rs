//! The compiler as code-generation combinators — the fused backend.
//!
//! Act 3 of the paper (Sec. 6.3): "a second set of macros … turn the
//! compiler functions into combinators. These combinators … replace
//! counterparts in the PGG normally responsible for producing output code
//! in the source language. The new combinators directly produce object
//! code."
//!
//! [`ObjectBuilder`] implements the specializer's [`CodeBuilder`] interface
//! with:
//!
//! * trivial terms as *data one level deep* — in particular, variables are
//!   passed as **names** and converted to code at their use site, which is
//!   the paper's Sec. 6.4 resolution of the name/compilator duality;
//! * code bodies as emission functions `Asm × CEnv × depth → ()`, i.e. the
//!   compilators of [`crate::emit`] partially applied to their syntax;
//! * lambdas compiled *eagerly* into sub-templates (their compile-time
//!   environment is just parameters + free variables, known immediately);
//! * join points compiled *in place*: [`CodeBuilder::join`] returns an
//!   emission function that lays the join body out as a block of the
//!   enclosing template, so a call to the join is a jump, not a closure.
//!
//! No residual syntax tree is ever constructed: the specializer's output
//! arrives here as a stream of constructor calls and leaves as byte code.
//! That is the deforestation of Sec. 5.4, performed by monomorphization.

use crate::cenv::{CEnv, Loc};
use crate::emit::{Dest, Operand};
use crate::{emit, CompileError};
use std::sync::Arc;
use two4one_anf::build::CodeBuilder;
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;
use two4one_vm::{Asm, Image, Template};

/// A residual trivial term in the object backend.
#[derive(Clone)]
pub enum ObjTriv {
    /// A constant.
    Const(Datum),
    /// A local variable, by name (resolved against the compile-time
    /// environment at the use site).
    Var(Symbol),
    /// A top-level residual function used as a value.
    Global(Symbol),
    /// An already-compiled closure: template plus the names of the free
    /// variables to capture at the construction site.
    Closure {
        /// Sub-template for the lambda body.
        template: Arc<Template>,
        /// Free variables to load and capture, in template order.
        free: Vec<Symbol>,
    },
}

/// A residual serious term (call or primitive application).
pub enum ObjSerious {
    /// Call through a computed procedure.
    Call(ObjTriv, Vec<ObjTriv>),
    /// Call to a top-level residual function.
    CallGlobal(Symbol, Vec<ObjTriv>),
    /// Primitive application.
    Prim(Prim, Vec<ObjTriv>),
}

/// A residual body: an emission function over assembler, compile-time
/// environment, and stack depth — the exact parameter list of the paper's
/// compilators.
type EmitFn = dyn Fn(&mut Asm, &CEnv, u16) -> Result<(), CompileError> + Send + Sync;

#[derive(Clone)]
pub struct ObjCode(Arc<EmitFn>);

impl ObjCode {
    fn new(
        f: impl Fn(&mut Asm, &CEnv, u16) -> Result<(), CompileError> + Send + Sync + 'static,
    ) -> Self {
        ObjCode(Arc::new(f))
    }

    /// Runs the emission function.
    pub fn emit(&self, asm: &mut Asm, cenv: &CEnv, depth: u16) -> Result<(), CompileError> {
        (self.0)(asm, cenv, depth)
    }
}

fn emit_triv(t: &ObjTriv, asm: &mut Asm, cenv: &CEnv) -> Result<(), CompileError> {
    match t {
        ObjTriv::Const(d) => emit::emit_const(asm, d),
        ObjTriv::Var(x) => emit::emit_lexical(asm, cenv, x),
        ObjTriv::Global(g) => emit::emit_global(asm, g),
        ObjTriv::Closure { template, free } => {
            emit::emit_make_closure(asm, template.clone(), free, cenv)
        }
    }
}

/// A trivial term as an operand of the in-place compilators.
fn operand(t: &ObjTriv) -> Operand<'_> {
    match t {
        ObjTriv::Const(d) => Operand::Const(d),
        ObjTriv::Var(x) => Operand::Var(x),
        ObjTriv::Global(_) | ObjTriv::Closure { .. } => Operand::Other,
    }
}

/// Applies `p` to `args` through the primitive compilator.
fn emit_prim(
    p: Prim,
    args: &[ObjTriv],
    dest: Dest,
    asm: &mut Asm,
    cenv: &CEnv,
) -> Result<(), CompileError> {
    let load = |asm: &mut Asm, a: &ObjTriv| emit_triv(a, asm, cenv);
    emit::emit_prim_app(asm, cenv, p, args, dest, operand, load)
}

/// Pushes the arguments of a call; returns the count.
fn emit_args(args: &[ObjTriv], asm: &mut Asm, cenv: &CEnv) -> Result<u8, CompileError> {
    let n = u8::try_from(args.len()).map_err(|_| CompileError::TooManyArgs(args.len()))?;
    for a in args {
        emit_triv(a, asm, cenv)?;
        emit::emit_push(asm);
    }
    Ok(n)
}

fn emit_serious(
    s: &ObjSerious,
    asm: &mut Asm,
    cenv: &CEnv,
    tail: bool,
) -> Result<(), CompileError> {
    match s {
        ObjSerious::Call(f, args) => {
            let n = emit_args(args, asm, cenv)?;
            emit_triv(f, asm, cenv)?;
            if tail {
                emit::emit_tail_call(asm, n);
            } else {
                emit::emit_call(asm, n);
            }
        }
        ObjSerious::CallGlobal(g, args) => {
            let n = emit_args(args, asm, cenv)?;
            emit::emit_global(asm, g)?;
            if tail {
                emit::emit_tail_call(asm, n);
            } else {
                emit::emit_call(asm, n);
            }
        }
        ObjSerious::Prim(p, args) => {
            emit_prim(*p, args, Dest::Val, asm, cenv)?;
            if tail {
                emit::emit_return(asm);
            }
        }
    }
    Ok(())
}

/// The object-code backend for the specializer.
#[derive(Default)]
pub struct ObjectBuilder {
    defs: Vec<(Symbol, Arc<Template>)>,
    error: Option<CompileError>,
    ops: usize,
}

impl ObjectBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ObjectBuilder {
            defs: Vec::new(),
            error: None,
            ops: 0,
        }
    }

    fn count(&mut self) {
        self.ops += 1;
    }

    fn record(&mut self, e: CompileError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Compiles a body into a fresh template (shared by `lambda` and
    /// `define`).
    fn compile_closed(
        &mut self,
        name: &Symbol,
        params: &[Symbol],
        free: &[Symbol],
        body: &ObjCode,
    ) -> Option<Arc<Template>> {
        let arity = match u8::try_from(params.len()) {
            Ok(a) => a,
            Err(_) => {
                self.record(CompileError::TooManyArgs(params.len()));
                return None;
            }
        };
        let nfree = match u16::try_from(free.len()) {
            Ok(n) => n,
            Err(_) => {
                self.record(CompileError::TooManyArgs(free.len()));
                return None;
            }
        };
        let mut asm = Asm::new(*name, arity, nfree);
        let mut cenv = CEnv::empty();
        for (i, p) in params.iter().enumerate() {
            cenv = cenv.bind(*p, Loc::Local(i as u16));
        }
        for (i, v) in free.iter().enumerate() {
            cenv = cenv.bind(*v, Loc::Captured(i as u16));
        }
        match body
            .emit(&mut asm, &cenv, params.len() as u16)
            .and_then(|()| asm.finish().map_err(CompileError::from))
        {
            Ok(t) => {
                // Templates are real emitted code; weigh them by length so
                // code_size tracks actual object-code growth, not just
                // constructor traffic.
                self.ops += t.code.len();
                Some(t)
            }
            Err(e) => {
                self.record(e);
                None
            }
        }
    }
}

impl CodeBuilder for ObjectBuilder {
    type Triv = ObjTriv;
    type Serious = ObjSerious;
    type Code = ObjCode;
    /// Compilation can fail (e.g. encoding overflows); the error surfaces
    /// when the program is finished.
    type Program = Result<Image, CompileError>;

    fn const_(&mut self, d: &Datum) -> ObjTriv {
        self.count();
        ObjTriv::Const(d.clone())
    }

    fn var(&mut self, x: &Symbol) -> ObjTriv {
        self.count();
        ObjTriv::Var(*x)
    }

    fn global(&mut self, x: &Symbol) -> ObjTriv {
        self.count();
        ObjTriv::Global(*x)
    }

    fn lambda(
        &mut self,
        name: &Symbol,
        params: &[Symbol],
        free: &[Symbol],
        body: ObjCode,
    ) -> ObjTriv {
        self.count();
        match self.compile_closed(name, params, free, &body) {
            Some(template) => ObjTriv::Closure {
                template,
                free: free.to_vec(),
            },
            None => ObjTriv::Const(Datum::Unspec), // poisoned; error recorded
        }
    }

    fn call(&mut self, f: ObjTriv, args: Vec<ObjTriv>) -> ObjSerious {
        self.count();
        ObjSerious::Call(f, args)
    }

    fn call_global(&mut self, g: &Symbol, args: Vec<ObjTriv>) -> ObjSerious {
        self.count();
        ObjSerious::CallGlobal(*g, args)
    }

    fn prim(&mut self, p: Prim, args: Vec<ObjTriv>) -> ObjSerious {
        self.count();
        ObjSerious::Prim(p, args)
    }

    fn ret(&mut self, t: ObjTriv) -> ObjCode {
        self.count();
        ObjCode::new(move |asm, cenv, _depth| {
            emit_triv(&t, asm, cenv)?;
            emit::emit_return(asm);
            Ok(())
        })
    }

    fn tail(&mut self, s: ObjSerious) -> ObjCode {
        self.count();
        ObjCode::new(move |asm, cenv, depth| {
            if let ObjSerious::Call(ObjTriv::Var(f), args) = &s {
                let load = |asm: &mut Asm, a: &ObjTriv| emit_triv(a, asm, cenv);
                if emit::emit_join_call(asm, cenv, depth, f, args, load)? {
                    return Ok(());
                }
            }
            emit_serious(&s, asm, cenv, true)
        })
    }

    fn let_serious(&mut self, x: &Symbol, rhs: ObjSerious, body: ObjCode) -> ObjCode {
        self.count();
        let x = *x;
        ObjCode::new(move |asm, cenv, depth| {
            if let ObjSerious::Prim(p, args) = &rhs {
                emit_prim(*p, args, Dest::Bind, asm, cenv)?;
            } else {
                emit_serious(&rhs, asm, cenv, false)?;
                emit::emit_bind(asm);
            }
            let inner = cenv.bind(x, Loc::Local(depth));
            body.emit(asm, &inner, depth + 1)
        })
    }

    fn let_triv(&mut self, x: &Symbol, rhs: ObjTriv, body: ObjCode) -> ObjCode {
        self.count();
        let x = *x;
        ObjCode::new(move |asm, cenv, depth| {
            emit_triv(&rhs, asm, cenv)?;
            emit::emit_bind(asm);
            let inner = cenv.bind(x, Loc::Local(depth));
            body.emit(asm, &inner, depth + 1)
        })
    }

    fn if_(&mut self, t: ObjTriv, then: ObjCode, els: ObjCode) -> ObjCode {
        self.count();
        ObjCode::new(move |asm, cenv, depth| {
            let load = |asm: &mut Asm, t: &ObjTriv| emit_triv(t, asm, cenv);
            let alt = emit::emit_branch(asm, cenv, &t, operand, load)?;
            then.emit(asm, cenv, depth)?;
            emit::attach(asm, alt);
            els.emit(asm, cenv, depth)
        })
    }

    fn join(&mut self, j: &Symbol, r: &Symbol, jbody: ObjCode, body: ObjCode) -> ObjCode {
        self.count();
        let (j, r) = (*j, *r);
        ObjCode::new(move |asm, cenv, depth| {
            emit::emit_join(
                asm,
                cenv,
                depth,
                j,
                r,
                |asm, cenv, depth| body.emit(asm, cenv, depth),
                |asm, cenv, depth| jbody.emit(asm, cenv, depth),
            )
        })
    }

    fn define(&mut self, name: &Symbol, params: &[Symbol], body: ObjCode) {
        self.count();
        if let Some(t) = self.compile_closed(name, params, &[], &body) {
            self.defs.push((*name, t));
        }
    }

    fn finish(mut self, entry: &Symbol) -> Result<Image, CompileError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // Entry first, mirroring SourceBuilder.
        if let Some(pos) = self.defs.iter().position(|(n, _)| n == entry) {
            let d = self.defs.remove(pos);
            self.defs.insert(0, d);
        }
        Ok(Image {
            templates: self.defs,
            entry: *entry,
        })
    }

    fn code_size(&self) -> usize {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_vm::{Machine, Value};

    /// Drives both builders through the same constructor calls and checks
    /// the object backend against the compiled source backend — a small
    /// instance of the fusion theorem.
    fn build_countdown<B: CodeBuilder>(b: &mut B) -> Symbol {
        // (define (f x) (let ((t (zero? x)))
        //                 (if t 'done (let ((u (- x 1))) (f u)))))
        let f = Symbol::new("f");
        let x = Symbol::new("x");
        let t = Symbol::new("t");
        let u = Symbol::new("u");
        let xv = b.var(&x);
        let test = b.prim(Prim::ZeroP, vec![xv]);
        let done = {
            let c = b.const_(&Datum::sym("done"));
            b.ret(c)
        };
        let recur = {
            let uv = b.var(&u);
            let call = b.call_global(&f, vec![uv]);
            let inner = b.tail(call);
            let xv = b.var(&x);
            let one = b.const_(&Datum::Int(1));
            let sub = b.prim(Prim::Sub, vec![xv, one]);
            b.let_serious(&u, sub, inner)
        };
        let tv = b.var(&t);
        let cond = b.if_(tv, done, recur);
        let body = b.let_serious(&t, test, cond);
        b.define(&f, &[x], body);
        f
    }

    #[test]
    fn object_builder_runs() {
        let mut b = ObjectBuilder::new();
        let f = build_countdown(&mut b);
        let image = b.finish(&f).unwrap();
        let mut m = Machine::load(&image);
        let v = m.call_global(&f, vec![Value::Int(10_000)]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::sym("done")));
    }

    #[test]
    fn fused_output_equals_compiled_source_output() {
        use two4one_anf::build::SourceBuilder;

        let mut ob = ObjectBuilder::new();
        let f = build_countdown(&mut ob);
        let fused = ob.finish(&f).unwrap();

        let mut sb = SourceBuilder::new();
        let f2 = build_countdown(&mut sb);
        let source_prog = sb.finish(&f2);
        let compiled = crate::compile_program(&source_prog, f2.as_str()).unwrap();

        assert_eq!(fused.templates.len(), compiled.templates.len());
        for ((n1, t1), (n2, t2)) in fused.templates.iter().zip(&compiled.templates) {
            assert_eq!(n1, n2);
            assert_eq!(
                t1,
                t2,
                "template mismatch:\n{}\nvs\n{}",
                t1.disassemble(),
                t2.disassemble()
            );
        }
    }

    #[test]
    fn lambdas_capture_free_variables() {
        // (define (mk n) (lambda (x) (+ x n)))   then ((mk 3) 4) = 7
        let mut b = ObjectBuilder::new();
        let mk = Symbol::new("mk");
        let n = Symbol::new("n");
        let x = Symbol::new("x");
        let lam_body = {
            let xv = b.var(&x);
            let nv = b.var(&n);
            let s = b.prim(Prim::Add, vec![xv, nv]);
            b.tail(s)
        };
        let lam = b.lambda(
            &Symbol::new("adder"),
            std::slice::from_ref(&x),
            std::slice::from_ref(&n),
            lam_body,
        );
        let body = b.ret(lam);
        b.define(&mk, &[n], body);
        let image = b.finish(&mk).unwrap();
        let mut m = Machine::load(&image);
        let add3 = m.call_global(&mk, vec![Value::Int(3)]).unwrap();
        let v = m.call_value(add3, vec![Value::Int(4)]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(7)));
    }

    /// `(define (f a n) (let ((j (lambda (r) (+ r 1))))
    ///                     (if a (let ((t (* n 2))) (j t)) (j n))))`
    fn build_join<B: CodeBuilder>(b: &mut B) -> Symbol {
        let [f, a, n, j, r, t] = ["f", "a", "n", "j", "r", "t"].map(Symbol::new);
        let jbody = {
            let rv = b.var(&r);
            let one = b.const_(&Datum::Int(1));
            let sum = b.prim(Prim::Add, vec![rv, one]);
            b.tail(sum)
        };
        let then = {
            let jv = b.var(&j);
            let tv = b.var(&t);
            let call = b.call(jv, vec![tv]);
            let jump = b.tail(call);
            let nv = b.var(&n);
            let two = b.const_(&Datum::Int(2));
            let dbl = b.prim(Prim::Mul, vec![nv, two]);
            b.let_serious(&t, dbl, jump)
        };
        let els = {
            let jv = b.var(&j);
            let nv = b.var(&n);
            let call = b.call(jv, vec![nv]);
            b.tail(call)
        };
        let av = b.var(&a);
        let cond = b.if_(av, then, els);
        let body = b.join(&j, &r, jbody, cond);
        b.define(&f, &[a, n], body);
        f
    }

    #[test]
    fn join_points_compile_to_jumps_in_both_backends() {
        use two4one_anf::build::SourceBuilder;
        use two4one_vm::Instr;

        let mut ob = ObjectBuilder::new();
        let f = build_join(&mut ob);
        let fused = ob.finish(&f).unwrap();
        let mut sb = SourceBuilder::new();
        build_join(&mut sb);
        let source = sb.finish(&f);
        assert_eq!(
            source.to_source().trim(),
            "(define (f a n)\n  (let ((j (lambda (r) (+ r 1)))) \
             (if a (let ((t (* n 2))) (j t)) (j n))))"
        );
        let compiled = crate::compile_program(&source, f.as_str()).unwrap();
        assert_eq!(fused.templates, compiled.templates);

        let t = &fused.templates[0].1;
        assert!(t.templates.is_empty(), "{}", t.disassemble());
        assert!(!t
            .code
            .iter()
            .any(|i| matches!(i, Instr::MakeClosure { .. })));
        assert_eq!(
            t.code
                .iter()
                .filter(|i| matches!(i, Instr::Jump(_)))
                .count(),
            2,
            "{}",
            t.disassemble()
        );
        for (a, expect) in [(true, 11), (false, 6)] {
            let mut m = Machine::load(&fused);
            let v = m.call_global(&f, vec![Value::Bool(a), Value::Int(5)]);
            assert_eq!(v.unwrap().to_datum(), Some(Datum::Int(expect)));
        }
    }

    /// `(define (f a) (let ((j (lambda (r) r))) M))` where `M` lets `j`
    /// escape: `(f j)` passes it as an argument, `(lambda (y) (j y))`
    /// captures it.
    fn build_escaping_join<B: CodeBuilder>(b: &mut B, captured: bool) -> Symbol {
        let [f, a, j, r, y] = ["f", "a", "j", "r", "y"].map(Symbol::new);
        let jbody = {
            let rv = b.var(&r);
            b.ret(rv)
        };
        let body = if captured {
            let lam_body = {
                let jv = b.var(&j);
                let yv = b.var(&y);
                let call = b.call(jv, vec![yv]);
                b.tail(call)
            };
            let lam = b.lambda(&Symbol::new("k"), &[y], &[j], lam_body);
            b.ret(lam)
        } else {
            let jv = b.var(&j);
            let call = b.call_global(&f, vec![jv]);
            b.tail(call)
        };
        let code = b.join(&j, &r, jbody, body);
        b.define(&f, &[a], code);
        f
    }

    #[test]
    fn an_escaping_join_is_a_typed_error_in_both_backends() {
        use two4one_anf::build::SourceBuilder;

        let misuse = CompileError::JoinMisuse(Symbol::new("j"));
        for captured in [false, true] {
            let mut ob = ObjectBuilder::new();
            let f = build_escaping_join(&mut ob, captured);
            assert_eq!(ob.finish(&f).unwrap_err(), misuse, "captured={captured}");

            let mut sb = SourceBuilder::new();
            build_escaping_join(&mut sb, captured);
            let source = sb.finish(&f);
            let err = crate::compile_program(&source, f.as_str()).unwrap_err();
            assert_eq!(err, misuse, "captured={captured}");
        }
    }

    #[test]
    fn unbound_variable_error_surfaces_at_finish() {
        let mut b = ObjectBuilder::new();
        let bad = b.var(&Symbol::new("nope"));
        let code = b.ret(bad);
        b.define(&Symbol::new("f"), &[], code);
        let err = b.finish(&Symbol::new("f")).unwrap_err();
        assert_eq!(err, CompileError::Unbound(Symbol::new("nope")));
    }
}
