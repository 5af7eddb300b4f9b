//! The compilators: one code generator per residual construct.
//!
//! These are the `ev-X_C` functions of Sec. 5.3 — the compiler with the
//! syntax dispatch already performed. Both the recursive-descent compiler
//! ([`crate::compile_body`]) and the fused combinators
//! ([`crate::ObjectBuilder`]) call exactly these functions, which is what
//! makes "compile the residual source" and "generate object code directly"
//! produce identical templates (the fusion equivalence).

use crate::cenv::{CEnv, Loc};
use crate::CompileError;
use std::sync::Arc;
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;
use two4one_vm::{Asm, Instr, Label, Template};

/// Loads a constant into `val`.
pub fn emit_const(asm: &mut Asm, d: &Datum) -> Result<(), CompileError> {
    let i = asm.const_index(d)?;
    asm.emit(Instr::Const(i));
    Ok(())
}

/// Loads the local or captured variable `x`, found at `loc`, into `val`.
/// A join point is not a value, so loading one is an error.
pub fn emit_var(asm: &mut Asm, x: &Symbol, loc: Loc) -> Result<(), CompileError> {
    match loc {
        Loc::Local(i) => asm.emit(Instr::Local(i)),
        Loc::Captured(i) => asm.emit(Instr::Captured(i)),
        Loc::Join { .. } => return Err(CompileError::JoinMisuse(*x)),
    }
    Ok(())
}

/// Loads `x`, which must be bound in `cenv`, into `val`.
pub fn emit_lexical(asm: &mut Asm, cenv: &CEnv, x: &Symbol) -> Result<(), CompileError> {
    match cenv.lookup(x) {
        Some(loc) => emit_var(asm, x, loc),
        None => Err(CompileError::Unbound(*x)),
    }
}

/// Loads a global into `val`.
pub fn emit_global(asm: &mut Asm, name: &Symbol) -> Result<(), CompileError> {
    let i = asm.global_index(name)?;
    asm.emit(Instr::Global(i));
    Ok(())
}

/// Pushes `val` onto the argument stack.
pub fn emit_push(asm: &mut Asm) {
    asm.emit(Instr::Push);
}

/// Binds `val` as the next `let` local.
pub fn emit_bind(asm: &mut Asm) {
    asm.emit(Instr::Bind);
}

/// The stack depth of a body under one more `let`, whose variable takes
/// local slot `depth`. Slots are numbered in a `u16`, so a body nested
/// deeper than that is an error, not a wrapped slot number.
pub fn deeper(depth: u16) -> Result<u16, CompileError> {
    depth.checked_add(1).ok_or(CompileError::TooManyLocals)
}

/// Returns `val` to the caller.
pub fn emit_return(asm: &mut Asm) {
    asm.emit(Instr::Return);
}

/// Non-tail call with `nargs` stacked arguments and the callee in `val`.
pub fn emit_call(asm: &mut Asm, nargs: u8) {
    asm.emit(Instr::Call { nargs });
}

/// Tail call — a jump, in the paper's phrasing.
pub fn emit_tail_call(asm: &mut Asm, nargs: u8) {
    asm.emit(Instr::TailCall { nargs });
}

/// Applies a primitive to `nargs` stacked arguments.
pub fn emit_prim(asm: &mut Asm, p: Prim, nargs: u8) {
    asm.emit(Instr::Prim { prim: p, nargs });
}

/// An operand of a primitive or the test of a conditional, as the
/// compilators that read operands in place see it. Each emitter maps its
/// own trivial terms onto this.
#[derive(Clone, Copy)]
pub enum Operand<'a> {
    /// A constant.
    Const(&'a Datum),
    /// A variable: read in place when `cenv` binds it to a local slot,
    /// loaded through `val` otherwise.
    Var(&'a Symbol),
    /// Anything else (a global reference, a closure): always loaded
    /// through `val`.
    Other,
}

/// Where [`emit_prim_app`] leaves the primitive's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// In `val`.
    Val,
    /// Bound as the next `let` local (the right-hand side of a `let`).
    Bind,
}

/// The local slot of `o`, when it is a variable that `cenv` binds to one.
fn local_slot(cenv: &CEnv, o: Operand<'_>) -> Option<u16> {
    match o {
        Operand::Var(x) => match cenv.lookup(x)? {
            Loc::Local(i) => Some(i),
            Loc::Captured(_) | Loc::Join { .. } => None,
        },
        Operand::Const(_) | Operand::Other => None,
    }
}

/// The in-place instruction applying `p` to `args`, if the operands have
/// one of its shapes: one local, two locals, or a local and a constant.
fn in_place<T>(
    asm: &mut Asm,
    cenv: &CEnv,
    p: Prim,
    args: &[T],
    dest: Dest,
    operand: impl Fn(&T) -> Operand<'_>,
) -> Result<Option<Instr>, CompileError> {
    let bind = dest == Dest::Bind;
    let (a, b) = match args {
        [a] => (a, None),
        [a, b] => (a, Some(operand(b))),
        _ => return Ok(None),
    };
    let Some(a) = local_slot(cenv, operand(a)) else {
        return Ok(None);
    };
    Ok(match b {
        None if bind => Some(Instr::PrimLocalBind { prim: p, a }),
        None => Some(Instr::PrimLocal { prim: p, a }),
        Some(Operand::Const(d)) => {
            let k = asm.const_index(d)?;
            Some(if bind {
                Instr::PrimLocalConstBind { prim: p, a, k }
            } else {
                Instr::PrimLocalConst { prim: p, a, k }
            })
        }
        Some(b) => local_slot(cenv, b).map(|b| {
            if bind {
                Instr::PrimLocalLocalBind { prim: p, a, b }
            } else {
                Instr::PrimLocalLocal { prim: p, a, b }
            }
        }),
    })
}

/// The primitive compilator: `p` applied to `args`, its result left at
/// `dest`. A-normal form makes every operand trivial, so when the
/// operands are one local, two locals, or a local and a constant this is
/// one instruction that names them, and the machine reads them where they
/// live. Otherwise `load` puts each operand in `val` to be pushed, and
/// `prim` (then `bind`, for [`Dest::Bind`]) applies `p` to the stack.
pub fn emit_prim_app<T>(
    asm: &mut Asm,
    cenv: &CEnv,
    p: Prim,
    args: &[T],
    dest: Dest,
    operand: impl Fn(&T) -> Operand<'_>,
    mut load: impl FnMut(&mut Asm, &T) -> Result<(), CompileError>,
) -> Result<(), CompileError> {
    if let Some(i) = in_place(asm, cenv, p, args, dest, operand)? {
        asm.emit(i);
        return Ok(());
    }
    let n = u8::try_from(args.len()).map_err(|_| CompileError::TooManyArgs(args.len()))?;
    for a in args {
        load(asm, a)?;
        emit_push(asm);
    }
    emit_prim(asm, p, n);
    if dest == Dest::Bind {
        emit_bind(asm);
    }
    Ok(())
}

/// The conditional compilator's first half: branch on the test `t` being
/// false. A local is tested in place; anything else is put in `val` by
/// `load` first. Returns the label to attach where the alternative starts
/// (the paper's `make-label` + `instruction-using-label` pair).
pub fn emit_branch<T>(
    asm: &mut Asm,
    cenv: &CEnv,
    t: &T,
    operand: impl Fn(&T) -> Operand<'_>,
    load: impl FnOnce(&mut Asm, &T) -> Result<(), CompileError>,
) -> Result<Label, CompileError> {
    if let Some(slot) = local_slot(cenv, operand(t)) {
        let alt = asm.make_label();
        asm.emit_jump_if_false_local(slot, alt);
        return Ok(alt);
    }
    load(asm, t)?;
    Ok(emit_branch_false(asm))
}

/// Branches on `val` being false; returns the label of the alternative.
pub fn emit_branch_false(asm: &mut Asm) -> Label {
    let alt = asm.make_label();
    asm.emit_jump_if_false(alt);
    alt
}

/// Attaches a label at the current position (`attach-label`).
pub fn attach(asm: &mut Asm, l: Label) {
    asm.attach_label(l);
}

/// The layout of a join point `(let ((j (lambda (r) jbody))) body)`, as
/// [`emit_join`] lays it out.
pub struct Join {
    /// The environment of `body`: `j` bound to the join block.
    pub body: CEnv,
    /// Where the join block starts: attached right after `body`.
    pub label: Label,
    /// The environment of `jbody`, emitted at one slot deeper than the
    /// join's `let`: `r` in local slot `depth`, the slot every jump to `j`
    /// binds.
    pub jbody: CEnv,
}

/// The join compilator: `(let ((j (lambda (r) jbody))) body)` where `j`
/// is a join point. The caller emits `body` under [`Join::body`] at
/// `depth`, attaches [`Join::label`], then emits `jbody` under
/// [`Join::jbody`] at [`deeper`]`(depth)`. The join body is a block of the
/// enclosing template, so no closure is built and no call is made.
pub fn emit_join(asm: &mut Asm, cenv: &CEnv, depth: u16, j: Symbol, r: Symbol) -> Join {
    let label = asm.make_label();
    Join {
        body: cenv.bind(j, Loc::Join { label, depth }),
        label,
        jbody: cenv.bind(r, Loc::Local(depth)),
    }
}

/// The tail-call compilator's join case. When `f` names a join point,
/// emits `(f a)` as a jump and returns `true`: `load` puts `a` in `val`,
/// `trim` drops the `let`s the branch bound since the join's `let` (only
/// if it bound any), `bind` makes `a` the join parameter, and `jump`
/// enters the join block. Otherwise emits nothing and returns `false`.
pub fn emit_join_call<T>(
    asm: &mut Asm,
    cenv: &CEnv,
    depth: u16,
    f: &Symbol,
    args: &[T],
    load: impl FnOnce(&mut Asm, &T) -> Result<(), CompileError>,
) -> Result<bool, CompileError> {
    let Some((label, jdepth)) = cenv.join(f) else {
        return Ok(false);
    };
    let [a] = args else {
        return Err(CompileError::JoinMisuse(*f));
    };
    load(asm, a)?;
    if depth > jdepth {
        asm.emit(Instr::Trim(jdepth));
    }
    emit_bind(asm);
    asm.emit_jump(label);
    Ok(true)
}

/// Closure construction: loads each free variable from `cenv`, pushes it,
/// and emits `make-closure` over `template`.
pub fn emit_make_closure(
    asm: &mut Asm,
    template: Arc<Template>,
    free: &[Symbol],
    cenv: &CEnv,
) -> Result<(), CompileError> {
    for v in free {
        emit_lexical(asm, cenv, v)?;
        emit_push(asm);
    }
    let nfree = u16::try_from(free.len()).map_err(|_| CompileError::TooManyArgs(free.len()))?;
    let ti = asm.template_index(template)?;
    asm.emit(Instr::MakeClosure {
        template: ti,
        nfree,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compilators_compose_into_valid_code() {
        // (define (f x) (if x 'yes 'no)) by hand through the compilators.
        let mut asm = Asm::new(Symbol::new("f"), 1, 0);
        emit_var(&mut asm, &Symbol::new("x"), Loc::Local(0)).unwrap();
        let alt = emit_branch_false(&mut asm);
        emit_const(&mut asm, &Datum::sym("yes")).unwrap();
        emit_return(&mut asm);
        attach(&mut asm, alt);
        emit_const(&mut asm, &Datum::sym("no")).unwrap();
        emit_return(&mut asm);
        let t = asm.finish().unwrap();
        assert_eq!(t.code.len(), 6);
        assert!(matches!(t.code[1], Instr::JumpIfFalse(4)));
    }
}
