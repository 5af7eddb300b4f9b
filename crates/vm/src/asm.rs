//! The assembler: the code-constructor vocabulary of the paper's
//! compilators.
//!
//! The Scheme 48 compiler builds object code with `sequentially`,
//! `make-label`, `attach-label`, and `instruction-using-label` (Sec. 6.1).
//! [`Asm`] provides the same operations: instructions are emitted
//! sequentially into a growing code vector, labels are allocated eagerly
//! and attached later, and jump instructions referencing unattached labels
//! are backpatched when the template is finished — the "relocation step"
//! the paper mentions, done with backpatching as suggested there.

use crate::{Instr, Template};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use two4one_syntax::datum::Datum;
use two4one_syntax::symbol::Symbol;

/// A forward-referenceable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Assembler errors (all indicate compiler bugs, not user errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// `finish` called while a label was never attached.
    UnattachedLabel(u32),
    /// A table overflowed its 16-bit index space.
    TableOverflow(&'static str),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnattachedLabel(l) => write!(f, "label {l} was never attached"),
            AsmError::TableOverflow(which) => write!(f, "{which} table overflow"),
        }
    }
}

impl std::error::Error for AsmError {}

/// An in-progress template.
///
/// # Example
///
/// Compiling `(if x 1 2)` by hand, the way a compilator does:
///
/// ```
/// use two4one_vm::{Asm, Instr, Machine, Value};
/// use two4one_syntax::{Datum, Symbol};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut asm = Asm::new(Symbol::new("choose"), 1, 0);
/// let alt = asm.make_label();
/// asm.emit(Instr::Local(0));
/// asm.emit_jump_if_false(alt);
/// let one = asm.const_index(&Datum::Int(1))?;
/// asm.emit(Instr::Const(one));
/// asm.emit(Instr::Return);
/// asm.attach_label(alt);
/// let two = asm.const_index(&Datum::Int(2))?;
/// asm.emit(Instr::Const(two));
/// asm.emit(Instr::Return);
/// let template = asm.finish()?;
///
/// let mut m = Machine::empty();
/// m.define_template(Symbol::new("choose"), template);
/// let v = m.call_global(&Symbol::new("choose"), vec![Value::Bool(false)])?;
/// assert_eq!(v.to_datum(), Some(Datum::Int(2)));
/// # Ok(())
/// # }
/// ```
pub struct Asm {
    name: Symbol,
    arity: u8,
    nfree: u16,
    code: Vec<Instr>,
    consts: Vec<Datum>,
    const_index: HashMap<Datum, u16>,
    globals: Vec<Symbol>,
    global_index: HashMap<Symbol, u16>,
    templates: Vec<Arc<Template>>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl Asm {
    /// Starts assembling a template.
    pub fn new(name: Symbol, arity: u8, nfree: u16) -> Self {
        Asm {
            name,
            arity,
            nfree,
            code: Vec::new(),
            consts: Vec::new(),
            const_index: HashMap::new(),
            globals: Vec::new(),
            global_index: HashMap::new(),
            templates: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Emits one instruction (`sequentially` is just consecutive calls).
    pub fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    /// Allocates a fresh, unattached label (`make-label`).
    pub fn make_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Attaches a label to the current position (`attach-label`).
    ///
    /// # Panics
    ///
    /// Panics if the label is already attached (a compiler bug).
    pub fn attach_label(&mut self, l: Label) {
        let slot = &mut self.labels[l.0 as usize];
        assert!(slot.is_none(), "label attached twice");
        *slot = Some(self.code.len());
    }

    /// Emits a jump to `l`, backpatching later if `l` is still unattached
    /// (`instruction-using-label`).
    pub fn emit_jump(&mut self, l: Label) {
        self.fixups.push((self.code.len(), l));
        self.emit(Instr::Jump(u32::MAX));
    }

    /// Emits a conditional jump to `l` taken when `val` is `#f`.
    pub fn emit_jump_if_false(&mut self, l: Label) {
        self.fixups.push((self.code.len(), l));
        self.emit(Instr::JumpIfFalse(u32::MAX));
    }

    /// Emits a conditional jump to `l` taken when local slot `slot`, read
    /// in place, is `#f`.
    pub fn emit_jump_if_false_local(&mut self, slot: u16, l: Label) {
        self.fixups.push((self.code.len(), l));
        self.emit(Instr::JumpIfFalseLocal {
            slot,
            target: u32::MAX,
        });
    }

    /// Interns a constant, returning its index.
    ///
    /// # Errors
    ///
    /// Fails if the constant table exceeds 2¹⁶ entries.
    pub fn const_index(&mut self, d: &Datum) -> Result<u16, AsmError> {
        if let Some(&i) = self.const_index.get(d) {
            return Ok(i);
        }
        let i =
            u16::try_from(self.consts.len()).map_err(|_| AsmError::TableOverflow("constant"))?;
        self.consts.push(d.clone());
        self.const_index.insert(d.clone(), i);
        Ok(i)
    }

    /// Interns a global name, returning its index.
    ///
    /// # Errors
    ///
    /// Fails if the global table exceeds 2¹⁶ entries.
    pub fn global_index(&mut self, s: &Symbol) -> Result<u16, AsmError> {
        if let Some(&i) = self.global_index.get(s) {
            return Ok(i);
        }
        let i = u16::try_from(self.globals.len()).map_err(|_| AsmError::TableOverflow("global"))?;
        self.globals.push(*s);
        self.global_index.insert(*s, i);
        Ok(i)
    }

    /// Registers a sub-template, returning its index.
    ///
    /// # Errors
    ///
    /// Fails if the template table exceeds 2¹⁶ entries.
    pub fn template_index(&mut self, t: Arc<Template>) -> Result<u16, AsmError> {
        let i =
            u16::try_from(self.templates.len()).map_err(|_| AsmError::TableOverflow("template"))?;
        self.templates.push(t);
        Ok(i)
    }

    /// Resolves all labels and produces the finished template.
    ///
    /// # Errors
    ///
    /// Fails if any referenced label was never attached.
    pub fn finish(mut self) -> Result<Arc<Template>, AsmError> {
        for (pos, label) in &self.fixups {
            let target =
                self.labels[label.0 as usize].ok_or(AsmError::UnattachedLabel(label.0))? as u32;
            match &mut self.code[*pos] {
                Instr::Jump(t)
                | Instr::JumpIfFalse(t)
                | Instr::JumpIfFalseLocal { target: t, .. } => *t = target,
                other => unreachable!("fixup points at non-jump {other:?}"),
            }
        }
        Ok(Arc::new(Template {
            name: self.name,
            arity: self.arity,
            nfree: self.nfree,
            code: self.code,
            consts: self.consts,
            globals: self.globals,
            templates: self.templates,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpatching_forward_jump() {
        let mut a = Asm::new(Symbol::new("t"), 0, 0);
        let l = a.make_label();
        a.emit_jump_if_false(l);
        let k = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(k));
        a.emit(Instr::Return);
        a.attach_label(l);
        let k2 = a.const_index(&Datum::Int(2)).unwrap();
        a.emit(Instr::Const(k2));
        a.emit(Instr::Return);
        let t = a.finish().unwrap();
        assert_eq!(t.code[0], Instr::JumpIfFalse(3));
    }

    #[test]
    fn backpatching_an_in_place_branch() {
        let mut a = Asm::new(Symbol::new("t"), 1, 0);
        let l = a.make_label();
        a.emit_jump_if_false_local(0, l);
        a.emit(Instr::Return);
        a.attach_label(l);
        a.emit(Instr::Return);
        let t = a.finish().unwrap();
        assert_eq!(t.code[0], Instr::JumpIfFalseLocal { slot: 0, target: 2 });
    }

    #[test]
    fn backward_jump_works_too() {
        let mut a = Asm::new(Symbol::new("t"), 0, 0);
        let top = a.make_label();
        a.attach_label(top);
        a.emit(Instr::Push);
        a.emit_jump(top);
        let t = a.finish().unwrap();
        assert_eq!(t.code[1], Instr::Jump(0));
    }

    #[test]
    fn constants_and_globals_are_interned() {
        let mut a = Asm::new(Symbol::new("t"), 0, 0);
        let i1 = a.const_index(&Datum::Int(42)).unwrap();
        let i2 = a.const_index(&Datum::Int(42)).unwrap();
        let i3 = a.const_index(&Datum::Int(43)).unwrap();
        assert_eq!(i1, i2);
        assert_ne!(i1, i3);
        let g1 = a.global_index(&Symbol::new("f")).unwrap();
        let g2 = a.global_index(&Symbol::new("f")).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn unattached_label_is_an_error() {
        let mut a = Asm::new(Symbol::new("t"), 0, 0);
        let l = a.make_label();
        a.emit_jump(l);
        assert_eq!(a.finish().unwrap_err(), AsmError::UnattachedLabel(0));
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let mut a = Asm::new(Symbol::new("t"), 0, 0);
        let l = a.make_label();
        a.attach_label(l);
        a.attach_label(l);
    }
}
