//! A byte-code virtual machine in the style of the Scheme 48 VM.
//!
//! "The output of the compiler is an abstract representation of the byte
//! code for the Scheme 48 virtual machine, essentially a stack machine with
//! direct support for closures and continuations" (Sec. 6.1). This crate
//! provides:
//!
//! * the [`Instr`] instruction set and [`Template`] code objects;
//! * [`Asm`], an assembler exposing exactly the constructor vocabulary the
//!   paper's compilators use — `sequentially` (sequential emission),
//!   `make-label`, `attach-label`, and `instruction-using-label`
//!   (backpatched jumps);
//! * the [`Machine`] byte-code interpreter with flat closures and proper
//!   tail calls;
//! * [`Image`], a linked set of templates forming a runnable program.
//!
//! Closures are *flat*: a closure captures the values of its free
//! variables; the compile-time environment resolves variables to argument
//! slots, `let` slots, captured slots, or globals.

pub mod asm;
pub mod genops;
pub mod machine;
pub mod objfile;

pub use asm::{Asm, AsmError, Label};
pub use genops::{decode_genext, encode_genext, GenDef, GenInstr, GenLam, GenParam, GenProgram};
pub use machine::{init_dispatch_metrics, ExecProfile, Machine, VmError};
pub use objfile::{crc32, decode as decode_image, encode as encode_image, ObjError};

use std::fmt;
use std::sync::Arc;
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;
use two4one_syntax::value::ProcRepr;

/// A byte-code instruction.
///
/// `val` is the accumulator; `push` moves it to the evaluation stack;
/// `bind` moves it to the current frame's locals (a `let`). A-normal form
/// makes every operand of a primitive trivial (Fig. 2), so a primitive
/// whose operands are one local, two locals, or a local and a constant
/// names them and reads them where they live, and so does a branch on a
/// local. These are
/// exactly the instructions the compilators emit, so every image the
/// machine runs — compiled, specialized straight to object code, or
/// decoded from an object file — uses this one instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Load `consts[i]` into `val`.
    Const(u16),
    /// Load the value of global `globals[i]` into `val`.
    Global(u16),
    /// Load local slot `i` (arguments first, then `let` bindings).
    Local(u16),
    /// Load captured slot `i` of the running closure.
    Captured(u16),
    /// Push `val` onto the evaluation stack.
    ///
    /// Consumes `val`: it is dead after this instruction, so the machine
    /// moves it instead of copying it, and an emitter must write `val`
    /// (`const`, `global`, `local`, `captured`, `make-closure` or a `prim`
    /// form that leaves its result in `val`) on every path before
    /// anything reads it again.
    Push,
    /// Append `val` to the current frame's locals (enter a `let`).
    ///
    /// Consumes `val`, under the same contract as [`Instr::Push`].
    Bind,
    /// Truncate the current frame's locals to `n` slots (leave the scope of
    /// branch-local `let`s). The compiler emits it only on a jump to a
    /// join point from a branch that bound `let`s of its own.
    Trim(u16),
    /// Pop `nfree` values into a new closure over `templates[template]`.
    MakeClosure {
        /// Index into the template table.
        template: u16,
        /// Number of captured values to pop.
        nfree: u16,
    },
    /// Call the procedure in `val` with `nargs` stacked arguments.
    Call {
        /// Argument count.
        nargs: u8,
    },
    /// Tail-call: like [`Instr::Call`] but replaces the current frame.
    TailCall {
        /// Argument count.
        nargs: u8,
    },
    /// Return `val` to the caller.
    Return,
    /// Unconditional jump to an absolute code index.
    Jump(u32),
    /// Jump if `val` is `#f`.
    JumpIfFalse(u32),
    /// Apply a primitive to `nargs` stacked arguments, result in `val`.
    Prim {
        /// The primitive.
        prim: Prim,
        /// Argument count.
        nargs: u8,
    },
    /// Apply a primitive to local slot `a`, read in place; result in
    /// `val`.
    PrimLocal {
        /// The primitive.
        prim: Prim,
        /// The operand's local slot.
        a: u16,
    },
    /// Apply a primitive to local slots `a` and `b`, read in place;
    /// result in `val`.
    PrimLocalLocal {
        /// The primitive.
        prim: Prim,
        /// The first operand's local slot.
        a: u16,
        /// The second operand's local slot.
        b: u16,
    },
    /// Apply a primitive to local slot `a` and constant `k`, read in
    /// place; result in `val`.
    PrimLocalConst {
        /// The primitive.
        prim: Prim,
        /// The first operand's local slot.
        a: u16,
        /// The second operand's index in the constant table.
        k: u16,
    },
    /// [`Instr::PrimLocal`], with the result appended to the current
    /// frame's locals (the right-hand side of a `let`). Leaves `val` dead,
    /// like [`Instr::Bind`].
    PrimLocalBind {
        /// The primitive.
        prim: Prim,
        /// The operand's local slot.
        a: u16,
    },
    /// [`Instr::PrimLocalLocal`], with the result bound as the next local.
    /// Leaves `val` dead.
    PrimLocalLocalBind {
        /// The primitive.
        prim: Prim,
        /// The first operand's local slot.
        a: u16,
        /// The second operand's local slot.
        b: u16,
    },
    /// [`Instr::PrimLocalConst`], with the result bound as the next local.
    /// Leaves `val` dead.
    PrimLocalConstBind {
        /// The primitive.
        prim: Prim,
        /// The first operand's local slot.
        a: u16,
        /// The second operand's index in the constant table.
        k: u16,
    },
    /// Jump to `target` if local slot `slot`, read in place, is `#f`.
    /// Leaves `val` dead: both successors write it before they read it.
    JumpIfFalseLocal {
        /// The local slot tested.
        slot: u16,
        /// Absolute code index of the alternative.
        target: u32,
    },
}

// Every instruction fits in 8 bytes, the in-place forms included.
const _: () = assert!(std::mem::size_of::<Instr>() == 8);

impl Instr {
    /// Number of distinct opcodes (the length of [`OP_NAMES`]).
    pub const N_OPS: usize = 21;

    /// Dense opcode index, for per-opcode dispatch accounting:
    /// `OP_NAMES[i.opcode()]` names the instruction family.
    pub fn opcode(&self) -> usize {
        match self {
            Instr::Const(_) => 0,
            Instr::Global(_) => 1,
            Instr::Local(_) => 2,
            Instr::Captured(_) => 3,
            Instr::Push => 4,
            Instr::Bind => 5,
            Instr::Trim(_) => 6,
            Instr::MakeClosure { .. } => 7,
            Instr::Call { .. } => 8,
            Instr::TailCall { .. } => 9,
            Instr::Return => 10,
            Instr::Jump(_) => 11,
            Instr::JumpIfFalse(_) => 12,
            Instr::Prim { .. } => 13,
            Instr::PrimLocal { .. } => 14,
            Instr::PrimLocalLocal { .. } => 15,
            Instr::PrimLocalConst { .. } => 16,
            Instr::PrimLocalBind { .. } => 17,
            Instr::PrimLocalLocalBind { .. } => 18,
            Instr::PrimLocalConstBind { .. } => 19,
            Instr::JumpIfFalseLocal { .. } => 20,
        }
    }
}

/// Opcode names indexed by [`Instr::opcode`] — the `op` label values of
/// the `t4o_vm_dispatch_total` counter family. The in-place forms have
/// labels of their own, none of them a name a retired superinstruction
/// family once used.
pub const OP_NAMES: [&str; Instr::N_OPS] = [
    "const",
    "global",
    "local",
    "captured",
    "push",
    "bind",
    "trim",
    "make-closure",
    "call",
    "tail-call",
    "return",
    "jump",
    "jump-if-false",
    "prim",
    "prim-local",
    "prim-local-local",
    "prim-local-const",
    "prim-local-bind",
    "prim-local-local-bind",
    "prim-local-const-bind",
    "jump-if-false-local",
];

/// A code object: instructions plus the constant, global, and sub-template
/// tables (Scheme 48 keeps these in the template too).
pub struct Template {
    /// Name for diagnostics and disassembly.
    pub name: Symbol,
    /// Number of parameters.
    pub arity: u8,
    /// Number of captured free variables the closure must carry.
    pub nfree: u16,
    /// The code.
    pub code: Vec<Instr>,
    /// Constant table, as data: the machine converts an entry to a value
    /// each time `const` loads it or an instruction reads it as an
    /// operand.
    pub consts: Vec<Datum>,
    /// Global-name table.
    pub globals: Vec<Symbol>,
    /// Sub-templates for nested lambdas.
    pub templates: Vec<Arc<Template>>,
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#<template {} arity={}>", self.name, self.arity)
    }
}

impl PartialEq for Template {
    /// Structural equality on code and tables — used by the fusion
    /// equivalence tests (compiled residual source vs. directly generated
    /// object code).
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.nfree == other.nfree
            && self.code == other.code
            && self.consts == other.consts
            && self.globals == other.globals
            && self.templates == other.templates
    }
}

impl Template {
    /// Total instruction count including sub-templates.
    pub fn code_size(&self) -> usize {
        self.code.len() + self.templates.iter().map(|t| t.code_size()).sum::<usize>()
    }

    /// Renders a human-readable listing of this template and its children.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        self.dis_into(&mut out, 0);
        out
    }

    fn dis_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        out.push_str(&format!(
            "{pad}template {} (arity {}, {} free)\n",
            self.name, self.arity, self.nfree
        ));
        for (i, ins) in self.code.iter().enumerate() {
            let text = match ins {
                Instr::Const(k) => format!("const {}", shown(self.consts.get(usize::from(*k)), *k)),
                Instr::Global(g) => {
                    format!("global {}", shown(self.globals.get(usize::from(*g)), *g))
                }
                Instr::Local(i) => format!("local {i}"),
                Instr::Captured(i) => format!("captured {i}"),
                Instr::Push => "push".into(),
                Instr::Bind => "bind".into(),
                Instr::Trim(n) => format!("trim {n}"),
                Instr::MakeClosure { template, nfree } => {
                    let sub = self.templates.get(usize::from(*template));
                    let name = shown(sub.map(|t| t.name), *template);
                    format!("make-closure {name} ({nfree} free)")
                }
                Instr::Call { nargs } => format!("call {nargs}"),
                Instr::TailCall { nargs } => format!("tail-call {nargs}"),
                Instr::Return => "return".into(),
                Instr::Jump(t) => format!("jump {t}"),
                Instr::JumpIfFalse(t) => format!("jump-if-false {t}"),
                Instr::Prim { prim, nargs } => format!("prim {prim}/{nargs}"),
                Instr::PrimLocal { prim, a } => format!("prim {prim}/1 local {a}"),
                Instr::PrimLocalLocal { prim, a, b } => {
                    format!("prim {prim}/2 local {a}, local {b}")
                }
                Instr::PrimLocalConst { prim, a, k } => {
                    format!(
                        "prim {prim}/2 local {a}, const {}",
                        shown(self.consts.get(usize::from(*k)), *k)
                    )
                }
                Instr::PrimLocalBind { prim, a } => format!("prim {prim}/1 local {a} → bind"),
                Instr::PrimLocalLocalBind { prim, a, b } => {
                    format!("prim {prim}/2 local {a}, local {b} → bind")
                }
                Instr::PrimLocalConstBind { prim, a, k } => format!(
                    "prim {prim}/2 local {a}, const {} → bind",
                    shown(self.consts.get(usize::from(*k)), *k)
                ),
                Instr::JumpIfFalseLocal { slot, target } => {
                    format!("jump-if-false local {slot} → {target}")
                }
            };
            out.push_str(&format!("{pad}  {i:4}  {text}\n"));
        }
        for t in &self.templates {
            t.dis_into(out, indent + 1);
        }
    }
}

/// Entry `i` of a template table, as the disassembler shows it. Loading
/// does not check the indices an image's code uses (the machine does, as
/// it runs), so a damaged one shows as `#<bad index i>`.
fn shown(entry: Option<impl fmt::Display>, i: u16) -> String {
    match entry {
        Some(x) => x.to_string(),
        None => format!("#<bad index {i}>"),
    }
}

/// A closure: a template plus the values of its free variables.
pub struct Closure {
    /// The code.
    pub template: Arc<Template>,
    /// Captured values (flat closure representation).
    pub captured: Vec<Value>,
}

/// Procedure representation of the VM.
#[derive(Clone)]
pub struct Proc(pub Arc<Closure>);

impl ProcRepr for Proc {
    fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    fn describe(&self) -> String {
        self.0.template.name.to_string()
    }
}

/// VM values.
pub type Value = two4one_syntax::value::Value<Proc>;

/// A linked program: named templates plus an entry point.
///
/// Loading an image into a [`Machine`] instantiates every top-level
/// template as a zero-capture closure in the global table.
#[derive(Debug)]
pub struct Image {
    /// Top-level templates, in definition order (entry first for residual
    /// programs).
    pub templates: Vec<(Symbol, Arc<Template>)>,
    /// Name of the entry definition.
    pub entry: Symbol,
}

impl Image {
    /// Looks up a template by name.
    pub fn template(&self, name: &Symbol) -> Option<&Arc<Template>> {
        self.templates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Total code size in instructions.
    pub fn code_size(&self) -> usize {
        self.templates.iter().map(|(_, t)| t.code_size()).sum()
    }

    /// Disassembles the whole image.
    pub fn disassemble(&self) -> String {
        let mut s = String::new();
        for (name, t) in &self.templates {
            s.push_str(&format!(";; {name}\n"));
            s.push_str(&t.disassemble());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_debug_and_eq() {
        let t1 = Template {
            name: Symbol::new("f"),
            arity: 1,
            nfree: 0,
            code: vec![Instr::Local(0), Instr::Return],
            consts: vec![],
            globals: vec![],
            templates: vec![],
        };
        let t2 = Template {
            name: Symbol::new("other-name"),
            arity: 1,
            nfree: 0,
            code: vec![Instr::Local(0), Instr::Return],
            consts: vec![],
            globals: vec![],
            templates: vec![],
        };
        // Equality ignores names (gensym counters may differ).
        assert_eq!(t1, t2);
        assert!(format!("{t1:?}").contains("template"));
        assert_eq!(t1.code_size(), 2);
        assert!(t1.disassemble().contains("local 0"));
    }

    #[test]
    fn out_of_range_table_indices_disassemble() {
        // Indices past the tables, as in a damaged object file: the
        // listing names them instead of panicking.
        let t = Template {
            name: Symbol::new("f"),
            arity: 1,
            nfree: 0,
            code: vec![
                Instr::Const(3),
                Instr::Global(4),
                Instr::MakeClosure {
                    template: 5,
                    nfree: 0,
                },
                Instr::PrimLocalConst {
                    prim: Prim::Add,
                    a: 0,
                    k: 6,
                },
                Instr::PrimLocalConstBind {
                    prim: Prim::Add,
                    a: 0,
                    k: 7,
                },
            ],
            consts: vec![],
            globals: vec![],
            templates: vec![],
        };
        let dis = t.disassemble();
        for i in 3..=7 {
            assert!(dis.contains(&format!("#<bad index {i}>")), "{dis}");
        }
    }
}
