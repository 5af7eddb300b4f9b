//! The byte-code interpreter.

use crate::{Closure, Image, Instr, Proc, Template, Value, OP_NAMES};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use two4one_syntax::limits::{Deadline, LimitExceeded, Limits};
use two4one_syntax::symbol::Symbol;
use two4one_syntax::value::{apply_prim, write_string, PrimError};

/// Runtime errors of the VM.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Reference to an undefined global.
    UnknownGlobal(Symbol),
    /// Application of a non-procedure.
    NotAProcedure(String),
    /// Wrong number of arguments.
    BadArity {
        /// Callee name.
        name: Symbol,
        /// Expected parameter count.
        expected: u8,
        /// Actual argument count.
        got: u8,
    },
    /// A primitive failed.
    Prim(PrimError),
    /// Fuel limit reached.
    FuelExhausted,
    /// A resource limit (wall-clock deadline) was hit.
    Limit(LimitExceeded),
    /// Internal invariant violation (a compiler or VM bug, or a damaged
    /// image that slipped past loading).
    Internal(&'static str),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnknownGlobal(g) => write!(f, "undefined global `{g}`"),
            VmError::NotAProcedure(v) => write!(f, "attempt to apply non-procedure {v}"),
            VmError::BadArity {
                name,
                expected,
                got,
            } => write!(f, "`{name}` expects {expected} argument(s), got {got}"),
            VmError::Prim(e) => write!(f, "{e}"),
            VmError::FuelExhausted => write!(f, "fuel exhausted"),
            VmError::Limit(l) => write!(f, "{l}"),
            VmError::Internal(m) => write!(f, "internal VM error: {m}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Prim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PrimError> for VmError {
    fn from(e: PrimError) -> Self {
        VmError::Prim(e)
    }
}

struct Frame {
    closure: Arc<Closure>,
    pc: usize,
    locals: Vec<Value>,
    stack_base: usize,
}

/// The `t4o_vm_dispatch_total{op=...}` counter family, one series per
/// opcode, resolved once per process. The dispatch loop increments a plain
/// per-machine array; [`Machine::flush_profile`] publishes the deltas here,
/// so the registry lock is touched at the amortized stride, never
/// per-instruction.
fn dispatch_counters() -> &'static [two4one_obs::Counter; Instr::N_OPS] {
    static COUNTERS: OnceLock<[two4one_obs::Counter; Instr::N_OPS]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        std::array::from_fn(|i| {
            two4one_obs::global().counter_with("t4o_vm_dispatch_total", Some(("op", OP_NAMES[i])))
        })
    })
}

/// Forces registration of the per-opcode dispatch counter family so an
/// exposition page shows every series, zero-valued, before any code runs.
pub fn init_dispatch_metrics() {
    let _ = dispatch_counters();
}

/// Shared execution counters for one image, in the mijit style
/// (`Statistics { fetches, retires, visits }`): `fetches` counts
/// instructions dispatched, `retires` counts frames returned, `visits`
/// counts call entries. The machine accumulates plain `u64` deltas and
/// flushes them into these atomics at the existing 4096-instruction
/// deadline stride and at run end, so a profile reader (the tiered-serve
/// promotion worker) sees fresh counts without ever stopping execution
/// and the dispatch loop pays no per-instruction atomic traffic.
#[derive(Debug, Default)]
pub struct ExecProfile {
    fetches: AtomicU64,
    retires: AtomicU64,
    visits: AtomicU64,
}

impl ExecProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        ExecProfile::default()
    }

    /// Instructions dispatched so far.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Frames returned so far.
    pub fn retires(&self) -> u64 {
        self.retires.load(Ordering::Relaxed)
    }

    /// Call entries (non-tail and tail) so far.
    pub fn visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    fn add(&self, fetches: u64, retires: u64, visits: u64) {
        if fetches > 0 {
            self.fetches.fetch_add(fetches, Ordering::Relaxed);
        }
        if retires > 0 {
            self.retires.fetch_add(retires, Ordering::Relaxed);
        }
        if visits > 0 {
            self.visits.fetch_add(visits, Ordering::Relaxed);
        }
    }
}

/// The virtual machine: global table, evaluation stack, frame stack, and
/// the `val` accumulator.
pub struct Machine {
    globals: HashMap<Symbol, Value>,
    stack: Vec<Value>,
    frames: Vec<Frame>,
    val: Value,
    /// Output of `display`/`write`/`newline`.
    pub output: String,
    fuel: Option<u64>,
    deadline: Deadline,
    ticks: u64,
    profile: Option<Arc<ExecProfile>>,
    pf_fetches: u64,
    pf_retires: u64,
    pf_visits: u64,
    /// Per-opcode dispatch deltas, indexed by [`Instr::opcode`]; published
    /// to the `t4o_vm_dispatch_total` family at the profile-flush stride.
    op_counts: [u64; Instr::N_OPS],
}

impl Default for Machine {
    fn default() -> Self {
        Machine::empty()
    }
}

impl Machine {
    /// A machine with an empty global table.
    pub fn empty() -> Self {
        Machine {
            globals: HashMap::new(),
            stack: Vec::new(),
            frames: Vec::new(),
            val: Value::Unspec,
            output: String::new(),
            fuel: None,
            deadline: Deadline::unlimited(),
            ticks: 0,
            profile: None,
            pf_fetches: 0,
            pf_retires: 0,
            pf_visits: 0,
            op_counts: [0; Instr::N_OPS],
        }
    }

    /// Loads an image: every top-level template becomes a zero-capture
    /// closure bound in the global table.
    pub fn load(image: &Image) -> Self {
        let mut m = Machine::empty();
        for (name, t) in &image.templates {
            m.define_template(*name, t.clone());
        }
        m
    }

    /// Limits execution to `fuel` instructions.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Applies the step fuel and wall-clock budget of `limits`. The
    /// deadline starts now; the clock is consulted every 4096 instructions.
    pub fn with_limits(mut self, limits: &Limits) -> Self {
        if let Some(f) = limits.step_fuel {
            self.fuel = Some(f);
        }
        self.deadline = limits.deadline();
        self
    }

    /// Attaches shared execution counters: every run of this machine
    /// accumulates into `profile` (at the amortized stride, never
    /// per-instruction).
    pub fn with_profile(mut self, profile: Arc<ExecProfile>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Defines a global variable.
    pub fn define(&mut self, name: Symbol, value: Value) {
        self.globals.insert(name, value);
    }

    /// Defines a global procedure from a top-level (zero-capture) template.
    pub fn define_template(&mut self, name: Symbol, t: Arc<Template>) {
        debug_assert_eq!(t.nfree, 0, "top-level template must capture nothing");
        let clo = Value::Proc(Proc(Arc::new(Closure {
            template: t,
            captured: Vec::new(),
        })));
        self.define(name, clo);
    }

    /// Reads a global.
    pub fn global(&self, name: &Symbol) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Calls the global procedure `name` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any runtime fault.
    pub fn call_global(&mut self, name: &Symbol, args: Vec<Value>) -> Result<Value, VmError> {
        let _span = two4one_obs::Span::enter(two4one_obs::Phase::VmExec);
        let f = self
            .globals
            .get(name)
            .cloned()
            .ok_or(VmError::UnknownGlobal(*name))?;
        self.call_value(f, args)
    }

    /// Calls an arbitrary procedure value.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any runtime fault.
    pub fn call_value(&mut self, f: Value, args: Vec<Value>) -> Result<Value, VmError> {
        // Catch an already-expired deadline before doing any work (the
        // in-loop check is amortized and may lag by a few thousand steps).
        self.deadline.check().map_err(VmError::Limit)?;
        let depth = self.frames.len();
        let base = self.stack.len();
        self.stack.extend(args);
        self.val = f;
        let nargs = u8::try_from(self.stack.len() - base)
            .map_err(|_| VmError::Internal("too many arguments"))?;
        self.enter_call(nargs, false)?;
        let result = self.run(depth);
        self.flush_profile();
        if result.is_err() {
            // Unwind so the machine stays usable after an error.
            self.frames.truncate(depth);
            self.stack.truncate(base);
        }
        result
    }

    /// Publishes the locally accumulated execution counts into the shared
    /// profile (if one is attached) and zeroes the deltas.
    fn flush_profile(&mut self) {
        if let Some(p) = &self.profile {
            p.add(self.pf_fetches, self.pf_retires, self.pf_visits);
        }
        self.pf_fetches = 0;
        self.pf_retires = 0;
        self.pf_visits = 0;
        if self.op_counts.iter().any(|c| *c > 0) {
            let counters = dispatch_counters();
            for (i, c) in self.op_counts.iter_mut().enumerate() {
                if *c > 0 {
                    counters[i].add(*c);
                    *c = 0;
                }
            }
        }
    }

    fn tick(&mut self) -> Result<(), VmError> {
        if let Some(f) = &mut self.fuel {
            if *f == 0 {
                return Err(VmError::FuelExhausted);
            }
            *f -= 1;
        }
        self.deadline
            .check_every(&mut self.ticks, 4096)
            .map_err(VmError::Limit)?;
        // Piggyback the profile flush on the same amortized stride, so
        // counters stay readable mid-run without stopping execution.
        if self.profile.is_some() && self.ticks.is_multiple_of(4096) {
            self.flush_profile();
        }
        Ok(())
    }

    /// The top `n` stack slots, detached — typed error instead of an
    /// underflow panic on malformed code.
    fn pop_args(&mut self, n: usize) -> Result<Vec<Value>, VmError> {
        let at = self
            .stack
            .len()
            .checked_sub(n)
            .ok_or(VmError::Internal("operand stack underflow"))?;
        Ok(self.stack.split_off(at))
    }

    /// Begins a call: `val` holds the procedure, the top `nargs` stack
    /// slots hold the arguments.
    fn enter_call(&mut self, nargs: u8, tail: bool) -> Result<(), VmError> {
        let proc = match std::mem::replace(&mut self.val, Value::Unspec) {
            Value::Proc(p) => p,
            other => return Err(VmError::NotAProcedure(write_string(&other))),
        };
        let t = &proc.0.template;
        if t.arity != nargs {
            return Err(VmError::BadArity {
                name: t.name,
                expected: t.arity,
                got: nargs,
            });
        }
        self.pf_visits += 1;
        let locals: Vec<Value> = self.pop_args(nargs as usize)?;
        let frame = Frame {
            closure: proc.0,
            pc: 0,
            locals,
            stack_base: self.stack.len(),
        };
        if tail {
            let cur = self
                .frames
                .last_mut()
                .ok_or(VmError::Internal("tail call without frame"))?;
            debug_assert_eq!(
                frame.stack_base, cur.stack_base,
                "unbalanced stack at tail call"
            );
            *cur = frame;
        } else {
            self.frames.push(frame);
        }
        Ok(())
    }

    /// The main loop. Returns when the frame stack drops back to `floor`.
    ///
    /// Dispatch is organized as two nested loops so the straight-line hot
    /// path never touches the frame stack: the outer loop pulls the top
    /// frame's hot state — the closure `Arc`, the program counter, and
    /// the locals vector — into locals of `run` itself, and the inner
    /// loop fetches from a cached `&[Instr]` slice. Only control
    /// transfers (call, tail call, return) write state back and re-enter
    /// the outer loop; everything else runs with no `frames.last_mut()`
    /// per instruction. An error may leave the *top* frame's fields stale
    /// (its locals are taken for the duration of the inner loop), which
    /// is harmless: every error unwinds past it — [`Machine::call_value`]
    /// truncates the frame stack above the floor on error, and frames
    /// below the top had their state written back at their call sites.
    fn run(&mut self, floor: usize) -> Result<Value, VmError> {
        /// What broke dispatch out of the current frame's inner loop.
        enum Ctl {
            Call { nargs: u8, tail: bool },
            Return,
        }
        loop {
            // Enter (or resume) the top frame.
            let (closure, mut pc, mut locals) = {
                let f = self
                    .frames
                    .last_mut()
                    .ok_or(VmError::Internal("no frame"))?;
                (f.closure.clone(), f.pc, std::mem::take(&mut f.locals))
            };
            let code: &[Instr] = &closure.template.code;
            let ctl = loop {
                self.tick()?;
                let instr = *code.get(pc).ok_or(VmError::Internal("pc out of range"))?;
                pc += 1;
                self.pf_fetches += 1;
                self.op_counts[instr.opcode()] += 1;
                match instr {
                    Instr::Const(i) => {
                        let d = closure
                            .template
                            .consts
                            .get(i as usize)
                            .ok_or(VmError::Internal("constant index out of range"))?;
                        self.val = Value::from(d);
                    }
                    Instr::Global(i) => {
                        let name = closure
                            .template
                            .globals
                            .get(i as usize)
                            .cloned()
                            .ok_or(VmError::Internal("global index out of range"))?;
                        self.val = self
                            .globals
                            .get(&name)
                            .cloned()
                            .ok_or(VmError::UnknownGlobal(name))?;
                    }
                    Instr::Local(i) => {
                        self.val = locals
                            .get(i as usize)
                            .cloned()
                            .ok_or(VmError::Internal("local index out of range"))?;
                    }
                    Instr::Captured(i) => {
                        self.val = closure
                            .captured
                            .get(i as usize)
                            .cloned()
                            .ok_or(VmError::Internal("capture index out of range"))?;
                    }
                    Instr::Push => {
                        self.stack.push(self.val.clone());
                    }
                    Instr::Bind => {
                        locals.push(self.val.clone());
                    }
                    Instr::Trim(n) => {
                        locals.truncate(n as usize);
                    }
                    Instr::MakeClosure { template, nfree } => {
                        let t = closure
                            .template
                            .templates
                            .get(template as usize)
                            .cloned()
                            .ok_or(VmError::Internal("template index out of range"))?;
                        if t.nfree != nfree {
                            debug_assert_eq!(t.nfree, nfree, "closure capture count mismatch");
                            return Err(VmError::Internal("closure capture count mismatch"));
                        }
                        let captured = self.pop_args(nfree as usize)?;
                        self.val = Value::Proc(Proc(Arc::new(Closure {
                            template: t,
                            captured,
                        })));
                    }
                    Instr::Call { nargs } => break Ctl::Call { nargs, tail: false },
                    Instr::TailCall { nargs } => break Ctl::Call { nargs, tail: true },
                    Instr::Return => break Ctl::Return,
                    Instr::Jump(t) => {
                        pc = t as usize;
                    }
                    Instr::JumpIfFalse(t) => {
                        if !self.val.is_truthy() {
                            pc = t as usize;
                        }
                    }
                    Instr::Prim { prim, nargs } => {
                        let args = self.pop_args(nargs as usize)?;
                        self.val = apply_prim(prim, &args, &mut self.output)?;
                    }
                }
            };
            match ctl {
                Ctl::Call { nargs, tail } => {
                    {
                        let f = self
                            .frames
                            .last_mut()
                            .ok_or(VmError::Internal("no frame"))?;
                        f.pc = pc;
                        f.locals = locals;
                    }
                    self.enter_call(nargs, tail)?;
                }
                Ctl::Return => {
                    self.pf_retires += 1;
                    let f = self.frames.pop().ok_or(VmError::Internal("no frame"))?;
                    debug_assert_eq!(
                        self.stack.len(),
                        f.stack_base,
                        "unbalanced stack at return from {}",
                        f.closure.template.name
                    );
                    if self.frames.len() == floor {
                        return Ok(std::mem::replace(&mut self.val, Value::Unspec));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use two4one_syntax::datum::Datum;
    use two4one_syntax::prim::Prim;

    fn machine_with(name: &str, t: Arc<Template>) -> Machine {
        let mut m = Machine::empty();
        m.define_template(Symbol::new(name), t);
        m
    }

    #[test]
    fn constants_and_return() {
        let mut a = Asm::new(Symbol::new("k"), 0, 0);
        let i = a.const_index(&Datum::Int(42)).unwrap();
        a.emit(Instr::Const(i));
        a.emit(Instr::Return);
        let mut m = machine_with("k", a.finish().unwrap());
        let v = m.call_global(&Symbol::new("k"), vec![]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(42)));
    }

    #[test]
    fn locals_and_prims() {
        // (define (add1 x) (+ x 1))
        let mut a = Asm::new(Symbol::new("add1"), 1, 0);
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(one));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Add,
            nargs: 2,
        });
        a.emit(Instr::Return);
        let mut m = machine_with("add1", a.finish().unwrap());
        let v = m
            .call_global(&Symbol::new("add1"), vec![Value::Int(41)])
            .unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(42)));
    }

    #[test]
    fn conditional_with_labels() {
        // (define (f b) (if b 1 2))
        let mut a = Asm::new(Symbol::new("f"), 1, 0);
        let alt = a.make_label();
        a.emit(Instr::Local(0));
        a.emit_jump_if_false(alt);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(one));
        a.emit(Instr::Return);
        a.attach_label(alt);
        let two = a.const_index(&Datum::Int(2)).unwrap();
        a.emit(Instr::Const(two));
        a.emit(Instr::Return);
        let mut m = machine_with("f", a.finish().unwrap());
        assert_eq!(
            m.call_global(&Symbol::new("f"), vec![Value::Bool(true)])
                .unwrap()
                .to_datum(),
            Some(Datum::Int(1))
        );
        assert_eq!(
            m.call_global(&Symbol::new("f"), vec![Value::Bool(false)])
                .unwrap()
                .to_datum(),
            Some(Datum::Int(2))
        );
    }

    #[test]
    fn closures_capture_values() {
        // inner template: (lambda (x) (+ x n))  with n captured
        let mut inner = Asm::new(Symbol::new("inner"), 1, 1);
        inner.emit(Instr::Local(0));
        inner.emit(Instr::Push);
        inner.emit(Instr::Captured(0));
        inner.emit(Instr::Push);
        inner.emit(Instr::Prim {
            prim: Prim::Add,
            nargs: 2,
        });
        inner.emit(Instr::Return);
        let inner_t = inner.finish().unwrap();

        // (define (adder n) (lambda (x) (+ x n)))
        let mut outer = Asm::new(Symbol::new("adder"), 1, 0);
        let ti = outer.template_index(inner_t).unwrap();
        outer.emit(Instr::Local(0));
        outer.emit(Instr::Push);
        outer.emit(Instr::MakeClosure {
            template: ti,
            nfree: 1,
        });
        outer.emit(Instr::Return);
        let mut m = machine_with("adder", outer.finish().unwrap());
        let add3 = m
            .call_global(&Symbol::new("adder"), vec![Value::Int(3)])
            .unwrap();
        let v = m.call_value(add3, vec![Value::Int(4)]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(7)));
    }

    #[test]
    fn tail_calls_run_in_constant_frames() {
        // (define (loop i) (if (= i 0) 'done (loop (- i 1))))
        let mut a = Asm::new(Symbol::new("loop"), 1, 0);
        let alt = a.make_label();
        let zero = a.const_index(&Datum::Int(0)).unwrap();
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        a.emit(Instr::Const(zero));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::NumEq,
            nargs: 2,
        });
        a.emit_jump_if_false(alt);
        let done = a.const_index(&Datum::sym("done")).unwrap();
        a.emit(Instr::Const(done));
        a.emit(Instr::Return);
        a.attach_label(alt);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        a.emit(Instr::Const(one));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Sub,
            nargs: 2,
        });
        a.emit(Instr::Push);
        let g = a.global_index(&Symbol::new("loop")).unwrap();
        a.emit(Instr::Global(g));
        a.emit(Instr::TailCall { nargs: 1 });
        let mut m = machine_with("loop", a.finish().unwrap());
        let v = m
            .call_global(&Symbol::new("loop"), vec![Value::Int(1_000_000)])
            .unwrap();
        assert_eq!(v.to_datum(), Some(Datum::sym("done")));
    }

    #[test]
    fn errors_unwind_cleanly() {
        let mut a = Asm::new(Symbol::new("boom"), 0, 0);
        let k = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(k));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Car,
            nargs: 1,
        });
        a.emit(Instr::Return);
        let mut m = machine_with("boom", a.finish().unwrap());
        let e = m.call_global(&Symbol::new("boom"), vec![]).unwrap_err();
        assert!(matches!(e, VmError::Prim(_)));
        // Machine remains usable.
        let e2 = m.call_global(&Symbol::new("boom"), vec![]).unwrap_err();
        assert!(matches!(e2, VmError::Prim(_)));
    }

    #[test]
    fn arity_and_unknown_global_errors() {
        let mut a = Asm::new(Symbol::new("id"), 1, 0);
        a.emit(Instr::Local(0));
        a.emit(Instr::Return);
        let mut m = machine_with("id", a.finish().unwrap());
        assert!(matches!(
            m.call_global(&Symbol::new("id"), vec![]).unwrap_err(),
            VmError::BadArity { .. }
        ));
        assert!(matches!(
            m.call_global(&Symbol::new("zzz"), vec![]).unwrap_err(),
            VmError::UnknownGlobal(_)
        ));
        m.define(Symbol::new("n"), Value::Int(5));
        let e = m.call_global(&Symbol::new("n"), vec![]).unwrap_err();
        assert!(matches!(e, VmError::NotAProcedure(_)));
    }

    #[test]
    fn trim_truncates_locals() {
        // f(x): bind two extra locals, trim back to 1, then read local 0.
        let mut a = Asm::new(Symbol::new("f"), 1, 0);
        let k = a.const_index(&Datum::Int(7)).unwrap();
        a.emit(Instr::Const(k));
        a.emit(Instr::Bind);
        a.emit(Instr::Const(k));
        a.emit(Instr::Bind);
        a.emit(Instr::Trim(1));
        a.emit(Instr::Local(0));
        a.emit(Instr::Return);
        let mut m = machine_with("f", a.finish().unwrap());
        let v = m
            .call_global(&Symbol::new("f"), vec![Value::Int(3)])
            .unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(3)));
    }

    #[test]
    fn exec_profile_counts_fetches_retires_and_visits() {
        // (define (add1 x) (+ x 1)) — 5 instructions fetched per call
        // (local-ish pair unfused here), 1 visit, 1 retire.
        let mut a = Asm::new(Symbol::new("add1"), 1, 0);
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(one));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Add,
            nargs: 2,
        });
        a.emit(Instr::Return);
        let profile = Arc::new(ExecProfile::new());
        let mut m = machine_with("add1", a.finish().unwrap()).with_profile(profile.clone());
        for i in 0..3 {
            let v = m
                .call_global(&Symbol::new("add1"), vec![Value::Int(i)])
                .unwrap();
            assert_eq!(v.to_datum(), Some(Datum::Int(i + 1)));
        }
        // Flushed at run end: every call's instructions are visible.
        assert_eq!(profile.fetches(), 3 * 6);
        assert_eq!(profile.visits(), 3);
        assert_eq!(profile.retires(), 3);
    }

    #[test]
    fn exec_profile_flushes_mid_run_at_the_stride() {
        // A long self-tail-call loop: the profile must show progress
        // while well below the run's total, i.e. flushes happen at the
        // amortized stride, not only at run end. We can't observe
        // mid-run from one thread, but we can check the stride math:
        // after the run, fetches equals instructions executed exactly.
        let mut a = Asm::new(Symbol::new("spin"), 1, 0);
        let alt = a.make_label();
        let zero = a.const_index(&Datum::Int(0)).unwrap();
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        a.emit(Instr::Const(zero));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::NumEq,
            nargs: 2,
        });
        a.emit_jump_if_false(alt);
        a.emit(Instr::Const(zero));
        a.emit(Instr::Return);
        a.attach_label(alt);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        a.emit(Instr::Const(one));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Sub,
            nargs: 2,
        });
        a.emit(Instr::Push);
        let g = a.global_index(&Symbol::new("spin")).unwrap();
        a.emit(Instr::Global(g));
        a.emit(Instr::TailCall { nargs: 1 });
        let profile = Arc::new(ExecProfile::new());
        let mut m = machine_with("spin", a.finish().unwrap()).with_profile(profile.clone());
        let n = 10_000i64;
        m.call_global(&Symbol::new("spin"), vec![Value::Int(n)])
            .unwrap();
        // n tail iterations of 14 instructions + the final 8-instruction
        // exit path; every visit is a call entry (initial + n tail calls).
        assert_eq!(profile.fetches(), 14 * n as u64 + 8);
        assert_eq!(profile.visits(), n as u64 + 1);
        assert_eq!(profile.retires(), 1);
    }

    #[test]
    fn fuel_limits_execution() {
        let mut a = Asm::new(Symbol::new("spin"), 0, 0);
        let top = a.make_label();
        a.attach_label(top);
        let g = a.global_index(&Symbol::new("spin")).unwrap();
        a.emit(Instr::Global(g));
        a.emit(Instr::TailCall { nargs: 0 });
        let mut m = machine_with("spin", a.finish().unwrap()).with_fuel(10_000);
        let e = m.call_global(&Symbol::new("spin"), vec![]).unwrap_err();
        assert_eq!(e, VmError::FuelExhausted);
    }
}
