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

/// A suspended caller: what [`Machine::run`] needs to resume it once its
/// callee returns. The running frame is not on the frame stack: `run`
/// holds its closure (by move), program counter and bases itself.
struct Frame {
    closure: Arc<Closure>,
    pc: usize,
    /// Index of the frame's local slot 0 in [`Machine::locals`].
    base: usize,
    /// Operand-stack height when the frame was entered.
    stack_base: usize,
}

/// Instructions the dispatch loop runs between two visits to its slow
/// path, [`Machine::refill`] (deadline check, profile flush, fuel issue).
const STRIDE: u64 = 4096;

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
/// flushes them into these atomics every 4096 instructions and at run
/// end, so a profile reader (the tiered-serve promotion worker) sees
/// fresh counts without ever stopping execution and the dispatch loop
/// pays no per-instruction atomic traffic.
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

/// The virtual machine: global table, operand stack, locals stack, frame
/// stack, and the `val` accumulator.
pub struct Machine {
    globals: HashMap<Symbol, Value>,
    stack: Vec<Value>,
    /// The locals of every active frame, the running frame's on top:
    /// arguments first, then `let` bindings. A frame owns the slots from
    /// its base up.
    locals: Vec<Value>,
    frames: Vec<Frame>,
    val: Value,
    /// Output of `display`/`write`/`newline`.
    pub output: String,
    /// Step fuel not yet issued to `countdown` (`None`: unlimited). The
    /// fuel left is `fuel + countdown`.
    fuel: Option<u64>,
    /// Instructions left before the dispatch loop's next
    /// [`Machine::refill`].
    countdown: u64,
    deadline: Deadline,
    profile: Option<Arc<ExecProfile>>,
    pf_retires: u64,
    pf_visits: u64,
    /// Per-opcode dispatch deltas, indexed by [`Instr::opcode`]; published
    /// to the `t4o_vm_dispatch_total` family, and summed into the
    /// profile's fetches, at the flush stride.
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
            locals: Vec::new(),
            frames: Vec::new(),
            val: Value::Unspec,
            output: String::new(),
            fuel: None,
            countdown: 0,
            deadline: Deadline::unlimited(),
            profile: None,
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

    /// Limits execution to `fuel` more instructions.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        // Instructions already issued would otherwise run on top.
        self.countdown = 0;
        self
    }

    /// Applies the step fuel and wall-clock budget of `limits`. The
    /// deadline starts now; the clock is consulted every 4096 instructions.
    pub fn with_limits(mut self, limits: &Limits) -> Self {
        if let Some(f) = limits.step_fuel {
            self = self.with_fuel(f);
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
        let (depth, height, base) = (self.frames.len(), self.stack.len(), self.locals.len());
        let result = u8::try_from(args.len())
            .map_err(|_| VmError::Internal("too many arguments"))
            .and_then(|nargs| callee(f, nargs))
            .and_then(|closure| {
                self.pf_visits += 1;
                self.locals.extend(args);
                self.run(closure, depth, base)
            });
        self.flush_profile();
        if result.is_err() {
            // Unwind, whether the call failed at entry or while running,
            // so the machine stays usable after an error.
            self.frames.truncate(depth);
            self.stack.truncate(height);
            self.locals.truncate(base);
        }
        result
    }

    /// Publishes the locally accumulated execution counts into the shared
    /// profile (if one is attached) and zeroes the deltas.
    fn flush_profile(&mut self) {
        if let Some(p) = &self.profile {
            p.add(self.op_counts.iter().sum(), self.pf_retires, self.pf_visits);
        }
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

    /// The dispatch loop's slow path, taken when `countdown` reaches zero:
    /// issues the next chunk of at most [`STRIDE`] instructions from the
    /// step fuel, consults the deadline, and flushes the profile, so that
    /// counters stay readable mid-run without stopping execution. Fuel
    /// stays exact: a chunk never exceeds the fuel left, and with none
    /// left the next instruction fails.
    fn refill(&mut self) -> Result<(), VmError> {
        let chunk = self.fuel.map_or(STRIDE, |f| f.min(STRIDE));
        if chunk == 0 {
            return Err(VmError::FuelExhausted);
        }
        self.deadline.check().map_err(VmError::Limit)?;
        if let Some(f) = &mut self.fuel {
            *f -= chunk;
        }
        self.countdown = chunk;
        if self.profile.is_some() {
            self.flush_profile();
        }
        Ok(())
    }

    /// Where the top `n` operand-stack slots start — a typed error
    /// instead of an underflow panic on malformed code.
    fn args_at(&self, n: usize) -> Result<usize, VmError> {
        self.stack
            .len()
            .checked_sub(n)
            .ok_or(VmError::Internal("operand stack underflow"))
    }

    /// The main loop: runs `closure`, whose locals start at `base`, until
    /// the frame stack is back at `floor` and that frame returns.
    ///
    /// Dispatch is organized as two nested loops so the straight-line hot
    /// path never touches the frame stack: the running frame's closure,
    /// program counter and bases live in locals of `run` itself, and the
    /// inner loop fetches from a cached `&[Instr]` slice. Only control
    /// transfers (call, tail call, return) save or restore a [`Frame`]
    /// and re-enter the outer loop. Nothing in the loop allocates except
    /// `make-closure`, primitives that build data, and growth of the
    /// three stacks: arguments move from the operand stack to the locals
    /// stack, a tail call reuses its frame's region of it, and a return
    /// truncates it. `push` and `bind` move `val`, which the instruction
    /// set leaves dead after them (see [`Instr::Push`]), and an in-place
    /// primitive or branch borrows its local operands where they are. An
    /// error returns at once, whatever the stacks hold;
    /// [`Machine::call_value`] truncates them back to where the call
    /// began.
    fn run(
        &mut self,
        mut closure: Arc<Closure>,
        floor: usize,
        mut base: usize,
    ) -> Result<Value, VmError> {
        /// What broke dispatch out of the current frame's inner loop.
        enum Ctl {
            Call { nargs: u8, tail: bool },
            Return,
        }
        let mut pc = 0;
        let mut stack_base = self.stack.len();
        loop {
            let code: &[Instr] = &closure.template.code;
            let ctl = loop {
                if self.countdown == 0 {
                    self.refill()?;
                }
                self.countdown -= 1;
                let instr = *code.get(pc).ok_or(VmError::Internal("pc out of range"))?;
                pc += 1;
                self.op_counts[instr.opcode()] += 1;
                match instr {
                    Instr::Const(i) => {
                        self.val = constant(&closure, i)?;
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
                        self.val = local(&self.locals, base, i)?.clone();
                    }
                    Instr::Captured(i) => {
                        self.val = closure
                            .captured
                            .get(i as usize)
                            .cloned()
                            .ok_or(VmError::Internal("capture index out of range"))?;
                    }
                    Instr::Push => {
                        let v = std::mem::replace(&mut self.val, Value::Unspec);
                        self.stack.push(v);
                    }
                    Instr::Bind => {
                        let v = std::mem::replace(&mut self.val, Value::Unspec);
                        self.locals.push(v);
                    }
                    Instr::Trim(n) => {
                        self.locals.truncate(base + n as usize);
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
                        let at = self.args_at(nfree as usize)?;
                        let captured = self.stack.split_off(at);
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
                        let at = self.args_at(nargs as usize)?;
                        self.val = apply_prim(prim, &self.stack[at..], &mut self.output)?;
                        self.stack.truncate(at);
                    }
                    Instr::PrimLocal { prim, a } => {
                        let a = local(&self.locals, base, a)?;
                        self.val = apply_prim(prim, &[a], &mut self.output)?;
                    }
                    Instr::PrimLocalLocal { prim, a, b } => {
                        let a = local(&self.locals, base, a)?;
                        let b = local(&self.locals, base, b)?;
                        self.val = apply_prim(prim, &[a, b], &mut self.output)?;
                    }
                    Instr::PrimLocalConst { prim, a, k } => {
                        let a = local(&self.locals, base, a)?;
                        let k = constant(&closure, k)?;
                        self.val = apply_prim(prim, &[a, &k], &mut self.output)?;
                    }
                    Instr::PrimLocalBind { prim, a } => {
                        let a = local(&self.locals, base, a)?;
                        let v = apply_prim(prim, &[a], &mut self.output)?;
                        self.locals.push(v);
                    }
                    Instr::PrimLocalLocalBind { prim, a, b } => {
                        let a = local(&self.locals, base, a)?;
                        let b = local(&self.locals, base, b)?;
                        let v = apply_prim(prim, &[a, b], &mut self.output)?;
                        self.locals.push(v);
                    }
                    Instr::PrimLocalConstBind { prim, a, k } => {
                        let a = local(&self.locals, base, a)?;
                        let k = constant(&closure, k)?;
                        let v = apply_prim(prim, &[a, &k], &mut self.output)?;
                        self.locals.push(v);
                    }
                    Instr::JumpIfFalseLocal { slot, target } => {
                        if !local(&self.locals, base, slot)?.is_truthy() {
                            pc = target as usize;
                        }
                    }
                }
            };
            match ctl {
                Ctl::Call { nargs, tail } => {
                    let f = std::mem::replace(&mut self.val, Value::Unspec);
                    let callee = callee(f, nargs)?;
                    let at = self.args_at(nargs as usize)?;
                    self.pf_visits += 1;
                    if tail {
                        debug_assert_eq!(at, stack_base, "unbalanced stack at tail call");
                        self.locals.truncate(base);
                    } else {
                        self.frames.push(Frame {
                            closure,
                            pc,
                            base,
                            stack_base,
                        });
                        base = self.locals.len();
                        stack_base = at;
                    }
                    self.locals.extend(self.stack.drain(at..));
                    closure = callee;
                    pc = 0;
                }
                Ctl::Return => {
                    self.pf_retires += 1;
                    debug_assert_eq!(
                        self.stack.len(),
                        stack_base,
                        "unbalanced stack at return from {}",
                        closure.template.name
                    );
                    self.locals.truncate(base);
                    if self.frames.len() == floor {
                        return Ok(std::mem::replace(&mut self.val, Value::Unspec));
                    }
                    let f = self.frames.pop().ok_or(VmError::Internal("no frame"))?;
                    (closure, pc, base, stack_base) = (f.closure, f.pc, f.base, f.stack_base);
                }
            }
        }
    }
}

/// Local slot `i` of the frame whose locals start at `base`, borrowed
/// where it lives: an in-place operand moves no reference count.
#[inline(always)]
fn local(locals: &[Value], base: usize, i: u16) -> Result<&Value, VmError> {
    locals
        .get(base + usize::from(i))
        .ok_or(VmError::Internal("local index out of range"))
}

/// Constant `k` of the running closure's template, converted to a value
/// (as `const` converts it).
#[inline(always)]
fn constant(closure: &Closure, k: u16) -> Result<Value, VmError> {
    closure
        .template
        .consts
        .get(usize::from(k))
        .map(Value::from)
        .ok_or(VmError::Internal("constant index out of range"))
}

/// The closure that a call of `f` with `nargs` arguments enters.
fn callee(f: Value, nargs: u8) -> Result<Arc<Closure>, VmError> {
    let closure = match f {
        Value::Proc(Proc(c)) => c,
        other => return Err(VmError::NotAProcedure(write_string(&other))),
    };
    let t = &closure.template;
    if t.arity != nargs {
        return Err(VmError::BadArity {
            name: t.name,
            expected: t.arity,
            got: nargs,
        });
    }
    Ok(closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use two4one_syntax::datum::Datum;
    use two4one_syntax::limits::CancelToken;
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
        assert_unwound(&m);
    }

    /// The machine holds no frames, operand-stack values or locals.
    fn assert_unwound(m: &Machine) {
        assert!(m.frames.is_empty(), "{} frames left", m.frames.len());
        assert!(m.stack.is_empty(), "{} operands left", m.stack.len());
        assert!(m.locals.is_empty(), "{} locals left", m.locals.len());
    }

    #[test]
    fn errors_in_nested_calls_unwind_every_stack() {
        // (define (inner y) (car y)), (define (outer x) (+ 1 (inner x))):
        // `car` fails with an operand pending and locals in two frames.
        let mut a = Asm::new(Symbol::new("inner"), 1, 0);
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Car,
            nargs: 1,
        });
        a.emit(Instr::Return);
        let mut m = machine_with("inner", a.finish().unwrap());
        let mut a = Asm::new(Symbol::new("outer"), 1, 0);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(one));
        a.emit(Instr::Push);
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        let g = a.global_index(&Symbol::new("inner")).unwrap();
        a.emit(Instr::Global(g));
        a.emit(Instr::Call { nargs: 1 });
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Add,
            nargs: 2,
        });
        a.emit(Instr::Return);
        m.define_template(Symbol::new("outer"), a.finish().unwrap());
        let outer = Symbol::new("outer");
        let e = m.call_global(&outer, vec![Value::Int(3)]).unwrap_err();
        assert!(matches!(e, VmError::Prim(_)));
        assert_unwound(&m);
        let pair = Value::cons(Value::Int(4), Value::Nil);
        let v = m.call_global(&outer, vec![pair]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(5)));
        assert_unwound(&m);
    }

    #[test]
    fn failed_call_entries_leave_no_values_behind() {
        let mut a = Asm::new(Symbol::new("id"), 1, 0);
        a.emit(Instr::Local(0));
        a.emit(Instr::Return);
        let id = Symbol::new("id");
        let mut m = machine_with("id", a.finish().unwrap());
        m.define(Symbol::new("n"), Value::Int(5));
        for _ in 0..3 {
            let e = m
                .call_global(&id, vec![Value::Int(1), Value::Int(2)])
                .unwrap_err();
            assert!(matches!(
                e,
                VmError::BadArity {
                    expected: 1,
                    got: 2,
                    ..
                }
            ));
        }
        let e = m
            .call_global(&Symbol::new("n"), vec![Value::Int(1)])
            .unwrap_err();
        assert!(matches!(e, VmError::NotAProcedure(_)));
        assert_unwound(&m);
        let v = m.call_global(&id, vec![Value::Int(9)]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(9)));
        assert_unwound(&m);
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

    /// `(define (spin i) (if (= i 0) 0 (spin (- i 1))))`: a call on `n`
    /// runs `n` tail iterations of 14 instructions, then an 8-instruction
    /// exit path.
    fn spin_template() -> Arc<Template> {
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
        a.finish().unwrap()
    }

    fn spin_steps(n: i64) -> u64 {
        14 * n as u64 + 8
    }

    #[test]
    fn exec_profile_flushes_mid_run_at_the_stride() {
        // A long self-tail-call loop: the profile must show progress
        // while well below the run's total, i.e. flushes happen at the
        // amortized stride, not only at run end. We can't observe
        // mid-run from one thread, but we can check the stride math:
        // after the run, fetches equals instructions executed exactly.
        let profile = Arc::new(ExecProfile::new());
        let mut m = machine_with("spin", spin_template()).with_profile(profile.clone());
        let n = 10_000i64;
        m.call_global(&Symbol::new("spin"), vec![Value::Int(n)])
            .unwrap();
        // Every visit is a call entry (initial + n tail calls).
        assert_eq!(profile.fetches(), spin_steps(n));
        assert_eq!(profile.visits(), n as u64 + 1);
        assert_eq!(profile.retires(), 1);
    }

    #[test]
    fn exec_profile_is_readable_while_the_run_goes_on() {
        // An endless loop on another thread that only a cancellation
        // stops, fired once the profile shows instructions: the counts
        // must reach the profile at the flush stride, before the run ends.
        let mut a = Asm::new(Symbol::new("spin"), 0, 0);
        let g = a.global_index(&Symbol::new("spin")).unwrap();
        a.emit(Instr::Global(g));
        a.emit(Instr::TailCall { nargs: 0 });
        let profile = Arc::new(ExecProfile::new());
        let token = CancelToken::new();
        let mut m = machine_with("spin", a.finish().unwrap()).with_profile(profile.clone());
        m.deadline = Deadline::unlimited().with_cancel(token.clone());
        let run = std::thread::spawn(move || m.call_global(&Symbol::new("spin"), vec![]));
        let start = std::time::Instant::now();
        while profile.fetches() == 0 && start.elapsed() < std::time::Duration::from_secs(10) {
            std::thread::yield_now();
        }
        let seen = profile.fetches();
        token.cancel();
        let e = run.join().unwrap().unwrap_err();
        assert!(matches!(e, VmError::Limit(_)), "{e:?}");
        assert!(seen > 0, "no counts reached the profile during the run");
    }

    #[test]
    fn step_fuel_is_exact_across_chunks_and_calls() {
        let spin = Symbol::new("spin");
        let n = 1_000i64;
        let steps = spin_steps(n);
        assert!(steps > 3 * STRIDE, "the run must span several chunks");
        let run = |m: &mut Machine| m.call_global(&spin, vec![Value::Int(n)]);

        // One call: exactly its instruction count in fuel suffices, one
        // instruction less does not, and the profile counts every
        // instruction that ran.
        let profile = Arc::new(ExecProfile::new());
        let mut m = machine_with("spin", spin_template())
            .with_fuel(steps)
            .with_profile(profile.clone());
        assert_eq!(run(&mut m).unwrap().to_datum(), Some(Datum::Int(0)));
        assert_eq!(profile.fetches(), steps);
        let profile = Arc::new(ExecProfile::new());
        let mut m = machine_with("spin", spin_template())
            .with_fuel(steps - 1)
            .with_profile(profile.clone());
        assert_eq!(run(&mut m).unwrap_err(), VmError::FuelExhausted);
        assert_eq!(profile.fetches(), steps - 1);

        // Fuel belongs to the machine: two calls share it, and the chunk
        // left over from the first call carries into the second.
        let profile = Arc::new(ExecProfile::new());
        let mut m = machine_with("spin", spin_template())
            .with_fuel(2 * steps)
            .with_profile(profile.clone());
        assert!(run(&mut m).is_ok());
        assert!(run(&mut m).is_ok());
        assert_eq!(profile.fetches(), 2 * steps);
        assert_eq!(run(&mut m).unwrap_err(), VmError::FuelExhausted);
        let mut m = machine_with("spin", spin_template()).with_fuel(2 * steps - 1);
        assert!(run(&mut m).is_ok());
        assert_eq!(run(&mut m).unwrap_err(), VmError::FuelExhausted);

        // Fuel set after a run is exact too: nothing the run left in its
        // chunk runs on top of it.
        let mut m = machine_with("spin", spin_template());
        assert!(run(&mut m).is_ok());
        let mut m = m.with_fuel(steps - 1);
        assert_eq!(run(&mut m).unwrap_err(), VmError::FuelExhausted);
    }

    /// `(define (f x b) …)` in every in-place form, over the locals `x`
    /// and `b`, the constants `(7 8)` and `100`, and the `let`s `s`, `c`
    /// and `p`:
    ///
    /// ```text
    /// s = (+ x x); c = (car '(7 8)); p = (pair? b)
    /// (if p (cdr b) (if b (* s c) (cons (- s 100) '(7 8))))
    /// ```
    fn in_place_template() -> Arc<Template> {
        let mut a = Asm::new(Symbol::new("f"), 2, 0);
        let list = Datum::list([Datum::Int(7), Datum::Int(8)]);
        let k = a.const_index(&list).unwrap();
        let hundred = a.const_index(&Datum::Int(100)).unwrap();
        let (not_pair, not_b) = (a.make_label(), a.make_label());
        a.emit(Instr::PrimLocalLocalBind {
            prim: Prim::Add,
            a: 0,
            b: 0,
        });
        a.emit(Instr::Const(k));
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Car,
            nargs: 1,
        });
        a.emit(Instr::Bind);
        a.emit(Instr::PrimLocalBind {
            prim: Prim::PairP,
            a: 1,
        });
        a.emit_jump_if_false_local(4, not_pair);
        a.emit(Instr::PrimLocal {
            prim: Prim::Cdr,
            a: 1,
        });
        a.emit(Instr::Return);
        a.attach_label(not_pair);
        a.emit_jump_if_false_local(1, not_b);
        a.emit(Instr::PrimLocalLocal {
            prim: Prim::Mul,
            a: 2,
            b: 3,
        });
        a.emit(Instr::Return);
        a.attach_label(not_b);
        a.emit(Instr::PrimLocalConstBind {
            prim: Prim::Sub,
            a: 2,
            k: hundred,
        });
        a.emit(Instr::PrimLocalConst {
            prim: Prim::Cons,
            a: 5,
            k,
        });
        a.emit(Instr::Return);
        a.finish().unwrap()
    }

    #[test]
    fn in_place_forms_read_locals_and_constants() {
        let mut m = machine_with("f", in_place_template());
        let mut run = |x: i64, b: Value| {
            let v = m.call_global(&Symbol::new("f"), vec![Value::Int(x), b]);
            v.unwrap().to_datum().unwrap()
        };
        assert_eq!(run(3, Value::Bool(true)), Datum::Int(42));
        let pair = Value::cons(Value::Int(1), Value::Int(2));
        assert_eq!(run(3, pair), Datum::Int(2));
        let expect = Datum::cons(Datum::Int(-94), Datum::list([Datum::Int(7), Datum::Int(8)]));
        assert_eq!(run(3, Value::Bool(false)), expect);
        assert_unwound(&m);
    }

    #[test]
    fn faults_inside_operand_forms_unwind() {
        // (define (inner y) (car y)) with `car` in place, called from
        // (define (outer x) (+ 1 (inner x))) with an operand pending.
        let mut a = Asm::new(Symbol::new("inner"), 1, 0);
        a.emit(Instr::PrimLocal {
            prim: Prim::Car,
            a: 0,
        });
        a.emit(Instr::Return);
        let mut m = machine_with("inner", a.finish().unwrap());
        let mut a = Asm::new(Symbol::new("outer"), 1, 0);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        a.emit(Instr::Const(one));
        a.emit(Instr::Push);
        a.emit(Instr::Local(0));
        a.emit(Instr::Push);
        let g = a.global_index(&Symbol::new("inner")).unwrap();
        a.emit(Instr::Global(g));
        a.emit(Instr::Call { nargs: 1 });
        a.emit(Instr::Push);
        a.emit(Instr::Prim {
            prim: Prim::Add,
            nargs: 2,
        });
        a.emit(Instr::Return);
        m.define_template(Symbol::new("outer"), a.finish().unwrap());
        // (define (sum x) (let ((s (+ x 'a))) s)): the binding form faults.
        let mut a = Asm::new(Symbol::new("sum"), 1, 0);
        let sym = a.const_index(&Datum::sym("a")).unwrap();
        a.emit(Instr::PrimLocalConstBind {
            prim: Prim::Add,
            a: 0,
            k: sym,
        });
        a.emit(Instr::Local(1));
        a.emit(Instr::Return);
        m.define_template(Symbol::new("sum"), a.finish().unwrap());
        for f in ["outer", "sum"] {
            let e = m.call_global(&Symbol::new(f), vec![Value::Int(3)]);
            assert!(matches!(e, Err(VmError::Prim(_))), "{f}: {e:?}");
            assert_unwound(&m);
        }
        let pair = Value::cons(Value::Int(4), Value::Nil);
        let v = m.call_global(&Symbol::new("outer"), vec![pair]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(5)));
        assert_unwound(&m);
    }

    #[test]
    fn each_in_place_form_costs_one_step_and_one_fetch() {
        // Every in-place form once, then `return`: eight instructions.
        let mut a = Asm::new(Symbol::new("eight"), 1, 0);
        let one = a.const_index(&Datum::Int(1)).unwrap();
        let next = a.make_label();
        a.emit(Instr::PrimLocalBind {
            prim: Prim::NullP,
            a: 0,
        });
        a.emit(Instr::PrimLocalConstBind {
            prim: Prim::Cons,
            a: 0,
            k: one,
        });
        a.emit(Instr::PrimLocalLocalBind {
            prim: Prim::EqP,
            a: 0,
            b: 0,
        });
        a.emit_jump_if_false_local(1, next);
        a.attach_label(next);
        a.emit(Instr::PrimLocal {
            prim: Prim::Car,
            a: 2,
        });
        a.emit(Instr::PrimLocalConst {
            prim: Prim::Add,
            a: 0,
            k: one,
        });
        a.emit(Instr::PrimLocalLocal {
            prim: Prim::EqP,
            a: 3,
            b: 3,
        });
        a.emit(Instr::Return);
        let t = a.finish().unwrap();
        let eight = Symbol::new("eight");
        let run = |fuel: u64| {
            let profile = Arc::new(ExecProfile::new());
            let mut m = machine_with("eight", t.clone())
                .with_fuel(fuel)
                .with_profile(profile.clone());
            let v = m.call_global(&eight, vec![Value::Int(5)]);
            assert_unwound(&m);
            (v, profile.fetches())
        };
        let (v, fetches) = run(8);
        assert_eq!(v.unwrap().to_datum(), Some(Datum::Bool(true)));
        assert_eq!(fetches, 8);
        let (v, fetches) = run(7);
        assert_eq!(v.unwrap_err(), VmError::FuelExhausted);
        assert_eq!(fetches, 7);
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
