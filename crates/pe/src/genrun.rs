//! The gen-ext machine: the staged IR executed as bytecode.
//!
//! This is the compiled generating extension of the second Futamura
//! projection: where the walker ([`crate::walk`]) interprets the staged
//! code with heap-allocated continuation closures and name-keyed
//! environments, this machine threads instruction pointers directly,
//! addresses environments by `(up, idx)` slots, and represents the
//! specialization continuation as an explicit frame stack. Run on the
//! static inputs, it produces the residual program directly through the
//! [`CodeBuilder`] — with `two4one-compiler`'s `ObjectBuilder`, the
//! residual object image, with no interpretive overhead per source node.
//!
//! # Bit-identity with the walker
//!
//! The machine performs every observable action — gensym draws, builder
//! calls, memoization probes, observability events — in exactly the order
//! the walker performs them, so both engines produce bit-identical
//! residual programs and equal [`SpecStats`] (`crates/pe/tests/genext.rs`
//! pins this property). Three devices make that possible:
//!
//! * **Deferred wraps.** The walker's `deliver_serious`/unfold rebinding
//!   wrap `let`s around code computed by continuation *returns*. The
//!   machine pushes a `Wrap` record instead and applies pending wraps
//!   LIFO whenever a region (a residual body, an `if` branch, a join
//!   continuation) completes — the same builder-call order, iteratively.
//! * **Region terminals.** Each boundary frame records how the region
//!   above it terminates (`Term::Tail` → `ret`/tail call, `Term::Jump`
//!   → a call to a join point), mirroring the walker's `Kont::Tail` vs.
//!   jump-continuation distinction.
//! * **Persistent frame stacks.** Fallback guards snapshot the
//!   continuation as an `Arc`-linked stack handle. The walker *replays*
//!   the saved continuation on recovery — frames that already ran execute
//!   again, with observable gensym/builder effects — and the persistent
//!   stack reproduces that exactly: restoring a handle resurrects popped
//!   nodes by sharing, at O(1) cost per armed guard.
//!
//! # The guard-free first run
//!
//! Guards insure against limits the division cannot foresee, and almost
//! no run hits one. So [`run_genext`] first runs with fallback semantics
//! but no guard armed: a top-level call takes no snapshot, popped frames
//! are always moved rather than cloned, and the first recoverable
//! [`PeError`] aborts the run instead of recovering. Up to that error the
//! run is step for step the guarded one, so a clean run emits the guarded
//! run's bytes. An aborted run starts over from a fresh builder with
//! guards armed — the degraded image of a run guarded from the start,
//! after one extra partial run — and [`SpecStats::guarded_rerun`]
//! records that the kept run is the re-run. A non-recoverable error ends the first run as it would end
//! the guarded one.
//!
//! # The depth limit
//!
//! The machine has no recursion, but it keeps the walker's recursion
//! depth as a counter — one per evaluation step, as each walker `spec`
//! call nests one level, reset to a region's starting depth when the
//! region completes and to an armed guard's depth on recovery, as the
//! walker's Rust stack unwinds — and honors
//! [`Limits::max_depth`](two4one_syntax::limits::Limits::max_depth)
//! against it. The limit is then not a stack guard but a work bound: a
//! statically divergent unfolding reaches it long before its unfold fuel
//! runs out, and fuel exhaustion is what turns fallback replay quadratic
//! (every armed guard replays the rest of its region). All limits (fuel,
//! depth, deadline, memo cap, code cap) behave identically in both
//! engines.

use crate::engine::{MemoKey, RCode, Resid, SpecStats, StaticKey};
use crate::{PeError, SpecOptions};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use two4one_anf::build::CodeBuilder;
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::{Deadline, LimitExceeded, LimitKind};
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::{Gensym, Symbol};
use two4one_syntax::symset::SymSet;
use two4one_syntax::value::{apply_prim_datum, PrimError};
use two4one_vm::{GenDef, GenInstr, GenLam, GenProgram};

// ----- run-time values and environments --------------------------------

/// A specialization-time value of the machine.
pub enum GVal<B: CodeBuilder> {
    /// Static first-order data.
    Data(Datum),
    /// A specialization-time closure.
    Clo(Arc<GClo<B>>),
    /// A top-level function used as a value (definition index).
    FnRef(u32),
    /// A dynamic value: residual code.
    Dyn(Resid<B::Triv>),
}

impl<B: CodeBuilder> Clone for GVal<B> {
    fn clone(&self) -> Self {
        match self {
            GVal::Data(d) => GVal::Data(d.clone()),
            GVal::Clo(c) => GVal::Clo(c.clone()),
            GVal::FnRef(g) => GVal::FnRef(*g),
            GVal::Dyn(r) => GVal::Dyn(r.clone()),
        }
    }
}

/// A specialization-time closure over a staged lambda.
pub struct GClo<B: CodeBuilder> {
    /// Index of the staged lambda.
    pub lam: u32,
    /// Captured environment.
    pub env: GEnv<B>,
}

/// Slot-addressed persistent environments: one frame per binding list,
/// shared by refcount. An empty binding list pushes no frame (mirroring
/// `Env::extend_many`, which the stager's lexical addresses assume).
pub type GEnv<B> = Option<Arc<GFrame<B>>>;

/// One environment frame. `vals` stays a `Vec` (not a boxed slice): the
/// binding vectors arrive from the machine's recycling pool with spare
/// capacity, and shrinking them here would realloc on every unfold.
pub struct GFrame<B: CodeBuilder> {
    vals: Vec<GVal<B>>,
    next: GEnv<B>,
}

fn env_push<B: CodeBuilder>(env: &GEnv<B>, vals: Vec<GVal<B>>) -> GEnv<B> {
    if vals.is_empty() {
        env.clone()
    } else {
        Some(Arc::new(GFrame {
            vals,
            next: env.clone(),
        }))
    }
}

fn env_get<B: CodeBuilder>(env: &GEnv<B>, up: u16, idx: u16) -> Option<GVal<B>> {
    let mut cur = env.as_ref();
    for _ in 0..up {
        cur = cur?.next.as_ref();
    }
    cur?.vals.get(idx as usize).cloned()
}

// ----- the continuation stack ------------------------------------------

/// How the current region terminates when a value reaches its boundary.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Term {
    /// Body boundary: `ret` a trivial, or emit a serious as a tail call.
    Tail,
    /// Join-branch boundary: tail-call the named join point.
    Jump(Symbol),
}

/// Watermarks captured when a boundary frame is pushed: pending wraps and
/// armed guards are truncated back to these, and the depth reset to this,
/// when the region completes.
#[derive(Clone, Copy)]
struct Marks {
    wraps: usize,
    guards: usize,
    depth: usize,
}

/// Where a fully evaluated argument list is delivered.
enum Dest<B: CodeBuilder> {
    /// Static application of the operator value.
    App(GVal<B>),
    /// Dynamic application of the already-lifted operator.
    AppD(Resid<B::Triv>),
    /// Static primitive.
    Prim(Prim),
    /// Dynamic primitive.
    PrimD(Prim),
}

impl<B: CodeBuilder> Clone for Dest<B> {
    fn clone(&self) -> Self {
        match self {
            Dest::App(v) => Dest::App(v.clone()),
            Dest::AppD(r) => Dest::AppD(r.clone()),
            Dest::Prim(p) => Dest::Prim(*p),
            Dest::PrimD(p) => Dest::PrimD(*p),
        }
    }
}

/// Join-point construction phases (the machine form of the walker's
/// `residual_if` with an ordinary continuation).
enum JState<B: CodeBuilder> {
    /// Running the detached continuation segment against the fresh result
    /// variable to produce the join body.
    JCode,
    /// Join body built; specializing the then-branch.
    Then { jname: Symbol, jcode: RCode<B> },
    /// Specializing the else-branch.
    Else {
        jname: Symbol,
        jcode: RCode<B>,
        then_code: RCode<B>,
    },
}

impl<B: CodeBuilder> Clone for JState<B> {
    fn clone(&self) -> Self {
        match self {
            JState::JCode => JState::JCode,
            JState::Then { jname, jcode } => JState::Then {
                jname: *jname,
                jcode: jcode.clone(),
            },
            JState::Else {
                jname,
                jcode,
                then_code,
            } => JState::Else {
                jname: *jname,
                jcode: jcode.clone(),
                then_code: then_code.clone(),
            },
        }
    }
}

/// One continuation frame. The first five are *ordinary* frames (they
/// receive a value); the last three are *boundaries* (they receive a
/// completed region's residual code).
enum Frame<'p, B: CodeBuilder> {
    /// Coerce the value to residual code.
    Lift,
    /// Conditional waiting on its test value.
    If {
        then_: u32,
        els: u32,
        env: GEnv<B>,
        static_: bool,
    },
    /// `let` waiting on its right-hand side.
    Let { body: u32, env: GEnv<B> },
    /// Application waiting on its operator.
    AppOp {
        args: &'p [u32],
        env: GEnv<B>,
        dynamic: bool,
    },
    /// Argument list in progress; `idx` is the argument being evaluated.
    Args {
        dest: Dest<B>,
        args: &'p [u32],
        idx: usize,
        acc: Vec<GVal<B>>,
        env: GEnv<B>,
    },
    /// Boundary: residual-lambda body in progress.
    LamB {
        name: Symbol,
        fresh: Vec<Symbol>,
        marks: Marks,
    },
    /// Boundary: residual `if` in tail position; branches specialize as
    /// complete bodies.
    IfTail {
        test: Resid<B::Triv>,
        els: u32,
        env: GEnv<B>,
        then_code: Option<RCode<B>>,
        marks: Marks,
    },
    /// Boundary: join-point construction for a residual `if` in non-tail
    /// position. `outer_term` is the terminal of the region the `if`
    /// appeared in — the detached continuation segment (phase
    /// [`JState::JCode`]) completes with it.
    Join {
        test: Resid<B::Triv>,
        r: Symbol,
        then_: u32,
        els: u32,
        env: GEnv<B>,
        outer_term: Term,
        state: JState<B>,
        marks: Marks,
    },
}

impl<'p, B: CodeBuilder> Clone for Frame<'p, B> {
    fn clone(&self) -> Self {
        match self {
            Frame::Lift => Frame::Lift,
            Frame::If {
                then_,
                els,
                env,
                static_,
            } => Frame::If {
                then_: *then_,
                els: *els,
                env: env.clone(),
                static_: *static_,
            },
            Frame::Let { body, env } => Frame::Let {
                body: *body,
                env: env.clone(),
            },
            Frame::AppOp { args, env, dynamic } => Frame::AppOp {
                args,
                env: env.clone(),
                dynamic: *dynamic,
            },
            Frame::Args {
                dest,
                args,
                idx,
                acc,
                env,
            } => Frame::Args {
                dest: dest.clone(),
                args,
                idx: *idx,
                acc: acc.clone(),
                env: env.clone(),
            },
            Frame::LamB { name, fresh, marks } => Frame::LamB {
                name: *name,
                fresh: fresh.clone(),
                marks: *marks,
            },
            Frame::IfTail {
                test,
                els,
                env,
                then_code,
                marks,
            } => Frame::IfTail {
                test: test.clone(),
                els: *els,
                env: env.clone(),
                then_code: then_code.clone(),
                marks: *marks,
            },
            Frame::Join {
                test,
                r,
                then_,
                els,
                env,
                outer_term,
                state,
                marks,
            } => Frame::Join {
                test: test.clone(),
                r: *r,
                then_: *then_,
                els: *els,
                env: env.clone(),
                outer_term: *outer_term,
                state: state.clone(),
                marks: *marks,
            },
        }
    }
}

impl<'p, B: CodeBuilder> Frame<'p, B> {
    /// For boundary frames: the terminal of the region above, and the
    /// wrap watermark. `None` for ordinary frames.
    fn boundary(&self) -> Option<(Term, usize)> {
        match self {
            Frame::LamB { marks, .. } | Frame::IfTail { marks, .. } => {
                Some((Term::Tail, marks.wraps))
            }
            Frame::Join {
                outer_term,
                state,
                marks,
                ..
            } => {
                let term = match state {
                    JState::JCode => *outer_term,
                    JState::Then { jname, .. } | JState::Else { jname, .. } => Term::Jump(*jname),
                };
                Some((term, marks.wraps))
            }
            _ => None,
        }
    }
}

/// The persistent continuation stack: an `Arc`-linked list so a fallback
/// guard can snapshot it in O(1) and restoring a snapshot *replays* any
/// frames that ran since (the walker's replay-on-recovery semantics).
type FStack<'p, B> = Option<Arc<FNode<'p, B>>>;

struct FNode<'p, B: CodeBuilder> {
    f: Frame<'p, B>,
    next: FStack<'p, B>,
}

/// A deferred residual `let` wrapper, applied when the region completes.
enum Wrap<B: CodeBuilder> {
    /// `(let (x serious) …)` from `deliver_serious` in non-tail position.
    Serious {
        x: Symbol,
        s: B::Serious,
        fv: SymSet,
    },
    /// `(let (x triv) …)` from unfold rebinding a heavyweight argument.
    Triv { x: Symbol, r: Resid<B::Triv> },
}

/// An armed fallback guard: enough state to replay a top-level call as a
/// generic residual call if a recoverable limit fires downstream.
struct Guard<'p, B: CodeBuilder> {
    stack: FStack<'p, B>,
    wraps_len: usize,
    depth: usize,
    def: u32,
    args: Vec<GVal<B>>,
}

struct GPending<B: CodeBuilder> {
    def: u32,
    res_name: Symbol,
    statics: Vec<GVal<B>>,
}

/// One machine transition target.
enum Step<B: CodeBuilder> {
    Eval(u32, GEnv<B>),
    Value(GVal<B>),
    Complete(RCode<B>),
}

/// Result of a transition: another step, or the current body finished.
enum Flow<B: CodeBuilder> {
    Step(Step<B>),
    Done(RCode<B>),
}

// ----- the machine ------------------------------------------------------

/// The gen-ext machine state.
pub struct GenRun<'p, B: CodeBuilder> {
    prog: &'p GenProgram,
    /// The residual-code backend.
    pub builder: B,
    gensym: Gensym,
    cache: HashMap<MemoKey, Symbol>,
    pending: VecDeque<GPending<B>>,
    generic: HashMap<Symbol, Symbol>,
    pending_generic: VecDeque<(u32, Symbol)>,
    fuel: u64,
    /// The walker's recursion depth at this point (see the module doc).
    depth: usize,
    max_depth: usize,
    memo_cap: usize,
    code_cap: usize,
    deadline: Deadline,
    ticks: u64,
    fallback: bool,
    /// Guards armed and recovery on. Off on the guard-free first run
    /// (see the module doc), which aborts at the first recoverable limit.
    armed: bool,
    in_generic: bool,
    stack: FStack<'p, B>,
    /// Reclaimed stack nodes: a popped node that no guard snapshot shares
    /// is parked here and reused by the next push, so the steady-state
    /// push/pop cycle allocates nothing.
    free: Vec<Arc<FNode<'p, B>>>,
    /// Per-definition parameter names, interned lazily (see
    /// [`GenRun::def_params`]).
    param_names: Vec<Option<Arc<[Symbol]>>>,
    /// Spent argument vectors, reused by [`GenRun::take_vec`] so the
    /// prim-heavy inner loop recycles its buffers instead of allocating.
    val_pool: Vec<Vec<GVal<B>>>,
    wraps: Vec<Wrap<B>>,
    guards: Vec<Guard<'p, B>>,
    /// Counters.
    pub stats: SpecStats,
}

/// Runs the compiled generating extension: specializes `entry` with
/// respect to `static_args`, producing a residual program through the
/// given backend. Produces residual programs bit-identical to
/// [`specialize_staged`](crate::walk::specialize_staged) on the same
/// staged program (and equal stats, or the same error).
///
/// With `options.fallback` on, the first run arms no fallback guard (see
/// the module doc); a run that hits a recoverable limit starts over with
/// guards armed from `B::default()`, and its stats set
/// [`SpecStats::guarded_rerun`].
///
/// # Errors
///
/// See [`PeError`].
pub fn run_genext<B: CodeBuilder + Default>(
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
    builder: B,
    options: &SpecOptions,
    deadline: Deadline,
) -> Result<(B::Program, SpecStats), PeError> {
    run_genext_with(prog, entry, static_args, builder, options, deadline, true)
}

/// [`run_genext`], with the guard-free first run switchable: off, the one
/// run arms its guards from the start.
fn run_genext_with<B: CodeBuilder + Default>(
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
    builder: B,
    options: &SpecOptions,
    deadline: Deadline,
    guard_free_first: bool,
) -> Result<(B::Program, SpecStats), PeError> {
    let entry_idx = prog.lookup(entry).ok_or(PeError::NoSuchFunction(*entry))?;
    let def = &prog.defs[entry_idx as usize];
    let n_static = def.params.iter().filter(|p| !p.dynamic).count();
    if n_static != static_args.len() {
        return Err(PeError::StaticArgCount {
            entry: *entry,
            expected: n_static,
            got: static_args.len(),
        });
    }
    let armed = options.fallback && !guard_free_first;
    let first = GenRun::new(prog, builder, options, deadline.clone(), armed);
    match first.run(entry_idx, *entry, static_args) {
        Err(e) if options.fallback && !armed && e.is_recoverable() => {
            let rerun = GenRun::new(prog, B::default(), options, deadline, true);
            let (program, mut stats) = rerun.run(entry_idx, *entry, static_args)?;
            stats.guarded_rerun = true;
            Ok((program, stats))
        }
        r => r,
    }
}

impl<'p, B: CodeBuilder + 'p> GenRun<'p, B> {
    fn new(
        prog: &'p GenProgram,
        builder: B,
        options: &SpecOptions,
        deadline: Deadline,
        armed: bool,
    ) -> Self {
        let limits = &options.limits;
        GenRun {
            prog,
            builder,
            gensym: Gensym::new(),
            cache: HashMap::new(),
            pending: VecDeque::new(),
            generic: HashMap::new(),
            pending_generic: VecDeque::new(),
            fuel: limits.unfold_fuel.unwrap_or(u64::MAX),
            depth: 0,
            max_depth: limits.max_depth.unwrap_or(usize::MAX),
            memo_cap: limits.memo_cap.unwrap_or(usize::MAX),
            code_cap: limits.code_cap.unwrap_or(usize::MAX),
            deadline,
            ticks: 0,
            fallback: options.fallback,
            armed,
            in_generic: false,
            stack: None,
            free: Vec::new(),
            param_names: Vec::new(),
            val_pool: Vec::new(),
            wraps: Vec::new(),
            guards: Vec::new(),
            stats: SpecStats::default(),
        }
    }

    /// One run from the entry: its body, then every pending work item.
    fn run(
        mut self,
        entry_idx: u32,
        entry: Symbol,
        static_args: &[Datum],
    ) -> Result<(B::Program, SpecStats), PeError> {
        let statics = static_args.iter().map(|d| GVal::Data(d.clone())).collect();
        self.run_spec_body(entry_idx, entry, statics)?;
        self.drain_pending()?;
        Ok((self.builder.finish(&entry), self.stats))
    }

    // ----- stack primitives ---------------------------------------------

    fn push(&mut self, f: Frame<'p, B>) {
        let next = self.stack.take();
        let node = loop {
            // Reuse a reclaimed node when one is free; a node can only
            // sit on the freelist unshared, so `get_mut` succeeds unless
            // a guard armed a snapshot between reclaim and reuse — then
            // the node is abandoned and the next candidate tried.
            let Some(mut n) = self.free.pop() else {
                break Arc::new(FNode { f, next });
            };
            if let Some(m) = Arc::get_mut(&mut n) {
                m.f = f;
                m.next = next;
                break n;
            }
        };
        self.stack = Some(node);
    }

    /// Pops the top frame. A node shared with an armed guard's snapshot
    /// is cloned rather than moved, leaving the snapshot intact so a
    /// recovery can replay it; an unshared node is reclaimed for reuse.
    fn pop(&mut self) -> Option<Frame<'p, B>> {
        let mut node = self.stack.take()?;
        match Arc::get_mut(&mut node) {
            Some(n) => {
                self.stack = n.next.take();
                let f = std::mem::replace(&mut n.f, Frame::Lift);
                self.free.push(node);
                Some(f)
            }
            None => {
                self.stack = node.next.clone();
                Some(node.f.clone())
            }
        }
    }

    /// Terminal and wrap floor of the current region, if the machine sits
    /// exactly at its boundary (top of stack is a boundary frame, or the
    /// stack is empty — the body of the current work item).
    fn at_terminal(&self) -> Option<(Term, usize)> {
        match self.stack.as_ref() {
            None => Some((Term::Tail, 0)),
            Some(n) => n.f.boundary(),
        }
    }

    /// Wrap floor of the region now on top (after a boundary popped).
    fn wrap_floor(&self) -> usize {
        let mut cur = self.stack.as_ref();
        while let Some(n) = cur {
            if let Some((_, w)) = n.f.boundary() {
                return w;
            }
            cur = n.next.as_ref();
        }
        0
    }

    fn marks(&self) -> Marks {
        Marks {
            wraps: self.wraps.len(),
            guards: self.guards.len(),
            depth: self.depth,
        }
    }

    /// Takes a scratch value vector from the pool (or allocates one).
    fn take_vec(&mut self, cap: usize) -> Vec<GVal<B>> {
        let mut v = self.val_pool.pop().unwrap_or_default();
        v.reserve(cap);
        v
    }

    /// Returns a spent value vector to the pool for reuse.
    fn recycle(&mut self, mut v: Vec<GVal<B>>) {
        if self.val_pool.len() < 64 {
            v.clear();
            self.val_pool.push(v);
        }
    }

    /// Closes a completed region: expires the guards armed inside it
    /// (recycling the argument snapshots they held) and returns to the
    /// depth it started at.
    fn close_region(&mut self, marks: Marks) {
        self.depth = marks.depth;
        while self.guards.len() > marks.guards {
            if let Some(g) = self.guards.pop() {
                self.recycle(g.args);
            }
        }
    }

    // ----- staged-code accessors ----------------------------------------

    fn instr(&self, ip: u32) -> Result<&'p GenInstr, PeError> {
        let prog: &'p GenProgram = self.prog;
        prog.at(ip)
            .ok_or_else(|| PeError::Internal(format!("instruction pointer {ip} out of range")))
    }

    fn def_at(&self, i: u32) -> Result<&'p GenDef, PeError> {
        self.prog
            .defs
            .get(i as usize)
            .ok_or_else(|| PeError::Internal(format!("definition index {i} out of range")))
    }

    /// Parameter names of a top-level definition, interned per run so the
    /// unfold path does not rebuild the name vector on every call.
    fn def_params(&mut self, g: u32, def: &'p GenDef) -> Arc<[Symbol]> {
        let slot = g as usize;
        if self.param_names.len() <= slot {
            self.param_names
                .resize(self.prog.defs.len().max(slot + 1), None);
        }
        self.param_names[slot]
            .get_or_insert_with(|| def.params.iter().map(|p| p.name).collect())
            .clone()
    }

    fn lam_at(&self, i: u32) -> Result<&'p GenLam, PeError> {
        self.prog
            .lams
            .get(i as usize)
            .ok_or_else(|| PeError::Internal(format!("lambda index {i} out of range")))
    }

    fn const_at(&self, i: u32) -> Result<&'p Datum, PeError> {
        self.prog
            .consts
            .get(i as usize)
            .ok_or_else(|| PeError::Internal(format!("constant index {i} out of range")))
    }

    // ----- residual-value helpers ---------------------------------------

    fn dyn_val(&mut self, x: &Symbol) -> GVal<B> {
        GVal::Dyn(Resid {
            triv: self.builder.var(x),
            fv: SymSet::singleton(*x),
            simple: true,
        })
    }

    /// Coerces a specialization-time value to a residual trivial.
    fn triv_of(&mut self, v: GVal<B>) -> Result<Resid<B::Triv>, PeError> {
        match v {
            GVal::Dyn(r) => Ok(r),
            GVal::Data(d) => Ok(Resid {
                triv: self.builder.const_(&d),
                fv: SymSet::new(),
                simple: true,
            }),
            GVal::FnRef(g) => self.lift_fnref(g),
            GVal::Clo(c) => {
                let name = self.lam_at(c.lam)?.name;
                Err(PeError::Internal(format!(
                    "specialization-time closure `{name}` used as residual code; \
                     the binding-time analysis should have made it dynamic"
                )))
            }
        }
    }

    /// Lifting a top-level function reference: reference the all-dynamic
    /// residual version of the function, or its generic version when the
    /// division or the memo cap prevents that.
    fn lift_fnref(&mut self, g: u32) -> Result<Resid<B::Triv>, PeError> {
        let def = self.def_at(g)?;
        if def.params.iter().any(|p| !p.dynamic) {
            if self.fallback {
                let name = self.generic_name(g, def);
                return Ok(self.global_ref(&name));
            }
            return Err(PeError::Internal(format!(
                "function `{}` escapes into dynamic context but still has \
                 static parameters",
                def.name
            )));
        }
        let name = match self.memo_name(g, def, Vec::new(), Vec::new()) {
            Ok(n) => n,
            Err(e) if self.armed && e.is_recoverable() => {
                self.stats.note_fallback(&e);
                self.generic_name(g, def)
            }
            Err(e) => return Err(e),
        };
        Ok(self.global_ref(&name))
    }

    fn global_ref(&mut self, name: &Symbol) -> Resid<B::Triv> {
        Resid {
            triv: self.builder.global(name),
            fv: SymSet::new(),
            simple: true,
        }
    }

    // ----- evaluation ----------------------------------------------------

    fn eval(&mut self, ip: u32, env: GEnv<B>) -> Result<Flow<B>, PeError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(PeError::DepthLimit {
                limit: self.max_depth,
                unfolds: self.stats.unfolds,
            });
        }
        if !self.in_generic {
            self.deadline
                .check_every(&mut self.ticks, 4096)
                .map_err(PeError::Limit)?;
        }
        Ok(Flow::Step(match self.instr(ip)? {
            GenInstr::Const(c) => Step::Value(GVal::Data(self.const_at(*c)?.clone())),
            GenInstr::Var { name, up, idx } => match env_get(&env, *up, *idx) {
                Some(v) => Step::Value(v),
                None => {
                    return Err(PeError::Internal(format!(
                        "unbound variable `{name}` at specialization time"
                    )))
                }
            },
            GenInstr::Global(g) => Step::Value(GVal::FnRef(*g)),
            GenInstr::Unbound(x) => {
                return Err(PeError::Internal(format!(
                    "unbound variable `{x}` at specialization time"
                )))
            }
            GenInstr::Lift => {
                self.push(Frame::Lift);
                Step::Eval(ip + 1, env)
            }
            GenInstr::Clo(l) => Step::Value(GVal::Clo(Arc::new(GClo { lam: *l, env }))),
            GenInstr::LamD(l) => {
                let lam = self.lam_at(*l)?;
                let fresh: Vec<Symbol> = lam
                    .params
                    .iter()
                    .map(|p| self.gensym.fresh(p.as_str()))
                    .collect();
                let mut vals = Vec::with_capacity(fresh.len());
                for f in &fresh {
                    vals.push(self.dyn_val(f));
                }
                let inner = env_push(&env, vals);
                let marks = self.marks();
                self.push(Frame::LamB {
                    name: lam.name,
                    fresh,
                    marks,
                });
                Step::Eval(lam.body, inner)
            }
            GenInstr::IfS { then_, els } => {
                self.push(Frame::If {
                    then_: *then_,
                    els: *els,
                    env: env.clone(),
                    static_: true,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::IfD { then_, els } => {
                self.push(Frame::If {
                    then_: *then_,
                    els: *els,
                    env: env.clone(),
                    static_: false,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::Let { body, .. } => {
                self.push(Frame::Let {
                    body: *body,
                    env: env.clone(),
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::App { args } => {
                let args: &'p [u32] = args;
                self.push(Frame::AppOp {
                    args,
                    env: env.clone(),
                    dynamic: false,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::AppD { args } => {
                let args: &'p [u32] = args;
                self.push(Frame::AppOp {
                    args,
                    env: env.clone(),
                    dynamic: true,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::Prim { prim, args } => {
                return self
                    .begin_args(Dest::Prim(*prim), args, env)
                    .map(Flow::Step)
            }
            GenInstr::PrimD { prim, args } => {
                return self
                    .begin_args(Dest::PrimD(*prim), args, env)
                    .map(Flow::Step)
            }
        }))
    }

    fn begin_args(
        &mut self,
        dest: Dest<B>,
        args: &'p [u32],
        env: GEnv<B>,
    ) -> Result<Step<B>, PeError> {
        if args.is_empty() {
            self.finish_args(dest, Vec::new())
        } else {
            let acc = self.take_vec(args.len());
            self.push(Frame::Args {
                dest,
                args,
                idx: 0,
                acc,
                env: env.clone(),
            });
            Ok(Step::Eval(args[0], env))
        }
    }

    // ----- value delivery ------------------------------------------------

    fn value(&mut self, v: GVal<B>) -> Result<Step<B>, PeError> {
        if let Some((term, floor)) = self.at_terminal() {
            let code = self.apply_term(term, v)?;
            let code = self.apply_wraps(code, floor);
            return Ok(Step::Complete(code));
        }
        let Some(frame) = self.pop() else {
            return Err(PeError::Internal(
                "value delivered to an empty continuation".into(),
            ));
        };
        match frame {
            Frame::Lift => {
                let r = self.triv_of(v)?;
                Ok(Step::Value(GVal::Dyn(r)))
            }
            Frame::If {
                then_,
                els,
                env,
                static_,
            } => {
                if static_ {
                    match v {
                        GVal::Data(d) => {
                            Ok(Step::Eval(if d.is_truthy() { then_ } else { els }, env))
                        }
                        GVal::Clo(_) | GVal::FnRef(_) => Ok(Step::Eval(then_, env)),
                        // A "static" test can deliver residual code when it
                        // sits downstream of a residualized error path;
                        // fall back to a residual conditional.
                        GVal::Dyn(r) => self.residual_if(r, then_, els, env),
                    }
                } else {
                    let tr = self.triv_of(v)?;
                    self.residual_if(tr, then_, els, env)
                }
            }
            Frame::Let { body, env } => {
                let inner = env_push(&env, vec![v]);
                Ok(Step::Eval(body, inner))
            }
            Frame::AppOp { args, env, dynamic } => {
                let dest = if dynamic {
                    Dest::AppD(self.triv_of(v)?)
                } else {
                    Dest::App(v)
                };
                self.begin_args(dest, args, env)
            }
            Frame::Args {
                dest,
                args,
                idx,
                mut acc,
                env,
            } => {
                acc.push(v);
                let next = idx + 1;
                if next < args.len() {
                    self.push(Frame::Args {
                        dest,
                        args,
                        idx: next,
                        acc,
                        env: env.clone(),
                    });
                    Ok(Step::Eval(args[next], env))
                } else {
                    self.finish_args(dest, acc)
                }
            }
            _ => Err(PeError::Internal(
                "boundary frame received a value out of turn".into(),
            )),
        }
    }

    fn apply_term(&mut self, term: Term, v: GVal<B>) -> Result<RCode<B>, PeError> {
        match term {
            Term::Tail => {
                let r = self.triv_of(v)?;
                Ok(RCode {
                    code: self.builder.ret(r.triv),
                    fv: r.fv,
                })
            }
            Term::Jump(jn) => {
                let tr = self.triv_of(v)?;
                let jv = self.builder.var(&jn);
                let serious = self.builder.call(jv, vec![tr.triv]);
                let mut fv = tr.fv;
                fv.insert(jn);
                Ok(RCode {
                    code: self.builder.tail(serious),
                    fv,
                })
            }
        }
    }

    /// Applies pending wraps LIFO down to `floor` — the machine form of
    /// the walker's recursive return path, with the identical builder-call
    /// order.
    fn apply_wraps(&mut self, mut code: RCode<B>, floor: usize) -> RCode<B> {
        while self.wraps.len() > floor {
            let Some(w) = self.wraps.pop() else { break };
            code = match w {
                Wrap::Serious { x, s, fv: mut fvw } => {
                    fvw.union_with(&code.fv.without(&x));
                    RCode {
                        code: self.builder.let_serious(&x, s, code.code),
                        fv: fvw,
                    }
                }
                Wrap::Triv { x, r } => {
                    let mut fv = code.fv.without(&x);
                    fv.union_with(&r.fv);
                    RCode {
                        code: self.builder.let_triv(&x, r.triv, code.code),
                        fv,
                    }
                }
            };
        }
        code
    }

    /// Emits a serious residual computation: a tail call at a `Tail`
    /// region boundary, otherwise a deferred `let` wrap around the rest
    /// of the region (the let-insertion of Fig. 3).
    fn deliver_serious(
        &mut self,
        serious: B::Serious,
        fv_args: SymSet,
    ) -> Result<Step<B>, PeError> {
        if let Some((Term::Tail, floor)) = self.at_terminal() {
            let code = RCode {
                code: self.builder.tail(serious),
                fv: fv_args,
            };
            let code = self.apply_wraps(code, floor);
            return Ok(Step::Complete(code));
        }
        let x = self.gensym.fresh("t");
        let var = self.dyn_val(&x);
        self.wraps.push(Wrap::Serious {
            x,
            s: serious,
            fv: fv_args,
        });
        Ok(Step::Value(var))
    }

    /// Builds a residual conditional. At a `Tail` boundary the branches
    /// are specialized in tail position (Fig. 3); under an ordinary
    /// continuation a *join point* is inserted instead, exactly as the
    /// walker does: the pending ordinary frames are detached and replayed
    /// against a fresh result variable to produce the join body.
    fn residual_if(
        &mut self,
        test: Resid<B::Triv>,
        then_: u32,
        els: u32,
        env: GEnv<B>,
    ) -> Result<Step<B>, PeError> {
        if let Some((Term::Tail, _)) = self.at_terminal() {
            let marks = self.marks();
            let e2 = env.clone();
            self.push(Frame::IfTail {
                test,
                els,
                env,
                then_code: None,
                marks,
            });
            return Ok(Step::Eval(then_, e2));
        }
        let r = self.gensym.fresh("r");
        let rv = self.dyn_val(&r);
        let mut seg = Vec::new();
        while self
            .stack
            .as_ref()
            .map(|n| n.f.boundary().is_none())
            .unwrap_or(false)
        {
            if let Some(f) = self.pop() {
                seg.push(f);
            }
        }
        let outer_term = match self.at_terminal() {
            Some((t, _)) => t,
            None => Term::Tail,
        };
        let marks = self.marks();
        self.push(Frame::Join {
            test,
            r,
            then_,
            els,
            env,
            outer_term,
            state: JState::JCode,
            marks,
        });
        for f in seg.into_iter().rev() {
            self.push(f);
        }
        Ok(Step::Value(rv))
    }

    // ----- calls and primitives ------------------------------------------

    fn finish_args(&mut self, dest: Dest<B>, mut acc: Vec<GVal<B>>) -> Result<Step<B>, PeError> {
        match dest {
            Dest::App(fval) => self.apply(fval, acc),
            Dest::AppD(ftr) => {
                let mut fv = ftr.fv.clone();
                let mut trivs = Vec::with_capacity(acc.len());
                for a in acc.drain(..) {
                    let r = self.triv_of(a)?;
                    fv.union_with(&r.fv);
                    trivs.push(r.triv);
                }
                self.recycle(acc);
                let serious = self.builder.call(ftr.triv, trivs);
                self.deliver_serious(serious, fv)
            }
            Dest::Prim(p) => {
                // `procedure?` is the one primitive meaningful on
                // specialization-time procedures.
                if p == Prim::ProcedureP
                    && matches!(acc.first(), Some(GVal::Clo(_) | GVal::FnRef(_)))
                {
                    return Ok(Step::Value(GVal::Data(Datum::Bool(true))));
                }
                // A "static" primitive can receive residual code
                // downstream of a residualized `error` path; fall back to
                // a residual application.
                if acc.iter().any(|v| matches!(v, GVal::Dyn(_))) {
                    let mut fv = SymSet::new();
                    let mut trivs = Vec::with_capacity(acc.len());
                    for a in acc.drain(..) {
                        let r = self.triv_of(a)?;
                        fv.union_with(&r.fv);
                        trivs.push(r.triv);
                    }
                    self.recycle(acc);
                    let serious = self.builder.prim(p, trivs);
                    return self.deliver_serious(serious, fv);
                }
                let mut data = Vec::with_capacity(acc.len());
                for v in &acc {
                    match v {
                        GVal::Data(d) => data.push(d.clone()),
                        GVal::Clo(c) => {
                            let name = self.lam_at(c.lam)?.name;
                            return Err(PeError::StaticPrim {
                                prim: p,
                                error: PrimError::TypeError {
                                    prim: p,
                                    expected: "first-order data",
                                    got: format!("#<closure {name}>"),
                                },
                            });
                        }
                        GVal::FnRef(g) => {
                            let name = self.def_at(*g)?.name;
                            return Err(PeError::StaticPrim {
                                prim: p,
                                error: PrimError::TypeError {
                                    prim: p,
                                    expected: "first-order data",
                                    got: format!("#<procedure {name}>"),
                                },
                            });
                        }
                        GVal::Dyn(_) => {
                            return Err(PeError::Internal(format!(
                                "dynamic argument to static `{p}`"
                            )))
                        }
                    }
                }
                self.recycle(acc);
                match apply_prim_datum(p, &data) {
                    Ok(d) => Ok(Step::Value(GVal::Data(d))),
                    // A static primitive fault under dynamic control must
                    // not abort specialization: the branch may be
                    // unreachable at run time. Residualize it — the fault
                    // then occurs at run time exactly when the code runs.
                    Err(_) => {
                        let mut trivs = Vec::with_capacity(data.len());
                        for d in &data {
                            trivs.push(self.builder.const_(d));
                        }
                        let serious = self.builder.prim(p, trivs);
                        self.deliver_serious(serious, SymSet::new())
                    }
                }
            }
            Dest::PrimD(p) => {
                let mut fv = SymSet::new();
                let mut trivs = Vec::with_capacity(acc.len());
                for a in acc.drain(..) {
                    let r = self.triv_of(a)?;
                    fv.union_with(&r.fv);
                    trivs.push(r.triv);
                }
                self.recycle(acc);
                let serious = self.builder.prim(p, trivs);
                self.deliver_serious(serious, fv)
            }
        }
    }

    fn apply(&mut self, fval: GVal<B>, mut args: Vec<GVal<B>>) -> Result<Step<B>, PeError> {
        match fval {
            GVal::Clo(c) => {
                let lam = self.lam_at(c.lam)?;
                self.unfold(lam.name, &lam.params, lam.body, c.env.clone(), args)
            }
            GVal::FnRef(g) => {
                let def = self.def_at(g)?;
                // A top-level call is a *recoverable* position: arm a
                // guard snapshotting the continuation, so that if a
                // resource limit fires while processing the call (or
                // anywhere downstream within the current region), the
                // call is residualized against the generic version of the
                // callee. The walker's attempt/catch at this site, as a
                // persistent-stack snapshot. Unarmed on the guard-free
                // first run.
                if self.armed {
                    let mut snap = self.take_vec(args.len());
                    snap.extend(args.iter().cloned());
                    self.guards.push(Guard {
                        stack: self.stack.clone(),
                        wraps_len: self.wraps.len(),
                        depth: self.depth,
                        def: g,
                        args: snap,
                    });
                }
                if def.memoize {
                    self.memo_call(g, def, args)
                } else {
                    let params = self.def_params(g, def);
                    self.unfold(def.name, &params, def.body, None, args)
                }
            }
            GVal::Dyn(r) => {
                // The operator turned out to be residual code
                // (conservative annotation): emit a residual call.
                let mut fv = r.fv.clone();
                let mut trivs = Vec::with_capacity(args.len());
                for a in args.drain(..) {
                    let t = self.triv_of(a)?;
                    fv.union_with(&t.fv);
                    trivs.push(t.triv);
                }
                self.recycle(args);
                let serious = self.builder.call(r.triv, trivs);
                self.deliver_serious(serious, fv)
            }
            GVal::Data(d) => Err(PeError::NotAProcedure(d.to_string())),
        }
    }

    /// β-reduction at specialization time: bind the arguments and jump to
    /// the body. Heavyweight dynamic arguments (compiled lambdas) are
    /// let-bound first — as deferred [`Wrap::Triv`]s, popped LIFO at
    /// region completion in the walker's exact order — so unfolding never
    /// duplicates code.
    fn unfold(
        &mut self,
        name: Symbol,
        params: &[Symbol],
        body: u32,
        base_env: GEnv<B>,
        args: Vec<GVal<B>>,
    ) -> Result<Step<B>, PeError> {
        if params.len() != args.len() {
            return Err(PeError::ArityMismatch {
                name,
                expected: params.len(),
                got: args.len(),
            });
        }
        self.check_call_limits()?;
        if self.fuel == 0 {
            return Err(PeError::UnfoldLimit(self.stats.unfolds));
        }
        self.fuel -= 1;
        self.stats.unfolds += 1;
        // Strided: one per-unfold trace event would flood the bounded
        // ring. The detail word carries the running total so the trace
        // still shows unfold progress.
        if self.stats.unfolds % 256 == 1 {
            two4one_obs::event_with(two4one_obs::EventKind::Unfold, self.stats.unfolds);
        }
        // Rebind in place: `args` becomes the environment frame directly,
        // with heavyweight dynamic arguments swapped for fresh variables.
        let mut vals = args;
        for (p, a) in params.iter().zip(vals.iter_mut()) {
            if matches!(a, GVal::Dyn(r) if !r.simple) {
                let fresh = self.gensym.fresh(p.as_str());
                let var = self.dyn_val(&fresh);
                if let GVal::Dyn(r) = std::mem::replace(a, var) {
                    self.wraps.push(Wrap::Triv { x: fresh, r });
                }
            }
        }
        let env = env_push(&base_env, vals);
        Ok(Step::Eval(body, env))
    }

    /// Limit checks performed at every call: wall-clock deadline and
    /// emitted-code cap. Both are recoverable at a call boundary.
    /// Suspended while emitting a generic fallback body, which must be
    /// allowed to finish (it is linear in the source program).
    fn check_call_limits(&self) -> Result<(), PeError> {
        if self.in_generic {
            return Ok(());
        }
        self.deadline.check().map_err(PeError::Limit)?;
        if self.builder.code_size() > self.code_cap {
            return Err(PeError::Limit(LimitExceeded {
                kind: LimitKind::CodeSize,
                limit: self.code_cap as u64,
            }));
        }
        Ok(())
    }

    // ----- memoization ---------------------------------------------------

    /// Returns the residual name for `def` specialized to `statics`
    /// (whose key projection the caller has already computed), scheduling
    /// the specialization if it is new.
    fn memo_name(
        &mut self,
        def_idx: u32,
        def: &'p GenDef,
        keys: Vec<StaticKey>,
        statics: Vec<GVal<B>>,
    ) -> Result<Symbol, PeError> {
        let key = MemoKey::new(def.name, keys);
        if let Some(name) = self.cache.get(&key) {
            self.stats.memo_hits += 1;
            two4one_obs::event(two4one_obs::EventKind::MemoHit);
            return Ok(*name);
        }
        if self.cache.len() >= self.memo_cap {
            return Err(PeError::Limit(LimitExceeded {
                kind: LimitKind::MemoEntries,
                limit: self.memo_cap as u64,
            }));
        }
        self.stats.memo_misses += 1;
        two4one_obs::event(two4one_obs::EventKind::MemoMiss);
        let res_name = self.gensym.fresh(def.name.as_str());
        self.cache.insert(key, res_name);
        self.pending.push_back(GPending {
            def: def_idx,
            res_name,
            statics,
        });
        Ok(res_name)
    }

    fn memo_call(
        &mut self,
        def_idx: u32,
        def: &'p GenDef,
        mut args: Vec<GVal<B>>,
    ) -> Result<Step<B>, PeError> {
        if def.params.len() != args.len() {
            return Err(PeError::ArityMismatch {
                name: def.name,
                expected: def.params.len(),
                got: args.len(),
            });
        }
        self.check_call_limits()?;
        let mut statics = Vec::new();
        let mut keys = Vec::new();
        let mut dyns: Vec<Resid<B::Triv>> = Vec::new();
        for (p, a) in def.params.iter().zip(args.drain(..)) {
            if p.dynamic {
                dyns.push(self.triv_of(a)?);
            } else {
                match a {
                    GVal::Data(ref d) => {
                        keys.push(StaticKey::Data(d.clone()));
                        statics.push(a);
                    }
                    GVal::FnRef(g) => {
                        // Keyed by the *source* name of the referenced
                        // definition so walker and gen-ext machine agree.
                        keys.push(StaticKey::Fn(self.def_at(g)?.name));
                        statics.push(a);
                    }
                    GVal::Clo(_) => return Err(PeError::ClosureInMemoKey(def.name)),
                    GVal::Dyn(_) => {
                        return Err(PeError::Internal(format!(
                            "dynamic argument for static parameter `{}` of `{}`",
                            p.name, def.name
                        )))
                    }
                }
            }
        }
        self.recycle(args);
        let res_name = self.memo_name(def_idx, def, keys, statics)?;
        let mut fv = SymSet::new();
        let mut trivs = Vec::with_capacity(dyns.len());
        for r in dyns {
            fv.union_with(&r.fv);
            trivs.push(r.triv);
        }
        let serious = self.builder.call_global(&res_name, trivs);
        self.deliver_serious(serious, fv)
    }

    // ----- graceful fallback ---------------------------------------------

    /// Returns the name of the generic (all-dynamic) residual version of
    /// `def`, scheduling its emission if this is the first request.
    fn generic_name(&mut self, def_idx: u32, def: &'p GenDef) -> Symbol {
        if let Some(n) = self.generic.get(&def.name) {
            return *n;
        }
        let res_name = self.gensym.fresh(&format!("{}-generic", def.name));
        self.generic.insert(def.name, res_name);
        self.pending_generic.push_back((def_idx, res_name));
        res_name
    }

    /// Residualizes a call against the generic version of `def` — the
    /// graceful-degradation path taken when a recoverable resource limit
    /// fires at (or downstream of) a guarded top-level call.
    fn generic_call_step(&mut self, g: u32, args: Vec<GVal<B>>) -> Result<Step<B>, PeError> {
        let def = self.def_at(g)?;
        if def.params.len() != args.len() {
            return Err(PeError::ArityMismatch {
                name: def.name,
                expected: def.params.len(),
                got: args.len(),
            });
        }
        let name = self.generic_name(g, def);
        let mut fv = SymSet::new();
        let mut trivs = Vec::with_capacity(args.len());
        for a in args {
            let r = self.triv_of(a)?;
            fv.union_with(&r.fv);
            trivs.push(r.triv);
        }
        let serious = self.builder.call_global(&name, trivs);
        self.deliver_serious(serious, fv)
    }

    // ----- region completion ---------------------------------------------

    /// Delivers a completed region's residual code to the boundary frame
    /// on top of the stack, looping while completions cascade (an `if`
    /// or join assembled at one boundary immediately completes the next).
    fn complete(&mut self, mut code: RCode<B>) -> Result<Flow<B>, PeError> {
        loop {
            let Some(top) = self.stack.as_ref() else {
                return Ok(Flow::Done(code));
            };
            if top.f.boundary().is_none() {
                return Err(PeError::Internal(
                    "region completed into an ordinary continuation frame".into(),
                ));
            }
            let Some(frame) = self.pop() else {
                return Ok(Flow::Done(code));
            };
            match frame {
                Frame::LamB { name, fresh, marks } => {
                    // Guards armed inside the body expired when it
                    // completed (the walker's catch frames unwound).
                    self.close_region(marks);
                    let mut frees = code.fv;
                    frees.retain(|v| !fresh.contains(v));
                    let triv = self
                        .builder
                        .lambda(&name, &fresh, frees.as_slice(), code.code);
                    return Ok(Flow::Step(Step::Value(GVal::Dyn(Resid {
                        triv,
                        fv: frees,
                        simple: false,
                    }))));
                }
                Frame::IfTail {
                    test,
                    els,
                    env,
                    then_code: None,
                    marks,
                } => {
                    self.close_region(marks);
                    let e2 = env.clone();
                    self.push(Frame::IfTail {
                        test,
                        els,
                        env,
                        then_code: Some(code),
                        marks,
                    });
                    return Ok(Flow::Step(Step::Eval(els, e2)));
                }
                Frame::IfTail {
                    test,
                    then_code: Some(then),
                    marks,
                    ..
                } => {
                    self.close_region(marks);
                    let mut fv = test.fv;
                    fv.union_with(&then.fv);
                    fv.union_with(&code.fv);
                    let c2 = self.builder.if_(test.triv, then.code, code.code);
                    code = RCode { code: c2, fv };
                    let floor = self.wrap_floor();
                    code = self.apply_wraps(code, floor);
                }
                Frame::Join {
                    test,
                    r,
                    then_,
                    els,
                    env,
                    outer_term,
                    state,
                    marks,
                } => {
                    self.close_region(marks);
                    match state {
                        JState::JCode => {
                            let jname = self.gensym.fresh("join");
                            let e2 = env.clone();
                            self.push(Frame::Join {
                                test,
                                r,
                                then_,
                                els,
                                env,
                                outer_term,
                                state: JState::Then { jname, jcode: code },
                                marks,
                            });
                            return Ok(Flow::Step(Step::Eval(then_, e2)));
                        }
                        JState::Then { jname, jcode } => {
                            let e2 = env.clone();
                            self.push(Frame::Join {
                                test,
                                r,
                                then_,
                                els,
                                env,
                                outer_term,
                                state: JState::Else {
                                    jname,
                                    jcode,
                                    then_code: code,
                                },
                                marks,
                            });
                            return Ok(Flow::Step(Step::Eval(els, e2)));
                        }
                        JState::Else {
                            jname,
                            jcode,
                            then_code,
                        } => {
                            let mut fv = test.fv;
                            fv.union_with(&then_code.fv.without(&jname));
                            fv.union_with(&code.fv.without(&jname));
                            fv.union_with(&jcode.fv.without(&r));
                            let iff = self.builder.if_(test.triv, then_code.code, code.code);
                            let c2 = self.builder.join(&jname, &r, jcode.code, iff);
                            code = RCode { code: c2, fv };
                            let floor = self.wrap_floor();
                            code = self.apply_wraps(code, floor);
                        }
                    }
                }
                _ => {
                    return Err(PeError::Internal(
                        "ordinary frame at a region boundary".into(),
                    ))
                }
            }
        }
    }

    // ----- recovery and the driver ---------------------------------------

    /// Error recovery, mirroring the walker's nested attempt/catch: pop
    /// guards innermost-first, restore the snapshotted continuation, and
    /// residualize the guarded call against the callee's generic version;
    /// when no guard remains, fall back at the work-item level (the body
    /// recompiled generically), at most once per item. Unarmed, the error
    /// ends the run: [`run_genext`] re-runs it guarded.
    fn recover(
        &mut self,
        mut e: PeError,
        def_idx: u32,
        env: &GEnv<B>,
        can_fall_back: &mut bool,
    ) -> Result<Step<B>, PeError> {
        loop {
            if !self.armed || !e.is_recoverable() {
                return Err(e);
            }
            if let Some(g) = self.guards.pop() {
                self.stats.note_fallback(&e);
                self.stack = g.stack;
                self.wraps.truncate(g.wraps_len);
                self.depth = g.depth;
                match self.generic_call_step(g.def, g.args) {
                    Ok(s) => return Ok(s),
                    Err(e2) => {
                        e = e2;
                        continue;
                    }
                }
            }
            if *can_fall_back {
                *can_fall_back = false;
                self.stats.note_fallback(&e);
                self.stack = None;
                self.wraps.clear();
                self.guards.clear();
                self.depth = 0;
                self.in_generic = true;
                let generic_ip = self.def_at(def_idx)?.generic;
                return Ok(Step::Eval(generic_ip, env.clone()));
            }
            return Err(e);
        }
    }

    /// Runs one work item — a staged body under `env` — to its residual
    /// definition and emits it.
    fn run_to_done(
        &mut self,
        def_idx: u32,
        res_name: Symbol,
        fresh_params: Vec<Symbol>,
        env: GEnv<B>,
        start: u32,
        drained_generic: bool,
    ) -> Result<(), PeError> {
        self.stack = None;
        self.wraps.clear();
        self.guards.clear();
        self.depth = 0;
        self.in_generic = drained_generic;
        // Work-item-level fallback is available once, and never while
        // already emitting a generic body.
        let mut can_fall_back = self.armed && !drained_generic;
        let mut state = Step::Eval(start, env.clone());
        let code = loop {
            let flow = match state {
                Step::Eval(ip, e) => self.eval(ip, e),
                Step::Value(v) => self.value(v).map(Flow::Step),
                Step::Complete(c) => self.complete(c),
            };
            state = match flow {
                Ok(Flow::Step(s)) => s,
                Ok(Flow::Done(c)) => break c,
                Err(e) => self.recover(e, def_idx, &env, &mut can_fall_back)?,
            };
        };
        debug_assert!(
            code.fv.iter().all(|v| fresh_params.contains(v)),
            "residual `{res_name}` not closed: free {:?}",
            code.fv
        );
        self.builder.define(&res_name, &fresh_params, code.code);
        self.stats.residual_defs += 1;
        if drained_generic {
            self.stats.generic_defs += 1;
        }
        self.in_generic = false;
        Ok(())
    }

    fn run_spec_body(
        &mut self,
        def_idx: u32,
        res_name: Symbol,
        statics: Vec<GVal<B>>,
    ) -> Result<(), PeError> {
        let def = self.def_at(def_idx)?;
        let mut fresh_params = Vec::new();
        let mut it = statics.into_iter();
        let mut vals = Vec::with_capacity(def.params.len());
        for param in &def.params {
            if param.dynamic {
                let fresh = self.gensym.fresh(param.name.as_str());
                let var = self.dyn_val(&fresh);
                vals.push(var);
                fresh_params.push(fresh);
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| PeError::Internal("static argument count drift".into()))?;
                vals.push(v);
            }
        }
        // One frame for the whole parameter list: a single Arc.
        let env = env_push(&None, vals);
        self.run_to_done(def_idx, res_name, fresh_params, env, def.body, false)
    }

    fn run_generic_body(&mut self, def_idx: u32, res_name: Symbol) -> Result<(), PeError> {
        let def = self.def_at(def_idx)?;
        let mut fresh_params = Vec::new();
        let mut vals = Vec::with_capacity(def.params.len());
        for param in &def.params {
            let fresh = self.gensym.fresh(param.name.as_str());
            let var = self.dyn_val(&fresh);
            vals.push(var);
            fresh_params.push(fresh);
        }
        let env = env_push(&None, vals);
        self.run_to_done(def_idx, res_name, fresh_params, env, def.generic, true)
    }

    /// Processes the pending queues: one residual definition per distinct
    /// specialization point, plus at most one generic definition per
    /// source function requested by fallbacks.
    fn drain_pending(&mut self) -> Result<(), PeError> {
        loop {
            if let Some(p) = self.pending.pop_front() {
                self.run_spec_body(p.def, p.res_name, p.statics)?;
            } else if let Some((def_idx, res_name)) = self.pending_generic.pop_front() {
                self.run_generic_body(def_idx, res_name)?;
            } else {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The guard-free first run against the one guarded run it replaces,
    //! with no walker involved: equal programs and equal stats (or the
    //! same error) at every limit the sweeps of `tests/genext.rs` cover,
    //! and exactly one re-run for a first run that hits a recoverable
    //! limit.

    use super::*;
    use crate::stage;
    use std::cell::Cell;
    use std::time::Duration;
    use two4one_anf::build::SourceBuilder;
    use two4one_bta::{bta_with, Division, Options};
    use two4one_compiler::ObjectBuilder;
    use two4one_langs::grammar;
    use two4one_syntax::acs::{CallPolicy, BT};
    use two4one_syntax::limits::{CancelToken, Limits};
    use two4one_syntax::stack::with_stack;

    struct Workload {
        name: &'static str,
        src: String,
        entry: &'static str,
        div: Vec<BT>,
        statics: Vec<Datum>,
        policies: Vec<(&'static str, CallPolicy)>,
    }

    fn program(
        name: &'static str,
        src: &str,
        entry: &'static str,
        div: Vec<BT>,
        statics: Vec<Datum>,
        memoize: &[&'static str],
    ) -> Workload {
        Workload {
            name,
            src: src.to_string(),
            entry,
            div,
            statics,
            policies: memoize.iter().map(|m| (*m, CallPolicy::Memoize)).collect(),
        }
    }

    /// The hand-written programs of the genext sweeps.
    fn programs() -> Vec<Workload> {
        use BT::{Dynamic as D, Static as S};
        vec![
            program(
                "power-unfolded",
                "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
                "power",
                vec![D, S],
                vec![Datum::Int(9)],
                &[],
            ),
            program(
                "join-points",
                "(define (f a b c d)
                   (+ (if a 1 2) (+ (if b 3 4) (+ (if c 5 6) (if d 7 8)))))",
                "f",
                vec![D; 4],
                vec![],
                &[],
            ),
            program(
                "memoized-higher-order",
                "(define (apply-n f n x) (if (= n 0) x (apply-n f (- n 1) (f x))))
                 (define (inc v) (+ v 1))
                 (define (dbl v) (* v 2))
                 (define (main x) (+ (apply-n inc 3 x) (apply-n dbl 2 x)))",
                "main",
                vec![D],
                vec![],
                &["apply-n"],
            ),
            program(
                "fnref-lifting",
                "(define (step x) (+ x 1)) (define (main) (lambda (y) (step y)))",
                "main",
                vec![],
                vec![],
                &[],
            ),
            program(
                "faulting-static-prim",
                "(define (f d) (if d (car '()) 'safe))",
                "f",
                vec![D],
                vec![],
                &[],
            ),
            program(
                "lambda-rebinding",
                "(define (use2 f x) (eq? f f))
                 (define (main n x) (use2 (lambda (y) (+ y x)) n))",
                "main",
                vec![D, D],
                vec![],
                &[],
            ),
            program(
                "memoized-recursion-dynamic-n",
                "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc acc))))
                 (define (main n) (loop n 1))",
                "main",
                vec![D],
                vec![],
                &["loop"],
            ),
        ]
    }

    /// What the serving layer specializes: MIXWELL and LAZY under the
    /// compilation division, and the matcher on the adversarial grammars.
    fn langs() -> Vec<Workload> {
        let mut out = vec![
            Workload {
                name: "mixwell",
                src: two4one_langs::MIXWELL_INTERP.to_string(),
                entry: "mixwell-run",
                div: vec![BT::Static, BT::Dynamic],
                statics: vec![two4one_langs::mixwell_program()],
                policies: two4one_langs::mixwell_policies(),
            },
            Workload {
                name: "lazy",
                src: two4one_langs::LAZY_INTERP.to_string(),
                entry: "lazy-run",
                div: vec![BT::Static, BT::Dynamic],
                statics: vec![two4one_langs::lazy_program()],
                policies: two4one_langs::lazy_policies(),
            },
        ];
        for (name, text, _, _) in grammar::adversarial_suite() {
            let g = grammar::parse(text).unwrap();
            out.push(Workload {
                name,
                src: grammar::workload_source(&g),
                entry: grammar::WORKLOAD_ENTRY,
                div: vec![BT::Dynamic],
                statics: vec![],
                policies: grammar::grammar_policies(),
            });
        }
        out
    }

    fn staged(w: &Workload) -> Arc<GenProgram> {
        let p = two4one_frontend::frontend(&w.src).unwrap();
        let mut opts = Options::default();
        for (name, policy) in &w.policies {
            opts.policy_overrides.insert(Symbol::new(name), *policy);
        }
        let div = Division::new(w.div.iter().copied());
        stage(&bta_with(&p, w.entry, &div, &opts).unwrap()).unwrap()
    }

    /// Runs `w` with the guard-free first run on and off, through both
    /// backends, and asserts equal programs and equal stats, or the same
    /// error. A kept re-run is exactly a run that fell back.
    fn assert_first_run_invisible(w: &Workload, opts: &SpecOptions, ctx: &str) {
        let ctx = format!("{}/{ctx}", w.name);
        assert_invisible(&staged(w), w.entry, &w.statics, opts, &ctx);
    }

    fn assert_invisible(
        prog: &GenProgram,
        entry: &str,
        statics: &[Datum],
        opts: &SpecOptions,
        ctx: &str,
    ) {
        let entry = Symbol::new(entry);
        let deadline = || opts.limits.deadline();
        let run_source = |first| {
            let builder = SourceBuilder::new();
            run_genext_with(prog, &entry, statics, builder, opts, deadline(), first)
                .map(|(p, stats)| (p.to_source(), stats))
        };
        let run_object = |first| {
            let builder = ObjectBuilder::new();
            run_genext_with(prog, &entry, statics, builder, opts, deadline(), first)
                .map(|(p, stats)| (two4one_vm::encode_image(&p.unwrap()), stats))
        };
        let (on, off) = (run_source(true), run_source(false));
        assert_eq!(on, off, "[{ctx}] source backend");
        assert_eq!(
            run_object(true),
            run_object(false),
            "[{ctx}] object backend"
        );
        if let (Ok((_, on)), Ok((_, off))) = (&on, &off) {
            assert_eq!(on.guarded_rerun, on.fallbacks > 0, "[{ctx}] {on:?}");
            assert!(!off.guarded_rerun, "[{ctx}] {off:?}");
        }
    }

    /// Limits with the depth limit off, so each sweep isolates its knob.
    fn deep() -> Limits {
        Limits::default().with_max_depth(usize::MAX)
    }

    fn governed(limits: Limits) -> SpecOptions {
        SpecOptions {
            limits,
            fallback: true,
        }
    }

    #[test]
    fn first_run_changes_no_output_across_the_limit_sweeps() {
        let mut points = vec![("clean".to_string(), governed(deep()))];
        for fuel in 0..14u64 {
            points.push((
                format!("fuel={fuel}"),
                governed(deep().with_unfold_fuel(fuel)),
            ));
        }
        for cap in 0..5usize {
            points.push((
                format!("memo_cap={cap}"),
                governed(deep().with_memo_cap(cap)),
            ));
        }
        for cap in [1usize, 2, 4, 8, 16, 64, 256] {
            points.push((
                format!("code_cap={cap}"),
                governed(deep().with_code_cap(cap)),
            ));
        }
        for fuel in [0u64, 1, 3, 5] {
            let strict = SpecOptions::strict(deep().with_unfold_fuel(fuel));
            points.push((format!("strict-fuel={fuel}"), strict));
        }
        for w in &programs() {
            for (ctx, opts) in &points {
                assert_first_run_invisible(w, opts, ctx);
            }
        }
    }

    #[test]
    fn first_run_changes_no_output_on_langs_and_across_depths() {
        with_stack(|| {
            for fuel in [None, Some(0u64), Some(1), Some(3), Some(10), Some(100)] {
                let limits = match fuel {
                    Some(f) => deep().with_unfold_fuel(f),
                    None => deep(),
                };
                for w in &langs() {
                    assert_first_run_invisible(w, &governed(limits.clone()), &format!("{fuel:?}"));
                }
            }
            for depth in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 377, 987, 2584] {
                let opts = governed(Limits::default().with_max_depth(depth));
                for w in programs().iter().chain(&langs()) {
                    assert_first_run_invisible(w, &opts, &format!("depth={depth}"));
                }
            }
        });
    }

    thread_local! {
        static FRESH_BUILDERS: Cell<usize> = const { Cell::new(0) };
    }

    /// A source builder that counts the fresh builders `run_genext` makes
    /// for itself: one per guarded re-run.
    struct Counted(SourceBuilder);

    impl Default for Counted {
        fn default() -> Self {
            FRESH_BUILDERS.with(|n| n.set(n.get() + 1));
            Counted(SourceBuilder::new())
        }
    }

    impl CodeBuilder for Counted {
        type Triv = <SourceBuilder as CodeBuilder>::Triv;
        type Serious = <SourceBuilder as CodeBuilder>::Serious;
        type Code = <SourceBuilder as CodeBuilder>::Code;
        type Program = <SourceBuilder as CodeBuilder>::Program;

        fn const_(&mut self, d: &Datum) -> Self::Triv {
            self.0.const_(d)
        }
        fn var(&mut self, x: &Symbol) -> Self::Triv {
            self.0.var(x)
        }
        fn global(&mut self, x: &Symbol) -> Self::Triv {
            self.0.global(x)
        }
        fn lambda(
            &mut self,
            name: &Symbol,
            params: &[Symbol],
            free: &[Symbol],
            body: Self::Code,
        ) -> Self::Triv {
            self.0.lambda(name, params, free, body)
        }
        fn call(&mut self, f: Self::Triv, args: Vec<Self::Triv>) -> Self::Serious {
            self.0.call(f, args)
        }
        fn call_global(&mut self, g: &Symbol, args: Vec<Self::Triv>) -> Self::Serious {
            self.0.call_global(g, args)
        }
        fn prim(&mut self, p: Prim, args: Vec<Self::Triv>) -> Self::Serious {
            self.0.prim(p, args)
        }
        fn ret(&mut self, t: Self::Triv) -> Self::Code {
            self.0.ret(t)
        }
        fn tail(&mut self, s: Self::Serious) -> Self::Code {
            self.0.tail(s)
        }
        fn let_serious(&mut self, x: &Symbol, rhs: Self::Serious, body: Self::Code) -> Self::Code {
            self.0.let_serious(x, rhs, body)
        }
        fn let_triv(&mut self, x: &Symbol, rhs: Self::Triv, body: Self::Code) -> Self::Code {
            self.0.let_triv(x, rhs, body)
        }
        fn if_(&mut self, t: Self::Triv, then: Self::Code, els: Self::Code) -> Self::Code {
            self.0.if_(t, then, els)
        }
        fn join(
            &mut self,
            j: &Symbol,
            r: &Symbol,
            jbody: Self::Code,
            body: Self::Code,
        ) -> Self::Code {
            self.0.join(j, r, jbody, body)
        }
        fn define(&mut self, name: &Symbol, params: &[Symbol], body: Self::Code) {
            self.0.define(name, params, body)
        }
        fn finish(self, entry: &Symbol) -> Self::Program {
            self.0.finish(entry)
        }
        fn code_size(&self) -> usize {
            self.0.code_size()
        }
    }

    /// Runs `prog` through [`run_genext`] and counts its guarded re-runs.
    fn reruns(
        prog: &GenProgram,
        entry: &str,
        statics: &[Datum],
        opts: &SpecOptions,
        deadline: Deadline,
    ) -> (Result<SpecStats, PeError>, usize) {
        FRESH_BUILDERS.with(|n| n.set(0));
        let builder = Counted(SourceBuilder::new());
        let r = run_genext(prog, &Symbol::new(entry), statics, builder, opts, deadline);
        (r.map(|(_, stats)| stats), FRESH_BUILDERS.with(Cell::get))
    }

    fn workload_reruns(
        w: &Workload,
        opts: &SpecOptions,
        deadline: Deadline,
    ) -> (Result<SpecStats, PeError>, usize) {
        reruns(&staged(w), w.entry, &w.statics, opts, deadline)
    }

    #[test]
    fn a_recoverable_limit_costs_exactly_one_guarded_rerun() {
        let ws = programs();
        let (power, memoized) = (&ws[0], &ws[2]);
        let unlimited = Deadline::unlimited;
        let (clean, n) = workload_reruns(power, &SpecOptions::new(), unlimited());
        assert_eq!(n, 0, "a clean fill never re-runs");
        assert!(!clean.unwrap().guarded_rerun);
        let expired = || Deadline::start(Some(Duration::ZERO));
        let starved = [
            (
                power,
                deep().with_unfold_fuel(1),
                unlimited(),
                LimitKind::UnfoldFuel,
            ),
            (
                memoized,
                deep().with_memo_cap(0),
                unlimited(),
                LimitKind::MemoEntries,
            ),
            (
                memoized,
                deep().with_code_cap(1),
                unlimited(),
                LimitKind::CodeSize,
            ),
            (power, deep(), expired(), LimitKind::Deadline),
        ];
        for (w, limits, deadline, kind) in starved {
            let (stats, n) = workload_reruns(w, &governed(limits), deadline);
            let stats = stats.unwrap();
            assert_eq!(n, 1, "{kind:?}: {stats:?}");
            assert!(stats.guarded_rerun, "{kind:?}: {stats:?}");
            assert_eq!(stats.fallback_kind, Some(kind), "{stats:?}");
        }
    }

    #[test]
    fn a_non_recoverable_error_ends_the_first_run() {
        let ws = programs();
        let power = &ws[0];
        let shallow = governed(Limits::default().with_max_depth(3));
        let (r, n) = workload_reruns(power, &shallow, Deadline::unlimited());
        assert!(matches!(r, Err(PeError::DepthLimit { .. })), "{r:?}");
        assert_eq!(n, 0);

        let token = CancelToken::new();
        token.cancel();
        let cancelled = Deadline::unlimited().with_cancel(token);
        let (r, n) = workload_reruns(power, &SpecOptions::new(), cancelled);
        let kind = match r {
            Err(PeError::Limit(l)) => l.kind,
            other => panic!("expected a cancellation, got {other:?}"),
        };
        assert_eq!((kind, n), (LimitKind::Cancelled, 0));

        let arity = program(
            "static-arity",
            "(define (g a b) a) (define (f s) (g s))",
            "f",
            vec![BT::Static],
            vec![Datum::Int(1)],
            &[],
        );
        let (r, n) = workload_reruns(&arity, &SpecOptions::new(), Deadline::unlimited());
        assert!(matches!(r, Err(PeError::ArityMismatch { .. })), "{r:?}");
        assert_eq!(n, 0);
    }

    #[test]
    fn an_escaping_function_with_static_parameters_lifts_to_its_generic_version() {
        // `(define (f s d) (d f))` with `s` static: `f` escapes into a
        // dynamic call while its division keeps `s` static. The BTA never
        // emits this (it raises an escaping function's parameters), so
        // the annotation is built by hand. Fallback semantics reference
        // the generic version of `f`. The first run keeps those
        // semantics, so this needs no re-run; strict mode refuses it.
        use two4one_syntax::acs::{ADef, AExpr, AParam, AProgram};
        let [f, s, d] = ["f", "s", "d"].map(Symbol::new);
        let param = |name, bt| AParam { name, bt };
        let aprog = AProgram {
            defs: vec![ADef {
                name: f,
                params: vec![param(s, BT::Static), param(d, BT::Dynamic)],
                body: AExpr::AppD(
                    Arc::new(AExpr::Var(d)),
                    vec![Arc::new(AExpr::Lift(Arc::new(AExpr::Var(f))))],
                ),
                policy: CallPolicy::Unfold,
                result_bt: BT::Dynamic,
            }],
        };
        let prog = stage(&aprog).unwrap();
        let statics = [Datum::Int(1)];
        let (stats, n) = reruns(
            &prog,
            "f",
            &statics,
            &SpecOptions::new(),
            Deadline::unlimited(),
        );
        let stats = stats.unwrap();
        assert_eq!(n, 0);
        assert!(!stats.guarded_rerun);
        assert_eq!((stats.fallbacks, stats.generic_defs), (0, 1), "{stats:?}");
        let run = |opts: &SpecOptions| {
            let deadline = Deadline::unlimited();
            run_genext(&prog, &f, &statics, SourceBuilder::new(), opts, deadline)
        };
        let (residual, _) = run(&SpecOptions::new()).unwrap();
        let text = residual.to_source();
        assert!(text.contains("f-generic"), "{text}");
        assert_invisible(&prog, "f", &statics, &SpecOptions::new(), "escaping");
        let strict = run(&SpecOptions::strict(Limits::default()));
        assert!(matches!(strict, Err(PeError::Internal(_))), "{strict:?}");
    }
}
