//! The gen-ext machine: the staged IR executed as bytecode.
//!
//! This is the compiled generating extension of the second Futamura
//! projection: where the walker ([`crate::walk`]) interprets the staged
//! code with heap-allocated continuation closures and name-keyed
//! environments, this machine threads instruction pointers directly,
//! addresses environments by `(up, idx)` slots, and represents the
//! specialization continuation as an explicit frame stack, a flat `Vec`.
//! Run on the static inputs, it produces the residual program directly
//! through the [`CodeBuilder`] — with `two4one-compiler`'s
//! `ObjectBuilder`, the residual object image, with no interpretive
//! overhead per source node.
//!
//! # Bit-identity with the walker
//!
//! The machine performs every observable action — gensym draws, builder
//! calls, memoization probes, observability events — in exactly the order
//! the walker performs them, so both engines produce bit-identical
//! residual programs and equal [`SpecStats`] (`crates/pe/tests/genext.rs`
//! pins this property). Two devices make that possible:
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
//!
//! # The step loop
//!
//! One loop per work item moves between three steps: evaluate an
//! instruction, deliver a value to the continuation, deliver a completed
//! region's code to its boundary frame. The value and the code wait in two
//! registers of the machine, not in the step, so a transition moves an
//! instruction pointer and an environment at most, whatever the builder's
//! value sizes are. An argument list fills its frame in place.
//!
//! # The generic image
//!
//! With [`SpecOptions::fallback`] on, a run that hits a recoverable limit
//! (unfold fuel, the memo cap, the code cap, the deadline) is dropped,
//! and [`run_genext`] answers with the request's generic image instead
//! ([`generic_image`]). That image is Kleene's s-m-n specialization of
//! the program to the statics: a stub `(define (entry d…)
//! (entry-generic 's… d…))` plus the generic version of every definition
//! reachable from it. One run of this machine in *generic mode* emits
//! it: each work item is a definition's staged generic body
//! ([`GenDef::generic`]) with every parameter dynamic, and every function
//! reference lifts to the generic version of its function. No static
//! value meets residual code there, so the image is correct under any
//! division. Nothing unfolds, so the pass is linear in the source program
//! and runs under no limit. The image's stats record the dropped run's
//! limit as its one fallback. The serving layer's Tier-0 first touch and
//! open breaker ask for the image directly.
//!
//! # The depth limit
//!
//! The machine has no recursion, but it keeps the walker's recursion
//! depth as a counter — one per evaluation step, as each walker `spec`
//! call nests one level, reset to a region's starting depth when the
//! region completes, as the walker's Rust stack unwinds — and honors
//! [`Limits::max_depth`] against it. The limit is then not a stack guard
//! but a work bound: a statically divergent unfolding reaches it long
//! before its unfold fuel runs out. All limits (fuel, depth, deadline,
//! memo cap, code cap) behave identically in both engines.

use crate::engine::{MemoKey, RCode, Resid, SpecStats, StaticKey};
use crate::{PeError, SpecOptions};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use two4one_anf::build::CodeBuilder;
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::{Deadline, LimitExceeded, LimitKind, Limits};
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

/// Watermarks captured when a boundary frame is pushed: the region's wrap
/// floor, and the depth reset to when the region completes.
#[derive(Clone, Copy)]
struct Marks {
    wraps: usize,
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
    /// It stays on the stack, updated in place, until the last argument
    /// arrives.
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

/// One work item: a specialization point, or in generic mode the generic
/// version of a definition (no statics).
struct GPending<B: CodeBuilder> {
    def: u32,
    res_name: Symbol,
    statics: Vec<GVal<B>>,
}

/// One machine transition target. The step carries no payload: a value
/// in flight waits in [`GenRun::acc`], a completed region's code in
/// [`GenRun::out`], so the loop moves two words per step whatever the
/// builder's value sizes are.
enum Step<B: CodeBuilder> {
    /// Evaluate the instruction at `ip` under the environment.
    Eval(u32, GEnv<B>),
    /// Deliver `acc` to the continuation.
    Value,
    /// Deliver `out` to the boundary frame on top of the stack.
    Complete,
}

/// Result of a transition: another step, or the current body finished
/// with its code in `out`.
enum Flow<B: CodeBuilder> {
    Step(Step<B>),
    Done,
}

// ----- the machine ------------------------------------------------------

/// The gen-ext machine state.
pub struct GenRun<'p, B: CodeBuilder> {
    prog: &'p GenProgram,
    /// The residual-code backend.
    pub builder: B,
    gensym: Gensym,
    /// Residual names by memoization key; in generic mode, keyed by the
    /// function alone (see [`GenRun::generic_name`]).
    cache: HashMap<MemoKey, Symbol>,
    pending: VecDeque<GPending<B>>,
    fuel: u64,
    /// The walker's recursion depth at this point (see the module doc).
    depth: usize,
    max_depth: usize,
    memo_cap: usize,
    code_cap: usize,
    deadline: Deadline,
    ticks: u64,
    /// Generic mode (see the module doc): work items run generic bodies
    /// with every parameter dynamic, and function references lift to
    /// generic versions.
    generic: bool,
    /// The continuation stack, top last.
    stack: Vec<Frame<'p, B>>,
    /// Per-definition parameter names, interned lazily (see
    /// [`GenRun::def_params`]).
    param_names: Vec<Option<Arc<[Symbol]>>>,
    /// Spent argument vectors, reused by [`GenRun::take_vec`] so the
    /// prim-heavy inner loop recycles its buffers instead of allocating.
    val_pool: Vec<Vec<GVal<B>>>,
    /// Scratch for a static primitive's arguments, moved in from the
    /// argument list and cleared after each application.
    prim_args: Vec<Datum>,
    wraps: Vec<Wrap<B>>,
    /// The value register: set by the producer of a [`Step::Value`],
    /// taken by [`GenRun::value`].
    acc: Option<GVal<B>>,
    /// The code register: set by the producer of a [`Step::Complete`] or
    /// [`Flow::Done`], taken by [`GenRun::complete`] or at the end of the
    /// work item.
    out: Option<RCode<B>>,
    /// Counters.
    pub stats: SpecStats,
}

/// Runs the compiled generating extension: specializes `entry` with
/// respect to `static_args`, producing a residual program through the
/// given backend. Produces residual programs bit-identical to
/// [`specialize_staged`](crate::walk::specialize_staged) on the same
/// staged program (and equal stats, or the same error).
///
/// With `options.fallback` on, a run that hits a recoverable limit is
/// dropped and the answer is the [`generic_image`], built from
/// `B::default()` (see the module doc).
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
    let entry_idx = entry_index(prog, entry, static_args)?;
    let machine = GenRun::new(prog, builder, &options.limits, deadline, false);
    let run = machine.run(entry_idx, *entry, static_args);
    answer::<B>(run, prog, entry, static_args, options)
}

/// The generic image of `entry` on `static_args`: Kleene's s-m-n
/// specialization (see the module doc), emitted through `builder`.
/// Correct under any division and exempt from every limit, it is what a
/// run dropped at a recoverable limit answers with, and what a serving
/// layer serves while it will not, or cannot yet, specialize.
///
/// # Errors
///
/// [`PeError::NoSuchFunction`] and [`PeError::StaticArgCount`] for a bad
/// request; [`PeError::Internal`] for a malformed staged program.
pub fn generic_image<B: CodeBuilder>(
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
    builder: B,
) -> Result<(B::Program, SpecStats), PeError> {
    let entry_idx = entry_index(prog, entry, static_args)?;
    let run = GenRun::new(prog, builder, &Limits::none(), Deadline::unlimited(), true);
    run.run(entry_idx, *entry, static_args)
}

/// A run's answer under `options`: its own result, unless it hit a
/// recoverable limit with fallback on. Then the run is dropped, and the
/// answer is the generic image from a fresh builder, with that limit
/// recorded as its fallback. Shared by both engines.
pub(crate) fn answer<B: CodeBuilder + Default>(
    run: Result<(B::Program, SpecStats), PeError>,
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
    options: &SpecOptions,
) -> Result<(B::Program, SpecStats), PeError> {
    match run {
        Err(e) if options.fallback && e.is_recoverable() => {
            let (program, mut stats) = generic_image(prog, entry, static_args, B::default())?;
            stats.note_fallback(&e);
            Ok((program, stats))
        }
        r => r,
    }
}

/// Resolves `entry` and checks the static argument count against its
/// division.
pub(crate) fn entry_index(
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
) -> Result<u32, PeError> {
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
    Ok(entry_idx)
}

impl<'p, B: CodeBuilder + 'p> GenRun<'p, B> {
    fn new(
        prog: &'p GenProgram,
        builder: B,
        limits: &Limits,
        deadline: Deadline,
        generic: bool,
    ) -> Self {
        GenRun {
            prog,
            builder,
            gensym: Gensym::new(),
            cache: HashMap::new(),
            pending: VecDeque::new(),
            fuel: limits.unfold_fuel.unwrap_or(u64::MAX),
            depth: 0,
            max_depth: limits.max_depth.unwrap_or(usize::MAX),
            memo_cap: limits.memo_cap.unwrap_or(usize::MAX),
            code_cap: limits.code_cap.unwrap_or(usize::MAX),
            deadline,
            ticks: 0,
            generic,
            stack: Vec::new(),
            param_names: Vec::new(),
            val_pool: Vec::new(),
            prim_args: Vec::new(),
            wraps: Vec::new(),
            acc: None,
            out: None,
            stats: SpecStats::default(),
        }
    }

    /// One run from the entry — its body, or in generic mode its stub —
    /// then every pending work item.
    fn run(
        mut self,
        entry_idx: u32,
        entry: Symbol,
        static_args: &[Datum],
    ) -> Result<(B::Program, SpecStats), PeError> {
        let statics = static_args.iter().map(|d| GVal::Data(d.clone())).collect();
        if self.generic {
            self.emit_stub(entry_idx, entry, statics)?;
        } else {
            self.run_item(GPending {
                def: entry_idx,
                res_name: entry,
                statics,
            })?;
        }
        while let Some(item) = self.pending.pop_front() {
            self.run_item(item)?;
        }
        Ok((self.builder.finish(&entry), self.stats))
    }

    // ----- stack primitives ---------------------------------------------

    /// Terminal and wrap floor of the current region, if the machine sits
    /// exactly at its boundary (top of stack is a boundary frame, or the
    /// stack is empty — the body of the current work item).
    fn at_terminal(&self) -> Option<(Term, usize)> {
        match self.stack.last() {
            None => Some((Term::Tail, 0)),
            Some(f) => f.boundary(),
        }
    }

    /// Wrap floor of the region now on top (after a boundary popped).
    fn wrap_floor(&self) -> usize {
        self.stack
            .iter()
            .rev()
            .find_map(Frame::boundary)
            .map_or(0, |(_, w)| w)
    }

    /// Puts `v` in the value register: the step that delivers it.
    fn give_value(&mut self, v: GVal<B>) -> Step<B> {
        debug_assert!(self.acc.is_none(), "a value is already in flight");
        self.acc = Some(v);
        Step::Value
    }

    /// Puts a completed region's code in the code register: the step that
    /// delivers it.
    fn give_code(&mut self, code: RCode<B>) -> Step<B> {
        debug_assert!(self.out.is_none(), "region code is already in flight");
        self.out = Some(code);
        Step::Complete
    }

    fn marks(&self) -> Marks {
        Marks {
            wraps: self.wraps.len(),
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
    /// residual version of the function, or in generic mode its generic
    /// version.
    fn lift_fnref(&mut self, g: u32) -> Result<Resid<B::Triv>, PeError> {
        let def = self.def_at(g)?;
        let name = if self.generic {
            self.generic_name(g, def)
        } else if def.params.iter().any(|p| !p.dynamic) {
            return Err(PeError::Internal(format!(
                "function `{}` escapes into dynamic context but still has \
                 static parameters",
                def.name
            )));
        } else {
            self.memo_name(g, def, Vec::new(), Vec::new())?
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
        self.deadline
            .check_every(&mut self.ticks, 4096)
            .map_err(PeError::Limit)?;
        Ok(Flow::Step(match self.instr(ip)? {
            GenInstr::Const(c) => self.give_value(GVal::Data(self.const_at(*c)?.clone())),
            GenInstr::Var { name, up, idx } => match env_get(&env, *up, *idx) {
                Some(v) => self.give_value(v),
                None => {
                    return Err(PeError::Internal(format!(
                        "unbound variable `{name}` at specialization time"
                    )))
                }
            },
            GenInstr::Global(g) => self.give_value(GVal::FnRef(*g)),
            GenInstr::Unbound(x) => {
                return Err(PeError::Internal(format!(
                    "unbound variable `{x}` at specialization time"
                )))
            }
            GenInstr::Lift => {
                self.stack.push(Frame::Lift);
                Step::Eval(ip + 1, env)
            }
            GenInstr::Clo(l) => self.give_value(GVal::Clo(Arc::new(GClo { lam: *l, env }))),
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
                self.stack.push(Frame::LamB {
                    name: lam.name,
                    fresh,
                    marks,
                });
                Step::Eval(lam.body, inner)
            }
            GenInstr::IfS { then_, els } => {
                self.stack.push(Frame::If {
                    then_: *then_,
                    els: *els,
                    env: env.clone(),
                    static_: true,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::IfD { then_, els } => {
                self.stack.push(Frame::If {
                    then_: *then_,
                    els: *els,
                    env: env.clone(),
                    static_: false,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::Let { body, .. } => {
                self.stack.push(Frame::Let {
                    body: *body,
                    env: env.clone(),
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::App { args } => {
                let args: &'p [u32] = args;
                self.stack.push(Frame::AppOp {
                    args,
                    env: env.clone(),
                    dynamic: false,
                });
                Step::Eval(ip + 1, env)
            }
            GenInstr::AppD { args } => {
                let args: &'p [u32] = args;
                self.stack.push(Frame::AppOp {
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
            self.stack.push(Frame::Args {
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

    /// Delivers the value register to the continuation.
    fn value(&mut self) -> Result<Step<B>, PeError> {
        let Some(v) = self.acc.take() else {
            return Err(PeError::Internal("no value in flight".into()));
        };
        if let Some((term, floor)) = self.at_terminal() {
            let code = self.apply_term(term, v)?;
            let code = self.apply_wraps(code, floor);
            return Ok(self.give_code(code));
        }
        // An argument list fills in place: its frame is popped only once
        // the last argument has arrived.
        if let Some(Frame::Args {
            args,
            idx,
            acc,
            env,
            ..
        }) = self.stack.last_mut()
        {
            acc.push(v);
            *idx += 1;
            if let Some(&next) = args.get(*idx) {
                return Ok(Step::Eval(next, env.clone()));
            }
            let Some(Frame::Args { dest, acc, .. }) = self.stack.pop() else {
                return Err(PeError::Internal("argument frame vanished".into()));
            };
            return self.finish_args(dest, acc);
        }
        let Some(frame) = self.stack.pop() else {
            return Err(PeError::Internal(
                "value delivered to an empty continuation".into(),
            ));
        };
        match frame {
            Frame::Lift => {
                let r = self.triv_of(v)?;
                Ok(self.give_value(GVal::Dyn(r)))
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
            return Ok(self.give_code(code));
        }
        let x = self.gensym.fresh("t");
        let var = self.dyn_val(&x);
        self.wraps.push(Wrap::Serious {
            x,
            s: serious,
            fv: fv_args,
        });
        Ok(self.give_value(var))
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
            self.stack.push(Frame::IfTail {
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
        while self.stack.last().is_some_and(|f| f.boundary().is_none()) {
            if let Some(f) = self.stack.pop() {
                seg.push(f);
            }
        }
        let outer_term = match self.at_terminal() {
            Some((t, _)) => t,
            None => Term::Tail,
        };
        let marks = self.marks();
        self.stack.push(Frame::Join {
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
            self.stack.push(f);
        }
        Ok(self.give_value(rv))
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
                    return Ok(self.give_value(GVal::Data(Datum::Bool(true))));
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
                // Applied in place: the arguments move into the reused
                // scratch vector, with no copy of any datum.
                let mut data = std::mem::take(&mut self.prim_args);
                for v in acc.drain(..) {
                    match v {
                        GVal::Data(d) => data.push(d),
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
                            let name = self.def_at(g)?.name;
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
                let step = match apply_prim_datum(p, &data) {
                    Ok(d) => Ok(self.give_value(GVal::Data(d))),
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
                };
                data.clear();
                self.prim_args = data;
                step
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
    /// emitted-code cap. Both are recoverable.
    fn check_call_limits(&self) -> Result<(), PeError> {
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

    // ----- generic mode ------------------------------------------------

    /// In generic mode: the name of `def`'s generic version, scheduled on
    /// its first reference. At most one exists per function, keyed in the
    /// memo cache by the function alone.
    fn generic_name(&mut self, def_idx: u32, def: &'p GenDef) -> Symbol {
        let key = MemoKey::new(def.name, Vec::new());
        if let Some(name) = self.cache.get(&key) {
            return *name;
        }
        let res_name = self.gensym.fresh(&format!("{}-generic", def.name));
        self.cache.insert(key, res_name);
        self.pending.push_back(GPending {
            def: def_idx,
            res_name,
            statics: Vec::new(),
        });
        res_name
    }

    /// The generic image's entry: `entry`'s dynamic parameters, and a tail
    /// call of its generic version on every argument in the division's
    /// order, the statics as constants.
    fn emit_stub(
        &mut self,
        entry_idx: u32,
        entry: Symbol,
        statics: Vec<GVal<B>>,
    ) -> Result<(), PeError> {
        let def = self.def_at(entry_idx)?;
        let (fresh_params, vals) = self.bind_params(def, statics, false)?;
        let target = self.generic_name(entry_idx, def);
        let mut trivs = Vec::with_capacity(vals.len());
        for v in vals {
            trivs.push(self.triv_of(v)?.triv);
        }
        let call = self.builder.call_global(&target, trivs);
        let body = self.builder.tail(call);
        self.builder.define(&entry, &fresh_params, body);
        self.stats.residual_defs += 1;
        Ok(())
    }

    // ----- region completion ---------------------------------------------

    /// Delivers the code register, a completed region's residual code,
    /// to the boundary frame on top of the stack, looping while
    /// completions cascade (an `if` or join assembled at one boundary
    /// immediately completes the next). With the stack empty, the work
    /// item's body is done, its code back in the register.
    fn complete(&mut self) -> Result<Flow<B>, PeError> {
        let Some(mut code) = self.out.take() else {
            return Err(PeError::Internal("no region code in flight".into()));
        };
        loop {
            let Some(top) = self.stack.last() else {
                self.out = Some(code);
                return Ok(Flow::Done);
            };
            if top.boundary().is_none() {
                return Err(PeError::Internal(
                    "region completed into an ordinary continuation frame".into(),
                ));
            }
            let Some(frame) = self.stack.pop() else {
                self.out = Some(code);
                return Ok(Flow::Done);
            };
            match frame {
                Frame::LamB { name, fresh, marks } => {
                    self.depth = marks.depth;
                    let mut frees = code.fv;
                    frees.retain(|v| !fresh.contains(v));
                    let triv = self
                        .builder
                        .lambda(&name, &fresh, frees.as_slice(), code.code);
                    return Ok(Flow::Step(self.give_value(GVal::Dyn(Resid {
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
                    self.depth = marks.depth;
                    let e2 = env.clone();
                    self.stack.push(Frame::IfTail {
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
                    self.depth = marks.depth;
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
                    self.depth = marks.depth;
                    match state {
                        JState::JCode => {
                            let jname = self.gensym.fresh("join");
                            let e2 = env.clone();
                            self.stack.push(Frame::Join {
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
                            self.stack.push(Frame::Join {
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

    // ----- work items ----------------------------------------------------

    /// Binds `def`'s parameters: a fresh residual variable for each
    /// dynamic one (each one, with `all_dynamic`), the next of `statics`
    /// for each static one. Returns the fresh names and the bindings.
    fn bind_params(
        &mut self,
        def: &GenDef,
        statics: Vec<GVal<B>>,
        all_dynamic: bool,
    ) -> Result<(Vec<Symbol>, Vec<GVal<B>>), PeError> {
        let mut fresh_params = Vec::new();
        let mut statics = statics.into_iter();
        let mut vals = Vec::with_capacity(def.params.len());
        for param in &def.params {
            if param.dynamic || all_dynamic {
                let fresh = self.gensym.fresh(param.name.as_str());
                vals.push(self.dyn_val(&fresh));
                fresh_params.push(fresh);
            } else {
                let v = statics
                    .next()
                    .ok_or_else(|| PeError::Internal("static argument count drift".into()))?;
                vals.push(v);
            }
        }
        Ok((fresh_params, vals))
    }

    /// Runs one work item to its residual definition and emits it: a
    /// specialization point's body under its statics, or in generic mode a
    /// generic body with every parameter dynamic.
    fn run_item(&mut self, item: GPending<B>) -> Result<(), PeError> {
        let def = self.def_at(item.def)?;
        let (fresh_params, vals) = self.bind_params(def, item.statics, self.generic)?;
        // One frame for the whole parameter list: a single Arc.
        let env = env_push(&None, vals);
        self.depth = 0;
        let mut step = Step::Eval(if self.generic { def.generic } else { def.body }, env);
        loop {
            let flow = match step {
                Step::Eval(ip, e) => self.eval(ip, e)?,
                Step::Value => Flow::Step(self.value()?),
                Step::Complete => self.complete()?,
            };
            match flow {
                Flow::Step(s) => step = s,
                Flow::Done => break,
            }
        }
        let Some(code) = self.out.take() else {
            return Err(PeError::Internal(format!(
                "`{}` finished with no code",
                item.res_name
            )));
        };
        debug_assert!(
            code.fv.iter().all(|v| fresh_params.contains(v)),
            "residual `{}` not closed: free {:?}",
            item.res_name,
            code.fv
        );
        self.builder
            .define(&item.res_name, &fresh_params, code.code);
        self.stats.residual_defs += 1;
        if self.generic {
            self.stats.generic_defs += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The generic image against the runs it answers, with no walker
    //! involved: at every limit the sweeps of `tests/genext.rs` cover, a
    //! run either finishes on its own, fails with a non-recoverable error,
    //! or is answered with exactly the generic image, on both backends.

    use super::*;
    use crate::stage;
    use std::time::Duration;
    use two4one_anf::build::SourceBuilder;
    use two4one_bta::{bta_with, Division, Options};
    use two4one_compiler::ObjectBuilder;
    use two4one_langs::grammar;
    use two4one_syntax::acs::{CallPolicy, BT};
    use two4one_syntax::limits::CancelToken;
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

    /// Checks one run's outcome: a run with a fallback is exactly the
    /// generic image (equal program, the image's stats plus the one
    /// fallback), any other run emitted no generic code, and an error is
    /// one the fallback does not answer.
    fn check_answer<P: PartialEq + std::fmt::Debug>(
        run: Result<(P, SpecStats), PeError>,
        generic: impl FnOnce() -> (P, SpecStats),
        opts: &SpecOptions,
        ctx: &str,
    ) {
        match run {
            Ok((_, stats)) if stats.fallbacks == 0 => {
                assert_eq!(stats.generic_defs, 0, "[{ctx}] {stats:?}");
            }
            Ok((program, stats)) => {
                assert!(opts.fallback, "[{ctx}] strict run fell back");
                let (image, mut want) = generic();
                assert!(program == image, "[{ctx}] not the generic image");
                assert_eq!(
                    (stats.fallbacks, stats.unfolds),
                    (1, 0),
                    "[{ctx}] {stats:?}"
                );
                assert!(stats.fallback_kind.is_some(), "[{ctx}] {stats:?}");
                want.fallbacks = 1;
                want.fallback_kind = stats.fallback_kind;
                assert_eq!(stats, want, "[{ctx}] stats");
            }
            Err(e) => assert!(
                !opts.fallback || !e.is_recoverable(),
                "[{ctx}] fallback left a recoverable error: {e}"
            ),
        }
    }

    /// Runs `prog` under `opts` through both backends (each measures its
    /// own code size, so the code cap can starve one and not the other)
    /// and checks each outcome against that backend's generic image.
    fn assert_answered(
        prog: &GenProgram,
        entry: &str,
        statics: &[Datum],
        opts: &SpecOptions,
        ctx: &str,
    ) {
        let entry = Symbol::new(entry);
        let deadline = || opts.limits.deadline();
        check_answer(
            run_genext(
                prog,
                &entry,
                statics,
                SourceBuilder::new(),
                opts,
                deadline(),
            ),
            || generic_image(prog, &entry, statics, SourceBuilder::new()).unwrap(),
            opts,
            &format!("{ctx}/source"),
        );
        type Object = <ObjectBuilder as CodeBuilder>::Program;
        let encode = |(image, stats): (Object, SpecStats)| {
            (two4one_vm::encode_image(&image.unwrap()), stats)
        };
        check_answer(
            run_genext(
                prog,
                &entry,
                statics,
                ObjectBuilder::new(),
                opts,
                deadline(),
            )
            .map(encode),
            || encode(generic_image(prog, &entry, statics, ObjectBuilder::new()).unwrap()),
            opts,
            &format!("{ctx}/object"),
        );
    }

    fn assert_workload_answered(w: &Workload, opts: &SpecOptions, ctx: &str) {
        let ctx = format!("{}/{ctx}", w.name);
        assert_answered(&staged(w), w.entry, &w.statics, opts, &ctx);
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
    fn starved_runs_answer_with_the_generic_image_across_the_limit_sweeps() {
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
                assert_workload_answered(w, opts, ctx);
            }
        }
    }

    #[test]
    fn starved_runs_answer_with_the_generic_image_on_langs_and_across_depths() {
        with_stack(|| {
            for fuel in [None, Some(0u64), Some(1), Some(3), Some(10), Some(100)] {
                let limits = match fuel {
                    Some(f) => deep().with_unfold_fuel(f),
                    None => deep(),
                };
                for w in &langs() {
                    assert_workload_answered(w, &governed(limits.clone()), &format!("{fuel:?}"));
                }
            }
            for depth in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 377, 987, 2584] {
                let opts = governed(Limits::default().with_max_depth(depth));
                for w in programs().iter().chain(&langs()) {
                    assert_workload_answered(w, &opts, &format!("depth={depth}"));
                }
            }
        });
    }

    /// Runs `w` as [`GenRun::run`] does, specializing and in generic mode,
    /// and checks after every work item that both registers are empty.
    /// A run that fails stops there, as [`GenRun::run`] does. Returns the
    /// number of work items checked.
    fn assert_registers_drain<B: CodeBuilder>(
        w: &Workload,
        builder: impl Fn() -> B,
        ctx: &str,
    ) -> usize {
        let prog = staged(w);
        let entry = Symbol::new(w.entry);
        let idx = entry_index(&prog, &entry, &w.statics).unwrap();
        let mut items = 0;
        for generic in [false, true] {
            let ctx = format!("{}/{ctx}/generic={generic}", w.name);
            let mut m = GenRun::new(&prog, builder(), &deep(), Deadline::unlimited(), generic);
            let statics = w.statics.iter().map(|d| GVal::Data(d.clone())).collect();
            let mut result = if generic {
                m.emit_stub(idx, entry, statics)
            } else {
                let item = GPending {
                    def: idx,
                    res_name: entry,
                    statics,
                };
                m.run_item(item)
            };
            while result.is_ok() {
                items += 1;
                assert!(m.acc.is_none(), "[{ctx}] a value left after item {items}");
                assert!(m.out.is_none(), "[{ctx}] code left after item {items}");
                let Some(item) = m.pending.pop_front() else {
                    break;
                };
                result = m.run_item(item);
            }
        }
        items
    }

    #[test]
    fn the_step_loop_moves_no_payload() {
        // A step is an instruction pointer and an environment at most:
        // values and region code wait in the machine's registers, whatever
        // the builder's sizes.
        assert!(std::mem::size_of::<Step<SourceBuilder>>() <= 16);
        assert!(std::mem::size_of::<Step<ObjectBuilder>>() <= 16);
        let items = with_stack(|| {
            let mut items = 0;
            for w in programs().iter().chain(&langs()) {
                items += assert_registers_drain(w, SourceBuilder::new, "source");
                items += assert_registers_drain(w, ObjectBuilder::new, "object");
            }
            items
        });
        assert!(items > 300, "only {items} work items checked");
    }

    fn run_source(
        w: &Workload,
        opts: &SpecOptions,
        deadline: Deadline,
    ) -> Result<(String, SpecStats), PeError> {
        let entry = Symbol::new(w.entry);
        let builder = SourceBuilder::new();
        run_genext(&staged(w), &entry, &w.statics, builder, opts, deadline)
            .map(|(p, stats)| (p.to_source(), stats))
    }

    fn generic_source(w: &Workload) -> String {
        let entry = Symbol::new(w.entry);
        let (p, _) = generic_image(&staged(w), &entry, &w.statics, SourceBuilder::new()).unwrap();
        p.to_source()
    }

    #[test]
    fn the_generic_image_is_a_stub_over_generic_versions() {
        // Kleene's s-m-n: the entry keeps its dynamic parameters and passes
        // the statics, as constants, to the generic version of itself.
        let ws = programs();
        let text = generic_source(&ws[0]);
        assert_eq!(
            text,
            "(define (power x%0) (power-generic%1 x%0 9))\n\n\
             (define (power-generic%1 x%2 n%3)\n  \
             (let ((t%4 (= n%3 0)))\n    (if t%4\n      1\n      \
             (let ((t%5 (- n%3 1)))\n        \
             (let ((t%6 (power-generic%1 x%2 t%5))) (* x%2 t%6))))))\n",
        );
        // Every function reference lifts to a generic version, one per
        // function however often it is referenced.
        let text = generic_source(&ws[2]);
        for g in [
            "main-generic",
            "apply-n-generic",
            "inc-generic",
            "dbl-generic",
        ] {
            assert_eq!(
                text.matches(&format!("(define ({g}")).count(),
                1,
                "{g}: {text}"
            );
        }
    }

    #[test]
    fn a_recoverable_limit_is_answered_with_the_generic_image() {
        let ws = programs();
        let (power, memoized) = (&ws[0], &ws[2]);
        let unlimited = Deadline::unlimited;
        let (_, clean) = run_source(power, &SpecOptions::new(), unlimited()).unwrap();
        assert_eq!((clean.fallbacks, clean.generic_defs), (0, 0), "{clean:?}");
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
            let (text, stats) = run_source(w, &governed(limits), deadline).unwrap();
            assert_eq!(text, generic_source(w), "{kind:?}");
            assert_eq!(stats.fallback_kind, Some(kind), "{stats:?}");
            assert_eq!(stats.fallbacks, 1, "{stats:?}");
            assert!(stats.degraded(), "{stats:?}");
        }
    }

    #[test]
    fn a_non_recoverable_error_ends_the_first_run() {
        // No generic image answers these, fallback or not.
        let ws = programs();
        let power = &ws[0];
        let shallow = governed(Limits::default().with_max_depth(3));
        let r = run_source(power, &shallow, Deadline::unlimited());
        assert!(matches!(r, Err(PeError::DepthLimit { .. })), "{r:?}");

        let token = CancelToken::new();
        token.cancel();
        let cancelled = Deadline::unlimited().with_cancel(token);
        let kind = match run_source(power, &SpecOptions::new(), cancelled) {
            Err(PeError::Limit(l)) => l.kind,
            other => panic!("expected a cancellation, got {other:?}"),
        };
        assert_eq!(kind, LimitKind::Cancelled);

        let arity = program(
            "static-arity",
            "(define (g a b) a) (define (f s) (g s))",
            "f",
            vec![BT::Static],
            vec![Datum::Int(1)],
            &[],
        );
        let r = run_source(&arity, &SpecOptions::new(), Deadline::unlimited());
        assert!(matches!(r, Err(PeError::ArityMismatch { .. })), "{r:?}");
    }

    #[test]
    fn an_escaping_function_with_static_parameters_lifts_to_its_generic_version() {
        // `(define (f s d) (d f))` with `s` static: `f` escapes into a
        // dynamic call while its division keeps `s` static. The BTA never
        // emits this (it raises an escaping function's parameters), so
        // the annotation is built by hand. A specialization run refuses
        // it as a binding-time error, fallback or not; the generic image,
        // which ignores the division, lifts `f` to its generic version.
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
        for opts in [SpecOptions::new(), SpecOptions::strict(Limits::default())] {
            let deadline = Deadline::unlimited();
            let r = run_genext(&prog, &f, &statics, SourceBuilder::new(), &opts, deadline);
            assert!(matches!(r, Err(PeError::Internal(_))), "{r:?}");
        }
        let (residual, stats) = generic_image(&prog, &f, &statics, SourceBuilder::new()).unwrap();
        let text = residual.to_source();
        assert_eq!(
            text,
            "(define (f d%0) (f-generic%1 1 d%0))\n\n\
             (define (f-generic%1 s%2 d%3) (d%3 f-generic%1))\n",
        );
        assert_eq!((stats.fallbacks, stats.generic_defs), (0, 1), "{stats:?}");
    }
}
