//! The interpretive walker — Fig. 3 of the paper over the staged IR.
//!
//! This is the continuation-based offline specializer, re-expressed as a
//! consumer of [`GenProgram`]: where the original engine recursed over
//! annotated syntax trees, the walker follows instruction pointers into
//! the flat staged code. Continuations are heap-allocated closures
//! (`Kont`), environments are name-keyed, and every action — gensym
//! draws, builder calls, memo probes, observability events — happens in
//! exactly the order the tree-walking engine performed them, which is
//! what the gen-ext machine ([`crate::genrun`]) is tested bit-for-bit
//! against.
//!
//! Continuation-based partial evaluation (Bondorf; Lawall & Danvy) is
//! what makes the residual code come out in A-normal form: every residual
//! *serious* computation is named by a `let` with a fresh variable the
//! moment it is emitted, and dynamic conditionals get a join point in
//! non-tail position instead of duplicating their continuation.
//!
//! The walker has no fallback of its own: a walk that hits a recoverable
//! limit under [`SpecOptions::fallback`] is dropped, and the answer is the
//! generic image the gen-ext machine emits for both engines
//! ([`crate::genrun::generic_image`]).

use crate::engine::{MemoKey, RCode, Resid, SpecStats, StaticKey};
use crate::genrun::{answer, entry_index};
use crate::{PeError, SpecOptions};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use two4one_anf::build::CodeBuilder;
use two4one_interp::env::Env;
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::{Deadline, LimitExceeded, LimitKind, Limits};
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::{Gensym, Symbol};
use two4one_syntax::symset::SymSet;
use two4one_syntax::value::{apply_prim_datum, PrimError};
use two4one_vm::{GenDef, GenInstr, GenLam, GenProgram};

/// A specialization-time value.
pub enum SVal<B: CodeBuilder> {
    /// Static first-order data.
    Data(Datum),
    /// A specialization-time closure.
    Clo(Arc<PClosure<B>>),
    /// A top-level function used as a value (definition index).
    FnRef(u32),
    /// A dynamic value: residual code.
    Dyn(Resid<B::Triv>),
}

impl<B: CodeBuilder> Clone for SVal<B> {
    fn clone(&self) -> Self {
        match self {
            SVal::Data(d) => SVal::Data(d.clone()),
            SVal::Clo(c) => SVal::Clo(c.clone()),
            SVal::FnRef(g) => SVal::FnRef(*g),
            SVal::Dyn(r) => SVal::Dyn(r.clone()),
        }
    }
}

/// A specialization-time closure.
pub struct PClosure<B: CodeBuilder> {
    /// Index of the staged lambda.
    pub lam: u32,
    /// Captured specialization-time environment.
    pub env: PEnv<B>,
}

/// Specialization-time environments.
pub type PEnv<B> = Env<SVal<B>>;

type KontFn<'p, B> = dyn Fn(&mut Spec<'p, B>, SVal<B>) -> Result<RCode<B>, PeError> + 'p;
type ListKontFn<'p, B> = dyn Fn(&mut Spec<'p, B>, Vec<SVal<B>>) -> Result<RCode<B>, PeError> + 'p;

/// The specialization continuation. `Tail` marks the boundary of a
/// residual function body; delivering a serious computation there produces
/// a tail call (a jump), everywhere else a fresh `let`.
pub enum Kont<'p, B: CodeBuilder> {
    /// Body boundary.
    Tail,
    /// An ordinary continuation.
    Op(Arc<KontFn<'p, B>>),
}

impl<'p, B: CodeBuilder> Clone for Kont<'p, B> {
    fn clone(&self) -> Self {
        match self {
            Kont::Tail => Kont::Tail,
            Kont::Op(f) => Kont::Op(f.clone()),
        }
    }
}

impl<'p, B: CodeBuilder + 'p> Kont<'p, B> {
    fn op(f: impl Fn(&mut Spec<'p, B>, SVal<B>) -> Result<RCode<B>, PeError> + 'p) -> Self {
        Kont::Op(Arc::new(f))
    }
}

struct Pending<B: CodeBuilder> {
    def: u32,
    res_name: Symbol,
    statics: Vec<SVal<B>>,
}

/// The walker state.
pub struct Spec<'p, B: CodeBuilder> {
    prog: &'p GenProgram,
    /// The residual-code backend.
    pub builder: B,
    gensym: Gensym,
    cache: HashMap<MemoKey, Symbol>,
    pending: VecDeque<Pending<B>>,
    fuel: u64,
    depth: usize,
    max_depth: usize,
    memo_cap: usize,
    code_cap: usize,
    deadline: Deadline,
    ticks: u64,
    /// Counters.
    pub stats: SpecStats,
}

/// Runs the interpretive walker over a staged program: specializes
/// `entry` with respect to `static_args`, producing a residual program
/// through the given backend.
///
/// `static_args` are matched positionally against the *static* parameters
/// of the entry's division; its dynamic parameters become the parameters
/// of the residual entry definition (which keeps the entry's name). With
/// `options.fallback` on, a walk that hits a recoverable limit is dropped
/// and the answer is the generic image, exactly as [`run_genext`]
/// answers.
///
/// [`run_genext`]: crate::genrun::run_genext
///
/// # Errors
///
/// See [`PeError`].
pub fn specialize_staged<B: CodeBuilder + Default>(
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
    builder: B,
    options: &SpecOptions,
    deadline: Deadline,
) -> Result<(B::Program, SpecStats), PeError> {
    let run = walk(prog, entry, static_args, builder, &options.limits, deadline);
    answer::<B>(run, prog, entry, static_args, options)
}

/// One walk from the entry: its body, then every pending specialization
/// point.
fn walk<B: CodeBuilder>(
    prog: &GenProgram,
    entry: &Symbol,
    static_args: &[Datum],
    builder: B,
    limits: &Limits,
    deadline: Deadline,
) -> Result<(B::Program, SpecStats), PeError> {
    let def = entry_index(prog, entry, static_args)?;
    let mut spec = Spec {
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
        stats: SpecStats::default(),
    };
    spec.spec_pending(Pending {
        def,
        res_name: *entry,
        statics: static_args.iter().map(|d| SVal::Data(d.clone())).collect(),
    })?;
    spec.drain_pending()?;
    Ok((spec.builder.finish(entry), spec.stats))
}

impl<'p, B: CodeBuilder + 'p> Spec<'p, B> {
    // ----- staged-code accessors ----------------------------------------

    fn instr(&self, ip: u32) -> Result<&'p GenInstr, PeError> {
        let prog: &'p GenProgram = self.prog;
        prog.at(ip)
            .ok_or_else(|| PeError::Internal(format!("instruction pointer {ip} out of range")))
    }

    fn def(&self, i: u32) -> Result<&'p GenDef, PeError> {
        self.prog
            .defs
            .get(i as usize)
            .ok_or_else(|| PeError::Internal(format!("definition index {i} out of range")))
    }

    fn lam(&self, i: u32) -> Result<&'p GenLam, PeError> {
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

    fn dyn_var(&mut self, x: &Symbol) -> SVal<B> {
        SVal::Dyn(Resid {
            triv: self.builder.var(x),
            fv: SymSet::singleton(*x),
            simple: true,
        })
    }

    /// Coerces a specialization-time value to a residual trivial.
    fn triv_of(&mut self, v: SVal<B>) -> Result<Resid<B::Triv>, PeError> {
        match v {
            SVal::Dyn(r) => Ok(r),
            SVal::Data(d) => Ok(Resid {
                triv: self.builder.const_(&d),
                fv: SymSet::new(),
                simple: true,
            }),
            SVal::FnRef(g) => self.lift_fnref(g),
            SVal::Clo(c) => {
                let name = self.lam(c.lam)?.name;
                Err(PeError::Internal(format!(
                    "specialization-time closure `{name}` used as residual code; \
                     the binding-time analysis should have made it dynamic"
                )))
            }
        }
    }

    /// Lifting a top-level function reference: reference the all-dynamic
    /// residual version of the function.
    fn lift_fnref(&mut self, g: u32) -> Result<Resid<B::Triv>, PeError> {
        let def = self.def(g)?;
        if def.params.iter().any(|p| !p.dynamic) {
            return Err(PeError::Internal(format!(
                "function `{}` escapes into dynamic context but still has \
                 static parameters",
                def.name
            )));
        }
        let name = self.memo_name(g, def, Vec::new(), Vec::new())?;
        Ok(self.global_ref(&name))
    }

    fn global_ref(&mut self, name: &Symbol) -> Resid<B::Triv> {
        Resid {
            triv: self.builder.global(name),
            fv: SymSet::new(),
            simple: true,
        }
    }

    // ----- continuation plumbing ----------------------------------------

    fn apply_kont(&mut self, k: &Kont<'p, B>, v: SVal<B>) -> Result<RCode<B>, PeError> {
        match k {
            Kont::Tail => {
                let r = self.triv_of(v)?;
                Ok(RCode {
                    code: self.builder.ret(r.triv),
                    fv: r.fv,
                })
            }
            Kont::Op(f) => f.clone()(self, v),
        }
    }

    /// Emits a serious residual computation: a tail call at a body
    /// boundary, otherwise a fresh `let` (the let-insertion of Fig. 3).
    fn deliver_serious(
        &mut self,
        k: &Kont<'p, B>,
        serious: B::Serious,
        fv_args: SymSet,
    ) -> Result<RCode<B>, PeError> {
        match k {
            Kont::Tail => Ok(RCode {
                code: self.builder.tail(serious),
                fv: fv_args,
            }),
            Kont::Op(_) => {
                let x = self.gensym.fresh("t");
                let var = self.dyn_var(&x);
                let rest = self.apply_kont(k, var)?;
                let mut fv = fv_args;
                fv.union_with(&rest.fv.without(&x));
                Ok(RCode {
                    code: self.builder.let_serious(&x, serious, rest.code),
                    fv,
                })
            }
        }
    }

    /// Builds a residual conditional. With a `Tail` continuation the
    /// branches are simply specialized in tail position (Fig. 3). With an
    /// ordinary continuation, naively duplicating it into both branches —
    /// as Fig. 3 does — makes residual code exponential in the number of
    /// sequential dynamic conditionals, so a *join point* is inserted
    /// instead: `(let ((j (λ (r) K[r]))) (if t (j …) (j …)))`, the same
    /// device the stock A-normalizer uses. It is built with
    /// [`CodeBuilder::join`] once both branches are done, so the object
    /// backend can compile `K[r]` as a block of the enclosing template.
    fn residual_if(
        &mut self,
        test: Resid<B::Triv>,
        then_ip: u32,
        els_ip: u32,
        env: &PEnv<B>,
        k: Kont<'p, B>,
    ) -> Result<RCode<B>, PeError> {
        match k {
            Kont::Tail => {
                let then = self.spec(then_ip, env, Kont::Tail)?;
                let els = self.spec(els_ip, env, Kont::Tail)?;
                let mut fv = test.fv;
                fv.union_with(&then.fv);
                fv.union_with(&els.fv);
                Ok(RCode {
                    code: self.builder.if_(test.triv, then.code, els.code),
                    fv,
                })
            }
            Kont::Op(f) => {
                let r = self.gensym.fresh("r");
                let rv = self.dyn_var(&r);
                let jcode = f(self, rv)?;
                let jname = self.gensym.fresh("join");
                let jn = jname;
                let jump = Kont::op(move |s: &mut Spec<'p, B>, v: SVal<B>| {
                    let tr = s.triv_of(v)?;
                    let jv = s.builder.var(&jn);
                    let serious = s.builder.call(jv, vec![tr.triv]);
                    let mut fv = tr.fv;
                    fv.insert(jn);
                    Ok(RCode {
                        code: s.builder.tail(serious),
                        fv,
                    })
                });
                let then = self.spec(then_ip, env, jump.clone())?;
                let els = self.spec(els_ip, env, jump)?;
                let mut fv = test.fv;
                fv.union_with(&then.fv.without(&jname));
                fv.union_with(&els.fv.without(&jname));
                fv.union_with(&jcode.fv.without(&r));
                let iff = self.builder.if_(test.triv, then.code, els.code);
                Ok(RCode {
                    code: self.builder.join(&jname, &r, jcode.code, iff),
                    fv,
                })
            }
        }
    }

    // ----- the specializer proper (Fig. 3) ------------------------------

    /// Specializes the staged expression at `ip` in environment `env`,
    /// delivering the result to `k`.
    pub fn spec(&mut self, ip: u32, env: &PEnv<B>, k: Kont<'p, B>) -> Result<RCode<B>, PeError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(PeError::DepthLimit {
                limit: self.max_depth,
                unfolds: self.stats.unfolds,
            });
        }
        if let Err(l) = self.deadline.check_every(&mut self.ticks, 4096) {
            self.depth -= 1;
            return Err(PeError::Limit(l));
        }
        let result = self.spec_inner(ip, env, k);
        self.depth -= 1;
        result
    }

    fn spec_inner(&mut self, ip: u32, env: &PEnv<B>, k: Kont<'p, B>) -> Result<RCode<B>, PeError> {
        match self.instr(ip)? {
            GenInstr::Const(c) => {
                let d = self.const_at(*c)?.clone();
                self.apply_kont(&k, SVal::Data(d))
            }
            GenInstr::Var { name, .. } => {
                let v = env.lookup(name).ok_or_else(|| {
                    PeError::Internal(format!("unbound variable `{name}` at specialization time"))
                })?;
                self.apply_kont(&k, v)
            }
            GenInstr::Global(g) => self.apply_kont(&k, SVal::FnRef(*g)),
            GenInstr::Unbound(x) => Err(PeError::Internal(format!(
                "unbound variable `{x}` at specialization time"
            ))),
            GenInstr::Lift => self.spec(
                ip + 1,
                env,
                Kont::op(move |s, v| {
                    let r = s.triv_of(v)?;
                    s.apply_kont(&k, SVal::Dyn(r))
                }),
            ),
            GenInstr::Clo(l) => {
                let clo = SVal::Clo(Arc::new(PClosure {
                    lam: *l,
                    env: env.clone(),
                }));
                self.apply_kont(&k, clo)
            }
            GenInstr::LamD(l) => {
                let lam = self.lam(*l)?;
                let fresh: Vec<Symbol> = lam
                    .params
                    .iter()
                    .map(|p| self.gensym.fresh(p.as_str()))
                    .collect();
                let mut binds = Vec::with_capacity(fresh.len());
                for (p, f) in lam.params.iter().zip(&fresh) {
                    binds.push((*p, self.dyn_var(f)));
                }
                let inner = env.extend_many(binds);
                let body = self.spec(lam.body, &inner, Kont::Tail)?;
                let mut frees = body.fv;
                frees.retain(|v| !fresh.contains(v));
                let triv = self
                    .builder
                    .lambda(&lam.name, &fresh, frees.as_slice(), body.code);
                self.apply_kont(
                    &k,
                    SVal::Dyn(Resid {
                        triv,
                        fv: frees,
                        simple: false,
                    }),
                )
            }
            GenInstr::IfS { then_, els } => {
                let (then_, els, env2) = (*then_, *els, env.clone());
                self.spec(
                    ip + 1,
                    env,
                    Kont::op(move |s, v| {
                        let truthy = match &v {
                            SVal::Data(d) => d.is_truthy(),
                            SVal::Clo(_) | SVal::FnRef(_) => true,
                            // A "static" test can deliver residual code
                            // when it sits downstream of a residualized
                            // `error` path; fall back to a residual
                            // conditional.
                            SVal::Dyn(r) => {
                                let tr = r.clone();
                                return s.residual_if(tr, then_, els, &env2, k.clone());
                            }
                        };
                        let branch = if truthy { then_ } else { els };
                        s.spec(branch, &env2, k.clone())
                    }),
                )
            }
            GenInstr::IfD { then_, els } => {
                let (then_, els, env2) = (*then_, *els, env.clone());
                self.spec(
                    ip + 1,
                    env,
                    Kont::op(move |s, v| {
                        let tr = s.triv_of(v)?;
                        s.residual_if(tr, then_, els, &env2, k.clone())
                    }),
                )
            }
            GenInstr::Let { name, body } => {
                let (x, body, env2) = (*name, *body, env.clone());
                self.spec(
                    ip + 1,
                    env,
                    Kont::op(move |s, v| {
                        let inner = env2.extend(x, v);
                        s.spec(body, &inner, k.clone())
                    }),
                )
            }
            GenInstr::App { args } => {
                let args: &'p [u32] = args;
                self.spec(ip + 1, env, {
                    let env2 = env.clone();
                    Kont::op(move |s, fval| {
                        let k2 = k.clone();
                        let fval2 = fval.clone();
                        s.spec_list(
                            args,
                            0,
                            env2.clone(),
                            Vec::new(),
                            Arc::new(move |s, argvals| s.apply(fval2.clone(), argvals, k2.clone())),
                        )
                    })
                })
            }
            GenInstr::AppD { args } => {
                let args: &'p [u32] = args;
                let env2 = env.clone();
                self.spec(
                    ip + 1,
                    env,
                    Kont::op(move |s, fval| {
                        let ftr = s.triv_of(fval)?;
                        let k2 = k.clone();
                        s.spec_list(
                            args,
                            0,
                            env2.clone(),
                            Vec::new(),
                            Arc::new(move |s, argvals| {
                                let mut fv = ftr.fv.clone();
                                let mut trivs = Vec::with_capacity(argvals.len());
                                for a in argvals {
                                    let r = s.triv_of(a)?;
                                    fv.union_with(&r.fv);
                                    trivs.push(r.triv);
                                }
                                let serious = s.builder.call(ftr.triv.clone(), trivs);
                                s.deliver_serious(&k2, serious, fv)
                            }),
                        )
                    }),
                )
            }
            GenInstr::Prim { prim, args } => {
                let p = *prim;
                let args: &'p [u32] = args;
                let k2 = k;
                self.spec_list(
                    args,
                    0,
                    env.clone(),
                    Vec::new(),
                    Arc::new(move |s, argvals| {
                        // `procedure?` is the one primitive meaningful on
                        // specialization-time procedures.
                        if p == Prim::ProcedureP
                            && matches!(argvals[0], SVal::Clo(_) | SVal::FnRef(_))
                        {
                            return s.apply_kont(&k2, SVal::Data(Datum::Bool(true)));
                        }
                        // A "static" primitive can receive residual code
                        // downstream of a residualized `error` path; fall
                        // back to a residual application.
                        if argvals.iter().any(|v| matches!(v, SVal::Dyn(_))) {
                            let mut fv = SymSet::new();
                            let mut trivs = Vec::with_capacity(argvals.len());
                            for a in argvals {
                                let r = s.triv_of(a)?;
                                fv.union_with(&r.fv);
                                trivs.push(r.triv);
                            }
                            let serious = s.builder.prim(p, trivs);
                            return s.deliver_serious(&k2, serious, fv);
                        }
                        let mut data = Vec::with_capacity(argvals.len());
                        for v in &argvals {
                            match v {
                                SVal::Data(d) => data.push(d.clone()),
                                SVal::Clo(c) => {
                                    let name = s.lam(c.lam)?.name;
                                    return Err(PeError::StaticPrim {
                                        prim: p,
                                        error: PrimError::TypeError {
                                            prim: p,
                                            expected: "first-order data",
                                            got: format!("#<closure {name}>"),
                                        },
                                    });
                                }
                                SVal::FnRef(g) => {
                                    let name = s.def(*g)?.name;
                                    return Err(PeError::StaticPrim {
                                        prim: p,
                                        error: PrimError::TypeError {
                                            prim: p,
                                            expected: "first-order data",
                                            got: format!("#<procedure {name}>"),
                                        },
                                    });
                                }
                                SVal::Dyn(_) => {
                                    return Err(PeError::Internal(format!(
                                        "dynamic argument to static `{p}`"
                                    )))
                                }
                            }
                        }
                        match apply_prim_datum(p, &data) {
                            Ok(d) => s.apply_kont(&k2, SVal::Data(d)),
                            // A static primitive fault under dynamic
                            // control must not abort specialization: the
                            // branch may be unreachable at run time.
                            // Residualize it — the fault then occurs at run
                            // time exactly when the code is executed.
                            Err(_) => {
                                let mut trivs = Vec::with_capacity(data.len());
                                for d in &data {
                                    trivs.push(s.builder.const_(d));
                                }
                                let serious = s.builder.prim(p, trivs);
                                s.deliver_serious(&k2, serious, SymSet::new())
                            }
                        }
                    }),
                )
            }
            GenInstr::PrimD { prim, args } => {
                let p = *prim;
                let args: &'p [u32] = args;
                let k2 = k;
                self.spec_list(
                    args,
                    0,
                    env.clone(),
                    Vec::new(),
                    Arc::new(move |s, argvals| {
                        let mut fv = SymSet::new();
                        let mut trivs = Vec::with_capacity(argvals.len());
                        for a in argvals {
                            let r = s.triv_of(a)?;
                            fv.union_with(&r.fv);
                            trivs.push(r.triv);
                        }
                        let serious = s.builder.prim(p, trivs);
                        s.deliver_serious(&k2, serious, fv)
                    }),
                )
            }
        }
    }

    /// Specializes a list of staged expressions left to right.
    fn spec_list(
        &mut self,
        args: &'p [u32],
        i: usize,
        env: PEnv<B>,
        acc: Vec<SVal<B>>,
        k: Arc<ListKontFn<'p, B>>,
    ) -> Result<RCode<B>, PeError> {
        if i == args.len() {
            return k.clone()(self, acc);
        }
        let arg = args[i];
        self.spec(
            arg,
            &env.clone(),
            Kont::op(move |s, v| {
                let mut acc2 = acc.clone();
                acc2.push(v);
                s.spec_list(args, i + 1, env.clone(), acc2, k.clone())
            }),
        )
    }

    // ----- application --------------------------------------------------

    fn apply(
        &mut self,
        fval: SVal<B>,
        args: Vec<SVal<B>>,
        k: Kont<'p, B>,
    ) -> Result<RCode<B>, PeError> {
        match fval {
            SVal::Clo(c) => {
                let lam = self.lam(c.lam)?;
                self.unfold(&lam.name, &lam.params, lam.body, c.env.clone(), args, k)
            }
            SVal::FnRef(g) => {
                let def = self.def(g)?;
                if def.memoize {
                    self.memo_call(g, def, args, k)
                } else {
                    let params: Vec<Symbol> = def.params.iter().map(|p| p.name).collect();
                    self.unfold(&def.name, &params, def.body, PEnv::empty(), args, k)
                }
            }
            SVal::Dyn(r) => {
                // The operator turned out to be residual code (conservative
                // annotation): emit a residual call.
                let mut fv = r.fv.clone();
                let mut trivs = Vec::with_capacity(args.len());
                for a in args {
                    let t = self.triv_of(a)?;
                    fv.union_with(&t.fv);
                    trivs.push(t.triv);
                }
                let serious = self.builder.call(r.triv, trivs);
                self.deliver_serious(&k, serious, fv)
            }
            SVal::Data(d) => Err(PeError::NotAProcedure(d.to_string())),
        }
    }

    /// β-reduction at specialization time: bind the arguments and
    /// specialize the body. Heavyweight dynamic arguments (compiled
    /// lambdas) are let-bound first so unfolding never duplicates code.
    fn unfold(
        &mut self,
        name: &Symbol,
        params: &[Symbol],
        body: u32,
        base_env: PEnv<B>,
        args: Vec<SVal<B>>,
        k: Kont<'p, B>,
    ) -> Result<RCode<B>, PeError> {
        if params.len() != args.len() {
            return Err(PeError::ArityMismatch {
                name: *name,
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
        // Strided: one per-unfold trace event would flood the bounded ring
        // (and cost a clock read per unfold on the hottest loop). The
        // detail word carries the running total so the trace still shows
        // unfold progress.
        if self.stats.unfolds % 256 == 1 {
            two4one_obs::event_with(two4one_obs::EventKind::Unfold, self.stats.unfolds);
        }
        let mut rebinds: Vec<(Symbol, Resid<B::Triv>)> = Vec::new();
        let mut binds = Vec::with_capacity(params.len());
        for (p, a) in params.iter().zip(args) {
            match a {
                SVal::Dyn(r) if !r.simple => {
                    let fresh = self.gensym.fresh(p.as_str());
                    let var = self.dyn_var(&fresh);
                    binds.push((*p, var));
                    rebinds.push((fresh, r));
                }
                other => {
                    binds.push((*p, other));
                }
            }
        }
        let env = base_env.extend_many(binds);
        let mut r = self.spec(body, &env, k)?;
        for (x, triv) in rebinds.into_iter().rev() {
            let mut fv = r.fv.without(&x);
            fv.union_with(&triv.fv);
            r = RCode {
                code: self.builder.let_triv(&x, triv.triv, r.code),
                fv,
            };
        }
        Ok(r)
    }

    // ----- resource checks ----------------------------------------------

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
    ///
    /// # Errors
    ///
    /// [`LimitKind::MemoEntries`] if scheduling a *new* specialization
    /// point would exceed the memo-table cap (hits on existing entries
    /// always succeed).
    fn memo_name(
        &mut self,
        def_idx: u32,
        def: &'p GenDef,
        keys: Vec<StaticKey>,
        statics: Vec<SVal<B>>,
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
        self.pending.push_back(Pending {
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
        args: Vec<SVal<B>>,
        k: Kont<'p, B>,
    ) -> Result<RCode<B>, PeError> {
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
        for (p, a) in def.params.iter().zip(args) {
            if p.dynamic {
                dyns.push(self.triv_of(a)?);
            } else {
                match a {
                    SVal::Data(ref d) => {
                        keys.push(StaticKey::Data(d.clone()));
                        statics.push(a);
                    }
                    SVal::FnRef(g) => {
                        // Keyed by the *source* name of the referenced
                        // definition so walker and gen-ext machine agree.
                        keys.push(StaticKey::Fn(self.def(g)?.name));
                        statics.push(a);
                    }
                    SVal::Clo(_) => return Err(PeError::ClosureInMemoKey(def.name)),
                    SVal::Dyn(_) => {
                        return Err(PeError::Internal(format!(
                            "dynamic argument for static parameter `{}` of `{}`",
                            p.name, def.name
                        )))
                    }
                }
            }
        }
        let res_name = self.memo_name(def_idx, def, keys, statics)?;
        let mut fv = SymSet::new();
        let mut trivs = Vec::with_capacity(dyns.len());
        for r in dyns {
            fv.union_with(&r.fv);
            trivs.push(r.triv);
        }
        let serious = self.builder.call_global(&res_name, trivs);
        self.deliver_serious(&k, serious, fv)
    }

    /// Processes the pending queue: one residual definition per distinct
    /// specialization point.
    fn drain_pending(&mut self) -> Result<(), PeError> {
        while let Some(p) = self.pending.pop_front() {
            self.spec_pending(p)?;
        }
        Ok(())
    }

    fn spec_pending(&mut self, p: Pending<B>) -> Result<(), PeError> {
        let def = self.def(p.def)?;
        let mut fresh_params = Vec::new();
        let mut statics = p.statics.into_iter();
        let mut binds = Vec::with_capacity(def.params.len());
        for param in &def.params {
            if param.dynamic {
                let fresh = self.gensym.fresh(param.name.as_str());
                let var = self.dyn_var(&fresh);
                binds.push((param.name, var));
                fresh_params.push(fresh);
            } else {
                let v = statics
                    .next()
                    .ok_or_else(|| PeError::Internal("static argument count drift".into()))?;
                binds.push((param.name, v));
            }
        }
        let env = PEnv::<B>::empty().extend_many(binds);
        let body = self.spec(def.body, &env, Kont::Tail)?;
        debug_assert!(
            body.fv.iter().all(|v| fresh_params.contains(v)),
            "residual `{}` not closed: free {:?}",
            p.res_name,
            body.fv
        );
        self.builder.define(&p.res_name, &fresh_params, body.code);
        self.stats.residual_defs += 1;
        Ok(())
    }
}
