//! Staging: compiles an annotated program into the staged-code IR.
//!
//! This is the front half of the generating extension: one pass over the
//! [`AProgram`] that resolves every variable to a lexical `(up, idx)`
//! address or a definition index, flattens the tree into the instruction
//! array of [`GenProgram`], and pre-stages each definition's *generic*
//! (all-dynamic) body, from which [`crate::genrun::generic_image`] emits
//! the generic image of a request with no re-staging. The result is
//! consumed by both [`crate::walk`] (the interpretive reference) and
//! [`crate::genrun`] (the compiled gen-ext machine).
//!
//! # Scope resolution
//!
//! Lexical addresses are computed against exactly the frame shapes the
//! engines build at run time, which follow
//! [`Env::extend_many`](two4one_interp::env::Env::extend_many): a call or
//! lambda binds its whole parameter list in **one** frame, an *empty*
//! parameter list binds **no** frame, and a `let` binds a one-slot frame.
//! Duplicate names within a frame resolve to the last occurrence, the
//! shadowing order of the name-keyed environment. Definition bodies are
//! closed (they see only their parameters); unbound names compile to
//! [`GenInstr::Unbound`], which faults only if executed — unreachable
//! annotated code may legally mention unknown names.

use crate::PeError;
use std::collections::HashMap;
use std::sync::Arc;
use two4one_syntax::acs::{AExpr, ALambda, AProgram, CallPolicy, BT};
use two4one_vm::{GenDef, GenInstr, GenLam, GenParam, GenProgram};

/// Stages an annotated program into the gen-ext IR.
///
/// # Errors
///
/// [`PeError::Internal`] if a frame exceeds the IR's 16-bit slot
/// addressing (65 536 bindings in one parameter list — far beyond any
/// real program).
pub fn stage(prog: &AProgram) -> Result<Arc<GenProgram>, PeError> {
    let mut st = Stager {
        code: Vec::new(),
        consts: Vec::new(),
        lams: Vec::new(),
        defs: HashMap::new(),
        scope: Vec::new(),
    };
    // Pass 1: index definition names (first definition wins, mirroring
    // `AProgram::def`) so bodies can resolve forward references.
    for (i, d) in prog.defs.iter().enumerate() {
        st.defs.entry(d.name).or_insert(i as u32);
    }
    let mut defs = Vec::with_capacity(prog.defs.len());
    for d in &prog.defs {
        let params: Vec<GenParam> = d
            .params
            .iter()
            .map(|p| GenParam {
                name: p.name,
                dynamic: p.bt == BT::Dynamic,
            })
            .collect();
        let names: Vec<_> = params.iter().map(|p| p.name).collect();
        st.enter(&names)?;
        let body = st.emit(&d.body)?;
        let generic = st.emit(&generize(&d.body))?;
        st.leave(&names);
        defs.push(GenDef {
            name: d.name,
            params,
            memoize: d.policy == CallPolicy::Memoize,
            body,
            generic,
        });
    }
    Ok(Arc::new(GenProgram::new(st.consts, st.code, st.lams, defs)))
}

struct Stager {
    code: Vec<GenInstr>,
    consts: Vec<two4one_syntax::datum::Datum>,
    lams: Vec<GenLam>,
    defs: HashMap<two4one_syntax::symbol::Symbol, u32>,
    /// Innermost frame last; mirrors the run-time frame stack exactly.
    scope: Vec<Vec<two4one_syntax::symbol::Symbol>>,
}

impl Stager {
    /// Pushes a parameter frame — none when the list is empty, matching
    /// `Env::extend_many` on an empty iterator.
    fn enter(&mut self, names: &[two4one_syntax::symbol::Symbol]) -> Result<(), PeError> {
        if names.len() > usize::from(u16::MAX) {
            return Err(PeError::Internal(format!(
                "parameter list of {} bindings exceeds gen-ext slot addressing",
                names.len()
            )));
        }
        if !names.is_empty() {
            self.scope.push(names.to_vec());
        }
        Ok(())
    }

    fn leave(&mut self, names: &[two4one_syntax::symbol::Symbol]) {
        if !names.is_empty() {
            self.scope.pop();
        }
    }

    /// Resolves `x` to a lexical address: innermost frame first; within a
    /// frame the *last* occurrence wins (shadowing order of the
    /// name-keyed environment).
    fn resolve(&self, x: &two4one_syntax::symbol::Symbol) -> Option<(u16, u16)> {
        for (up, frame) in self.scope.iter().rev().enumerate() {
            if let Some(pos) = frame.iter().rposition(|n| n == x) {
                let up = u16::try_from(up).ok()?;
                let idx = u16::try_from(pos).ok()?;
                return Some((up, idx));
            }
        }
        None
    }

    fn push(&mut self, i: GenInstr) -> u32 {
        let at = self.code.len() as u32;
        self.code.push(i);
        at
    }

    fn const_idx(&mut self, d: &two4one_syntax::datum::Datum) -> u32 {
        let at = self.consts.len() as u32;
        self.consts.push(d.clone());
        at
    }

    fn stage_lam(&mut self, l: &ALambda) -> Result<u32, PeError> {
        let at = self.lams.len() as u32;
        self.lams.push(GenLam {
            name: l.name,
            params: l.params.clone(),
            body: 0, // patched below
        });
        self.enter(&l.params.clone())?;
        let body = self.emit(&l.body)?;
        self.leave(&l.params);
        if let Some(lam) = self.lams.get_mut(at as usize) {
            lam.body = body;
        }
        Ok(at)
    }

    fn emit_args(&mut self, args: &[Arc<AExpr>]) -> Result<Box<[u32]>, PeError> {
        let mut ips = Vec::with_capacity(args.len());
        for a in args {
            ips.push(self.emit(a)?);
        }
        Ok(ips.into_boxed_slice())
    }

    /// Emits `e`, returning its instruction pointer. Composite nodes are
    /// emitted parent-first with child ips patched in, keeping the
    /// "first child at `ip + 1`" convention.
    fn emit(&mut self, e: &AExpr) -> Result<u32, PeError> {
        Ok(match e {
            AExpr::Const(d) => {
                let k = self.const_idx(d);
                self.push(GenInstr::Const(k))
            }
            AExpr::Var(x) => match self.resolve(x) {
                Some((up, idx)) => self.push(GenInstr::Var { name: *x, up, idx }),
                None => match self.defs.get(x) {
                    Some(i) => {
                        let i = *i;
                        self.push(GenInstr::Global(i))
                    }
                    None => self.push(GenInstr::Unbound(*x)),
                },
            },
            AExpr::Lift(inner) => {
                let at = self.push(GenInstr::Lift);
                self.emit(inner)?; // lands at `at + 1`
                at
            }
            AExpr::Lam(l) => {
                let at = self.push(GenInstr::Clo(0));
                let li = self.stage_lam(l)?;
                self.code[at as usize] = GenInstr::Clo(li);
                at
            }
            AExpr::LamD(l) => {
                let at = self.push(GenInstr::LamD(0));
                let li = self.stage_lam(l)?;
                self.code[at as usize] = GenInstr::LamD(li);
                at
            }
            AExpr::If(t, c, a) => {
                let at = self.push(GenInstr::IfS { then_: 0, els: 0 });
                self.emit(t)?; // test at `at + 1`
                let then_ = self.emit(c)?;
                let els = self.emit(a)?;
                self.code[at as usize] = GenInstr::IfS { then_, els };
                at
            }
            AExpr::IfD(t, c, a) => {
                let at = self.push(GenInstr::IfD { then_: 0, els: 0 });
                self.emit(t)?;
                let then_ = self.emit(c)?;
                let els = self.emit(a)?;
                self.code[at as usize] = GenInstr::IfD { then_, els };
                at
            }
            AExpr::Let(x, rhs, body) => {
                let at = self.push(GenInstr::Let { name: *x, body: 0 });
                self.emit(rhs)?; // rhs at `at + 1`
                self.scope.push(vec![*x]);
                let body = self.emit(body);
                self.scope.pop();
                self.code[at as usize] = GenInstr::Let {
                    name: *x,
                    body: body?,
                };
                at
            }
            AExpr::App(f, args) => {
                let at = self.push(GenInstr::App { args: Box::new([]) });
                self.emit(f)?; // operator at `at + 1`
                let args = self.emit_args(args)?;
                self.code[at as usize] = GenInstr::App { args };
                at
            }
            AExpr::AppD(f, args) => {
                let at = self.push(GenInstr::AppD { args: Box::new([]) });
                self.emit(f)?;
                let args = self.emit_args(args)?;
                self.code[at as usize] = GenInstr::AppD { args };
                at
            }
            AExpr::Prim(p, args) => {
                let prim = *p;
                let at = self.push(GenInstr::Prim {
                    prim,
                    args: Box::new([]),
                });
                let args = self.emit_args(args)?;
                self.code[at as usize] = GenInstr::Prim { prim, args };
                at
            }
            AExpr::PrimD(p, args) => {
                let prim = *p;
                let at = self.push(GenInstr::PrimD {
                    prim,
                    args: Box::new([]),
                });
                let args = self.emit_args(args)?;
                self.code[at as usize] = GenInstr::PrimD { prim, args };
                at
            }
        })
    }
}

/// Strips every binding-time annotation down to its dynamic form. The
/// result specializes in one structural pass (no unfolding, no static
/// evaluation) to residual code equivalent to the unspecialized source —
/// the "generically compiled" version of the paper's terminology, of
/// which generic images are made.
fn generize(e: &AExpr) -> AExpr {
    fn garc(e: &AExpr) -> Arc<AExpr> {
        Arc::new(generize(e))
    }
    match e {
        AExpr::Const(_) | AExpr::Var(_) => e.clone(),
        // Lifting is the identity once everything is dynamic.
        AExpr::Lift(inner) => generize(inner),
        AExpr::Lam(l) | AExpr::LamD(l) => AExpr::LamD(Arc::new(ALambda {
            name: l.name,
            params: l.params.clone(),
            body: generize(&l.body),
        })),
        AExpr::If(t, c, a) | AExpr::IfD(t, c, a) => AExpr::IfD(garc(t), garc(c), garc(a)),
        AExpr::Let(x, r, b) => AExpr::Let(*x, garc(r), garc(b)),
        AExpr::App(f, args) | AExpr::AppD(f, args) => {
            AExpr::AppD(garc(f), args.iter().map(|a| garc(a)).collect())
        }
        AExpr::Prim(p, args) | AExpr::PrimD(p, args) => {
            AExpr::PrimD(*p, args.iter().map(|a| garc(a)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_syntax::acs::{ADef, AParam};
    use two4one_syntax::datum::Datum;
    use two4one_syntax::symbol::Symbol;

    fn var(n: &str) -> Arc<AExpr> {
        Arc::new(AExpr::Var(Symbol::new(n)))
    }

    #[test]
    fn resolves_lexical_addresses_and_globals() {
        let f = Symbol::new("f");
        let x = Symbol::new("x");
        let prog = AProgram {
            defs: vec![ADef {
                name: f,
                params: vec![AParam {
                    name: x,
                    bt: BT::Dynamic,
                }],
                body: AExpr::Let(
                    Symbol::new("y"),
                    Arc::new(AExpr::Const(Datum::Int(1))),
                    Arc::new(AExpr::App(var("f"), vec![var("x"), var("y"), var("zz")])),
                ),
                policy: CallPolicy::Unfold,
                result_bt: BT::Dynamic,
            }],
        };
        let gp = stage(&prog).unwrap();
        let def = &gp.defs[0];
        assert!(!def.memoize);
        // Body: Let, whose App has operator Global(f) and args x (one
        // frame out), y (innermost let frame), zz (unbound).
        let GenInstr::Let { body, .. } = &gp.code[def.body as usize] else {
            panic!("expected let")
        };
        let GenInstr::App { args } = &gp.code[*body as usize] else {
            panic!("expected app")
        };
        assert!(matches!(gp.code[*body as usize + 1], GenInstr::Global(0)));
        assert!(
            matches!(
                gp.code[args[0] as usize],
                GenInstr::Var { up: 1, idx: 0, .. }
            ),
            "x resolves one frame out"
        );
        assert!(
            matches!(
                gp.code[args[1] as usize],
                GenInstr::Var { up: 0, idx: 0, .. }
            ),
            "y resolves in the let frame"
        );
        assert!(matches!(gp.code[args[2] as usize], GenInstr::Unbound(_)));
        // The generic body is staged too, and differs from the main body.
        assert!(matches!(
            gp.code[def.generic as usize],
            GenInstr::Let { .. }
        ));
        assert_ne!(def.generic, def.body);
    }

    #[test]
    fn duplicate_params_resolve_to_last_occurrence() {
        let f = Symbol::new("f");
        let x = Symbol::new("x");
        let prog = AProgram {
            defs: vec![ADef {
                name: f,
                params: vec![
                    AParam {
                        name: x,
                        bt: BT::Dynamic,
                    },
                    AParam {
                        name: x,
                        bt: BT::Dynamic,
                    },
                ],
                body: AExpr::Var(x),
                policy: CallPolicy::Unfold,
                result_bt: BT::Dynamic,
            }],
        };
        let gp = stage(&prog).unwrap();
        assert!(matches!(
            gp.code[gp.defs[0].body as usize],
            GenInstr::Var { up: 0, idx: 1, .. }
        ));
    }

    #[test]
    fn empty_param_lists_bind_no_frame() {
        // (define (f) (let ((y 1)) ((lambda () y)))) — the nullary
        // lambda's body sees `y` at up=0 because the lambda pushed no
        // frame, exactly like `extend_many` of nothing at run time.
        let f = Symbol::new("f");
        let y = Symbol::new("y");
        let lam = Arc::new(ALambda {
            name: Symbol::new("l"),
            params: vec![],
            body: AExpr::Var(y),
        });
        let prog = AProgram {
            defs: vec![ADef {
                name: f,
                params: vec![],
                body: AExpr::Let(
                    y,
                    Arc::new(AExpr::Const(Datum::Int(1))),
                    Arc::new(AExpr::App(Arc::new(AExpr::Lam(lam)), vec![])),
                ),
                policy: CallPolicy::Unfold,
                result_bt: BT::Dynamic,
            }],
        };
        let gp = stage(&prog).unwrap();
        let body = gp.lams[0].body;
        assert!(matches!(
            gp.code[body as usize],
            GenInstr::Var { up: 0, idx: 0, .. }
        ));
    }
}
