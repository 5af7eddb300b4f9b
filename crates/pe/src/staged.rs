//! Staging: compiles an annotated program into the staged-code IR.
//!
//! This is the front half of the generating extension: one pass over the
//! [`AProgram`] that resolves every variable to a lexical `(up, idx)`
//! address or a definition index, flattens the tree into the instruction
//! array of [`GenProgram`], and pre-stages each definition's *generic*
//! (all-dynamic) body, from which [`crate::genrun::generic_image`] emits
//! the generic image of a request with no re-staging. The result is
//! consumed by both [`crate::walk`] (the interpretive reference) and
//! [`crate::genrun`] (the compiled gen-ext machine). The pass is one loop
//! over a stack of steps, so however deep the program, staging runs on
//! any thread's stack.
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
use two4one_syntax::acs::{AExpr, AProgram, CallPolicy, BT};
use two4one_syntax::symbol::Symbol;
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
        ips: Vec::new(),
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
        let body = st.emit(&d.body, false)?;
        let generic = st.emit(&d.body, true)?;
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
    defs: HashMap<Symbol, u32>,
    /// Innermost frame last; mirrors the run-time frame stack exactly.
    scope: Vec<Vec<Symbol>>,
    /// The ips of the nodes emitted so far whose parent is not finished.
    ips: Vec<u32>,
}

/// One step of [`Stager::emit`]'s loop.
enum Step<'a> {
    /// Emit a node, in its generic form when the flag is set.
    Emit(&'a AExpr, bool),
    Enter(&'a [Symbol]),
    Leave(&'a [Symbol]),
    /// Patch the node at this ip with the ips of its last `n` children.
    Finish(u32, usize),
}

impl Stager {
    /// Pushes a parameter frame — none when the list is empty, matching
    /// `Env::extend_many` on an empty iterator.
    fn enter(&mut self, names: &[Symbol]) -> Result<(), PeError> {
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

    fn leave(&mut self, names: &[Symbol]) {
        if !names.is_empty() {
            self.scope.pop();
        }
    }

    /// Resolves `x` to a lexical address: innermost frame first; within a
    /// frame the *last* occurrence wins (shadowing order of the
    /// name-keyed environment).
    fn resolve(&self, x: &Symbol) -> Option<(u16, u16)> {
        for (up, frame) in self.scope.iter().rev().enumerate() {
            if let Some(pos) = frame.iter().rposition(|n| n == x) {
                let up = u16::try_from(up).ok()?;
                let idx = u16::try_from(pos).ok()?;
                return Some((up, idx));
            }
        }
        None
    }

    /// Emits `root`, returning its instruction pointer, in one loop over
    /// a stack of [`Step`]s, so a deep program costs no Rust stack.
    /// Composite nodes are emitted parent-first and patched with their
    /// children's ips once those are emitted, keeping the "first child at
    /// `ip + 1`" convention. The `generic` form strips every annotation
    /// down to its dynamic form: it specializes in one structural pass
    /// (no unfolding, no static evaluation) to residual code equivalent
    /// to the unspecialized source — the "generically compiled" version
    /// of the paper's terminology, of which generic images are made.
    fn emit(&mut self, root: &AExpr, generic: bool) -> Result<u32, PeError> {
        let mut steps = vec![Step::Emit(root, generic)];
        while let Some(step) = steps.pop() {
            match step {
                Step::Emit(e, g) => self.node(e, g, &mut steps)?,
                Step::Enter(names) => self.enter(names)?,
                Step::Leave(names) => self.leave(names),
                Step::Finish(at, n) => self.finish(at, n),
            }
        }
        self.ips
            .pop()
            .ok_or_else(|| PeError::Internal("staging emitted no node".into()))
    }

    /// Pushes `e`'s instruction and schedules its children, the
    /// [`Step::Finish`] that patches them in last; a leaf's ip goes
    /// straight onto `ips`.
    fn node<'a>(
        &mut self,
        e: &'a AExpr,
        g: bool,
        steps: &mut Vec<Step<'a>>,
    ) -> Result<(), PeError> {
        use Step::{Emit, Enter, Finish, Leave};
        let at = self.code.len() as u32;
        let instr = match e {
            AExpr::Const(d) => {
                self.consts.push(d.clone());
                self.ips.push(at);
                GenInstr::Const(self.consts.len() as u32 - 1)
            }
            AExpr::Var(x) => {
                self.ips.push(at);
                match (self.resolve(x), self.defs.get(x)) {
                    (Some((up, idx)), _) => GenInstr::Var { name: *x, up, idx },
                    (None, Some(i)) => GenInstr::Global(*i),
                    (None, None) => GenInstr::Unbound(*x),
                }
            }
            // Lifting is the identity once everything is dynamic.
            AExpr::Lift(inner) if g => {
                steps.push(Emit(inner, true));
                return Ok(());
            }
            AExpr::Lift(inner) => {
                steps.extend([Finish(at, 1), Emit(inner, g)]);
                GenInstr::Lift
            }
            AExpr::Lam(l) | AExpr::LamD(l) => {
                let li = self.lams.len() as u32;
                self.lams.push(GenLam {
                    name: l.name,
                    params: l.params.clone(),
                    body: 0, // patched by `finish`
                });
                self.enter(&l.params)?;
                steps.extend([Finish(at, 1), Leave(&l.params), Emit(&l.body, g)]);
                match e {
                    AExpr::Lam(_) if !g => GenInstr::Clo(li),
                    _ => GenInstr::LamD(li),
                }
            }
            AExpr::If(t, c, a) | AExpr::IfD(t, c, a) => {
                steps.extend([Finish(at, 3), Emit(a, g), Emit(c, g), Emit(t, g)]);
                match e {
                    AExpr::If(..) if !g => GenInstr::IfS { then_: 0, els: 0 },
                    _ => GenInstr::IfD { then_: 0, els: 0 },
                }
            }
            AExpr::Let(x, rhs, body) => {
                let frame = std::slice::from_ref(x);
                steps.extend([
                    Finish(at, 2),
                    Leave(frame),
                    Emit(body, g),
                    Enter(frame),
                    Emit(rhs, g),
                ]);
                GenInstr::Let { name: *x, body: 0 }
            }
            AExpr::App(f, args) | AExpr::AppD(f, args) => {
                steps.push(Finish(at, 1 + args.len()));
                steps.extend(args.iter().rev().map(|a| Emit(a, g)));
                steps.push(Emit(f, g));
                let args = Box::new([]);
                match e {
                    AExpr::App(..) if !g => GenInstr::App { args },
                    _ => GenInstr::AppD { args },
                }
            }
            AExpr::Prim(prim, args) | AExpr::PrimD(prim, args) => {
                steps.push(Finish(at, args.len()));
                steps.extend(args.iter().rev().map(|a| Emit(a, g)));
                let (prim, args) = (*prim, Box::new([]));
                match e {
                    AExpr::Prim(..) if !g => GenInstr::Prim { prim, args },
                    _ => GenInstr::PrimD { prim, args },
                }
            }
        };
        self.code.push(instr);
        Ok(())
    }

    /// Patches the node at `at` with the ips of its `n` children, the
    /// last `n` on `ips`, and leaves `at` in their place.
    fn finish(&mut self, at: u32, n: usize) {
        let base = self.ips.len() - n;
        let kids = &self.ips[base..];
        match &mut self.code[at as usize] {
            GenInstr::Clo(li) | GenInstr::LamD(li) => self.lams[*li as usize].body = kids[0],
            GenInstr::IfS { then_, els } | GenInstr::IfD { then_, els } => {
                (*then_, *els) = (kids[1], kids[2]);
            }
            GenInstr::Let { body, .. } => *body = kids[1],
            GenInstr::App { args } | GenInstr::AppD { args } => *args = kids[1..].into(),
            GenInstr::Prim { args, .. } | GenInstr::PrimD { args, .. } => *args = kids.into(),
            // A lifted operand sits at `at + 1`.
            _ => {}
        }
        self.ips.truncate(base);
        self.ips.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one_syntax::acs::{ADef, ALambda, AParam};
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
    fn a_deep_program_stages_on_a_small_stack() {
        // Built and freed on a big stack: dropping the tree recurses.
        two4one_syntax::stack::with_stack(|| {
            let (f, x) = (Symbol::new("f"), Symbol::new("x"));
            let depth = 100_000;
            let body = (0..depth).fold(AExpr::Var(x), |body, _| {
                AExpr::Let(x, var("x"), Arc::new(body))
            });
            let prog = Arc::new(AProgram {
                defs: vec![ADef {
                    name: f,
                    params: vec![AParam {
                        name: x,
                        bt: BT::Dynamic,
                    }],
                    body,
                    policy: CallPolicy::Unfold,
                    result_bt: BT::Dynamic,
                }],
            });
            let shared = prog.clone();
            let staged = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || stage(&shared).map(|gp| gp.code.len()))
                .expect("spawn")
                .join()
                .expect("staged without overflowing its stack");
            // A `let` and its right-hand side per level, then the `x`
            // at the bottom; once for the body and once for its generic
            // form.
            assert_eq!(staged.expect("stages"), 2 * (2 * depth + 1));
        });
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
