//! The staged-code IR: generating extensions as flat bytecode.
//!
//! A [`GenProgram`] is the *second Futamura projection* artifact of this
//! system: the specializer's actions over one annotated program — unfold,
//! memo-probe, lift, residual-emit — staged into a flat instruction array
//! with operands resolved ahead of time. `two4one-pe` stages annotated
//! programs into this IR and ships two consumers: the classical
//! interpretive walker, and a gen-ext machine that executes the IR like
//! bytecode (threaded instruction pointers, slot-addressed environments,
//! explicit continuation frames) and emits the residual object image
//! directly through `two4one-compiler`'s `ObjectBuilder`.
//!
//! The IR lives in `two4one-vm` because it is a program format of the
//! virtual machine layer: it has the same obligations as [`Image`] — a
//! versioned, CRC-checked on-disk encoding (`.t4og`, see
//! [`encode_genext`] / [`decode_genext`]) so a serving process can
//! warm-start gen-exts across processes, next to its `.t4os` residual
//! snapshots.
//!
//! # Shape
//!
//! Code is one flat `Vec<GenInstr>`. Tree structure is threaded through
//! instruction pointers: composite instructions carry the ips of their
//! children, and by convention the *first* child of `Lift`, `IfS`/`IfD`,
//! `Let`, `App`/`AppD` sits at `ip + 1` (the stager emits it immediately
//! after its parent), so the hot "evaluate the operand" step is an
//! increment. Variables carry both their source name (for the walker and
//! for residual naming) and a `(up, idx)` lexical address (for the
//! machine); global references are pre-resolved to definition indices.
//!
//! [`Image`]: crate::Image

use crate::objfile::{self, ObjError, Reader};
use std::collections::HashMap;
use std::sync::Arc;
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;

/// One staged instruction. "Deliver" below means: produce a
/// specialization-time value and hand it to the current continuation.
#[derive(Debug, Clone, PartialEq)]
pub enum GenInstr {
    /// Deliver the constant `consts[i]` as static data.
    Const(u32),
    /// Deliver the value of the lexical variable `name`, which lives
    /// `up` frames out at slot `idx`.
    Var {
        /// Source name (keys the walker's environment and residual
        /// naming; the machine ignores it).
        name: Symbol,
        /// Frames outward from the innermost.
        up: u16,
        /// Slot within that frame.
        idx: u16,
    },
    /// Deliver a reference to the top-level definition `defs[i]`.
    Global(u32),
    /// A variable that is neither lexically bound nor a top-level
    /// definition. Faults *if executed* — unreachable annotated code may
    /// legally contain unbound names, so staging must not reject them.
    Unbound(Symbol),
    /// Evaluate the operand at `ip + 1`, then coerce it to residual code.
    Lift,
    /// Deliver a specialization-time closure over `lams[i]`, capturing
    /// the current environment.
    Clo(u32),
    /// Emit a residual lambda for `lams[i]`: freshen its parameters,
    /// specialize its body (at `lams[i].body`) as a new body boundary,
    /// deliver the compiled lambda.
    LamD(u32),
    /// Static conditional: test at `ip + 1`, branches at the given ips.
    IfS {
        /// Then-branch ip.
        then_: u32,
        /// Else-branch ip.
        els: u32,
    },
    /// Dynamic conditional: residualizes (with a join point when it sits
    /// in non-tail position). Test at `ip + 1`.
    IfD {
        /// Then-branch ip.
        then_: u32,
        /// Else-branch ip.
        els: u32,
    },
    /// `let`: right-hand side at `ip + 1`, body at `body`, binding
    /// `name` in a one-slot frame.
    Let {
        /// The bound name.
        name: Symbol,
        /// Body ip.
        body: u32,
    },
    /// Static application: operator at `ip + 1`, arguments at `args`.
    App {
        /// Argument ips, in order.
        args: Box<[u32]>,
    },
    /// Dynamic application: residualizes a call.
    AppD {
        /// Argument ips, in order.
        args: Box<[u32]>,
    },
    /// Static primitive application.
    Prim {
        /// The primitive.
        prim: Prim,
        /// Argument ips, in order.
        args: Box<[u32]>,
    },
    /// Dynamic primitive application: residualizes.
    PrimD {
        /// The primitive.
        prim: Prim,
        /// Argument ips, in order.
        args: Box<[u32]>,
    },
}

/// A staged lambda (static or dynamic use decided by the instruction
/// referencing it).
#[derive(Debug, Clone, PartialEq)]
pub struct GenLam {
    /// Name hint for residual templates.
    pub name: Symbol,
    /// Parameters, in binding order (one environment frame, or none when
    /// empty).
    pub params: Vec<Symbol>,
    /// Body ip.
    pub body: u32,
}

/// A parameter of a staged definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GenParam {
    /// The name.
    pub name: Symbol,
    /// True for run-time (dynamic) parameters.
    pub dynamic: bool,
}

/// A staged top-level definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GenDef {
    /// The source-level name.
    pub name: Symbol,
    /// Parameters with binding times, in order.
    pub params: Vec<GenParam>,
    /// True when calls are residualized per static tuple (memoized);
    /// false when they are unfolded.
    pub memoize: bool,
    /// Body ip.
    pub body: u32,
    /// Ip of the *generic* (all-dynamic) body: the same source with every
    /// annotation stripped to its dynamic form, staged ahead of time so
    /// graceful fallback needs no re-staging.
    pub generic: u32,
}

/// A staged generating extension: the complete specializer program for
/// one annotated source program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenProgram {
    /// Constant pool.
    pub consts: Vec<Datum>,
    /// Flat instruction array.
    pub code: Vec<GenInstr>,
    /// Lambda table.
    pub lams: Vec<GenLam>,
    /// Definition table.
    pub defs: Vec<GenDef>,
    index: HashMap<Symbol, u32>,
}

impl GenProgram {
    /// Assembles a program and builds the name index (first definition of
    /// a name wins, mirroring `AProgram::def`).
    pub fn new(
        consts: Vec<Datum>,
        code: Vec<GenInstr>,
        lams: Vec<GenLam>,
        defs: Vec<GenDef>,
    ) -> Self {
        let mut index = HashMap::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            index.entry(d.name).or_insert(i as u32);
        }
        GenProgram {
            consts,
            code,
            lams,
            defs,
            index,
        }
    }

    /// Resolves a definition name to its index.
    pub fn lookup(&self, name: &Symbol) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The instruction at `ip`, if in range.
    pub fn at(&self, ip: u32) -> Option<&GenInstr> {
        self.code.get(ip as usize)
    }
}

// ----- serialization (`.t4og`) ----------------------------------------

const MAGIC: &[u8; 8] = b"t4ogenx\0";
const VERSION: u32 = 1;

/// Serializes a gen-ext program and its entry name to `.t4og` bytes:
/// magic, version, CRC-32 of the payload, then the tables.
pub fn encode_genext(prog: &GenProgram, entry: &Symbol) -> Vec<u8> {
    objfile::sealed(MAGIC, VERSION, |out| {
        objfile::put_sym(out, entry);
        objfile::put_u32(out, prog.consts.len() as u32);
        for d in &prog.consts {
            objfile::put_datum(out, d);
        }
        objfile::put_u32(out, prog.code.len() as u32);
        for i in &prog.code {
            put_geninstr(out, i);
        }
        objfile::put_u32(out, prog.lams.len() as u32);
        for l in &prog.lams {
            objfile::put_sym(out, &l.name);
            objfile::put_u32(out, l.params.len() as u32);
            for p in &l.params {
                objfile::put_sym(out, p);
            }
            objfile::put_u32(out, l.body);
        }
        objfile::put_u32(out, prog.defs.len() as u32);
        for d in &prog.defs {
            objfile::put_sym(out, &d.name);
            objfile::put_u32(out, d.params.len() as u32);
            for p in &d.params {
                objfile::put_sym(out, &p.name);
                out.push(u8::from(p.dynamic));
            }
            out.push(u8::from(d.memoize));
            objfile::put_u32(out, d.body);
            objfile::put_u32(out, d.generic);
        }
    })
}

fn put_ips(out: &mut Vec<u8>, args: &[u32]) {
    objfile::put_u32(out, args.len() as u32);
    for a in args {
        objfile::put_u32(out, *a);
    }
}

fn put_geninstr(out: &mut Vec<u8>, i: &GenInstr) {
    match i {
        GenInstr::Const(k) => {
            out.push(0);
            objfile::put_u32(out, *k);
        }
        GenInstr::Var { name, up, idx } => {
            out.push(1);
            objfile::put_sym(out, name);
            objfile::put_u16(out, *up);
            objfile::put_u16(out, *idx);
        }
        GenInstr::Global(g) => {
            out.push(2);
            objfile::put_u32(out, *g);
        }
        GenInstr::Unbound(x) => {
            out.push(3);
            objfile::put_sym(out, x);
        }
        GenInstr::Lift => out.push(4),
        GenInstr::Clo(l) => {
            out.push(5);
            objfile::put_u32(out, *l);
        }
        GenInstr::LamD(l) => {
            out.push(6);
            objfile::put_u32(out, *l);
        }
        GenInstr::IfS { then_, els } => {
            out.push(7);
            objfile::put_u32(out, *then_);
            objfile::put_u32(out, *els);
        }
        GenInstr::IfD { then_, els } => {
            out.push(8);
            objfile::put_u32(out, *then_);
            objfile::put_u32(out, *els);
        }
        GenInstr::Let { name, body } => {
            out.push(9);
            objfile::put_sym(out, name);
            objfile::put_u32(out, *body);
        }
        GenInstr::App { args } => {
            out.push(10);
            put_ips(out, args);
        }
        GenInstr::AppD { args } => {
            out.push(11);
            put_ips(out, args);
        }
        GenInstr::Prim { prim, args } => {
            out.push(12);
            objfile::put_str(out, prim.name());
            put_ips(out, args);
        }
        GenInstr::PrimD { prim, args } => {
            out.push(13);
            objfile::put_str(out, prim.name());
            put_ips(out, args);
        }
    }
}

fn read_ips(r: &mut Reader<'_>) -> Result<Box<[u32]>, ObjError> {
    let n = r.vec_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out.into_boxed_slice())
}

fn read_prim(r: &mut Reader<'_>) -> Result<Prim, ObjError> {
    let name = r.str()?;
    Prim::from_name(name).ok_or_else(|| ObjError::BadPrim(name.to_string()))
}

fn read_geninstr(r: &mut Reader<'_>) -> Result<GenInstr, ObjError> {
    Ok(match r.u8()? {
        0 => GenInstr::Const(r.u32()?),
        1 => GenInstr::Var {
            name: r.sym()?,
            up: r.u16()?,
            idx: r.u16()?,
        },
        2 => GenInstr::Global(r.u32()?),
        3 => GenInstr::Unbound(r.sym()?),
        4 => GenInstr::Lift,
        5 => GenInstr::Clo(r.u32()?),
        6 => GenInstr::LamD(r.u32()?),
        7 => GenInstr::IfS {
            then_: r.u32()?,
            els: r.u32()?,
        },
        8 => GenInstr::IfD {
            then_: r.u32()?,
            els: r.u32()?,
        },
        9 => GenInstr::Let {
            name: r.sym()?,
            body: r.u32()?,
        },
        10 => GenInstr::App { args: read_ips(r)? },
        11 => GenInstr::AppD { args: read_ips(r)? },
        12 => GenInstr::Prim {
            prim: read_prim(r)?,
            args: read_ips(r)?,
        },
        13 => GenInstr::PrimD {
            prim: read_prim(r)?,
            args: read_ips(r)?,
        },
        t => return Err(ObjError::BadTag("geninstr", t)),
    })
}

/// Deserializes a `.t4og` gen-ext file into the program and its entry
/// name. Validates the CRC and that every instruction pointer, constant
/// index, lambda index, and definition index is in range, so a corrupt
/// file is rejected before anything executes it.
///
/// # Errors
///
/// Returns an [`ObjError`] on malformed input.
pub fn decode_genext(bytes: &[u8]) -> Result<(Arc<GenProgram>, Symbol), ObjError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION)?;
    let entry = r.sym()?;
    let nconsts = r.vec_len()?;
    let mut consts = Vec::with_capacity(nconsts);
    for _ in 0..nconsts {
        consts.push(r.datum()?);
    }
    let ncode = r.vec_len()?;
    let mut code = Vec::with_capacity(ncode);
    for _ in 0..ncode {
        code.push(read_geninstr(&mut r)?);
    }
    let nlams = r.vec_len()?;
    let mut lams = Vec::with_capacity(nlams);
    for _ in 0..nlams {
        let name = r.sym()?;
        let nparams = r.vec_len()?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            params.push(r.sym()?);
        }
        let body = r.u32()?;
        lams.push(GenLam { name, params, body });
    }
    let ndefs = r.vec_len()?;
    let mut defs = Vec::with_capacity(ndefs);
    for _ in 0..ndefs {
        let name = r.sym()?;
        let nparams = r.vec_len()?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            let name = r.sym()?;
            let dynamic = r.u8()? != 0;
            params.push(GenParam { name, dynamic });
        }
        let memoize = r.u8()? != 0;
        let body = r.u32()?;
        let generic = r.u32()?;
        defs.push(GenDef {
            name,
            params,
            memoize,
            body,
            generic,
        });
    }
    if r.remaining() != 0 {
        return Err(ObjError::TrailingBytes(r.remaining()));
    }
    let prog = GenProgram::new(consts, code, lams, defs);
    validate(&prog)?;
    Ok((Arc::new(prog), entry))
}

/// Structural validation: every cross-reference lands in range.
fn validate(p: &GenProgram) -> Result<(), ObjError> {
    let ncode = p.code.len() as u32;
    let ip_ok = |ip: u32| ip < ncode;
    let bad = || ObjError::BadTag("genref", 0xff);
    for (at, i) in p.code.iter().enumerate() {
        let at = at as u32;
        // Instructions whose first child sits at `ip + 1` need a successor.
        let needs_next = matches!(
            i,
            GenInstr::Lift
                | GenInstr::IfS { .. }
                | GenInstr::IfD { .. }
                | GenInstr::Let { .. }
                | GenInstr::App { .. }
                | GenInstr::AppD { .. }
        );
        if needs_next && !ip_ok(at + 1) {
            return Err(bad());
        }
        match i {
            GenInstr::Const(k) => {
                if *k as usize >= p.consts.len() {
                    return Err(bad());
                }
            }
            GenInstr::Global(g) => {
                if *g as usize >= p.defs.len() {
                    return Err(bad());
                }
            }
            GenInstr::Clo(l) | GenInstr::LamD(l) => {
                if *l as usize >= p.lams.len() {
                    return Err(bad());
                }
            }
            GenInstr::IfS { then_, els } | GenInstr::IfD { then_, els } => {
                if !ip_ok(*then_) || !ip_ok(*els) {
                    return Err(bad());
                }
            }
            GenInstr::Let { body, .. } => {
                if !ip_ok(*body) {
                    return Err(bad());
                }
            }
            GenInstr::App { args }
            | GenInstr::AppD { args }
            | GenInstr::Prim { args, .. }
            | GenInstr::PrimD { args, .. } => {
                if args.iter().any(|a| !ip_ok(*a)) {
                    return Err(bad());
                }
            }
            GenInstr::Var { .. } | GenInstr::Unbound(_) | GenInstr::Lift => {}
        }
    }
    for l in &p.lams {
        if !ip_ok(l.body) {
            return Err(bad());
        }
    }
    for d in &p.defs {
        if !ip_ok(d.body) || !ip_ok(d.generic) {
            return Err(bad());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GenProgram {
        let x = Symbol::new("x");
        let f = Symbol::new("f");
        GenProgram::new(
            vec![Datum::Int(7)],
            vec![
                GenInstr::IfS { then_: 2, els: 3 },
                GenInstr::Const(0),
                GenInstr::Var {
                    name: x,
                    up: 0,
                    idx: 0,
                },
                GenInstr::PrimD {
                    prim: Prim::Add,
                    args: Box::new([2, 1]),
                },
            ],
            vec![GenLam {
                name: Symbol::new("l"),
                params: vec![x],
                body: 2,
            }],
            vec![GenDef {
                name: f,
                params: vec![GenParam {
                    name: x,
                    dynamic: true,
                }],
                memoize: false,
                body: 0,
                generic: 3,
            }],
        )
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let entry = Symbol::new("f");
        let bytes = encode_genext(&p, &entry);
        let (q, e) = decode_genext(&bytes).unwrap();
        assert_eq!(e, entry);
        assert_eq!(*q, p);
        assert_eq!(q.lookup(&entry), Some(0));
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let p = sample();
        let mut bytes = encode_genext(&p, &Symbol::new("f"));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_genext(&bytes),
            Err(ObjError::BadChecksum { .. })
        ));
        assert!(matches!(
            decode_genext(&bytes[..4]),
            Err(ObjError::BadMagic) | Err(ObjError::Truncated)
        ));
    }

    #[test]
    fn out_of_range_refs_rejected() {
        let mut p = sample();
        p.defs[0].body = 99;
        let bytes = encode_genext(&p, &Symbol::new("f"));
        assert!(decode_genext(&bytes).is_err());
    }

    #[test]
    fn first_definition_of_a_name_wins() {
        let f = Symbol::new("f");
        let mk = |body| GenDef {
            name: f,
            params: vec![],
            memoize: false,
            body,
            generic: 0,
        };
        let p = GenProgram::new(
            vec![],
            vec![GenInstr::Unbound(f), GenInstr::Unbound(f)],
            vec![],
            vec![mk(0), mk(1)],
        );
        assert_eq!(p.lookup(&f), Some(0));
        assert_eq!(p.at(1), Some(&GenInstr::Unbound(f)));
        assert_eq!(p.at(2), None);
    }
}
