//! Object-file serialization for [`Image`]s.
//!
//! The point of generating object code is keeping it; this module gives
//! templates a compact, versioned binary encoding so generated code can be
//! written to disk and loaded back without recompilation — the moral
//! equivalent of Scheme 48's heap images for our templates.
//!
//! The format is deliberately simple: a magic/version header, a CRC-32
//! of the payload, then a length-prefixed tree encoding of templates
//! (instructions, constant data, global names, sub-templates). Everything
//! is little-endian; symbols and strings are UTF-8 with `u32` length
//! prefixes. Constant data use the workspace's one data encoding,
//! [`two4one_syntax::codec`], which also keys the serving layer's cache.
//!
//! # Integrity
//!
//! Version 2 of the format adds a CRC-32 (IEEE 802.3 polynomial) over the
//! payload, stored right after the version word. [`decode`] verifies it
//! before touching the payload, so a bit-flipped or truncated `.t4o` file
//! is rejected with [`ObjError::BadChecksum`] (or
//! [`ObjError::Truncated`]) instead of being structurally misparsed.
//! [`crc32`] is zlib's CRC-32 and the checksum of every other format too
//! (`.t4og`, `.t4os` records, wire frames); it folds eight bytes per step
//! through tables built at compile time, because a warm object fetch
//! checksums its bytes up to four times.
//! Version 3 adds the in-place instruction forms (tags 19–25: a
//! primitive applied to one local, two locals, or a local and a constant,
//! with its result in `val` or bound as a local, and a branch on a
//! local). Tags 14–18 belonged to superinstructions that were retired and
//! stay unused. Files of versions 1 and 2 and unknown future versions are
//! rejected with [`ObjError::BadVersion`]; regenerate object files with
//! the current toolchain. Decoding additionally validates every length
//! prefix against the bytes actually remaining, so hostile counts cannot
//! trigger huge up-front allocations.

use crate::{Image, Instr, Template};
use std::fmt;
use std::sync::Arc;
use two4one_syntax::codec::{self, DecodeError};
use two4one_syntax::datum::Datum;
use two4one_syntax::prim::Prim;
use two4one_syntax::symbol::Symbol;

const MAGIC: &[u8; 8] = b"two4one\0";
/// Current object-file format version. Version 2 added the payload
/// CRC-32, version 3 the in-place instruction forms; files of earlier
/// versions are rejected.
const VERSION: u32 = 3;

/// Computes the CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`)
/// of `bytes` — the same function as zlib's `crc32`, and the one checksum
/// of every format: `.t4o`/`.t4og` files, `.t4os` snapshot records and
/// binary wire frames.
///
/// Slice-by-8: each step folds eight input bytes through eight 256-entry
/// tables built at compile time, and a tail of fewer than eight bytes
/// goes through the first table a byte at a time. The result is the
/// bit-at-a-time definition's, which the tests keep as the oracle.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// the reflected polynomial; `CRC_TABLES[k][b]` is that value run through
/// `k` further zero bytes, so one lookup per table advances eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Errors produced when decoding an object file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjError {
    /// Not a two4one object file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The payload checksum did not match.
    BadChecksum { stored: u32, computed: u32 },
    /// Input ended prematurely.
    Truncated,
    /// An unknown tag byte.
    BadTag(&'static str, u8),
    /// An unknown primitive name.
    BadPrim(String),
    /// Malformed UTF-8 in a symbol or string.
    BadUtf8,
    /// Trailing bytes after the image.
    TrailingBytes(usize),
    /// Pair or sub-template nesting exceeded the decoder's depth bound.
    TooDeep,
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::BadMagic => write!(f, "not a two4one object file"),
            ObjError::BadVersion(v) => write!(
                f,
                "unsupported object version {v} (this build reads version \
                 {VERSION}; regenerate the file with the current toolchain)"
            ),
            ObjError::BadChecksum { stored, computed } => write!(
                f,
                "object file corrupt: checksum {computed:#010x} does not \
                 match stored {stored:#010x}"
            ),
            ObjError::Truncated => write!(f, "object file truncated"),
            ObjError::BadTag(what, t) => write!(f, "bad {what} tag {t:#x}"),
            ObjError::BadPrim(n) => write!(f, "unknown primitive `{n}`"),
            ObjError::BadUtf8 => write!(f, "malformed UTF-8"),
            ObjError::TrailingBytes(n) => write!(f, "{n} trailing byte(s)"),
            ObjError::TooDeep => write!(f, "object file nesting too deep"),
        }
    }
}

impl std::error::Error for ObjError {}

impl From<DecodeError> for ObjError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => ObjError::Truncated,
            DecodeError::BadTag(what, t) => ObjError::BadTag(what, t),
            DecodeError::BadUtf8 => ObjError::BadUtf8,
            DecodeError::TooDeep => ObjError::TooDeep,
        }
    }
}

/// Byte offset of the payload: magic (8) + version (4) + crc (4).
const HEADER_LEN: usize = 16;

/// Serializes an image to bytes.
pub fn encode(image: &Image) -> Vec<u8> {
    sealed(MAGIC, VERSION, |out| {
        put_sym(out, &image.entry);
        put_u32(out, image.templates.len() as u32);
        for (name, t) in &image.templates {
            put_sym(out, name);
            put_template(out, t);
        }
    })
}

/// Deserializes an image from bytes.
///
/// # Errors
///
/// Returns an [`ObjError`] on malformed input.
pub fn decode(bytes: &[u8]) -> Result<Image, ObjError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION)?;
    let entry = r.sym()?;
    let n = r.vec_len()?;
    let mut templates = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.sym()?;
        let t = r.template()?;
        templates.push((name, t));
    }
    if r.remaining() != 0 {
        return Err(ObjError::TrailingBytes(r.remaining()));
    }
    Ok(Image { templates, entry })
}

/// Writes a checked file: `magic`, `version`, then the CRC-32 of the
/// payload `write` appends — the prefix every `.t4o` and `.t4og` file
/// starts with, and [`Reader::open`] checks.
pub(crate) fn sealed(magic: &[u8; 8], version: u32, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    put_u32(&mut out, 0); // checksum placeholder, patched below
    write(&mut out);
    let crc = crc32(&out[HEADER_LEN..]);
    out[12..16].copy_from_slice(&crc.to_le_bytes());
    out
}

// ----- encoding -------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes `s` behind its `u32` byte length: the string encoding of every
/// binary format, read back by [`Reader::str`].
pub use two4one_syntax::codec::put_str;

/// Writes a constant in the one data encoding, [`codec`].
pub(crate) use two4one_syntax::codec::put_datum;

pub(crate) fn put_sym(out: &mut Vec<u8>, s: &Symbol) {
    put_str(out, s.as_str());
}

fn put_instr(out: &mut Vec<u8>, i: &Instr) {
    match i {
        Instr::Const(k) => {
            out.push(0);
            put_u16(out, *k);
        }
        Instr::Global(g) => {
            out.push(1);
            put_u16(out, *g);
        }
        Instr::Local(n) => {
            out.push(2);
            put_u16(out, *n);
        }
        Instr::Captured(n) => {
            out.push(3);
            put_u16(out, *n);
        }
        Instr::Push => out.push(4),
        Instr::Bind => out.push(5),
        Instr::Trim(n) => {
            out.push(6);
            put_u16(out, *n);
        }
        Instr::MakeClosure { template, nfree } => {
            out.push(7);
            put_u16(out, *template);
            put_u16(out, *nfree);
        }
        Instr::Call { nargs } => {
            out.push(8);
            out.push(*nargs);
        }
        Instr::TailCall { nargs } => {
            out.push(9);
            out.push(*nargs);
        }
        Instr::Return => out.push(10),
        Instr::Jump(t) => {
            out.push(11);
            put_u32(out, *t);
        }
        Instr::JumpIfFalse(t) => {
            out.push(12);
            put_u32(out, *t);
        }
        Instr::Prim { prim, nargs } => {
            out.push(13);
            put_str(out, prim.name());
            out.push(*nargs);
        }
        Instr::PrimLocal { prim, a } => put_prim(out, 19, *prim, &[*a]),
        Instr::PrimLocalLocal { prim, a, b } => put_prim(out, 20, *prim, &[*a, *b]),
        Instr::PrimLocalConst { prim, a, k } => put_prim(out, 21, *prim, &[*a, *k]),
        Instr::PrimLocalBind { prim, a } => put_prim(out, 22, *prim, &[*a]),
        Instr::PrimLocalLocalBind { prim, a, b } => put_prim(out, 23, *prim, &[*a, *b]),
        Instr::PrimLocalConstBind { prim, a, k } => put_prim(out, 24, *prim, &[*a, *k]),
        Instr::JumpIfFalseLocal { slot, target } => {
            out.push(25);
            put_u16(out, *slot);
            put_u32(out, *target);
        }
    }
}

/// Writes an in-place primitive: its tag, the primitive's name, then the
/// slot or constant index of each operand.
fn put_prim(out: &mut Vec<u8>, tag: u8, prim: Prim, operands: &[u16]) {
    out.push(tag);
    put_str(out, prim.name());
    for &o in operands {
        put_u16(out, o);
    }
}

fn put_template(out: &mut Vec<u8>, t: &Template) {
    put_sym(out, &t.name);
    out.push(t.arity);
    put_u16(out, t.nfree);
    put_u32(out, t.code.len() as u32);
    for i in &t.code {
        put_instr(out, i);
    }
    put_u32(out, t.consts.len() as u32);
    for d in &t.consts {
        put_datum(out, d);
    }
    put_u32(out, t.globals.len() as u32);
    for g in &t.globals {
        put_sym(out, g);
    }
    put_u32(out, t.templates.len() as u32);
    for sub in &t.templates {
        put_template(out, sub);
    }
}

// ----- decoding -------------------------------------------------------

/// Maximum nesting of sub-templates and of the lists in their constants
/// while decoding (a list's length is not nesting). Bounds the Rust stack
/// of whatever walks the decoded image against hostile deeply-nested
/// encodings; real images are nowhere near this deep.
const MAX_DECODE_DEPTH: usize = 8_192;

/// A bounds-checked little-endian reader: every binary format is read
/// through it — `.t4o` and `.t4og` files, `.t4os` snapshot records and
/// wire payloads. No accessor runs past the end of the input: each
/// returns [`ObjError::Truncated`] instead, and a length or count is
/// checked against the bytes remaining before anything is allocated.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks the prefix [`sealed`] writes — `magic`, `version`, and the
    /// CRC-32 of the rest — and returns a reader at the payload after it:
    /// [`ObjError::BadMagic`], [`ObjError::BadVersion`] or
    /// [`ObjError::BadChecksum`] otherwise, or [`ObjError::Truncated`]
    /// when `bytes` is shorter than the prefix.
    pub(crate) fn open(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<Self, ObjError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != magic {
            return Err(ObjError::BadMagic);
        }
        let found = r.u32()?;
        if found != version {
            return Err(ObjError::BadVersion(found));
        }
        let stored = r.u32()?;
        let computed = crc32(&bytes[HEADER_LEN..]);
        if stored != computed {
            return Err(ObjError::BadChecksum { stored, computed });
        }
        Ok(r)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ObjError> {
        if n > self.remaining() {
            return Err(ObjError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ObjError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A byte.
    pub fn u8(&mut self) -> Result<u8, ObjError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ObjError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ObjError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ObjError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u32` element count, rejecting counts larger than the
    /// bytes remaining (every encoded element occupies at least one
    /// byte). This bounds `Vec::with_capacity` by the input size, so a
    /// corrupt count cannot force a huge allocation.
    pub(crate) fn vec_len(&mut self) -> Result<usize, ObjError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(ObjError::Truncated);
        }
        Ok(n)
    }

    /// A string written by [`put_str`], borrowed from the input;
    /// [`ObjError::BadUtf8`] when its bytes are not UTF-8.
    pub fn str(&mut self) -> Result<&'a str, ObjError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| ObjError::BadUtf8)
    }

    pub(crate) fn sym(&mut self) -> Result<Symbol, ObjError> {
        Ok(Symbol::new(self.str()?))
    }

    /// A constant written by [`put_datum`]: lists may nest as deep as the
    /// sub-templates around it leave room for, and be of any length.
    pub(crate) fn datum(&mut self) -> Result<Datum, ObjError> {
        let room = MAX_DECODE_DEPTH.saturating_sub(self.depth);
        Ok(codec::get_datum(self.bytes, &mut self.pos, room)?)
    }

    fn instr(&mut self) -> Result<Instr, ObjError> {
        Ok(match self.u8()? {
            0 => Instr::Const(self.u16()?),
            1 => Instr::Global(self.u16()?),
            2 => Instr::Local(self.u16()?),
            3 => Instr::Captured(self.u16()?),
            4 => Instr::Push,
            5 => Instr::Bind,
            6 => Instr::Trim(self.u16()?),
            7 => Instr::MakeClosure {
                template: self.u16()?,
                nfree: self.u16()?,
            },
            8 => Instr::Call { nargs: self.u8()? },
            9 => Instr::TailCall { nargs: self.u8()? },
            10 => Instr::Return,
            11 => Instr::Jump(self.u32()?),
            12 => Instr::JumpIfFalse(self.u32()?),
            13 => Instr::Prim {
                prim: self.prim()?,
                nargs: self.u8()?,
            },
            19 => Instr::PrimLocal {
                prim: self.prim()?,
                a: self.u16()?,
            },
            20 => Instr::PrimLocalLocal {
                prim: self.prim()?,
                a: self.u16()?,
                b: self.u16()?,
            },
            21 => Instr::PrimLocalConst {
                prim: self.prim()?,
                a: self.u16()?,
                k: self.u16()?,
            },
            22 => Instr::PrimLocalBind {
                prim: self.prim()?,
                a: self.u16()?,
            },
            23 => Instr::PrimLocalLocalBind {
                prim: self.prim()?,
                a: self.u16()?,
                b: self.u16()?,
            },
            24 => Instr::PrimLocalConstBind {
                prim: self.prim()?,
                a: self.u16()?,
                k: self.u16()?,
            },
            25 => Instr::JumpIfFalseLocal {
                slot: self.u16()?,
                target: self.u32()?,
            },
            t => return Err(ObjError::BadTag("instr", t)),
        })
    }

    /// A primitive, stored by name.
    fn prim(&mut self) -> Result<Prim, ObjError> {
        let name = self.str()?;
        Prim::from_name(name).ok_or_else(|| ObjError::BadPrim(name.to_string()))
    }

    pub(crate) fn enter(&mut self) -> Result<(), ObjError> {
        self.depth += 1;
        if self.depth > MAX_DECODE_DEPTH {
            return Err(ObjError::TooDeep);
        }
        Ok(())
    }

    fn template(&mut self) -> Result<Arc<Template>, ObjError> {
        self.enter()?;
        let name = self.sym()?;
        let arity = self.u8()?;
        let nfree = self.u16()?;
        let ncode = self.vec_len()?;
        let mut code = Vec::with_capacity(ncode);
        for _ in 0..ncode {
            code.push(self.instr()?);
        }
        let nconsts = self.vec_len()?;
        let mut consts = Vec::with_capacity(nconsts);
        for _ in 0..nconsts {
            consts.push(self.datum()?);
        }
        let nglobals = self.vec_len()?;
        let mut globals = Vec::with_capacity(nglobals);
        for _ in 0..nglobals {
            globals.push(self.sym()?);
        }
        let nsubs = self.vec_len()?;
        let mut templates = Vec::with_capacity(nsubs);
        for _ in 0..nsubs {
            templates.push(self.template()?);
        }
        self.depth -= 1;
        Ok(Arc::new(Template {
            name,
            arity,
            nfree,
            code,
            consts,
            globals,
            templates,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::Machine;

    fn sample_image() -> Image {
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

        let mut outer = Asm::new(Symbol::new("mk"), 1, 0);
        let ti = outer.template_index(inner_t).unwrap();
        let label = outer.make_label();
        outer.emit(Instr::Local(0));
        outer.emit_jump_if_false(label);
        outer.attach_label(label);
        let k = outer
            .const_index(&Datum::list([Datum::Int(1), Datum::sym("two")]))
            .unwrap();
        outer.emit(Instr::Const(k)); // exercises pair/symbol encoding
        outer.emit(Instr::Local(0));
        outer.emit(Instr::Push);
        outer.emit(Instr::MakeClosure {
            template: ti,
            nfree: 1,
        });
        outer.emit(Instr::Return);
        Image {
            templates: vec![(Symbol::new("mk"), outer.finish().unwrap())],
            entry: Symbol::new("mk"),
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let image = sample_image();
        let bytes = encode(&image);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.entry, image.entry);
        assert_eq!(back.templates.len(), image.templates.len());
        for ((n1, t1), (n2, t2)) in image.templates.iter().zip(&back.templates) {
            assert_eq!(n1, n2);
            assert_eq!(t1, t2);
        }
    }

    /// One template with every in-place form, over locals and a constant.
    fn in_place_image() -> Image {
        let mut a = Asm::new(Symbol::new("f"), 2, 0);
        let k = a.const_index(&Datum::sym("k")).unwrap();
        let l = a.make_label();
        a.emit(Instr::PrimLocalBind {
            prim: Prim::NullP,
            a: 0,
        });
        a.emit(Instr::PrimLocalConstBind {
            prim: Prim::EqP,
            a: 1,
            k,
        });
        a.emit(Instr::PrimLocalLocalBind {
            prim: Prim::EqvP,
            a: 0,
            b: 1,
        });
        a.emit_jump_if_false_local(3, l);
        a.emit(Instr::PrimLocal {
            prim: Prim::Car,
            a: 0,
        });
        a.emit(Instr::Return);
        a.attach_label(l);
        a.emit(Instr::PrimLocalLocal {
            prim: Prim::Cons,
            a: 1,
            b: 0,
        });
        a.emit(Instr::Bind);
        a.emit(Instr::PrimLocalConst {
            prim: Prim::Cons,
            a: 5,
            k,
        });
        a.emit(Instr::Return);
        Image {
            templates: vec![(Symbol::new("f"), a.finish().unwrap())],
            entry: Symbol::new("f"),
        }
    }

    #[test]
    fn in_place_forms_round_trip() {
        let image = in_place_image();
        let bytes = encode(&image);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.templates[0].1, image.templates[0].1);
        assert_eq!(encode(&back), bytes);
        let ops: Vec<usize> = back.templates[0].1.code.iter().map(Instr::opcode).collect();
        assert_eq!(ops, [17, 19, 18, 20, 14, 10, 15, 5, 16, 10]);
        // The listing keeps the base mnemonics and names the operands.
        let dis = back.disassemble();
        for line in [
            "prim null?/1 local 0 → bind",
            "prim eq?/2 local 1, const k → bind",
            "prim eqv?/2 local 0, local 1 → bind",
            "jump-if-false local 3 → 6",
            "prim car/1 local 0",
            "prim cons/2 local 1, local 0",
            "prim cons/2 local 5, const k",
        ] {
            assert!(dis.contains(line), "{line} missing from\n{dis}");
        }
        let mut m = Machine::load(&back);
        let v = m.call_global(
            &Symbol::new("f"),
            vec![crate::Value::Int(1), crate::Value::Int(2)],
        );
        let expect = two4one_syntax::reader::read_one("((2 . 1) . k)").unwrap();
        assert_eq!(v.unwrap().to_datum(), Some(expect));
    }

    #[test]
    fn version_2_files_are_refused_at_the_header() {
        // Version 2 had no in-place forms; its files are regenerated, not
        // read.
        let mut bytes = encode(&in_place_image());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), ObjError::BadVersion(2));
    }

    #[test]
    fn retired_superinstruction_tags_are_rejected() {
        // Tags 14–18 once encoded fused instructions that no served image
        // carried. Each image below is hand-encoded in the layout its tag
        // used, so only the tag itself can be what `decode` rejects.
        let add = |out: &mut Vec<u8>| {
            put_str(out, Prim::Add.name());
            out.push(2);
        };
        for tag in 14u8..=18 {
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            put_u32(&mut out, VERSION);
            put_u32(&mut out, 0); // checksum placeholder
            put_sym(&mut out, &Symbol::new("f"));
            put_u32(&mut out, 1); // template count
            put_sym(&mut out, &Symbol::new("f")); // definition name
            put_sym(&mut out, &Symbol::new("f")); // template name
            out.push(1); // arity
            put_u16(&mut out, 0); // nfree
            put_u32(&mut out, 2); // code length
            out.push(tag);
            match tag {
                14 | 15 => put_u16(&mut out, 0), // local / constant slot
                16 | 17 => {
                    put_u16(&mut out, 0);
                    add(&mut out);
                }
                _ => {
                    add(&mut out);
                    put_u32(&mut out, 1); // branch target
                }
            }
            put_instr(&mut out, &Instr::Return);
            put_u32(&mut out, 1); // constants
            put_datum(&mut out, &Datum::Int(1));
            put_u32(&mut out, 0); // globals
            put_u32(&mut out, 0); // sub-templates
            let crc = crc32(&out[HEADER_LEN..]);
            out[12..16].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode(&out).unwrap_err(), ObjError::BadTag("instr", tag));
        }
    }

    #[test]
    fn symbols_travel_as_names_not_intern_ids() {
        // Object files written before the interner change (and by other
        // processes, whose interners assign different ids) must still
        // decode: the wire format stores symbol *names*. Two checks:
        // the raw bytes literally contain the names, and decoding after
        // the interner has grown (shifting any would-be id mapping)
        // resolves the same symbols.
        let image = sample_image();
        let bytes = encode(&image);
        for name in ["mk", "inner", "two"] {
            assert!(
                bytes.windows(name.len()).any(|w| w == name.as_bytes()),
                "name `{name}` not found in encoded bytes"
            );
        }
        // Grow the interner between encode and decode; ids for any fresh
        // name now differ from what an id-based format would expect.
        for i in 0..64 {
            let _ = Symbol::new(&format!("objfile-compat-shift-{i}"));
        }
        let back = decode(&bytes).unwrap();
        assert_eq!(back.entry.as_str(), "mk");
        assert_eq!(back.templates[0].0.as_str(), "mk");
        assert_eq!(back.templates[0].1.templates[0].name.as_str(), "inner");
    }

    #[test]
    fn decoded_images_run() {
        let image = sample_image();
        let back = decode(&encode(&image)).unwrap();
        let mut m = Machine::load(&back);
        let f = m
            .call_global(&Symbol::new("mk"), vec![crate::Value::Int(5)])
            .unwrap();
        let v = m.call_value(f, vec![crate::Value::Int(2)]).unwrap();
        assert_eq!(v.to_datum(), Some(Datum::Int(7)));
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let image = sample_image();
        let bytes = encode(&image);
        assert_eq!(
            decode(b"not an object file").unwrap_err(),
            ObjError::BadMagic
        );
        // Truncation and appended bytes both change the payload the CRC
        // covers, so they surface as checksum failures.
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            ObjError::BadChecksum { .. }
        ));
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            decode(&extra).unwrap_err(),
            ObjError::BadChecksum { .. }
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert_eq!(
            decode(&wrong_version).unwrap_err(),
            ObjError::BadVersion(99)
        );
    }

    #[test]
    fn checksum_catches_payload_bit_flips() {
        let bytes = encode(&sample_image());
        for pos in [HEADER_LEN, HEADER_LEN + 7, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            assert!(
                matches!(decode(&flipped).unwrap_err(), ObjError::BadChecksum { .. }),
                "flip at {pos} not caught"
            );
        }
    }

    #[test]
    fn version_1_files_are_rejected_with_guidance() {
        let mut bytes = encode(&sample_image());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err, ObjError::BadVersion(1));
        let msg = err.to_string();
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("regenerate"), "{msg}");
    }

    #[test]
    fn long_constant_lists_decode_and_deep_ones_are_bounded() {
        // A list's length is not nesting: 10,000 elements decode, where
        // counting each cdr link against the depth bound refused them.
        let image = |constant: Datum| {
            let mut asm = Asm::new(Symbol::new("k"), 0, 0);
            let k = asm.const_index(&constant).unwrap();
            asm.emit(Instr::Const(k));
            asm.emit(Instr::Return);
            Image {
                templates: vec![(Symbol::new("k"), asm.finish().unwrap())],
                entry: Symbol::new("k"),
            }
        };
        let long = Datum::list((0..10_000).map(Datum::Int).collect::<Vec<_>>());
        let bytes = encode(&image(long));
        assert_eq!(encode(&decode(&bytes).expect("a long list decodes")), bytes);
        let deep = (0..MAX_DECODE_DEPTH).fold(Datum::Nil, |d, _| Datum::list([d]));
        assert_eq!(
            decode(&encode(&image(deep))).unwrap_err(),
            ObjError::TooDeep
        );
    }

    #[test]
    fn huge_counts_do_not_allocate() {
        // A payload claiming u32::MAX templates must be rejected by the
        // length-vs-remaining-bytes check, not attempted.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, 0); // checksum placeholder
        put_sym(&mut out, &Symbol::new("main"));
        put_u32(&mut out, u32::MAX); // template count
        let crc = crc32(&out[HEADER_LEN..]);
        out[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&out).unwrap_err(), ObjError::Truncated);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC-32 by its definition, one bit at a time: the oracle for
    /// the table-driven [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_tables_agree_with_the_bitwise_definition() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // Seeded bytes, with eight spare bytes so every length can also
        // start at each misaligned offset.
        let mut rng = two4one_testkit::Rng::new(0x5eed_c3c3);
        let buf: Vec<u8> = (0..2048 + 8).map(|_| rng.below(256) as u8).collect();
        for len in 0..=2048 {
            let data = &buf[..len];
            assert_eq!(crc32(data), crc32_bitwise(data), "length {len}");
        }
        for offset in 1..8 {
            for len in (0..=2048).step_by(61) {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
        // Runs of one byte value stress single table rows.
        for byte in [0x00, 0xff, 0x80, 0x01] {
            let run = vec![byte; 1031];
            assert_eq!(crc32(&run), crc32_bitwise(&run), "run of {byte:#04x}");
        }
    }
}
