//! The canonical byte encoding of data: one encoding per datum, shared by
//! every binary form that carries data — `.t4o` template constants, the
//! serving layer's cache keys (static arguments) and its `.t4os` records.
//!
//! The encoding is a pre-order walk: a tag byte per datum, then its
//! payload. A pair is its tag followed by its car and then its cdr, so the
//! list `(a b)` is `PAIR a PAIR b NIL`. Every datum's encoding is
//! self-delimiting, so a sequence of data is the concatenation of their
//! encodings, and two sequences are equal exactly when their bytes are.
//! Tags keep apart data that print alike: the symbol `|12|` a caller
//! builds and the integer `12` differ in their first byte.
//!
//! | tag | datum | payload |
//! |---|---|---|
//! | 0 | `()` | — |
//! | 1 | the unspecified value | — |
//! | 2, 3 | `#f`, `#t` | — |
//! | 4 | integer | `i64` LE |
//! | 5 | character | `u32` LE scalar value |
//! | 6 | string | `u32` LE byte length, UTF-8 |
//! | 7 | symbol | `u32` LE byte length, UTF-8 name |
//! | 8 | pair | car, then cdr |
//!
//! Both directions walk without Rust recursion. [`put_datum`] keeps the
//! pending cdrs on a stack of its own; [`get_datum`] builds each cdr chain
//! in a loop and stacks only the lists still open around the current one,
//! whose count is the datum's nesting depth, the one thing a decoder's
//! depth bound limits. The reader writes the same bytes straight from
//! source text ([`reader::scan_all_with`](crate::reader::scan_all_with)).

use crate::datum::Datum;
use crate::symbol::Symbol;
use std::fmt;

/// Tag of `()`.
pub(crate) const NIL: u8 = 0;
/// Tag of the unspecified value.
pub(crate) const UNSPEC: u8 = 1;
/// Tag of `#f`.
pub(crate) const FALSE: u8 = 2;
/// Tag of `#t`.
pub(crate) const TRUE: u8 = 3;
/// Tag of an integer.
pub(crate) const INT: u8 = 4;
/// Tag of a character.
pub(crate) const CHAR: u8 = 5;
/// Tag of a string.
pub(crate) const STR: u8 = 6;
/// Tag of a symbol.
pub(crate) const SYM: u8 = 7;
/// Tag of a pair.
pub(crate) const PAIR: u8 = 8;

/// Writes `s` behind its `u32` byte length: the string encoding of every
/// binary format.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Writes a boolean.
pub(crate) fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(if b { TRUE } else { FALSE });
}

/// Writes an integer.
pub(crate) fn put_int(out: &mut Vec<u8>, n: i64) {
    out.push(INT);
    out.extend_from_slice(&n.to_le_bytes());
}

/// Writes a character.
pub(crate) fn put_char(out: &mut Vec<u8>, c: char) {
    out.push(CHAR);
    out.extend_from_slice(&u32::from(c).to_le_bytes());
}

/// Writes a string datum with contents `s`.
pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.push(STR);
    put_str(out, s);
}

/// Writes the symbol named `name`.
pub(crate) fn put_symbol(out: &mut Vec<u8>, name: &str) {
    out.push(SYM);
    put_str(out, name);
}

/// Writes the canonical encoding of `d`.
pub fn put_datum(out: &mut Vec<u8>, d: &Datum) {
    let mut cdrs: Vec<&Datum> = Vec::new();
    let mut d = d;
    loop {
        match d {
            Datum::Pair(p) => {
                out.push(PAIR);
                cdrs.push(&p.cdr);
                d = &p.car;
                continue;
            }
            Datum::Nil => out.push(NIL),
            Datum::Unspec => out.push(UNSPEC),
            Datum::Bool(b) => put_bool(out, *b),
            Datum::Int(n) => put_int(out, *n),
            Datum::Char(c) => put_char(out, *c),
            Datum::Str(s) => put_string(out, s),
            Datum::Sym(s) => put_symbol(out, s.as_str()),
        }
        match cdrs.pop() {
            Some(next) => d = next,
            None => return,
        }
    }
}

/// The canonical encoding of a sequence of data: their encodings in turn.
pub fn encode_data(data: &[Datum]) -> Vec<u8> {
    let mut out = Vec::new();
    for d in data {
        put_datum(&mut out, d);
    }
    out
}

/// Why bytes did not decode to a datum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended inside a datum.
    Truncated,
    /// An unknown tag byte, or a character whose scalar value is no
    /// `char` (`what` names which).
    BadTag(&'static str, u8),
    /// A string or symbol that is not UTF-8.
    BadUtf8,
    /// Lists nested deeper than the decoder's bound.
    TooDeep,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded datum truncated"),
            DecodeError::BadTag(what, t) => write!(f, "bad {what} tag {t:#x}"),
            DecodeError::BadUtf8 => write!(f, "malformed UTF-8"),
            DecodeError::TooDeep => write!(f, "encoded datum nested too deep"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over encoded bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(DecodeError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// The datum a non-pair `tag` starts.
    fn atom(&mut self, tag: u8) -> Result<Datum, DecodeError> {
        Ok(match tag {
            NIL => Datum::Nil,
            UNSPEC => Datum::Unspec,
            FALSE => Datum::Bool(false),
            TRUE => Datum::Bool(true),
            INT => Datum::Int(i64::from_le_bytes(self.array()?)),
            CHAR => {
                let c = u32::from_le_bytes(self.array()?);
                Datum::Char(char::from_u32(c).ok_or(DecodeError::BadTag("char", CHAR))?)
            }
            STR => Datum::string(self.str()?),
            SYM => Datum::Sym(Symbol::new(self.str()?)),
            t => return Err(DecodeError::BadTag("datum", t)),
        })
    }
}

/// Decodes one datum from `bytes` at `*pos`, advancing `*pos` past it.
/// A list nested inside more than `max_depth` lists (the datum itself
/// counting as one) is [`DecodeError::TooDeep`]; a list's length is not
/// depth.
///
/// # Errors
///
/// A [`DecodeError`] when the bytes are not an encoding written by
/// [`put_datum`].
pub fn get_datum(bytes: &[u8], pos: &mut usize, max_depth: usize) -> Result<Datum, DecodeError> {
    let mut r = Cursor { bytes, pos: *pos };
    // The open lists, innermost last: each is the index in `cars` where
    // its elements start.
    let mut open: Vec<usize> = Vec::new();
    let mut cars: Vec<Datum> = Vec::new();
    let d = 'datum: loop {
        // At a car position (or the datum itself).
        let tag = r.array::<1>()?[0];
        if tag == PAIR {
            if open.len() >= max_depth {
                return Err(DecodeError::TooDeep);
            }
            open.push(cars.len());
            continue;
        }
        let mut done = r.atom(tag)?;
        // `done` completes the car of the innermost open list's last pair,
        // whose cdr comes next: another pair extends the list, anything
        // else ends it.
        loop {
            let Some(&base) = open.last() else {
                break 'datum done;
            };
            cars.push(done);
            let tag = r.array::<1>()?[0];
            if tag == PAIR {
                continue 'datum;
            }
            let tail = r.atom(tag)?;
            open.pop();
            done = cars
                .drain(base..)
                .rev()
                .fold(tail, |acc, car| Datum::cons(car, acc));
        }
    };
    *pos = r.pos;
    Ok(d)
}

/// Decodes a sequence of data written by [`encode_data`], with no bound
/// on nesting: for bytes a trusted encoder wrote, such as the cache key
/// of a request, whose caps were checked when it was scanned.
///
/// # Errors
///
/// A [`DecodeError`] when the bytes are not such a sequence.
pub fn decode_data(bytes: &[u8]) -> Result<Vec<Datum>, DecodeError> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        out.push(get_datum(bytes, &mut pos, usize::MAX)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_one;

    fn round_trip(d: &Datum) -> Datum {
        let mut out = Vec::new();
        put_datum(&mut out, d);
        let mut pos = 0;
        let back = get_datum(&out, &mut pos, usize::MAX).expect("decodes");
        assert_eq!(pos, out.len());
        back
    }

    #[test]
    fn data_round_trip() {
        for src in [
            "()",
            "(a . b)",
            "(1 \"two\" #\\3 #t #f (nested (deeper . tail)) . end)",
            "((((x))) y)",
            "'(quote x)",
        ] {
            let d = read_one(src).expect("read");
            assert_eq!(round_trip(&d), d, "{src}");
        }
        assert_eq!(round_trip(&Datum::Unspec), Datum::Unspec);
    }

    #[test]
    fn lists_are_pre_order_pairs() {
        let mut out = Vec::new();
        put_datum(&mut out, &read_one("(a 1)").expect("read"));
        let mut want = vec![PAIR];
        put_symbol(&mut want, "a");
        want.push(PAIR);
        put_int(&mut want, 1);
        want.push(NIL);
        assert_eq!(out, want);
    }

    #[test]
    fn symbols_and_integers_that_print_alike_differ() {
        let sym = encode_data(&[Datum::sym("12")]);
        let int = encode_data(&[Datum::Int(12)]);
        assert_ne!(sym, int);
        assert_eq!(decode_data(&sym), Ok(vec![Datum::sym("12")]));
        assert_eq!(decode_data(&int), Ok(vec![Datum::Int(12)]));
    }

    #[test]
    fn length_is_not_depth() {
        let long = Datum::list((0..50_000).map(Datum::Int).collect::<Vec<_>>());
        let mut out = Vec::new();
        put_datum(&mut out, &long);
        let mut pos = 0;
        let back = get_datum(&out, &mut pos, 1).expect("a flat list is one deep");
        // Compared by their encodings: `==` recurses along the cdrs.
        assert_eq!(encode_data(&[back]), out);
        let deep = (0..3).fold(Datum::Nil, |d, _| Datum::list([d]));
        let mut out = Vec::new();
        put_datum(&mut out, &deep);
        assert_eq!(get_datum(&out, &mut 0, 3), Ok(deep));
        assert_eq!(get_datum(&out, &mut 0, 2), Err(DecodeError::TooDeep));
    }

    #[test]
    fn malformed_bytes_are_typed_errors() {
        assert_eq!(get_datum(&[], &mut 0, 8), Err(DecodeError::Truncated));
        assert_eq!(
            get_datum(&[PAIR, NIL], &mut 0, 8),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            get_datum(&[9], &mut 0, 8),
            Err(DecodeError::BadTag("datum", 9))
        );
        let mut bad_char = vec![CHAR];
        bad_char.extend_from_slice(&0xD800u32.to_le_bytes());
        assert_eq!(
            get_datum(&bad_char, &mut 0, 8),
            Err(DecodeError::BadTag("char", CHAR))
        );
        let bad_utf8 = [SYM, 1, 0, 0, 0, 0xff];
        assert_eq!(get_datum(&bad_utf8, &mut 0, 8), Err(DecodeError::BadUtf8));
        let huge = [STR, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(get_datum(&huge, &mut 0, 8), Err(DecodeError::Truncated));
    }
}
