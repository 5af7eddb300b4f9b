//! The runtime value domain, generic over the procedure representation,
//! and the one primitive evaluator every engine runs.
//!
//! The tree-walking interpreter (`two4one-interp`) and the byte-code VM
//! (`two4one-vm`) use different closure representations but identical
//! first-order values and primitive semantics. [`Value`] is therefore
//! parameterized over a [`ProcRepr`]. [`apply_prim`] implements every
//! primitive once, over the [`Domain`] interface that both [`Value`] and
//! [`Datum`] implement: the engines apply primitives to values, and the
//! partial evaluator applies pure primitives to static data through
//! [`apply_prim_datum`].

use crate::datum::Datum;
use crate::prim::{Arity, Prim};
use crate::symbol::Symbol;
use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Procedure representation used inside a [`Value`].
pub trait ProcRepr: Clone {
    /// Identity comparison, used by `eq?`/`eqv?`.
    fn ptr_eq(&self, other: &Self) -> bool;
    /// Short human-readable description for error messages and `display`.
    fn describe(&self) -> String;
}

/// The uninhabited procedure representation: a value domain with no
/// procedures at all, through which [`Datum`] renders data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoProc {}

impl ProcRepr for NoProc {
    fn ptr_eq(&self, _other: &Self) -> bool {
        match *self {}
    }
    fn describe(&self) -> String {
        match *self {}
    }
}

/// A runtime value.
#[derive(Clone)]
pub enum Value<P> {
    /// An exact integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A character.
    Char(char),
    /// A symbol.
    Sym(Symbol),
    /// An immutable string.
    Str(Arc<str>),
    /// The empty list.
    Nil,
    /// The unspecified value.
    Unspec,
    /// An immutable pair.
    Pair(Arc<(Value<P>, Value<P>)>),
    /// A mutable cell (the target of assignment elimination).
    Cell(Arc<Mutex<Value<P>>>),
    /// A procedure.
    Proc(P),
}

impl<P> Value<P> {
    /// Constructs a pair.
    pub fn cons(car: Value<P>, cdr: Value<P>) -> Value<P> {
        Value::Pair(Arc::new((car, cdr)))
    }

    /// Scheme truthiness: everything except `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }
}

impl<P: ProcRepr> Value<P> {
    /// Converts first-order data to a [`Datum`]; `None` if the value
    /// contains a procedure or a mutable cell.
    pub fn to_datum(&self) -> Option<Datum> {
        Some(match self {
            Value::Int(n) => Datum::Int(*n),
            Value::Bool(b) => Datum::Bool(*b),
            Value::Char(c) => Datum::Char(*c),
            Value::Sym(s) => Datum::Sym(*s),
            Value::Str(s) => Datum::Str(s.clone()),
            Value::Nil => Datum::Nil,
            Value::Unspec => Datum::Unspec,
            Value::Pair(p) => Datum::cons(p.0.to_datum()?, p.1.to_datum()?),
            Value::Cell(_) | Value::Proc(_) => return None,
        })
    }
}

impl<P> From<&Datum> for Value<P> {
    fn from(d: &Datum) -> Self {
        match d {
            Datum::Nil => Value::Nil,
            Datum::Unspec => Value::Unspec,
            Datum::Bool(b) => Value::Bool(*b),
            Datum::Int(n) => Value::Int(*n),
            Datum::Char(c) => Value::Char(*c),
            Datum::Str(s) => Value::Str(s.clone()),
            Datum::Sym(s) => Value::Sym(*s),
            Datum::Pair(p) => Value::cons(Value::from(&p.car), Value::from(&p.cdr)),
        }
    }
}

impl<P: ProcRepr> fmt::Debug for Value<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&write_string(self))
    }
}

impl<P: ProcRepr> fmt::Display for Value<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&display_string(self))
    }
}

impl<P: ProcRepr> PartialEq for Value<P> {
    /// Structural equality (`equal?` semantics).
    fn eq(&self, other: &Self) -> bool {
        Domain::equal(self, other)
    }
}

/// Locks a mutable cell, recovering the guard even if a panicking thread
/// poisoned the lock (cell contents are always in a consistent state: the
/// only writes are whole-value replacement via `set-box!`).
fn lock_cell<T>(c: &Mutex<T>) -> MutexGuard<'_, T> {
    c.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `display`-style rendering (strings unquoted).
pub fn display_string<V: Domain>(v: &V) -> String {
    let mut s = String::new();
    v.render(false, &mut s);
    s
}

/// `write`-style rendering (strings quoted).
pub fn write_string<V: Domain>(v: &V) -> String {
    let mut s = String::new();
    v.render(true, &mut s);
    s
}

/// Errors raised by primitive application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimError {
    /// Wrong number of arguments.
    BadArity {
        /// The primitive.
        prim: Prim,
        /// What it wanted.
        expected: Arity,
        /// What it got.
        got: usize,
    },
    /// Wrong argument type.
    TypeError {
        /// The primitive.
        prim: Prim,
        /// Expected type description.
        expected: &'static str,
        /// Rendering of the offending value.
        got: String,
    },
    /// Division or modulus by zero.
    DivisionByZero(Prim),
    /// Arithmetic overflow of `i64`.
    Overflow(Prim),
    /// Index out of range (`list-ref`, `integer->char`).
    OutOfRange(Prim, String),
    /// The `error` primitive was called.
    User(String),
    /// An impure primitive was applied to static data
    /// ([`apply_prim_datum`]).
    Impure(Prim),
}

impl fmt::Display for PrimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimError::BadArity {
                prim,
                expected,
                got,
            } => write!(f, "`{prim}` expects {expected} argument(s), got {got}"),
            PrimError::TypeError {
                prim,
                expected,
                got,
            } => write!(f, "`{prim}` expects {expected}, got {got}"),
            PrimError::DivisionByZero(p) => write!(f, "`{p}`: division by zero"),
            PrimError::Overflow(p) => write!(f, "`{p}`: integer overflow"),
            PrimError::OutOfRange(p, s) => write!(f, "`{p}`: out of range: {s}"),
            PrimError::User(msg) => write!(f, "error: {msg}"),
            PrimError::Impure(p) => write!(f, "`{p}` is impure: it cannot run on static data"),
        }
    }
}

impl std::error::Error for PrimError {}

/// A value domain [`apply_prim`] runs over: [`Value`] at run time,
/// [`Datum`] for static data.
pub trait Domain: Clone {
    /// The value's outermost shape.
    fn view(&self) -> View<'_, Self>;
    /// An integer.
    fn int(n: i64) -> Self;
    /// A boolean.
    fn bool(b: bool) -> Self;
    /// A character.
    fn char(c: char) -> Self;
    /// A symbol.
    fn symbol(s: Symbol) -> Self;
    /// A string.
    fn str(s: Arc<str>) -> Self;
    /// The empty list.
    fn nil() -> Self;
    /// The unspecified value.
    fn unspec() -> Self;
    /// A pair.
    fn cons(car: Self, cdr: Self) -> Self;
    /// A fresh mutable cell holding `v`; `None` in a domain without cells.
    fn new_cell(v: Self) -> Option<Self>;
    /// Identity comparison (`eq?`, `eqv?`).
    fn eqv(a: &Self, b: &Self) -> bool;
    /// Structural comparison (`equal?`).
    fn equal(a: &Self, b: &Self) -> bool;
    /// Appends the value's rendering to `out`: `write`-style (strings
    /// quoted) if `write`, else `display`-style.
    fn render(&self, write: bool, out: &mut String);
}

/// The outermost shape of a [`Domain`] value, borrowing its parts; the
/// variants mirror [`Value`]'s.
pub enum View<'a, V> {
    Int(i64),
    Bool(bool),
    Char(char),
    Sym(Symbol),
    Str(&'a Arc<str>),
    Nil,
    Unspec,
    Pair(&'a V, &'a V),
    Cell(&'a Mutex<V>),
    Proc,
}

impl<P: ProcRepr> Domain for Value<P> {
    fn view(&self) -> View<'_, Self> {
        match self {
            Value::Int(n) => View::Int(*n),
            Value::Bool(b) => View::Bool(*b),
            Value::Char(c) => View::Char(*c),
            Value::Sym(s) => View::Sym(*s),
            Value::Str(s) => View::Str(s),
            Value::Nil => View::Nil,
            Value::Unspec => View::Unspec,
            Value::Pair(p) => View::Pair(&p.0, &p.1),
            Value::Cell(c) => View::Cell(c),
            Value::Proc(_) => View::Proc,
        }
    }
    fn int(n: i64) -> Self {
        Value::Int(n)
    }
    fn bool(b: bool) -> Self {
        Value::Bool(b)
    }
    fn char(c: char) -> Self {
        Value::Char(c)
    }
    fn symbol(s: Symbol) -> Self {
        Value::Sym(s)
    }
    fn str(s: Arc<str>) -> Self {
        Value::Str(s)
    }
    fn nil() -> Self {
        Value::Nil
    }
    fn unspec() -> Self {
        Value::Unspec
    }
    fn cons(car: Self, cdr: Self) -> Self {
        Value::cons(car, cdr)
    }
    fn new_cell(v: Self) -> Option<Self> {
        Some(Value::Cell(Arc::new(Mutex::new(v))))
    }
    fn eqv(a: &Self, b: &Self) -> bool {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Char(x), Value::Char(y)) => x == y,
            (Value::Sym(x), Value::Sym(y)) => x == y,
            (Value::Nil, Value::Nil) => true,
            (Value::Unspec, Value::Unspec) => true,
            (Value::Str(x), Value::Str(y)) => Arc::ptr_eq(x, y),
            (Value::Pair(x), Value::Pair(y)) => Arc::ptr_eq(x, y),
            (Value::Cell(x), Value::Cell(y)) => Arc::ptr_eq(x, y),
            (Value::Proc(x), Value::Proc(y)) => x.ptr_eq(y),
            _ => false,
        }
    }
    fn equal(a: &Self, b: &Self) -> bool {
        match (a, b) {
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Pair(x), Value::Pair(y)) => Self::equal(&x.0, &y.0) && Self::equal(&x.1, &y.1),
            _ => Self::eqv(a, b),
        }
    }
    fn render(&self, write: bool, out: &mut String) {
        match self {
            Value::Str(s) if !write => out.push_str(s),
            Value::Char(c) if !write => out.push(*c),
            Value::Int(_)
            | Value::Bool(_)
            | Value::Char(_)
            | Value::Sym(_)
            | Value::Str(_)
            | Value::Nil
            | Value::Unspec => {
                let d: Datum = match self {
                    Value::Int(n) => Datum::Int(*n),
                    Value::Bool(b) => Datum::Bool(*b),
                    Value::Char(c) => Datum::Char(*c),
                    Value::Sym(s) => Datum::Sym(*s),
                    Value::Str(s) => Datum::Str(s.clone()),
                    Value::Nil => Datum::Nil,
                    _ => Datum::Unspec,
                };
                out.push_str(&d.to_string());
            }
            Value::Pair(_) => {
                out.push('(');
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        Value::Pair(p) => {
                            if !first {
                                out.push(' ');
                            }
                            first = false;
                            p.0.render(write, out);
                            cur = &p.1;
                        }
                        Value::Nil => break,
                        other => {
                            out.push_str(" . ");
                            other.render(write, out);
                            break;
                        }
                    }
                }
                out.push(')');
            }
            Value::Cell(c) => {
                out.push_str("#<cell ");
                let inner = lock_cell(c).clone();
                inner.render(write, out);
                out.push('>');
            }
            Value::Proc(p) => {
                out.push_str("#<procedure ");
                out.push_str(&p.describe());
                out.push('>');
            }
        }
    }
}

impl Domain for Datum {
    fn view(&self) -> View<'_, Self> {
        match self {
            Datum::Int(n) => View::Int(*n),
            Datum::Bool(b) => View::Bool(*b),
            Datum::Char(c) => View::Char(*c),
            Datum::Sym(s) => View::Sym(*s),
            Datum::Str(s) => View::Str(s),
            Datum::Nil => View::Nil,
            Datum::Unspec => View::Unspec,
            Datum::Pair(p) => View::Pair(&p.car, &p.cdr),
        }
    }
    fn int(n: i64) -> Self {
        Datum::Int(n)
    }
    fn bool(b: bool) -> Self {
        Datum::Bool(b)
    }
    fn char(c: char) -> Self {
        Datum::Char(c)
    }
    fn symbol(s: Symbol) -> Self {
        Datum::Sym(s)
    }
    fn str(s: Arc<str>) -> Self {
        Datum::Str(s)
    }
    fn nil() -> Self {
        Datum::Nil
    }
    fn unspec() -> Self {
        Datum::Unspec
    }
    fn cons(car: Self, cdr: Self) -> Self {
        Datum::cons(car, cdr)
    }
    fn new_cell(_: Self) -> Option<Self> {
        None
    }
    /// Atoms compare by value and strings by `Arc` identity; pairs are
    /// never `eqv?`, not even to themselves.
    fn eqv(a: &Self, b: &Self) -> bool {
        match (a, b) {
            (Datum::Str(x), Datum::Str(y)) => Arc::ptr_eq(x, y),
            (Datum::Pair(_), _) => false,
            _ => a == b,
        }
    }
    fn equal(a: &Self, b: &Self) -> bool {
        a == b
    }
    /// Renders through [`Value`], whose printer (unlike `Datum`'s
    /// `Display`) writes no quote sugar and has a `display` mode.
    fn render(&self, write: bool, out: &mut String) {
        Value::<NoProc>::from(self).render(write, out);
    }
}

fn type_error<V: Domain>(p: Prim, expected: &'static str, got: &V) -> PrimError {
    PrimError::TypeError {
        prim: p,
        expected,
        got: write_string(got),
    }
}

fn want_int<V: Domain>(p: Prim, v: &V) -> Result<i64, PrimError> {
    match v.view() {
        View::Int(n) => Ok(n),
        _ => Err(type_error(p, "a number", v)),
    }
}

fn want_str<V: Domain>(p: Prim, v: &V) -> Result<&Arc<str>, PrimError> {
    match v.view() {
        View::Str(s) => Ok(s),
        _ => Err(type_error(p, "a string", v)),
    }
}

fn want_pair<V: Domain>(p: Prim, v: &V) -> Result<(&V, &V), PrimError> {
    match v.view() {
        View::Pair(car, cdr) => Ok((car, cdr)),
        _ => Err(type_error(p, "a pair", v)),
    }
}

/// Whether `f` holds between every two adjacent arguments (`=`, `<`, …).
fn bool_chain<V: Domain, A: Borrow<V>>(
    p: Prim,
    args: &[A],
    f: impl Fn(i64, i64) -> bool,
) -> Result<bool, PrimError> {
    for w in args.windows(2) {
        if !f(want_int(p, w[0].borrow())?, want_int(p, w[1].borrow())?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Applies a primitive to argument values of either [`Domain`], held by
/// value (`&[V]`) or by reference (`&[&V]`): the VM reads the operands
/// of an in-place instruction where they live, so a primitive that only
/// inspects them (`car`, `null?`, `eq?`, arithmetic) copies none.
///
/// `out` collects the output of `display`/`write`/`newline` so engines can
/// direct it wherever they like.
///
/// # Errors
///
/// Returns a [`PrimError`] on arity or type mismatches, arithmetic faults,
/// or when the `error` primitive is invoked.
pub fn apply_prim<V: Domain, A: Borrow<V>>(
    p: Prim,
    args: &[A],
    out: &mut String,
) -> Result<V, PrimError> {
    if !p.arity().admits(args.len()) {
        return Err(PrimError::BadArity {
            prim: p,
            expected: p.arity(),
            got: args.len(),
        });
    }
    let int = |a: &A| want_int(p, a.borrow());
    let arg = |i: usize| args[i].borrow();
    Ok(match p {
        Prim::Add => {
            let mut acc: i64 = 0;
            for a in args {
                acc = acc.checked_add(int(a)?).ok_or(PrimError::Overflow(p))?;
            }
            V::int(acc)
        }
        Prim::Sub => {
            let first = int(&args[0])?;
            if args.len() == 1 {
                V::int(first.checked_neg().ok_or(PrimError::Overflow(p))?)
            } else {
                let mut acc = first;
                for a in &args[1..] {
                    acc = acc.checked_sub(int(a)?).ok_or(PrimError::Overflow(p))?;
                }
                V::int(acc)
            }
        }
        Prim::Mul => {
            let mut acc: i64 = 1;
            for a in args {
                acc = acc.checked_mul(int(a)?).ok_or(PrimError::Overflow(p))?;
            }
            V::int(acc)
        }
        Prim::Quotient | Prim::Remainder | Prim::Modulo => {
            let a = int(&args[0])?;
            let b = int(&args[1])?;
            if b == 0 {
                return Err(PrimError::DivisionByZero(p));
            }
            let r = match p {
                Prim::Quotient => a.checked_div(b),
                Prim::Remainder => a.checked_rem(b),
                // `modulo`: `rem_euclid` is always nonnegative; Scheme
                // `modulo` takes the sign of the divisor.
                _ => a
                    .checked_rem_euclid(b)
                    .map(|r| if b < 0 && r != 0 { r + b } else { r }),
            };
            V::int(r.ok_or(PrimError::Overflow(p))?)
        }
        Prim::Abs => V::int(int(&args[0])?.checked_abs().ok_or(PrimError::Overflow(p))?),
        Prim::Min => {
            let mut acc = int(&args[0])?;
            for a in &args[1..] {
                acc = acc.min(int(a)?);
            }
            V::int(acc)
        }
        Prim::Max => {
            let mut acc = int(&args[0])?;
            for a in &args[1..] {
                acc = acc.max(int(a)?);
            }
            V::int(acc)
        }
        Prim::NumEq => V::bool(bool_chain(p, args, |a, b| a == b)?),
        Prim::Lt => V::bool(bool_chain(p, args, |a, b| a < b)?),
        Prim::Le => V::bool(bool_chain(p, args, |a, b| a <= b)?),
        Prim::Gt => V::bool(bool_chain(p, args, |a, b| a > b)?),
        Prim::Ge => V::bool(bool_chain(p, args, |a, b| a >= b)?),
        Prim::ZeroP => V::bool(int(&args[0])? == 0),
        Prim::EqP | Prim::EqvP => V::bool(V::eqv(arg(0), arg(1))),
        Prim::EqualP => V::bool(V::equal(arg(0), arg(1))),
        Prim::Not => V::bool(matches!(arg(0).view(), View::Bool(false))),
        Prim::Cons => V::cons(arg(0).clone(), arg(1).clone()),
        Prim::Car => want_pair(p, arg(0))?.0.clone(),
        Prim::Cdr => want_pair(p, arg(0))?.1.clone(),
        Prim::PairP => V::bool(matches!(arg(0).view(), View::Pair(..))),
        Prim::NullP => V::bool(matches!(arg(0).view(), View::Nil)),
        Prim::List => args
            .iter()
            .rev()
            .fold(V::nil(), |acc, a| V::cons(a.borrow().clone(), acc)),
        Prim::Append => {
            // Every argument but the last must be a proper list; the last
            // is shared as the tail.
            let Some((last, init)) = args.split_last() else {
                return Ok(V::nil());
            };
            let mut items = Vec::new();
            for a in init {
                let mut cur = a.borrow();
                loop {
                    match cur.view() {
                        View::Nil => break,
                        View::Pair(car, cdr) => {
                            items.push(car);
                            cur = cdr;
                        }
                        _ => return Err(type_error(p, "a proper list", cur)),
                    }
                }
            }
            items
                .into_iter()
                .rev()
                .fold(last.borrow().clone(), |acc, x| V::cons(x.clone(), acc))
        }
        Prim::Length => {
            let mut n: i64 = 0;
            let mut cur = arg(0);
            loop {
                match cur.view() {
                    View::Nil => break V::int(n),
                    View::Pair(_, cdr) => {
                        n += 1;
                        cur = cdr;
                    }
                    _ => return Err(type_error(p, "a proper list", cur)),
                }
            }
        }
        Prim::Reverse => {
            let mut acc = V::nil();
            let mut cur = arg(0);
            loop {
                match cur.view() {
                    View::Nil => break acc,
                    View::Pair(car, cdr) => {
                        acc = V::cons(car.clone(), acc);
                        cur = cdr;
                    }
                    _ => return Err(type_error(p, "a proper list", cur)),
                }
            }
        }
        Prim::ListRef => {
            let mut k = int(&args[1])?;
            if k < 0 {
                return Err(PrimError::OutOfRange(p, k.to_string()));
            }
            let mut cur = arg(0);
            loop {
                match cur.view() {
                    View::Pair(car, _) if k == 0 => break car.clone(),
                    View::Pair(_, cdr) => {
                        k -= 1;
                        cur = cdr;
                    }
                    _ => return Err(PrimError::OutOfRange(p, write_string(cur))),
                }
            }
        }
        Prim::Memq | Prim::Member => {
            let same: fn(&V, &V) -> bool = if p == Prim::Memq { V::eqv } else { V::equal };
            let mut cur = arg(1);
            loop {
                match cur.view() {
                    View::Nil => break V::bool(false),
                    View::Pair(car, _) if same(arg(0), car) => break cur.clone(),
                    View::Pair(_, cdr) => cur = cdr,
                    _ => return Err(type_error(p, "a proper list", cur)),
                }
            }
        }
        Prim::Assq | Prim::Assoc => {
            let same: fn(&V, &V) -> bool = if p == Prim::Assq { V::eqv } else { V::equal };
            let mut cur = arg(1);
            loop {
                match cur.view() {
                    View::Nil => break V::bool(false),
                    View::Pair(entry, cdr) => {
                        if let View::Pair(key, _) = entry.view() {
                            if same(arg(0), key) {
                                break entry.clone();
                            }
                        }
                        cur = cdr;
                    }
                    _ => return Err(type_error(p, "an association list", cur)),
                }
            }
        }
        Prim::SymbolP => V::bool(matches!(arg(0).view(), View::Sym(_))),
        Prim::NumberP => V::bool(matches!(arg(0).view(), View::Int(_))),
        Prim::StringP => V::bool(matches!(arg(0).view(), View::Str(_))),
        Prim::BooleanP => V::bool(matches!(arg(0).view(), View::Bool(_))),
        Prim::CharP => V::bool(matches!(arg(0).view(), View::Char(_))),
        Prim::ProcedureP => V::bool(matches!(arg(0).view(), View::Proc)),
        Prim::ListP => {
            let mut cur = arg(0);
            loop {
                match cur.view() {
                    View::Nil => break V::bool(true),
                    View::Pair(_, cdr) => cur = cdr,
                    _ => break V::bool(false),
                }
            }
        }
        Prim::SymbolToString => match arg(0).view() {
            View::Sym(s) => V::str(Arc::from(s.as_str())),
            _ => return Err(type_error(p, "a symbol", arg(0))),
        },
        Prim::StringToSymbol => V::symbol(Symbol::new(want_str(p, arg(0))?)),
        Prim::StringAppend => {
            let mut s = String::new();
            for a in args {
                s.push_str(want_str(p, a.borrow())?);
            }
            V::str(Arc::from(s.as_str()))
        }
        Prim::StringLength => V::int(want_str(p, arg(0))?.chars().count() as i64),
        Prim::NumberToString => V::str(Arc::from(int(&args[0])?.to_string().as_str())),
        Prim::StringEqualP => V::bool(want_str(p, arg(0))? == want_str(p, arg(1))?),
        Prim::CharToInteger => match arg(0).view() {
            View::Char(c) => V::int(c as i64),
            _ => return Err(type_error(p, "a char", arg(0))),
        },
        Prim::IntegerToChar => {
            let n = int(&args[0])?;
            let c = u32::try_from(n)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| PrimError::OutOfRange(p, n.to_string()))?;
            V::char(c)
        }
        Prim::Display => {
            arg(0).render(false, out);
            V::unspec()
        }
        Prim::Write => {
            arg(0).render(true, out);
            V::unspec()
        }
        Prim::Newline => {
            out.push('\n');
            V::unspec()
        }
        Prim::Error => {
            let mut msg = display_string(arg(0));
            for a in &args[1..] {
                msg.push(' ');
                a.borrow().render(true, &mut msg);
            }
            return Err(PrimError::User(msg));
        }
        Prim::BoxNew => V::new_cell(arg(0).clone()).ok_or(PrimError::Impure(p))?,
        Prim::BoxRef => match arg(0).view() {
            View::Cell(c) => lock_cell(c).clone(),
            _ => return Err(type_error(p, "a cell", arg(0))),
        },
        Prim::BoxSet => match arg(0).view() {
            View::Cell(c) => {
                *lock_cell(c) = arg(1).clone();
                V::unspec()
            }
            _ => return Err(type_error(p, "a cell", arg(0))),
        },
    })
}

/// Applies a *pure* primitive to first-order data, as the specializer does
/// with all-static arguments and the residual-code optimizer with
/// constants.
///
/// # Errors
///
/// Fails like [`apply_prim`], and with [`PrimError::Impure`] for every
/// impure primitive (callers should check [`Prim::is_pure`] first).
pub fn apply_prim_datum(p: Prim, args: &[Datum]) -> Result<Datum, PrimError> {
    if !p.is_pure() {
        return Err(PrimError::Impure(p));
    }
    apply_prim(p, args, &mut String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_one;

    type V = Value<NoProc>;

    fn run(p: Prim, args: &[V]) -> V {
        let mut out = String::new();
        apply_prim(p, args, &mut out).expect("prim ok")
    }

    fn run_err(p: Prim, args: &[V]) -> PrimError {
        let mut out = String::new();
        apply_prim(p, args, &mut out).expect_err("prim should fail")
    }

    fn d(src: &str) -> Datum {
        read_one(src).unwrap()
    }

    fn v(src: &str) -> V {
        Value::from(&d(src))
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run(Prim::Add, &[]), Value::Int(0));
        assert_eq!(run(Prim::Add, &[v("1"), v("2"), v("3")]), Value::Int(6));
        assert_eq!(run(Prim::Sub, &[v("5")]), Value::Int(-5));
        assert_eq!(run(Prim::Sub, &[v("5"), v("2"), v("1")]), Value::Int(2));
        assert_eq!(run(Prim::Mul, &[v("4"), v("5")]), Value::Int(20));
        assert_eq!(run(Prim::Quotient, &[v("7"), v("2")]), Value::Int(3));
        assert_eq!(run(Prim::Remainder, &[v("-7"), v("2")]), Value::Int(-1));
        assert_eq!(run(Prim::Modulo, &[v("-7"), v("2")]), Value::Int(1));
        assert_eq!(run(Prim::Modulo, &[v("7"), v("-2")]), Value::Int(-1));
        assert_eq!(run(Prim::Abs, &[v("-3")]), Value::Int(3));
        assert_eq!(run(Prim::Min, &[v("3"), v("1"), v("2")]), Value::Int(1));
        assert_eq!(run(Prim::Max, &[v("3"), v("1"), v("2")]), Value::Int(3));
    }

    #[test]
    fn arithmetic_faults() {
        assert_eq!(
            run_err(Prim::Quotient, &[v("1"), v("0")]),
            PrimError::DivisionByZero(Prim::Quotient)
        );
        assert_eq!(
            run_err(Prim::Add, &[Value::Int(i64::MAX), v("1")]),
            PrimError::Overflow(Prim::Add)
        );
        assert!(matches!(
            run_err(Prim::Add, &[v("x")]),
            PrimError::TypeError { .. }
        ));
        assert!(matches!(
            run_err(Prim::Car, &[v("1"), v("2")]),
            PrimError::BadArity { .. }
        ));
    }

    #[test]
    fn comparisons_chain() {
        assert_eq!(run(Prim::Lt, &[v("1"), v("2"), v("3")]), Value::Bool(true));
        assert_eq!(run(Prim::Lt, &[v("1"), v("3"), v("2")]), Value::Bool(false));
        assert_eq!(
            run(Prim::NumEq, &[v("2"), v("2"), v("2")]),
            Value::Bool(true)
        );
        assert_eq!(run(Prim::ZeroP, &[v("0")]), Value::Bool(true));
    }

    #[test]
    fn pairs_and_lists() {
        assert_eq!(run(Prim::Cons, &[v("1"), v("2")]), v("(1 . 2)"));
        assert_eq!(run(Prim::Car, &[v("(1 2)")]), v("1"));
        assert_eq!(run(Prim::Cdr, &[v("(1 2)")]), v("(2)"));
        assert_eq!(run(Prim::Length, &[v("(a b c)")]), Value::Int(3));
        assert_eq!(run(Prim::Reverse, &[v("(1 2 3)")]), v("(3 2 1)"));
        assert_eq!(
            run(Prim::Append, &[v("(1 2)"), v("(3)"), v("(4)")]),
            v("(1 2 3 4)")
        );
        assert_eq!(run(Prim::Append, &[]), Value::Nil);
        assert_eq!(run(Prim::ListRef, &[v("(a b c)"), v("1")]), v("b"));
        assert_eq!(run(Prim::List, &[v("1"), v("2")]), v("(1 2)"));
        assert!(matches!(
            run_err(Prim::Car, &[v("5")]),
            PrimError::TypeError { .. }
        ));
        assert!(matches!(
            run_err(Prim::ListRef, &[v("(a)"), v("3")]),
            PrimError::OutOfRange(..)
        ));
    }

    #[test]
    fn searching() {
        assert_eq!(run(Prim::Memq, &[v("b"), v("(a b c)")]), v("(b c)"));
        assert_eq!(run(Prim::Memq, &[v("x"), v("(a b)")]), Value::Bool(false));
        assert_eq!(run(Prim::Member, &[v("(1)"), v("((0) (1))")]), v("((1))"));
        assert_eq!(run(Prim::Assq, &[v("b"), v("((a 1) (b 2))")]), v("(b 2)"));
        assert_eq!(run(Prim::Assq, &[v("z"), v("((a 1))")]), Value::Bool(false));
        assert_eq!(run(Prim::Assoc, &[v("(k)"), v("(((k) 1))")]), v("((k) 1)"));
    }

    #[test]
    fn equality_flavours() {
        assert_eq!(run(Prim::EqP, &[v("a"), v("a")]), Value::Bool(true));
        assert_eq!(run(Prim::EqP, &[v("(1)"), v("(1)")]), Value::Bool(false));
        assert_eq!(
            run(Prim::EqualP, &[v("(1 (2))"), v("(1 (2))")]),
            Value::Bool(true)
        );
        let shared = v("(1)");
        assert_eq!(run(Prim::EqP, &[shared.clone(), shared]), Value::Bool(true));
    }

    #[test]
    fn predicates() {
        assert_eq!(run(Prim::SymbolP, &[v("a")]), Value::Bool(true));
        assert_eq!(run(Prim::NumberP, &[v("1")]), Value::Bool(true));
        assert_eq!(run(Prim::StringP, &[v("\"s\"")]), Value::Bool(true));
        assert_eq!(run(Prim::BooleanP, &[v("#f")]), Value::Bool(true));
        assert_eq!(run(Prim::CharP, &[v("#\\a")]), Value::Bool(true));
        assert_eq!(run(Prim::ListP, &[v("(1 2)")]), Value::Bool(true));
        assert_eq!(
            run(Prim::ListP, &[run(Prim::Cons, &[v("1"), v("2")])]),
            Value::Bool(false)
        );
        assert_eq!(run(Prim::NullP, &[v("()")]), Value::Bool(true));
        assert_eq!(run(Prim::Not, &[v("#f")]), Value::Bool(true));
        assert_eq!(run(Prim::Not, &[v("0")]), Value::Bool(false));
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            run(Prim::StringAppend, &[v("\"a\""), v("\"bc\"")]),
            v("\"abc\"")
        );
        assert_eq!(run(Prim::StringLength, &[v("\"abc\"")]), Value::Int(3));
        assert_eq!(run(Prim::SymbolToString, &[v("abc")]), v("\"abc\""));
        assert_eq!(run(Prim::StringToSymbol, &[v("\"abc\"")]), v("abc"));
        assert_eq!(run(Prim::NumberToString, &[v("42")]), v("\"42\""));
        assert_eq!(
            run(Prim::StringEqualP, &[v("\"a\""), v("\"a\"")]),
            Value::Bool(true)
        );
        assert_eq!(run(Prim::CharToInteger, &[v("#\\a")]), Value::Int(97));
        assert_eq!(run(Prim::IntegerToChar, &[v("97")]), v("#\\a"));
        assert!(matches!(
            run_err(Prim::IntegerToChar, &[v("-1")]),
            PrimError::OutOfRange(..)
        ));
    }

    #[test]
    fn io_collects_output() {
        let mut out = String::new();
        apply_prim(Prim::Display, &[v("\"hi\"")], &mut out).unwrap();
        apply_prim(Prim::Newline, &[] as &[V], &mut out).unwrap();
        apply_prim(Prim::Write, &[v("\"hi\"")], &mut out).unwrap();
        assert_eq!(out, "hi\n\"hi\"");
    }

    #[test]
    fn error_prim_raises() {
        let e = run_err(Prim::Error, &[v("\"bad\""), v("7")]);
        assert_eq!(e, PrimError::User("bad 7".to_string()));
    }

    #[test]
    fn boxes() {
        let b = run(Prim::BoxNew, &[v("1")]);
        assert_eq!(run(Prim::BoxRef, std::slice::from_ref(&b)), v("1"));
        run(Prim::BoxSet, &[b.clone(), v("2")]);
        assert_eq!(run(Prim::BoxRef, &[b]), v("2"));
    }

    #[test]
    fn datum_value_roundtrip() {
        for src in ["()", "5", "#t", "#\\x", "\"s\"", "sym", "(1 (2 . 3) #f)"] {
            let dd = d(src);
            let vv: V = Value::from(&dd);
            assert_eq!(vv.to_datum(), Some(dd));
        }
    }

    /// The `Value` instance of the evaluator, on fresh values built from
    /// `args` and read back as data.
    fn apply_prim_value(p: Prim, args: &[Datum]) -> Result<Datum, PrimError> {
        let vals: Vec<V> = args.iter().map(Value::from).collect();
        let v = apply_prim(p, &vals, &mut String::new())?;
        Ok(v.to_datum().expect("pure prims return first-order data"))
    }

    #[test]
    fn datum_and_value_instances_agree() {
        let pool: Vec<Datum> = [
            "0",
            "1",
            "-7",
            "2",
            "9223372036854775807",
            "#t",
            "#f",
            "x",
            "y",
            "\"s\"",
            "#\\a",
            "()",
            "(1 2 3)",
            "(x y)",
            "((x 1) (y 2))",
            "((1 . 2) (3 . 4))",
            "(1 . 2)",
            "(1 2 . 3)",
            "'x",
        ]
        .iter()
        .map(|s| read_one(s).unwrap())
        .collect();
        // Every pure prim over every 0-, 1- and 2-argument combination from
        // the pool, and every variadic one over every 3-argument
        // combination: results and errors must agree exactly.
        let pure: Vec<Prim> = Prim::all().filter(|p| p.is_pure()).collect();
        assert_eq!(pure.len(), 48);
        let mut variadic = 0;
        for p in pure {
            let check = |args: &[Datum]| {
                assert_eq!(
                    apply_prim_datum(p, args),
                    apply_prim_value(p, args),
                    "prim {p:?} on {args:?}"
                );
            };
            check(&[]);
            for a in &pool {
                check(std::slice::from_ref(a));
                for b in &pool {
                    check(&[a.clone(), b.clone()]);
                }
            }
            if let Arity::AtLeast(_) = p.arity() {
                variadic += 1;
                for a in &pool {
                    for b in &pool {
                        for c in &pool {
                            check(&[a.clone(), b.clone(), c.clone()]);
                        }
                    }
                }
            }
        }
        assert_eq!(variadic, 13);
        // The shared-argument corner: `(eq? x x)` on a pair is #f in both
        // instances (the `Value` one converts each argument freshly, and
        // data pairs are never `eqv?`), and on a string it is #t in both
        // (the Arc survives the conversions).
        let pair = read_one("(1 2)").unwrap();
        let s = read_one("\"shared\"").unwrap();
        for p in [Prim::EqP, Prim::EqvP] {
            assert_eq!(
                apply_prim_datum(p, &[pair.clone(), pair.clone()]),
                apply_prim_value(p, &[pair.clone(), pair.clone()])
            );
            assert_eq!(
                apply_prim_datum(p, &[s.clone(), s.clone()]),
                apply_prim_value(p, &[s.clone(), s.clone()])
            );
            assert_eq!(
                apply_prim_datum(p, &[s.clone(), s.clone()]),
                Ok(Datum::Bool(true))
            );
        }
        // Memoized-search corner: memq/assq find a shared string by
        // identity in both instances.
        let list = Datum::list([s.clone(), pair.clone()]);
        assert_eq!(
            apply_prim_datum(Prim::Memq, &[s.clone(), list.clone()]),
            apply_prim_value(Prim::Memq, &[s.clone(), list.clone()])
        );
    }

    #[test]
    fn impure_prims_are_rejected_on_data() {
        let impure: Vec<Prim> = Prim::all().filter(|p| !p.is_pure()).collect();
        assert_eq!(impure.len(), 7);
        for p in impure {
            let (Arity::Exact(n) | Arity::AtLeast(n)) = p.arity();
            let args = vec![d("1"); n];
            assert_eq!(apply_prim_datum(p, &args), Err(PrimError::Impure(p)), "{p}");
        }
    }

    #[test]
    fn apply_prim_datum_works() {
        let r = apply_prim_datum(Prim::Add, &[d("1"), d("2")]).unwrap();
        assert_eq!(r, d("3"));
    }

    #[test]
    fn display_vs_write() {
        assert_eq!(display_string(&v("\"hi\"")), "hi");
        assert_eq!(write_string(&v("\"hi\"")), "\"hi\"");
        assert_eq!(display_string(&v("(1 \"a\" . 2)")), "(1 a . 2)");
    }
}
