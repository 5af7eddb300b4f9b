//! S-expression data: the external representation of programs and the
//! first-order value universe of the partial evaluator.

use crate::symbol::{fnv1a, Symbol, FNV1A_BASIS};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An s-expression datum.
///
/// `Datum` doubles as (1) the concrete syntax read from source text and
/// (2) the domain of *static* first-order values inside the specializer,
/// which is why it implements `Eq` and `Hash` (memoization keys are tuples
/// of data).
///
/// # Hash-consed digests
///
/// Every pair caches a 64-bit structural digest computed at construction
/// ([`Datum::digest`]), and `Hash` writes that single word. Hashing a
/// datum is therefore O(1) in its size (amortized: the digest of a tree
/// is assembled bottom-up as it is consed), which is what keeps the
/// specializer's memoization probes — one per specialization point, each
/// keyed by a tuple of static data — from rehashing whole static
/// structures on every cache lookup. Digests are a pure function of
/// structure (symbol digests come from names, not intern ids), so they
/// are stable across processes; equality remains fully structural and is
/// never decided by digest alone.
///
/// Only exact integers are supported as numbers; the paper's benchmarks do
/// not require inexact arithmetic.
///
/// # Example
///
/// ```
/// use two4one_syntax::Datum;
/// let d = Datum::list([Datum::from(1), Datum::from(2)]);
/// assert_eq!(d.to_string(), "(1 2)");
/// assert_eq!(d.list_len(), Some(2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub enum Datum {
    /// The empty list `()`.
    Nil,
    /// The unspecified value (result of one-armed `if`, `set!`, etc.).
    Unspec,
    /// `#t` / `#f`.
    Bool(bool),
    /// An exact integer.
    Int(i64),
    /// A character, written `#\c`.
    Char(char),
    /// An immutable string.
    Str(Arc<str>),
    /// A symbol.
    Sym(Symbol),
    /// A pair.
    Pair(Arc<Pair>),
}

/// A cons cell: two data plus the cached structural digest of the whole
/// pair (see [`Datum::digest`]).
pub struct Pair {
    /// The first element.
    pub car: Datum,
    /// The rest.
    pub cdr: Datum,
    digest: u64,
}

impl PartialEq for Pair {
    /// Compares along the cdr chain in a loop, so a long list costs no
    /// stack; only nesting in the car recurses. At each pair the digest
    /// goes first: unequal digests prove structural inequality, so deep
    /// comparison only runs on (near-certain) matches. A shared tail ends
    /// the walk at once.
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            if a.digest != b.digest || a.car != b.car {
                return false;
            }
            match (&a.cdr, &b.cdr) {
                (Datum::Pair(x), Datum::Pair(y)) => {
                    if Arc::ptr_eq(x, y) {
                        return true;
                    }
                    (a, b) = (x, y);
                }
                (x, y) => return x == y,
            }
        }
    }
}

impl Eq for Pair {}

impl Drop for Pair {
    /// Frees what this pair alone owns without Rust recursion: the
    /// derived drop recurses once per car and cdr link, which overflows a
    /// thread's stack on a long list or a deep nest.
    fn drop(&mut self) {
        for link in [&mut self.car, &mut self.cdr] {
            if let Datum::Pair(_) = link {
                release(std::mem::replace(link, Datum::Nil));
            }
        }
    }
}

/// Drops `d` in a loop. A pair owned here alone is taken out of its
/// `Arc` and its children detached, so it is freed without recursing:
/// its cdr is the next datum to free, and when its car is a pair too the
/// cdr waits on a stack while the car goes first. The stack only grows
/// where both links are pairs, so a flat list never allocates. Shared
/// pairs only lose one reference.
fn release(mut d: Datum) {
    let mut later: Vec<Datum> = Vec::new();
    loop {
        if let Datum::Pair(p) = d {
            if let Some(mut pair) = Arc::into_inner(p) {
                let cdr = std::mem::replace(&mut pair.cdr, Datum::Nil);
                d = if let Datum::Pair(_) = pair.car {
                    if let Datum::Pair(_) = cdr {
                        later.push(cdr);
                    }
                    std::mem::replace(&mut pair.car, Datum::Nil)
                } else {
                    cdr
                };
                continue;
            }
        }
        match later.pop() {
            Some(next) => d = next,
            None => return,
        }
    }
}

/// Mixes two digest words (SplitMix64-style finalization over the
/// combination, cheap and well-distributed).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Distinct seeds per constructor so `(1 . ())` and `1` (etc.) differ.
const SEED_NIL: u64 = 0x7a4e_1b1f_0000_0001;
const SEED_UNSPEC: u64 = 0x7a4e_1b1f_0000_0002;
const SEED_BOOL: u64 = 0x7a4e_1b1f_0000_0003;
const SEED_INT: u64 = 0x7a4e_1b1f_0000_0004;
const SEED_CHAR: u64 = 0x7a4e_1b1f_0000_0005;
const SEED_STR: u64 = 0x7a4e_1b1f_0000_0006;
const SEED_SYM: u64 = 0x7a4e_1b1f_0000_0007;
const SEED_PAIR: u64 = 0x7a4e_1b1f_0000_0008;

impl Datum {
    /// Constructs a pair, sealing the structural digest of the new cell.
    pub fn cons(car: Datum, cdr: Datum) -> Datum {
        let digest = mix(SEED_PAIR, mix(car.digest(), cdr.digest()));
        Datum::Pair(Arc::new(Pair { car, cdr, digest }))
    }

    /// The 64-bit structural digest of this datum: a pure function of
    /// structure, cached inside every pair at construction time, so
    /// reading it is O(1) for pairs and O(1)–O(len) for atoms. Equal data
    /// always have equal digests; the converse holds only probabilistically
    /// (callers needing identity must compare structurally, as `Eq` does).
    pub fn digest(&self) -> u64 {
        match self {
            Datum::Nil => SEED_NIL,
            Datum::Unspec => SEED_UNSPEC,
            Datum::Bool(b) => mix(SEED_BOOL, u64::from(*b)),
            Datum::Int(n) => mix(SEED_INT, *n as u64),
            Datum::Char(c) => mix(SEED_CHAR, u64::from(*c)),
            // FNV-1a over the bytes; bare strings are rare as memo-key
            // leaves, and string *contents* never change.
            Datum::Str(s) => mix(SEED_STR, fnv1a(FNV1A_BASIS, s.as_bytes())),
            Datum::Sym(s) => mix(SEED_SYM, s.digest()),
            Datum::Pair(p) => p.digest,
        }
    }

    /// Constructs a proper list from an iterator.
    pub fn list<I>(items: I) -> Datum
    where
        I: IntoIterator<Item = Datum>,
        I::IntoIter: DoubleEndedIterator,
    {
        items
            .into_iter()
            .rev()
            .fold(Datum::Nil, |acc, d| Datum::cons(d, acc))
    }

    /// Constructs a symbol datum.
    pub fn sym(name: &str) -> Datum {
        Datum::Sym(Symbol::new(name))
    }

    /// Constructs a string datum.
    pub fn string(s: &str) -> Datum {
        Datum::Str(Arc::from(s))
    }

    /// The `car` of a pair, if this is a pair.
    pub fn car(&self) -> Option<&Datum> {
        match self {
            Datum::Pair(p) => Some(&p.car),
            _ => None,
        }
    }

    /// The `cdr` of a pair, if this is a pair.
    pub fn cdr(&self) -> Option<&Datum> {
        match self {
            Datum::Pair(p) => Some(&p.cdr),
            _ => None,
        }
    }

    /// True for `()`.
    pub fn is_nil(&self) -> bool {
        matches!(self, Datum::Nil)
    }

    /// True for a pair.
    pub fn is_pair(&self) -> bool {
        matches!(self, Datum::Pair(_))
    }

    /// True if this datum is a proper list.
    pub fn is_list(&self) -> bool {
        let mut d = self;
        loop {
            match d {
                Datum::Nil => return true,
                Datum::Pair(p) => d = &p.cdr,
                _ => return false,
            }
        }
    }

    /// The length of a proper list, or `None` for non-lists.
    pub fn list_len(&self) -> Option<usize> {
        let mut n = 0;
        let mut d = self;
        loop {
            match d {
                Datum::Nil => return Some(n),
                Datum::Pair(p) => {
                    n += 1;
                    d = &p.cdr;
                }
                _ => return None,
            }
        }
    }

    /// Iterates over the elements of a (possibly improper) list; the
    /// iterator yields the cars and stops at the first non-pair tail, which
    /// can be retrieved with [`ListIter::tail`].
    pub fn iter(&self) -> ListIter<'_> {
        ListIter { cur: self }
    }

    /// Collects a proper list into a vector; `None` if improper.
    pub fn to_vec(&self) -> Option<Vec<Datum>> {
        let mut out = Vec::new();
        let mut it = self.iter();
        for d in it.by_ref() {
            out.push(d.clone());
        }
        if it.tail().is_nil() {
            Some(out)
        } else {
            None
        }
    }

    /// If this is a proper list whose head is the symbol `head`, returns the
    /// remaining elements.
    pub fn as_form(&self, head: &str) -> Option<Vec<Datum>> {
        let v = self.to_vec()?;
        match v.first() {
            Some(Datum::Sym(s)) if s.as_str() == head => Some(v[1..].to_vec()),
            _ => None,
        }
    }

    /// The symbol name, if this is a symbol.
    pub fn as_sym(&self) -> Option<&Symbol> {
        match self {
            Datum::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Scheme truthiness: everything except `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Datum::Bool(false))
    }

    /// True for data that evaluate to themselves in Scheme (numbers,
    /// booleans, characters, strings).
    pub fn is_self_evaluating(&self) -> bool {
        matches!(
            self,
            Datum::Int(_) | Datum::Bool(_) | Datum::Char(_) | Datum::Str(_) | Datum::Unspec
        )
    }

    /// Structural size (number of pairs plus atoms), useful for tests and
    /// code-growth accounting.
    pub fn size(&self) -> usize {
        match self {
            Datum::Pair(p) => 1 + p.car.size() + p.cdr.size(),
            _ => 1,
        }
    }
}

impl Hash for Datum {
    /// Hashes the cached structural digest — one `u64` write, regardless
    /// of how deep the datum is.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest());
    }
}

impl From<i64> for Datum {
    fn from(n: i64) -> Self {
        Datum::Int(n)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Self {
        Datum::Bool(b)
    }
}

impl From<Symbol> for Datum {
    fn from(s: Symbol) -> Self {
        Datum::Sym(s)
    }
}

impl From<&str> for Datum {
    /// Interprets the string as a *symbol* name (the common case when
    /// building syntax); use [`Datum::string`] for string literals.
    fn from(s: &str) -> Self {
        Datum::sym(s)
    }
}

impl FromIterator<Datum> for Datum {
    fn from_iter<I: IntoIterator<Item = Datum>>(iter: I) -> Self {
        Datum::list(iter.into_iter().collect::<Vec<_>>())
    }
}

/// Iterator over the cars of a list datum; see [`Datum::iter`].
#[derive(Debug, Clone)]
pub struct ListIter<'a> {
    cur: &'a Datum,
}

impl<'a> ListIter<'a> {
    /// The tail at which iteration stopped (`Nil` for proper lists).
    pub fn tail(&self) -> &'a Datum {
        self.cur
    }
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a Datum;

    fn next(&mut self) -> Option<&'a Datum> {
        match self.cur {
            Datum::Pair(p) => {
                self.cur = &p.cdr;
                Some(&p.car)
            }
            _ => None,
        }
    }
}

impl fmt::Debug for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Nil => f.write_str("()"),
            Datum::Unspec => f.write_str("#!unspecific"),
            Datum::Bool(true) => f.write_str("#t"),
            Datum::Bool(false) => f.write_str("#f"),
            Datum::Int(n) => write!(f, "{n}"),
            Datum::Char(c) => match c {
                ' ' => f.write_str("#\\space"),
                '\n' => f.write_str("#\\newline"),
                '\t' => f.write_str("#\\tab"),
                c => write!(f, "#\\{c}"),
            },
            Datum::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Datum::Sym(s) => write!(f, "{s}"),
            Datum::Pair(_) => {
                // Print quote sugar back.
                if let (Some(Datum::Sym(head)), Some(2)) = (self.car(), self.list_len()) {
                    let sugar = match head.as_str() {
                        "quote" => Some("'"),
                        "quasiquote" => Some("`"),
                        "unquote" => Some(","),
                        "unquote-splicing" => Some(",@"),
                        _ => None,
                    };
                    if let Some(s) = sugar {
                        let arg = self.cdr().and_then(|d| d.car()).expect("len-2 list");
                        return write!(f, "{s}{arg}");
                    }
                }
                f.write_str("(")?;
                let mut it = self.iter();
                let mut first = true;
                for d in it.by_ref() {
                    if !first {
                        f.write_str(" ")?;
                    }
                    first = false;
                    write!(f, "{d}")?;
                }
                if !it.tail().is_nil() {
                    write!(f, " . {}", it.tail())?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(items: &[Datum]) -> Datum {
        Datum::list(items.to_vec())
    }

    #[test]
    fn list_construction_and_access() {
        let d = l(&[Datum::from(1), Datum::from(2), Datum::from(3)]);
        assert_eq!(d.list_len(), Some(3));
        assert!(d.is_list());
        assert_eq!(d.car(), Some(&Datum::Int(1)));
        assert_eq!(d.cdr().unwrap().list_len(), Some(2));
    }

    #[test]
    fn improper_list_detection() {
        let d = Datum::cons(Datum::from(1), Datum::from(2));
        assert!(!d.is_list());
        assert_eq!(d.list_len(), None);
        assert_eq!(d.to_vec(), None);
        let mut it = d.iter();
        assert_eq!(it.next(), Some(&Datum::Int(1)));
        assert_eq!(it.next(), None);
        assert_eq!(it.tail(), &Datum::Int(2));
    }

    #[test]
    fn display_round_shapes() {
        assert_eq!(Datum::Nil.to_string(), "()");
        assert_eq!(Datum::from(true).to_string(), "#t");
        assert_eq!(Datum::from(-42).to_string(), "-42");
        assert_eq!(Datum::Char(' ').to_string(), "#\\space");
        assert_eq!(Datum::string("a\"b\\c\n").to_string(), "\"a\\\"b\\\\c\\n\"");
        let d = Datum::cons(Datum::from(1), Datum::cons(Datum::from(2), Datum::from(3)));
        assert_eq!(d.to_string(), "(1 2 . 3)");
    }

    #[test]
    fn quote_sugar_prints_back() {
        let d = l(&[Datum::sym("quote"), Datum::sym("x")]);
        assert_eq!(d.to_string(), "'x");
        let d = l(&[
            Datum::sym("quasiquote"),
            l(&[Datum::sym("unquote"), Datum::sym("x")]),
        ]);
        assert_eq!(d.to_string(), "`,x");
    }

    #[test]
    fn as_form_matches_heads() {
        let d = l(&[Datum::sym("define"), Datum::sym("x"), Datum::from(1)]);
        let rest = d.as_form("define").unwrap();
        assert_eq!(rest.len(), 2);
        assert!(d.as_form("lambda").is_none());
        assert!(Datum::from(3).as_form("define").is_none());
    }

    #[test]
    fn truthiness_is_scheme_style() {
        assert!(Datum::Int(0).is_truthy());
        assert!(Datum::Nil.is_truthy());
        assert!(!Datum::Bool(false).is_truthy());
    }

    #[test]
    fn datum_is_hashable_and_eq() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(l(&[Datum::from(1), Datum::sym("a")]), "v");
        assert_eq!(m.get(&l(&[Datum::from(1), Datum::sym("a")])), Some(&"v"));
    }

    #[test]
    fn size_counts_pairs_and_atoms() {
        assert_eq!(Datum::from(1).size(), 1);
        assert_eq!(l(&[Datum::from(1), Datum::from(2)]).size(), 5);
    }

    #[test]
    fn digest_is_structural() {
        // Equal data have equal digests, however they were built.
        let a = l(&[Datum::from(1), Datum::sym("x"), Datum::Nil]);
        let b = Datum::cons(
            Datum::from(1),
            Datum::cons(Datum::sym("x"), Datum::cons(Datum::Nil, Datum::Nil)),
        );
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        // Different shapes differ (overwhelmingly likely).
        assert_ne!(a.digest(), l(&[Datum::from(1), Datum::sym("y")]).digest());
        assert_ne!(Datum::Nil.digest(), Datum::from(0).digest());
        assert_ne!(Datum::from(1).digest(), l(&[Datum::from(1)]).digest());
        // Symbol leaves digest by name, so the value is reproducible from
        // structure alone (no dependence on interner insertion order).
        assert_eq!(Datum::sym("abc").digest(), Datum::sym("abc").digest());
    }

    /// Runs `f` on a thread with a 2 MiB stack, the size the standard
    /// library gives a spawned thread by default.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("ran without overflowing its stack");
    }

    #[test]
    fn long_and_deep_data_drop_on_a_small_stack() {
        on_small_stack(|| {
            let long = (0..1_000_000).fold(Datum::Nil, |acc, i| Datum::cons(Datum::Int(i), acc));
            drop(long);
            let depth = crate::limits::Limits::default()
                .input_depth_cap
                .expect("a default depth cap");
            let deep = (0..depth).fold(Datum::Nil, |acc, _| Datum::cons(acc, Datum::Nil));
            drop(deep);
            // Nests down both links at once: every car and cdr a pair.
            let tree = (0..depth).fold(Datum::Nil, |acc, i| {
                Datum::cons(acc, Datum::cons(Datum::Int(i as i64), Datum::Nil))
            });
            drop(tree);
        });
    }

    #[test]
    fn long_lists_compare_on_a_small_stack() {
        on_small_stack(|| {
            let list = |last: i64| {
                (0..100_000).fold(Datum::cons(Datum::Int(last), Datum::Nil), |acc, i| {
                    Datum::cons(Datum::Int(i), acc)
                })
            };
            // Equal but distinct: every pair is compared.
            assert!(list(0) == list(0));
            // Unequal in the last element: the digests already differ at
            // the head.
            assert!(list(0) != list(1));
            // A shared tail ends the walk.
            let tail = list(7);
            let (a, b) = (
                Datum::cons(Datum::Int(1), tail.clone()),
                Datum::cons(Datum::Int(1), tail),
            );
            assert!(a == b);
        });
    }

    #[test]
    fn dropping_a_datum_keeps_what_others_share() {
        let shared = l(&[Datum::from(1), l(&[Datum::sym("x")]), Datum::string("s")]);
        let mut outer = Datum::Nil;
        for i in 0..1000 {
            outer = Datum::cons(l(&[Datum::from(i), shared.clone()]), outer);
        }
        let deep = Datum::cons(Datum::cons(shared.clone(), Datum::Nil), shared.clone());
        drop(outer);
        drop(deep);
        assert_eq!(shared.to_string(), "(1 (x) \"s\")");
        assert_eq!(shared.size(), 9);
    }

    #[test]
    fn digest_of_deep_pair_is_cached() {
        // Building once then reading digest repeatedly must agree with a
        // structural recomputation via a fresh identical tree.
        let mut d = Datum::Nil;
        for i in 0..200 {
            d = Datum::cons(Datum::from(i), d);
        }
        let mut e = Datum::Nil;
        for i in 0..200 {
            e = Datum::cons(Datum::from(i), e);
        }
        assert_eq!(d.digest(), e.digest());
        assert_eq!(d, e);
    }
}
