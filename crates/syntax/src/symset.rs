//! Compact symbol sets: small sets inline, larger ones one shared slice.
//!
//! The specializer threads free-variable sets through every continuation,
//! join point, and unfold; with `BTreeSet` that meant a fresh tree clone
//! (one allocation per node) at each step. A [`SymSet`] is a deduplicated
//! set of symbols sorted by intern id. Most sets the specializer builds
//! are empty or hold one variable (every residual variable reference is a
//! singleton), so those live inline and allocate nothing; a set of two or
//! more symbols is one `Arc<[Symbol]>` allocation, so cloning is one
//! refcount bump and unions are linear merges.
//!
//! The representation is normalized by length — at most one element
//! inline, two or more in the slice — so the derived equality compares
//! sets, whichever operations built them.
//!
//! Iteration order is **id order** (interning order), not name order —
//! deterministic within a process, which is all the residual-code
//! bookkeeping needs.

use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A set of symbols, ordered by intern id, with O(1) clone.
#[derive(Clone, PartialEq, Eq)]
pub struct SymSet(Repr);

/// `Small` holds every set of at most one element, `Many` every larger
/// one, so two equal sets always have equal representations.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Small(Option<Symbol>),
    Many(Arc<[Symbol]>),
}

impl SymSet {
    /// The empty set. Allocation-free.
    pub fn new() -> Self {
        SymSet(Repr::Small(None))
    }

    /// A one-element set. Allocation-free.
    pub fn singleton(s: Symbol) -> Self {
        SymSet(Repr::Small(Some(s)))
    }

    /// The set of the `len` symbols `it` yields in id order, in its
    /// normal representation. `len` must be `it`'s exact length: the
    /// slice of a larger set is then collected from a mapped range, whose
    /// length the standard library trusts, so it is allocated once at its
    /// final size.
    fn from_sorted(len: usize, mut it: impl Iterator<Item = Symbol>) -> Self {
        let Some(first) = it.next() else {
            return SymSet::new();
        };
        if len == 1 {
            return SymSet::singleton(first);
        }
        let rest = (1..len).map(|_| it.next().unwrap_or(first));
        SymSet(Repr::Many(std::iter::once(first).chain(rest).collect()))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Small(None))
    }

    /// Membership test (binary search by id).
    pub fn contains(&self, s: &Symbol) -> bool {
        self.as_slice().binary_search(s).is_ok()
    }

    /// Inserts `s`; returns true if it was new.
    pub fn insert(&mut self, s: Symbol) -> bool {
        let old = self.as_slice();
        match old.binary_search(&s) {
            Ok(_) => false,
            Err(i) => {
                let grown = old[..i].iter().chain([&s]).chain(&old[i..]);
                *self = SymSet::from_sorted(old.len() + 1, grown.copied());
                true
            }
        }
    }

    /// Removes `s`; returns true if it was present.
    pub fn remove(&mut self, s: &Symbol) -> bool {
        let old = self.as_slice();
        match old.binary_search(s) {
            Ok(i) => {
                let shrunk = old[..i].iter().chain(&old[i + 1..]);
                *self = SymSet::from_sorted(old.len() - 1, shrunk.copied());
                true
            }
            Err(_) => false,
        }
    }

    /// `self ∪ other`, in place. When `self` is empty this is a handle
    /// copy of `other` (no allocation); otherwise a linear merge that
    /// allocates only when something is actually added.
    pub fn union_with(&mut self, other: &SymSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let added = b.iter().filter(|s| a.binary_search(s).is_err()).count();
        if added > 0 {
            *self = SymSet::from_sorted(a.len() + added, Union { a, b });
        }
    }

    /// Keeps only elements satisfying `pred` (order preserved). `pred`
    /// may be called more than once per element.
    pub fn retain(&mut self, mut pred: impl FnMut(&Symbol) -> bool) {
        let old = self.as_slice();
        let kept = old.iter().filter(|s| pred(s)).count();
        if kept < old.len() {
            *self = SymSet::from_sorted(kept, old.iter().copied().filter(|s| pred(s)));
        }
    }

    /// `self ∖ {s}`, by value (convenience for the filter-one-binder
    /// pattern at `let` and join points).
    pub fn without(mut self, s: &Symbol) -> Self {
        self.remove(s);
        self
    }

    /// Iterates in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Symbol> {
        self.as_slice().iter()
    }

    /// The elements as a sorted slice — feeds `CodeBuilder::lambda`'s
    /// free-variable list without an intermediate `Vec`.
    pub fn as_slice(&self) -> &[Symbol] {
        match &self.0 {
            Repr::Small(None) => &[],
            Repr::Small(Some(s)) => std::slice::from_ref(s),
            Repr::Many(v) => v,
        }
    }
}

/// The union of two id-sorted slices, in id order.
struct Union<'a> {
    a: &'a [Symbol],
    b: &'a [Symbol],
}

impl Iterator for Union<'_> {
    type Item = Symbol;

    fn next(&mut self) -> Option<Symbol> {
        match (self.a.split_first(), self.b.split_first()) {
            (Some((x, ra)), Some((y, rb))) => {
                match x.cmp(y) {
                    Ordering::Less => self.a = ra,
                    Ordering::Greater => self.b = rb,
                    Ordering::Equal => (self.a, self.b) = (ra, rb),
                }
                Some(*x.min(y))
            }
            (Some((x, ra)), None) => {
                self.a = ra;
                Some(*x)
            }
            (None, Some((y, rb))) => {
                self.b = rb;
                Some(*y)
            }
            (None, None) => None,
        }
    }
}

impl Default for SymSet {
    fn default() -> Self {
        SymSet::new()
    }
}

impl fmt::Debug for SymSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Symbol> for SymSet {
    fn from_iter<I: IntoIterator<Item = Symbol>>(iter: I) -> Self {
        let mut v: Vec<Symbol> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        SymSet::from_sorted(v.len(), v.into_iter())
    }
}

impl Extend<Symbol> for SymSet {
    fn extend<I: IntoIterator<Item = Symbol>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl<'a> IntoIterator for &'a SymSet {
    type Item = &'a Symbol;
    type IntoIter = std::slice::Iter<'a, Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: &str) -> Symbol {
        Symbol::new(n)
    }

    /// Three distinct symbols, in id order.
    fn abc() -> [Symbol; 3] {
        let mut s = [sym("set-a"), sym("set-b"), sym("set-c")];
        s.sort();
        s
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = SymSet::new();
        assert!(s.is_empty());
        assert!(s.insert(sym("a")));
        assert!(!s.insert(sym("a")));
        assert!(s.insert(sym("b")));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&sym("a")));
        assert!(s.remove(&sym("a")));
        assert!(!s.remove(&sym("a")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cow_preserves_shared_copies() {
        let mut a: SymSet = [sym("x"), sym("y")].into_iter().collect();
        let b = a.clone();
        a.insert(sym("z"));
        assert_eq!(b.len(), 2);
        assert_eq!(a.len(), 3);
        assert!(!b.contains(&sym("z")));
    }

    /// Every way of arriving at a set of 0, 1, 2 or 3 elements — growing
    /// it, shrinking it from a larger set, merging, collecting — gives a
    /// set equal to every other way, iterating in id order.
    #[test]
    fn every_route_to_a_set_builds_an_equal_set() {
        let [a, b, c] = abc();
        let all: SymSet = [c, a, b].into_iter().collect();
        for want in [
            vec![],
            vec![a],
            vec![b],
            vec![c],
            vec![a, c],
            vec![b, c],
            vec![a, b, c],
        ] {
            let missing: Vec<Symbol> = [a, b, c]
                .into_iter()
                .filter(|s| !want.contains(s))
                .collect();
            let mut routes: Vec<(&str, SymSet)> = Vec::new();
            routes.push(("from_iter", want.iter().rev().copied().collect()));
            routes.push((
                "from_iter with repeats",
                want.iter().chain(&want).copied().collect(),
            ));
            let mut s = SymSet::new();
            for x in want.iter().rev() {
                s.insert(*x);
            }
            routes.push(("insert", s));
            let mut s = SymSet::new();
            for x in &want {
                s.union_with(&SymSet::singleton(*x));
            }
            routes.push(("union of singletons", s));
            let mut s: SymSet = want.iter().take(1).copied().collect();
            s.union_with(&want.iter().skip(1).copied().collect());
            s.union_with(&want.iter().rev().take(2).copied().collect());
            routes.push(("union of overlapping sets", s));
            let mut s = all.clone();
            for x in &missing {
                s.remove(x);
            }
            routes.push(("remove", s));
            routes.push((
                "without",
                missing.iter().fold(all.clone(), |s, x| s.without(x)),
            ));
            let mut s = all.clone();
            s.retain(|x| want.contains(x));
            routes.push(("retain", s));
            if let [x] = want[..] {
                routes.push(("singleton", SymSet::singleton(x)));
            }
            if want.is_empty() {
                routes.push(("new", SymSet::new()));
                routes.push(("default", SymSet::default()));
            }
            let (_, first) = &routes[0];
            for (route, set) in &routes {
                assert_eq!(set, first, "{route} for {want:?}");
                assert_eq!(set.iter().copied().collect::<Vec<_>>(), want, "{route}");
                assert_eq!(set.as_slice(), &want[..], "{route}");
                assert_eq!((set.len(), set.is_empty()), (want.len(), want.is_empty()));
                for x in [a, b, c] {
                    assert_eq!(set.contains(&x), want.contains(&x), "{route}: {x}");
                }
            }
        }
    }

    #[test]
    fn union_merges_and_shares() {
        let [a, b, c] = abc();
        let ab: SymSet = [b, a].into_iter().collect();
        let mut empty = SymSet::new();
        empty.union_with(&ab);
        assert_eq!(empty, ab);
        let mut bc: SymSet = [c, b].into_iter().collect();
        bc.union_with(&ab);
        assert_eq!(bc.as_slice(), &[a, b, c]);
        // Unions that add nothing leave the set equal.
        let before = bc.clone();
        bc.union_with(&SymSet::new());
        bc.union_with(&SymSet::singleton(b));
        bc.union_with(&ab);
        assert_eq!(bc, before);
        let mut one = SymSet::singleton(a);
        one.union_with(&SymSet::singleton(a));
        assert_eq!(one, SymSet::singleton(a));
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let s: SymSet = [sym("m"), sym("k"), sym("m"), sym("k")]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        // Sorted by id: strictly increasing.
        assert!(s.as_slice().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn retain_and_without() {
        let s: SymSet = [sym("a1"), sym("b1"), sym("c1")].into_iter().collect();
        let t = s.clone().without(&sym("b1"));
        assert_eq!(t.len(), 2);
        assert!(!t.contains(&sym("b1")));
        let mut u = s;
        u.retain(|x| x.as_str() != "a1");
        assert!(!u.contains(&sym("a1")));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn a_singleton_holds_its_element_inline() {
        let s = SymSet::singleton(sym("inline"));
        let base = &s as *const SymSet as usize;
        let elem = s.as_slice().as_ptr() as usize;
        assert!((base..base + std::mem::size_of::<SymSet>()).contains(&elem));
        assert!(std::mem::size_of::<SymSet>() <= 16);
    }
}
