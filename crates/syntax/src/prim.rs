//! The table of primitive operations.
//!
//! Primitives are shared by every engine in the workspace: the tree-walking
//! interpreter, the byte-code VM, and the partial evaluator (which applies
//! *pure* primitives to static values at specialization time). The semantics
//! live in [`crate::value::apply_prim`]; this module is the table: names,
//! arities, and effect/staging classification.

use std::fmt;

/// A primitive operation of the core language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants mirror their Scheme names
pub enum Prim {
    // arithmetic
    Add,
    Sub,
    Mul,
    Quotient,
    Remainder,
    Modulo,
    Abs,
    Min,
    Max,
    // numeric comparison
    NumEq,
    Lt,
    Le,
    Gt,
    Ge,
    ZeroP,
    // equality
    EqP,
    EqvP,
    EqualP,
    // booleans
    Not,
    // pairs and lists
    Cons,
    Car,
    Cdr,
    PairP,
    NullP,
    List,
    Append,
    Length,
    Reverse,
    ListRef,
    Memq,
    Member,
    Assq,
    Assoc,
    // type predicates
    SymbolP,
    NumberP,
    StringP,
    BooleanP,
    CharP,
    ProcedureP,
    ListP,
    // strings and symbols
    SymbolToString,
    StringToSymbol,
    StringAppend,
    StringLength,
    NumberToString,
    StringEqualP,
    // characters
    CharToInteger,
    IntegerToChar,
    // effects and I/O
    Display,
    Write,
    Newline,
    Error,
    // boxes (introduced by assignment elimination; never written by users)
    BoxNew,
    BoxRef,
    BoxSet,
}

/// The number of arguments a primitive accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` arguments.
    Exact(usize),
    /// At least `n` arguments.
    AtLeast(usize),
}

impl Arity {
    /// Whether `n` arguments satisfy this arity.
    pub fn admits(self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

impl fmt::Display for Arity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arity::Exact(n) => write!(f, "{n}"),
            Arity::AtLeast(n) => write!(f, "at least {n}"),
        }
    }
}

/// Table row: `(variant, scheme name, arity, pure)`. Row `i` holds the
/// variant whose discriminant is `i`, so [`Prim::row`] indexes.
const TABLE: &[(Prim, &str, Arity, bool)] = &[
    (Prim::Add, "+", Arity::AtLeast(0), true),
    (Prim::Sub, "-", Arity::AtLeast(1), true),
    (Prim::Mul, "*", Arity::AtLeast(0), true),
    (Prim::Quotient, "quotient", Arity::Exact(2), true),
    (Prim::Remainder, "remainder", Arity::Exact(2), true),
    (Prim::Modulo, "modulo", Arity::Exact(2), true),
    (Prim::Abs, "abs", Arity::Exact(1), true),
    (Prim::Min, "min", Arity::AtLeast(1), true),
    (Prim::Max, "max", Arity::AtLeast(1), true),
    (Prim::NumEq, "=", Arity::AtLeast(2), true),
    (Prim::Lt, "<", Arity::AtLeast(2), true),
    (Prim::Le, "<=", Arity::AtLeast(2), true),
    (Prim::Gt, ">", Arity::AtLeast(2), true),
    (Prim::Ge, ">=", Arity::AtLeast(2), true),
    (Prim::ZeroP, "zero?", Arity::Exact(1), true),
    (Prim::EqP, "eq?", Arity::Exact(2), true),
    (Prim::EqvP, "eqv?", Arity::Exact(2), true),
    (Prim::EqualP, "equal?", Arity::Exact(2), true),
    (Prim::Not, "not", Arity::Exact(1), true),
    (Prim::Cons, "cons", Arity::Exact(2), true),
    (Prim::Car, "car", Arity::Exact(1), true),
    (Prim::Cdr, "cdr", Arity::Exact(1), true),
    (Prim::PairP, "pair?", Arity::Exact(1), true),
    (Prim::NullP, "null?", Arity::Exact(1), true),
    (Prim::List, "list", Arity::AtLeast(0), true),
    (Prim::Append, "append", Arity::AtLeast(0), true),
    (Prim::Length, "length", Arity::Exact(1), true),
    (Prim::Reverse, "reverse", Arity::Exact(1), true),
    (Prim::ListRef, "list-ref", Arity::Exact(2), true),
    (Prim::Memq, "memq", Arity::Exact(2), true),
    (Prim::Member, "member", Arity::Exact(2), true),
    (Prim::Assq, "assq", Arity::Exact(2), true),
    (Prim::Assoc, "assoc", Arity::Exact(2), true),
    (Prim::SymbolP, "symbol?", Arity::Exact(1), true),
    (Prim::NumberP, "number?", Arity::Exact(1), true),
    (Prim::StringP, "string?", Arity::Exact(1), true),
    (Prim::BooleanP, "boolean?", Arity::Exact(1), true),
    (Prim::CharP, "char?", Arity::Exact(1), true),
    (Prim::ProcedureP, "procedure?", Arity::Exact(1), true),
    (Prim::ListP, "list?", Arity::Exact(1), true),
    (
        Prim::SymbolToString,
        "symbol->string",
        Arity::Exact(1),
        true,
    ),
    (
        Prim::StringToSymbol,
        "string->symbol",
        Arity::Exact(1),
        true,
    ),
    (Prim::StringAppend, "string-append", Arity::AtLeast(0), true),
    (Prim::StringLength, "string-length", Arity::Exact(1), true),
    (
        Prim::NumberToString,
        "number->string",
        Arity::Exact(1),
        true,
    ),
    (Prim::StringEqualP, "string=?", Arity::Exact(2), true),
    (Prim::CharToInteger, "char->integer", Arity::Exact(1), true),
    (Prim::IntegerToChar, "integer->char", Arity::Exact(1), true),
    (Prim::Display, "display", Arity::Exact(1), false),
    (Prim::Write, "write", Arity::Exact(1), false),
    (Prim::Newline, "newline", Arity::Exact(0), false),
    (Prim::Error, "error", Arity::AtLeast(1), false),
    (Prim::BoxNew, "box", Arity::Exact(1), false),
    (Prim::BoxRef, "unbox", Arity::Exact(1), false),
    (Prim::BoxSet, "set-box!", Arity::Exact(2), false),
];

// Checked at compile time: row `i` holds variant `i`, and the table ends
// at the last variant, `BoxSet`.
const _: () = {
    assert!(TABLE.len() == Prim::BoxSet as usize + 1);
    let mut i = 0;
    while i < TABLE.len() {
        assert!(TABLE[i].0 as usize == i);
        i += 1;
    }
};

impl Prim {
    /// All primitives, in table order.
    pub fn all() -> impl Iterator<Item = Prim> {
        TABLE.iter().map(|row| row.0)
    }

    /// Looks a primitive up by its Scheme name.
    pub fn from_name(name: &str) -> Option<Prim> {
        TABLE.iter().find(|row| row.1 == name).map(|row| row.0)
    }

    /// The primitive's Scheme name.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// The primitive's arity.
    pub fn arity(self) -> Arity {
        self.row().2
    }

    /// Pure primitives may be evaluated at specialization time when all
    /// arguments are static; impure ones (`display`, `error`, boxes, …) are
    /// always residualized.
    pub fn is_pure(self) -> bool {
        self.row().3
    }

    /// Total primitives can neither fault nor have effects for *any*
    /// argument values (of the right count): constructors and type
    /// predicates. Only these may be dead-code-eliminated without changing
    /// failure behaviour.
    pub fn is_total(self) -> bool {
        matches!(
            self,
            Prim::Cons
                | Prim::PairP
                | Prim::NullP
                | Prim::EqP
                | Prim::EqvP
                | Prim::EqualP
                | Prim::Not
                | Prim::List
                | Prim::SymbolP
                | Prim::NumberP
                | Prim::StringP
                | Prim::BooleanP
                | Prim::CharP
                | Prim::ProcedureP
                | Prim::ListP
        )
    }

    fn row(self) -> &'static (Prim, &'static str, Arity, bool) {
        &TABLE[self as usize]
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_names() {
        for p in Prim::all() {
            assert_eq!(Prim::from_name(p.name()), Some(p), "{p:?}");
        }
    }

    #[test]
    fn unknown_names_are_none() {
        assert_eq!(Prim::from_name("call/cc"), None);
        assert_eq!(Prim::from_name(""), None);
    }

    #[test]
    fn arities() {
        assert!(Prim::Add.arity().admits(0));
        assert!(Prim::Add.arity().admits(5));
        assert!(!Prim::Sub.arity().admits(0));
        assert!(Prim::Cons.arity().admits(2));
        assert!(!Prim::Cons.arity().admits(3));
        assert_eq!(Prim::Car.arity(), Arity::Exact(1));
    }

    #[test]
    fn purity_classification() {
        assert!(Prim::Add.is_pure());
        assert!(Prim::Assq.is_pure());
        assert!(!Prim::Display.is_pure());
        assert!(!Prim::Error.is_pure());
        assert!(!Prim::BoxSet.is_pure());
    }

    #[test]
    fn display_prints_scheme_name() {
        assert_eq!(Prim::NumEq.to_string(), "=");
        assert_eq!(Prim::SymbolToString.to_string(), "symbol->string");
    }
}
