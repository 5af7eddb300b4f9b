//! Language kernel for the `two4one` system, a reproduction of Sperber &
//! Thiemann, *"Two for the Price of One: Composing Partial Evaluation and
//! Compilation"* (PLDI 1997).
//!
//! This crate hosts everything the rest of the workspace agrees on:
//!
//! * [`Symbol`] — cheap interned-ish identifiers, plus [`Gensym`] for fresh
//!   name generation;
//! * [`Datum`] — s-expression data, with a [`reader`](mod@reader), both a
//!   plain and a pretty [`printer`](mod@printer), and one canonical byte
//!   encoding ([`codec`]) that the reader can also write straight from text;
//! * [`Prim`] — the table of primitive operations shared by the tree-walking
//!   interpreter, the byte-code VM, and the partial evaluator;
//! * [`cs`] — the Core Scheme abstract syntax of the paper's Fig. 1;
//! * [`acs`] — the two-level Annotated Core Scheme of Sec. 4;
//! * [`cata`] — the syntax functor and generic recursion schema (catamorphism)
//!   of Sec. 5.1–5.3;
//! * [`value`] — the runtime value domain, generic over the procedure
//!   representation, and the one primitive evaluator that the interpreter
//!   (`two4one-interp`), the VM (`two4one-vm`) and, on static data, the
//!   partial evaluator share.
//!
//! # Example
//!
//! ```
//! use two4one_syntax::reader::read_one;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = read_one("(+ 1 (* 2 3))")?;
//! assert_eq!(d.to_string(), "(+ 1 (* 2 3))");
//! # Ok(())
//! # }
//! ```

pub mod acs;
pub mod cata;
pub mod codec;
pub mod cs;
pub mod datum;
pub mod limits;
pub mod prim;
pub mod printer;
pub mod reader;
pub mod stack;
pub mod symbol;
pub mod symset;
pub mod value;

pub use datum::Datum;
pub use limits::{CancelToken, Deadline, LimitExceeded, LimitKind, Limits};
pub use prim::{Arity, Prim};
pub use symbol::{Gensym, Symbol};
pub use symset::SymSet;
