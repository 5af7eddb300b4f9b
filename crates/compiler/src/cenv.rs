//! The compile-time environment: names → locations.
//!
//! Mirrors the `cenv` parameter of the paper's compilators. A location is
//! an argument/`let` slot of the current frame, a captured slot of the
//! running closure, a join point's block in the current template, or (by
//! omission — see the global table in [`crate::compile_triv`]) a global.
//!
//! The environment is persistent (an immutable linked list) because the
//! fused emission loop keeps one per pending body on its work stack, each
//! sharing its tail with the others.

use std::sync::Arc;
use two4one_syntax::symbol::Symbol;
use two4one_vm::Label;

/// Where a variable lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Local slot `i` of the current frame (arguments, then `let`s).
    Local(u16),
    /// Captured slot `i` of the running closure.
    Captured(u16),
    /// A join point: its block starts at `label`, and its parameter lives
    /// in local slot `depth`. Not a value — only a tail call reaches it.
    Join {
        /// Start of the join block.
        label: Label,
        /// Locals depth at the join's `let`: the parameter's slot.
        depth: u16,
    },
}

/// A persistent compile-time environment.
#[derive(Debug, Clone, Default)]
pub struct CEnv(Option<Arc<Node>>);

#[derive(Debug)]
struct Node {
    name: Symbol,
    loc: Loc,
    next: CEnv,
}

impl Drop for Node {
    /// Unlinks the nodes this one alone owns in a loop: the derived drop
    /// recurses once per binding, which overflows a thread's stack on a
    /// long `let` chain.
    fn drop(&mut self) {
        let mut next = self.next.0.take();
        while let Some(mut node) = next.and_then(Arc::into_inner) {
            next = node.next.0.take();
        }
    }
}

impl CEnv {
    /// The empty environment.
    pub fn empty() -> Self {
        CEnv(None)
    }

    /// Extends with one binding.
    pub fn bind(&self, name: Symbol, loc: Loc) -> CEnv {
        CEnv(Some(Arc::new(Node {
            name,
            loc,
            next: self.clone(),
        })))
    }

    /// Looks up the innermost binding.
    pub fn lookup(&self, name: &Symbol) -> Option<Loc> {
        let mut cur = &self.0;
        while let Some(n) = cur {
            if &n.name == name {
                return Some(n.loc);
            }
            cur = &n.next.0;
        }
        None
    }

    /// The block and parameter slot of `name`, when it is a join point.
    pub fn join(&self, name: &Symbol) -> Option<(Label, u16)> {
        match self.lookup(name) {
            Some(Loc::Join { label, depth }) => Some((label, depth)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_shadowing() {
        let e = CEnv::empty()
            .bind(Symbol::new("x"), Loc::Local(0))
            .bind(Symbol::new("y"), Loc::Captured(1))
            .bind(Symbol::new("x"), Loc::Local(5));
        assert_eq!(e.lookup(&Symbol::new("x")), Some(Loc::Local(5)));
        assert_eq!(e.lookup(&Symbol::new("y")), Some(Loc::Captured(1)));
        assert_eq!(e.lookup(&Symbol::new("z")), None);
    }

    #[test]
    fn a_long_environment_drops_in_a_loop() {
        let dropped = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let x = Symbol::new("x");
                let mut e = CEnv::empty();
                for _ in 0..100_000 {
                    e = e.bind(x, Loc::Local(0));
                }
                drop(e);
            })
            .unwrap()
            .join();
        assert!(dropped.is_ok());
    }

    #[test]
    fn persistence() {
        let base = CEnv::empty().bind(Symbol::new("a"), Loc::Local(0));
        let ext = base.bind(Symbol::new("b"), Loc::Local(1));
        assert_eq!(base.lookup(&Symbol::new("b")), None);
        assert_eq!(ext.lookup(&Symbol::new("a")), Some(Loc::Local(0)));
    }
}
