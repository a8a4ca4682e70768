//! # netrec-bdd — reduced ordered binary decision diagrams
//!
//! A from-scratch ROBDD library serving as the physical encoding of
//! *absorption provenance* (Liu et al., ICDE 2009, §4.1). The paper used
//! JavaBDD; this crate provides the same facilities in safe Rust:
//!
//! * a hash-consed unique table, so every Boolean function has exactly one
//!   canonical node — Boolean absorption (`a ∧ (a ∨ b) ≡ a`) falls out of
//!   canonicity for free; its collision chains run through the node array,
//!   so each node is stored once (bucket heads plus a link in the node);
//! * one two-operand `apply` behind `and`/`or`/`diff`/`not` (`x − y` is
//!   computed without building `¬y`), `ite` (if-then-else) behind `xor`, and
//!   a node-free `implies` — all memoised in one direct-mapped computed
//!   table;
//! * `restrict` (variable substitution by a constant, for one variable or a
//!   set in one pass), the operation used to process base-tuple deletions;
//! * `support` extraction, satisfying-assignment enumeration, model counting;
//! * a compact DAG serialisation used both for shipping annotations across the
//!   simulated network and for the paper's "per-tuple provenance bytes"
//!   metric;
//! * mark-and-sweep garbage collection rooted at the live handles, which the
//!   arena runs by itself as garbage builds up and whose freed node slots
//!   later nodes reuse — memory follows what is alive, not what was ever
//!   built (DESIGN.md "Annotation memory"). No operation and no DAG walk
//!   builds a memo or a visited set of its own: they share the computed
//!   table and per-slot visit stamps (DESIGN.md "BDD kernel").
//!
//! DESIGN.md: "System inventory" for the crate's role; "Deletion
//! propagation" for how `restrict` implements base-tuple deletion.
//!
//! Handles ([`Bdd`]) are cheap to clone, reference-counted, and keep their
//! nodes alive across garbage collections. All operations go through a
//! [`BddManager`]; combining handles from different managers panics (each
//! simulated peer owns its own manager, and annotations cross peers only in
//! serialised form).
//!
//! ```
//! use netrec_bdd::BddManager;
//!
//! let mgr = BddManager::new();
//! let (p1, p2, p3) = (mgr.var(1), mgr.var(2), mgr.var(3));
//! // absorption: p1 ∨ (p1 ∧ p2 ∧ p3) collapses to p1
//! let f = p1.or(&p1.and(&p2).and(&p3));
//! assert_eq!(f, p1);
//! // deleting base tuple 1 (restrict p1 := false) kills the expression
//! assert!(f.restrict_false(1).is_false());
//! ```

mod arena;
mod display;
mod handle;
mod serialize;

pub use arena::{BddManagerStats, Var};
pub use display::Cube;
pub use handle::{Bdd, BddManager};
pub use serialize::{check_encoding, DecodeError};

#[cfg(test)]
mod tests;
