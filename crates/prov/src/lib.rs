//! # netrec-prov — provenance algebras for incremental view maintenance
//!
//! The paper's central idea is to annotate every view tuple with enough
//! derivability bookkeeping that a base-tuple deletion can be applied
//! *directly*, without DRed's over-delete/re-derive scan. This crate
//! implements the two annotation schemes compared in the evaluation:
//!
//! * [`absorption`] — **absorption provenance** (§4): a Boolean expression
//!   over base-tuple variables, physically a ROBDD ([`netrec_bdd`]), so
//!   Boolean absorption keeps annotations minimal and deletion is
//!   `restrict(var ← false)`.
//! * [`relative`] — **relative provenance** (Green et al., VLDB'07; the
//!   paper's §4 "provenance alternatives"): an AND-OR derivation graph that
//!   records which tuples were immediate consequents of which others.
//!   Derivability after deletion requires a least-fixpoint traversal, and the
//!   annotations ship whole derivation subgraphs — which is exactly why the
//!   paper finds it heavier than absorption on every metric.
//!
//! The third mode, set semantics ([`Prov::None`]), carries no annotation;
//! DRed's over-delete/re-derive protocol runs on top of it.
//!
//! DESIGN.md: "Deletion propagation" describes how these annotations drive
//! cause-set deletions; "Relative-provenance cap" documents the relative
//! scheme's size guard.
//!
//! [`Prov`] is the tagged union the engine's operators carry on every update;
//! [`VarAllocator`]/[`VarTable`] manage the base-tuple variable space, which
//! is shared by the absorption *and* relative schemes (base tuples are
//! identified by variable in both). A variable's high bits are the address
//! in its base tuple's partition attribute and its low bits the home peer's
//! counter, so the BDD order follows the topology's numbering (DESIGN.md
//! "Variable order").

pub mod absorption;
pub mod relative;

mod prov;

pub use absorption::{VarAllocator, VarTable};
pub use prov::{Prov, ProvMode};
pub use relative::RelProv;
