//! # netrec-datalog — NDlog-style Datalog front end
//!
//! The paper writes all of its queries in Datalog (with SQL-99 equivalents);
//! declarative networking's NDlog additionally marks the partitioning
//! attribute with a location specifier (`link(@X, Y, C)`). This crate
//! provides:
//!
//! * a hand-rolled lexer/parser for that dialect ([`parse_program`]),
//!   including aggregate heads (`min<C>`, `max<C>`, `count<X>`, `sum<C>`),
//!   assignments (`C := C0 + C1`), list construction (`[X, Y]`, `[X | P]`),
//!   comparisons, disjunctions (`(X notin P ; X == Y)`), oracle-only
//!   `guard` filters, `@` location specifiers, and `static a, b.`
//!   declarations of base relations that are never deleted;
//! * a compiler to the centralized reference evaluator
//!   ([`Compiled::oracle`]);
//! * a distributed planner ([`Compiled::plan`]) that lowers every rule to
//!   the engine's operator graph in the paper's Fig. 4 shape: pipelined
//!   hash joins from the recursive atom, an Exchange only where a stream
//!   must move, a MinShip closing each recursive rule, and group aggregates
//!   for aggregate heads. [`compile_with_aggsel`] adds §6 aggregate
//!   selection: the recursive relation the named `min`/`max` heads read is
//!   pruned by them. Every `netrec-core` query is compiled by it.
//!
//! ```
//! let program = netrec_datalog::parse_program(r#"
//!     reachable(@X, Y) :- link(@X, Y, C).
//!     reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).
//! "#).unwrap();
//! let compiled = netrec_datalog::compile(&program).unwrap();
//! assert!(compiled.plan().is_recursive());
//! ```
//!
//! DESIGN.md: "System inventory" for the crate's place in the stack — the
//! planner lowers onto the operators of "Deletion propagation".

mod ast;
mod compile;
mod lexer;
mod parser;
mod planner;

pub use ast::{Aggregate, Arg, AstAtom, AstProgram, AstRule, BodyExpr, BodyLit, Cmp, Filter};
pub use compile::{compile, compile_with_aggsel, CompileError, Compiled};
pub use parser::{parse_program, ParseError};
