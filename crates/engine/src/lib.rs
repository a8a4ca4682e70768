//! # netrec-engine — the distributed recursive view engine
//!
//! Implements the paper's execution model (§3) and all four provenance-aware
//! operators (§4–§6) over the [`netrec_sim`] substrate:
//!
//! * [`ops::store`] — the **Fixpoint/Store** operator (Algorithm 1): the hash
//!   table `P : tuple → provenance` that merges alternative derivations,
//!   detects absorbed (no-op) updates, applies base deletions by restricting
//!   provenance variables, and emits exactly the deltas that change some
//!   annotation. A `Store` whose output feeds back through the recursive side
//!   of the plan *is* the fixpoint; the same operator materialises
//!   non-recursive views.
//! * [`ops::join`] — the **PipelinedHashJoin** (Algorithm 2): symmetric
//!   streaming hash join with per-side provenance tables and window support.
//! * [`ops::minship`] — the **MinShip** operator (Algorithm 3): ships the
//!   first derivation of each tuple immediately, buffers and absorbs the
//!   rest, with *eager* (periodic flush) and *lazy* (flush on deletion)
//!   policies.
//! * [`ops::aggsel`] — **aggregate selection** (Algorithm 4) extended to
//!   update streams: prunes tuples that cannot affect MIN/MAX objectives.
//! * [`ops::aggregate`] — windowed group-by aggregation (MIN/MAX/COUNT/SUM)
//!   with full deletion support (per-group multisets).
//! * [`ops::exchange`] / [`ops::ingress`] — repartitioning ships and the EDB
//!   ingress that allocates provenance variables and runs soft-state TTLs.
//!
//! The [`plan`] module wires operators into a per-peer dataflow (the paper's
//! Fig. 4); [`runner`] drives workloads through a simulated cluster and
//! gathers the four evaluation metrics; [`reference`](mod@reference) is an
//! independent
//! centralized Datalog evaluator used as the correctness oracle; and
//! [`dred`] layers the DRed over-delete/re-derive protocol on top of
//! set-semantics execution as the paper's main baseline.
//!
//! DESIGN.md: "Deletion propagation" covers the operators' cause-set
//! protocol; "Runtimes" covers the substrates [`runner`] drives;
//! "Performance notes" covers the hot-path engineering.

pub(crate) mod checkpoint;
pub mod ckptstore;
pub mod dred;
pub mod expr;
pub mod ops;
pub mod peer;
pub mod plan;
pub mod reference;
pub mod runner;
pub mod strategy;
pub(crate) mod trace;
pub mod update;
pub mod wiremsg;

pub use ckptstore::{
    CheckpointBackend, CheckpointServer, FileBackend, MemoryBackend, RemoteBackend,
};
pub use expr::{AggFn, CmpOp, Expr, Pred};
pub use netrec_serve::{ServeSpec, ViewReader, ViewStore};
pub use plan::{OpId, OpSpec, Plan, PlanBuilder, PlanError};
pub use runner::{
    CheckpointStore, EngineRuntime, EpochCheckpoint, RunReport, Runner, RunnerConfig,
};
pub use strategy::{ShipPolicy, Strategy};
pub use update::{Msg, Update};
