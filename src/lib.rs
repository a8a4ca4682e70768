//! # netrec — recursive computation of regions and connectivity in networks
//!
//! Umbrella crate re-exporting the full stack. See [`netrec_core`] for the
//! high-level API, `README.md` for an overview, `DESIGN.md` for the system
//! inventory and `REPRODUCTION.md` for the paper-vs-measured record.
//!
//! Layers (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | [`bdd`] | ROBDD engine (absorption provenance substrate) |
//! | [`types`] | values, tuples, schemas, wire format, simulated time |
//! | [`prov`] | absorption / relative provenance algebras |
//! | [`topo`] | transit-stub + sensor-grid generators, workloads |
//! | [`sim`] | discrete-event cluster simulator + the concurrent runtime: one event loop per shard, shards joined by channels or TCP |
//! | [`engine`] | Fixpoint, PipelinedHashJoin, MinShip, AggSel, DRed, oracle |
//! | [`datalog`] | NDlog-style parser + distributed planner |
//! | [`core`] | facade: the paper's queries as ready-made systems |

pub use netrec_bdd as bdd;
pub use netrec_core as core;
pub use netrec_datalog as datalog;
pub use netrec_engine as engine;
pub use netrec_prov as prov;
pub use netrec_sim as sim;
pub use netrec_topo as topo;
pub use netrec_types as types;

pub use netrec_core::{RuntimeKind, System, SystemConfig};
pub use netrec_engine::{ServeSpec, Strategy, ViewReader};
