//! # netrec-core — distributed recursive views over dynamic networks
//!
//! The public facade of the netrec stack: a faithful, from-scratch
//! reproduction of *Liu, Taylor, Zhou, Ives, Loo — "Recursive Computation of
//! Regions and Connectivity in Networks"* (UPenn MS-CIS-08-32 / ICDE 2009).
//!
//! The system maintains **distributed recursive views** (reachability,
//! shortest paths, contiguous sensor regions) over streams of base-tuple
//! insertions and deletions, using:
//!
//! * **absorption provenance** — ROBDD annotations that make deletions a
//!   variable restriction ([`netrec_prov`], [`netrec_bdd`]);
//! * the **MinShip** operator — lazy/eager buffering of alternative
//!   derivations ([`netrec_engine::ops::minship`]);
//! * **aggregate selection** on update streams
//!   ([`netrec_engine::ops::aggsel`]);
//! * plus the baselines the paper compares against: **DRed** and **relative
//!   provenance**.
//!
//! ## Quick start
//!
//! ```
//! use netrec_core::{System, SystemConfig};
//! use netrec_engine::Strategy;
//! use netrec_topo::{transit_stub, TransitStubParams, Workload};
//!
//! // A 100-router transit-stub network, maintained by 4 query peers.
//! let topo = transit_stub(TransitStubParams::default(), 42);
//! let mut sys = System::reachable(SystemConfig::new(Strategy::absorption_lazy(), 4));
//! sys.apply(&Workload::insert_links(&topo, 1.0, 7));
//! let report = sys.run("load");
//! assert!(report.converged());
//! let view = sys.view("reachable");
//! assert!(!view.is_empty());
//! ```
//!
//! [`SystemConfig::with_runtime`](system::SystemConfig::with_runtime)
//! selects the execution substrate ([`RuntimeKind`]): the deterministic DES
//! (default), or the concurrent runtime on one executor thread ("async")
//! or sharded across several. DESIGN.md: "System inventory" for the crate's facade role,
//! "Runtimes" for the substrate contract.

pub mod queries;
pub mod system;

pub use queries::{paths, reachable, regions, AggSelChoice};
pub use system::{System, SystemConfig};

// Re-export the layers a downstream user needs without naming every crate.
pub use netrec_engine::{dred, reference, RunReport, Runner, RunnerConfig, Strategy};
pub use netrec_sim::{
    ClusterSpec, DesConfig, FaultPlan, FaultStats, Partitioner, RunBudget, RunOutcome, Runtime,
    RuntimeKind, ShardAssignment, ShardedConfig,
};
