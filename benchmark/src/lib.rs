//! Update-to-visible benchmark of record for netrec. See `README.md`.

pub mod check;
pub mod client;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
