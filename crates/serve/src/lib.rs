//! # netrec-serve — the lock-free serving layer
//!
//! A production service of the paper's engine is read-dominated: millions of
//! "is `u` connected to `v`?" / "which region holds `x`?" point lookups
//! against a trickle of updates. The engine's write path converges at
//! quiescent boundaries; this crate turns each converged boundary into a
//! **published read view** that any number of reader threads can probe with
//! zero coordination — no lock, no reference-count contention, no torn or
//! mid-cascade state.
//!
//! Two layers:
//!
//! * [`left_right`] — the generic primitive (Noria-style left-right /
//!   double-buffered maps): a single [`WriteHandle`] owns two copies of the
//!   data and a delta log; [`publish`](WriteHandle::publish) applies the log
//!   to the standby copy, atomically swaps it in, waits out readers still
//!   pinned in the old copy, then replays the log so both sides converge.
//!   Each [`ReadHandle`] owns a private epoch counter (its own cache line):
//!   a read is two uncontended atomic increments around a plain map probe.
//! * [`views`] — the engine-facing instantiation: a [`ViewStore`] of
//!   materialized view relations (membership set + first-column index +
//!   order-insensitive fingerprint per relation), mutated by
//!   [`ViewOp`] membership deltas that the engine's stores extract from
//!   their DRed insert/delete outcomes, plus the typed point-lookup API
//!   ([`ViewStore::connected`], [`ViewStore::region_of`],
//!   [`ViewStore::view_contains`]).
//!
//! The publish cadence is owned by the engine's `Runner`: it drains
//! per-store membership deltas at every run-to-quiescence boundary (on every
//! substrate — DES, async, sharded) and publishes them as one
//! epoch. DESIGN.md "Serving layer" carries the protocol ledger and the
//! proof sketch for why readers can never observe a half-applied cascade.

pub mod left_right;
pub mod views;

pub use left_right::{Absorb, ReadGuard, ReadHandle, WriteHandle};
pub use views::{ServeSpec, ViewOp, ViewReader, ViewStore, ViewWriter};
