//! # netrec-sim — simulated cluster substrate
//!
//! The paper ran its Java query processor on two physical clusters joined by
//! a shared 100 Mbps campus link. This crate substitutes a **deterministic
//! discrete-event simulation** of that environment (see DESIGN.md's
//! substitution ledger):
//!
//! * [`des`] — the event-driven runner: peers exchange messages over
//!   FIFO-per-channel links with a latency + bandwidth + fixed CPU cost
//!   model, configured by one [`DesConfig`] (coalescing, fault plan);
//!   one-shot timers drive MinShip's periodic flushes and soft-state expiry;
//!   the run converges when no events remain (global quiescence), and the
//!   convergence time is the timestamp of the last processed event —
//!   mirroring the paper's "time taken for a distributed query to finish
//!   execution on all distributed nodes".
//! * [`net`] — the cluster model ([`ClusterSpec`]: intra/inter-cluster
//!   latency and bandwidth, the 16+8 two-cluster profile of §7) and the
//!   [`Partitioner`] that places horizontal partitions on peers (hash-based,
//!   standing in for FreePastry).
//! * [`metrics`] — per-peer byte/message/tuple accounting; every number in
//!   `REPRODUCTION.md` flows from here.
//! * [`runtime`] — the **runtime seam**: the [`Runtime`] trait every
//!   substrate implements (inject → run-to-quiescence → snapshot, honoring
//!   [`RunBudget`]), plus [`RuntimeKind`] for drivers that select a
//!   substrate at configuration time.
//! * [`async_rt`] — the executor, the one concurrent event loop: peers
//!   are state machines, one executor thread runs the quanta of the
//!   (global) peers it hosts to completion from per-peer inboxes and a FIFO
//!   ready queue, with an in-loop timer min-heap, one unbounded ingress
//!   channel as the only way in from another thread (and the loop's only
//!   blocking wait), and one place where a frame is routed — own inbox,
//!   another shard's ingress, or its TCP link — running the same
//!   [`PeerNode`] logic as the DES; one core hosts thousands of peers.
//!   Timing is wall-clock rather than modelled.
//! * [`sharded`] — the one concurrent [`Runtime`], configured by one
//!   [`ShardedConfig`]: the peer set partitioned
//!   across N executors (pluggable [`ShardAssignment`]; one shard is the
//!   "async" runtime) behind one controller, whose single shared in-flight
//!   counter extends the quiescence/timer-fence contract globally — real
//!   OS-thread parallelism, up to one peer per thread (`shards == peers`).
//!   With [`TransportKind::Tcp`] the cross-shard seam becomes a real
//!   socket (see [`tcp`]).
//! * [`tcp`] — the supervised TCP shard transport: length-framed,
//!   CRC-checked loopback sockets between shards under per-link connection
//!   supervision (reconnect with backoff + jitter, heartbeat failure
//!   detection, ack-ledger retransmit, sequence dedup; its timings are
//!   constants) — exactly-once per-channel FIFO preserved across
//!   connection death.
//! * [`mod@coalesce`] — the transport batching layer every substrate shares:
//!   same-destination messages from one scheduling quantum merge into one
//!   physical [`Frame`] (one channel send, one in-flight count, one wake),
//!   split back in FIFO order at the receiver; logical metrics stay
//!   per-message while envelope counts expose the physical win.
//! * [`fault`] — seeded fault injection at the transport seam: one
//!   [`FaultPlan`] perturbs delivery timing (drop+retransmit, discarded
//!   duplicates, jitter, stall windows, partitions) keyed on global peer
//!   ids on every substrate, exactly replayable on the DES, while preserving the
//!   reliable/exactly-once/FIFO channel contract the engine assumes.
//!
//! DESIGN.md: "Runtimes" is this crate's section — the session contract,
//! the per-substrate ledger, and the recipe for adding a substrate.

pub mod async_rt;
pub mod coalesce;
pub mod des;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod runtime;
pub mod sharded;
mod substrate_common;
pub mod tcp;

pub use coalesce::{coalesce, frames, Frame, FrameBody, Frames};
pub use des::{NetApi, PeerNode, Simulator};
pub use fault::{FaultDecision, FaultPlan, FaultStats};
pub use metrics::{EnvelopeMeta, MsgMeta, NetMetrics, PeerMetrics};
pub use net::{ClusterSpec, Partitioner, PeerId, Port};
pub use runtime::{DesConfig, RunBudget, RunOutcome, Runtime, RuntimeKind};
pub use sharded::{ShardAssignment, ShardedConfig, ShardedRuntime, TransportKind};
pub use tcp::{LinkState, WireMsg};
