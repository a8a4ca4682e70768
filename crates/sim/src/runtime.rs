//! The runtime seam: one session contract over every execution substrate.
//!
//! A [`Runtime`] hosts a set of [`PeerNode`](crate::des::PeerNode)s and
//! drives them through **phases**: the driver injects external inputs at the
//! current frontier, calls [`Runtime::run`] to reach global quiescence (or
//! exhaust the [`RunBudget`]), then snapshots metrics and inspects peer
//! state. Repeating the cycle gives multi-phase workloads (load → churn →
//! re-derive) the same shape on every substrate. The full contract is
//! spelled out on [`Runtime`]; DESIGN.md "Runtimes" carries the
//! per-substrate ledger.
//!
//! Implementations: the deterministic discrete-event
//! [`Simulator`](crate::des::Simulator) (the oracle every test diffs
//! against) and the concurrent
//! [`ShardedRuntime`](crate::sharded::ShardedRuntime) (the peer set
//! partitioned over N run-to-completion event loops, one executor thread
//! each and thousands of peers per core, joined by in-process channels or
//! TCP; one shard is the "async" runtime).

use netrec_types::SimTime;

use crate::fault::FaultPlan;
use crate::metrics::NetMetrics;
use crate::net::{PeerId, Port};
use crate::sharded::ShardedConfig;

/// Bounds on a run, so that configurations the paper reports as "did not
/// complete within 5 minutes" terminate with an explicit verdict.
///
/// All three limits apply together; the first one crossed ends the phase
/// with [`RunOutcome::BudgetExceeded`]. `max_events` and `max_time` cap the
/// **session cumulatively** (they keep counting across phases), `max_wall`
/// caps **each phase**. On the concurrent substrates, exhaustion also
/// **freezes** the session — see [`Runtime::run`].
#[derive(Clone, Copy, Debug)]
pub struct RunBudget {
    /// Maximum number of events to process.
    pub max_events: u64,
    /// Maximum time on the substrate's clock, cumulative across the
    /// session's phases: simulated time for the DES; for the concurrent
    /// runtimes, wall-clock microseconds spent inside `run` (their clock,
    /// like the DES sim clock, does not advance while the controller is
    /// idle between phases).
    pub max_time: SimTime,
    /// Maximum *wall-clock* time per phase — guards configurations whose
    /// state genuinely explodes (relative provenance on dense graphs,
    /// no-AggSel path enumeration). Checked every few thousand events.
    pub max_wall: std::time::Duration,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            max_events: u64::MAX,
            max_time: SimTime(u64::MAX),
            max_wall: std::time::Duration::from_secs(3600),
        }
    }
}

impl RunBudget {
    /// Budget capped at `secs` of simulated time (the paper's 5-minute cap).
    pub fn sim_seconds(secs: u64) -> RunBudget {
        RunBudget {
            max_time: SimTime(secs * 1_000_000),
            ..Default::default()
        }
    }

    /// Additionally cap wall-clock time (builder style).
    pub fn with_wall(mut self, wall: std::time::Duration) -> RunBudget {
        self.max_wall = wall;
        self
    }
}

/// Result of one [`Runtime::run`] phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All events drained: the distributed computation reached fixpoint.
    /// This is a *global* claim — no message, local hand-off, or armed
    /// timer remained anywhere when it was made (see [`Runtime::run`]).
    Converged {
        /// Completion time of the last processed event.
        at: SimTime,
    },
    /// The budget was exhausted first (reported as `> budget` in the paper's
    /// style). On the concurrent substrates the session is now **frozen**:
    /// peer state and metrics stay inspectable and stable, but every later
    /// [`Runtime::run`] returns `BudgetExceeded` immediately — a truncated
    /// session must never claim convergence, even though teardown can drain
    /// its pending-event counter to zero.
    BudgetExceeded {
        /// Simulated time when the run was cut off.
        at: SimTime,
        /// Events still pending.
        pending: usize,
    },
    /// The installed [`FaultPlan`]'s `crash_at_event` fired: the substrate
    /// tore itself down mid-phase and **all state not checkpointed is
    /// lost**. Like budget exhaustion this freezes the session (every later
    /// [`Runtime::run`] reports `Crashed` again, never `Converged`); unlike
    /// it, the driver is expected to *recover* — build a fresh substrate,
    /// restore the last epoch checkpoint, and replay the delta
    /// (`netrec-engine`'s `Runner::recover`).
    Crashed {
        /// Substrate clock when the crash fired.
        at: SimTime,
    },
}

impl RunOutcome {
    /// Convergence time, if converged.
    pub fn converged_at(self) -> Option<SimTime> {
        match self {
            RunOutcome::Converged { at } => Some(at),
            RunOutcome::BudgetExceeded { .. } | RunOutcome::Crashed { .. } => None,
        }
    }

    /// Whether this outcome is a seeded crash (recovery is expected).
    pub fn crashed(self) -> bool {
        matches!(self, RunOutcome::Crashed { .. })
    }
}

/// The deterministic discrete-event simulator's one config, taken by
/// [`Simulator::new`](crate::des::Simulator::new) the way
/// [`ShardedRuntime::new`](crate::sharded::ShardedRuntime::new) takes a
/// [`ShardedConfig`], so every [`RuntimeKind`] variant — the DES included —
/// is fully described by its configuration (coalescing toggled off, a fault
/// schedule installed).
#[derive(Clone, Debug, PartialEq)]
pub struct DesConfig {
    /// Whether same-destination sends coalesce into one envelope per
    /// quantum (on by default; the differential toggle turns it off).
    pub coalesce: bool,
    /// Seeded transport fault schedule (`None` = clean delivery). On the
    /// DES a plan is exactly replayable — see [`mod@crate::fault`].
    pub fault: Option<FaultPlan>,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            coalesce: true,
            fault: None,
        }
    }
}

/// Which execution substrate a driver should instantiate.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeKind {
    /// The deterministic discrete-event simulator (modelled latency,
    /// bandwidth, and CPU occupancy; reproducible convergence times).
    Des(DesConfig),
    /// The concurrent runtime: the peer set partitioned across one or more
    /// shards — each an event loop on its own executor thread running its
    /// peers' quanta to completion, thousands of peers per core, wall-clock
    /// timers — behind one composite runtime, cross-shard envelopes sent
    /// straight into the destination shard's ingress queue, in-process or
    /// over TCP.
    Sharded(ShardedConfig),
}

impl Default for RuntimeKind {
    fn default() -> Self {
        RuntimeKind::Des(DesConfig::default())
    }
}

impl RuntimeKind {
    /// The DES with default tuning (coalescing on, no faults).
    pub fn des() -> RuntimeKind {
        RuntimeKind::Des(DesConfig::default())
    }

    /// The concurrent runtime on a single executor thread ("async"), with
    /// default tuning.
    pub fn asynchronous() -> RuntimeKind {
        RuntimeKind::sharded_async(1)
    }

    /// Sharded runtime with `shards` hash-assigned async shards and
    /// default tuning.
    pub fn sharded_async(shards: u32) -> RuntimeKind {
        RuntimeKind::Sharded(ShardedConfig::with_shards(shards))
    }

    /// Sharded runtime with `shards` async shards whose cross-shard
    /// envelopes travel over supervised loopback TCP.
    pub fn sharded_async_tcp(shards: u32) -> RuntimeKind {
        RuntimeKind::Sharded(ShardedConfig::with_shards(shards).with_tcp())
    }

    /// Install a seeded transport [`FaultPlan`] on whichever substrate this
    /// kind denotes (builder style). Decisions key on global peer ids
    /// everywhere, so the plan picks the same peers and cuts the same links
    /// on the DES and under every shard count and transport.
    pub fn with_fault(mut self, plan: FaultPlan) -> RuntimeKind {
        match &mut self {
            RuntimeKind::Des(cfg) => cfg.fault = Some(plan),
            RuntimeKind::Sharded(cfg) => cfg.fault = Some(plan),
        }
        self
    }

    /// Strip the crash dial from whichever substrate this kind denotes,
    /// keeping every transport fault (drop/dup/delay/partition) intact. A
    /// recovering driver rebuilds its substrate from this kind so the
    /// restored session does not re-crash at the same event counter while
    /// still facing the original network weather.
    pub fn without_crash(mut self) -> RuntimeKind {
        let strip = |f: &mut Option<FaultPlan>| {
            *f = f
                .take()
                .map(|p| p.without_crash())
                .filter(FaultPlan::is_active);
        };
        match &mut self {
            RuntimeKind::Des(cfg) => strip(&mut cfg.fault),
            RuntimeKind::Sharded(cfg) => strip(&mut cfg.fault),
        }
        self
    }

    /// Short label for reports and bench entries.
    pub fn label(&self) -> &'static str {
        match self {
            RuntimeKind::Des(_) => "des",
            RuntimeKind::Sharded(cfg) => cfg.label(),
        }
    }
}

/// An execution substrate hosting peers of type `N` exchanging messages of
/// type `M`.
///
/// # The session contract
///
/// A `Runtime` is a long-lived **session** driven in **phases**; every
/// substrate — deterministic simulation, one event loop, many shards —
/// must honor the same four clauses, which is what lets one
/// driver (`netrec-engine`'s `Runner`) and one differential harness
/// (`netrec_testutil::assert_substrates_agree`) cover them all:
///
/// 1. **Inject at the frontier.** [`Runtime::inject`] enqueues an external
///    input after everything already executed. Concurrent substrates may
///    begin processing it immediately — before [`Runtime::run`] is even
///    called — so drivers must treat the *previous quiescent boundary*, not
///    "now", as the phase baseline when diffing metrics.
/// 2. **Run to quiescence, timers included.** [`Runtime::run`] returns
///    [`RunOutcome::Converged`] only when **no message, local hand-off, or
///    armed timer remains anywhere**. The timer clause is the *fence*: a
///    phase can never end with a timer in flight, so soft-state TTLs and
///    MinShip flushes scheduled during a phase land inside it, and a
///    converged boundary is a true fixpoint of the distributed computation.
///    Concurrent substrates implement this with an in-flight counter that
///    registers every produced event (messages *and* armed timers)
///    **before** its producing event retires, so the counter can never
///    transiently read zero mid-computation. The unit of transport is the
///    **envelope** (see [`mod@crate::coalesce`]): same-destination messages
///    from one scheduling quantum travel as one frame under **one**
///    in-flight count, registered before the producing quantum retires and
///    retired only after the receiving quantum has processed *every*
///    carried message and registered its outputs — so coalescing never
///    opens a window where the counter reads zero with work outstanding.
///    Metrics count both layers: `msgs`/`bytes`/`tuples`/`prov_bytes` are
///    logical (per message, coalescing-invariant), `envelopes`/
///    `envelope_bytes` are physical.
/// 3. **Snapshot at the boundary.** Peer state ([`Runtime::with_peer`] /
///    [`Runtime::for_each_peer`]) and cumulative metrics
///    ([`Runtime::metrics_snapshot`]) persist across phases and are stable
///    when read at a converged boundary. Between phases nothing moves: the
///    substrate's clock ([`Runtime::frontier`]) only advances while events
///    execute.
/// 4. **Budget exhaustion freezes.** When [`RunBudget`] is exceeded, `run`
///    returns [`RunOutcome::BudgetExceeded`] and the session **freezes**:
///    executors stop, armed timers are retired, snapshots stay stable,
///    and every later `run` fails fast with `BudgetExceeded` — never
///    `Converged`, because teardown itself drains the pending-event
///    counter. A peer panic likewise freezes the session and re-panics
///    from `run` on the controller thread instead of hanging it.
///
/// # Example
///
/// One token-passing session on the concurrent substrate (one shard):
/// inject → run-to-quiescence → snapshot, with a second phase continuing
/// from the first phase's state and a timer held inside its phase by the
/// fence.
///
/// ```
/// use netrec_sim::{MsgMeta, NetApi, PeerNode, ShardedConfig, ShardedRuntime};
/// use netrec_sim::{PeerId, Port, RunBudget, RunOutcome, Runtime};
/// use netrec_types::Duration;
///
/// /// Forwards a decrementing token to the next peer; arms a short timer
/// /// on every delivery and counts its firing.
/// struct Relay { next: PeerId, fired: u32 }
///
/// impl PeerNode<u64> for Relay {
///     fn on_message(&mut self, _p: Port, token: u64, net: &mut NetApi<u64>) {
///         net.set_timer(Duration::from_millis(1), 7);
///         if token > 0 {
///             net.send(self.next, Port(0), token - 1, MsgMeta { bytes: 8, prov_bytes: 0, tuples: 1 });
///         }
///     }
///     fn on_timer(&mut self, id: u64, _net: &mut NetApi<u64>) {
///         assert_eq!(id, 7);
///         self.fired += 1;
///     }
/// }
///
/// let peers = vec![
///     Relay { next: PeerId(1), fired: 0 },
///     Relay { next: PeerId(0), fired: 0 },
/// ];
/// let mut rt = ShardedRuntime::new(peers, ShardedConfig::with_shards(1));
///
/// // Phase 1: inject at the frontier, run to global quiescence.
/// rt.inject(PeerId(0), Port(0), 3);
/// let outcome = rt.run(RunBudget::default());
/// assert!(matches!(outcome, RunOutcome::Converged { .. }));
///
/// // The boundary is a fixpoint: 3 forwards happened, and the timer fence
/// // means every armed timer already fired inside the phase. Each forward
/// // was one logical message in one physical envelope (a relay emits one
/// // send per quantum, so nothing coalesced here — envelope counts can
/// // only be *lower* than message counts, never higher).
/// assert_eq!(rt.metrics_snapshot().total_msgs(), 3);
/// assert_eq!(rt.metrics_snapshot().total_envelopes(), 3);
/// let fired: u32 = {
///     let mut total = 0;
///     rt.for_each_peer(|_, relay| total += relay.fired);
///     total
/// };
/// assert_eq!(fired, 4, "one firing per delivery, all inside the phase");
///
/// // Phase 2 continues from phase 1's state; metrics are cumulative.
/// rt.inject(PeerId(1), Port(0), 1);
/// assert!(matches!(rt.run(RunBudget::default()), RunOutcome::Converged { .. }));
/// assert_eq!(rt.metrics_snapshot().total_msgs(), 4);
/// assert_eq!(rt.events_processed(), 6 + 6, "deliveries + timer firings");
/// ```
pub trait Runtime<M, N> {
    /// Substrate name for reports ("des", "async", "sharded-async",
    /// "sharded-async-tcp").
    fn name(&self) -> &'static str;

    /// Deliver an external input (EDB stream element) at the current
    /// frontier. Not counted as network traffic: it models data arriving at
    /// its ingress peer from the local sub-network. Concurrent substrates
    /// may start processing it before [`Runtime::run`] is called (contract
    /// clause 1).
    fn inject(&mut self, to: PeerId, port: Port, msg: M);

    /// Run one phase: process events until global quiescence (no messages,
    /// hand-offs, or armed timers anywhere — contract clause 2) or budget
    /// exhaustion (which freezes the session — clause 4).
    fn run(&mut self, budget: RunBudget) -> RunOutcome;

    /// Snapshot of the cumulative traffic metrics. Stable when taken at a
    /// quiescent phase boundary (contract clause 3).
    fn metrics_snapshot(&self) -> NetMetrics;

    /// Total events (message deliveries + timer firings) processed so far.
    fn events_processed(&self) -> u64;

    /// The current time frontier: simulated time of the last completed event
    /// (DES) or elapsed wall-clock microseconds since the session started
    /// (concurrent runtimes).
    fn frontier(&self) -> SimTime;

    /// Number of peers hosted.
    fn peer_count(&self) -> u32;

    /// Inspect one peer's logic. Call at a quiescent boundary for a stable
    /// view.
    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&N) -> T) -> T;

    /// Inspect every peer in `PeerId` order.
    fn for_each_peer(&self, f: impl FnMut(PeerId, &N));

    /// Mutate one peer's logic **at a quiescent boundary**. The `&mut self`
    /// receiver guarantees no phase is running; used by drivers to flip
    /// peer-local switches between phases (e.g. enabling view-delta
    /// recording) and to drain per-peer side channels (e.g. the serving
    /// layer's membership deltas) without routing them through the message
    /// plane.
    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut N) -> T) -> T;

    /// Mutate every peer in `PeerId` order at a quiescent boundary. Sharded
    /// substrates iterate **global** ids, so a driver folding per-peer state
    /// (e.g. per-shard serving deltas) sees one coherent global sequence —
    /// the peer-state analogue of `NetMetrics::merge`.
    fn for_each_peer_mut(&mut self, f: impl FnMut(PeerId, &mut N));
}
