//! Drives a plan over an execution substrate and gathers the paper's four
//! evaluation metrics per phase.
//!
//! The [`Runner`] drives one type, [`EngineRuntime`]: the deterministic
//! discrete-event [`Simulator`] or the concurrent [`ShardedRuntime`] (one
//! executor thread per shard; one shard is the "async" runtime), chosen by
//! [`RunnerConfig::runtime`] when the runner is built and dispatched
//! through the [`Runtime`] session contract both implement. A test that
//! needs the concrete substrate matches on [`Runner::runtime`].

use std::collections::{BTreeMap, BTreeSet};

use netrec_serve::views::{self, ServeSpec, ViewOp, ViewReader, ViewWriter};
use netrec_sim::{
    ClusterSpec, NetMetrics, Partitioner, PeerId, Port, RunBudget, RunOutcome, Runtime,
    RuntimeKind, ShardedRuntime, Simulator,
};
use netrec_types::wire::WireError;
use netrec_types::{Duration, RelId, SimTime, Tuple, UpdateKind};

use crate::ckptstore::{self, CheckpointBackend};
use crate::ops::OpState;
use crate::peer::EnginePeer;
use crate::plan::{OpSpec, Plan};
use crate::strategy::Strategy;
use crate::update::Msg;

/// Full run configuration.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Maintenance strategy.
    pub strategy: Strategy,
    /// Key placement across peers.
    pub partitioner: Partitioner,
    /// Cluster latency/bandwidth model (DES only; the concurrent runtimes
    /// do not model links).
    pub cluster: ClusterSpec,
    /// Run budget (the paper cuts runs off at 5 minutes): `max_wall` caps
    /// each phase, `max_time`/`max_events` cap the session cumulatively.
    pub budget: RunBudget,
    /// Execution substrate: discrete-event simulation (default), the async
    /// runtime, or the sharded composite.
    pub runtime: RuntimeKind,
}

impl RunnerConfig {
    /// `peers` hash-partitioned gigabit peers with the paper's 5-minute cap,
    /// on the discrete-event simulator.
    pub fn new(strategy: Strategy, peers: u32) -> RunnerConfig {
        RunnerConfig {
            strategy,
            partitioner: Partitioner::Hash { peers },
            cluster: ClusterSpec::single(peers),
            budget: RunBudget {
                max_events: 50_000_000,
                max_time: SimTime(300 * 1_000_000),
                max_wall: std::time::Duration::from_secs(60),
            },
            runtime: RuntimeKind::des(),
        }
    }

    /// Direct (modulo) placement — used by the worked examples where logical
    /// node X is physical peer X.
    pub fn direct(strategy: Strategy, peers: u32) -> RunnerConfig {
        RunnerConfig {
            partitioner: Partitioner::Direct { peers },
            ..RunnerConfig::new(strategy, peers)
        }
    }

    /// Select the execution substrate (builder style).
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> RunnerConfig {
        self.runtime = runtime;
        self
    }

    /// Override the cluster model (e.g. the two-cluster scale-out profile).
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> RunnerConfig {
        self.cluster = cluster;
        self
    }

    /// Override the run budget.
    pub fn with_budget(mut self, budget: RunBudget) -> RunnerConfig {
        self.budget = budget;
        self
    }
}

/// Metrics for one run phase (load, deletion, re-derivation, ...), matching
/// the paper's four reported panels plus raw counters.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Phase label.
    pub label: String,
    /// Converged or budget-exceeded.
    pub outcome: RunOutcome,
    /// Simulated (DES) or elapsed wall-clock (concurrent) time from phase start to
    /// quiescence.
    pub convergence: Duration,
    /// Logical bytes shipped between peers during the phase.
    pub bytes: u64,
    /// Logical messages shipped.
    pub msgs: u64,
    /// Physical transport envelopes shipped (≤ `msgs`: the runtime
    /// coalesces same-destination messages per quantum — see
    /// `netrec_sim::coalesce`).
    pub envelopes: u64,
    /// Physical envelope bytes shipped (frame headers + payloads).
    pub envelope_bytes: u64,
    /// Update tuples shipped.
    pub tuples: u64,
    /// Annotation bytes shipped.
    pub prov_bytes: u64,
    /// Mean annotation bytes per shipped tuple (panel a).
    pub prov_bytes_per_tuple: f64,
    /// Total operator state bytes at phase end (panel c).
    pub state_bytes: usize,
    /// Events processed.
    pub events: u64,
    /// Wall-clock time spent in the substrate.
    pub wall: std::time::Duration,
}

impl RunReport {
    /// Whether the phase reached quiescence.
    pub fn converged(&self) -> bool {
        matches!(self.outcome, RunOutcome::Converged { .. })
    }

    /// Merge two consecutive phases (e.g. DRed's over-delete + re-derive).
    pub fn merged(self, other: RunReport, label: impl Into<String>) -> RunReport {
        let outcome = match (self.outcome, other.outcome) {
            (RunOutcome::Converged { .. }, RunOutcome::Converged { at }) => {
                RunOutcome::Converged { at }
            }
            (RunOutcome::Crashed { at }, _) | (_, RunOutcome::Crashed { at }) => {
                RunOutcome::Crashed { at }
            }
            (RunOutcome::BudgetExceeded { at, pending }, _)
            | (_, RunOutcome::BudgetExceeded { at, pending }) => {
                RunOutcome::BudgetExceeded { at, pending }
            }
        };
        let tuples = self.tuples + other.tuples;
        let prov_bytes = self.prov_bytes + other.prov_bytes;
        RunReport {
            label: label.into(),
            outcome,
            convergence: self.convergence + other.convergence,
            bytes: self.bytes + other.bytes,
            msgs: self.msgs + other.msgs,
            envelopes: self.envelopes + other.envelopes,
            envelope_bytes: self.envelope_bytes + other.envelope_bytes,
            tuples,
            prov_bytes,
            prov_bytes_per_tuple: if tuples == 0 {
                0.0
            } else {
                prov_bytes as f64 / tuples as f64
            },
            state_bytes: other.state_bytes,
            events: self.events + other.events,
            wall: self.wall + other.wall,
        }
    }
}

/// The substrate a [`Runner`] drives, chosen by [`RunnerConfig::runtime`]
/// when the runner is built.
pub enum EngineRuntime {
    /// Deterministic discrete-event simulation.
    Des(Simulator<Msg, EnginePeer>),
    /// Peer-partitioned concurrent execution: one event loop per shard,
    /// each on its own executor thread.
    Sharded(ShardedRuntime<Msg, EnginePeer>),
}

macro_rules! dispatch {
    ($self:expr, $rt:ident => $body:expr) => {
        match $self {
            EngineRuntime::Des($rt) => $body,
            EngineRuntime::Sharded($rt) => $body,
        }
    };
}

impl EngineRuntime {
    /// Injected-fault counters of the underlying substrate (all zero when
    /// no [`netrec_sim::FaultPlan`] is installed or it never fired).
    pub fn fault_stats(&self) -> netrec_sim::FaultStats {
        dispatch!(self, rt => rt.fault_stats())
    }
}

impl Runtime<Msg, EnginePeer> for EngineRuntime {
    fn name(&self) -> &'static str {
        dispatch!(self, rt => Runtime::name(rt))
    }
    fn inject(&mut self, to: PeerId, port: netrec_sim::Port, msg: Msg) {
        dispatch!(self, rt => Runtime::inject(rt, to, port, msg))
    }
    fn run(&mut self, budget: RunBudget) -> RunOutcome {
        dispatch!(self, rt => Runtime::run(rt, budget))
    }
    fn metrics_snapshot(&self) -> NetMetrics {
        dispatch!(self, rt => Runtime::metrics_snapshot(rt))
    }
    fn events_processed(&self) -> u64 {
        dispatch!(self, rt => Runtime::events_processed(rt))
    }
    fn frontier(&self) -> SimTime {
        dispatch!(self, rt => Runtime::frontier(rt))
    }
    fn peer_count(&self) -> u32 {
        dispatch!(self, rt => Runtime::peer_count(rt))
    }
    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&EnginePeer) -> T) -> T {
        dispatch!(self, rt => Runtime::with_peer(rt, p, f))
    }
    fn for_each_peer(&self, f: impl FnMut(PeerId, &EnginePeer)) {
        dispatch!(self, rt => Runtime::for_each_peer(rt, f))
    }
    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut EnginePeer) -> T) -> T {
        dispatch!(self, rt => Runtime::with_peer_mut(rt, p, f))
    }
    fn for_each_peer_mut(&mut self, f: impl FnMut(PeerId, &mut EnginePeer)) {
        dispatch!(self, rt => Runtime::for_each_peer_mut(rt, f))
    }
}

/// One epoch's consistent global snapshot, taken at a converged boundary —
/// the quiescent seam where no message is in flight and no timer is armed,
/// so the union of independently-serialized per-peer blobs is a consistent
/// cut by construction (see `crate::checkpoint`).
#[derive(Clone, Debug, PartialEq)]
pub struct EpochCheckpoint {
    /// Per-peer state blobs ([`EnginePeer::checkpoint`]), indexed by peer id.
    /// Wire-framed: these bytes could stream to a remote stable store as-is.
    pub peer_blobs: Vec<Vec<u8>>,
    /// Cumulative logical traffic metrics at the barrier. Recovery seeds its
    /// metric baseline from this, so a recovered session's totals count the
    /// checkpointed history plus replayed work — the crashed attempt's lost
    /// partial work is excluded, which is what makes recovered metrics
    /// comparable to a fault-free oracle.
    pub metrics: NetMetrics,
    /// Cumulative events processed at the barrier.
    pub events: u64,
    /// Replay-ledger length at the barrier: ledger entries past this index
    /// are the delta a recovery re-injects.
    pub ledger_len: usize,
}

impl EpochCheckpoint {
    /// Total serialized bytes across all peer blobs.
    pub fn bytes(&self) -> usize {
        self.peer_blobs.iter().map(Vec::len).sum()
    }
}

/// Checkpoint store keyed by epoch (the count of converged boundaries
/// since checkpointing was enabled; epoch 0 is the enable-time baseline).
/// Always holds the decoded checkpoints in memory; when a
/// [`CheckpointBackend`] is attached every insert is also mirrored —
/// encoded, CRC-framed — into durable storage, synchronously, so the
/// backend never trails the in-memory view at a converged boundary.
#[derive(Default)]
pub struct CheckpointStore {
    by_epoch: BTreeMap<u64, EpochCheckpoint>,
    durable: Option<Box<dyn CheckpointBackend>>,
}

impl CheckpointStore {
    /// Rebuild a store from a durable backend: decode (and CRC-verify)
    /// every stored epoch, keeping the backend attached for future
    /// mirroring. Any corrupt or truncated epoch fails the whole load —
    /// a recovery should never silently proceed from partial history.
    pub fn load(backend: Box<dyn CheckpointBackend>) -> Result<CheckpointStore, WireError> {
        let mut by_epoch = BTreeMap::new();
        for epoch in backend.epochs()? {
            let bytes = backend
                .get(epoch)?
                .ok_or(WireError::Corrupt("checkpoint epoch vanished during load"))?;
            by_epoch.insert(epoch, ckptstore::decode_checkpoint(epoch, &bytes)?);
        }
        Ok(CheckpointStore {
            by_epoch,
            durable: Some(backend),
        })
    }

    /// Mirror this store into a durable backend: flush every epoch already
    /// held in memory, then mirror each future insert. Replaces any
    /// previously attached backend.
    pub fn attach_backend(
        &mut self,
        mut backend: Box<dyn CheckpointBackend>,
    ) -> Result<(), WireError> {
        for (&epoch, ck) in &self.by_epoch {
            backend.put(epoch, &ckptstore::encode_checkpoint(epoch, ck))?;
        }
        self.durable = Some(backend);
        Ok(())
    }

    /// Whether a durable backend is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Insert one checkpoint, mirroring to the durable backend when one is
    /// attached. A durable write failure is a loud panic: continuing past
    /// it would let the session believe history is safe when it is not.
    fn insert(&mut self, epoch: u64, ck: EpochCheckpoint) {
        if let Some(backend) = self.durable.as_mut() {
            backend
                .put(epoch, &ckptstore::encode_checkpoint(epoch, &ck))
                .expect("durable checkpoint write failed");
        }
        self.by_epoch.insert(epoch, ck);
    }

    /// The most recent completed checkpoint, with its epoch.
    pub fn latest(&self) -> Option<(u64, &EpochCheckpoint)> {
        self.by_epoch.iter().next_back().map(|(e, c)| (*e, c))
    }

    /// Checkpoint for a specific epoch.
    pub fn get(&self, epoch: u64) -> Option<&EpochCheckpoint> {
        self.by_epoch.get(&epoch)
    }

    /// Epochs with a completed checkpoint, ascending.
    pub fn epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_epoch.keys().copied()
    }

    /// Number of completed checkpoints.
    pub fn len(&self) -> usize {
        self.by_epoch.len()
    }

    /// Whether no checkpoint has completed.
    pub fn is_empty(&self) -> bool {
        self.by_epoch.is_empty()
    }
}

/// Checkpointing state attached by [`Runner::enable_checkpointing`].
struct Checkpointing {
    /// Take a checkpoint every this many converged boundaries (forced to 1
    /// while a serving handle is attached, so the readers' published epoch
    /// always equals the latest checkpoint barrier).
    interval: u64,
    /// Converged boundaries seen since enable — the epoch counter.
    boundaries: u64,
    /// Boundaries since the last completed checkpoint.
    since_last: u64,
    store: CheckpointStore,
}

/// A replayable external input: the resolved `(peer, port, message)` triple
/// [`Runner::inject`] pushed into the substrate.
type LedgerEntry = (PeerId, Port, Msg);

/// The workload driver: owns the substrate and the plan.
pub struct Runner {
    plan: Plan,
    cfg: RunnerConfig,
    rt: EngineRuntime,
    /// Metric/event baselines for the next phase, captured at the previous
    /// quiescent boundary. On the concurrent substrates peers start
    /// processing injections as soon as they are pushed — before
    /// `run_phase` is even called — so reading the baseline at phase start
    /// would nondeterministically undercount the phase's traffic.
    phase_metrics: NetMetrics,
    phase_events: u64,
    /// The serving-layer writer, when [`Runner::serve`] attached one:
    /// `run_phase` drains per-peer membership deltas at every converged
    /// boundary and publishes them as one epoch.
    serve: Option<ViewWriter>,
    /// Epoch-barrier checkpointing, when enabled.
    ckpt: Option<Checkpointing>,
    /// Replay ledger: every external input since checkpointing was enabled,
    /// in injection order. Recovery re-injects the suffix past the restored
    /// checkpoint's `ledger_len`. Grows for the session's lifetime — the
    /// in-memory stand-in for a durable input log.
    ledger: Vec<LedgerEntry>,
    /// Metrics/events carried over from before the last recovery: a rebuilt
    /// substrate counts from zero, so cumulative accessors fold these in.
    base_metrics: NetMetrics,
    base_events: u64,
}

impl Runner {
    /// Instantiate `plan` on the substrate selected by `cfg.runtime`.
    pub fn new(plan: Plan, cfg: RunnerConfig) -> Runner {
        let peers = cfg.partitioner.peers();
        let nodes = (0..peers)
            .map(|p| EnginePeer::new(PeerId(p), &plan, cfg.strategy, cfg.partitioner))
            .collect();
        let rt = build_runtime(nodes, &cfg);
        let phase_metrics = rt.metrics_snapshot();
        let phase_events = rt.events_processed();
        Runner {
            plan,
            cfg,
            rt,
            phase_metrics,
            phase_events,
            serve: None,
            ckpt: None,
            ledger: Vec::new(),
            base_metrics: NetMetrics::default(),
            base_events: 0,
        }
    }

    /// Injected-fault counters of the substrate (tests assert a configured
    /// [`netrec_sim::FaultPlan`] actually fired).
    pub fn fault_stats(&self) -> netrec_sim::FaultStats {
        self.rt.fault_stats()
    }

    /// Recover from the latest completed epoch checkpoint after a seeded
    /// crash ([`RunOutcome::Crashed`]): validate and decode every peer blob
    /// into fresh peers, tear down the dead substrate and build a new one of
    /// the same kind with the crash dial stripped
    /// ([`RuntimeKind::without_crash`] — transport faults stay installed),
    /// seed the cumulative metric/event baselines from the checkpoint, and
    /// re-inject the replay-ledger delta recorded since that barrier. The
    /// caller then drives [`Runner::run_phase`] as usual; converging that
    /// phase completes recovery.
    ///
    /// Decoding is all-or-nothing: on any [`WireError`] the crashed
    /// substrate is left untouched (nothing is half-applied) so the caller
    /// can fall back to an older epoch or abandon the session.
    ///
    /// When a serving handle is attached, readers keep serving the last
    /// *converged* epoch throughout — the crash window and the recovery
    /// replay are invisible to them until the next boundary publishes.
    /// (Serving forces the checkpoint interval to 1, so the published epoch
    /// always equals the checkpoint barrier being restored.)
    ///
    /// # Panics
    /// If checkpointing was never enabled or no checkpoint has completed.
    pub fn recover(&mut self) -> Result<(), WireError> {
        let ck = {
            let c = self
                .ckpt
                .as_ref()
                .expect("recover() requires enable_checkpointing()");
            let (_, ck) = c
                .store
                .latest()
                .expect("no completed checkpoint to recover from");
            ck.clone()
        };
        let peers = self.cfg.partitioner.peers();
        if ck.peer_blobs.len() != peers as usize {
            return Err(WireError::Corrupt("checkpoint peer count mismatch"));
        }
        let mut nodes = Vec::with_capacity(peers as usize);
        for p in 0..peers {
            nodes.push(EnginePeer::restore(
                PeerId(p),
                &self.plan,
                self.cfg.strategy,
                self.cfg.partitioner,
                &ck.peer_blobs[p as usize],
            )?);
        }
        // Every blob validated — only now replace the dead substrate.
        self.cfg.runtime = self.cfg.runtime.clone().without_crash();
        self.rt = build_runtime(nodes, &self.cfg);
        self.base_metrics = ck.metrics.clone();
        self.base_events = ck.events;
        // Phase baselines restart with the fresh substrate (its counters
        // are zero); per-phase deltas stay within-substrate consistent.
        self.phase_metrics = self.rt.metrics_snapshot();
        self.phase_events = self.rt.events_processed();
        // Restored peers are freshly built: re-arm delta recording so the
        // serving writer keeps receiving membership deltas. The writer's
        // published epoch already equals the restored barrier.
        if self.serve.is_some() {
            self.rt
                .for_each_peer_mut(|_, peer| peer.enable_view_deltas());
        }
        // Re-inject the delta since the barrier, in original order.
        for i in ck.ledger_len..self.ledger.len() {
            let (peer, port, msg) = self.ledger[i].clone();
            self.rt.inject(peer, port, msg);
        }
        Ok(())
    }

    /// Cold-start recovery: rebuild this session from a durable
    /// [`CheckpointBackend`] alone — the disaster path where the original
    /// process (and its in-memory [`CheckpointStore`]) is gone and only the
    /// shipped bytes survive. Loads and CRC-verifies every stored epoch,
    /// installs the store (with the backend still attached, so future
    /// checkpoints keep mirroring at `interval`), and restores the latest
    /// epoch via [`Runner::recover`]. Epoch numbering continues from the
    /// restored barrier.
    ///
    /// Call on a freshly built runner; this runner's replay ledger is
    /// empty, so recovery restores exactly the barrier state — inputs the
    /// original session injected after its last checkpoint are lost, which
    /// is the honest durability contract of interval checkpointing.
    ///
    /// # Panics
    /// If checkpointing is already enabled, `interval` is 0, or the
    /// backend holds no completed checkpoint.
    pub fn recover_from_backend(
        &mut self,
        interval: u64,
        backend: Box<dyn CheckpointBackend>,
    ) -> Result<(), WireError> {
        assert!(self.ckpt.is_none(), "checkpointing already enabled");
        assert!(interval > 0, "checkpoint interval must be >= 1");
        let store = CheckpointStore::load(backend)?;
        let (epoch, _) = store
            .latest()
            .expect("no completed checkpoint in the durable backend");
        self.ckpt = Some(Checkpointing {
            interval,
            boundaries: epoch,
            since_last: 0,
            store,
        });
        self.recover()
    }

    /// Enable epoch-barrier checkpointing: from now on, every
    /// `interval`-th converged [`Runner::run_phase`] boundary serializes a
    /// consistent global checkpoint — every peer's operator state, wire
    /// framed — into the in-memory [`CheckpointStore`], and every
    /// [`Runner::inject`] is recorded in a replay ledger so
    /// `Runner::recover` can re-inject the delta since the restored
    /// barrier. An epoch-0 baseline is taken immediately, so call this at a
    /// quiescent boundary (typically right after building the runner, like
    /// [`Runner::serve`]).
    ///
    /// While a serving handle is attached the interval is forced to 1: the
    /// readers' published epoch must always equal the latest checkpoint
    /// barrier, or recovery would rewind state behind a newer published
    /// view.
    ///
    /// # Panics
    /// If checkpointing is already enabled or `interval` is 0.
    pub fn enable_checkpointing(&mut self, interval: u64) {
        assert!(self.ckpt.is_none(), "checkpointing already enabled");
        assert!(interval > 0, "checkpoint interval must be >= 1");
        self.ckpt = Some(Checkpointing {
            interval,
            boundaries: 0,
            since_last: 0,
            store: CheckpointStore::default(),
        });
        self.take_checkpoint(0);
    }

    /// [`Runner::enable_checkpointing`] with a durable [`CheckpointBackend`]
    /// attached: the epoch-0 baseline and every subsequent checkpoint are
    /// mirrored — encoded and CRC-framed — into the backend at the barrier,
    /// so a separate process can rebuild the session from storage alone
    /// ([`Runner::recover_from_backend`]).
    ///
    /// # Panics
    /// If checkpointing is already enabled or `interval` is 0.
    pub fn enable_durable_checkpointing(
        &mut self,
        interval: u64,
        backend: Box<dyn CheckpointBackend>,
    ) -> Result<(), WireError> {
        self.enable_checkpointing(interval);
        self.ckpt
            .as_mut()
            .expect("just enabled")
            .store
            .attach_backend(backend)
    }

    /// Whether checkpointing is enabled.
    pub fn checkpointing(&self) -> bool {
        self.ckpt.is_some()
    }

    /// The checkpoint store, when checkpointing is enabled.
    pub fn checkpoints(&self) -> Option<&CheckpointStore> {
        self.ckpt.as_ref().map(|c| &c.store)
    }

    /// Serialize every peer at the current (quiescent) boundary into one
    /// [`EpochCheckpoint`] keyed by `epoch`.
    fn take_checkpoint(&mut self, epoch: u64) {
        let peers = self.rt.peer_count();
        let mut peer_blobs = Vec::with_capacity(peers as usize);
        for p in 0..peers {
            peer_blobs.push(self.rt.with_peer(PeerId(p), |peer| peer.checkpoint()));
        }
        let metrics = self.metrics();
        let events = self.base_events + self.rt.events_processed();
        let ledger_len = self.ledger.len();
        let ck = self.ckpt.as_mut().expect("checkpointing enabled");
        ck.store.insert(
            epoch,
            EpochCheckpoint {
                peer_blobs,
                metrics,
                events,
                ledger_len,
            },
        );
    }

    /// Account one converged boundary; checkpoint when the interval is due.
    fn checkpoint_boundary(&mut self) {
        let serving = self.serve.is_some();
        let Some(ck) = self.ckpt.as_mut() else {
            return;
        };
        ck.boundaries += 1;
        ck.since_last += 1;
        let interval = if serving { 1 } else { ck.interval };
        if ck.since_last < interval {
            return;
        }
        ck.since_last = 0;
        let epoch = ck.boundaries;
        self.take_checkpoint(epoch);
    }

    /// The plan under execution.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The run configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    /// The underlying substrate.
    pub fn runtime(&self) -> &EngineRuntime {
        &self.rt
    }

    /// Queue one base-relation operation at its owning peer's ingress. The
    /// operation enters at the substrate's current frontier (after
    /// everything already executed).
    ///
    /// # Panics
    ///
    /// On an unknown relation, and on a delete or a TTL for a relation
    /// declared `static`, before anything is queued or logged.
    pub fn inject(
        &mut self,
        rel_name: &str,
        tuple: Tuple,
        kind: UpdateKind,
        ttl: Option<Duration>,
    ) {
        let rel = self
            .plan
            .catalog
            .id(rel_name)
            .unwrap_or_else(|| panic!("unknown relation `{rel_name}`"));
        let ingress = *self
            .plan
            .ingress_of
            .get(&rel)
            .unwrap_or_else(|| panic!("relation `{rel_name}` has no ingress"));
        if let OpSpec::Ingress {
            is_static: true, ..
        } = self.plan.ops[ingress.0 as usize]
        {
            assert!(
                kind == UpdateKind::Insert,
                "relation `{rel_name}` is static: a delete is refused"
            );
            assert!(
                ttl.is_none(),
                "relation `{rel_name}` is static: a TTL is refused"
            );
        }
        let key_col = self.plan.catalog.schema(rel).partition_col;
        let peer = self.cfg.partitioner.place_value(tuple.try_get(key_col));
        let port = Plan::port(ingress, 0);
        let msg = Msg::Base { kind, tuple, ttl };
        if self.ckpt.is_some() {
            self.ledger.push((peer, port, msg.clone()));
        }
        self.rt.inject(peer, port, msg);
    }

    /// Trigger DRed phase 2: every ingress on every peer re-emits its live
    /// base tuples.
    pub fn rederive_all(&mut self) {
        let ingresses: Vec<_> = self.plan.ingress_of.values().copied().collect();
        for p in 0..self.rt.peer_count() {
            for ing in &ingresses {
                let port = Plan::port(*ing, 0);
                if self.ckpt.is_some() {
                    self.ledger.push((PeerId(p), port, Msg::Rederive));
                }
                self.rt.inject(PeerId(p), port, Msg::Rederive);
            }
        }
    }

    /// Attach the serving layer: materialize the relations named by `spec`
    /// behind a lock-free left-right pair and return a [`ViewReader`] whose
    /// clones serve point lookups from any number of threads with zero
    /// coordination.
    ///
    /// Call at a quiescent boundary (typically right after building the
    /// runner, or after a load phase). The current view contents become the
    /// seed epoch; from then on every converged [`Runner::run_phase`]
    /// boundary drains the stores' membership deltas — extracted from the
    /// DRed insert/delete outcomes, not re-cloned relations — and publishes
    /// them as one epoch, on every substrate (the sharded runtime folds
    /// per-shard deltas in global peer order). A budget-exceeded phase
    /// publishes nothing: readers keep the last *converged* view.
    ///
    /// # Panics
    /// If a name in `spec` is not a relation of the plan, or a serving
    /// handle is already attached.
    pub fn serve(&mut self, spec: &ServeSpec) -> ViewReader {
        assert!(self.serve.is_none(), "serving handle already attached");
        let resolve = |name: &String| -> RelId {
            self.plan
                .catalog
                .id(name)
                .unwrap_or_else(|| panic!("unknown relation `{name}`"))
        };
        let rels: Vec<RelId> = spec.views.iter().map(resolve).collect();
        let connectivity = spec.connectivity.as_ref().map(resolve);
        let region = spec.region.as_ref().map(resolve);
        let (mut writer, reader) = views::pair(&rels, connectivity, region);
        // One quiescent-boundary pass: flip every view store to
        // delta-recording and seed the store from its current contents
        // (the only whole-relation copy the serving layer ever makes).
        self.rt.for_each_peer_mut(|_, peer| {
            peer.enable_view_deltas();
            for op in peer.ops() {
                if let OpState::Store(s) = op {
                    if s.is_view() && rels.contains(&s.rel()) {
                        for tuple in s.contents() {
                            writer.append(ViewOp {
                                rel: s.rel(),
                                tuple,
                                add: true,
                            });
                        }
                    }
                }
            }
        });
        writer.publish();
        self.serve = Some(writer);
        reader
    }

    /// Whether a serving handle is attached.
    pub fn serving(&self) -> bool {
        self.serve.is_some()
    }

    /// Version of the most recently published epoch (None when not serving).
    pub fn served_version(&self) -> Option<u64> {
        self.serve.as_ref().map(|w| w.version())
    }

    /// Drain every peer's recorded view-membership deltas into the writer's
    /// log and publish one epoch. Sharded substrates iterate global peer
    /// order, so the folded delta sequence is substrate-independent up to
    /// per-peer interleaving — and membership deltas commute across peers
    /// (each tuple's membership is owned by exactly one partition).
    fn publish_boundary(&mut self) {
        let Some(writer) = self.serve.as_mut() else {
            return;
        };
        let mut ops = Vec::new();
        self.rt.for_each_peer_mut(|_, peer| {
            ops.extend(
                peer.drain_view_deltas()
                    .into_iter()
                    .map(|(rel, tuple, add)| ViewOp { rel, tuple, add }),
            );
        });
        writer.extend(ops);
        writer.publish();
    }

    /// Run to quiescence (or budget) and report the phase's metrics.
    pub fn run_phase(&mut self, label: impl Into<String>) -> RunReport {
        let start_time = self.rt.frontier();
        // Baselines come from the previous quiescent boundary, not from
        // here: injections may already be executing (see `phase_metrics`).
        let m0 = std::mem::take(&mut self.phase_metrics);
        let e0 = self.phase_events;
        let wall0 = std::time::Instant::now();
        let outcome = self.rt.run(self.cfg.budget);
        let wall = wall0.elapsed();
        // Converged boundary = serving epoch: publish the phase's view
        // membership deltas in one swap. A budget-exceeded (frozen) phase
        // publishes nothing — readers keep the last converged epoch.
        if matches!(outcome, RunOutcome::Converged { .. }) {
            self.publish_boundary();
            self.checkpoint_boundary();
        }
        let m1 = self.rt.metrics_snapshot();
        let bytes = m1.total_bytes() - m0.total_bytes();
        let msgs = m1.total_msgs() - m0.total_msgs();
        let envelopes = m1.total_envelopes() - m0.total_envelopes();
        let envelope_bytes = m1.total_envelope_bytes() - m0.total_envelope_bytes();
        let tuples = m1.total_tuples() - m0.total_tuples();
        let prov_bytes = m1.total_prov_bytes() - m0.total_prov_bytes();
        let end_time = match outcome {
            RunOutcome::Converged { at }
            | RunOutcome::BudgetExceeded { at, .. }
            | RunOutcome::Crashed { at } => at,
        };
        let events_now = self.rt.events_processed();
        // Next phase's baseline: this quiescent boundary.
        self.phase_metrics = m1;
        self.phase_events = events_now;
        RunReport {
            label: label.into(),
            outcome,
            convergence: end_time - start_time,
            bytes,
            msgs,
            envelopes,
            envelope_bytes,
            tuples,
            prov_bytes,
            prov_bytes_per_tuple: if tuples == 0 {
                0.0
            } else {
                prov_bytes as f64 / tuples as f64
            },
            state_bytes: self.state_bytes(),
            events: events_now - e0,
            wall,
        }
    }

    /// Union of a view relation's partitions across all peers.
    ///
    /// When a serving handle is attached ([`Runner::serve`]) and `rel_name`
    /// is served, this reads the writer's own published copy — O(view) to
    /// clone into the sorted set, but no peer locks and no per-peer scan.
    /// Otherwise it falls back to [`Runner::view_scan`]. Hot paths should
    /// not call this per lookup at all: clone the [`ViewReader`] and use its
    /// O(1) point lookups (`connected` / `region_of` / `view_contains`).
    #[must_use = "cloning a whole view per call is the slow read path; hot \
                  paths should hold a ViewReader and use point lookups"]
    pub fn view(&self, rel_name: &str) -> BTreeSet<Tuple> {
        if let (Some(writer), Some(rel)) = (&self.serve, self.plan.catalog.id(rel_name)) {
            let store = writer.read();
            if store.serves(rel) {
                return store.snapshot(rel);
            }
        }
        self.view_scan(rel_name)
    }

    /// Union of a view relation's partitions across all peers, rebuilt by
    /// scanning every peer's store — the pre-serving read path, kept as the
    /// fallback (and as the independent ground truth the serving layer is
    /// differentially tested against).
    pub fn view_scan(&self, rel_name: &str) -> BTreeSet<Tuple> {
        let rel = self
            .plan
            .catalog
            .id(rel_name)
            .unwrap_or_else(|| panic!("unknown relation `{rel_name}`"));
        let mut out = BTreeSet::new();
        self.rt.for_each_peer(|_, peer| {
            for op in peer.ops() {
                if let OpState::Store(s) = op {
                    if s.rel() == rel {
                        out.extend(s.contents());
                    }
                }
            }
        });
        out
    }

    /// Annotation of one view tuple, searched across peers (tests and the
    /// provenance explorer example). Stops at the first peer that knows the
    /// tuple.
    pub fn view_prov(&self, rel_name: &str, tuple: &Tuple) -> Option<netrec_prov::Prov> {
        let rel = self.plan.catalog.id(rel_name)?;
        (0..self.rt.peer_count()).find_map(|p| {
            self.rt.with_peer(PeerId(p), |peer| {
                peer.ops().iter().find_map(|op| match op {
                    OpState::Store(s) if s.rel() == rel => s.prov_of(tuple).cloned(),
                    _ => None,
                })
            })
        })
    }

    /// Provenance variable assigned to a live base tuple (searched across
    /// peers' ingress operators). Stops at the first peer that owns it.
    pub fn base_var(&self, rel_name: &str, tuple: &Tuple) -> Option<netrec_bdd::Var> {
        let rel = self.plan.catalog.id(rel_name)?;
        (0..self.rt.peer_count()).find_map(|p| {
            self.rt.with_peer(PeerId(p), |peer| {
                peer.ops().iter().find_map(|op| match op {
                    OpState::Ingress(i) if i.rel() == rel => i.var_of(tuple),
                    _ => None,
                })
            })
        })
    }

    /// Total operator state bytes across all peers.
    pub fn state_bytes(&self) -> usize {
        let mut total = 0;
        self.rt.for_each_peer(|_, peer| total += peer.state_bytes());
        total
    }

    /// Traffic metrics, cumulative over all phases *and across recoveries*:
    /// a rebuilt substrate counts from zero, so the checkpointed history is
    /// folded back in. A recovered session therefore reports checkpointed
    /// traffic plus replayed work — the crashed attempt's lost partial work
    /// is excluded, matching what a fault-free execution of the same inputs
    /// ships.
    pub fn metrics(&self) -> NetMetrics {
        let mut m = self.base_metrics.clone();
        m.merge(&self.rt.metrics_snapshot());
        m
    }

    /// Events processed, cumulative across recoveries (same folding as
    /// [`Runner::metrics`]).
    pub fn events_processed(&self) -> u64 {
        self.base_events + self.rt.events_processed()
    }

    /// Inspect one peer's operator state (tests / provenance explorer).
    /// Takes a closure because the concurrent substrates hold peers behind
    /// per-peer locks.
    pub fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&EnginePeer) -> T) -> T {
        self.rt.with_peer(p, f)
    }

    /// Number of peers.
    pub fn peer_count(&self) -> u32 {
        self.rt.peer_count()
    }
}

/// Instantiate the substrate selected by `cfg.runtime` over `nodes` (shared
/// by [`Runner::new`] and [`Runner::recover`]).
fn build_runtime(nodes: Vec<EnginePeer>, cfg: &RunnerConfig) -> EngineRuntime {
    match &cfg.runtime {
        RuntimeKind::Des(dc) => {
            EngineRuntime::Des(Simulator::new(nodes, cfg.cluster.clone(), dc.clone()))
        }
        RuntimeKind::Sharded(sc) => EngineRuntime::Sharded(ShardedRuntime::new(nodes, sc.clone())),
    }
}
