//! The sharded runtime: one composite [`Runtime`] over peer-partitioned
//! inner shards — many peers per shard, many shards per box.
//!
//! A [`ShardedRuntime`] partitions the global peer set across N inner
//! shards via a pluggable [`ShardAssignment`] (hash, contiguous blocks, or
//! an explicit map); each shard is an [`AsyncRuntime`] — one executor
//! thread hosting one cooperative task per peer, thousands of peers per
//! shard. (`shards == peers` with [`ShardAssignment::Contiguous`] is the
//! thread-per-peer regime: one peer per executor thread.) Each peer is
//! wrapped in a shard-local adapter that keeps the
//! peer's *global* identity: same-shard traffic uses the shard's own
//! bounded inboxes exactly as in the standalone runtime, and cross-shard
//! **envelopes** (coalesced per quantum, see [`mod@crate::coalesce`]) take one
//! of two paths — the **direct path**, where the sending executor delivers
//! straight into the destination shard's inbox (no controller hop), or the
//! **relay fallback**, a bounded transport channel drained by the composite
//! controller, used when the destination inbox is full or earlier envelopes
//! for that destination are still in the relay (per-channel FIFO).
//!
//! Contract notes (DESIGN.md "Runtimes" has the full ledger):
//!
//! * **Global termination detection** — every shard shares **one**
//!   in-flight counter (one shared bookkeeping block): messages, hand-offs,
//!   envelopes on either cross-shard path, and *armed timers* all register
//!   on the same atomic before their producing event retires, so the
//!   counter never transiently reads zero and a single load certifies
//!   global quiescence — including the timer fence: no phase ends with a
//!   cross-shard envelope in transit or a timer armed anywhere. (A
//!   per-shard-counter sweep would be unsound here: with workers injecting
//!   directly into each other's shards, a sweep could read the destination
//!   before the registration and the source after the retirement.)
//! * **Per-channel FIFO across both paths** — direct deliveries from one
//!   worker are ordered by construction; once a destination's full inbox
//!   forces an envelope onto the relay, the sender pins that destination to
//!   the relay (`transport_dests`) until the relay is drained
//!   (`relay_in_flight == 0` ⇒ every relayed envelope already sits in its
//!   destination inbox), so a direct send can never overtake a relayed one.
//! * **Deadlock freedom** — the controller never blocks: relay delivery
//!   uses a non-blocking inject, parking envelopes per destination peer
//!   (FIFO preserved: an envelope never overtakes an earlier parked one for
//!   the same destination) when an inbox is full. A worker spinning on the
//!   full transport channel is always freed because the controller keeps
//!   draining it.
//! * **Budget / freeze** — [`RunBudget`] is honored at the composite level
//!   (`max_events` over the shared event counter, `max_time` over
//!   cumulative wall time spent inside `run`, `max_wall` per phase).
//!   Exhaustion freezes
//!   every shard (one shared teardown flag); a frozen session fails fast on
//!   later runs and never claims convergence. A peer panic in any shard
//!   freezes all shards and re-panics from `run`.
//! * **Metrics** — each shard accounts its peers' traffic in a shard-level
//!   [`NetMetrics`] keyed by *global* peer ids; [`Runtime::metrics_snapshot`]
//!   folds the shards with [`NetMetrics::merge`], and
//!   [`ShardedRuntime::shard_metrics`] exposes the per-shard breakdown.
//!
//! The cross-shard transport is the seam where a socket goes: see
//! [`TransportKind::Tcp`] and [`mod@crate::tcp`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration as WallDuration, Instant};

use crossbeam::channel::{bounded, Receiver, SyncSender, TrySendError};
use netrec_types::{FxHashSet, SimTime};
use parking_lot::Mutex;

use crate::async_rt::{AsyncConfig, AsyncInjector, AsyncRuntime};
use crate::coalesce::{frames, FrameBody};
use crate::des::{NetApi, PeerNode};
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::{MsgMeta, NetMetrics};
use crate::net::{PeerId, Port};
use crate::runtime::{RunBudget, RunOutcome, Runtime};
use crate::substrate_common::Shared;
use crate::tcp::{LinkSenders, TcpConfig, TcpTransport, WireMsg};

/// Strategy for placing global peers onto shards.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardAssignment {
    /// Multiplicative hash of the peer id (same mixing as
    /// [`Partitioner::Hash`](crate::net::Partitioner)) — spreads sequential
    /// peer ids evenly.
    Hash,
    /// Contiguous blocks: the first ⌈peers/shards⌉ peers on shard 0, the
    /// next block on shard 1, … — preserves locality of `Direct`-partitioned
    /// workloads.
    Contiguous,
    /// Explicit map `peer → shard`, indexed by peer id. Must cover every
    /// peer with a shard index in range (validated at construction).
    Explicit(Vec<u32>),
}

impl ShardAssignment {
    /// The shard owning `peer` out of `peers` total, for `shards` shards.
    /// Deterministic and total: every peer maps to exactly one shard in
    /// `0..shards`.
    pub fn shard_of(&self, peer: PeerId, peers: u32, shards: u32) -> u32 {
        let shards = shards.max(1);
        match self {
            ShardAssignment::Hash => {
                let h = (u64::from(peer.0).wrapping_add(0x9e37_79b9))
                    .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
                ((h >> 32) % u64::from(shards)) as u32
            }
            ShardAssignment::Contiguous => {
                let chunk = peers.div_ceil(shards).max(1);
                (peer.0 / chunk).min(shards - 1)
            }
            ShardAssignment::Explicit(map) => {
                let s = *map
                    .get(peer.0 as usize)
                    .unwrap_or_else(|| panic!("explicit shard map misses peer {}", peer.0));
                assert!(
                    s < shards,
                    "peer {} mapped to shard {s} >= {shards}",
                    peer.0
                );
                s
            }
        }
    }
}

/// How cross-shard envelopes physically travel between shards. Same-shard
/// traffic always uses the hosting shard's in-process inboxes; only the
/// cross-shard seam is pluggable — it is exactly where one-shard-per-box
/// puts the network.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum TransportKind {
    /// In-process: direct worker-to-shard injection with the bounded
    /// controller-relay fallback (the default, and the reference the TCP
    /// transport is pinned against).
    #[default]
    Channel,
    /// Loopback TCP: length-framed, CRC-checked sockets between shards,
    /// under per-link connection supervision (reconnect/backoff, heartbeat
    /// failure detection, ack-ledger retransmit) — see [`mod@crate::tcp`].
    Tcp(TcpConfig),
}

/// Tuning knobs for the sharded runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedConfig {
    /// Number of inner shards.
    pub shards: u32,
    /// Peer → shard placement.
    pub assignment: ShardAssignment,
    /// Tuning for each inner shard (inbox capacity, timer dilation, poll,
    /// coalescing, fault plan). The cross-shard transport follows the
    /// shard's `coalesce` flag, so one flag governs the whole composite.
    pub shard: AsyncConfig,
    /// Capacity of the bounded cross-shard transport channel; senders
    /// observe backpressure once it fills.
    pub transport_capacity: usize,
    /// Controller poll tick while waiting for global quiescence (a safety
    /// net — a cross-shard message wakes the controller immediately).
    pub poll: WallDuration,
    /// Physical cross-shard transport: in-process channels (default) or
    /// supervised loopback TCP.
    pub transport: TransportKind,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 2,
            assignment: ShardAssignment::Hash,
            shard: AsyncConfig::default(),
            transport_capacity: 1024,
            poll: WallDuration::from_millis(1),
            transport: TransportKind::Channel,
        }
    }
}

impl ShardedConfig {
    /// `shards` hash-assigned shards with default tuning.
    pub fn with_shards(shards: u32) -> ShardedConfig {
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        }
    }

    /// Select the peer → shard assignment (builder style).
    pub fn with_assignment(mut self, assignment: ShardAssignment) -> ShardedConfig {
        self.assignment = assignment;
        self
    }

    /// Enable or disable transport coalescing (builder style): sets the
    /// inner shards' flag, which also governs the cross-shard transport.
    pub fn with_coalescing(mut self, on: bool) -> ShardedConfig {
        self.shard.coalesce = on;
        self
    }

    /// Install a seeded transport fault schedule (builder style): sets the
    /// inner shards' plan, so every delivery — same-shard and
    /// cross-shard alike — passes through the receiving shard's fault hook.
    /// Decisions are keyed on shard-*local* peer ids, so the same plan
    /// lands on different envelopes under different shard counts: sweeping
    /// topologies multiplies interleavings, which is the point.
    pub fn with_fault(mut self, plan: FaultPlan) -> ShardedConfig {
        self.shard.fault = Some(plan);
        self
    }

    /// Select the cross-shard transport (builder style).
    pub fn with_transport(mut self, transport: TransportKind) -> ShardedConfig {
        self.transport = transport;
        self
    }

    /// Route cross-shard envelopes over supervised loopback TCP with
    /// default tuning (builder style).
    pub fn with_tcp(self) -> ShardedConfig {
        self.with_transport(TransportKind::Tcp(TcpConfig::default()))
    }

    /// Short substrate label for reports and bench entries.
    pub fn label(&self) -> &'static str {
        match self.transport {
            TransportKind::Channel => "sharded-async",
            TransportKind::Tcp(_) => "sharded-async-tcp",
        }
    }
}

/// A cross-shard envelope in transit: global destination plus the coalesced
/// messages of one producing quantum bound for it (FIFO order preserved).
/// One envelope = one transport slot, one in-flight count, one controller
/// hand-off, however many logical messages it carries.
pub(crate) struct Envelope<M> {
    pub(crate) to: PeerId,
    pub(crate) msgs: FrameBody<M>,
}

/// Global peer → (shard, local index) placement, shared with the adapters.
pub(crate) struct ShardMap {
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
}

impl ShardMap {
    pub(crate) fn locate(&self, p: PeerId) -> (usize, PeerId) {
        (
            self.shard_of[p.0 as usize] as usize,
            PeerId(self.local_of[p.0 as usize]),
        )
    }
}

/// Transport bookkeeping shared by the controller and every adapter.
/// Quiescence itself is certified by the composite-wide [`Shared`]
/// in-flight counter (one atomic across every shard); this state carries
/// the *diagnostic* cross-shard counter and the direct-path plumbing.
pub(crate) struct TransportState<M> {
    /// Cross-shard envelopes routed via the controller that it has not yet
    /// accepted into their destination shard (in the channel, or parked).
    /// Zero ⇒ the controller relay is drained — the fence assertion
    /// [`ShardedRuntime::cross_shard_in_flight`] exposes, and the signal
    /// that lets senders safely resume the direct path (see
    /// `ShardPeer::route_cross`).
    relay_in_flight: AtomicI64,
    /// Per-shard direct-delivery handles, filled once the shards exist
    /// (adapters are constructed first). Before initialisation every
    /// cross-shard envelope takes the controller path (and the TCP receive
    /// side refuses delivery, killing the connection so the sender's
    /// ledger retries).
    pub(crate) injectors: OnceLock<Vec<AsyncInjector<M>>>,
}

/// Shard-local wrapper keeping a peer's global identity: runs the inner
/// node against a *global-id* [`NetApi`], then routes its outputs — local
/// hand-offs and same-shard sends through the hosting shard, cross-shard
/// sends into the transport — and re-arms its timers on the hosting shard's
/// timer service.
pub struct ShardPeer<M, N> {
    inner: N,
    /// Global peer id.
    me: PeerId,
    my_shard: u32,
    map: Arc<ShardMap>,
    state: Arc<TransportState<M>>,
    /// The composite-wide bookkeeping block every shard shares: one
    /// in-flight counter covers same-shard traffic, direct cross-shard
    /// deliveries, and controller-relayed envelopes alike.
    global: Arc<Shared>,
    outbound: SyncSender<Envelope<M>>,
    /// Shard-level traffic metrics keyed by global peer ids.
    metrics: Arc<Mutex<NetMetrics>>,
    /// Destination peers whose envelopes must keep using the controller
    /// relay to preserve per-channel FIFO: once a destination's inbox
    /// forced an envelope onto the transport, later envelopes may not
    /// overtake it on the direct path until the relay is drained.
    transport_dests: FxHashSet<PeerId>,
    /// Whether the composite coalesces (mirrors the hosting shard's flag so
    /// cross-shard envelopes and envelope accounting match the physical
    /// frames the hosting runtime actually ships).
    coalesce: bool,
    /// Cross-shard sends buffered across the enclosing quantum's relay
    /// calls, flushed as per-destination envelopes at quantum end.
    cross_buf: Vec<(PeerId, Port, M, MsgMeta)>,
    /// (global destination, meta) of every same-shard remote send this
    /// quantum, for envelope accounting: the hosting runtime coalesces the
    /// physical frames, but records them in *local* ids into tables the
    /// composite never snapshots — so the adapter mirrors the grouping in
    /// global ids here.
    same_shard_meta: Vec<(PeerId, Port, (), MsgMeta)>,
    /// TCP mode: this shard's per-destination-shard envelope queues into
    /// the supervised transport (`None` on the diagonal). `None` in
    /// channel mode — cross-shard envelopes then take the direct/relay
    /// paths.
    tcp_links: Option<LinkSenders<M>>,
}

impl<M: Send, N: PeerNode<M>> ShardPeer<M, N> {
    /// Spin a cross-shard envelope into the bounded transport (the
    /// controller-relay fallback). The controller always drains the channel
    /// (it never blocks), so this terminates unless the session is tearing
    /// down — then the envelope is dropped and its global count retired,
    /// like every other send on teardown.
    fn send_cross(&self, env: Envelope<M>) {
        self.state.relay_in_flight.fetch_add(1, Ordering::SeqCst);
        let mut env = env;
        loop {
            match self.outbound.try_send(env) {
                Ok(()) => return,
                Err(TrySendError::Full(back)) => {
                    if self.global.shutting_down.load(Ordering::SeqCst) {
                        self.drop_cross();
                        return;
                    }
                    env = back;
                    std::thread::sleep(WallDuration::from_micros(50));
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.drop_cross();
                    return;
                }
            }
        }
    }

    /// Teardown drop of a transport-bound envelope: un-count it from both
    /// the relay diagnostic and the global in-flight counter.
    fn drop_cross(&self) {
        self.state.relay_in_flight.fetch_sub(1, Ordering::SeqCst);
        self.global.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Route one cross-shard envelope, already registered in the global
    /// in-flight counter. Fast path: deliver straight into the destination
    /// shard's inbox from this executor thread — no controller hop. Fallback
    /// (inbox full, relay still draining earlier envelopes for this
    /// destination, or injectors not yet installed): the bounded transport,
    /// drained by the composite controller. `transport_dests` keeps the
    /// per-channel FIFO guarantee across the two paths: after a fallback,
    /// the destination stays pinned to the relay until the relay is
    /// globally drained (`relay_in_flight == 0` ⇒ every relayed envelope
    /// already sits in its destination inbox, so a direct send can no
    /// longer overtake one).
    fn route_cross(&mut self, to: PeerId, body: FrameBody<M>) {
        let (shard, local) = self.map.locate(to);
        // TCP mode: hand the envelope (count already registered) to the
        // destination link's supervisor — its ledger owns delivery from
        // here, across however many connection deaths it takes. The queue
        // is unbounded, so workers never block on the socket. A closed
        // queue means teardown: drop and retire, like the channel paths.
        if let Some(links) = &self.tcp_links {
            if let Some(tx) = &links[shard] {
                if tx.send(Envelope { to, msgs: body }).is_err() {
                    self.global.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
        }
        if !self.transport_dests.is_empty()
            && self.state.relay_in_flight.load(Ordering::SeqCst) == 0
        {
            self.transport_dests.clear();
        }
        if !self.transport_dests.contains(&to) {
            if let Some(injectors) = self.state.injectors.get() {
                match injectors[shard].try_inject(local, body) {
                    Ok(()) => return,
                    Err(body) => {
                        self.transport_dests.insert(to);
                        self.send_cross(Envelope { to, msgs: body });
                        return;
                    }
                }
            }
        }
        self.send_cross(Envelope { to, msgs: body });
    }

    /// Run one inner callback and route its outputs. `net` is the *hosting
    /// shard's* API (local peer ids); the inner node only ever sees global
    /// ids. Same-shard sends flow into the hosting runtime's out-vector
    /// (which coalesces them at quantum end); cross-shard sends buffer in
    /// `cross_buf` until [`PeerNode::on_quantum_end`] flushes them as
    /// per-destination envelopes — so both halves follow the same flush
    /// rule and envelope accounting stays byte-identical to the DES.
    fn relay(&mut self, net: &mut NetApi<M>, f: impl FnOnce(&mut N, &mut NetApi<M>)) {
        let mut api = NetApi::fresh(net.now(), self.me);
        f(&mut self.inner, &mut api);
        let (out, timers) = api.into_parts();
        if out.iter().any(|(to, ..)| *to != self.me) {
            // One metrics lock per callback. Logical sends are recorded
            // here; envelope records follow at
            // quantum end, once the frame compositions are known.
            let mut m = self.metrics.lock();
            for (to, _, _, meta) in &out {
                if *to != self.me {
                    m.record_send(self.me, *to, *meta);
                }
            }
        }
        for (to, port, msg, meta) in out {
            if to == self.me {
                // Local operator hand-off: free, stays on this worker.
                net.send(net.me(), port, msg, meta);
            } else {
                let (shard, local) = self.map.locate(to);
                if shard == self.my_shard as usize {
                    self.same_shard_meta.push((to, port, (), meta));
                    net.send(local, port, msg, meta);
                } else {
                    self.cross_buf.push((to, port, msg, meta));
                }
            }
        }
        for (delay, id) in timers {
            net.set_timer(delay, id);
        }
    }
}

impl<M: Send, N: PeerNode<M>> PeerNode<M> for ShardPeer<M, N> {
    fn on_message(&mut self, port: Port, msg: M, net: &mut NetApi<M>) {
        self.relay(net, |inner, api| inner.on_message(port, msg, api));
    }

    fn on_timer(&mut self, id: u64, net: &mut NetApi<M>) {
        self.relay(net, |inner, api| inner.on_timer(id, api));
    }

    /// Quantum end: forward the hook to the wrapped node first (so an
    /// inner peer's own quantum-end sends join this quantum's frames), then
    /// flush the buffered cross-shard sends as one envelope per destination
    /// (the same flush rule the hosting runtime applies to the same-shard
    /// sends in `net`'s out-vector), and mirror the same-shard frame
    /// grouping into the shard-level envelope metrics.
    fn on_quantum_end(&mut self, net: &mut NetApi<M>) {
        self.relay(net, |inner, api| inner.on_quantum_end(api));
        if !self.same_shard_meta.is_empty() {
            let groups = frames(std::mem::take(&mut self.same_shard_meta), self.coalesce);
            let mut m = self.metrics.lock();
            for g in groups {
                m.record_envelope(self.me, g.to, g.envelope_meta());
            }
        }
        if self.cross_buf.is_empty() {
            return;
        }
        let flush = frames(std::mem::take(&mut self.cross_buf), self.coalesce);
        {
            // One metrics lock for the whole flush — and released before
            // the send loop, which may spin on a full transport.
            let mut m = self.metrics.lock();
            for frame in flush.as_slice() {
                m.record_envelope(self.me, frame.to, frame.envelope_meta());
            }
        }
        for frame in flush {
            // One global in-flight count per envelope, registered before
            // this quantum (whose own count is still held) retires — the
            // composite's single-counter register-before-retire invariant.
            self.global.in_flight.fetch_add(1, Ordering::SeqCst);
            let to = frame.to;
            self.route_cross(to, frame.into_body());
        }
    }
}

/// An envelope the controller could not deliver yet (destination inbox
/// full).
struct Parked<M> {
    msgs: FrameBody<M>,
}

/// A live sharded session over `N` peers behind one [`Runtime`]. Create
/// with [`ShardedRuntime::new`] and drive through the trait.
pub struct ShardedRuntime<M, N> {
    /// One async runtime per shard, hosting that shard's [`ShardPeer`]s;
    /// in-flight/event/panic bookkeeping lives in the one [`Shared`] block
    /// they all share.
    shards: Vec<AsyncRuntime<M, ShardPeer<M, N>>>,
    map: Arc<ShardMap>,
    state: Arc<TransportState<M>>,
    /// The one bookkeeping block every shard shares: a single in-flight
    /// counter (quiescence = one atomic load), a single event counter, one
    /// teardown flag, one panic slot.
    shared: Arc<Shared>,
    transport_rx: Receiver<Envelope<M>>,
    /// Undeliverable cross-shard messages, FIFO per destination peer so the
    /// per-channel ordering guarantee survives backpressure.
    parked: Vec<VecDeque<Parked<M>>>,
    shard_metrics: Vec<Arc<Mutex<NetMetrics>>>,
    epoch: Instant,
    /// Wall-clock spent inside `run` phases (the composite's `max_time`
    /// clock).
    active: WallDuration,
    frozen: bool,
    /// Set when the inner plan's `crash_at_event` fired at the composite
    /// level: the session is dead and every later `run` reports
    /// [`RunOutcome::Crashed`] — never convergence or plain budget
    /// exhaustion.
    crashed: bool,
    cfg: ShardedConfig,
    peers_total: u32,
    /// The supervised TCP transport in [`TransportKind::Tcp`] mode
    /// (`None` in channel mode); joined at teardown.
    tcp: Option<TcpTransport<M>>,
}

impl<M: WireMsg + 'static, N: PeerNode<M> + Send + 'static> ShardedRuntime<M, N> {
    /// Partition `peers` (index = global `PeerId`) across
    /// `cfg.shards` shards and spawn them all. In
    /// [`TransportKind::Tcp`] mode this also binds one loopback listener
    /// per shard and spawns the per-link connection supervisors.
    pub fn new(peers: Vec<N>, cfg: ShardedConfig) -> ShardedRuntime<M, N> {
        let n = peers.len();
        let shards_n = cfg.shards.max(1);
        if let ShardAssignment::Explicit(map) = &cfg.assignment {
            assert_eq!(map.len(), n, "explicit shard map must cover every peer");
        }
        let mut shard_of = Vec::with_capacity(n);
        let mut local_of = Vec::with_capacity(n);
        let mut sizes = vec![0u32; shards_n as usize];
        for p in 0..n {
            let s = cfg
                .assignment
                .shard_of(PeerId(p as u32), n as u32, shards_n);
            shard_of.push(s);
            local_of.push(sizes[s as usize]);
            sizes[s as usize] += 1;
        }
        let map = Arc::new(ShardMap { shard_of, local_of });
        let state = Arc::new(TransportState {
            relay_in_flight: AtomicI64::new(0),
            injectors: OnceLock::new(),
        });
        let shared = Arc::new(Shared::new());
        let (transport_tx, transport_rx) = bounded::<Envelope<M>>(cfg.transport_capacity.max(1));
        let shard_metrics: Vec<Arc<Mutex<NetMetrics>>> = (0..shards_n)
            .map(|_| Arc::new(Mutex::new(NetMetrics::new(n as u32))))
            .collect();
        // TCP mode: bind listeners and spawn the supervised links now, so
        // the adapters below can hold their shard's sender row. The
        // supervisors read `state.injectors` only when delivering data,
        // and it is installed before `new` returns (nothing can send
        // earlier — no peer has been injected into yet).
        let tcp = match &cfg.transport {
            TransportKind::Channel => None,
            TransportKind::Tcp(tcp_cfg) => Some(
                TcpTransport::new(
                    shards_n,
                    tcp_cfg,
                    cfg.shard.fault,
                    Arc::clone(&map),
                    Arc::clone(&state),
                    Arc::clone(&shared),
                )
                .expect("bind loopback TCP shard transport"),
            ),
        };

        let mut buckets: Vec<Vec<ShardPeer<M, N>>> = (0..shards_n)
            .map(|s| Vec::with_capacity(sizes[s as usize] as usize))
            .collect();
        let coalesce = cfg.shard.coalesce;
        for (p, inner) in peers.into_iter().enumerate() {
            let s = map.shard_of[p] as usize;
            buckets[s].push(ShardPeer {
                inner,
                me: PeerId(p as u32),
                my_shard: s as u32,
                map: Arc::clone(&map),
                state: Arc::clone(&state),
                global: Arc::clone(&shared),
                outbound: transport_tx.clone(),
                metrics: Arc::clone(&shard_metrics[s]),
                transport_dests: FxHashSet::default(),
                coalesce,
                cross_buf: Vec::new(),
                same_shard_meta: Vec::new(),
                tcp_links: tcp.as_ref().map(|t| Arc::clone(&t.senders[s])),
            });
        }
        let shards: Vec<AsyncRuntime<M, ShardPeer<M, N>>> = buckets
            .into_iter()
            .map(|nodes| {
                AsyncRuntime::new_with_shared(nodes, cfg.shard.clone(), Arc::clone(&shared))
            })
            .collect();
        // Install the direct-delivery handles now that the shards exist;
        // adapters fall back to the controller relay until this point
        // (nothing runs before `new` returns, so in practice never).
        let _ = state
            .injectors
            .set(shards.iter().map(|s| s.injector().clone()).collect());
        // The adapters hold every transport sender the session needs; the
        // controller only ever receives.
        drop(transport_tx);
        ShardedRuntime {
            shards,
            map,
            state,
            shared,
            transport_rx,
            parked: (0..n).map(|_| VecDeque::new()).collect(),
            shard_metrics,
            epoch: Instant::now(),
            active: WallDuration::ZERO,
            frozen: false,
            crashed: false,
            cfg,
            peers_total: n as u32,
            tcp,
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard hosting a global peer.
    pub fn shard_of_peer(&self, p: PeerId) -> u32 {
        self.map.shard_of[p.0 as usize]
    }

    /// Per-shard traffic breakdown (each matrix keyed by global peer ids;
    /// folding them with [`NetMetrics::merge`] yields
    /// [`Runtime::metrics_snapshot`]).
    pub fn shard_metrics(&self) -> Vec<NetMetrics> {
        self.shard_metrics
            .iter()
            .map(|m| m.lock().clone())
            .collect()
    }

    /// Cross-shard envelopes currently held by the controller relay (in the
    /// transport channel or parked). Zero at every converged phase boundary
    /// — the cross-shard half of the timer fence. Direct-path deliveries
    /// never appear here: they go straight from the sending worker into the
    /// destination inbox.
    pub fn cross_shard_in_flight(&self) -> i64 {
        self.state.relay_in_flight.load(Ordering::SeqCst).max(0)
    }

    /// Total produced-but-unprocessed events anywhere in the composite
    /// (messages, hand-offs, relayed envelopes, armed timers) — the one
    /// shared in-flight counter. Zero at every converged phase boundary.
    pub fn pending_events(&self) -> i64 {
        self.shared.in_flight.load(Ordering::SeqCst).max(0)
    }

    /// Deliver one relay-routed envelope to its shard, or park it. The
    /// envelope keeps its (single, global) in-flight count throughout; only
    /// the relay diagnostic is released on acceptance.
    fn deliver_or_park(&mut self, to: PeerId, msgs: FrameBody<M>) {
        let (shard, local) = self.map.locate(to);
        let q = &mut self.parked[to.0 as usize];
        if !q.is_empty() {
            // FIFO per destination: never overtake an earlier parked
            // envelope.
            q.push_back(Parked { msgs });
            return;
        }
        match self.shards[shard].injector().try_inject(local, msgs) {
            Ok(()) => {
                self.state.relay_in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            Err(msgs) => q.push_back(Parked { msgs }),
        }
    }

    /// Retry parked envelopes (per-destination FIFO preserved).
    fn drain_parked(&mut self) {
        for p in 0..self.parked.len() {
            while let Some(head) = self.parked[p].pop_front() {
                let (shard, local) = self.map.locate(PeerId(p as u32));
                match self.shards[shard].injector().try_inject(local, head.msgs) {
                    Ok(()) => {
                        self.state.relay_in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(msgs) => {
                        self.parked[p].push_front(Parked { msgs });
                        break;
                    }
                }
            }
        }
    }

    /// Drain everything currently queued in the transport channel.
    fn drain_transport(&mut self) {
        while let Ok(env) = self.transport_rx.try_recv() {
            self.deliver_or_park(env.to, env.msgs);
        }
    }
}

impl<M, N> ShardedRuntime<M, N> {
    /// Faults applied so far, folded across every shard — plus, in TCP
    /// mode, the transport's supervision counters (reconnects,
    /// retransmits, heartbeat timeouts).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &self.shards {
            total.merge(&s.fault_stats());
        }
        if let Some(tcp) = &self.tcp {
            total.merge(&tcp.stats());
        }
        total
    }

    /// TCP mode: every directed link's supervisor state, row-major by
    /// sending shard (`None` in channel mode).
    pub fn tcp_link_states(&self) -> Option<Vec<crate::tcp::LinkState>> {
        self.tcp.as_ref().map(|t| t.link_states())
    }

    /// Freeze every shard (teardown of its executor and timer heap); the
    /// session stays inspectable but can never converge again.
    fn freeze_shards(&mut self) {
        self.frozen = true;
        // One shared teardown flag: unblocks senders spinning on the
        // transport *before* the shard executors are joined.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Join the TCP transport first: its threads all observe the
        // teardown flag within one read-timeout tick, and a handler
        // spinning on a full inbox retires its envelope's count on the
        // way out — nothing below depends on the sockets.
        if let Some(tcp) = &mut self.tcp {
            tcp.shutdown();
        }
        for s in &mut self.shards {
            s.freeze();
        }
    }
}

impl<M, N> Drop for ShardedRuntime<M, N> {
    fn drop(&mut self) {
        self.freeze_shards();
    }
}

impl<M: WireMsg + 'static, N: PeerNode<M> + Send + 'static> Runtime<M, N> for ShardedRuntime<M, N> {
    fn name(&self) -> &'static str {
        self.cfg.label()
    }

    fn inject(&mut self, to: PeerId, port: Port, msg: M) {
        // External injections register one global count and ride the relay
        // path (per-destination parking preserves FIFO with anything the
        // controller already holds for that peer).
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        self.state.relay_in_flight.fetch_add(1, Ordering::SeqCst);
        self.deliver_or_park(to, FrameBody::One((port, msg, MsgMeta::default())));
    }

    fn run(&mut self, budget: RunBudget) -> RunOutcome {
        let start = Instant::now();
        let wall_deadline = start + budget.max_wall;
        let time_deadline = if budget.max_time.0 == u64::MAX {
            None
        } else {
            let total = WallDuration::from_micros(budget.max_time.0);
            Some(start + total.saturating_sub(self.active))
        };
        let outcome = loop {
            self.drain_transport();
            self.drain_parked();
            // One composite-wide counter covers every pending event —
            // same-shard, direct cross-shard, relayed, armed timers —
            // registered before its producer retires, so a single load
            // certifies global quiescence (no multi-counter sweep order to
            // reason about, even with workers injecting into each other's
            // shards concurrently).
            let pending = self.shared.in_flight.load(Ordering::SeqCst);
            // Panic check after the counter read: a panicking worker records
            // its note before retiring its event, so zero-with-clean-notes
            // really is a clean convergence.
            let panic_note = self.shared.panicked.lock().clone();
            if let Some(msg) = panic_note {
                self.freeze_shards();
                self.active += start.elapsed();
                panic!("sharded runtime: {msg}");
            }
            // A frozen session (earlier budget exhaustion) fails fast and
            // never claims convergence: teardown retires dropped events, so
            // a zero sum here can be the result of truncation.
            if self.frozen {
                break if self.crashed {
                    RunOutcome::Crashed { at: self.now() }
                } else {
                    RunOutcome::BudgetExceeded {
                        at: self.now(),
                        pending: pending.max(0) as usize,
                    }
                };
            }
            // Crash fault, enforced at the composite level (the inner
            // shards' own `run` loops never execute here — the composite
            // controller is the only driver): once the shared event counter
            // passes the dial, every shard is torn down. The counter races
            // worker progress, so a seed gives a reproducible crash
            // *distribution*, not an exact event index.
            let crash_at = self.cfg.shard.fault.map_or(0, |p| p.crash_at_event);
            if crash_at > 0 && self.shared.events.load(Ordering::SeqCst) >= crash_at {
                let at = self.now();
                self.crashed = true;
                self.freeze_shards();
                break RunOutcome::Crashed { at };
            }
            if pending <= 0 {
                break RunOutcome::Converged { at: self.now() };
            }
            let now = Instant::now();
            if self.shared.events.load(Ordering::SeqCst) >= budget.max_events
                || now >= wall_deadline
                || time_deadline.is_some_and(|d| now >= d)
            {
                let at = self.now();
                self.freeze_shards();
                break RunOutcome::BudgetExceeded {
                    at,
                    pending: pending as usize,
                };
            }
            // Sleep until a cross-shard envelope arrives or the poll tick
            // elapses (shard-internal progress is re-checked each tick).
            if let Ok(env) = self.transport_rx.recv_timeout(self.cfg.poll) {
                self.deliver_or_park(env.to, env.msgs);
            }
        };
        self.active += start.elapsed();
        outcome
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        let mut total = NetMetrics::new(self.peers_total);
        for shard in &self.shard_metrics {
            total.merge(&shard.lock());
        }
        total
    }

    fn events_processed(&self) -> u64 {
        self.shared.events.load(Ordering::SeqCst)
    }

    fn frontier(&self) -> SimTime {
        self.now()
    }

    fn peer_count(&self) -> u32 {
        self.peers_total
    }

    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&N) -> T) -> T {
        let (shard, local) = self.map.locate(p);
        self.shards[shard].with_peer(local, |sp| f(&sp.inner))
    }

    fn for_each_peer(&self, mut f: impl FnMut(PeerId, &N)) {
        for p in 0..self.peers_total {
            self.with_peer(PeerId(p), |n| f(PeerId(p), n));
        }
    }

    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut N) -> T) -> T {
        let (shard, local) = self.map.locate(p);
        self.shards[shard].with_peer_mut(local, |sp| f(&mut sp.inner))
    }

    fn for_each_peer_mut(&mut self, mut f: impl FnMut(PeerId, &mut N)) {
        // Global-id order: drivers folding per-peer serving deltas see one
        // coherent global sequence regardless of shard layout.
        for p in 0..self.peers_total {
            self.with_peer_mut(PeerId(p), |n| f(PeerId(p), n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MsgMeta;
    use netrec_types::Duration;

    struct Counter {
        forward_to: Option<PeerId>,
        seen: u64,
    }

    impl PeerNode<u64> for Counter {
        fn on_message(&mut self, _port: Port, msg: u64, net: &mut NetApi<u64>) {
            self.seen += 1;
            if msg > 0 {
                if let Some(to) = self.forward_to {
                    net.send(
                        to,
                        Port(0),
                        msg - 1,
                        MsgMeta {
                            bytes: 10,
                            prov_bytes: 2,
                            tuples: 1,
                        },
                    );
                }
            }
        }
    }

    fn ping_pong_pair() -> Vec<Counter> {
        vec![
            Counter {
                forward_to: Some(PeerId(1)),
                seen: 0,
            },
            Counter {
                forward_to: Some(PeerId(0)),
                seen: 0,
            },
        ]
    }

    fn split_pair() -> ShardedConfig {
        // Peer 0 on shard 0, peer 1 on shard 1: every forward crosses.
        ShardedConfig::with_shards(2).with_assignment(ShardAssignment::Explicit(vec![0, 1]))
    }

    fn split_pair_tcp() -> ShardedConfig {
        split_pair().with_tcp()
    }

    #[test]
    fn cross_shard_ping_pong_terminates_with_exact_metrics() {
        let mut rt = ShardedRuntime::new(ping_pong_pair(), split_pair());
        rt.inject(PeerId(0), Port(0), 10u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let m = rt.metrics_snapshot();
        assert_eq!(m.total_msgs(), 10);
        assert_eq!(m.total_bytes(), 100);
        assert_eq!(m.per_peer[0].msgs_sent, 5);
        assert_eq!(m.per_peer[1].msgs_sent, 5);
        assert_eq!(rt.cross_shard_in_flight(), 0);
        assert_eq!(rt.pending_events(), 0);
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 11);
    }

    #[test]
    fn timer_arms_across_shard_boundary_inside_the_phase() {
        struct T {
            fired: bool,
            poke: Option<PeerId>,
        }
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                if m == 1 {
                    // Forward across the shard boundary; the receiver arms.
                    if let Some(to) = self.poke {
                        net.send(to, Port(0), 2, MsgMeta::default());
                    }
                } else {
                    net.set_timer(Duration::from_millis(30), 9);
                }
            }
            fn on_timer(&mut self, id: u64, _net: &mut NetApi<u64>) {
                assert_eq!(id, 9);
                self.fired = true;
            }
        }
        let peers = vec![
            T {
                fired: false,
                poke: Some(PeerId(1)),
            },
            T {
                fired: false,
                poke: None,
            },
        ];
        let mut rt = ShardedRuntime::new(peers, split_pair());
        rt.inject(PeerId(0), Port(0), 1u64);
        let out = rt.run(RunBudget::default());
        // The global fence: convergence waits for the remote shard's timer.
        assert!(matches!(out, RunOutcome::Converged { .. }));
        assert!(rt.with_peer(PeerId(1), |t| t.fired));
        assert_eq!(rt.cross_shard_in_flight(), 0);
    }

    #[test]
    fn multi_phase_state_and_metrics_accumulate() {
        let mut rt = ShardedRuntime::new(ping_pong_pair(), split_pair());
        rt.inject(PeerId(0), Port(0), 4u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        assert_eq!(rt.metrics_snapshot().total_msgs(), 4);
        rt.inject(PeerId(1), Port(0), 3u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        assert_eq!(rt.metrics_snapshot().total_msgs(), 7);
        let breakdown = rt.shard_metrics();
        assert_eq!(breakdown.len(), 2);
        let folded: u64 = breakdown.iter().map(|m| m.total_msgs()).sum();
        assert_eq!(folded, 7, "shard breakdown folds to the total");
    }

    #[test]
    fn budget_exceeded_freezes_every_shard_and_fails_fast() {
        struct Loop;
        impl PeerNode<u64> for Loop {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                // Bounce between the two peers (cross-shard) forever.
                let other = PeerId(1 - net.me().0);
                net.send(other, Port(0), m, MsgMeta::default());
            }
        }
        let mut rt = ShardedRuntime::new(vec![Loop, Loop], split_pair());
        rt.inject(PeerId(0), Port(0), 0u64);
        let out = rt.run(RunBudget {
            max_wall: WallDuration::from_millis(50),
            ..RunBudget::default()
        });
        assert!(matches!(out, RunOutcome::BudgetExceeded { .. }));
        let e1 = rt.events_processed();
        std::thread::sleep(WallDuration::from_millis(20));
        assert_eq!(rt.events_processed(), e1, "workers stopped");
        let t0 = Instant::now();
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::BudgetExceeded { .. }
        ));
        assert!(
            t0.elapsed() < WallDuration::from_secs(5),
            "dead session must fail fast"
        );
    }

    #[test]
    fn peer_panic_in_one_shard_propagates_from_the_composite() {
        struct Bomb;
        impl PeerNode<u64> for Bomb {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                if net.me() == PeerId(1) && m == 13 {
                    panic!("boom on 13");
                }
                net.send(PeerId(1), Port(0), m, MsgMeta::default());
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut rt = ShardedRuntime::new(vec![Bomb, Bomb], split_pair());
            rt.inject(PeerId(0), Port(0), 13u64);
            rt.run(RunBudget::default())
        });
        let err = result.expect_err("composite must re-panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom on 13"), "got: {msg}");
    }

    #[test]
    fn tiny_transport_capacity_still_completes() {
        // 500 cross-shard messages through a 2-slot transport: the spinning
        // sender is always freed because the controller keeps draining.
        struct Spray;
        struct Sink(u64);
        enum Node {
            S(Spray),
            K(Sink),
        }
        impl PeerNode<u64> for Node {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                match self {
                    Node::S(_) => {
                        for i in 0..500 {
                            net.send(PeerId(1), Port(0), i + m, MsgMeta::default());
                        }
                    }
                    Node::K(k) => k.0 += 1,
                }
            }
        }
        let cfg = ShardedConfig {
            transport_capacity: 2,
            shard: AsyncConfig {
                channel_capacity: 4,
                ..AsyncConfig::default()
            },
            assignment: ShardAssignment::Explicit(vec![0, 1]),
            ..ShardedConfig::with_shards(2)
        };
        let mut rt = ShardedRuntime::new(vec![Node::S(Spray), Node::K(Sink(0))], cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let got = rt.with_peer(PeerId(1), |n| match n {
            Node::K(k) => k.0,
            _ => unreachable!(),
        });
        assert_eq!(got, 500);
    }

    /// A one-quantum cross-shard burst travels the bounded transport as ONE
    /// envelope (one transport slot, one in-flight count), split back in
    /// FIFO order inside the destination shard — and the shard-level
    /// metrics (global peer ids) account it as one envelope over N logical
    /// messages, exactly like the standalone substrates.
    #[test]
    fn cross_shard_burst_coalesces_into_one_envelope() {
        struct Spray;
        struct Sink(Vec<u64>);
        enum Node {
            S(Spray),
            K(Sink),
        }
        impl PeerNode<u64> for Node {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                match self {
                    Node::S(_) => {
                        for i in 0..200 {
                            net.send(
                                PeerId(1),
                                Port(0),
                                i,
                                MsgMeta {
                                    bytes: 8,
                                    prov_bytes: 0,
                                    tuples: 1,
                                },
                            );
                        }
                    }
                    Node::K(k) => k.0.push(m),
                }
            }
        }
        let run = |cfg: ShardedConfig| {
            let mut rt = ShardedRuntime::new(vec![Node::S(Spray), Node::K(Sink(vec![]))], cfg);
            rt.inject(PeerId(0), Port(0), 0u64);
            assert!(matches!(
                rt.run(RunBudget::default()),
                RunOutcome::Converged { .. }
            ));
            assert_eq!(rt.cross_shard_in_flight(), 0);
            let m = rt.metrics_snapshot();
            let got = rt.with_peer(PeerId(1), |n| match n {
                Node::K(k) => k.0.clone(),
                _ => unreachable!(),
            });
            (m, got)
        };
        // 2-slot transport: the burst still fits, because it is one envelope.
        let cfg = ShardedConfig {
            transport_capacity: 2,
            ..split_pair()
        };
        let (on, got) = run(cfg);
        assert_eq!(on.total_msgs(), 200, "logical count is per message");
        assert_eq!(on.total_envelopes(), 1, "one transport envelope");
        assert!(on.total_envelope_bytes() > on.total_bytes(), "frame header");
        assert_eq!(got, (0..200).collect::<Vec<_>>(), "FIFO within the frame");
        // Toggled off via the builder, every message pays its own envelope.
        let (off, got_off) = run(split_pair().with_coalescing(false));
        assert_eq!(off.logical(), on.logical());
        assert_eq!(off.total_envelopes(), 200);
        assert_eq!(got_off, got);
    }

    /// The TCP transport is byte-identical to the in-process channel at
    /// the metrics level: logical sends are recorded sender-side and
    /// envelope records at quantum-end flush, both *before* the physical
    /// transport, so swapping the socket in changes no number.
    #[test]
    fn tcp_transport_matches_channel_metrics_exactly() {
        let run = |cfg: ShardedConfig| {
            let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
            rt.inject(PeerId(0), Port(0), 10u64);
            assert!(matches!(
                rt.run(RunBudget::default()),
                RunOutcome::Converged { .. }
            ));
            assert_eq!(rt.pending_events(), 0);
            assert_eq!(rt.cross_shard_in_flight(), 0);
            let mut seen = 0;
            rt.for_each_peer(|_, c| seen += c.seen);
            assert_eq!(seen, 11);
            rt.metrics_snapshot()
        };
        assert_eq!(run(split_pair_tcp()), run(split_pair()));
    }

    #[test]
    fn tcp_runtime_reports_names_and_link_states() {
        let mut rt = ShardedRuntime::new(ping_pong_pair(), split_pair_tcp());
        assert_eq!(Runtime::<u64, Counter>::name(&rt), "sharded-async-tcp");
        rt.inject(PeerId(0), Port(0), 4u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let states = rt.tcp_link_states().expect("tcp mode");
        assert_eq!(states.len(), 4, "2x2 directed link matrix");
        // Both off-diagonal links carried traffic and are established.
        use crate::tcp::LinkState;
        assert_eq!(states[1], LinkState::Established);
        assert_eq!(states[2], LinkState::Established);
        let chan = ShardedRuntime::<u64, Counter>::new(ping_pong_pair(), split_pair());
        assert_eq!(Runtime::<u64, Counter>::name(&chan), "sharded-async");
        assert!(chan.tcp_link_states().is_none());
    }

    /// Seeded socket faults (connection kills, torn frames, accept
    /// stalls) perturb only timing: the fixpoint and every metric matrix
    /// match the clean run, and the supervision counters prove the faults
    /// actually fired.
    #[test]
    fn tcp_connection_kill_sweep_converges_identically() {
        let clean = {
            let mut rt = ShardedRuntime::new(ping_pong_pair(), split_pair_tcp());
            rt.inject(PeerId(0), Port(0), 60u64);
            assert!(matches!(
                rt.run(RunBudget::default()),
                RunOutcome::Converged { .. }
            ));
            rt.metrics_snapshot()
        };
        let mut supervision = FaultStats::default();
        for seed in 0..4u64 {
            let cfg = split_pair_tcp().with_fault(FaultPlan::socket_faults(seed));
            let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
            rt.inject(PeerId(0), Port(0), 60u64);
            assert!(
                matches!(rt.run(RunBudget::default()), RunOutcome::Converged { .. }),
                "seed {seed} did not converge"
            );
            assert_eq!(rt.pending_events(), 0, "seed {seed}");
            assert_eq!(rt.metrics_snapshot(), clean, "seed {seed} diverged");
            let mut seen = 0;
            rt.for_each_peer(|_, c| seen += c.seen);
            assert_eq!(seen, 61, "seed {seed}: exactly-once delivery broken");
            supervision.merge(&rt.fault_stats());
        }
        assert!(
            supervision.reconnects > 0,
            "sweep never reconnected: {supervision:?}"
        );
        assert!(
            supervision.retransmits > 0,
            "sweep never retransmitted: {supervision:?}"
        );
    }

    #[test]
    fn assignments_cover_every_peer_deterministically() {
        for assignment in [ShardAssignment::Hash, ShardAssignment::Contiguous] {
            for shards in [1u32, 2, 3, 8] {
                let mut counts = vec![0u32; shards as usize];
                for p in 0..64u32 {
                    let s = assignment.shard_of(PeerId(p), 64, shards);
                    assert!(s < shards, "{assignment:?} out of range");
                    assert_eq!(
                        s,
                        assignment.shard_of(PeerId(p), 64, shards),
                        "{assignment:?} must be deterministic"
                    );
                    counts[s as usize] += 1;
                }
                assert_eq!(counts.iter().sum::<u32>(), 64, "total coverage");
                if shards > 1 {
                    assert!(
                        counts.iter().filter(|&&c| c > 0).count() > 1,
                        "{assignment:?} with {shards} shards must actually spread: {counts:?}"
                    );
                }
            }
        }
        // Contiguous is block-ordered.
        assert_eq!(ShardAssignment::Contiguous.shard_of(PeerId(0), 9, 2), 0);
        assert_eq!(ShardAssignment::Contiguous.shard_of(PeerId(8), 9, 2), 1);
        // Explicit maps verbatim.
        let ex = ShardAssignment::Explicit(vec![1, 0, 1]);
        assert_eq!(ex.shard_of(PeerId(0), 3, 2), 1);
        assert_eq!(ex.shard_of(PeerId(1), 3, 2), 0);
    }

    #[test]
    #[should_panic(expected = "explicit shard map must cover every peer")]
    fn short_explicit_map_is_rejected() {
        let cfg = ShardedConfig::with_shards(2).with_assignment(ShardAssignment::Explicit(vec![0]));
        let _rt: ShardedRuntime<u64, Counter> = ShardedRuntime::new(ping_pong_pair(), cfg);
    }

    /// The restore seam: overwriting peer state through `with_peer_mut` /
    /// `for_each_peer_mut` at a quiescent boundary — exactly what crash
    /// recovery does when it re-installs checkpointed state — must not
    /// disturb the composite's in-flight accounting. A double-registration
    /// would leave a phantom pending event and wedge the next phase; a
    /// missed one would let a live phase converge early.
    #[test]
    fn peer_restore_at_a_boundary_keeps_quiescence() {
        let mut rt = ShardedRuntime::new(ping_pong_pair(), split_pair());
        rt.inject(PeerId(0), Port(0), 6u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        rt.for_each_peer_mut(|_, c| c.seen = 0);
        rt.with_peer_mut(PeerId(1), |c| c.seen = 100);
        assert_eq!(rt.pending_events(), 0, "restore must not register events");
        assert_eq!(rt.cross_shard_in_flight(), 0);
        // The next phase starts from the restored state and still
        // detects quiescence exactly.
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        rt.inject(PeerId(1), Port(0), 3u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 100 + 4);
    }

    #[test]
    fn crash_fault_tears_down_and_later_runs_stay_crashed() {
        struct Loop;
        impl PeerNode<u64> for Loop {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                let other = PeerId(1 - net.me().0);
                net.send(other, Port(0), m, MsgMeta::default());
            }
        }
        let cfg = split_pair().with_fault(FaultPlan::crash_at(50));
        let mut rt = ShardedRuntime::new(vec![Loop, Loop], cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        let out = rt.run(RunBudget::default());
        assert!(out.crashed(), "got {out:?}");
        assert_eq!(out.converged_at(), None);
        // The session is frozen: snapshots are stable.
        let e1 = rt.events_processed();
        assert!(e1 >= 50);
        std::thread::sleep(WallDuration::from_millis(20));
        assert_eq!(rt.events_processed(), e1, "workers stopped");
        // A crashed session keeps reporting Crashed — never budget
        // exhaustion, never convergence.
        assert!(rt.run(RunBudget::default()).crashed());
    }

    #[test]
    fn empty_run_and_empty_shards_converge_immediately() {
        // 4 shards over 2 peers: two shards are empty.
        let cfg =
            ShardedConfig::with_shards(4).with_assignment(ShardAssignment::Explicit(vec![0, 3]));
        let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        assert_eq!(rt.metrics_snapshot().total_msgs(), 0);
        assert_eq!(rt.shard_count(), 4);
        assert_eq!(rt.shard_of_peer(PeerId(1)), 3);
    }
}
