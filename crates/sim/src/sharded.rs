//! The sharded runtime: one composite [`Runtime`] over peer-partitioned
//! inner shards — many peers per shard, many shards per box.
//!
//! A [`ShardedRuntime`] partitions the global peer set across N shards via
//! a pluggable [`ShardAssignment`] (hash, contiguous blocks, or an explicit
//! map); each shard is one async event loop
//! ([`mod@crate::async_rt`]) — one executor thread running its peers'
//! quanta to completion, thousands of peers per shard. (`shards == peers`
//! with [`ShardAssignment::Contiguous`] is the thread-per-peer regime: one
//! peer per executor thread.) Each peer is wrapped in a shard-local adapter
//! that keeps the peer's *global* identity: same-shard traffic goes
//! straight into the hosting executor's inboxes exactly as in the
//! standalone runtime, and a cross-shard **envelope** (coalesced per
//! quantum, see [`mod@crate::coalesce`]) is one send into the destination
//! shard's unbounded ingress channel, made by the sending executor itself —
//! the same send the controller's `inject` and the TCP receive handlers
//! make. There is no relay and no controller hop.
//!
//! Contract notes (DESIGN.md "Runtimes" has the full ledger):
//!
//! * **Global termination detection** — every shard shares **one**
//!   in-flight counter (one shared bookkeeping block): messages, hand-offs,
//!   cross-shard envelopes and *armed timers* all register on the same
//!   atomic before their producing event retires, so the counter never
//!   transiently reads zero and a single load certifies global quiescence —
//!   including the timer fence: no phase ends with a cross-shard envelope
//!   in transit or a timer armed anywhere. The last retirement, whichever
//!   shard makes it, wakes the composite controller. (A per-shard-counter
//!   sweep would be unsound here: with executors sending into each other's
//!   shards, a sweep could read the destination before the registration and
//!   the source after the retirement.)
//! * **Per-channel FIFO** — by construction: every envelope from peer `a`
//!   to a peer on another shard is sent by `a`'s one executor thread into
//!   one channel and moved from there into one inbox.
//! * **Deadlock freedom** — nothing waits for queue space anywhere: the
//!   ingress channels and inboxes are unbounded, so neither an executor nor
//!   the controller can block on a send.
//! * **Budget / freeze** — [`RunBudget`] is honored at the composite level
//!   (`max_events` over the shared event counter, `max_time` over
//!   cumulative wall time spent inside `run`, `max_wall` per phase).
//!   Exhaustion freezes every shard (one shared teardown flag); a frozen
//!   session fails fast on later runs and never claims convergence. A peer
//!   panic in any shard freezes all shards and re-panics from `run`.
//! * **Metrics** — each shard accounts its peers' traffic in a shard-level
//!   [`NetMetrics`] keyed by *global* peer ids; [`Runtime::metrics_snapshot`]
//!   folds the shards with [`NetMetrics::merge`], and
//!   [`ShardedRuntime::shard_metrics`] exposes the per-shard breakdown.
//!
//! The cross-shard seam is where a socket goes: see [`TransportKind::Tcp`]
//! and [`mod@crate::tcp`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use netrec_types::SimTime;
use parking_lot::Mutex;

use crate::async_rt::{AsyncConfig, Ingress, Shard};
use crate::coalesce::{frames, FrameBody};
use crate::des::{NetApi, PeerNode};
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::{MsgMeta, NetMetrics};
use crate::net::{PeerId, Port};
use crate::runtime::{RunBudget, RunOutcome, Runtime};
use crate::substrate_common::{Controller, Shared};
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
/// traffic always goes straight into the hosting executor's inboxes; only
/// the cross-shard seam is pluggable — it is exactly where
/// one-shard-per-box puts the network.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum TransportKind {
    /// In-process: the sending executor makes the destination shard's
    /// ingress send itself (the default, and the reference the TCP
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
    /// Tuning for each inner shard (timer dilation, coalescing, fault
    /// plan). The cross-shard transport follows the shard's `coalesce`
    /// flag, so one flag governs the whole composite.
    pub shard: AsyncConfig,
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

/// A cross-shard envelope queued for a TCP link: global destination plus
/// the coalesced messages of one producing quantum bound for it (FIFO order
/// preserved). One envelope = one in-flight count, one data frame, however
/// many logical messages it carries.
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

/// Shard-local wrapper keeping a peer's global identity: runs the inner
/// node against a *global-id* [`NetApi`], then routes its outputs — local
/// hand-offs and same-shard sends through the hosting shard, cross-shard
/// sends into the destination shard's ingress (or its TCP link) — and
/// re-arms its timers on the hosting shard's heap.
pub struct ShardPeer<M, N> {
    inner: N,
    /// Global peer id.
    me: PeerId,
    my_shard: u32,
    map: Arc<ShardMap>,
    /// The composite-wide bookkeeping block every shard shares: one
    /// in-flight counter covers same-shard and cross-shard traffic alike.
    global: Arc<Shared>,
    /// Every shard's ingress handle, indexed by shard.
    ingress: Arc<Vec<Ingress<M>>>,
    /// Shard-level traffic metrics keyed by global peer ids.
    metrics: Arc<Mutex<NetMetrics>>,
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
    /// channel mode — cross-shard envelopes then go straight to `ingress`.
    tcp_links: Option<LinkSenders<M>>,
}

impl<M: Send, N: PeerNode<M>> ShardPeer<M, N> {
    /// Route one cross-shard envelope, already registered in the global
    /// in-flight counter, from this executor thread — never blocking.
    /// Channel mode: one send into the destination shard's ingress. TCP
    /// mode: hand it to the destination link's supervisor — its ledger owns
    /// delivery from here, across however many connection deaths it takes.
    /// A closed queue means teardown: drop and retire.
    fn route_cross(&self, to: PeerId, body: FrameBody<M>) {
        let (shard, local) = self.map.locate(to);
        match &self.tcp_links {
            None => self.ingress[shard].deliver(local, body),
            Some(links) => {
                let link = links[shard].as_ref().expect("cross-shard link");
                if link.send(Envelope { to, msgs: body }).is_err() {
                    self.global.retire_one();
                }
            }
        }
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

/// A live sharded session over `N` peers behind one [`Runtime`]. Create
/// with [`ShardedRuntime::new`] and drive through the trait.
pub struct ShardedRuntime<M, N> {
    /// One executor per shard, hosting that shard's [`ShardPeer`]s.
    shards: Vec<Shard<M, ShardPeer<M, N>>>,
    map: Arc<ShardMap>,
    /// Every shard's ingress handle, indexed by shard (the adapters hold
    /// the same vector).
    ingress: Arc<Vec<Ingress<M>>>,
    /// The one controller, whose bookkeeping block every shard shares: a
    /// single in-flight counter (quiescence = one atomic load), a single
    /// event counter, one teardown flag, one panic slot.
    ctl: Controller,
    shard_metrics: Vec<Arc<Mutex<NetMetrics>>>,
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
        let ctl = Controller::new(cfg.shard.fault.map_or(0, |p| p.crash_at_event));
        // The ingress channels come first: every adapter (and TCP receive
        // handler) holds the sending halves, each executor its receiver.
        let (ingress, lanes): (Vec<_>, Vec<_>) =
            (0..shards_n).map(|_| Ingress::channel(&ctl.shared)).unzip();
        let ingress = Arc::new(ingress);
        let shard_metrics: Vec<Arc<Mutex<NetMetrics>>> = (0..shards_n)
            .map(|_| Arc::new(Mutex::new(NetMetrics::new(n as u32))))
            .collect();
        // TCP mode: bind listeners and spawn the supervised links now, so
        // the adapters below can hold their shard's sender row.
        let tcp = match &cfg.transport {
            TransportKind::Channel => None,
            TransportKind::Tcp(tcp_cfg) => Some(
                TcpTransport::new(
                    tcp_cfg,
                    cfg.shard.fault,
                    Arc::clone(&map),
                    &ingress,
                    Arc::clone(&ctl.shared),
                )
                .expect("bind loopback TCP shard transport"),
            ),
        };

        let mut buckets: Vec<Vec<ShardPeer<M, N>>> = (0..shards_n)
            .map(|s| Vec::with_capacity(sizes[s as usize] as usize))
            .collect();
        for (p, inner) in peers.into_iter().enumerate() {
            let s = map.shard_of[p] as usize;
            buckets[s].push(ShardPeer {
                inner,
                me: PeerId(p as u32),
                my_shard: s as u32,
                map: Arc::clone(&map),
                global: Arc::clone(&ctl.shared),
                ingress: Arc::clone(&ingress),
                metrics: Arc::clone(&shard_metrics[s]),
                coalesce: cfg.shard.coalesce,
                cross_buf: Vec::new(),
                same_shard_meta: Vec::new(),
                tcp_links: tcp.as_ref().map(|t| Arc::clone(&t.senders[s])),
            });
        }
        // Shard-hosted executors skip their own metrics recording: their
        // tables are keyed by shard-local ids and never snapshotted — the
        // adapters account traffic in global ids instead.
        let shards = buckets
            .into_iter()
            .zip(ingress.iter().cloned().zip(lanes))
            .map(|(nodes, lane)| Shard::spawn(nodes, &cfg.shard, &ctl, lane, false))
            .collect();
        ShardedRuntime {
            shards,
            map,
            ingress,
            ctl,
            shard_metrics,
            cfg,
            peers_total: n as u32,
            tcp,
        }
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

    /// Total produced-but-unprocessed events anywhere in the composite
    /// (messages, hand-offs, cross-shard envelopes, armed timers) — the one
    /// shared in-flight counter. Zero at every converged phase boundary.
    pub fn pending_events(&self) -> i64 {
        self.ctl.pending()
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
        // One shared teardown flag: every TCP thread observes it within
        // one read-timeout tick, and nothing below depends on the sockets,
        // so join the transport first.
        self.ctl.shared.shutting_down.store(true, Ordering::SeqCst);
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
        self.ctl.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let (shard, local) = self.map.locate(to);
        self.ingress[shard].deliver(local, FrameBody::One((port, msg, MsgMeta::default())));
    }

    fn run(&mut self, budget: RunBudget) -> RunOutcome {
        let outcome = self.ctl.drive(budget);
        if outcome.converged_at().is_none() {
            self.freeze_shards();
        }
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
        self.ctl.events()
    }

    fn frontier(&self) -> SimTime {
        self.ctl.now()
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
    use crate::substrate_common::fixtures::{ping_pong_pair, Burst, Counter};
    use netrec_types::Duration;
    use std::time::{Duration as WallDuration, Instant};

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

    /// 500 cross-shard singleton envelopes (coalescing off) from one
    /// quantum, all queued on the destination shard's ingress at once, and
    /// their echoes queued on the sender's: exact counts both ways. (The
    /// name is pinned by the test floor.)
    #[test]
    fn tiny_transport_capacity_still_completes() {
        let cfg = split_pair().with_coalescing(false);
        let mut rt = ShardedRuntime::new(Burst::pair(500, true), cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let got = rt.with_peer(PeerId(1), Burst::got);
        assert_eq!(got, (0..500).collect::<Vec<_>>(), "per-channel FIFO");
        assert_eq!(rt.events_processed(), 1 + 500 + 500, "spray, burst, echoes");
        assert_eq!(rt.metrics_snapshot().total_envelopes(), 1000);
        assert_eq!(rt.pending_events(), 0);
    }

    /// Per-channel FIFO and exactly-once under fan-in: on 3 shards with
    /// coalescing off, every peer streams numbered singleton envelopes to
    /// every other peer *while receiving* everyone else's streams. Each
    /// receiver checks every sender's sequence is gapless and in order;
    /// totals are exact. Over in-process ingress and over TCP.
    #[test]
    fn fan_in_streams_stay_fifo_and_exactly_once() {
        const PEERS: u32 = 6;
        const ROUNDS: u64 = 40;
        /// On the kick-off (port 0) and on every message from its left
        /// neighbour, sends the next number to every other peer — so
        /// sending interleaves with receiving for the whole run.
        struct Streamer {
            sent: u64,
            next_from: Vec<u64>,
        }
        impl Streamer {
            fn burst(&mut self, net: &mut NetApi<u64>) {
                if self.sent == ROUNDS {
                    return;
                }
                let me = net.me().0;
                for to in (0..PEERS).filter(|&to| to != me) {
                    // The sender rides in the port, the number in the body.
                    net.send(
                        PeerId(to),
                        Port(1 + me as u16),
                        self.sent,
                        MsgMeta::default(),
                    );
                }
                self.sent += 1;
            }
        }
        impl PeerNode<u64> for Streamer {
            fn on_message(&mut self, port: Port, seq: u64, net: &mut NetApi<u64>) {
                if port == Port(0) {
                    return self.burst(net);
                }
                let from = u32::from(port.0 - 1);
                let want = &mut self.next_from[from as usize];
                assert_eq!(seq, *want, "{from} -> {}: out of order", net.me().0);
                *want += 1;
                if (from + 1) % PEERS == net.me().0 {
                    self.burst(net);
                }
            }
        }
        for transport in [
            TransportKind::Channel,
            TransportKind::Tcp(TcpConfig::default()),
        ] {
            let cfg = ShardedConfig::with_shards(3)
                .with_coalescing(false)
                .with_transport(transport);
            let peers = (0..PEERS)
                .map(|_| Streamer {
                    sent: 0,
                    next_from: vec![0; PEERS as usize],
                })
                .collect();
            let mut rt = ShardedRuntime::new(peers, cfg);
            for p in 0..PEERS {
                rt.inject(PeerId(p), Port(0), 0);
            }
            assert!(matches!(
                rt.run(RunBudget::default()),
                RunOutcome::Converged { .. }
            ));
            rt.for_each_peer(|p, s| {
                assert_eq!(s.sent, ROUNDS, "peer {}", p.0);
                for (from, &got) in s.next_from.iter().enumerate() {
                    let want = if from as u32 == p.0 { 0 } else { ROUNDS };
                    assert_eq!(got, want, "{from} -> {}: lost or duplicated", p.0);
                }
            });
            let envelopes = u64::from(PEERS) * u64::from(PEERS - 1) * ROUNDS;
            assert_eq!(rt.metrics_snapshot().total_envelopes(), envelopes);
            assert_eq!(rt.events_processed(), u64::from(PEERS) + envelopes);
            assert_eq!(rt.pending_events(), 0);
            // Converged and idle: every executor is blocked in its one wait.
            let loops = rt.ctl.shared.loop_iterations.load(Ordering::SeqCst);
            std::thread::sleep(WallDuration::from_millis(30));
            assert_eq!(
                rt.ctl.shared.loop_iterations.load(Ordering::SeqCst),
                loops,
                "an idle executor woke"
            );
        }
    }

    /// A one-quantum cross-shard burst crosses the shard boundary as ONE
    /// envelope (one ingress send, one in-flight count), split back in
    /// FIFO order inside the destination shard — and the shard-level
    /// metrics (global peer ids) account it as one envelope over N logical
    /// messages, exactly like the standalone substrates.
    #[test]
    fn cross_shard_burst_coalesces_into_one_envelope() {
        let run = |cfg: ShardedConfig| {
            let mut rt = ShardedRuntime::new(Burst::pair(200, false), cfg);
            rt.inject(PeerId(0), Port(0), 0u64);
            assert!(matches!(
                rt.run(RunBudget::default()),
                RunOutcome::Converged { .. }
            ));
            (rt.metrics_snapshot(), rt.with_peer(PeerId(1), Burst::got))
        };
        let (on, got) = run(split_pair());
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
