//! The concurrent runtime: one composite [`Runtime`] over peer-partitioned
//! executors — many peers per shard, many shards per box.
//!
//! A [`ShardedRuntime`] partitions the global peer set across N shards via
//! a pluggable [`ShardAssignment`] (hash, contiguous blocks, or an explicit
//! map); each shard is one event loop ([`mod@crate::async_rt`]) — one
//! executor thread running the quanta of the peers it hosts to completion,
//! thousands of peers per shard. One shard is the "async" runtime
//! ([`RuntimeKind::asynchronous`](crate::runtime::RuntimeKind::asynchronous));
//! `shards == peers` with [`ShardAssignment::Contiguous`] is the
//! thread-per-peer regime. Every executor speaks *global* peer ids and
//! routes each frame itself, at one point: same-shard traffic goes straight
//! into its own inboxes, and a cross-shard **envelope** (coalesced per
//! quantum, see [`mod@crate::coalesce`]) is one send into the destination
//! shard's unbounded ingress channel — the same send the controller's
//! `inject` and the TCP receive handlers make. There is no adapter, no
//! relay and no controller hop.
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
//! * **Budget / freeze** — the controller enforces [`RunBudget`]
//!   (`max_events` over the shared event counter, `max_time` over
//!   cumulative wall time spent inside `run`, `max_wall` per phase).
//!   Exhaustion freezes every shard (one shared teardown flag; executor
//!   threads joined, armed timers retired); a frozen session fails fast on
//!   later runs and never claims convergence. A peer panic in any shard
//!   freezes all shards and re-panics from `run`.
//! * **Metrics** — each executor accounts what its peers send in its own
//!   [`NetMetrics`] keyed by *global* peer ids; [`Runtime::metrics_snapshot`]
//!   folds them with [`NetMetrics::merge`], and
//!   [`ShardedRuntime::shard_metrics`] exposes the per-shard breakdown.
//! * **Faults** — the hooks sit in the executor and key on global peer
//!   ids, so a [`FaultPlan`] picks the same peers and cuts the same links
//!   under every shard count and transport.
//!
//! The cross-shard seam is where a socket goes: see [`TransportKind::Tcp`]
//! and [`mod@crate::tcp`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use netrec_types::SimTime;
use parking_lot::Mutex;

use crate::async_rt::{Ingress, Route, Shard, ShardMap};
use crate::coalesce::FrameBody;
use crate::des::PeerNode;
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::{MsgMeta, NetMetrics};
use crate::net::{PeerId, Port};
use crate::runtime::{RunBudget, RunOutcome, Runtime};
use crate::substrate_common::Controller;
use crate::tcp::{TcpTransport, WireMsg};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process: the sending executor makes the destination shard's
    /// ingress send itself (the default, and the reference the TCP
    /// transport is pinned against).
    Channel,
    /// Loopback TCP: length-framed, CRC-checked sockets between shards,
    /// under per-link connection supervision (reconnect/backoff, heartbeat
    /// failure detection, ack-ledger retransmit) — see [`mod@crate::tcp`].
    Tcp,
}

/// The concurrent runtime's one config: the shard layout, the transport
/// between shards, and what every executor runs with.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedConfig {
    /// Number of shards (executor threads).
    pub shards: u32,
    /// Peer → shard placement.
    pub assignment: ShardAssignment,
    /// Physical cross-shard transport: in-process channels (default) or
    /// supervised loopback TCP.
    pub transport: TransportKind,
    /// Wall-clock microseconds slept per simulated microsecond of timer
    /// delay. `1.0` maps simulated delays to real time; tests compress long
    /// TTLs with smaller factors.
    pub time_dilation: f64,
    /// Whether same-destination sends coalesce into one envelope per
    /// quantum (on by default; the differential toggle turns it off).
    pub coalesce: bool,
    /// Seeded transport fault schedule (`None` = clean delivery). Delays
    /// are simulated microseconds scaled by `time_dilation`; a faulted peer
    /// is held on its executor's heap until its dilated deadline, so every
    /// other peer keeps running through the stall. A seed gives a
    /// reproducible fault *distribution* here, not an exact schedule — see
    /// [`mod@crate::fault`].
    pub fault: Option<FaultPlan>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 2,
            assignment: ShardAssignment::Hash,
            transport: TransportKind::Channel,
            time_dilation: 1.0,
            coalesce: true,
            fault: None,
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

    /// Enable or disable transport coalescing (builder style).
    pub fn with_coalescing(mut self, on: bool) -> ShardedConfig {
        self.coalesce = on;
        self
    }

    /// Install a seeded transport fault schedule (builder style). Every
    /// executor runs the plan at the same two hooks — a delivery is
    /// perturbed where it is received, a partitioned send is held where it
    /// is sent — and both key on *global* peer ids, so a plan picks the
    /// same peers and cuts the same links whatever the shard count or
    /// transport: a partition holds across shards and sockets exactly as it
    /// does within one executor. (Which envelope a receive index lands on
    /// still follows real scheduling — see [`mod@crate::fault`].)
    pub fn with_fault(mut self, plan: FaultPlan) -> ShardedConfig {
        self.fault = Some(plan);
        self
    }

    /// Route cross-shard envelopes over supervised loopback TCP (builder
    /// style).
    pub fn with_tcp(mut self) -> ShardedConfig {
        self.transport = TransportKind::Tcp;
        self
    }

    /// Short substrate label for reports and bench entries; one shard
    /// with nothing to cross is plain "async".
    pub fn label(&self) -> &'static str {
        match (self.transport, self.shards) {
            (TransportKind::Tcp, _) => "sharded-async-tcp",
            (TransportKind::Channel, 0 | 1) => "async",
            (TransportKind::Channel, _) => "sharded-async",
        }
    }
}

/// A live concurrent session over `N` peers behind one [`Runtime`]. Create
/// with [`ShardedRuntime::new`] and drive through the trait.
pub struct ShardedRuntime<M, N> {
    /// One executor per shard.
    shards: Vec<Shard<M>>,
    /// Every peer, indexed by global id; each is also held by the executor
    /// hosting it, which is the only thread to touch it during a phase.
    nodes: Vec<Arc<Mutex<N>>>,
    map: Arc<ShardMap>,
    /// The one controller, whose bookkeeping block every shard shares: a
    /// single in-flight counter (quiescence = one atomic load), a single
    /// event counter, one teardown flag, one panic slot.
    ctl: Controller,
    cfg: ShardedConfig,
    /// The supervised TCP transport in [`TransportKind::Tcp`] mode
    /// (`None` in channel mode); joined at teardown.
    tcp: Option<TcpTransport>,
}

impl<M: WireMsg + 'static, N: PeerNode<M> + Send + 'static> ShardedRuntime<M, N> {
    /// Partition `peers` (index = global `PeerId`) across
    /// `cfg.shards` shards and spawn them all. In
    /// [`TransportKind::Tcp`] mode this also binds one loopback listener
    /// per shard and spawns the per-link connection supervisors.
    pub fn new(peers: Vec<N>, cfg: ShardedConfig) -> ShardedRuntime<M, N> {
        let n = peers.len() as u32;
        let shards_n = cfg.shards.max(1);
        if let ShardAssignment::Explicit(map) = &cfg.assignment {
            assert_eq!(
                map.len(),
                peers.len(),
                "explicit shard map must cover every peer"
            );
        }
        let shard_of = (0..n)
            .map(|p| cfg.assignment.shard_of(PeerId(p), n, shards_n))
            .collect();
        let map = Arc::new(ShardMap::new(shard_of, shards_n));
        let ctl = Controller::new(cfg.fault.map_or(0, |p| p.crash_at_event));
        // The ingress channels come first: every other executor (or TCP
        // receive handler) holds the sending halves, each executor its
        // receiver.
        let lanes: Vec<_> = (0..shards_n)
            .map(|_| Ingress::channel(&ctl.shared))
            .collect();
        let ingress: Vec<Ingress<M>> = lanes.iter().map(|(tx, _)| tx.clone()).collect();
        // TCP mode: bind listeners and spawn the supervised links now, so
        // each executor's route table can hold its shard's link queues.
        let (tcp, mut links) = match cfg.transport {
            TransportKind::Channel => (None, None),
            TransportKind::Tcp => {
                let (tcp, links) = TcpTransport::new(
                    cfg.fault,
                    Arc::clone(&map),
                    &ingress,
                    Arc::clone(&ctl.shared),
                )
                .expect("bind loopback TCP shard transport");
                (Some(tcp), Some(links))
            }
        };

        let nodes: Vec<Arc<Mutex<N>>> =
            peers.into_iter().map(|p| Arc::new(Mutex::new(p))).collect();
        let mut hosted: Vec<Vec<(PeerId, Arc<Mutex<N>>)>> =
            (0..shards_n).map(|_| Vec::new()).collect();
        for (p, node) in (0..n).map(PeerId).zip(&nodes) {
            let shard = map.shard_of(p).expect("assigned above");
            hosted[shard as usize].push((p, Arc::clone(node)));
        }
        let shards = hosted
            .into_iter()
            .zip(lanes)
            .enumerate()
            .map(|(from, (peers, lane))| {
                let routes = (0..shards_n as usize)
                    .map(|to| match &mut links {
                        _ if to == from => Route::Local,
                        None => Route::Ingress(ingress[to].clone()),
                        Some(links) => Route::Tcp(links[from][to].take().expect("link queue")),
                    })
                    .collect();
                Shard::spawn(peers, &map, routes, lane, &cfg, &ctl)
            })
            .collect();
        ShardedRuntime {
            shards,
            nodes,
            map,
            ctl,
            cfg,
            tcp,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard hosting a global peer.
    pub fn shard_of_peer(&self, p: PeerId) -> u32 {
        self.map.shard_of(p).expect("peer id in range")
    }

    /// Per-shard traffic breakdown: what each shard's peers sent, each
    /// table keyed by global peer ids (folding them with
    /// [`NetMetrics::merge`] yields [`Runtime::metrics_snapshot`]).
    pub fn shard_metrics(&self) -> Vec<NetMetrics> {
        self.shards
            .iter()
            .map(|s| s.metrics.lock().clone())
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
        // one heartbeat interval, and nothing below depends on the sockets,
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
        let body = FrameBody::One((port, msg, MsgMeta::default()));
        self.shards[self.shard_of_peer(to) as usize]
            .ingress
            .deliver(to, body);
    }

    fn run(&mut self, budget: RunBudget) -> RunOutcome {
        let outcome = self.ctl.drive(budget);
        if outcome.converged_at().is_none() {
            self.freeze_shards();
        }
        outcome
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        let mut total = NetMetrics::new(self.peer_count());
        for shard in &self.shards {
            total.merge(&shard.metrics.lock());
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
        self.nodes.len() as u32
    }

    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&N) -> T) -> T {
        f(&self.nodes[p.0 as usize].lock())
    }

    fn for_each_peer(&self, mut f: impl FnMut(PeerId, &N)) {
        for (p, node) in (0..).map(PeerId).zip(&self.nodes) {
            f(p, &node.lock());
        }
    }

    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut N) -> T) -> T {
        f(&mut self.nodes[p.0 as usize].lock())
    }

    fn for_each_peer_mut(&mut self, mut f: impl FnMut(PeerId, &mut N)) {
        // Global-id order: drivers folding per-peer serving deltas see one
        // coherent global sequence regardless of shard layout.
        for (p, node) in (0..).map(PeerId).zip(&self.nodes) {
            f(p, &mut node.lock());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Every behaviour once: the shard-agnostic scenarios are `pub(crate)`
    //! functions of a [`ShardedConfig`], run here across a shard boundary
    //! and by `async_rt::tests` on one shard.

    use super::*;
    use crate::des::NetApi;
    use crate::substrate_common::fixtures::{ping_pong_pair, Burst, Counter};
    use crate::substrate_common::panic_message;
    use netrec_types::Duration;
    use std::time::{Duration as WallDuration, Instant};

    pub(crate) fn one_shard() -> ShardedConfig {
        ShardedConfig::with_shards(1)
    }

    fn split_pair() -> ShardedConfig {
        // Peer 0 on shard 0, peer 1 on shard 1: every forward crosses.
        ShardedConfig::with_shards(2).with_assignment(ShardAssignment::Explicit(vec![0, 1]))
    }

    fn split_pair_tcp() -> ShardedConfig {
        split_pair().with_tcp()
    }

    /// Two-peer layouts: everything on one executor, and split so that
    /// every forward crosses.
    pub(crate) fn layouts() -> [ShardedConfig; 2] {
        [one_shard(), split_pair()]
    }

    /// Bounces a message between peers 0 and 1 forever.
    struct Loop;
    impl PeerNode<u64> for Loop {
        fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
            let other = PeerId(1 - net.me().0);
            net.send(other, Port(0), m, MsgMeta::default());
        }
    }

    /// An idle session burns no wakeups: every executor is blocked in its
    /// one wait, so the loop counter stands still.
    fn assert_idle<M, N>(rt: &ShardedRuntime<M, N>, what: &str) {
        let loops = rt.ctl.shared.loop_iterations.load(Ordering::SeqCst);
        std::thread::sleep(WallDuration::from_millis(30));
        let after = rt.ctl.shared.loop_iterations.load(Ordering::SeqCst);
        assert_eq!(after, loops, "{what}");
    }

    pub(crate) fn ping_pong_exact(cfg: ShardedConfig) {
        let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
        rt.inject(PeerId(0), Port(0), 10u64);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        let m = rt.metrics_snapshot();
        assert_eq!(m.total_msgs(), 10);
        assert_eq!(m.total_bytes(), 100);
        assert_eq!(m.per_peer[0].msgs_sent, 5);
        assert_eq!(m.per_peer[1].msgs_sent, 5);
        assert_eq!(rt.events_processed(), 11);
        assert_eq!(rt.pending_events(), 0);
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 11);
    }

    #[test]
    fn cross_shard_ping_pong_terminates_with_exact_metrics() {
        ping_pong_exact(split_pair());
    }

    /// The timer fence: peer 0 pokes peer 1, which arms a timer; quiescence
    /// must wait for it, wherever peer 1 lives.
    pub(crate) fn timer_fence(cfg: ShardedConfig) {
        struct T {
            fired: bool,
        }
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                if m == 1 {
                    net.send(PeerId(1), Port(0), 2, MsgMeta::default());
                } else {
                    net.set_timer(Duration::from_millis(30), 9);
                }
            }
            fn on_timer(&mut self, id: u64, _net: &mut NetApi<u64>) {
                assert_eq!(id, 9);
                self.fired = true;
            }
        }
        let peers = vec![T { fired: false }, T { fired: false }];
        let mut rt = ShardedRuntime::new(peers, cfg);
        rt.inject(PeerId(0), Port(0), 1u64);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        assert!(rt.with_peer(PeerId(1), |t| t.fired));
        assert_eq!(rt.events_processed(), 3, "inject, poke, timer");
        assert_eq!(rt.pending_events(), 0);
    }

    #[test]
    fn timer_arms_across_shard_boundary_inside_the_phase() {
        timer_fence(split_pair());
    }

    pub(crate) fn multi_phase(cfg: ShardedConfig) {
        let shards = cfg.shards as usize;
        let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
        rt.inject(PeerId(0), Port(0), 4u64);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        assert_eq!(rt.metrics_snapshot().total_msgs(), 4);
        rt.inject(PeerId(1), Port(0), 3u64);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        assert_eq!(rt.metrics_snapshot().total_msgs(), 7, "cumulative");
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 5 + 4);
        let breakdown = rt.shard_metrics();
        assert_eq!(breakdown.len(), shards);
        let folded: u64 = breakdown.iter().map(|m| m.total_msgs()).sum();
        assert_eq!(folded, 7, "shard breakdown folds to the total");
    }

    #[test]
    fn multi_phase_state_and_metrics_accumulate() {
        multi_phase(split_pair());
    }

    pub(crate) fn budget_freeze(cfg: ShardedConfig) {
        let mut rt = ShardedRuntime::new(vec![Loop, Loop], cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        let out = rt.run(RunBudget {
            max_wall: WallDuration::from_millis(50),
            ..RunBudget::default()
        });
        assert!(matches!(out, RunOutcome::BudgetExceeded { pending, .. } if pending >= 1));
        // The session is frozen at budget exhaustion: snapshots are stable
        // and every executor's loop has stopped turning.
        let e1 = rt.events_processed();
        assert_idle(&rt, "a frozen executor kept turning");
        assert_eq!(rt.events_processed(), e1, "executors stopped");
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
    fn budget_exceeded_freezes_every_shard_and_fails_fast() {
        budget_freeze(split_pair());
    }

    pub(crate) fn peer_panic(cfg: ShardedConfig) {
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
            let mut rt = ShardedRuntime::new(vec![Bomb, Bomb], cfg);
            rt.inject(PeerId(0), Port(0), 13u64);
            rt.run(RunBudget::default())
        });
        let msg = panic_message(result.expect_err("controller must re-panic"));
        assert!(msg.contains("boom on 13"), "got: {msg}");
    }

    #[test]
    fn peer_panic_in_one_shard_propagates_from_the_composite() {
        peer_panic(split_pair());
    }

    /// 500 singleton envelopes (coalescing off) from one quantum, all
    /// queued on the destination at once, and their echoes queued on the
    /// sender: exact counts both ways. Returns the converged session.
    pub(crate) fn burst_500(cfg: ShardedConfig) -> ShardedRuntime<u64, Burst> {
        let mut rt = ShardedRuntime::new(Burst::pair(500, true), cfg.with_coalescing(false));
        rt.inject(PeerId(0), Port(0), 0u64);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        let got = rt.with_peer(PeerId(1), Burst::got);
        assert_eq!(got, (0..500).collect::<Vec<_>>(), "per-channel FIFO");
        assert_eq!(rt.events_processed(), 1 + 500 + 500, "spray, burst, echoes");
        assert_eq!(rt.metrics_snapshot().total_envelopes(), 1000);
        assert_eq!(rt.pending_events(), 0);
        rt
    }

    /// (The name is pinned by the test floor.)
    #[test]
    fn tiny_transport_capacity_still_completes() {
        burst_500(split_pair());
    }

    /// A burst queues its 500 envelopes on a TCP link faster than the
    /// supervisor turns, so writes carry many frames and the seeded kill
    /// and torn verdicts land inside them. Every seed keeps per-channel
    /// FIFO, exactly-once delivery and the clean run's metrics; the sweep
    /// as a whole reconnects and retransmits.
    #[test]
    fn batched_tcp_writes_survive_socket_faults() {
        let clean = burst_500(split_pair_tcp()).metrics_snapshot();
        let mut supervision = FaultStats::default();
        for seed in 0..8u64 {
            let cfg = split_pair_tcp().with_fault(FaultPlan::socket_faults(seed));
            let rt = burst_500(cfg);
            assert_eq!(rt.metrics_snapshot(), clean, "seed {seed} diverged");
            supervision.merge(&rt.fault_stats());
        }
        assert!(
            supervision.reconnects > 0 && supervision.retransmits > 0,
            "the faults never fired: {supervision:?}"
        );
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
        let channel = ShardedConfig::with_shards(3).with_coalescing(false);
        for cfg in [channel.clone(), channel.with_tcp()] {
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
            assert!(rt.run(RunBudget::default()).converged_at().is_some());
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
            assert_idle(&rt, "an idle executor woke");
        }
    }

    /// A one-quantum burst ships as ONE envelope (one inbox item or ingress
    /// send, one in-flight count), split back in FIFO order at the
    /// destination, and is accounted as one envelope over N logical
    /// messages; toggled off, every message pays its own envelope.
    pub(crate) fn burst_coalesces(cfg: ShardedConfig) {
        let run = |cfg: ShardedConfig| {
            let mut rt = ShardedRuntime::new(Burst::pair(200, false), cfg);
            rt.inject(PeerId(0), Port(0), 0u64);
            assert!(rt.run(RunBudget::default()).converged_at().is_some());
            assert_eq!(rt.events_processed(), 201, "logical events: inject + 200");
            (rt.metrics_snapshot(), rt.with_peer(PeerId(1), Burst::got))
        };
        assert!(cfg.coalesce, "coalescing defaults on");
        let (on, got) = run(cfg.clone());
        assert_eq!(on.total_msgs(), 200, "logical count is per message");
        assert_eq!(on.total_envelopes(), 1, "one transport envelope");
        assert!(on.total_envelope_bytes() > on.total_bytes(), "frame header");
        assert_eq!(got, (0..200).collect::<Vec<_>>(), "FIFO within the frame");
        let (off, got_off) = run(cfg.with_coalescing(false));
        assert_eq!(off.logical(), on.logical());
        assert_eq!(off.total_envelopes(), 200);
        assert_eq!(got_off, got);
    }

    #[test]
    fn cross_shard_burst_coalesces_into_one_envelope() {
        burst_coalesces(split_pair());
    }

    /// The partition hook sits at the one routing point, keyed on global
    /// ids: a cut between two peers holds whether the link between them is
    /// an inbox, an ingress channel or a socket — timing only, so the
    /// metrics equal the clean run's.
    #[test]
    fn partition_cuts_cross_shard_links() {
        let seed = (0..)
            .find(|&seed| {
                let plan = FaultPlan::partition(seed, 0, 50_000);
                plan.partition_side(PeerId(0)) != plan.partition_side(PeerId(1))
            })
            .expect("some seed separates two peers");
        let run = |cfg: ShardedConfig| {
            let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
            rt.inject(PeerId(0), Port(0), 10u64);
            assert!(rt.run(RunBudget::default()).converged_at().is_some());
            (rt.metrics_snapshot(), rt.fault_stats())
        };
        for cfg in [one_shard(), split_pair(), split_pair_tcp()] {
            assert_eq!((cfg.time_dilation, cfg.fault), (1.0, None), "defaults");
            let label = cfg.label();
            let (clean, _) = run(cfg.clone());
            let (cut, stats) = run(cfg.with_fault(FaultPlan::partition(seed, 0, 50_000)));
            assert_eq!(cut, clean, "{label}: a partition is timing-only");
            assert!(stats.partition_deferrals > 0, "{label}: {stats:?}");
        }
    }

    /// The TCP transport is byte-identical to the in-process channel at
    /// the metrics level: every frame is recorded by its sending executor
    /// *before* the physical transport, so swapping the socket in changes
    /// no number.
    #[test]
    fn tcp_transport_matches_channel_metrics_exactly() {
        let run = |cfg: ShardedConfig| {
            let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
            rt.inject(PeerId(0), Port(0), 10u64);
            assert!(rt.run(RunBudget::default()).converged_at().is_some());
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
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        let states = rt.tcp_link_states().expect("tcp mode");
        assert_eq!(states.len(), 4, "2x2 directed link matrix");
        // Both off-diagonal links carried traffic and are established.
        use crate::tcp::LinkState;
        assert_eq!(states[1], LinkState::Established);
        assert_eq!(states[2], LinkState::Established);
        let chan = ShardedRuntime::<u64, Counter>::new(ping_pong_pair(), split_pair());
        assert_eq!(Runtime::<u64, Counter>::name(&chan), "sharded-async");
        assert!(chan.tcp_link_states().is_none());
        let one = ShardedRuntime::<u64, Counter>::new(ping_pong_pair(), one_shard());
        assert_eq!(Runtime::<u64, Counter>::name(&one), "async");
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
            assert!(rt.run(RunBudget::default()).converged_at().is_some());
            rt.metrics_snapshot()
        };
        let mut supervision = FaultStats::default();
        for seed in 0..4u64 {
            let cfg = split_pair_tcp().with_fault(FaultPlan::socket_faults(seed));
            let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
            rt.inject(PeerId(0), Port(0), 60u64);
            assert!(
                rt.run(RunBudget::default()).converged_at().is_some(),
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
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        rt.for_each_peer_mut(|_, c| c.seen = 0);
        rt.with_peer_mut(PeerId(1), |c| c.seen = 100);
        assert_eq!(rt.pending_events(), 0, "restore must not register events");
        // The next phase starts from the restored state and still
        // detects quiescence exactly.
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        rt.inject(PeerId(1), Port(0), 3u64);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 100 + 4);
    }

    #[test]
    fn crash_fault_tears_down_and_later_runs_stay_crashed() {
        for cfg in layouts() {
            let cfg = cfg.with_fault(FaultPlan::crash_at(50));
            let mut rt = ShardedRuntime::new(vec![Loop, Loop], cfg);
            rt.inject(PeerId(0), Port(0), 0u64);
            let out = rt.run(RunBudget::default());
            assert!(out.crashed(), "got {out:?}");
            assert_eq!(out.converged_at(), None);
            // The session is frozen: snapshots are stable.
            let e1 = rt.events_processed();
            assert!(e1 >= 50);
            std::thread::sleep(WallDuration::from_millis(20));
            assert_eq!(rt.events_processed(), e1, "executors stopped");
            // A crashed session keeps reporting Crashed — never budget
            // exhaustion, never convergence.
            assert!(rt.run(RunBudget::default()).crashed());
        }
    }

    /// An idle session (converged, no timer armed) burns no wakeups until
    /// the next inject.
    pub(crate) fn idle_between_phases(cfg: ShardedConfig) {
        let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
        for _ in 0..2 {
            rt.inject(PeerId(0), Port(0), 10u64);
            assert!(rt.run(RunBudget::default()).converged_at().is_some());
            let events = rt.events_processed();
            assert_idle(&rt, "executor woke with nothing to do");
            assert_eq!(rt.events_processed(), events);
        }
    }

    #[test]
    fn empty_run_and_empty_shards_converge_immediately() {
        // 4 shards over 2 peers: two shards are empty.
        let cfg =
            ShardedConfig::with_shards(4).with_assignment(ShardAssignment::Explicit(vec![0, 3]));
        let mut rt = ShardedRuntime::new(ping_pong_pair(), cfg);
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        assert_eq!(rt.metrics_snapshot().total_msgs(), 0);
        assert_eq!(rt.shard_count(), 4);
        assert_eq!(rt.shard_of_peer(PeerId(1)), 3);
    }
}
