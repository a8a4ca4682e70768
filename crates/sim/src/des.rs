//! The deterministic discrete-event runner.
//!
//! Peers implement [`PeerNode`]; the simulator delivers messages and timer
//! expirations in global timestamp order, modelling:
//!
//! * **FIFO channels** — per ordered peer pair, deliveries never reorder
//!   (§3.1 assumes reliable in-order delivery); a channel also serialises its
//!   bandwidth, so a large message delays the ones queued behind it;
//! * **link latency/bandwidth** — from [`ClusterSpec`];
//! * **CPU occupancy** — each delivery keeps the receiving peer busy for a
//!   fixed-cost span (20 µs per delivery plus 5 µs per tuple), so message-heavy strategies (DRed)
//!   converge later even when bandwidth is plentiful;
//! * **quiescence detection** — the run converges when no events remain;
//!   convergence time is when the last event finished processing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use netrec_types::{Duration, FxHashMap, SimTime};

use crate::coalesce::{frames, Frame, FrameBody};
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::{MsgMeta, NetMetrics};
use crate::net::{cpu_cost, ClusterSpec, PeerId, Port};
use crate::runtime::{DesConfig, Runtime};

pub use crate::runtime::{RunBudget, RunOutcome};

/// Logic hosted on one peer.
pub trait PeerNode<M> {
    /// A message arrived on `port`.
    fn on_message(&mut self, port: Port, msg: M, net: &mut NetApi<M>);
    /// A timer set via [`NetApi::set_timer`] fired.
    fn on_timer(&mut self, id: u64, net: &mut NetApi<M>) {
        let _ = (id, net);
    }
}

/// The interface a peer uses to interact with the network during a callback.
/// Sends and timers are collected and scheduled when the callback returns.
pub struct NetApi<M> {
    now: SimTime,
    me: PeerId,
    out: Vec<(PeerId, Port, M, MsgMeta)>,
    timers: Vec<(Duration, u64)>,
}

impl<M> NetApi<M> {
    /// Current simulated time (the moment this callback's processing ends).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The peer this callback runs on.
    pub fn me(&self) -> PeerId {
        self.me
    }

    /// Ship a message. Self-sends are free local hand-offs between operators
    /// on the same peer; remote sends are charged to the metrics and delayed
    /// by the link model.
    pub fn send(&mut self, to: PeerId, port: Port, msg: M, meta: MsgMeta) {
        self.out.push((to, port, msg, meta));
    }

    /// Arm a one-shot timer that fires on this peer after `delay`.
    pub fn set_timer(&mut self, delay: Duration, id: u64) {
        self.timers.push((delay, id));
    }

    /// An empty callback context for peer `me` at time `now`. The runtimes
    /// build one per delivery quantum; a test can build one to drive a
    /// [`PeerNode`] by hand and read what it sent with
    /// [`NetApi::into_parts`].
    pub fn fresh(now: SimTime, me: PeerId) -> NetApi<M> {
        NetApi {
            now,
            me,
            out: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The sends and timers the callback collected, in call order.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<(PeerId, Port, M, MsgMeta)>, Vec<(Duration, u64)>) {
        (self.out, self.timers)
    }
}

enum EventKind<M> {
    /// One physical envelope: the coalesced messages of one sender quantum
    /// for this destination, delivered (and processed) as one unit.
    Deliver {
        msgs: FrameBody<M>,
    },
    Timer {
        id: u64,
    },
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    to: PeerId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulator: owns the peers, the event queue, the clock,
/// and the traffic metrics.
pub struct Simulator<M, N> {
    peers: Vec<N>,
    spec: ClusterSpec,
    queue: BinaryHeap<Event<M>>,
    seq: u64,
    /// FIFO/bandwidth serialisation point per directed channel.
    chan_clock: FxHashMap<(PeerId, PeerId), SimTime>,
    busy_until: Vec<SimTime>,
    metrics: NetMetrics,
    events_processed: u64,
    last_finish: SimTime,
    /// Whether same-destination sends coalesce into one envelope per
    /// quantum ([`DesConfig::coalesce`]).
    coalesce: bool,
    /// Seeded transport fault schedule (`None` = clean delivery; inert
    /// plans are dropped so the hot path stays fault-free). Because the DES
    /// is deterministic, a plan here is **exactly replayable**: the same
    /// seed perturbs the same envelopes every run.
    fault: Option<FaultPlan>,
    /// Per-peer count of routed remote envelopes — the receive index the
    /// fault schedule keys on. Only maintained when `fault` is set.
    recv_seq: Vec<u64>,
    /// Counters of faults actually injected.
    fault_stats: FaultStats,
    /// Set when the plan's `crash_at_event` fired: the session is dead and
    /// every later `run` reports [`RunOutcome::Crashed`] — a crashed
    /// simulator must never claim convergence, even with an empty queue.
    crashed: bool,
}

impl<M, N: PeerNode<M>> Simulator<M, N> {
    /// Build a simulator from peers (index = `PeerId`), a cluster model and
    /// its config. The CPU cost model (module docs) is fixed, not a setting.
    ///
    /// With coalescing off, on traffic-confluent workloads the logical
    /// metrics are byte-identical to coalescing on (pinned by the
    /// differential harness); on non-confluent workloads only the fixpoint
    /// is mode-independent — coalescing changes event interleaving, which
    /// can legitimately change batch composition and therefore logical
    /// counts (see `runtime_proptest_differential.rs`). The physical
    /// envelope structure and the modelled per-envelope costs always change.
    /// See [`mod@crate::fault`] for a fault plan's exact-replay contract.
    pub fn new(peers: Vec<N>, spec: ClusterSpec, cfg: DesConfig) -> Simulator<M, N> {
        assert_eq!(
            peers.len() as u32,
            spec.peers(),
            "peer count mismatch with cluster spec"
        );
        let n = peers.len();
        Simulator {
            peers,
            spec,
            queue: BinaryHeap::new(),
            seq: 0,
            chan_clock: FxHashMap::default(),
            busy_until: vec![SimTime::ZERO; n],
            metrics: NetMetrics::new(n as u32),
            events_processed: 0,
            last_finish: SimTime::ZERO,
            coalesce: cfg.coalesce,
            fault: cfg.fault.filter(FaultPlan::is_active),
            recv_seq: vec![0; n],
            fault_stats: FaultStats::default(),
            crashed: false,
        }
    }

    /// Counters of transport faults injected so far (all zero without an
    /// active [`FaultPlan`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Inject an external input (EDB stream element) at time `at`. Not
    /// counted as network traffic: it models data arriving at its ingress
    /// peer from the local sub-network.
    pub fn inject(&mut self, at: SimTime, to: PeerId, port: Port, msg: M) {
        let seq = self.next_seq();
        self.push(Event {
            at,
            seq,
            to,
            kind: EventKind::Deliver {
                msgs: FrameBody::One((port, msg, MsgMeta::default())),
            },
        });
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, ev: Event<M>) {
        self.queue.push(ev);
    }

    /// Run until quiescence, budget exhaustion, or a seeded crash.
    pub fn run(&mut self, budget: RunBudget) -> RunOutcome {
        if self.crashed {
            return RunOutcome::Crashed {
                at: self.last_finish,
            };
        }
        let wall_start = std::time::Instant::now();
        loop {
            // Exact, replayable crash point: the same seed dies after the
            // same logical-event prefix of the deterministic schedule, every
            // run. Everything still in flight is lost — that is the point
            // of a state-destroying fault. Tested before every pop *and*
            // once more after the queue drains (like the concurrent
            // substrates, which test the dial before claiming quiescence):
            // the counter is logical, so the final envelope can jump it
            // across a dial that no later pop would ever observe.
            if self.fault.as_ref().is_some_and(|plan| {
                plan.crash_at_event > 0 && self.events_processed >= plan.crash_at_event
            }) {
                self.crashed = true;
                self.queue.clear();
                return RunOutcome::Crashed {
                    at: self.last_finish,
                };
            }
            let Some(ev) = self.queue.pop() else { break };
            let wall_blown = wall_start.elapsed() > budget.max_wall;
            if self.events_processed >= budget.max_events || ev.at > budget.max_time || wall_blown {
                let at = self.last_finish.max(ev.at);
                let pending = self.queue.len() + 1;
                return RunOutcome::BudgetExceeded { at, pending };
            }
            // Budget and event counts are *logical*: a coalesced envelope
            // of N messages counts N, so `max_events` means the same thing
            // with coalescing on or off.
            self.events_processed += match &ev.kind {
                EventKind::Deliver { msgs } => msgs.len() as u64,
                EventKind::Timer { .. } => 1,
            };
            let peer = ev.to;
            let start = ev.at.max(self.busy_until[peer.0 as usize]);
            // CPU cost is *physical*: one per-message overhead per envelope
            // plus per-tuple work — the modelled form of the win the
            // concurrent substrates get from one channel send per envelope.
            let span = match &ev.kind {
                EventKind::Deliver { msgs } => {
                    cpu_cost(msgs.as_slice().iter().map(|(_, _, m)| m.tuples).sum())
                }
                EventKind::Timer { .. } => Duration::ZERO,
            };
            let finish = start + span;
            self.busy_until[peer.0 as usize] = finish;
            self.last_finish = self.last_finish.max(finish);
            let mut api = NetApi {
                now: finish,
                me: peer,
                out: Vec::new(),
                timers: Vec::new(),
            };
            // One quantum: every message of the envelope in FIFO order (or
            // the timer firing); the quantum's outputs coalesce together.
            let node = &mut self.peers[peer.0 as usize];
            match ev.kind {
                EventKind::Deliver { msgs } => {
                    for (port, msg, _) in msgs {
                        node.on_message(port, msg, &mut api);
                    }
                }
                EventKind::Timer { id } => {
                    node.on_timer(id, &mut api);
                }
            }
            let NetApi { out, timers, .. } = api;
            for frame in frames(out, self.coalesce) {
                self.route(finish, peer, frame);
            }
            for (delay, id) in timers {
                let at = finish + delay;
                let seq = self.next_seq();
                self.push(Event {
                    at,
                    seq,
                    to: peer,
                    kind: EventKind::Timer { id },
                });
            }
        }
        RunOutcome::Converged {
            at: self.last_finish,
        }
    }

    fn route(&mut self, now: SimTime, from: PeerId, frame: Frame<M>) {
        let to = frame.to;
        let at = if from == to {
            now // local operator hand-off
        } else {
            // Logical metrics per message, one envelope record per frame.
            let env = frame.record_into(from, &mut self.metrics);
            // FIFO + serialised bandwidth: the channel is busy until the
            // previous envelope finished arriving, and an envelope's
            // transfer time is its physical (framed) size.
            let ready = (*self.chan_clock.entry((from, to)).or_insert(SimTime::ZERO)).max(now);
            let span = self.spec.delay(from, to, env.bytes);
            let mut arrive = ready + span;
            let mut occupied = arrive;
            if let Some(plan) = &self.fault {
                let k = self.recv_seq[to.0 as usize];
                self.recv_seq[to.0 as usize] = k + 1;
                let d = plan.decide(to, k);
                if d.is_fault() {
                    self.fault_stats.record(&d);
                    // Late delivery (retransmit / jitter / stall) keeps the
                    // channel serialised behind it — a TCP-like
                    // head-of-line stall — so per-channel FIFO holds by
                    // construction even under faults.
                    arrive += Duration::from_micros(d.extra_us);
                    occupied = arrive;
                    if d.duplicated {
                        // The discarded wire copy still occupies the
                        // channel for one more transfer span.
                        occupied += span;
                    }
                }
                // Bidirectional partition: an envelope crossing the cut
                // while the window is open is *held* until the partition
                // heals (deferred, never lost). Deferral is monotone in the
                // send time, so per-channel FIFO is preserved; the channel
                // stays occupied behind the held envelope like any other
                // head-of-line stall.
                if plan.partition_cuts(from, to) && plan.partition_open_at(now.0) {
                    self.fault_stats.partition_deferrals += 1;
                    let heal = SimTime(plan.partition_heal_us());
                    if arrive < heal {
                        arrive = heal;
                    }
                    occupied = occupied.max(arrive);
                }
            }
            self.chan_clock.insert((from, to), occupied);
            arrive
        };
        let seq = self.next_seq();
        self.push(Event {
            at,
            seq,
            to,
            kind: EventKind::Deliver {
                msgs: frame.into_body(),
            },
        });
    }

    /// Traffic metrics accumulated so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Completion time of the last processed event.
    pub fn last_finish(&self) -> SimTime {
        self.last_finish
    }

    /// Immutable access to a peer's logic (post-run inspection).
    pub fn peer(&self, p: PeerId) -> &N {
        &self.peers[p.0 as usize]
    }

    /// Mutable access to a peer's logic.
    pub fn peer_mut(&mut self, p: PeerId) -> &mut N {
        &mut self.peers[p.0 as usize]
    }

    /// All peers.
    pub fn peers(&self) -> &[N] {
        &self.peers
    }

    /// Number of peers.
    pub fn peer_count(&self) -> u32 {
        self.peers.len() as u32
    }
}

impl<M, N: PeerNode<M>> Runtime<M, N> for Simulator<M, N> {
    fn name(&self) -> &'static str {
        "des"
    }

    /// Schedule the input just past the frontier, so injections between
    /// phases enter after everything already simulated.
    fn inject(&mut self, to: PeerId, port: Port, msg: M) {
        let at = self.last_finish + Duration::from_micros(1);
        Simulator::inject(self, at, to, port, msg);
    }

    fn run(&mut self, budget: RunBudget) -> RunOutcome {
        Simulator::run(self, budget)
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.metrics.clone()
    }

    fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn frontier(&self) -> SimTime {
        self.last_finish
    }

    fn peer_count(&self) -> u32 {
        self.peers.len() as u32
    }

    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&N) -> T) -> T {
        f(&self.peers[p.0 as usize])
    }

    fn for_each_peer(&self, mut f: impl FnMut(PeerId, &N)) {
        for (i, n) in self.peers.iter().enumerate() {
            f(PeerId(i as u32), n);
        }
    }

    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut N) -> T) -> T {
        f(&mut self.peers[p.0 as usize])
    }

    fn for_each_peer_mut(&mut self, mut f: impl FnMut(PeerId, &mut N)) {
        for (i, n) in self.peers.iter_mut().enumerate() {
            f(PeerId(i as u32), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::CPU_PER_MESSAGE;

    /// Relay test node: forwards each received integer to a destination peer
    /// until the hop count runs out.
    struct Relay {
        received: Vec<(Port, u64, SimTime)>,
        forward_to: Option<PeerId>,
    }

    impl PeerNode<u64> for Relay {
        fn on_message(&mut self, port: Port, msg: u64, net: &mut NetApi<u64>) {
            self.received.push((port, msg, net.now()));
            if msg > 0 {
                if let Some(to) = self.forward_to {
                    net.send(
                        to,
                        Port(0),
                        msg - 1,
                        MsgMeta {
                            bytes: 64,
                            prov_bytes: 8,
                            tuples: 1,
                        },
                    );
                }
            }
        }
        fn on_timer(&mut self, id: u64, net: &mut NetApi<u64>) {
            self.received.push((Port(999), id, net.now()));
        }
    }

    fn two_relays() -> Simulator<u64, Relay> {
        let peers = vec![
            Relay {
                received: vec![],
                forward_to: Some(PeerId(1)),
            },
            Relay {
                received: vec![],
                forward_to: Some(PeerId(0)),
            },
        ];
        Simulator::new(peers, ClusterSpec::single(2), DesConfig::default())
    }

    #[test]
    fn ping_pong_converges_and_counts() {
        let mut sim = two_relays();
        sim.inject(SimTime::ZERO, PeerId(0), Port(0), 5);
        let out = sim.run(RunBudget::default());
        let at = out.converged_at().expect("converged");
        assert!(at > SimTime::ZERO);
        // 5 forwards: 0→1 (msg 4), 1→0 (3), 0→1 (2), 1→0 (1), 0→1 (0).
        assert_eq!(sim.metrics().total_msgs(), 5);
        assert_eq!(sim.metrics().total_bytes(), 5 * 64);
        assert_eq!(sim.metrics().total_prov_bytes(), 5 * 8);
        assert_eq!(sim.peer(PeerId(1)).received.len(), 3);
        assert_eq!(sim.peer(PeerId(0)).received.len(), 3);
    }

    #[test]
    fn fifo_per_channel_despite_sizes() {
        // A huge message then a tiny one on the same channel must arrive in
        // order.
        struct Recorder(Vec<u64>);
        impl PeerNode<u64> for Recorder {
            fn on_message(&mut self, _p: Port, msg: u64, _net: &mut NetApi<u64>) {
                self.0.push(msg);
            }
        }
        struct Sender;
        impl PeerNode<u64> for Sender {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                net.send(
                    PeerId(1),
                    Port(0),
                    1,
                    MsgMeta {
                        bytes: 1_000_000,
                        ..Default::default()
                    },
                );
                net.send(
                    PeerId(1),
                    Port(0),
                    2,
                    MsgMeta {
                        bytes: 1,
                        ..Default::default()
                    },
                );
            }
        }
        enum Node {
            S(Sender),
            R(Recorder),
        }
        impl PeerNode<u64> for Node {
            fn on_message(&mut self, p: Port, m: u64, net: &mut NetApi<u64>) {
                match self {
                    Node::S(s) => s.on_message(p, m, net),
                    Node::R(r) => r.on_message(p, m, net),
                }
            }
        }
        let mut sim = Simulator::new(
            vec![Node::S(Sender), Node::R(Recorder(vec![]))],
            ClusterSpec::single(2),
            DesConfig::default(),
        );
        sim.inject(SimTime::ZERO, PeerId(0), Port(0), 0);
        sim.run(RunBudget::default());
        match sim.peer(PeerId(1)) {
            Node::R(r) => assert_eq!(r.0, vec![1, 2]),
            _ => unreachable!(),
        }
    }

    /// One callback spraying the same destination must produce one physical
    /// envelope carrying every logical message — and exactly one delivery
    /// event at the receiver — while the logical counters stay per-message.
    #[test]
    fn same_destination_sends_coalesce_into_one_envelope() {
        struct Sender;
        struct Sink(Vec<u64>);
        enum Node {
            S(Sender),
            R(Sink),
        }
        impl PeerNode<u64> for Node {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                match self {
                    Node::S(_) => {
                        for i in 0..5 {
                            net.send(
                                PeerId(1),
                                Port(i as u16),
                                i,
                                MsgMeta {
                                    bytes: 10,
                                    prov_bytes: 2,
                                    tuples: 1,
                                },
                            );
                        }
                        net.send(PeerId(2), Port(0), 99, MsgMeta::default());
                        let _ = m;
                    }
                    Node::R(r) => r.0.push(m),
                }
            }
        }
        let run = |coalesce: bool| {
            let mut sim = Simulator::new(
                vec![
                    Node::S(Sender),
                    Node::R(Sink(vec![])),
                    Node::R(Sink(vec![])),
                ],
                ClusterSpec::single(3),
                DesConfig {
                    coalesce,
                    fault: None,
                },
            );
            sim.inject(SimTime::ZERO, PeerId(0), Port(0), 0);
            assert!(sim.run(RunBudget::default()).converged_at().is_some());
            let m = sim.metrics().clone();
            let got = match sim.peer(PeerId(1)) {
                Node::R(r) => r.0.clone(),
                _ => unreachable!(),
            };
            (m, got, sim.events_processed())
        };
        let (on, got_on, events_on) = run(true);
        assert_eq!(on.total_msgs(), 6, "logical count is per message");
        assert_eq!(on.total_bytes(), 5 * 10, "logical bytes per message");
        assert_eq!(on.total_envelopes(), 2, "one envelope per destination");
        assert!(
            on.total_envelope_bytes() > on.total_bytes(),
            "multi-message frame pays a header"
        );
        assert_eq!(got_on, vec![0, 1, 2, 3, 4], "split back in FIFO order");
        // Injection + (sender quantum) 5 msgs in 1 envelope + 1 singleton:
        // logical events count messages, so 1 + 5 + 1.
        assert_eq!(events_on, 7);
        let (off, got_off, _) = run(false);
        assert_eq!(off.logical(), on.logical(), "coalescing-invariant");
        assert_eq!(off.total_envelopes(), 6, "off: one envelope per message");
        assert_eq!(
            off.total_envelope_bytes(),
            off.total_bytes(),
            "singleton frames are byte-identical to their messages"
        );
        assert_eq!(got_off, got_on);
    }

    #[test]
    fn timers_fire_in_order() {
        struct T(Vec<(u64, SimTime)>);
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                net.set_timer(Duration::from_millis(10), 1);
                net.set_timer(Duration::from_millis(5), 2);
            }
            fn on_timer(&mut self, id: u64, net: &mut NetApi<u64>) {
                self.0.push((id, net.now()));
            }
        }
        let mut sim = Simulator::new(
            vec![T(vec![])],
            ClusterSpec::single(1),
            DesConfig::default(),
        );
        sim.inject(SimTime::ZERO, PeerId(0), Port(0), 0);
        sim.run(RunBudget::default());
        let fired = &sim.peer(PeerId(0)).0;
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].0, 2, "5ms timer first");
        assert_eq!(fired[1].0, 1);
        assert!(fired[0].1 < fired[1].1);
    }

    #[test]
    fn budget_exceeded_reports_pending() {
        struct Loop;
        impl PeerNode<u64> for Loop {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                net.send(net.me(), Port(0), m + 1, MsgMeta::default());
            }
        }
        let mut sim = Simulator::new(vec![Loop], ClusterSpec::single(1), DesConfig::default());
        sim.inject(SimTime::ZERO, PeerId(0), Port(0), 0);
        let out = sim.run(RunBudget {
            max_events: 100,
            ..Default::default()
        });
        assert!(matches!(out, RunOutcome::BudgetExceeded { pending, .. } if pending >= 1));
        assert_eq!(sim.events_processed(), 100);
    }

    /// The event counter is logical, so a session whose final envelope
    /// carries two messages jumps from `total - 2` to `total` in one pop: a
    /// crash dial at `total - 1` is crossed with nothing left to pop, and
    /// must still fire before the run may claim convergence.
    #[test]
    fn crash_dial_inside_the_final_envelope_still_fires() {
        struct Burst;
        impl PeerNode<u64> for Burst {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                if net.me() == PeerId(0) {
                    net.send(PeerId(1), Port(0), m, MsgMeta::default());
                    net.send(PeerId(1), Port(0), m, MsgMeta::default());
                }
            }
        }
        let run = |crash_at: u64| {
            let mut sim = Simulator::new(
                vec![Burst, Burst],
                ClusterSpec::single(2),
                DesConfig {
                    fault: Some(FaultPlan::crash_at(crash_at)),
                    ..DesConfig::default()
                },
            );
            sim.inject(SimTime::ZERO, PeerId(0), Port(0), 0);
            let out = sim.run(RunBudget::default());
            (out, sim.run(RunBudget::default()), sim.events_processed())
        };
        // Injection + one two-message envelope: 3 logical events in all.
        let (clean, _, total) = run(u64::MAX);
        assert!(clean.converged_at().is_some());
        assert_eq!(total, 3);
        for dial in 1..=total {
            let (first, later, _) = run(dial);
            assert!(first.crashed(), "dial {dial} of {total}: got {first:?}");
            assert!(later.crashed(), "dial {dial}: a crashed session stays dead");
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = two_relays();
            sim.inject(SimTime::ZERO, PeerId(0), Port(0), 9);
            let out = sim.run(RunBudget::default());
            (out, sim.metrics().total_bytes(), sim.last_finish())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cpu_cost_serialises_a_peer() {
        // Two simultaneous deliveries to one peer: the second is processed
        // after the first's CPU span. An injection carries no tuples, so
        // each span is the per-message constant alone.
        struct T(Vec<SimTime>);
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                self.0.push(net.now());
            }
        }
        let mut sim = Simulator::new(
            vec![T(vec![])],
            ClusterSpec::single(1),
            DesConfig::default(),
        );
        sim.inject(SimTime::ZERO, PeerId(0), Port(0), 1);
        sim.inject(SimTime::ZERO, PeerId(0), Port(0), 2);
        sim.run(RunBudget::default());
        let times = &sim.peer(PeerId(0)).0;
        assert_eq!(times.len(), 2);
        assert_eq!(CPU_PER_MESSAGE, Duration::from_micros(20));
        assert_eq!(times[0], SimTime::ZERO + CPU_PER_MESSAGE);
        assert_eq!(times[1], times[0] + CPU_PER_MESSAGE);
    }
}
