//! The async runtime: the workspace's one concurrent event loop. Peers are
//! **state machines, not threads or async tasks**: one executor thread owns
//! every peer's inbox and runs one [`PeerNode`] callback quantum at a time
//! to completion, thousands of peers per core. It runs standalone
//! ([`AsyncRuntime`]) and as every shard of a
//! [`ShardedRuntime`](crate::sharded::ShardedRuntime) (N executor threads,
//! many peers each).
//!
//! The loop (DESIGN.md "Runtimes" has the full ledger):
//!
//! * **Inboxes and the ready queue** — the executor owns one `VecDeque`
//!   inbox per peer and a FIFO ready queue holding each runnable peer at
//!   most once: a push into an idle peer's inbox enqueues it; a peer runs
//!   **one quantum** (one envelope or one timer firing), routes its outputs
//!   straight into the destination inboxes, and goes to the back of the
//!   queue if its inbox is non-empty. No peer can starve another, a
//!   saturated peer cannot wedge timers or teardown, and nothing on this
//!   thread ever waits for queue space.
//! * **Ingress** — one unbounded channel per shard is the only way
//!   anything crosses a thread: the controller's `inject`, another shard's
//!   executor, a TCP receive handler all make the same `Ingress::deliver`
//!   send. One producer thread → one queue → one inbox, so per-channel FIFO
//!   holds by construction. The executor's `recv_timeout(next due heap
//!   entry)` on it is its **only blocking wait**; an idle or frozen session
//!   burns no wakeups.
//! * **Termination detection** — one in-flight counter covers every
//!   produced-but-unprocessed event: an envelope counts from send until its
//!   quantum has run *and registered its own outputs*; an armed timer
//!   counts from arming until its firing's quantum retires. Zero therefore
//!   certifies global quiescence *including timers* — the timer fence the
//!   DES gets for free from its event queue — and the last retirement wakes
//!   the controller.
//! * **Timers and fault holds** — one min-heap on the executor: armed
//!   timers (fired by pushing a timer item into the peer's inbox) and the
//!   release times of peers the fault hooks made *not runnable before `t`*
//!   (a perturbed delivery at the receiver, a partitioned send at the
//!   sender). A held peer keeps its inbox and its unsent outputs in order,
//!   so holds preserve per-channel FIFO; everyone else keeps running.
//! * **Peer-panic propagation** — callbacks run under `catch_unwind`; the
//!   first panic is recorded, teardown begins, and the controller re-panics
//!   from [`Runtime::run`] instead of hanging on a quiescence signal that
//!   will never come. A backstop `catch_unwind` around the executor loop
//!   covers plumbing panics.
//! * **Budget / freeze** — the controller enforces [`RunBudget`]
//!   (`max_events` over the event counter, `max_time` over cumulative wall
//!   time spent inside `run`, `max_wall` per phase); exhaustion freezes the
//!   session (executor thread joined, armed timers retired), after which
//!   `run` fails fast and never claims convergence.
//!
//! Timing is wall-clock (timer delays dilated by
//! [`AsyncConfig::time_dilation`]), convergence "time" is elapsed
//! wall-clock microseconds, and link latency/bandwidth are not modelled.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use netrec_types::{Duration, SimTime};
use parking_lot::Mutex;

use crate::coalesce::{frames, Frame, FrameBody, FramesIter};
use crate::des::{NetApi, PeerNode};
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::{MsgMeta, NetMetrics};
use crate::net::{PeerId, Port};
use crate::runtime::{RunBudget, RunOutcome, Runtime};
use crate::substrate_common::{panic_message, Controller, Shared};

/// Tuning knobs for the async runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Wall-clock microseconds slept per simulated microsecond of timer
    /// delay. `1.0` maps simulated delays to real time; tests compress long
    /// TTLs with smaller factors.
    pub time_dilation: f64,
    /// Whether same-destination sends coalesce into one envelope per
    /// quantum (on by default; the differential toggle turns it off).
    pub coalesce: bool,
    /// Seeded transport fault schedule (`None` = clean delivery). Delays
    /// are simulated microseconds scaled by `time_dilation`; a faulted peer
    /// is held on the executor's heap until its dilated deadline, so
    /// every other peer keeps running through the stall. A seed gives a
    /// reproducible fault *distribution* here, not an exact schedule — see
    /// [`mod@crate::fault`].
    pub fault: Option<FaultPlan>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            time_dilation: 1.0,
            coalesce: true,
            fault: None,
        }
    }
}

impl AsyncConfig {
    /// Enable or disable transport coalescing (builder style).
    pub fn with_coalescing(mut self, on: bool) -> AsyncConfig {
        self.coalesce = on;
        self
    }

    /// Install a seeded transport fault schedule (builder style).
    pub fn with_fault(mut self, plan: FaultPlan) -> AsyncConfig {
        self.fault = Some(plan);
        self
    }
}

/// What crosses a thread into a shard.
pub(crate) enum Inbound<M> {
    /// One envelope for a shard-local peer, already registered in flight
    /// by its producer.
    Envelope(PeerId, FrameBody<M>),
    /// Nothing to deliver: re-check the teardown flag.
    Wake,
}

/// The sending half of a shard's ingress channel — the one delivery handle
/// the controller, other shards' executors and TCP receive handlers share.
pub(crate) struct Ingress<M> {
    tx: Sender<Inbound<M>>,
    shared: Arc<Shared>,
}

impl<M> Clone for Ingress<M> {
    fn clone(&self) -> Self {
        Ingress {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M> Ingress<M> {
    pub(crate) fn channel(shared: &Arc<Shared>) -> (Ingress<M>, Receiver<Inbound<M>>) {
        let (tx, rx) = unbounded::<Inbound<M>>();
        let shared = Arc::clone(shared);
        (Ingress { tx, shared }, rx)
    }

    /// Hand one in-flight envelope to the shard, for its local peer `to`.
    /// Never blocks. Once the executor is gone (a frozen session) the
    /// envelope is dropped and its count retired.
    pub(crate) fn deliver(&self, to: PeerId, body: FrameBody<M>) {
        if self.tx.send(Inbound::Envelope(to, body)).is_err() {
            self.shared.retire_one();
        }
    }
}

/// One item of a peer's inbox: one quantum of work.
enum Work<M> {
    /// One physical envelope: the coalesced messages of one sender quantum
    /// for this peer, processed as one unit.
    Deliver(FrameBody<M>),
    Timer(u64),
}

/// A peer's place in the schedule.
enum Sched<M> {
    /// Empty inbox.
    Idle,
    /// In the ready queue (exactly once) or running its quantum.
    Ready,
    /// Not runnable before a heap entry releases it — the one state both
    /// fault hooks park a peer in.
    Held(Held<M>),
}

/// What a held peer resumes with.
enum Held<M> {
    /// Receive hook: this envelope's delivery was perturbed; it — and
    /// everything queued behind it in the inbox — waits out the delay.
    Delivery(FrameBody<M>),
    /// Partition hook: `head` crosses the open cut, so it and the rest of
    /// the interrupted quantum's outputs wait for the heal, in order.
    Sends {
        head: Frame<M>,
        rest: FramesIter<M>,
        timers: Vec<(Duration, u64)>,
    },
}

struct Peer<M, N> {
    node: Arc<Mutex<N>>,
    inbox: VecDeque<Work<M>>,
    sched: Sched<M>,
    /// Envelopes received so far — the fault hash key (`me`, index).
    recv_seq: u64,
}

/// What a due heap entry does.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Wakeup {
    /// Fire timer `id` on the peer.
    Timer(u64),
    /// Release the held peer.
    Release,
}

/// Heap entry, ordered by due time, then FIFO (`seq` is unique, so the
/// remaining fields never decide).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    at: Instant,
    seq: u64,
    peer: u32,
    wakeup: Wakeup,
}

/// Everything the executor thread owns.
struct Executor<M, N> {
    peers: Vec<Peer<M, N>>,
    ready: VecDeque<u32>,
    heap: BinaryHeap<Reverse<Due>>,
    heap_seq: u64,
    ingress: Receiver<Inbound<M>>,
    shared: Arc<Shared>,
    /// One metrics table for the whole runtime, read by the controller at
    /// phase boundaries.
    metrics: Arc<Mutex<NetMetrics>>,
    /// False for shard-hosted runtimes: their local-id metric table is
    /// never snapshotted (the `ShardPeer` adapters account in global ids).
    record_metrics: bool,
    epoch: Instant,
    time_dilation: f64,
    coalesce: bool,
    /// Seeded fault schedule (inert plans filtered out at build time).
    fault: Option<FaultPlan>,
    fault_stats: Arc<Mutex<FaultStats>>,
}

impl<M: Send + 'static, N: PeerNode<M>> Executor<M, N> {
    /// Ready peers run between ingress/heap/flag checks — keeps a
    /// saturating workload from wedging teardown or starving due timers.
    const SLICE: usize = 256;

    /// The event loop: drain ingress, fire what is due, run a slice of
    /// ready peers; with nothing runnable, block on ingress until the next
    /// heap entry is due.
    fn run(mut self) {
        while !self.shared.shutting_down.load(Ordering::SeqCst) {
            #[cfg(test)]
            self.shared.loop_iterations.fetch_add(1, Ordering::Relaxed);
            while let Ok(inbound) = self.ingress.try_recv() {
                self.accept(inbound);
            }
            self.fire_due();
            for _ in 0..Self::SLICE {
                let Some(p) = self.ready.pop_front() else {
                    break;
                };
                self.turn(p);
            }
            if !self.ready.is_empty() {
                continue;
            }
            let inbound = match self.heap.peek() {
                Some(Reverse(due)) => self
                    .ingress
                    .recv_timeout(due.at.saturating_duration_since(Instant::now())),
                None => self
                    .ingress
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
            match inbound {
                Ok(inbound) => self.accept(inbound),
                Err(RecvTimeoutError::Timeout) => {}
                // Every sender gone: the runtime itself was dropped.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Teardown fence: retire every armed-but-unfired timer, so the
        // in-flight counter stays consistent when a budget-exceeded session
        // is torn down mid-phase. Dropping `self` drops the ingress
        // receiver — later deliveries fail and retire.
        for Reverse(due) in self.heap.drain() {
            if matches!(due.wakeup, Wakeup::Timer(_)) {
                self.shared.retire_one();
            }
        }
    }

    fn accept(&mut self, inbound: Inbound<M>) {
        if let Inbound::Envelope(to, body) = inbound {
            self.push(to.0, Work::Deliver(body));
        }
    }

    /// Append to a peer's inbox; an idle peer becomes ready.
    fn push(&mut self, p: u32, work: Work<M>) {
        let peer = &mut self.peers[p as usize];
        peer.inbox.push_back(work);
        if matches!(peer.sched, Sched::Idle) {
            peer.sched = Sched::Ready;
            self.ready.push_back(p);
        }
    }

    fn schedule(&mut self, at: Instant, peer: u32, wakeup: Wakeup) {
        self.heap_seq += 1;
        self.heap.push(Reverse(Due {
            at,
            seq: self.heap_seq,
            peer,
            wakeup,
        }));
    }

    /// Park `p` until `at`: not runnable, inbox and `held` kept in order.
    fn hold(&mut self, p: u32, at: Instant, held: Held<M>) {
        self.peers[p as usize].sched = Sched::Held(held);
        self.schedule(at, p, Wakeup::Release);
    }

    /// Map a simulated delay to a wall-clock one via the dilation factor.
    fn dilate(&self, micros: u64) -> WallDuration {
        WallDuration::from_secs_f64((micros as f64 * self.time_dilation / 1_000_000.0).max(0.0))
    }

    /// Fire every due heap entry: timers land in their peer's inbox, held
    /// peers resume where they stopped.
    fn fire_due(&mut self) {
        if self.heap.is_empty() {
            return;
        }
        let now = Instant::now();
        while self.heap.peek().is_some_and(|due| due.0.at <= now) {
            let Reverse(due) = self.heap.pop().expect("peeked");
            match due.wakeup {
                Wakeup::Timer(id) => self.push(due.peer, Work::Timer(id)),
                Wakeup::Release => self.release(due.peer),
            }
        }
    }

    fn release(&mut self, p: u32) {
        let sched = std::mem::replace(&mut self.peers[p as usize].sched, Sched::Ready);
        let Sched::Held(held) = sched else {
            unreachable!("release of a peer that is not held");
        };
        match held {
            Held::Delivery(body) => self.quantum(p, Work::Deliver(body)),
            Held::Sends { head, rest, timers } => {
                self.push(head.to.0, Work::Deliver(head.into_body()));
                self.ship(p, rest, timers);
            }
        }
        self.settle(p);
    }

    /// One turn of a ready peer: its next inbox item, through the receive
    /// fault hook, as one quantum.
    fn turn(&mut self, p: u32) {
        let me = &mut self.peers[p as usize];
        let work = me.inbox.pop_front().expect("ready peer has work");
        // Fault hook: perturb envelope deliveries (never timers).
        let work = match (work, &self.fault) {
            (Work::Deliver(body), Some(plan)) => {
                let k = me.recv_seq;
                me.recv_seq = k + 1;
                let d = plan.decide(PeerId(p), k);
                if d.is_fault() {
                    self.fault_stats.lock().record(&d);
                    let at = Instant::now() + self.dilate(d.extra_us);
                    return self.hold(p, at, Held::Delivery(body));
                }
                Work::Deliver(body)
            }
            (work, _) => work,
        };
        self.quantum(p, work);
        self.settle(p);
    }

    /// After a turn: back of the ready queue with work left, idle without
    /// (a held peer is the heap's).
    fn settle(&mut self, p: u32) {
        let me = &mut self.peers[p as usize];
        if matches!(me.sched, Sched::Ready) {
            if me.inbox.is_empty() {
                me.sched = Sched::Idle;
            } else {
                self.ready.push_back(p);
            }
        }
    }

    /// Run one quantum's callbacks under `catch_unwind`, then register and
    /// ship its outputs before retiring the processed event.
    fn quantum(&mut self, p: u32, work: Work<M>) {
        let me = PeerId(p);
        // Logical event count: an envelope of N messages counts N.
        let logical = match &work {
            Work::Deliver(body) => body.len() as u64,
            Work::Timer(_) => 1,
        };
        let node = &self.peers[p as usize].node;
        let now = SimTime(self.epoch.elapsed().as_micros() as u64);
        let outputs = catch_unwind(AssertUnwindSafe(|| {
            let mut api = NetApi::fresh(now, me);
            let mut node = node.lock();
            match work {
                Work::Deliver(body) => {
                    for (port, m, _) in body {
                        node.on_message(port, m, &mut api);
                    }
                }
                Work::Timer(id) => node.on_timer(id, &mut api),
            }
            node.on_quantum_end(&mut api);
            drop(node);
            api.into_parts()
        }));
        match outputs {
            Err(payload) => {
                // Note before retirement: the controller reads the counter
                // first, so it can never see a clean zero after a panic.
                let note = format!("peer {p} panicked: {}", panic_message(payload));
                self.shared.record_panic(note);
                self.shared.retire_one();
            }
            Ok((out, timers)) => {
                self.shared.events.fetch_add(logical, Ordering::SeqCst);
                // Register every produced event *before* retiring this one,
                // so the in-flight counter can never transiently hit zero:
                // armed timers in bulk, each envelope right before its send
                // (this quantum's own count keeps the sum positive).
                self.shared
                    .in_flight
                    .fetch_add(timers.len() as i64, Ordering::SeqCst);
                self.ship(p, frames(out, self.coalesce).into_iter(), timers);
            }
        }
    }

    /// Deliver a quantum's frames in order, arm its timers, retire its
    /// event — unless the partition hook parks the peer part-way.
    fn ship(&mut self, p: u32, mut rest: FramesIter<M>, timers: Vec<(Duration, u64)>) {
        let me = PeerId(p);
        while let Some(frame) = rest.next() {
            // An envelope counts once however many messages it carries.
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            if self.record_metrics && frame.to != me {
                frame.record_into(me, &mut self.metrics.lock());
            }
            // Partition hook: a send crossing the seeded bidirectional cut
            // while the window is open is held *sender-side* until the
            // heal; later sends queue behind it in program order, so
            // per-channel FIFO is preserved, and every hold ends at the
            // same fixed heal instant, so cross-cut cycles cannot
            // deadlock. The window is simulated microseconds since the
            // session epoch, dilated like every other delay here.
            if let Some(plan) = self.fault.filter(|pl| pl.partition_cuts(me, frame.to)) {
                let open = self.epoch + self.dilate(plan.partition_at_us);
                let heal = self.epoch + self.dilate(plan.partition_heal_us());
                let now = Instant::now();
                if now >= open && now < heal {
                    self.fault_stats.lock().partition_deferrals += 1;
                    let held = Held::Sends {
                        head: frame,
                        rest,
                        timers,
                    };
                    return self.hold(p, heal, held);
                }
            }
            self.push(frame.to.0, Work::Deliver(frame.into_body()));
        }
        if !timers.is_empty() {
            let now = Instant::now();
            for (delay, id) in timers {
                self.schedule(now + self.dilate(delay.micros()), p, Wakeup::Timer(id));
            }
        }
        self.shared.retire_one();
    }
}

/// One executor thread and the peers it hosts: the whole of a standalone
/// [`AsyncRuntime`] below its controller, and one shard of a
/// [`ShardedRuntime`](crate::sharded::ShardedRuntime).
pub(crate) struct Shard<M, N> {
    nodes: Vec<Arc<Mutex<N>>>,
    metrics: Arc<Mutex<NetMetrics>>,
    ingress: Ingress<M>,
    executor: Option<JoinHandle<()>>,
    /// Fault bookkeeping, shared with the executor.
    fault_stats: Arc<Mutex<FaultStats>>,
}

impl<M: Send + 'static, N: PeerNode<M> + Send + 'static> Shard<M, N> {
    /// Spawn the executor thread hosting `peers` behind the given ingress
    /// channel, on the controller's bookkeeping block and clock. The
    /// sharded runtime passes **one** controller to every shard, so a
    /// single in-flight counter covers the whole composite:
    /// register-before-retire on one atomic certifies global quiescence
    /// with a single load, no matter which shard retires an event produced
    /// in another.
    pub(crate) fn spawn(
        peers: Vec<N>,
        cfg: &AsyncConfig,
        ctl: &Controller,
        (ingress, ingress_rx): (Ingress<M>, Receiver<Inbound<M>>),
        record_metrics: bool,
    ) -> Shard<M, N> {
        let nodes: Vec<Arc<Mutex<N>>> =
            peers.into_iter().map(|p| Arc::new(Mutex::new(p))).collect();
        let metrics = Arc::new(Mutex::new(NetMetrics::new(nodes.len() as u32)));
        let fault_stats = Arc::new(Mutex::new(FaultStats::default()));
        let executor = Executor {
            peers: nodes
                .iter()
                .map(|node| Peer {
                    node: Arc::clone(node),
                    inbox: VecDeque::new(),
                    sched: Sched::Idle,
                    recv_seq: 0,
                })
                .collect(),
            ready: VecDeque::new(),
            heap: BinaryHeap::new(),
            heap_seq: 0,
            ingress: ingress_rx,
            shared: Arc::clone(&ctl.shared),
            metrics: Arc::clone(&metrics),
            record_metrics,
            epoch: ctl.epoch,
            time_dilation: cfg.time_dilation,
            coalesce: cfg.coalesce,
            fault: cfg.fault.filter(FaultPlan::is_active),
            fault_stats: Arc::clone(&fault_stats),
        };
        let shared = Arc::clone(&ctl.shared);
        let executor = std::thread::Builder::new()
            .name("netrec-async-exec".to_string())
            .spawn(move || {
                // Peer panics are caught per quantum; this backstop covers
                // executor plumbing, so the controller never hangs on a
                // quiescence signal that cannot come.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(move || executor.run())) {
                    shared.record_panic(format!(
                        "async executor panicked: {}",
                        panic_message(payload)
                    ));
                }
            })
            .expect("spawn async executor");
        Shard {
            nodes,
            metrics,
            ingress,
            executor: Some(executor),
            fault_stats,
        }
    }
}

impl<M, N> Shard<M, N> {
    /// Faults applied so far across every peer of this shard.
    pub(crate) fn fault_stats(&self) -> FaultStats {
        *self.fault_stats.lock()
    }

    /// Stop and join the executor thread, freezing the shard for
    /// inspection. Idempotent.
    pub(crate) fn freeze(&mut self) {
        if let Some(h) = self.executor.take() {
            let shared = &self.ingress.shared;
            shared.shutting_down.store(true, Ordering::SeqCst);
            let _ = self.ingress.tx.send(Inbound::Wake);
            let _ = h.join();
        }
    }

    pub(crate) fn with_peer<T>(&self, local: PeerId, f: impl FnOnce(&N) -> T) -> T {
        f(&self.nodes[local.0 as usize].lock())
    }

    pub(crate) fn with_peer_mut<T>(&mut self, local: PeerId, f: impl FnOnce(&mut N) -> T) -> T {
        f(&mut self.nodes[local.0 as usize].lock())
    }
}

/// A live async session over `N` peers: one executor thread running every
/// peer's quanta to completion. Create with [`AsyncRuntime::new`] and drive
/// through the [`Runtime`] trait.
pub struct AsyncRuntime<M, N> {
    shard: Shard<M, N>,
    ctl: Controller,
}

impl<M: Send + 'static, N: PeerNode<M> + Send + 'static> AsyncRuntime<M, N> {
    /// Spawn the executor thread hosting every peer.
    pub fn new(peers: Vec<N>, cfg: AsyncConfig) -> AsyncRuntime<M, N> {
        let ctl = Controller::new(cfg.fault.map_or(0, |p| p.crash_at_event));
        let shard = Shard::spawn(peers, &cfg, &ctl, Ingress::channel(&ctl.shared), true);
        AsyncRuntime { shard, ctl }
    }
}

impl<M, N> AsyncRuntime<M, N> {
    /// Faults applied so far across every peer of this session.
    pub fn fault_stats(&self) -> FaultStats {
        self.shard.fault_stats()
    }
}

impl<M, N> Drop for AsyncRuntime<M, N> {
    fn drop(&mut self) {
        self.shard.freeze();
    }
}

impl<M: Send + 'static, N: PeerNode<M> + Send + 'static> Runtime<M, N> for AsyncRuntime<M, N> {
    fn name(&self) -> &'static str {
        "async"
    }

    fn inject(&mut self, to: PeerId, port: Port, msg: M) {
        self.ctl.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let body = FrameBody::One((port, msg, MsgMeta::default()));
        self.shard.ingress.deliver(to, body);
    }

    fn run(&mut self, budget: RunBudget) -> RunOutcome {
        let outcome = self.ctl.drive(budget);
        if outcome.converged_at().is_none() {
            self.shard.freeze();
        }
        outcome
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.shard.metrics.lock().clone()
    }

    fn events_processed(&self) -> u64 {
        self.ctl.events()
    }

    fn frontier(&self) -> SimTime {
        self.ctl.now()
    }

    fn peer_count(&self) -> u32 {
        self.shard.nodes.len() as u32
    }

    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&N) -> T) -> T {
        self.shard.with_peer(p, f)
    }

    fn for_each_peer(&self, mut f: impl FnMut(PeerId, &N)) {
        for p in (0..self.peer_count()).map(PeerId) {
            self.shard.with_peer(p, |n| f(p, n));
        }
    }

    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut N) -> T) -> T {
        self.shard.with_peer_mut(p, f)
    }

    fn for_each_peer_mut(&mut self, mut f: impl FnMut(PeerId, &mut N)) {
        for p in (0..self.peer_count()).map(PeerId) {
            self.shard.with_peer_mut(p, |n| f(p, n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MsgMeta;
    use crate::substrate_common::fixtures::{ping_pong_pair, Burst, Counter};
    use netrec_types::Duration;

    #[test]
    fn async_config_defaults() {
        let cfg = AsyncConfig::default();
        assert_eq!(cfg.time_dilation, 1.0);
        assert!(cfg.coalesce, "coalescing defaults on");
        assert_eq!(cfg.fault, None);
    }

    #[test]
    fn async_ping_pong_terminates_with_exact_metrics() {
        let mut rt = AsyncRuntime::new(ping_pong_pair(), AsyncConfig::default());
        rt.inject(PeerId(0), Port(0), 10u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let m = rt.metrics_snapshot();
        assert_eq!(m.total_msgs(), 10);
        assert_eq!(m.total_bytes(), 100);
        assert_eq!(rt.events_processed(), 11);
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 11);
    }

    #[test]
    fn timer_fires_inside_the_phase() {
        struct T {
            fired: bool,
        }
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                net.set_timer(Duration::from_millis(30), 7);
            }
            fn on_timer(&mut self, id: u64, _net: &mut NetApi<u64>) {
                assert_eq!(id, 7);
                self.fired = true;
            }
        }
        let mut rt = AsyncRuntime::new(vec![T { fired: false }], AsyncConfig::default());
        rt.inject(PeerId(0), Port(0), 0u64);
        let out = rt.run(RunBudget::default());
        // The timer fence: quiescence must wait for the armed timer.
        assert!(matches!(out, RunOutcome::Converged { .. }));
        assert!(rt.with_peer(PeerId(0), |t| t.fired));
        assert_eq!(rt.events_processed(), 2);
        assert_eq!(rt.ctl.pending(), 0);
    }

    #[test]
    fn empty_run_returns_immediately() {
        let mut rt: AsyncRuntime<u64, Counter> = AsyncRuntime::new(
            vec![Counter {
                forward_to: None,
                seen: 0,
            }],
            AsyncConfig::default(),
        );
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        assert_eq!(rt.metrics_snapshot().total_msgs(), 0);
    }

    #[test]
    fn multi_phase_state_and_metrics_accumulate() {
        let mut rt = AsyncRuntime::new(ping_pong_pair(), AsyncConfig::default());
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
        assert_eq!(rt.metrics_snapshot().total_msgs(), 7, "cumulative");
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, 5 + 4);
    }

    /// Fan-out and echo with coalescing off: 500 singleton envelopes pile up
    /// in one inbox while the sprayer's fills with the echoes — the mutual
    /// cycle that bounded inboxes needed a spill path for. Exact counts
    /// both ways. (The name is pinned by the test floor.)
    #[test]
    fn backpressure_fan_out_completes_on_tiny_channels() {
        let cfg = AsyncConfig::default().with_coalescing(false);
        let mut rt = AsyncRuntime::new(Burst::pair(500, true), cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let got = rt.with_peer(PeerId(1), Burst::got);
        assert_eq!(got, (0..500).collect::<Vec<_>>(), "per-channel FIFO");
        assert_eq!(rt.events_processed(), 1 + 500 + 500, "spray, burst, echoes");
        assert_eq!(rt.metrics_snapshot().total_envelopes(), 1000);
        assert_eq!(rt.ctl.pending(), 0);
    }

    /// A one-quantum burst ships as one envelope — one inbox item — and is
    /// split back in FIFO order.
    #[test]
    fn spray_coalesces_into_one_envelope() {
        let cfg = AsyncConfig::default();
        assert!(cfg.coalesce, "coalescing defaults on");
        let mut rt = AsyncRuntime::new(Burst::pair(300, false), cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let m = rt.metrics_snapshot();
        assert_eq!(m.total_msgs(), 300);
        assert_eq!(m.total_envelopes(), 1, "one inbox item for the burst");
        assert_eq!(rt.events_processed(), 301, "logical events: inject + 300");
        let got = rt.with_peer(PeerId(1), Burst::got);
        assert_eq!(got, (0..300).collect::<Vec<_>>(), "FIFO within the frame");
    }

    #[test]
    fn budget_exceeded_reports_pending_and_tears_down() {
        struct Loop;
        impl PeerNode<u64> for Loop {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                net.send(net.me(), Port(0), m + 1, MsgMeta::default());
            }
        }
        let mut rt = AsyncRuntime::new(vec![Loop], AsyncConfig::default());
        rt.inject(PeerId(0), Port(0), 0u64);
        let out = rt.run(RunBudget {
            max_wall: WallDuration::from_millis(50),
            ..RunBudget::default()
        });
        assert!(matches!(out, RunOutcome::BudgetExceeded { pending, .. } if pending >= 1));
        // The session is frozen at budget exhaustion: snapshots are stable
        // and the executor's loop has stopped turning.
        let e1 = rt.events_processed();
        let loops = rt.ctl.shared.loop_iterations.load(Ordering::SeqCst);
        std::thread::sleep(WallDuration::from_millis(20));
        assert_eq!(rt.events_processed(), e1, "executor stopped");
        assert_eq!(rt.ctl.shared.loop_iterations.load(Ordering::SeqCst), loops);
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

    /// An idle session (converged, no timer armed) burns no wakeups: the
    /// executor is blocked in its one wait, so its loop counter stands still
    /// until the next inject.
    #[test]
    fn idle_session_blocks_in_its_one_wait() {
        let mut rt = AsyncRuntime::new(ping_pong_pair(), AsyncConfig::default());
        for _ in 0..2 {
            rt.inject(PeerId(0), Port(0), 10u64);
            assert!(matches!(
                rt.run(RunBudget::default()),
                RunOutcome::Converged { .. }
            ));
            let loops = rt.ctl.shared.loop_iterations.load(Ordering::SeqCst);
            let events = rt.events_processed();
            std::thread::sleep(WallDuration::from_millis(30));
            assert_eq!(
                rt.ctl.shared.loop_iterations.load(Ordering::SeqCst),
                loops,
                "executor woke with nothing to do"
            );
            assert_eq!(rt.events_processed(), events);
        }
    }

    #[test]
    fn dead_session_never_reports_converged() {
        // Teardown retires armed timers, so a frozen session's in-flight
        // counter can read zero — it must still not claim convergence.
        struct T;
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                net.set_timer(Duration::from_secs(30), 1);
            }
        }
        let mut rt = AsyncRuntime::new(vec![T], AsyncConfig::default());
        rt.inject(PeerId(0), Port(0), 0u64);
        let out = rt.run(RunBudget {
            max_wall: WallDuration::from_millis(50),
            ..RunBudget::default()
        });
        assert!(matches!(out, RunOutcome::BudgetExceeded { .. }));
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::BudgetExceeded { .. }
        ));
    }

    #[test]
    fn peer_panic_propagates_to_the_controller() {
        struct Bomb;
        impl PeerNode<u64> for Bomb {
            fn on_message(&mut self, _p: Port, m: u64, _net: &mut NetApi<u64>) {
                if m == 13 {
                    panic!("boom on 13");
                }
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut rt = AsyncRuntime::new(vec![Bomb], AsyncConfig::default());
            rt.inject(PeerId(0), Port(0), 13u64);
            rt.run(RunBudget::default())
        });
        let err = result.expect_err("controller must re-panic");
        let msg = panic_message(err);
        assert!(msg.contains("boom on 13"), "got: {msg}");
    }

    #[test]
    fn many_timers_one_executor_thread() {
        struct T {
            fired: u64,
        }
        impl PeerNode<u64> for T {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                for i in 0..16 {
                    net.set_timer(Duration::from_millis(1 + (i % 7)), i);
                }
            }
            fn on_timer(&mut self, _id: u64, _net: &mut NetApi<u64>) {
                self.fired += 1;
            }
        }
        let peers: Vec<T> = (0..4).map(|_| T { fired: 0 }).collect();
        let mut rt = AsyncRuntime::new(peers, AsyncConfig::default());
        for p in 0..4 {
            rt.inject(PeerId(p), Port(0), 0u64);
        }
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let mut total = 0;
        rt.for_each_peer(|_, t| total += t.fired);
        assert_eq!(total, 64);
    }

    #[test]
    fn thousands_of_peers_on_one_core() {
        // The scale point a thread per peer cannot reach: 2000 peers as
        // cooperative tasks on a single executor thread, passing a token
        // down the whole chain.
        const N: u32 = 2000;
        let peers: Vec<Counter> = (0..N)
            .map(|i| Counter {
                forward_to: if i + 1 < N { Some(PeerId(i + 1)) } else { None },
                seen: 0,
            })
            .collect();
        let mut rt = AsyncRuntime::new(peers, AsyncConfig::default());
        rt.inject(PeerId(0), Port(0), u64::from(N)); // hop budget > chain length
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        assert_eq!(rt.events_processed(), u64::from(N));
        assert_eq!(rt.metrics_snapshot().total_msgs(), u64::from(N) - 1);
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, u64::from(N));
    }
}
