//! The executor: the workspace's one concurrent event loop. Peers are
//! **state machines, not threads or async tasks**: one executor thread owns
//! the inboxes of the peers it hosts — a subset of the *global* peer set —
//! and runs one [`PeerNode`] callback quantum at a time to completion,
//! thousands of peers per core. A
//! [`ShardedRuntime`](crate::sharded::ShardedRuntime) is N of these (one
//! per shard; N = 1 is the "async" runtime) behind one controller.
//!
//! Everything here speaks global [`PeerId`]s — the [`NetApi`] a node sees,
//! the metrics, the fault hooks, every ingress message. Only the executor's
//! own tables (inboxes, ready queue, heap) are indexed by *slot*, the
//! peer's position on this shard, looked up through the `ShardMap`.
//!
//! The loop (DESIGN.md "Runtimes" has the full ledger):
//!
//! * **Inboxes and the ready queue** — the executor owns one `VecDeque`
//!   inbox per hosted peer and a FIFO ready queue holding each runnable
//!   peer at most once: a push into an idle peer's inbox enqueues it; a
//!   peer runs **one quantum** (one envelope or one timer firing), ships
//!   its outputs, and goes to the back of the queue if its inbox is
//!   non-empty. No peer can starve another, a saturated peer cannot wedge
//!   timers or teardown, and nothing on this thread ever waits for queue
//!   space.
//! * **One routing point** — `Executor::ship` is the only place a frame's
//!   route is chosen: after the one in-flight registration, the one metrics
//!   record and the one partition check, the frame goes into a local inbox,
//!   another shard's ingress channel, or that shard's TCP link, by the
//!   destination's entry in the route table.
//! * **Ingress** — one unbounded channel per shard is the only way
//!   anything crosses a thread: the controller's `inject`, another shard's
//!   executor, a TCP receive handler all make the same `Ingress::deliver`
//!   send. One producer thread → one queue → one inbox, so per-channel FIFO
//!   holds by construction. The executor's `recv_timeout(next due heap
//!   entry)` on it is its **only blocking wait**; an idle or frozen session
//!   burns no wakeups.
//! * **Termination detection** — one in-flight counter, shared by every
//!   executor of the session, covers every produced-but-unprocessed event:
//!   an envelope counts from send until its quantum has run *and registered
//!   its own outputs*; an armed timer counts from arming until its firing's
//!   quantum retires. Zero therefore certifies global quiescence *including
//!   timers* — the timer fence the DES gets for free from its event queue —
//!   and the last retirement wakes the controller.
//! * **Timers and fault holds** — one min-heap on the executor: armed
//!   timers (fired by pushing a timer item into the peer's inbox) and the
//!   release times of peers the fault hooks made *not runnable before `t`*
//!   (a perturbed delivery at the receiver, a partitioned send at the
//!   sender). A held peer keeps its inbox and its unsent outputs in order,
//!   so holds preserve per-channel FIFO; everyone else keeps running.
//! * **Peer-panic propagation** — callbacks run under `catch_unwind`; the
//!   first panic is recorded, teardown begins, and the controller re-panics
//!   from [`Runtime::run`](crate::runtime::Runtime::run) instead of hanging
//!   on a quiescence signal that will never come. A backstop `catch_unwind`
//!   around the executor loop covers plumbing panics.
//!
//! Timing is wall-clock (timer delays dilated by
//! [`ShardedConfig::time_dilation`]), convergence "time" is elapsed
//! wall-clock microseconds, and link latency/bandwidth are not modelled.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::iter::Peekable;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant};

use netrec_types::{Duration, SimTime};
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use crate::coalesce::{frames, FrameBody, FramesIter};
use crate::des::{NetApi, PeerNode};
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::NetMetrics;
use crate::net::PeerId;
use crate::sharded::ShardedConfig;
use crate::substrate_common::{panic_message, Controller, Shared};
use crate::tcp::Envelope;

/// Global peer → (shard, slot on that shard's executor) placement.
pub(crate) struct ShardMap {
    shard_of: Vec<u32>,
    slot_of: Vec<u32>,
}

impl ShardMap {
    /// Place peer `p` on shard `shard_of[p]`; slots number each shard's
    /// peers in global-id order.
    pub(crate) fn new(shard_of: Vec<u32>, shards: u32) -> ShardMap {
        let mut sizes = vec![0u32; shards as usize];
        let slot_of = shard_of
            .iter()
            .map(|&s| {
                sizes[s as usize] += 1;
                sizes[s as usize] - 1
            })
            .collect();
        ShardMap { shard_of, slot_of }
    }

    /// The shard hosting `p`; `None` for an id outside the peer set (what
    /// an id read off a socket is checked against).
    pub(crate) fn shard_of(&self, p: PeerId) -> Option<u32> {
        self.shard_of.get(p.0 as usize).copied()
    }

    fn locate(&self, p: PeerId) -> (usize, u32) {
        (
            self.shard_of[p.0 as usize] as usize,
            self.slot_of[p.0 as usize],
        )
    }
}

/// Where a frame bound for a peer on some shard physically goes — one
/// entry per destination shard in each executor's route table.
pub(crate) enum Route<M> {
    /// This executor's own inboxes.
    Local,
    /// Another shard's ingress channel: the one send, made by the sending
    /// executor itself.
    Ingress(Ingress<M>),
    /// The supervised TCP link to that shard: its ledger owns delivery from
    /// here, across however many connection deaths it takes.
    Tcp(Sender<Envelope<M>>),
}

/// What crosses a thread into a shard.
pub(crate) enum Inbound<M> {
    /// One envelope for a peer hosted on the shard, already registered in
    /// flight by its producer.
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
        let (tx, rx) = channel::<Inbound<M>>();
        let shared = Arc::clone(shared);
        (Ingress { tx, shared }, rx)
    }

    /// Hand one in-flight envelope to the shard, for the peer `to` it
    /// hosts. Never blocks. Once the executor is gone (a frozen session) the
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
    /// Partition hook: the next frame of `rest` crosses the open cut, so
    /// it and the rest of the interrupted quantum's outputs wait for the
    /// heal, in order.
    Sends {
        rest: Peekable<FramesIter<M>>,
        timers: Vec<(Duration, u64)>,
    },
}

struct Peer<M, N> {
    /// Global id: what the node, the metrics and the fault hooks see.
    id: PeerId,
    node: Arc<Mutex<N>>,
    inbox: VecDeque<Work<M>>,
    sched: Sched<M>,
    /// Envelopes received so far — the fault hash key (`id`, index).
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
    /// Slot of the peer.
    peer: u32,
    wakeup: Wakeup,
}

/// Everything the executor thread owns. `u32` peer arguments below are
/// slots into `peers`.
struct Executor<M, N> {
    /// The peers hosted here, by slot.
    peers: Vec<Peer<M, N>>,
    map: Arc<ShardMap>,
    /// Indexed by destination shard; this shard's own entry is
    /// [`Route::Local`].
    routes: Vec<Route<M>>,
    ready: VecDeque<u32>,
    heap: BinaryHeap<Reverse<Due>>,
    heap_seq: u64,
    ingress: Receiver<Inbound<M>>,
    shared: Arc<Shared>,
    /// What this executor's peers sent, keyed by global peer ids; read by
    /// the controller at phase boundaries.
    metrics: Arc<Mutex<NetMetrics>>,
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
            let (shard, slot) = self.map.locate(to);
            debug_assert!(
                matches!(self.routes[shard], Route::Local),
                "envelope for a peer hosted elsewhere"
            );
            self.push(slot, Work::Deliver(body));
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
            Held::Sends { rest, timers } => self.ship(p, rest, timers),
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
                let d = plan.decide(me.id, k);
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
        let me = self.peers[p as usize].id;
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
            drop(node);
            api.into_parts()
        }));
        match outputs {
            Err(payload) => {
                // Note before retirement: the controller reads the counter
                // first, so it can never see a clean zero after a panic.
                let note = format!("peer {} panicked: {}", me.0, panic_message(payload));
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
                let rest = frames(out, self.coalesce).into_iter().peekable();
                self.ship(p, rest, timers);
            }
        }
    }

    /// Deliver a quantum's frames in order, arm its timers, retire its
    /// event — unless the partition hook parks the peer part-way. The one
    /// place a frame's route is chosen.
    fn ship(&mut self, p: u32, mut rest: Peekable<FramesIter<M>>, timers: Vec<(Duration, u64)>) {
        let me = self.peers[p as usize].id;
        while let Some(to) = rest.peek().map(|frame| frame.to) {
            // Partition hook: a send crossing the seeded bidirectional cut
            // while the window is open is held *sender-side* until the
            // heal — whichever shard or socket lies beyond; later sends
            // queue behind it in program order, so per-channel FIFO is
            // preserved, and every hold ends at the same fixed heal
            // instant, so cross-cut cycles cannot deadlock. The window is
            // simulated microseconds since the session epoch, dilated like
            // every other delay here. The held frame is registered only
            // once released (this quantum's own count keeps the sum
            // positive meanwhile); by then the window has closed.
            if let Some(plan) = self.fault.filter(|pl| pl.partition_cuts(me, to)) {
                let open = self.epoch + self.dilate(plan.partition_at_us);
                let heal = self.epoch + self.dilate(plan.partition_heal_us());
                let now = Instant::now();
                if now >= open && now < heal {
                    self.fault_stats.lock().partition_deferrals += 1;
                    return self.hold(p, heal, Held::Sends { rest, timers });
                }
            }
            let frame = rest.next().expect("peeked");
            // An envelope counts once however many messages it carries.
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            if to != me {
                frame.record_into(me, &mut self.metrics.lock());
            }
            let body = frame.into_body();
            let (shard, slot) = self.map.locate(to);
            match &self.routes[shard] {
                Route::Local => self.push(slot, Work::Deliver(body)),
                Route::Ingress(ingress) => ingress.deliver(to, body),
                // A closed queue means teardown: drop and retire.
                Route::Tcp(link) => {
                    if link.send(Envelope { to, msgs: body }).is_err() {
                        self.shared.retire_one();
                    }
                }
            }
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

/// The controller's handle on one executor thread.
pub(crate) struct Shard<M> {
    /// The executor's metrics table (its peers' sends, global ids).
    pub(crate) metrics: Arc<Mutex<NetMetrics>>,
    pub(crate) ingress: Ingress<M>,
    executor: Option<JoinHandle<()>>,
    /// Fault bookkeeping, shared with the executor.
    fault_stats: Arc<Mutex<FaultStats>>,
}

impl<M: Send + 'static> Shard<M> {
    /// Spawn the executor thread hosting `peers` (slot order, each with its
    /// global id) behind the given ingress channel, on the controller's
    /// bookkeeping block and clock, with the session config's dilation,
    /// coalescing and fault plan. Every shard of a session gets the
    /// **same** controller, so a single in-flight counter covers the whole
    /// composite: register-before-retire on one atomic certifies global
    /// quiescence with a single load, no matter which shard retires an
    /// event produced in another.
    pub(crate) fn spawn<N: PeerNode<M> + Send + 'static>(
        peers: Vec<(PeerId, Arc<Mutex<N>>)>,
        map: &Arc<ShardMap>,
        routes: Vec<Route<M>>,
        (ingress, ingress_rx): (Ingress<M>, Receiver<Inbound<M>>),
        cfg: &ShardedConfig,
        ctl: &Controller,
    ) -> Shard<M> {
        debug_assert!(
            (0..)
                .zip(&peers)
                .all(|(slot, (id, _))| map.locate(*id).1 == slot),
            "peers must arrive in the map's slot order"
        );
        let metrics = Arc::new(Mutex::new(NetMetrics::new(map.shard_of.len() as u32)));
        let fault_stats = Arc::new(Mutex::new(FaultStats::default()));
        let executor = Executor {
            peers: peers
                .into_iter()
                .map(|(id, node)| Peer {
                    id,
                    node,
                    inbox: VecDeque::new(),
                    sched: Sched::Idle,
                    recv_seq: 0,
                })
                .collect(),
            map: Arc::clone(map),
            routes,
            ready: VecDeque::new(),
            heap: BinaryHeap::new(),
            heap_seq: 0,
            ingress: ingress_rx,
            shared: Arc::clone(&ctl.shared),
            metrics: Arc::clone(&metrics),
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
            metrics,
            ingress,
            executor: Some(executor),
            fault_stats,
        }
    }
}

impl<M> Shard<M> {
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
}

#[cfg(test)]
mod tests {
    //! The executor on its own — one shard, no boundary to cross. Scenarios
    //! that do not care where a peer lives are shared with
    //! `sharded::tests`, which runs them across a shard boundary.

    use super::*;
    use crate::des::NetApi;
    use crate::net::Port;
    use crate::runtime::{RunBudget, RunOutcome, Runtime};
    use crate::sharded::tests::{self as scenario, layouts, one_shard};
    use crate::sharded::ShardedRuntime;
    use crate::substrate_common::fixtures::Counter;

    #[test]
    fn async_ping_pong_terminates_with_exact_metrics() {
        scenario::ping_pong_exact(one_shard());
    }

    #[test]
    fn timer_fires_inside_the_phase() {
        scenario::timer_fence(one_shard());
    }

    #[test]
    fn multi_phase_state_and_metrics_accumulate() {
        scenario::multi_phase(one_shard());
    }

    /// (The name is pinned by the test floor.)
    #[test]
    fn backpressure_fan_out_completes_on_tiny_channels() {
        scenario::burst_500(one_shard());
    }

    #[test]
    fn spray_coalesces_into_one_envelope() {
        scenario::burst_coalesces(one_shard());
    }

    #[test]
    fn budget_exceeded_reports_pending_and_tears_down() {
        scenario::budget_freeze(one_shard());
    }

    #[test]
    fn peer_panic_propagates_to_the_controller() {
        scenario::peer_panic(one_shard());
    }

    #[test]
    fn idle_session_blocks_in_its_one_wait() {
        for cfg in layouts() {
            scenario::idle_between_phases(cfg);
        }
    }

    #[test]
    fn empty_run_returns_immediately() {
        let peers = vec![Counter {
            forward_to: None,
            seen: 0,
        }];
        let mut rt: ShardedRuntime<u64, Counter> = ShardedRuntime::new(peers, one_shard());
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        assert_eq!(rt.metrics_snapshot().total_msgs(), 0);
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
        for cfg in layouts() {
            let mut rt = ShardedRuntime::new(vec![T, T], cfg);
            rt.inject(PeerId(1), Port(0), 0u64);
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
        let mut rt = ShardedRuntime::new(peers, one_shard());
        for p in 0..4 {
            rt.inject(PeerId(p), Port(0), 0u64);
        }
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        let mut total = 0;
        rt.for_each_peer(|_, t| total += t.fired);
        assert_eq!(total, 64);
    }

    #[test]
    fn thousands_of_peers_on_one_core() {
        // The scale point a thread per peer cannot reach: 2000 peers as
        // state machines on a single executor thread, passing a token
        // down the whole chain.
        const N: u32 = 2000;
        let peers: Vec<Counter> = (0..N)
            .map(|i| Counter {
                forward_to: if i + 1 < N { Some(PeerId(i + 1)) } else { None },
                seen: 0,
            })
            .collect();
        let mut rt = ShardedRuntime::new(peers, one_shard());
        rt.inject(PeerId(0), Port(0), u64::from(N)); // hop budget > chain length
        assert!(rt.run(RunBudget::default()).converged_at().is_some());
        assert_eq!(rt.events_processed(), u64::from(N));
        assert_eq!(rt.metrics_snapshot().total_msgs(), u64::from(N) - 1);
        let mut seen = 0;
        rt.for_each_peer(|_, c| seen += c.seen);
        assert_eq!(seen, u64::from(N));
    }
}
