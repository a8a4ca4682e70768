//! The async runtime: the workspace's one concurrent event loop — one
//! **cooperative task per peer** on a single executor thread, thousands of
//! peers per core. It runs standalone and as every shard of a
//! [`ShardedRuntime`](crate::sharded::ShardedRuntime) (N executor threads,
//! many tasks each).
//!
//! An [`AsyncRuntime`] is a long-lived session implementing
//! [`Runtime`]: one executor OS thread hosts every peer as a `!Send` future
//! on the offline `futures` shim's `LocalPool` (no tokio). Each peer task
//! pulls from a **bounded** async inbox, runs the same [`PeerNode`] callback
//! the DES drives, and routes its outputs under the in-flight-counter
//! discipline below. The controller injects inputs, runs phases to
//! quiescence, snapshots metrics and inspects peers between phases — the
//! same session shape as the DES.
//!
//! Design notes (DESIGN.md "Runtimes" has the full ledger):
//!
//! * **Termination detection** — one global in-flight counter covers every
//!   produced-but-unprocessed event: a message counts from send until its
//!   callback has run *and registered its own outputs*; an armed timer
//!   counts from arming until its firing's callback retires. Zero therefore
//!   certifies global quiescence *including timers* — the timer fence the
//!   DES gets for free from its event queue.
//! * **Backpressure without starvation** — inboxes are bounded; a task whose
//!   `try_send` hits a full inbox drains its *own* inbox into a local
//!   backlog and **yields**, so a cycle of peers blocked on each other
//!   always has someone freeing space. The yield puts the sender back on
//!   the ready queue behind the destination task — which is ready, because
//!   its inbox is non-empty — so the destination always gets scheduled, and
//!   the in-flight counter keeps every parked message accounted: a
//!   cooperative yield can never starve quiescence detection into a false
//!   zero.
//! * **Timers** — the timer service lives *in* the executor loop: one
//!   min-heap of armed timers (zero threads and zero tasks per timer),
//!   fired between task slices by re-injecting `Timer` messages, with
//!   full-inbox firings deferred per peer in FIFO order. Arming is a plain
//!   heap push — peer tasks share the executor thread, so no channel is
//!   needed.
//! * **Peer-panic propagation** — callbacks run under `catch_unwind` inside
//!   the task; the first panic is recorded, teardown begins, and the
//!   controller re-panics from [`Runtime::run`] instead of hanging on a
//!   quiescence signal that will never come. A backstop `catch_unwind`
//!   around the executor loop covers plumbing panics.
//! * **Budget / freeze** — the controller enforces [`RunBudget`]
//!   (`max_events` over the event counter, `max_time` over cumulative
//!   wall time spent inside `run`, `max_wall` per phase); exhaustion freezes
//!   the session (executor thread joined, armed timers retired), after
//!   which `run` fails fast and never claims convergence.
//!
//! Timing is wall-clock (timer delays dilated by
//! [`AsyncConfig::time_dilation`]), convergence "time" is elapsed
//! wall-clock microseconds, and link latency/bandwidth are not modelled.

use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use futures::channel::mpsc;
use futures::executor::LocalPool;
use netrec_types::SimTime;
use parking_lot::Mutex;

use crate::coalesce::{frames, FrameBody};
use crate::des::{NetApi, PeerNode};
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::{MsgMeta, NetMetrics};
use crate::net::{PeerId, Port};
use crate::runtime::{RunBudget, RunOutcome, Runtime};
use crate::substrate_common::Shared;

/// Tuning knobs for the async runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Per-peer inbox capacity in envelopes; a sender whose destination
    /// inbox is full drains its own inbox and yields until space frees.
    pub channel_capacity: usize,
    /// Wall-clock microseconds slept per simulated microsecond of timer
    /// delay. `1.0` maps simulated delays to real time; tests compress long
    /// TTLs with smaller factors.
    pub time_dilation: f64,
    /// Controller poll tick while waiting for quiescence (a safety net — the
    /// controller is also woken by an explicit signal).
    pub poll: WallDuration,
    /// Whether same-destination sends coalesce into one envelope per
    /// quantum (on by default; the differential toggle turns it off).
    pub coalesce: bool,
    /// Seeded transport fault schedule (`None` = clean delivery). Delays
    /// are simulated microseconds scaled by `time_dilation`; a faulted task
    /// *yields* until its dilated deadline rather than sleeping — every
    /// task shares the one executor thread — so other peers keep running
    /// through the stall. A seed gives a reproducible fault *distribution*
    /// here, not an exact schedule — see [`mod@crate::fault`].
    pub fault: Option<FaultPlan>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            channel_capacity: 256,
            time_dilation: 1.0,
            poll: WallDuration::from_millis(1),
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

enum AsyncMsg<M> {
    /// One physical envelope: the coalesced messages of one sender quantum
    /// for this peer, processed as one unit (singletons inline,
    /// allocation-free).
    Deliver(FrameBody<M>),
    Timer(u64),
}

/// Min-heap entry for the in-loop timer service (reversed ordering:
/// earliest first).
struct TimerEntry {
    at: Instant,
    seq: u64,
    peer: u32,
    id: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Format a panic payload for propagation to the controller thread.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map a simulated timer delay to a wall-clock sleep via the runtime's
/// dilation factor.
fn dilate(delay: netrec_types::Duration, factor: f64) -> WallDuration {
    WallDuration::from_secs_f64((delay.micros() as f64 * factor / 1_000_000.0).max(0.0))
}

/// Armed timers, owned by the executor thread and shared with the peer
/// tasks that arm them (same thread, so a plain `RefCell`).
struct TimerState {
    heap: BinaryHeap<TimerEntry>,
    seq: u64,
}

impl TimerState {
    fn arm(&mut self, peer: u32, id: u64, at: Instant) {
        self.seq += 1;
        self.heap.push(TimerEntry {
            at,
            seq: self.seq,
            peer,
            id,
        });
    }
}

/// Cooperative yield: pend once, re-waking immediately, so every other
/// ready task gets a slice before this one retries.
struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Everything one peer task owns.
struct TaskCtx<M, N> {
    me: PeerId,
    node: Arc<Mutex<N>>,
    rx: mpsc::Receiver<AsyncMsg<M>>,
    /// Shared, not cloned per task: at thousands of peers a per-task copy
    /// of the sender vector would cost O(peers²) startup work and memory.
    inboxes: Rc<Vec<mpsc::Sender<AsyncMsg<M>>>>,
    timers: Rc<RefCell<TimerState>>,
    /// One metrics table for the whole runtime: every task runs on the one
    /// executor thread, so the lock is never contended.
    metrics: Arc<Mutex<NetMetrics>>,
    shared: Arc<Shared>,
    ctl_tx: Sender<()>,
    epoch: Instant,
    time_dilation: f64,
    coalesce: bool,
    /// False for shard-hosted runtimes: their local-id metric table is
    /// never snapshotted (the `ShardPeer` adapters account in global ids).
    record_metrics: bool,
    /// Seeded fault schedule (inert plans filtered out at build time).
    fault: Option<FaultPlan>,
    /// This task's receive counter — the fault hash key (`me`, index).
    recv_seq: u64,
    /// Fault bookkeeping shared with the runtime handle.
    fault_stats: Arc<Mutex<FaultStats>>,
}

/// Backpressure-aware cooperative send: on a full inbox, drain our own
/// inbox into the backlog (so cycles of mutually-blocked peers always free
/// space) and retry on the next slice.
async fn send_coop<M: Send + 'static, N: PeerNode<M>>(
    ctx: &mut TaskCtx<M, N>,
    backlog: &mut VecDeque<AsyncMsg<M>>,
    to: PeerId,
    mut m: AsyncMsg<M>,
) {
    loop {
        match ctx.inboxes[to.0 as usize].try_send(m) {
            Ok(()) => return,
            Err(mpsc::TrySendError::Full(back)) => {
                if ctx.shared.shutting_down.load(Ordering::SeqCst) {
                    // Tearing down: the message will never be consumed.
                    ctx.shared.retire_one(&ctx.ctl_tx);
                    return;
                }
                m = back;
                while let Ok(incoming) = ctx.rx.try_recv() {
                    backlog.push_back(incoming);
                }
                yield_now().await;
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                // Receiver task gone (teardown): drop the message.
                ctx.shared.retire_one(&ctx.ctl_tx);
                return;
            }
        }
    }
}

/// Partition hook: a send crossing the seeded bidirectional cut while the
/// window is open is held *sender-side* until the partition heals —
/// cooperative yields, not sleeps, so every other task (and the timer heap)
/// keeps running through the hold. Per-channel FIFO is preserved (later
/// sends queue in program order behind the hold) and every hold's deadline
/// is the same fixed heal instant, so cross-cut cycles cannot deadlock. The
/// window is simulated microseconds since the session epoch, scaled by
/// `time_dilation` like every other delay on this substrate.
async fn partition_hold<M: Send + 'static, N: PeerNode<M>>(ctx: &TaskCtx<M, N>, to: PeerId) {
    let Some(plan) = &ctx.fault else { return };
    if !plan.partition_cuts(ctx.me, to) {
        return;
    }
    let open = ctx.epoch
        + dilate(
            netrec_types::Duration::from_micros(plan.partition_at_us),
            ctx.time_dilation,
        );
    let heal = ctx.epoch
        + dilate(
            netrec_types::Duration::from_micros(plan.partition_heal_us()),
            ctx.time_dilation,
        );
    let now = Instant::now();
    if now >= open && now < heal {
        ctx.fault_stats.lock().partition_deferrals += 1;
        while Instant::now() < heal {
            yield_now().await;
        }
    }
}

/// One peer's cooperative task: pull, run the callback under
/// `catch_unwind`, register outputs before retiring the processed event.
async fn peer_task<M: Send + 'static, N: PeerNode<M>>(mut ctx: TaskCtx<M, N>) {
    let mut backlog: VecDeque<AsyncMsg<M>> = VecDeque::new();
    loop {
        let msg = if let Some(m) = backlog.pop_front() {
            m
        } else {
            match ctx.rx.next().await {
                Some(m) => m,
                None => return, // runtime gone
            }
        };
        let (delivery, timer_id) = match msg {
            AsyncMsg::Deliver(msgs) => (Some(msgs), 0),
            AsyncMsg::Timer(id) => (None, id),
        };
        // Fault hook: perturb envelope deliveries (never timers) by holding
        // this envelope — and everything queued behind it, preserving
        // per-channel FIFO — until a dilated deadline. Cooperative yields,
        // not sleeps: the single executor thread must keep every other
        // peer's task (and the timer heap) running through the stall.
        if delivery.is_some() {
            if let Some(plan) = &ctx.fault {
                let k = ctx.recv_seq;
                ctx.recv_seq = k + 1;
                let d = plan.decide(ctx.me, k);
                if d.is_fault() {
                    ctx.fault_stats.lock().record(&d);
                    let deadline = Instant::now()
                        + dilate(
                            netrec_types::Duration::from_micros(d.extra_us),
                            ctx.time_dilation,
                        );
                    while Instant::now() < deadline {
                        yield_now().await;
                    }
                }
            }
        }
        // Logical event count: an envelope of N messages counts N.
        let logical = delivery.as_ref().map_or(1, FrameBody::len) as u64;
        let outputs = catch_unwind(AssertUnwindSafe(|| {
            let now = SimTime(ctx.epoch.elapsed().as_micros() as u64);
            let mut api = NetApi::fresh(now, ctx.me);
            let mut node = ctx.node.lock();
            match delivery {
                Some(msgs) => {
                    for (port, m, _) in msgs {
                        node.on_message(port, m, &mut api);
                    }
                }
                None => node.on_timer(timer_id, &mut api),
            }
            node.on_quantum_end(&mut api);
            drop(node);
            api.into_parts()
        }));
        match outputs {
            Err(payload) => {
                let msg = panic_message(payload);
                {
                    let mut first = ctx.shared.panicked.lock();
                    if first.is_none() {
                        *first = Some(format!("peer {} panicked: {msg}", ctx.me.0));
                    }
                }
                ctx.shared.shutting_down.store(true, Ordering::SeqCst);
                ctx.shared.retire_one(&ctx.ctl_tx);
                let _ = ctx.ctl_tx.send(());
                return;
            }
            Ok((out, timers)) => {
                ctx.shared.events.fetch_add(logical, Ordering::SeqCst);
                // Register every produced event *before* retiring this one,
                // so the in-flight counter can never transiently hit zero:
                // armed timers in bulk, each envelope right before its send
                // (this quantum's own count keeps the sum positive). An
                // envelope counts once however many messages it carries.
                ctx.shared
                    .in_flight
                    .fetch_add(timers.len() as i64, Ordering::SeqCst);
                for frame in frames(out, ctx.coalesce) {
                    ctx.shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    if ctx.record_metrics && frame.to != ctx.me {
                        frame.record_into(ctx.me, &mut ctx.metrics.lock());
                    }
                    let to = frame.to;
                    partition_hold(&ctx, to).await;
                    send_coop(
                        &mut ctx,
                        &mut backlog,
                        to,
                        AsyncMsg::Deliver(frame.into_body()),
                    )
                    .await;
                }
                if !timers.is_empty() {
                    let now = Instant::now();
                    let mut t = ctx.timers.borrow_mut();
                    for (delay, id) in timers {
                        t.arm(ctx.me.0, id, now + dilate(delay, ctx.time_dilation));
                    }
                }
                ctx.shared.retire_one(&ctx.ctl_tx);
                // Yield between events even when the inbox is non-empty:
                // `rx.next()` resolves immediately then, so without this a
                // peer with standing work would never return `Pending` — the
                // executor could neither interleave other tasks, fire due
                // timers, nor observe a freeze.
                yield_now().await;
            }
        }
    }
}

/// Fire every due timer (deferred firings first, per-peer FIFO), the
/// timer-service pattern inlined into the executor loop. `deferred` counts
/// firings parked across all of `pending`, so the common no-deferral case
/// skips the per-peer scan entirely (it would be O(peers) on every loop
/// iteration at the runtime's thousands-of-peers scale). Returns whether
/// anything was delivered.
fn fire_due<M: Send>(
    timers: &Rc<RefCell<TimerState>>,
    pending: &mut [VecDeque<u64>],
    deferred: &mut usize,
    inboxes: &[mpsc::Sender<AsyncMsg<M>>],
    shared: &Shared,
    ctl_tx: &Sender<()>,
) -> bool {
    let mut progressed = false;
    if *deferred > 0 {
        for (peer, q) in pending.iter_mut().enumerate() {
            while let Some(&id) = q.front() {
                match inboxes[peer].try_send(AsyncMsg::Timer(id)) {
                    Ok(()) => {
                        q.pop_front();
                        *deferred -= 1;
                        progressed = true;
                    }
                    Err(mpsc::TrySendError::Full(_)) => break,
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        q.pop_front();
                        *deferred -= 1;
                        shared.retire_one(ctl_tx);
                    }
                }
            }
        }
    }
    let mut t = timers.borrow_mut();
    let now = Instant::now();
    while t.heap.peek().is_some_and(|e| e.at <= now) {
        let e = t.heap.pop().expect("peeked");
        let q = &mut pending[e.peer as usize];
        if !q.is_empty() {
            q.push_back(e.id); // behind earlier deferred firings
            *deferred += 1;
            continue;
        }
        match inboxes[e.peer as usize].try_send(AsyncMsg::Timer(e.id)) {
            Ok(()) => progressed = true,
            Err(mpsc::TrySendError::Full(_)) => {
                q.push_back(e.id);
                *deferred += 1;
            }
            Err(mpsc::TrySendError::Disconnected(_)) => shared.retire_one(ctl_tx),
        }
    }
    progressed
}

/// One peer's share of the executor setup: node and inbox receiver.
type PeerSetup<M, N> = (Arc<Mutex<N>>, mpsc::Receiver<AsyncMsg<M>>);

struct ExecutorArgs<M, N> {
    peers: Vec<PeerSetup<M, N>>,
    inboxes: Vec<mpsc::Sender<AsyncMsg<M>>>,
    metrics: Arc<Mutex<NetMetrics>>,
    shared: Arc<Shared>,
    ctl_tx: Sender<()>,
    notify_tx: Sender<()>,
    notify_rx: Receiver<()>,
    epoch: Instant,
    cfg: AsyncConfig,
    record_metrics: bool,
    fault_stats: Arc<Mutex<FaultStats>>,
}

/// The executor thread: spawn one task per peer, then alternate bounded
/// task slices with timer firing until teardown.
fn executor_loop<M: Send + 'static, N: PeerNode<M> + Send + 'static>(args: ExecutorArgs<M, N>) {
    /// Ready tasks polled between flag/timer checks — keeps a saturating
    /// workload from wedging shutdown or starving due timers.
    const POLL_SLICE: usize = 256;
    /// Retry cadence for firings deferred on a full inbox.
    const PENDING_RETRY: WallDuration = WallDuration::from_micros(200);

    let ExecutorArgs {
        peers,
        inboxes,
        metrics,
        shared,
        ctl_tx,
        notify_tx,
        notify_rx,
        epoch,
        cfg,
        record_metrics,
        fault_stats,
    } = args;
    let fault = cfg.fault.filter(FaultPlan::is_active);
    let inboxes = Rc::new(inboxes);
    let mut pool = LocalPool::new();
    pool.set_notify(move || {
        let _ = notify_tx.send(());
    });
    let timers = Rc::new(RefCell::new(TimerState {
        heap: BinaryHeap::new(),
        seq: 0,
    }));
    let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); inboxes.len()];
    let mut deferred: usize = 0;
    let spawner = pool.spawner();
    for (i, (node, rx)) in peers.into_iter().enumerate() {
        spawner.spawn_local(peer_task(TaskCtx {
            me: PeerId(i as u32),
            node,
            rx,
            inboxes: Rc::clone(&inboxes),
            timers: Rc::clone(&timers),
            metrics: Arc::clone(&metrics),
            shared: Arc::clone(&shared),
            ctl_tx: ctl_tx.clone(),
            epoch,
            time_dilation: cfg.time_dilation,
            coalesce: cfg.coalesce,
            record_metrics,
            fault,
            recv_seq: 0,
            fault_stats: Arc::clone(&fault_stats),
        }));
    }
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // One bounded slice of ready tasks, then timers and flags — so a
        // saturating workload can neither starve due timers nor wedge
        // shutdown (every task yields between events, so slices terminate).
        let mut ran = 0;
        while ran < POLL_SLICE && pool.try_run_one() {
            ran += 1;
        }
        let fired = fire_due(
            &timers,
            &mut pending,
            &mut deferred,
            &inboxes,
            &shared,
            &ctl_tx,
        );
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        if ran > 0 || fired {
            continue;
        }
        // Idle: no ready task, no due timer. Drain stale wake signals, then
        // re-check readiness — a waker enqueues before it notifies, so a
        // drained signal's task is already visible to `has_ready` and a
        // wake after the check leaves a fresh signal for `recv_timeout`.
        while notify_rx.try_recv().is_ok() {}
        // Re-check the teardown flag *after* the drain: `freeze` stores the
        // flag before sending its notify, so if the drain just consumed a
        // shutdown notify, the flag is already visible here. Without this,
        // a freeze racing the drain loses its wakeup and the controller's
        // `join` stalls until the idle sleep (up to an hour) elapses.
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        if pool.has_ready() {
            continue;
        }
        let now = Instant::now();
        let next_due = timers
            .borrow()
            .heap
            .peek()
            .map(|e| e.at.saturating_duration_since(now));
        let has_pending = deferred > 0;
        let mut wait = next_due.unwrap_or(WallDuration::from_secs(3600));
        if has_pending {
            wait = wait.min(PENDING_RETRY);
        }
        let _ = notify_rx.recv_timeout(wait);
    }
    // Teardown fence: retire every armed-but-unfired timer and deferred
    // firing, so the in-flight counter stays consistent when a
    // budget-exceeded session is torn down mid-phase. Dropping the pool
    // drops the peer tasks and their inbox receivers — later sends observe
    // `Disconnected` and retire.
    for _ in timers.borrow_mut().heap.drain() {
        shared.retire_one(&ctl_tx);
    }
    for q in pending {
        for _ in q {
            shared.retire_one(&ctl_tx);
        }
    }
}

/// A live async session over `N` peers: one cooperative task per peer on a
/// single executor thread. Create with [`AsyncRuntime::new`] and drive
/// through the [`Runtime`] trait.
pub struct AsyncRuntime<M, N> {
    nodes: Vec<Arc<Mutex<N>>>,
    metrics: Arc<Mutex<NetMetrics>>,
    /// The inbox senders (plus the retire plumbing): the controller's own
    /// delivery handle, cloned out to other shards for the direct
    /// cross-shard path.
    injector: AsyncInjector<M>,
    notify_tx: Sender<()>,
    ctl_rx: Receiver<()>,
    shared: Arc<Shared>,
    executor: Option<JoinHandle<()>>,
    epoch: Instant,
    /// Wall-clock time spent inside `run` — the session's `max_time` clock
    /// (like the DES sim clock, it does not advance while the controller is
    /// idle between phases).
    active: WallDuration,
    /// Set when the plan's `crash_at_event` fired: the session is dead and
    /// every later `run` reports [`RunOutcome::Crashed`] — a crashed session
    /// must never claim convergence or plain budget exhaustion.
    crashed: bool,
    /// Fault bookkeeping folded across peer tasks (shared with them).
    fault_stats: Arc<Mutex<FaultStats>>,
    cfg: AsyncConfig,
}

/// A thread-safe handle for delivering envelopes straight into a runtime's
/// inboxes: used by the runtime's own controller, and cloned to *other*
/// shards' executor threads for the sharded runtime's direct cross-shard
/// path, which skips the controller relay whenever the destination inbox
/// has room.
pub(crate) struct AsyncInjector<M> {
    shared: Arc<Shared>,
    ctl_tx: Sender<()>,
    inboxes: Vec<mpsc::Sender<AsyncMsg<M>>>,
}

impl<M> Clone for AsyncInjector<M> {
    fn clone(&self) -> Self {
        AsyncInjector {
            shared: Arc::clone(&self.shared),
            ctl_tx: self.ctl_tx.clone(),
            inboxes: self.inboxes.clone(),
        }
    }
}

impl<M: Send> AsyncInjector<M> {
    /// Non-blocking envelope hand-off with **move semantics**: the envelope
    /// is already registered in the in-flight counter by its producer;
    /// `Err` hands it back on backpressure, a disconnected inbox drops it
    /// and retires its count.
    pub(crate) fn try_inject(&self, to: PeerId, msgs: FrameBody<M>) -> Result<(), FrameBody<M>> {
        match self.inboxes[to.0 as usize].try_send(AsyncMsg::Deliver(msgs)) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(AsyncMsg::Deliver(msgs))) => Err(msgs),
            Err(mpsc::TrySendError::Full(_)) => unreachable!("injector only sends Deliver"),
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.shared.retire_one(&self.ctl_tx);
                Ok(())
            }
        }
    }
}

impl<M: Send + 'static, N: PeerNode<M> + Send + 'static> AsyncRuntime<M, N> {
    /// Spawn the executor thread hosting one cooperative task per peer.
    pub fn new(peers: Vec<N>, cfg: AsyncConfig) -> AsyncRuntime<M, N> {
        AsyncRuntime::build(peers, cfg, Arc::new(Shared::new()), true)
    }

    /// Like [`AsyncRuntime::new`], but sharing an externally-owned
    /// [`Shared`] bookkeeping block. The sharded runtime passes **one**
    /// block to every shard, so a single in-flight counter covers the whole
    /// composite: register-before-retire on one atomic certifies global
    /// quiescence with a single load, no matter which shard registers an
    /// event produced in another (the direct cross-shard path). Shard-hosted
    /// runtimes skip task-side metrics recording: their tables are keyed by
    /// shard-local ids and never snapshotted — the `ShardPeer` adapters
    /// account traffic in global ids instead.
    pub(crate) fn new_with_shared(
        peers: Vec<N>,
        cfg: AsyncConfig,
        shared: Arc<Shared>,
    ) -> AsyncRuntime<M, N> {
        AsyncRuntime::build(peers, cfg, shared, false)
    }

    fn build(
        peers: Vec<N>,
        cfg: AsyncConfig,
        shared: Arc<Shared>,
        record_metrics: bool,
    ) -> AsyncRuntime<M, N> {
        let n = peers.len();
        let epoch = Instant::now();
        let (ctl_tx, ctl_rx) = unbounded::<()>();
        let (notify_tx, notify_rx) = unbounded::<()>();
        let mut inboxes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<AsyncMsg<M>>(cfg.channel_capacity.max(1));
            inboxes.push(tx);
            receivers.push(rx);
        }
        let nodes: Vec<Arc<Mutex<N>>> =
            peers.into_iter().map(|p| Arc::new(Mutex::new(p))).collect();
        let metrics = Arc::new(Mutex::new(NetMetrics::new(n as u32)));
        let fault_stats = Arc::new(Mutex::new(FaultStats::default()));
        let args = ExecutorArgs {
            peers: nodes.iter().map(Arc::clone).zip(receivers).collect(),
            inboxes: inboxes.clone(),
            metrics: Arc::clone(&metrics),
            shared: Arc::clone(&shared),
            ctl_tx: ctl_tx.clone(),
            notify_tx: notify_tx.clone(),
            notify_rx,
            epoch,
            cfg: cfg.clone(),
            record_metrics,
            fault_stats: Arc::clone(&fault_stats),
        };
        let backstop_shared = Arc::clone(&shared);
        let backstop_ctl = ctl_tx.clone();
        let executor = std::thread::Builder::new()
            .name("netrec-async-exec".to_string())
            .spawn(move || {
                // Peer panics are caught inside the tasks; this backstop
                // covers executor plumbing, so the controller never hangs on
                // a quiescence signal that cannot come.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(move || executor_loop(args))) {
                    let msg = panic_message(payload);
                    {
                        let mut first = backstop_shared.panicked.lock();
                        if first.is_none() {
                            *first = Some(format!("async executor panicked: {msg}"));
                        }
                    }
                    backstop_shared.shutting_down.store(true, Ordering::SeqCst);
                    let _ = backstop_ctl.send(());
                }
            })
            .expect("spawn async executor");
        AsyncRuntime {
            nodes,
            metrics,
            injector: AsyncInjector {
                shared: Arc::clone(&shared),
                ctl_tx,
                inboxes,
            },
            notify_tx,
            ctl_rx,
            shared,
            executor: Some(executor),
            epoch,
            active: WallDuration::ZERO,
            crashed: false,
            fault_stats,
            cfg,
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// The delivery handle into this runtime's inboxes (composite runtimes
    /// clone it for the direct cross-shard path).
    pub(crate) fn injector(&self) -> &AsyncInjector<M> {
        &self.injector
    }
}

impl<M, N> AsyncRuntime<M, N> {
    /// Faults applied so far across every peer task of this session.
    pub fn fault_stats(&self) -> FaultStats {
        *self.fault_stats.lock()
    }

    /// Produced-but-unretired events (messages, backlogs, armed timers).
    /// Zero means quiescent (fence assertions in tests).
    #[cfg(test)]
    pub(crate) fn pending_events(&self) -> i64 {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Stop the executor thread, freezing the session for inspection.
    /// Idempotent.
    pub(crate) fn freeze(&mut self) {
        if let Some(h) = self.executor.take() {
            self.shared.shutting_down.store(true, Ordering::SeqCst);
            let _ = self.notify_tx.send(());
            let _ = h.join();
        }
    }
}

impl<M, N> Drop for AsyncRuntime<M, N> {
    fn drop(&mut self) {
        self.freeze();
    }
}

impl<M: Send + 'static, N: PeerNode<M> + Send + 'static> Runtime<M, N> for AsyncRuntime<M, N> {
    fn name(&self) -> &'static str {
        "async"
    }

    fn inject(&mut self, to: PeerId, port: Port, msg: M) {
        // Register, then spin until the inbox accepts: the executor always
        // drains, so this terminates (and once it is gone — a frozen
        // session — the injector drops the envelope and retires it).
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut body = FrameBody::One((port, msg, MsgMeta::default()));
        while let Err(back) = self.injector.try_inject(to, body) {
            body = back;
            std::thread::sleep(WallDuration::from_micros(50));
        }
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
            // Counter before the panic flag: a panicking task records its
            // note before retiring its event, so zero-with-clean-flag really
            // is a clean convergence.
            let pending = self.shared.in_flight.load(Ordering::SeqCst);
            if let Some(msg) = self.shared.panicked.lock().clone() {
                self.shared.shutting_down.store(true, Ordering::SeqCst);
                self.active += start.elapsed();
                panic!("async runtime: {msg}");
            }
            // A frozen session (earlier budget exhaustion) fails fast and
            // never claims convergence: teardown retires armed timers, so a
            // zero counter can be the result of truncation.
            if self.executor.is_none() {
                break if self.crashed {
                    RunOutcome::Crashed { at: self.now() }
                } else {
                    RunOutcome::BudgetExceeded {
                        at: self.now(),
                        pending: pending.max(0) as usize,
                    }
                };
            }
            // Crash fault: tear the session down once the event counter
            // passes the dial. The counter races task progress, so a seed
            // gives a reproducible crash *distribution*, not an exact event
            // index — same contract as the timing faults.
            if let Some(plan) = self.cfg.fault.as_ref().filter(|p| p.crash_at_event > 0) {
                if self.shared.events.load(Ordering::SeqCst) >= plan.crash_at_event {
                    let at = self.now();
                    self.crashed = true;
                    self.freeze();
                    break RunOutcome::Crashed { at };
                }
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
                self.freeze();
                break RunOutcome::BudgetExceeded {
                    at,
                    pending: pending as usize,
                };
            }
            let _ = self.ctl_rx.recv_timeout(self.cfg.poll);
        };
        self.active += start.elapsed();
        outcome
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.metrics.lock().clone()
    }

    fn events_processed(&self) -> u64 {
        self.shared.events.load(Ordering::SeqCst)
    }

    fn frontier(&self) -> SimTime {
        self.now()
    }

    fn peer_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    fn with_peer<T>(&self, p: PeerId, f: impl FnOnce(&N) -> T) -> T {
        f(&self.nodes[p.0 as usize].lock())
    }

    fn for_each_peer(&self, mut f: impl FnMut(PeerId, &N)) {
        for (i, node) in self.nodes.iter().enumerate() {
            f(PeerId(i as u32), &node.lock());
        }
    }

    fn with_peer_mut<T>(&mut self, p: PeerId, f: impl FnOnce(&mut N) -> T) -> T {
        f(&mut self.nodes[p.0 as usize].lock())
    }

    fn for_each_peer_mut(&mut self, mut f: impl FnMut(PeerId, &mut N)) {
        for (i, node) in self.nodes.iter().enumerate() {
            f(PeerId(i as u32), &mut node.lock());
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

    #[test]
    fn async_config_defaults() {
        let cfg = AsyncConfig::default();
        assert_eq!(cfg.channel_capacity, 256);
        assert_eq!(cfg.time_dilation, 1.0);
        assert_eq!(cfg.poll, WallDuration::from_millis(1));
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
        assert_eq!(rt.pending_events(), 0);
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

    #[test]
    fn backpressure_fan_out_completes_on_tiny_channels() {
        /// Sprays one big burst at peer 1, which echoes every message back —
        /// exercises the drain-own-inbox-and-yield path in both directions.
        struct Spray;
        impl PeerNode<u64> for Spray {
            fn on_message(&mut self, _p: Port, m: u64, net: &mut NetApi<u64>) {
                if m == u64::MAX {
                    for i in 0..500 {
                        net.send(PeerId(1), Port(0), i, MsgMeta::default());
                    }
                }
            }
        }
        struct Echo(u64);
        impl PeerNode<u64> for Echo {
            fn on_message(&mut self, _p: Port, _m: u64, net: &mut NetApi<u64>) {
                self.0 += 1;
                net.send(PeerId(0), Port(1), 0, MsgMeta::default());
            }
        }
        enum Node {
            S(Spray),
            E(Echo),
        }
        impl PeerNode<u64> for Node {
            fn on_message(&mut self, p: Port, m: u64, net: &mut NetApi<u64>) {
                match self {
                    Node::S(s) => s.on_message(p, m, net),
                    Node::E(e) => e.on_message(p, m, net),
                }
            }
        }
        let cfg = AsyncConfig {
            channel_capacity: 4,
            ..AsyncConfig::default()
        };
        let mut rt = AsyncRuntime::new(vec![Node::S(Spray), Node::E(Echo(0))], cfg);
        rt.inject(PeerId(0), Port(0), u64::MAX);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let echoed = rt.with_peer(PeerId(1), |n| match n {
            Node::E(e) => e.0,
            _ => unreachable!(),
        });
        assert_eq!(echoed, 500);
    }

    /// The cooperative substrate ships a one-quantum burst as one envelope
    /// through the bounded async inbox, splitting it back in FIFO order.
    #[test]
    fn spray_coalesces_into_one_envelope() {
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
                        for i in 0..300 {
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
        let cfg = AsyncConfig {
            channel_capacity: 4,
            ..AsyncConfig::default()
        };
        assert!(cfg.coalesce, "coalescing defaults on");
        let mut rt = AsyncRuntime::new(vec![Node::S(Spray), Node::K(Sink(vec![]))], cfg);
        rt.inject(PeerId(0), Port(0), 0u64);
        assert!(matches!(
            rt.run(RunBudget::default()),
            RunOutcome::Converged { .. }
        ));
        let m = rt.metrics_snapshot();
        assert_eq!(m.total_msgs(), 300);
        assert_eq!(m.total_envelopes(), 1, "one inbox slot for the burst");
        assert_eq!(rt.events_processed(), 301, "logical events: inject + 300");
        let got = rt.with_peer(PeerId(1), |n| match n {
            Node::K(k) => k.0.clone(),
            _ => unreachable!(),
        });
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
        // The session is frozen at budget exhaustion: snapshots are stable.
        let e1 = rt.events_processed();
        std::thread::sleep(WallDuration::from_millis(20));
        assert_eq!(rt.events_processed(), e1, "executor stopped");
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
