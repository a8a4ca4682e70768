//! What the concurrent substrates share: the [`Shared`] bookkeeping block
//! every executor, shard and TCP link thread registers and retires events
//! on — one in-flight counter, so a single load certifies global quiescence
//! — and the [`Controller`] whose [`Controller::drive`] is the
//! run-to-quiescence loop behind `ShardedRuntime::run`.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

use netrec_types::SimTime;
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::runtime::{RunBudget, RunOutcome};

/// State shared between a concurrent runtime's controller and its executor
/// thread(s).
pub(crate) struct Shared {
    /// Produced-but-unretired events (envelopes in queues or inboxes, plus
    /// armed timers). Zero ⇒ global quiescence including timers. An
    /// envelope carrying N coalesced logical messages counts **once**: it is
    /// registered when its producing quantum registers its outputs and
    /// retired when the receiving quantum (all N callbacks) retires.
    pub(crate) in_flight: AtomicI64,
    /// Total events processed — **logical** message deliveries plus timer
    /// firings, so the count is coalescing-invariant.
    pub(crate) events: AtomicU64,
    /// Teardown flag: every executor and transport thread exits on it.
    pub(crate) shutting_down: AtomicBool,
    /// First peer panic observed, for propagation from `run`.
    pub(crate) panicked: Mutex<Option<String>>,
    /// Wakes the controller blocked in [`Controller::drive`].
    wake: Sender<()>,
    /// Executor loop iterations, all shards: an idle or frozen session
    /// must not advance it.
    #[cfg(test)]
    pub(crate) loop_iterations: AtomicU64,
}

impl Shared {
    /// Retire one in-flight event; wake the controller on the last one.
    pub(crate) fn retire_one(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _ = self.wake.send(());
        }
    }

    /// Record the session's first panic, begin teardown and wake the
    /// controller, which re-panics from `run`.
    pub(crate) fn record_panic(&self, note: String) {
        self.panicked.lock().get_or_insert(note);
        self.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.wake.send(());
    }
}

/// Format a panic payload for propagation to the controller thread.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The controller half of a concurrent session: the session clock, the
/// budget accounting and the wait for the last retirement.
pub(crate) struct Controller {
    pub(crate) shared: Arc<Shared>,
    wake: Receiver<()>,
    pub(crate) epoch: Instant,
    /// Wall-clock time spent inside `run` — the session's `max_time` clock
    /// (like the DES sim clock, it does not advance while the controller is
    /// idle between phases).
    active: WallDuration,
    /// The fault plan's crash dial (`0` = off).
    crash_at: u64,
    /// The verdict that killed the session; every later `run` repeats it.
    frozen: Option<RunOutcome>,
}

impl Controller {
    /// How often a waiting controller re-reads the event counter (the
    /// `max_events` budget and the crash dial) and the clock; the last
    /// retirement and a peer panic wake it at once.
    const BUDGET_TICK: WallDuration = WallDuration::from_millis(1);

    pub(crate) fn new(crash_at: u64) -> Controller {
        let (tx, wake) = channel::<()>();
        Controller {
            shared: Arc::new(Shared {
                in_flight: AtomicI64::new(0),
                events: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
                panicked: Mutex::new(None),
                wake: tx,
                #[cfg(test)]
                loop_iterations: AtomicU64::new(0),
            }),
            wake,
            epoch: Instant::now(),
            active: WallDuration::ZERO,
            crash_at,
            frozen: None,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    pub(crate) fn events(&self) -> u64 {
        self.shared.events.load(Ordering::SeqCst)
    }

    /// Produced-but-unretired events; zero means quiescent.
    pub(crate) fn pending(&self) -> i64 {
        self.shared.in_flight.load(Ordering::SeqCst).max(0)
    }

    /// Block until global quiescence, budget exhaustion, the crash dial or
    /// a peer panic (re-raised here, on the controller thread). Any outcome
    /// but `Converged` kills the session: the caller must stop its
    /// executors, and every later call repeats the verdict — a truncated
    /// session never claims convergence, even though teardown can drain
    /// the counter to zero.
    pub(crate) fn drive(&mut self, budget: RunBudget) -> RunOutcome {
        let start = Instant::now();
        let mut deadline = start + budget.max_wall;
        if budget.max_time.0 != u64::MAX {
            let left = WallDuration::from_micros(budget.max_time.0).saturating_sub(self.active);
            deadline = deadline.min(start + left);
        }
        let outcome = loop {
            // Counter before the panic note: a panicking quantum records
            // its note before retiring its event, so zero with no note
            // really is a clean convergence. One counter covers every
            // shard, so there is no sweep order to defend either.
            let pending = self.pending();
            if let Some(note) = self.shared.panicked.lock().clone() {
                self.active += start.elapsed();
                panic!("concurrent runtime: {note}");
            }
            if let Some(verdict) = self.frozen {
                break verdict;
            }
            let (at, events) = (self.now(), self.events());
            // Crash fault: the counter races executor progress, so a seed
            // gives a reproducible crash *distribution*, not an exact event
            // index — same contract as the timing faults.
            if self.crash_at > 0 && events >= self.crash_at {
                break RunOutcome::Crashed { at };
            }
            if pending == 0 {
                break RunOutcome::Converged { at };
            }
            let now = Instant::now();
            if events >= budget.max_events || now >= deadline {
                break RunOutcome::BudgetExceeded {
                    at,
                    pending: pending as usize,
                };
            }
            let _ = self
                .wake
                .recv_timeout(Self::BUDGET_TICK.min(deadline - now));
        };
        if outcome.converged_at().is_none() {
            self.frozen = Some(outcome);
        }
        self.active += start.elapsed();
        outcome
    }
}

/// Peers the concurrent substrates' unit tests share.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::des::{NetApi, PeerNode};
    use crate::metrics::MsgMeta;
    use crate::net::{PeerId, Port};

    /// Counts deliveries and forwards a positive token, decremented.
    pub(crate) struct Counter {
        pub(crate) forward_to: Option<PeerId>,
        pub(crate) seen: u64,
    }

    impl PeerNode<u64> for Counter {
        fn on_message(&mut self, _port: Port, msg: u64, net: &mut NetApi<u64>) {
            self.seen += 1;
            if msg > 0 {
                if let Some(to) = self.forward_to {
                    let meta = MsgMeta {
                        bytes: 10,
                        prov_bytes: 2,
                        tuples: 1,
                    };
                    net.send(to, Port(0), msg - 1, meta);
                }
            }
        }
    }

    /// Peers 0 and 1 forwarding to each other.
    pub(crate) fn ping_pong_pair() -> Vec<Counter> {
        [1, 0]
            .map(|to| Counter {
                forward_to: Some(PeerId(to)),
                seen: 0,
            })
            .into()
    }

    /// One-quantum fan-out: peer 0 is the `Spray`, peer 1 the `Sink`.
    pub(crate) enum Burst {
        /// Answers a message on port 0 with this many numbered 8-byte
        /// sends to peer 1 (and ignores the echoes, on port 1).
        Spray(u64),
        /// Logs what arrives; with `echo`, answers each message to peer 0.
        Sink { got: Vec<u64>, echo: bool },
    }

    impl Burst {
        pub(crate) fn pair(n: u64, echo: bool) -> Vec<Burst> {
            vec![Burst::Spray(n), Burst::Sink { got: vec![], echo }]
        }

        /// What the sink logged.
        pub(crate) fn got(&self) -> Vec<u64> {
            match self {
                Burst::Sink { got, .. } => got.clone(),
                Burst::Spray(_) => unreachable!("the spray logs nothing"),
            }
        }
    }

    impl PeerNode<u64> for Burst {
        fn on_message(&mut self, port: Port, m: u64, net: &mut NetApi<u64>) {
            let meta = MsgMeta {
                bytes: 8,
                prov_bytes: 0,
                tuples: 1,
            };
            match self {
                Burst::Spray(n) if port == Port(0) => {
                    for i in 0..*n {
                        net.send(PeerId(1), Port(0), i, meta);
                    }
                }
                Burst::Spray(_) => {}
                Burst::Sink { got, echo } => {
                    got.push(m);
                    if *echo {
                        net.send(PeerId(0), Port(1), 0, meta);
                    }
                }
            }
        }
    }
}
