//! The one bookkeeping block the concurrent substrates share: the async
//! runtime's controller and executor, every shard of a sharded composite,
//! and the TCP transport's link threads all register and retire events on
//! the same [`Shared`] in-flight counter, which is what lets a single load
//! certify global quiescence.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crossbeam::channel::Sender;
use parking_lot::Mutex;

/// State shared between a concurrent runtime's controller and its executor
/// thread(s).
pub(crate) struct Shared {
    /// Produced-but-unretired events (envelopes in channels or backlogs,
    /// plus armed timers). Zero ⇒ global quiescence including timers. An
    /// envelope carrying N coalesced logical messages counts **once**: it is
    /// registered when its producing quantum registers its outputs and
    /// retired when the receiving quantum (all N callbacks) retires.
    pub(crate) in_flight: AtomicI64,
    /// Total events processed — **logical** message deliveries plus timer
    /// firings, so the count is coalescing-invariant.
    pub(crate) events: AtomicU64,
    /// Teardown flag: senders stop spinning and drop instead.
    pub(crate) shutting_down: AtomicBool,
    /// First peer panic observed, for propagation from `run`.
    pub(crate) panicked: Mutex<Option<String>>,
}

impl Shared {
    pub(crate) fn new() -> Shared {
        Shared {
            in_flight: AtomicI64::new(0),
            events: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            panicked: Mutex::new(None),
        }
    }

    /// Retire one in-flight event; wake the controller on the last one.
    pub(crate) fn retire_one(&self, ctl: &Sender<()>) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _ = ctl.send(());
        }
    }
}
