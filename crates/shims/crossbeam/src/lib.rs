//! Offline shim for `crossbeam`: the `channel` module mapped onto
//! `std::sync::mpsc` (unbounded and bounded MPSC are all the concurrent
//! runtimes' controller signals, cross-shard relay and TCP link queues
//! need).

pub mod channel {
    //! MPSC channels with crossbeam's names.
    //!
    //! `Sender`/`Receiver` come from `std::sync::mpsc`; the bounded flavour
    //! maps to `std::sync::mpsc::sync_channel`, whose `SyncSender` offers the
    //! same `send`/`try_send` surface the runtime uses for backpressure.

    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, SyncSender, TryRecvError,
        TrySendError,
    };

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }

    /// A bounded channel with `cap` slots; `try_send` fails with
    /// [`TrySendError::Full`] once the buffer is full.
    pub fn bounded<T>(cap: usize) -> (SyncSender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, TrySendError};

    #[test]
    fn multi_producer_fan_in() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(1).unwrap())
            .join()
            .unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn bounded_backpressure() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = bounded::<u32>(1);
        let err = rx
            .recv_timeout(std::time::Duration::from_millis(1))
            .unwrap_err();
        assert!(matches!(
            err,
            super::channel::RecvTimeoutError::Timeout
                | super::channel::RecvTimeoutError::Disconnected
        ));
        drop(tx);
    }
}
