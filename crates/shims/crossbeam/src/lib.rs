//! Offline shim for `crossbeam`: the `channel` module mapped onto
//! `std::sync::mpsc` (unbounded MPSC is all the concurrent runtimes'
//! controller wake, shard ingress and TCP link queues need).

pub mod channel {
    //! MPSC channels with crossbeam's names, from `std::sync::mpsc`.

    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::unbounded;

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
    fn recv_timeout_times_out() {
        let (tx, rx) = unbounded::<u32>();
        let err = rx
            .recv_timeout(std::time::Duration::from_millis(1))
            .unwrap_err();
        assert_eq!(err, super::channel::RecvTimeoutError::Timeout);
        drop(tx);
    }
}
