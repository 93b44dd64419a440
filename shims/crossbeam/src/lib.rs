//! Offline drop-in subset of [crossbeam](https://docs.rs/crossbeam):
//! the unbounded MPSC channel surface used by the thread transport, backed
//! by `std::sync::mpsc`.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`]: the channel is merely
    /// empty, or every sender has hung up (matches crossbeam's shape —
    /// fault-tolerant callers need to tell the two apart).
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`]: nothing arrived within
    /// the timeout, or every sender has hung up.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Block for at most `timeout`. A message already queued is
        /// returned even when `timeout` is zero.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(5).unwrap();
            tx.clone().send(6).unwrap();
            assert_eq!(rx.recv(), Ok(5));
            assert_eq!(rx.recv(), Ok(6));
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn try_recv_distinguishes_empty_from_disconnected() {
            let (tx, rx) = unbounded();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(7).unwrap();
            assert_eq!(rx.try_recv(), Ok(7));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_timeout_delivers_times_out_and_sees_the_hangup() {
            let (tx, rx) = unbounded();
            tx.send(8).unwrap();
            // Queued before the call: delivered even on a zero budget.
            assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(8));
            let t0 = std::time::Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(20)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= Duration::from_millis(20));
            // Sent while the receiver is parked: wakes it.
            let late = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(9).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(9));
            late.join().unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_after_hangup_errors() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }
    }
}
