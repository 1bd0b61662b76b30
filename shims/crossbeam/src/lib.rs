//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the subset the workspace uses: MPMC `channel` (crossbeam's
//! `Receiver` is `Clone`, unlike `std::sync::mpsc`) and
//! `utils::CachePadded`. Built on a mutex-guarded `VecDeque` plus two
//! condition variables; correctness over raw throughput — the hot paths
//! in this workspace model CF link latency anyway, which dwarfs channel
//! overhead.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half of a channel. Cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel. Cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Sender {{ .. }}")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Receiver {{ .. }}")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // No `T: Debug` bound, matching upstream.
            write!(f, "SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Timed out with the channel still empty.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    impl std::fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "channel is empty and disconnected")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// Create a bounded MPMC channel holding at most `cap` messages.
    /// (A zero capacity is treated as one; the workspace never uses
    /// rendezvous channels.)
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Send a message, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
                if !full {
                    inner.queue.push_back(value);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                inner = self
                    .shared
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap_or_else(|e| e.into_inner()).senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive a message, blocking until one arrives or all senders
        /// are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receive without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = inner.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive, blocking at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap_or_else(|e| e.into_inner()).receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.shared.not_full.notify_all();
            }
        }
    }
}

pub mod utils {
    use std::ops::Deref;

    /// Pads and aligns a value to (at least) a cache-line boundary so
    /// adjacent counters never share a line (false sharing).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wrap `value` in padding.
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn mpmc_fan_out_and_in() {
        let (tx, rx) = unbounded::<u64>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        for i in 1..=100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 5050);
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded::<u8>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let h = std::thread::spawn(move || tx.send(3).map_err(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn disconnect_and_timeout_semantics() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
