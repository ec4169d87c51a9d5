//! A bounded MPSC channel on `Mutex` + `Condvar`.
//!
//! Replaces `crossbeam::channel::bounded` for the pipelined intermediate
//! writers (offline builds cannot depend on crossbeam). One queue element
//! is a whole encoded chunk, so throughput demands are in the thousands of
//! operations per second — far below where a lock-based queue becomes a
//! bottleneck. Senders block while the queue is full, the receiver blocks
//! while it is empty; dropping either side wakes and releases the other.
//!
//! Synchronization comes from the `hpa_exec::sync` facade, so under the
//! `model-check` feature the blocking/close protocol runs on `hpa-check`
//! shims and is exhaustively explored — including both
//! close-while-blocked directions — in
//! `crates/check/tests/model_channel.rs`.

use hpa_exec::sync::{tracked, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    rx_alive: bool,
}

struct Inner<T> {
    cap: usize,
    state: Mutex<State<T>>,
    /// Race-detector hook for `state`, fired inside the lock; under the
    /// model checker this proves every queue/refcount access pair is
    /// ordered by the mutex.
    track: tracked::Track,
    not_full: Condvar,
    not_empty: Condvar,
}

/// The sending half of a bounded channel. Cloneable (MPSC).
pub struct Sender<T>(Arc<Inner<T>>);

/// The receiving half of a bounded channel.
pub struct Receiver<T>(Arc<Inner<T>>);

/// Create a bounded channel with room for `cap` queued values (min 1).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        cap: cap.max(1),
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            rx_alive: true,
        }),
        track: tracked::Track::new("io::channel::Inner"),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (Sender(Arc::clone(&inner)), Receiver(inner))
}

impl<T> Sender<T> {
    /// Send a value, blocking while the queue is full. Fails (returning
    /// the value) when the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.state.lock();
        loop {
            if !st.rx_alive {
                return Err(SendError(value));
            }
            if st.queue.len() < self.0.cap {
                self.0.track.on_write();
                st.queue.push_back(value);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            self.0.not_full.wait(&mut st);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut st = self.0.state.lock();
        self.0.track.on_write();
        st.senders += 1;
        drop(st);
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        self.0.track.on_write();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receive the next value, blocking while the queue is empty. Fails
    /// once the queue is empty and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.state.lock();
        loop {
            self.0.track.on_write();
            if let Some(v) = st.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.0.not_empty.wait(&mut st);
        }
    }

    /// Receive without blocking; `None` when the queue is currently empty
    /// (regardless of sender liveness). No workflow path polls; it is the
    /// receiver operation `hpa-check`'s linearizability suite records.
    pub fn try_recv(&self) -> Option<T> {
        let mut st = self.0.state.lock();
        self.0.track.on_write();
        let v = st.queue.pop_front();
        if v.is_some() {
            self.0.not_full.notify_one();
        }
        v
    }

    /// Queued values right now (racy snapshot; for metrics only).
    pub fn len(&self) -> usize {
        let st = self.0.state.lock();
        self.0.track.on_read();
        st.queue.len()
    }

    /// True when the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        self.0.track.on_write();
        st.rx_alive = false;
        drop(st);
        self.0.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn values_arrive_in_order() {
        let (tx, rx) = bounded(4);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_blocks_at_capacity_until_recv() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        let t0 = std::time::Instant::now();
        let producer = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until one recv
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv(), Ok(1));
        let blocked_for = producer.join().unwrap();
        assert!(blocked_for >= Duration::from_millis(20), "{blocked_for:?}");
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn dropping_receiver_fails_pending_send() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap(); // fill the queue
        let producer = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn try_recv_never_blocks() {
        let (tx, rx) = bounded(2);
        assert_eq!(rx.try_recv(), None);
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn multiple_senders_all_delivered() {
        let (tx, rx) = bounded(3);
        let handles: Vec<_> = (0..4)
            .map(|s| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        tx.send(s * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        let mut expected: Vec<i32> = (0..4)
            .flat_map(|s| (0..50).map(move |i| s * 100 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}
