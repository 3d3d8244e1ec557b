//! A bounded MPMC job queue with non-blocking admission.
//!
//! The serving stack's backpressure primitive: the acceptor thread
//! offers jobs with `Bounded::try_push` (which *fails fast* when the
//! budget is exhausted, so the caller can shed load with `503` instead
//! of queueing unboundedly), and worker threads block in
//! [`Bounded::pop`] until a job arrives or the queue is closed *and*
//! drained — the drain guarantee is what makes graceful shutdown drop
//! no accepted request.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`Bounded::try_push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity — shed load.
    Full,
    /// The queue was closed — the server is shutting down.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// Creates a queue admitting at most `capacity` pending jobs
    /// (floored at 1).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Offers `item` without blocking. Returns it on refusal so the
    /// caller can respond to the client it belongs to.
    pub(crate) fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Takes the next job, blocking while the queue is open and empty.
    /// Returns `None` only when the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: no further pushes are admitted, and workers
    /// drain the remaining jobs before their `pop` returns `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Jobs currently waiting (racy by nature; metrics only).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// True when no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_round_trips_in_order() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn admission_fails_fast_at_capacity() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_drains_pops() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err((2, PushError::Closed)));
        assert_eq!(q.pop(), Some(1), "queued jobs survive close");
        assert_eq!(q.pop(), None, "drained + closed terminates consumers");
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        let q = Arc::new(Bounded::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for v in 0..32 {
            // The bounded queue never blocks producers; emulate an
            // acceptor retrying a full queue.
            let mut item = v;
            while let Err((rejected, PushError::Full)) = q.try_push(item) {
                item = rejected;
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = Bounded::new(0);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err((2, PushError::Full)));
    }
}
