//! The future-event list.
//!
//! A flat 4-ary min-heap of `(key, event)` pairs, where one `u128` key
//! orders an event by `(time, seq)` and `seq` is a monotone sequence
//! number, so simultaneous events pop in FIFO (insertion) order — the
//! determinism guarantee every reproducible DES needs.
//!
//! Why not `std::collections::BinaryHeap`? Three reasons:
//!
//! * **Pre-sizing.** The simulators know their peak pending population
//!   (one think-time event per traffic source plus in-flight hops), so
//!   [`EventQueue::with_capacity`] lets a run never reallocate the
//!   event list; pops are shrink-free so a reused queue stays warm.
//! * **One integer compare.** Events are small `Copy` values stored
//!   inline next to their key (32-byte entries for the simulators'
//!   events), so a sift step compares one `u128` and moves one entry,
//!   with no indirection. Four children per node fill two cache lines
//!   per sift level, at half the depth of a binary heap, and a full
//!   node's earliest child is picked without data-dependent branches.
//! * **Stable API.** `len`/`is_empty`/`reserve`/`reset` expose the
//!   queue state the engine and the replication-reuse path need
//!   without round-tripping through iterator adapters.
//!
//! The key packs the time's bits above the sequence number. Times are
//! non-negative, and for non-negative `f64`s `to_bits` is monotone, so
//! integer order on the key is exactly the `(time, seq)` order: `−0.0`
//! and `+0.0` both map to magnitude zero and tie (broken by `seq`, as
//! `f64` comparison treats them as equal). The time's sign bit rides in
//! the key's lowest bit, below `seq`, so a pop returns the exact time
//! that was pushed, `−0.0` included. Because `seq` is unique the order
//! is strict and total, so the pop sequence is identical to any correct
//! min-heap's, ties included, and swapping the implementation cannot
//! perturb simulation results.

use crate::time::SimTime;

/// Heap arity. Four children per node: half the depth of a binary
/// heap, and one sift level scans four adjacent entries.
const ARITY: usize = 4;

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// The sort key of an event pushed at `time` as the `seq`-th push:
/// the time's magnitude bits (63), then `seq` (64), then the time's
/// sign bit (1).
#[inline]
fn key(time: SimTime, seq: u64) -> u128 {
    let bits = time.as_us().to_bits();
    (u128::from(bits & !SIGN) << 65) | (u128::from(seq) << 1) | u128::from(bits >> 63)
}

/// The exact time a key was made from.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_us(f64::from_bits(((key >> 65) as u64) | ((key as u64) << 63)))
}

/// A time-ordered, FIFO-stable event queue.
///
/// A flat heap of `(key, event)` entries: steady-state push/pop cycles
/// reuse the storage, so they are allocation-free.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events,
    /// so a simulation with a known event population never reallocates
    /// mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { heap: Vec::with_capacity(capacity), next_seq: 0 }
    }

    /// Grows the backing storage to hold at least `additional` more
    /// pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events the queue can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Inserts an event to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let entry = (key(time, self.next_seq), payload);
        self.next_seq += 1;
        let mut pos = self.heap.len();
        self.heap.push(entry);
        // Sift up: parents later than the new entry shift down into
        // the hole, and the entry is written once where it stops.
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = entry;
    }

    /// Removes and returns the earliest event (FIFO among ties). The
    /// backing storage is kept (shrink-free), so a later push at the
    /// same population is allocation-free.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let Some(&first) = self.heap.first() else {
            return Some((time_of(last.0), last.1));
        };
        // Sift the former last entry down from the root: the earliest
        // child moves up into the hole while it is earlier.
        let mut pos = 0;
        while let Some(child) = self.earliest_child(pos) {
            if self.heap[child].0 >= last.0 {
                break;
            }
            self.heap[pos] = self.heap[child];
            pos = child;
        }
        self.heap[pos] = last;
        Some((time_of(first.0), first.1))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&(key, _)| time_of(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The earliest child of the entry at `pos`, if it has children.
    ///
    /// A full node picks its earliest child by a two-round tournament
    /// whose comparisons become selects rather than branches: which
    /// child is earliest is a coin toss the branch predictor cannot
    /// learn, and a mispredict costs more than the whole scan.
    #[inline]
    fn earliest_child(&self, pos: usize) -> Option<usize> {
        let first = pos * ARITY + 1;
        if let Some(c) = self.heap.get(first..first + ARITY) {
            let left = usize::from(c[1].0 < c[0].0);
            let right = 2 + usize::from(c[3].0 < c[2].0);
            return Some(first + if c[right].0 < c[left].0 { right } else { left });
        }
        // The one node with fewer than four children: a plain scan.
        (first..self.heap.len()).min_by_key(|&child| self.heap[child].0)
    }

    /// Removes all pending events (storage is kept).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Removes all pending events **and** restores the FIFO sequence
    /// counter, so a reused queue reproduces a fresh queue exactly.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(30.0), "c");
        q.push(SimTime::from_us(10.0), "a");
        q.push(SimTime::from_us(20.0), "b");
        assert_eq!(q.pop(), Some((SimTime::from_us(10.0), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_us(20.0), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_us(30.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_pushes_respect_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10.0), 1);
        q.push(SimTime::from_us(10.0), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_us(10.0), 3);
        q.push(SimTime::from_us(5.0), 4);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_us(7.0), ());
        q.push(SimTime::from_us(3.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(3.0)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(100.0), 1);
        q.push(SimTime::from_us(50.0), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(50.0)));
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(100.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn with_capacity_never_reallocates_within_budget() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..64u64 {
            q.push(SimTime::from_us((i % 7) as f64 * 1000.0), i);
        }
        assert_eq!(q.capacity(), cap, "no growth within the declared capacity");
        // Shrink-free pop: draining keeps the storage.
        while q.pop().is_some() {}
        assert_eq!(q.capacity(), cap, "pop must not shrink the storage");
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn reserve_grows_capacity() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.reserve(100);
        assert!(q.capacity() >= 100);
    }

    #[test]
    fn reset_restarts_the_fifo_sequence() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(1.0);
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        q.reset();
        // After a reset, ties behave exactly as in a fresh queue.
        q.push(t, 10);
        q.push(t, 11);
        assert_eq!(q.pop(), Some((t, 10)));
        assert_eq!(q.pop(), Some((t, 11)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn negative_and_positive_zero_tie_and_pop_fifo() {
        let mut q = EventQueue::new();
        let zeros = [-0.0, 0.0, -0.0, 0.0];
        for (id, &t) in zeros.iter().enumerate() {
            q.push(SimTime::from_us(t), id);
        }
        q.push(SimTime::from_us(f64::from_bits(1)), 4);
        for (id, &t) in zeros.iter().enumerate() {
            let (time, got) = q.pop().unwrap();
            assert_eq!(got, id, "the zeros pop in push order");
            // The exact pushed time comes back, sign included.
            assert_eq!(time.as_us().to_bits(), t.to_bits(), "event {id}");
        }
        assert_eq!(q.pop().map(|(_, id)| id), Some(4));
    }

    #[test]
    fn extreme_times_pop_in_numeric_order() {
        let times = [
            1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            1.0,
            f64::from_bits(1),
            f64::MAX,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1e-300,
            1.0 + f64::EPSILON,
        ];
        let mut q = EventQueue::new();
        for (id, &t) in times.iter().enumerate() {
            q.push(SimTime::from_us(t), id);
        }
        let mut sorted = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        for &t in &sorted {
            assert_eq!(q.peek_time(), Some(SimTime::from_us(t)));
            let (time, id) = q.pop().unwrap();
            assert_eq!(time.as_us().to_bits(), t.to_bits());
            assert_eq!(times[id].to_bits(), t.to_bits());
        }
        assert!(q.is_empty());
    }

    /// An xorshift64 stream for the differential tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn fifo_tie_breaking_matches_stable_sort() {
        // Deterministic pseudo-random times with heavy duplication.
        let mut next = xorshift(0x2545F4914F6CDD1D);
        let mut q = EventQueue::with_capacity(512);
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut popped = Vec::new();
        let mut id = 0usize;
        for _round in 0..50 {
            for _ in 0..20 {
                let t = next() % 8; // only 8 distinct times -> many ties
                q.push(SimTime::from_us(t as f64), id);
                reference.push((t, id));
                id += 1;
            }
            for _ in 0..10 {
                popped.push(q.pop().unwrap().1);
            }
            assert_eq!(q.len(), reference.len() - popped.len());
        }
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        // Replay with a naive priority scan to build the exact
        // expectation: among the events available at each pop, the
        // smallest (time, insertion id) must come out.
        let mut expected = Vec::new();
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut feed = reference.into_iter();
        for _round in 0..50 {
            for _ in 0..20 {
                pending.push(feed.next().unwrap());
            }
            for _ in 0..10 {
                let best = pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, id))| (t, id))
                    .map(|(i, _)| i)
                    .unwrap();
                expected.push(pending.remove(best).1);
            }
        }
        pending.sort_unstable();
        expected.extend(pending.into_iter().map(|(_, v)| v));
        assert_eq!(popped, expected);
    }

    /// Differential check against a naive reference queue across a
    /// DES-shaped workload: a bimodal mix of short service delays and
    /// long think delays scheduled relative to the advancing clock, on
    /// a 1 µs grid so ties are frequent.
    #[test]
    fn matches_reference_on_des_shaped_workload() {
        let mut next = xorshift(0x9E3779B97F4A7C15);
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, usize)> = Vec::new();
        let mut id = 0usize;
        // Seed a population of think-time events.
        for _ in 0..200 {
            let t = (next() % 4_000) as f64;
            q.push(SimTime::from_us(t), id);
            reference.push((t, id));
            id += 1;
        }
        let mut ties = 0;
        let mut last = f64::NAN;
        for _ in 0..5_000 {
            // Pop one event from each and compare.
            let best = reference
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let (exp_t, exp_id) = reference.remove(best);
            let (got_t, got_id) = q.pop().unwrap();
            assert_eq!((got_t.as_us(), got_id), (exp_t, exp_id));
            ties += usize::from(exp_t == last);
            last = exp_t;
            let now = exp_t;
            // Reschedule: 90% short service hop, 10% long think time.
            let delay = if next().is_multiple_of(10) {
                (next() % 4_000) as f64
            } else {
                (next() % 200) as f64
            };
            let t = now + delay;
            q.push(SimTime::from_us(t), id);
            reference.push((t, id));
            id += 1;
        }
        assert_eq!(q.len(), reference.len());
        assert!(ties >= 500, "only {ties} tied pops");
    }
}
