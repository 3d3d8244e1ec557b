//! The future-event list.
//!
//! An indexed 4-ary min-heap keyed by `(time, seq)`, where `seq` is a
//! monotone sequence number so that simultaneous events pop in FIFO
//! (insertion) order — the determinism guarantee every reproducible DES
//! needs.
//!
//! Why not `std::collections::BinaryHeap`? Three reasons:
//!
//! * **Pre-sizing.** The simulators know their peak pending population
//!   (one think-time event per traffic source plus in-flight hops), so
//!   [`EventQueue::with_capacity`] lets a run never reallocate the
//!   event list; pops are shrink-free so a reused queue stays warm.
//! * **Indexed storage.** The heap array holds compact `Copy` entries
//!   (key + payload index): ordering scans touch only small entries
//!   (four children per node span ~1.5 cache lines per sift level, at
//!   half the depth of a binary heap), while payloads sit still in a
//!   free-list slab and never travel with the comparisons.
//! * **Stable API.** `len`/`is_empty`/`reserve`/`reset` expose the
//!   queue state the engine and the replication-reuse path need
//!   without round-tripping through iterator adapters.
//!
//! Determinism is structural: `(time, seq)` is a strict total order
//! (`seq` is unique), and the heap orders by the full key — so the pop
//! sequence is identical to any correct min-heap's, ties included, and
//! swapping the implementation cannot perturb simulation results.

use crate::time::SimTime;

/// Sort key of one pending event.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key {
    time: SimTime,
    seq: u64,
}

impl Key {
    /// Strict `(time, seq)` ordering — total because `seq` is unique.
    #[inline]
    fn earlier_than(&self, other: &Key) -> bool {
        match self.time.cmp(&other.time) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// Heap arity. Four children per node: half the depth of a binary
/// heap, and the children's 16-byte keys span a single cache line per
/// level of the sift scan.
const ARITY: usize = 4;

/// One heap entry: the sort key plus the payload's slab index.
///
/// 24 bytes and `Copy`, so sifting moves registers, never payloads.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: Key,
    payload: u32,
}

/// A time-ordered, FIFO-stable event queue.
///
/// An *indexed* heap: the heap array holds compact `Copy` entries
/// (key + payload index) while payloads live in a slab recycled
/// through a free list — sift operations never move a payload, and a
/// slab entry freed by a pop is reused by the next push, so
/// steady-state operation is allocation-free.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<HeapEntry>,
    payloads: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events,
    /// so a simulation with a known event population never reallocates
    /// mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Grows the backing storage to hold at least `additional` more
    /// pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.payloads.reserve(additional);
    }

    /// Number of pending events the queue can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity().min(self.payloads.capacity())
    }

    /// Inserts an event to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let key = Key { time, seq: self.next_seq };
        self.next_seq += 1;
        // Recycle a freed slab entry if one exists; steady-state
        // push/pop cycles therefore never allocate.
        let index = match self.free.pop() {
            Some(index) => {
                self.payloads[index as usize] = Some(payload);
                index
            }
            None => {
                let index =
                    u32::try_from(self.payloads.len()).expect("event population fits in u32");
                self.payloads.push(Some(payload));
                index
            }
        };
        self.heap.push(HeapEntry { key, payload: index });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event (FIFO among ties). The
    /// backing storage is kept (shrink-free), so a later push at the
    /// same population is allocation-free.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let entry = self.heap.pop().expect("len checked above");
        if last > 0 {
            self.sift_down(0);
        }
        let payload =
            self.payloads[entry.payload as usize].take().expect("pending payload is present");
        self.free.push(entry.payload);
        Some((entry.key.time, payload))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.key.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events (storage is kept).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.payloads.clear();
        self.free.clear();
    }

    /// Removes all pending events **and** restores the FIFO sequence
    /// counter, so a reused queue reproduces a fresh queue exactly.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
    }

    /// Moves the entry at `pos` up until its parent is not later.
    ///
    /// Entries are small and `Copy`: the moving entry is held in
    /// registers and parent entries shift down into the hole —
    /// payloads never move.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) {
        let moving = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let p = self.heap[parent];
            if moving.key.earlier_than(&p.key) {
                self.heap[pos] = p;
                pos = parent;
            } else {
                break;
            }
        }
        self.heap[pos] = moving;
    }

    /// Moves the entry at `pos` down until no child is earlier.
    #[inline]
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        let moving = self.heap[pos];
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            // Find the earliest among up to four children.
            let mut min_child = first_child;
            for child in first_child + 1..last_child {
                if self.heap[child].key.earlier_than(&self.heap[min_child].key) {
                    min_child = child;
                }
            }
            let c = self.heap[min_child];
            if c.key.earlier_than(&moving.key) {
                self.heap[pos] = c;
                pos = min_child;
            } else {
                break;
            }
        }
        self.heap[pos] = moving;
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
