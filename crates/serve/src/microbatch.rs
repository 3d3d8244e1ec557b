//! Cross-request micro-batching of *distinct* computations.
//!
//! The [`crate::coalesce::Coalescer`] answers **identical** requests,
//! concurrent or repeated; this module handles the complementary case:
//! distinct evaluate points arriving close together in time. The first
//! arrival becomes the batch *leader*: it waits one small gather
//! window, takes every request that joined meanwhile, and runs the
//! whole flattened batch through a single batch-engine call (one
//! `kernel::evaluate_batch` solve on the leader's thread in the
//! server) — turning N independent model evaluations into one lockstep
//! solve with shared setup. Followers block on a per-group slot and
//! receive exactly their own results.
//!
//! Submissions are *groups* of items ([`Batcher::submit_many`]): a
//! `/v1/evaluate` request contributes a group of one config, a
//! `/v1/sweep` request contributes one config per sweep point, and all
//! groups sharing a window are solved in one flattened kernel batch.
//! Each submitter gets back its own slice of the results, in its own
//! input order.
//!
//! Because the batch function is required to be a pure per-item map
//! (the server passes `kernel::evaluate_batch`, whose lanes are
//! bit-identical to the scalar path and invariant under batch
//! composition by construction), batching changes scheduling only,
//! never bytes.
//!
//! Requests arriving while a leader is computing start a *new* gather
//! generation, so batches pipeline under sustained load rather than
//! convoying behind the previous batch.
//!
//! A leader that panics abandons its followers' slots (they fail fast
//! and the server degrades to load shedding) instead of stranding them
//! — the same contract as the coalescer's `LeaderGuard`.

use crate::keys;
use hmcs_core::metrics::{self, Counter};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct SlotState<V> {
    value: Option<Vec<V>>,
    abandoned: bool,
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

impl<V> Slot<V> {
    fn empty() -> Self {
        Slot {
            state: Mutex::new(SlotState { value: None, abandoned: false }),
            ready: Condvar::new(),
        }
    }
}

struct Gather<T, V> {
    gathering: bool,
    pending: Vec<(Vec<T>, Arc<Slot<V>>)>,
}

/// The boxed batch computation: a pure per-item map over the flattened
/// gathered items (`kernel::evaluate_batch` in the server).
type BatchFn<T, V> = Box<dyn Fn(&[T]) -> Vec<V> + Send + Sync>;

/// Groups temporally close distinct items into one batched computation.
pub struct Batcher<T, V> {
    window: Duration,
    compute: BatchFn<T, V>,
    state: Mutex<Gather<T, V>>,
    /// Registry handles, resolved once so a batch takes no registry lock.
    batches: &'static Counter,
    batched_items: &'static Counter,
}

/// Marks the followers of a failed batch abandoned on unwind so a
/// panicking batch computation cannot strand them on slots that will
/// never fill.
struct AbandonGuard<'a, V> {
    slots: &'a [Arc<Slot<V>>],
    completed: bool,
}

impl<V> Drop for AbandonGuard<'_, V> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        for slot in self.slots {
            slot.state.lock().expect("batch slot poisoned").abandoned = true;
            slot.ready.notify_all();
        }
    }
}

impl<T, V> Batcher<T, V> {
    /// Creates a batcher gathering arrivals for `window` per batch.
    /// `compute` must map each input item to its output positionally —
    /// a pure per-item function, typically `kernel::evaluate_batch`.
    pub fn new(window: Duration, compute: impl Fn(&[T]) -> Vec<V> + Send + Sync + 'static) -> Self {
        Batcher {
            window,
            compute: Box::new(compute),
            state: Mutex::new(Gather { gathering: false, pending: Vec::new() }),
            batches: metrics::counter(keys::BATCH_BATCHES),
            batched_items: metrics::counter(keys::BATCH_BATCHED_ITEMS),
        }
    }

    /// Submits one item. Equivalent to a [`Batcher::submit_many`] group
    /// of one. Returns `None` when the wait budget lapses or the leader
    /// panicked.
    pub fn submit(&self, item: T, wait_budget: Duration) -> Option<V> {
        let mut values = self.submit_many(vec![item], wait_budget)?;
        debug_assert_eq!(values.len(), 1, "one result per submitted item");
        values.pop()
    }

    /// Submits a group of items that travel through the gather window
    /// together. The caller either leads a batch (gather, flatten every
    /// pending group into one `compute` call, distribute each group its
    /// own slice) or follows one (block until the leader delivers, at
    /// most `wait_budget`). Returns the group's results in input order,
    /// or `None` when the wait budget lapses or the leader panicked.
    pub fn submit_many(&self, items: Vec<T>, wait_budget: Duration) -> Option<Vec<V>> {
        if items.is_empty() {
            return Some(Vec::new());
        }
        let group = {
            let mut state = self.state.lock().expect("batcher poisoned");
            if state.gathering {
                let slot = Arc::new(Slot::empty());
                state.pending.push((items, Arc::clone(&slot)));
                drop(state);
                return follow(&slot, wait_budget);
            }
            state.gathering = true;
            items
        };

        // Leader: hold the gather window open, then take the batch.
        if !self.window.is_zero() {
            std::thread::sleep(self.window);
        }
        let followers = {
            let mut state = self.state.lock().expect("batcher poisoned");
            state.gathering = false;
            std::mem::take(&mut state.pending)
        };
        // Flatten leader + follower groups into one batch; remember
        // each follower's group length to slice the results back out.
        let leader_len = group.len();
        let mut flat = group;
        let mut slots = Vec::with_capacity(followers.len());
        let mut group_lens = Vec::with_capacity(followers.len());
        for (follower_items, slot) in followers {
            group_lens.push(follower_items.len());
            flat.extend(follower_items);
            slots.push(slot);
        }

        let mut guard = AbandonGuard { slots: &slots, completed: false };
        let values = (self.compute)(&flat);
        assert_eq!(values.len(), flat.len(), "batch compute must be a per-item map");
        self.batches.incr();
        self.batched_items.add(flat.len() as u64);

        // The leader's own results are the head of the flattened batch;
        // each follower receives the next `group_len` values.
        let mut values = values.into_iter();
        let leader_values: Vec<V> = values.by_ref().take(leader_len).collect();
        for (&group_len, slot) in group_lens.iter().zip(&slots) {
            let group_values: Vec<V> = values.by_ref().take(group_len).collect();
            let mut slot_state = slot.state.lock().expect("batch slot poisoned");
            slot_state.value = Some(group_values);
            drop(slot_state);
            slot.ready.notify_all();
        }
        guard.completed = true;
        Some(leader_values)
    }

    /// Items currently waiting in an open gather window (tests only).
    pub fn pending_len(&self) -> usize {
        self.state.lock().expect("batcher poisoned").pending.iter().map(|(g, _)| g.len()).sum()
    }
}

fn follow<V>(slot: &Slot<V>, wait_budget: Duration) -> Option<Vec<V>> {
    let deadline = Instant::now() + wait_budget;
    let mut state = slot.state.lock().expect("batch slot poisoned");
    loop {
        if state.value.is_some() {
            return state.value.take();
        }
        if state.abandoned {
            return None;
        }
        let remaining = deadline.checked_duration_since(Instant::now())?;
        state = slot.ready.wait_timeout(state, remaining).expect("batch slot poisoned").0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn solo_submit_computes_a_batch_of_one() {
        let batcher = Batcher::new(Duration::from_millis(1), |items: &[u32]| {
            items.iter().map(|x| x * 2).collect()
        });
        assert_eq!(batcher.submit(21, Duration::from_secs(1)), Some(42));
        assert_eq!(batcher.pending_len(), 0);
    }

    #[test]
    fn zero_window_degenerates_to_immediate_compute() {
        let batcher =
            Batcher::new(Duration::ZERO, |items: &[u32]| items.iter().map(|x| x + 1).collect());
        assert_eq!(batcher.submit(7, Duration::from_secs(1)), Some(8));
    }

    #[test]
    fn concurrent_distinct_items_share_one_computation() {
        const N: usize = 6;
        let calls = Arc::new(AtomicUsize::new(0));
        let batcher: Arc<Batcher<u32, u32>> = {
            let calls = Arc::clone(&calls);
            Arc::new(Batcher::new(Duration::from_millis(200), move |items: &[u32]| {
                calls.fetch_add(1, Ordering::SeqCst);
                items.iter().map(|x| x * 10).collect()
            }))
        };
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N as u32)
            .map(|i| {
                let (batcher, barrier) = (Arc::clone(&batcher), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    batcher.submit(i, Duration::from_secs(10))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Each submitter gets exactly its own item's result back.
        let mut got: Vec<u32> = results.into_iter().map(|r| r.unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..N as u32).map(|i| i * 10).collect::<Vec<_>>());
        // Everyone arrived inside the 200 ms window, so one batch ran.
        assert_eq!(calls.load(Ordering::SeqCst), 1, "distinct items must share one batch");
        assert_eq!(batcher.pending_len(), 0);
    }

    #[test]
    fn mixed_groups_share_one_computation_and_get_their_own_slices() {
        const GROUPS: usize = 4;
        let calls = Arc::new(AtomicUsize::new(0));
        let batcher: Arc<Batcher<u32, u32>> = {
            let calls = Arc::clone(&calls);
            Arc::new(Batcher::new(Duration::from_millis(200), move |items: &[u32]| {
                calls.fetch_add(1, Ordering::SeqCst);
                items.iter().map(|x| x * 10).collect()
            }))
        };
        let barrier = Arc::new(Barrier::new(GROUPS));
        // Group g submits g+1 items (sizes 1..=4), like one evaluate
        // request and three sweeps of growing size sharing a window.
        let handles: Vec<_> = (0..GROUPS as u32)
            .map(|g| {
                let (batcher, barrier) = (Arc::clone(&batcher), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let group: Vec<u32> = (0..=g).map(|k| g * 100 + k).collect();
                    barrier.wait();
                    (group.clone(), batcher.submit_many(group, Duration::from_secs(10)))
                })
            })
            .collect();
        for handle in handles {
            let (group, result) = handle.join().unwrap();
            let expected: Vec<u32> = group.iter().map(|x| x * 10).collect();
            assert_eq!(result.unwrap(), expected, "each group gets its own slice in order");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "groups share one flattened batch");
        assert_eq!(batcher.pending_len(), 0);
    }

    #[test]
    fn empty_group_returns_immediately() {
        let batcher = Batcher::new(Duration::from_millis(200), |items: &[u32]| items.to_vec());
        assert_eq!(batcher.submit_many(Vec::new(), Duration::from_secs(1)), Some(Vec::new()));
        assert_eq!(batcher.pending_len(), 0);
    }

    #[test]
    fn followers_time_out_rather_than_hang() {
        let batcher: Arc<Batcher<u32, u32>> =
            Arc::new(Batcher::new(Duration::from_millis(400), |items: &[u32]| items.to_vec()));
        let leader = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.submit(1, Duration::from_secs(5)))
        };
        // Join the leader's gather window, but with a tiny budget.
        assert!(
            poll(Duration::from_secs(1), || batcher.state.lock().unwrap().gathering),
            "leader must be gathering"
        );
        let follower = batcher.submit(2, Duration::from_millis(10));
        assert_eq!(follower, None, "budget shorter than the window times out");
        assert_eq!(leader.join().unwrap(), Some(1));
    }

    #[test]
    fn panicking_leader_abandons_followers() {
        let batcher: Arc<Batcher<u32, u32>> =
            Arc::new(Batcher::new(Duration::from_millis(200), |items: &[u32]| {
                if items.contains(&13) {
                    panic!("doomed batch");
                }
                items.to_vec()
            }));
        let leader = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.submit(13, Duration::from_secs(5)))
        };
        assert!(
            poll(Duration::from_secs(1), || batcher.state.lock().unwrap().gathering),
            "leader must be gathering"
        );
        let follower = batcher.submit(2, Duration::from_secs(5));
        assert_eq!(follower, None, "followers of a panicked batch fail fast");
        assert!(leader.join().is_err(), "leader panicked by design");
        // The batcher recovers: the next submit leads a fresh batch.
        assert_eq!(batcher.submit(3, Duration::from_secs(1)), Some(3));
        assert_eq!(batcher.pending_len(), 0);
    }

    fn poll(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}
