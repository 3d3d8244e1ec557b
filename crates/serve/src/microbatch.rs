//! Cross-request micro-batching of *distinct* computations.
//!
//! The [`crate::coalesce::Coalescer`] answers **identical** requests,
//! concurrent or repeated; this module handles the complementary case:
//! distinct evaluate points arriving close together in time. The first
//! arrival becomes the batch *leader*: it waits one small gather
//! window, takes every request that joined meanwhile, and runs the
//! whole flattened batch through a single batch-engine call (one
//! kernel solve on the leader's thread, in its own arena, in the
//! server) — turning N independent model evaluations into one lockstep
//! solve with shared setup. Followers block on a per-group `Slot`, the
//! same hand-over the coalescer's followers wait on, and take exactly
//! their own results, uncopied.
//!
//! The window is held only when another request is likely to join it:
//! the batcher remembers when the last group was submitted (by a leader
//! or a follower), and a new leader waits out the window only if that
//! submission came less than one window earlier, or if nothing was
//! submitted yet. After a quiet spell longer than the window the first
//! arrival is solved at once instead of sleeping for company that is
//! not coming; under sustained load every window is held as before. A
//! zero window is never held and gathers nobody: each submission leads
//! its own batch at once, so it never waits behind another's solve.
//!
//! Submissions are *groups* of items ([`Batcher::submit_many`]): a
//! `/v1/evaluate` request contributes a group of one config, a
//! `/v1/sweep` request contributes one config per sweep point, and all
//! groups sharing a window are solved in one flattened kernel batch.
//! Each submitter gets back its own slice of the results, in its own
//! input order.
//!
//! Because the batch function is required to be a pure per-item map
//! (the server passes a `BatchKernel` solve, whose lanes are
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
//! — the same contract, on the same slot, as the coalescer's leader.

use crate::coalesce::Slot;
use crate::keys;
use hmcs_core::metrics::{self, Counter};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where one follower group receives its slice of the batch results.
type GroupSlot<V> = Arc<Slot<Vec<V>>>;

struct Gather<T, V> {
    gathering: bool,
    pending: Vec<(Vec<T>, GroupSlot<V>)>,
    /// When the last group was submitted, by a leader or a follower.
    last_submit: Option<Instant>,
}

/// The boxed batch computation: a pure per-item map over the flattened
/// gathered items (a `BatchKernel` solve in the server).
type BatchFn<T, V> = Box<dyn Fn(&[T]) -> Vec<V> + Send + Sync>;

/// Groups temporally close distinct items into one batched computation.
pub struct Batcher<T, V> {
    window: Duration,
    compute: BatchFn<T, V>,
    state: Mutex<Gather<T, V>>,
    /// Registry handles, resolved once so a batch takes no registry lock.
    batches: &'static Counter,
    batched_items: &'static Counter,
    windows_held: &'static Counter,
}

/// The follower slots of one batch, each with its group's length.
/// Dropping it abandons every slot: on unwind that releases the
/// followers of a failed computation instead of stranding them, and
/// after delivery it changes nothing (a filled slot stays filled).
struct Followers<V>(Vec<(usize, GroupSlot<V>)>);

impl<V> Drop for Followers<V> {
    fn drop(&mut self) {
        for (_, slot) in &self.0 {
            slot.abandon();
        }
    }
}

impl<T, V> Batcher<T, V> {
    /// Creates a batcher gathering arrivals for `window` per batch.
    /// `compute` must map each input item to its output positionally —
    /// a pure per-item function, typically a `BatchKernel` solve.
    pub fn new(window: Duration, compute: impl Fn(&[T]) -> Vec<V> + Send + Sync + 'static) -> Self {
        Batcher {
            window,
            compute: Box::new(compute),
            state: Mutex::new(Gather { gathering: false, pending: Vec::new(), last_submit: None }),
            batches: metrics::counter(keys::BATCH_BATCHES),
            batched_items: metrics::counter(keys::BATCH_BATCHED_ITEMS),
            windows_held: metrics::counter(keys::BATCH_WINDOWS_HELD),
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
    /// most `wait_budget`). A leader holds the window only when the
    /// previous submission came less than one window earlier (or there
    /// was none). Returns the group's results in input order, or `None`
    /// when the wait budget lapses or the leader panicked.
    pub fn submit_many(&self, items: Vec<T>, wait_budget: Duration) -> Option<Vec<V>> {
        if items.is_empty() {
            return Some(Vec::new());
        }
        let (group, hold) = {
            let now = Instant::now();
            let mut state = self.state.lock().expect("batcher poisoned");
            let previous = state.last_submit.replace(now);
            // A zero window gathers nobody: every group leads its own.
            if state.gathering && !self.window.is_zero() {
                let slot = Arc::new(Slot::new());
                state.pending.push((items, Arc::clone(&slot)));
                drop(state);
                // The only follower of its slot takes its slice, uncopied.
                return slot.wait(wait_budget, std::mem::take);
            }
            state.gathering = true;
            let dense = previous.is_none_or(|t| now.duration_since(t) < self.window);
            (items, dense && !self.window.is_zero())
        };

        // Leader: hold the gather window open while arrivals are dense,
        // then take the batch.
        if hold {
            self.windows_held.incr();
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
        let mut slots = Followers(Vec::with_capacity(followers.len()));
        for (follower_items, slot) in followers {
            slots.0.push((follower_items.len(), slot));
            flat.extend(follower_items);
        }

        let mut values = (self.compute)(&flat);
        assert_eq!(values.len(), flat.len(), "batch compute must be a per-item map");
        self.batches.incr();
        self.batched_items.add(flat.len() as u64);

        // The leader keeps the head of the flattened batch; each
        // follower receives the next `group_len` values.
        let mut rest = values.split_off(leader_len).into_iter();
        for (group_len, slot) in &slots.0 {
            slot.fill(rest.by_ref().take(*group_len).collect());
        }
        Some(values)
    }

    /// Items currently waiting in an open gather window (tests only).
    pub fn pending_len(&self) -> usize {
        self.state.lock().expect("batcher poisoned").pending.iter().map(|(g, _)| g.len()).sum()
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

    #[test]
    fn leader_after_a_quiet_spell_is_solved_at_once() {
        let window = Duration::from_millis(200);
        let batcher = Batcher::new(window, |items: &[u32]| items.to_vec());
        // A batcher with no previous submission holds its first window.
        let start = Instant::now();
        assert_eq!(batcher.submit(1, Duration::from_secs(5)), Some(1));
        assert!(start.elapsed() >= window, "the first leader holds the window");
        // That submission is now more than a window in the past.
        std::thread::sleep(window / 4);
        let start = Instant::now();
        assert_eq!(batcher.submit(2, Duration::from_secs(5)), Some(2));
        assert!(
            start.elapsed() < window / 2,
            "a leader after a quiet spell must not sleep ({:?})",
            start.elapsed()
        );
    }

    #[test]
    fn back_to_back_submissions_hold_the_window_for_a_follower() {
        let window = Duration::from_millis(300);
        let calls = Arc::new(AtomicUsize::new(0));
        let last_len = Arc::new(AtomicUsize::new(0));
        let batcher: Arc<Batcher<u32, u32>> = {
            let (calls, last_len) = (Arc::clone(&calls), Arc::clone(&last_len));
            Arc::new(Batcher::new(window, move |items: &[u32]| {
                calls.fetch_add(1, Ordering::SeqCst);
                last_len.store(items.len(), Ordering::SeqCst);
                items.iter().map(|x| x * 10).collect()
            }))
        };
        // The first window is held; after a quiet spell the next
        // submission is solved alone and at once.
        assert_eq!(batcher.submit(1, Duration::from_secs(5)), Some(10));
        std::thread::sleep(window / 4);
        assert_eq!(batcher.submit(2, Duration::from_secs(5)), Some(20));
        assert_eq!(calls.load(Ordering::SeqCst), 2);

        // Submitting right after that one, the leader holds the window
        // again, and a follower joins its computation.
        let follower = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                assert!(
                    poll(Duration::from_secs(5), || batcher.state.lock().unwrap().gathering),
                    "leader must be gathering"
                );
                batcher.submit(4, Duration::from_secs(5))
            })
        };
        assert_eq!(batcher.submit(3, Duration::from_secs(5)), Some(30));
        assert_eq!(follower.join().unwrap(), Some(40));
        assert_eq!(calls.load(Ordering::SeqCst), 3, "leader and follower share one computation");
        assert_eq!(last_len.load(Ordering::SeqCst), 2);
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
