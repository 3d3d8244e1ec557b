//! Request coalescing: the one place a repeated request is answered.
//!
//! The paper's model is deterministic, and every response document is
//! rendered from its result, so a served answer is a pure function of
//! the request bytes. The [`Coalescer`] therefore keys on the endpoint
//! and the raw body bytes. Parsing, the strict check, the solve and the
//! render all run inside the leader's computation, so a follower or a
//! repeat is answered without any of them.
//!
//! One map holds two kinds of entry under the same key:
//!
//! * **In flight.** The first arrival (the *leader*) computes; every
//!   later arrival (a *follower*) blocks on the slot and receives a
//!   clone of the leader's response, byte-identical by construction.
//! * **Completed.** When a leader finishes with a `200`, its entry stays
//!   in the map, but only if the same key was already led recently: a
//!   fixed table of 4,096 64-bit fingerprints records which keys were.
//!   A stream of distinct requests thus never fills the memo, while the
//!   second computation of a hot request makes every later copy a hit.
//!   Completed entries share a fixed budget of 256 KiB of key plus body
//!   bytes and are evicted oldest first. Nothing else is ever kept: no
//!   non-`200` response, nothing from a timed-out follower and nothing
//!   from a panicked leader.
//!
//! Kept responses never go stale: the model has no state that changes
//! while the server runs. Memory is bounded by the budget, the
//! fingerprint table (32 KiB) and the in-flight slots, one per busy
//! worker.
//!
//! Followers wait with a deadline on a `Slot`, the one leader/follower
//! hand-over of the crate, which the [`crate::microbatch::Batcher`]
//! uses too. If the leader disappears (panic) or overruns the
//! follower's budget, the follower reports failure and the server
//! answers `503` — a stuck computation degrades to load shedding
//! instead of hanging the pool.

use crate::http::Response;
use crate::keys;
use hmcs_core::metrics;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bytes of keys plus bodies that completed responses may hold.
const MEMO_BYTES: usize = 256 * 1024;

/// Entries of the fingerprint table that admits a response to the memo
/// (a power of two; 32 KiB of `u64`s).
const SEEN_SLOTS: usize = 4096;

/// A one-shot hand-over from a leader to the followers waiting on its
/// result, shared by the [`Coalescer`] and the
/// [`crate::microbatch::Batcher`]. The leader settles it once, by
/// filling or abandoning it; whichever comes first stands.
pub(crate) struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

enum SlotState<V> {
    Waiting,
    Filled(V),
    Abandoned,
}

impl<V> Slot<V> {
    pub(crate) fn new() -> Self {
        Slot { state: Mutex::new(SlotState::Waiting), ready: Condvar::new() }
    }

    /// Delivers the leader's value and wakes every follower.
    pub(crate) fn fill(&self, value: V) {
        self.settle(SlotState::Filled(value));
    }

    /// Releases the followers of a leader that will not fill the slot;
    /// a no-op once it is filled. Never panics, since it runs while a
    /// leader unwinds.
    pub(crate) fn abandon(&self) {
        self.settle(SlotState::Abandoned);
    }

    /// Moves a waiting slot to `settled` and wakes its followers; a slot
    /// already settled is left alone and nobody is woken.
    fn settle(&self, settled: SlotState<V>) {
        if let Ok(mut state) = self.state.lock() {
            if matches!(*state, SlotState::Waiting) {
                *state = settled;
                self.ready.notify_all();
            }
        }
    }

    /// Waits at most `budget` for the value and hands `get` a mutable
    /// borrow of it, so a follower may clone it or, when it is the only
    /// one, take it. `None` when the budget lapses or the leader
    /// abandoned the slot.
    pub(crate) fn wait<R>(&self, budget: Duration, get: impl FnOnce(&mut V) -> R) -> Option<R> {
        let deadline = Instant::now() + budget;
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            match &mut *state {
                SlotState::Filled(value) => return Some(get(value)),
                SlotState::Abandoned => return None,
                SlotState::Waiting => {
                    // A lapsed deadline falls out here as `None`.
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    state = self.ready.wait_timeout(state, remaining).expect("slot poisoned").0;
                }
            }
        }
    }
}

enum Entry {
    /// A leader is computing; followers wait on the slot.
    InFlight(Arc<Slot<Response>>),
    /// A repeated `200`, answered from memory.
    Done(Response),
}

struct Table {
    entries: HashMap<Arc<[u8]>, Entry>,
    /// Completed keys, oldest first, with the bytes each is charged.
    done: VecDeque<(Arc<[u8]>, usize)>,
    done_bytes: usize,
    /// The fingerprint (low bit set, so never 0) of the last key led in
    /// each slot, indexed by the fingerprint's low bits.
    seen: Box<[u64]>,
}

impl Table {
    /// Keeps a completed response, evicting the oldest ones until it
    /// fits the budget. A response larger than the whole budget is
    /// dropped instead.
    fn keep(&mut self, key: Arc<[u8]>, response: Response) {
        let charge = key.len() + response.body.len();
        if charge > MEMO_BYTES {
            return;
        }
        while self.done_bytes + charge > MEMO_BYTES {
            let (oldest, bytes) = self.done.pop_front().expect("charged bytes have entries");
            self.entries.remove(&oldest);
            self.done_bytes -= bytes;
        }
        self.done_bytes += charge;
        self.done.push_back((Arc::clone(&key), charge));
        self.entries.insert(key, Entry::Done(response));
    }
}

/// How one [`Coalescer::run`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// This call was the leader and performed the computation.
    Computed,
    /// This call received a clone of a concurrent leader's response or
    /// of a completed one.
    Coalesced,
    /// The leader did not deliver within the wait budget.
    TimedOut,
}

/// Answers identical requests, concurrent or repeated, from one
/// computation.
pub struct Coalescer {
    table: Mutex<Table>,
    hits: &'static metrics::Counter,
    memo_hits: &'static metrics::Counter,
    computations: &'static metrics::Counter,
}

impl Default for Coalescer {
    fn default() -> Self {
        Self::new()
    }
}

/// Settles the leader's entry on completion and on unwind. A completed
/// leader leaves its response behind when it was admitted; a panicking
/// one removes its slot, so it cannot strand future identical requests
/// on a slot that will never complete, and abandons it, so waiting
/// followers fail fast.
struct LeaderGuard<'a> {
    owner: &'a Coalescer,
    key: Arc<[u8]>,
    slot: Arc<Slot<Response>>,
    keep: Option<Response>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        // No panics here: this runs while a panicking leader unwinds.
        // A poisoned lock (a bug elsewhere) leaves the entry as it is,
        // and followers of the slot time out.
        if let Ok(mut table) = self.owner.table.lock() {
            table.entries.remove(&self.key);
            if let Some(response) = self.keep.take() {
                table.keep(Arc::clone(&self.key), response);
            }
        }
        self.slot.abandon();
    }
}

impl Coalescer {
    /// Creates an empty coalescer counting into the serve-standard
    /// [`crate::keys::COALESCE_HITS`],
    /// [`crate::keys::COALESCE_MEMO_HITS`] and
    /// [`crate::keys::COALESCE_COMPUTATIONS`] metrics.
    pub fn new() -> Self {
        Self::with_counters(
            metrics::counter(keys::COALESCE_HITS),
            metrics::counter(keys::COALESCE_MEMO_HITS),
            metrics::counter(keys::COALESCE_COMPUTATIONS),
        )
    }

    /// Creates a coalescer counting into caller-supplied metrics —
    /// lets tests observe exactly their own coalescer without racing
    /// other users of the process-global registry. `memo_hits` counts
    /// the subset of `hits` answered by a completed response.
    pub fn with_counters(
        hits: &'static metrics::Counter,
        memo_hits: &'static metrics::Counter,
        computations: &'static metrics::Counter,
    ) -> Self {
        let table = Table {
            entries: HashMap::new(),
            done: VecDeque::new(),
            done_bytes: 0,
            seen: vec![0; SEEN_SLOTS].into_boxed_slice(),
        };
        Coalescer { table: Mutex::new(table), hits, memo_hits, computations }
    }

    /// Answers the request `body` on `endpoint`: from a completed
    /// response, by joining an identical in-flight computation, or by
    /// running `compute` as the leader. Followers wait at most
    /// `wait_budget`.
    pub fn run(
        &self,
        endpoint: &str,
        body: &[u8],
        wait_budget: Duration,
        compute: impl FnOnce() -> Response,
    ) -> (Option<Response>, Outcome) {
        // 0xFF never occurs in UTF-8 text, so the endpoint ends exactly
        // there and the key is injective on (endpoint, body).
        let mut key = Vec::with_capacity(endpoint.len() + 1 + body.len());
        key.extend_from_slice(endpoint.as_bytes());
        key.push(0xFF);
        key.extend_from_slice(body);

        let mut table = self.table.lock().expect("coalescer poisoned");
        match table.entries.get(&key[..]) {
            Some(Entry::Done(response)) => {
                let response = response.clone();
                drop(table);
                self.hits.incr();
                self.memo_hits.incr();
                return (Some(response), Outcome::Coalesced);
            }
            Some(Entry::InFlight(slot)) => {
                let slot = Arc::clone(slot);
                drop(table);
                self.hits.incr();
                return match slot.wait(wait_budget, |response| response.clone()) {
                    Some(response) => (Some(response), Outcome::Coalesced),
                    None => (None, Outcome::TimedOut),
                };
            }
            None => {}
        }
        let fingerprint = table.entries.hasher().hash_one(&key[..]) | 1;
        let seen = &mut table.seen[fingerprint as usize % SEEN_SLOTS];
        let admitted = *seen == fingerprint;
        *seen = fingerprint;
        let key: Arc<[u8]> = key.into();
        let slot = Arc::new(Slot::new());
        table.entries.insert(Arc::clone(&key), Entry::InFlight(Arc::clone(&slot)));
        drop(table);

        let mut guard = LeaderGuard { owner: self, key, slot, keep: None };
        let value = compute();
        // Counted only on successful completion: a panicking leader
        // never finished a computation, and counting it up front would
        // drift the e2e invariant `computations + hits == requests`
        // under faults.
        self.computations.incr();
        guard.slot.fill(value.clone());
        if admitted && value.status == 200 {
            guard.keep = Some(value.clone());
        }
        drop(guard); // settles the entry; the slot is already filled
        (Some(value), Outcome::Computed)
    }

    /// Number of in-flight computations (tests/metrics only).
    pub fn inflight_len(&self) -> usize {
        let table = self.table.lock().expect("coalescer poisoned");
        table.entries.len() - table.done.len()
    }

    #[cfg(test)]
    fn memo_len(&self) -> usize {
        self.table.lock().expect("coalescer poisoned").done.len()
    }

    #[cfg(test)]
    fn memo_bytes(&self) -> usize {
        self.table.lock().expect("coalescer poisoned").done_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// A coalescer counting into counters private to one test.
    fn coalescer(test: &str) -> Coalescer {
        Coalescer::with_counters(
            metrics::counter(&format!("test.coalesce.{test}.hits")),
            metrics::counter(&format!("test.coalesce.{test}.memo_hits")),
            metrics::counter(&format!("test.coalesce.{test}.computations")),
        )
    }

    fn ok(body: &str) -> Response {
        Response::json(body.to_string())
    }

    fn body_of(value: Option<Response>) -> Option<String> {
        value.map(|r| r.body)
    }

    const WAIT: Duration = Duration::from_secs(1);

    #[test]
    fn solo_requests_compute_and_clean_up() {
        let c = coalescer("solo");
        let (v, outcome) = c.run("/e", b"k", WAIT, || ok("42"));
        assert_eq!(body_of(v).as_deref(), Some("42"));
        assert_eq!(outcome, Outcome::Computed);
        assert_eq!(c.inflight_len(), 0);
        assert_eq!(c.memo_len(), 0, "a key led once is not kept");
        assert_eq!(c.memo_bytes(), 0);
    }

    #[test]
    fn the_second_identical_request_is_kept_and_the_third_never_computes() {
        let c = coalescer("repeat");
        let (hits, memo_hits, computations) = (c.hits, c.memo_hits, c.computations);
        let (h0, m0, c0) = (hits.get(), memo_hits.get(), computations.get());

        assert_eq!(c.run("/e", b"{}", WAIT, || ok("a")).1, Outcome::Computed);
        assert_eq!(c.memo_len(), 0);
        assert_eq!(c.run("/e", b"{}", WAIT, || ok("a")).1, Outcome::Computed);
        assert_eq!(c.memo_len(), 1, "the second computation of a key is kept");
        assert_eq!(c.memo_bytes(), "/e".len() + 1 + "{}".len() + "a".len());
        for _ in 0..3 {
            let (v, outcome) = c.run("/e", b"{}", WAIT, || panic!("a kept key never computes"));
            assert_eq!((body_of(v).as_deref(), outcome), (Some("a"), Outcome::Coalesced));
        }
        assert_eq!(c.inflight_len(), 0);
        assert_eq!(computations.get() - c0, 2);
        assert_eq!(hits.get() - h0, 3);
        assert_eq!(memo_hits.get() - m0, 3);
    }

    #[test]
    fn concurrent_identical_requests_share_one_computation() {
        let c = Arc::new(coalescer("concurrent"));
        let computations = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (c, computations, barrier) =
                    (Arc::clone(&c), Arc::clone(&computations), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    c.run("/e", b"same", Duration::from_secs(10), || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Hold the slot open long enough that siblings
                        // arrive while the computation is in flight.
                        std::thread::sleep(Duration::from_millis(50));
                        ok("7")
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let computed = results.iter().filter(|(_, o)| *o == Outcome::Computed).count();
        let coalesced = results.iter().filter(|(_, o)| *o == Outcome::Coalesced).count();
        assert!(results.iter().all(|(v, _)| v.as_ref().map(|r| r.body.as_str()) == Some("7")));
        assert_eq!(computed, computations.load(Ordering::SeqCst));
        assert!(computed < 8, "at least one request must coalesce");
        assert_eq!(computed + coalesced, 8);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let c = coalescer("distinct");
        for _ in 0..3 {
            let (a, oa) = c.run("/e", b"a", WAIT, || ok("1"));
            let (b, ob) = c.run("/e", b"b", WAIT, || ok("2"));
            assert_eq!(body_of(a).as_deref(), Some("1"), "{oa:?}");
            assert_eq!(body_of(b).as_deref(), Some("2"), "{ob:?}");
        }
    }

    #[test]
    fn the_same_body_on_two_endpoints_never_shares_a_slot() {
        let c = coalescer("endpoints");
        let body = br#"{"clusters":16,"parameter":"lambda","values":[1e-4]}"#;
        // The separator keeps an endpoint suffix from sliding into the
        // body: ("/a", "b{}") and ("/ab", "{}") are different keys.
        let requests: [(&str, &[u8]); 4] =
            [("/v1/evaluate", body), ("/v1/sweep", body), ("/a", b"b{}"), ("/ab", b"{}")];
        for (endpoint, body) in requests {
            for _ in 0..2 {
                let (v, outcome) = c.run(endpoint, body, WAIT, || ok(endpoint));
                assert_eq!((body_of(v).as_deref(), outcome), (Some(endpoint), Outcome::Computed));
            }
        }
        assert_eq!(c.memo_len(), 4, "one kept response per endpoint");
        for (endpoint, body) in requests {
            let (v, outcome) = c.run(endpoint, body, WAIT, || panic!("{endpoint} was kept"));
            assert_eq!((body_of(v).as_deref(), outcome), (Some(endpoint), Outcome::Coalesced));
        }
    }

    #[test]
    fn only_repeated_200s_are_kept() {
        let c = coalescer("status");
        for status in [400, 422, 500, 503] {
            let body = format!("{status}");
            for _ in 0..3 {
                let (_, outcome) = c.run("/e", body.as_bytes(), WAIT, || Response {
                    status,
                    content_type: "application/json",
                    retry_after_s: None,
                    body: body.clone(),
                });
                assert_eq!(outcome, Outcome::Computed, "a {status} is never answered from memory");
            }
        }
        assert_eq!(c.memo_len(), 0);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn the_byte_budget_evicts_oldest_first_and_is_never_exceeded() {
        let c = coalescer("budget");
        let body = "x".repeat(60 * 1024);
        let key = |i: usize| format!("{{\"k\":{i}}}");
        let charge = "/e".len() + 1 + key(0).len() + body.len();
        let fits = MEMO_BYTES / charge;
        assert!((2..8).contains(&fits), "the test needs a few entries to fit");
        for i in 0..fits + 2 {
            for _ in 0..2 {
                c.run("/e", key(i).as_bytes(), WAIT, || ok(&body));
                assert!(c.memo_bytes() <= MEMO_BYTES);
            }
        }
        assert_eq!(c.memo_len(), fits);
        assert_eq!(c.memo_bytes(), fits * charge);
        // The newest `fits` keys answer from memory, newest first so no
        // recomputation evicts a key before it is checked ...
        for i in (2..fits + 2).rev() {
            let (_, outcome) = c.run("/e", key(i).as_bytes(), WAIT, || panic!("key {i} was kept"));
            assert_eq!(outcome, Outcome::Coalesced);
        }
        // ... and the two oldest were evicted.
        for i in 0..2 {
            assert_eq!(c.run("/e", key(i).as_bytes(), WAIT, || ok(&body)).1, Outcome::Computed);
        }
    }

    #[test]
    fn a_response_larger_than_the_budget_is_never_kept() {
        let c = coalescer("oversize");
        let small = "s".repeat(1024);
        for _ in 0..2 {
            c.run("/e", b"small", WAIT, || ok(&small));
        }
        let huge = "h".repeat(MEMO_BYTES);
        for _ in 0..3 {
            let (v, outcome) = c.run("/e", b"huge", WAIT, || ok(&huge));
            assert_eq!(outcome, Outcome::Computed);
            assert_eq!(v.map(|r| r.body.len()), Some(MEMO_BYTES));
        }
        assert_eq!(c.memo_len(), 1, "the oversize response evicted nothing");
        assert_eq!(c.run("/e", b"small", WAIT, || panic!("kept")).1, Outcome::Coalesced);
    }

    #[test]
    fn followers_time_out_rather_than_hang() {
        let c = Arc::new(coalescer("timeout"));
        // Lead the key once so the slow leader below is admitted: only
        // its own 200 may be kept, never the follower's timeout.
        c.run("/e", b"slow", WAIT, || ok("1"));
        let barrier = Arc::new(Barrier::new(2));
        let leader = {
            let (c, barrier) = (Arc::clone(&c), Arc::clone(&barrier));
            std::thread::spawn(move || {
                c.run("/e", b"slow", Duration::from_secs(10), || {
                    barrier.wait(); // follower is about to join
                    std::thread::sleep(Duration::from_millis(300));
                    ok("1")
                })
            })
        };
        barrier.wait();
        // Give the leader's entry a moment to be observable, then join
        // with a budget far shorter than the leader's compute time.
        std::thread::sleep(Duration::from_millis(20));
        let (v, outcome) = c.run("/e", b"slow", Duration::from_millis(30), || ok("2"));
        assert_eq!(outcome, Outcome::TimedOut);
        assert_eq!(v, None);
        assert_eq!((c.inflight_len(), c.memo_len()), (1, 0), "a timeout leaves no entry");
        let (lv, lo) = leader.join().unwrap();
        assert_eq!((body_of(lv).as_deref(), lo), (Some("1"), Outcome::Computed));
        assert_eq!((c.inflight_len(), c.memo_len()), (0, 1));
    }

    #[test]
    fn panicking_leader_is_not_counted_as_a_computation() {
        // Regression: the computation counter used to be incremented
        // *before* running `compute`, so a panicking leader inflated
        // it and `computations + hits == requests` drifted under
        // faults. Only completed computations may count.
        let c = Arc::new(coalescer("panic"));
        let computations = c.computations;
        let before = computations.get();
        let doomed = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.run("/e", b"panics", WAIT, || -> Response { panic!("fault injection") })
            })
        };
        assert!(doomed.join().is_err(), "leader panicked by design");
        assert_eq!(
            computations.get(),
            before,
            "a panicking leader must not count as a completed computation"
        );
        // A successful run afterwards counts exactly once.
        let (v, _) = c.run("/e", b"panics", WAIT, || ok("5"));
        assert_eq!(body_of(v).as_deref(), Some("5"));
        assert_eq!(computations.get(), before + 1);
    }

    #[test]
    fn panicking_leader_abandons_the_slot() {
        let c = Arc::new(coalescer("abandon"));
        // Lead the key once so the doomed leader is admitted: a panic
        // must still leave nothing behind.
        c.run("/e", b"doomed", WAIT, || ok("0"));
        let barrier = Arc::new(Barrier::new(2));
        let leader = {
            let (c, barrier) = (Arc::clone(&c), Arc::clone(&barrier));
            std::thread::spawn(move || {
                c.run("/e", b"doomed", WAIT, || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("computation failed");
                })
            })
        };
        barrier.wait();
        std::thread::sleep(Duration::from_millis(10));
        let (v, outcome) = c.run("/e", b"doomed", Duration::from_secs(5), || ok("3"));
        let v = body_of(v);
        // Either we joined the doomed slot and saw it abandoned, or we
        // arrived after cleanup and computed fresh.
        assert!(
            (v.is_none() && outcome == Outcome::TimedOut)
                || (v.as_deref() == Some("3") && outcome == Outcome::Computed),
            "unexpected outcome: {v:?} {outcome:?}"
        );
        assert!(leader.join().is_err(), "leader panicked by design");
        // The slot must not leak: a new identical request computes
        // fresh (unless the one above already did and was kept).
        let (v2, o2) = c.run("/e", b"doomed", WAIT, || ok("4"));
        match outcome {
            Outcome::TimedOut => {
                assert_eq!((body_of(v2).as_deref(), o2), (Some("4"), Outcome::Computed))
            }
            _ => assert_eq!((body_of(v2).as_deref(), o2), (Some("3"), Outcome::Coalesced)),
        }
        assert_eq!(c.inflight_len(), 0);
    }
}
