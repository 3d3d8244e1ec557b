//! The event loop.
//!
//! A [`Model`] owns all simulation state and processes one event at a
//! time; the [`Engine`] advances the clock, dispatches events, and
//! enforces stop conditions. Follow-up events are scheduled through the
//! [`Scheduler`], which wraps the future-event list.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Scheduling interface handed to the model while it processes an event.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    events_scheduled: u64,
    peak_pending: usize,
}

impl<E> Scheduler<E> {
    fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            queue: EventQueue::with_capacity(capacity),
            events_scheduled: 0,
            peak_pending: 0,
        }
    }

    /// Grows the future-event list to hold at least `additional` more
    /// pending events without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Drops all pending events and zeroes
    /// the lifetime counters, so a reused scheduler behaves exactly like
    /// a fresh one while keeping the event list's storage warm.
    fn reset(&mut self) {
        self.queue.reset();
        self.events_scheduled = 0;
        self.peak_pending = 0;
    }

    /// Schedules `event` at the absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.events_scheduled += 1;
        self.queue.push(at, event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimTime, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Number of events scheduled so far (lifetime counter).
    pub fn events_scheduled(&self) -> u64 {
        self.events_scheduled
    }

    /// Number of currently pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Largest number of simultaneously pending events seen so far —
    /// the high-water mark of the future-event list.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }
}

/// A simulation model: state plus an event handler.
pub trait Model {
    /// The event payload type.
    type Event;

    /// Processes one event at simulation time `now`. Follow-up events go
    /// through `scheduler`.
    fn handle(&mut self, now: SimTime, event: Self::Event, scheduler: &mut Scheduler<Self::Event>);
}

/// Reason the engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future-event list drained.
    Exhausted,
    /// The configured event budget was reached.
    EventLimit,
    /// The configured time horizon was reached (the offending event is
    /// left unprocessed).
    TimeLimit,
    /// The model's stop predicate returned true.
    Predicate,
}

/// The DES event loop driving a [`Model`].
#[derive(Debug)]
pub struct Engine<M: Model> {
    model: M,
    scheduler: Scheduler<M::Event>,
    now: SimTime,
    events_processed: u64,
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero with an empty event list.
    pub fn new(model: M) -> Self {
        Self::with_capacity(model, 0)
    }

    /// Creates an engine whose future-event list is pre-sized for
    /// `capacity` pending events, so a run with a known peak event
    /// population (e.g. one think-time event per traffic source)
    /// never reallocates the event list.
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Engine {
            model,
            scheduler: Scheduler::with_capacity(capacity),
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Rewinds the engine to time zero with an empty event list and
    /// zeroed counters, keeping the model and the event-list storage.
    /// The caller is responsible for resetting the model's own state;
    /// after that, a reused engine reproduces a fresh engine exactly.
    pub fn reset(&mut self) {
        self.scheduler.reset();
        self.now = SimTime::ZERO;
        self.events_processed = 0;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to read statistics out).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Immutable access to the scheduler (e.g. to read its counters).
    pub fn scheduler(&self) -> &Scheduler<M::Event> {
        &self.scheduler
    }

    /// Mutable access to the scheduler (e.g. to seed initial events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.scheduler
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Processes a single event. Returns `false` when the event list is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.scheduler.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "time must not run backwards");
                self.now = time;
                self.events_processed += 1;
                self.model.handle(time, event, &mut self.scheduler);
                true
            }
            None => false,
        }
    }

    /// Runs until the event list drains.
    pub fn run_to_completion(&mut self) -> StopReason {
        while self.step() {}
        StopReason::Exhausted
    }

    /// Runs until the event list drains, `max_events` have been
    /// processed, the clock would pass `horizon`, or `stop(model)`
    /// becomes true (checked after each event).
    pub fn run_until(
        &mut self,
        max_events: Option<u64>,
        horizon: Option<SimTime>,
        mut stop: impl FnMut(&M) -> bool,
    ) -> StopReason {
        loop {
            if let Some(limit) = max_events {
                if self.events_processed >= limit {
                    return StopReason::EventLimit;
                }
            }
            if let Some(h) = horizon {
                match self.scheduler.queue.peek_time() {
                    Some(t) if t > h => return StopReason::TimeLimit,
                    _ => {}
                }
            }
            if !self.step() {
                return StopReason::Exhausted;
            }
            if stop(&self.model) {
                return StopReason::Predicate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model producing a chain of events with a fixed spacing.
    struct Chain {
        remaining: u32,
        spacing: SimTime,
        fired_at: Vec<SimTime>,
    }

    impl Model for Chain {
        type Event = ();
        fn handle(&mut self, now: SimTime, _e: (), s: &mut Scheduler<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                s.schedule_in(now, self.spacing, ());
            }
        }
    }

    fn chain(n: u32) -> Engine<Chain> {
        let mut e = Engine::new(Chain {
            remaining: n,
            spacing: SimTime::from_us(10.0),
            fired_at: Vec::new(),
        });
        e.scheduler_mut().schedule_at(SimTime::ZERO, ());
        e
    }

    #[test]
    fn runs_to_completion() {
        let mut e = chain(4);
        assert_eq!(e.run_to_completion(), StopReason::Exhausted);
        assert_eq!(e.events_processed(), 5);
        assert_eq!(e.now(), SimTime::from_us(40.0));
        assert_eq!(e.model().fired_at.len(), 5);
    }

    #[test]
    fn event_limit_stops_early() {
        let mut e = chain(100);
        assert_eq!(e.run_until(Some(3), None, |_| false), StopReason::EventLimit);
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn time_horizon_leaves_future_events_unprocessed() {
        let mut e = chain(100);
        assert_eq!(
            e.run_until(None, Some(SimTime::from_us(25.0)), |_| false),
            StopReason::TimeLimit
        );
        // Events at 0, 10, 20 fire; 30 is beyond the horizon.
        assert_eq!(e.events_processed(), 3);
        assert_eq!(e.now(), SimTime::from_us(20.0));
        assert_eq!(e.scheduler_mut().pending(), 1);
    }

    #[test]
    fn predicate_stops_the_run() {
        let mut e = chain(100);
        let reason = e.run_until(None, None, |m| m.fired_at.len() >= 7);
        assert_eq!(reason, StopReason::Predicate);
        assert_eq!(e.model().fired_at.len(), 7);
    }

    #[test]
    fn empty_engine_exhausts_immediately() {
        let mut e =
            Engine::new(Chain { remaining: 0, spacing: SimTime::ZERO, fired_at: Vec::new() });
        assert_eq!(e.run_to_completion(), StopReason::Exhausted);
        assert!(!e.step());
        assert_eq!(e.events_processed(), 0);
    }

    #[test]
    fn scheduler_counters() {
        let mut e = chain(2);
        e.run_to_completion();
        assert_eq!(e.scheduler_mut().events_scheduled(), 3);
        assert_eq!(e.scheduler_mut().pending(), 0);
        // The chain never holds more than one pending event at a time.
        assert_eq!(e.scheduler().peak_pending(), 1);
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut e =
            Engine::new(Chain { remaining: 0, spacing: SimTime::ZERO, fired_at: Vec::new() });
        for i in 0..5 {
            e.scheduler_mut().schedule_at(SimTime::from_us(i as f64), ());
        }
        assert_eq!(e.scheduler().peak_pending(), 5);
        e.run_to_completion();
        assert_eq!(e.scheduler().pending(), 0);
        assert_eq!(e.scheduler().peak_pending(), 5, "peak survives the drain");
    }

    #[test]
    fn with_capacity_and_reset_reproduce_a_fresh_run() {
        let model =
            |n| Chain { remaining: n, spacing: SimTime::from_us(10.0), fired_at: Vec::new() };
        let mut fresh = Engine::new(model(4));
        fresh.scheduler_mut().schedule_at(SimTime::ZERO, ());
        fresh.run_to_completion();

        let mut reused = Engine::with_capacity(model(4), 8);
        reused.scheduler_mut().schedule_at(SimTime::ZERO, ());
        reused.run_to_completion();
        // Rewind the engine, restore the model, and run again.
        reused.reset();
        *reused.model_mut() = model(4);
        reused.scheduler_mut().schedule_at(SimTime::ZERO, ());
        reused.run_to_completion();

        assert_eq!(reused.now(), fresh.now());
        assert_eq!(reused.events_processed(), fresh.events_processed());
        assert_eq!(reused.model().fired_at, fresh.model().fired_at);
        assert_eq!(reused.scheduler().events_scheduled(), fresh.scheduler().events_scheduled());
        assert_eq!(reused.scheduler().peak_pending(), fresh.scheduler().peak_pending());
    }

    /// One FCFS server fed by an arrival stream, plus departures that
    /// leave after a further delay. Delays are whole microseconds, so
    /// ties are common.
    struct Server {
        rng: u64,
        queued: u32,
        arrivals_left: u32,
        log: Vec<(SimTime, Job)>,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Job {
        Arrive,
        Done,
        Leave,
    }

    impl Server {
        fn new(arrivals: u32) -> Self {
            Server { rng: 0x2545F4914F6CDD1D, queued: 0, arrivals_left: arrivals, log: Vec::new() }
        }

        fn delay(&mut self, span: u64) -> SimTime {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            SimTime::from_us((self.rng % span) as f64)
        }
    }

    impl Model for Server {
        type Event = Job;
        fn handle(&mut self, now: SimTime, job: Job, s: &mut Scheduler<Job>) {
            self.log.push((now, job));
            match job {
                Job::Arrive => {
                    self.queued += 1;
                    if self.queued == 1 {
                        let d = self.delay(4);
                        s.schedule_in(now, d, Job::Done);
                    }
                    if self.arrivals_left > 0 {
                        self.arrivals_left -= 1;
                        let d = self.delay(6);
                        s.schedule_in(now, d, Job::Arrive);
                    }
                }
                Job::Done => {
                    self.queued -= 1;
                    let d = self.delay(10);
                    s.schedule_in(now, d, Job::Leave);
                    if self.queued > 0 {
                        let d = self.delay(4);
                        s.schedule_in(now, d, Job::Done);
                    }
                }
                Job::Leave => {}
            }
        }
    }

    fn server_engine(arrivals: u32) -> Engine<Server> {
        let mut e = Engine::with_capacity(Server::new(arrivals), 16);
        e.scheduler_mut().schedule_at(SimTime::ZERO, Job::Arrive);
        e
    }

    #[test]
    fn engine_reused_mid_run_via_reset_replays_a_fresh_one() {
        let mut fresh = server_engine(2_000);
        fresh.run_to_completion();
        let log = &fresh.model().log;
        assert_eq!(log.iter().filter(|(_, j)| *j == Job::Leave).count(), 2_001);
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "time ran backwards");
        let ties = log.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(ties > 500, "only {ties} ties");

        // Stop mid-run with events pending, rewind, and replay.
        let mut reused = server_engine(2_000);
        reused.run_until(Some(1_000), None, |_| false);
        assert!(reused.scheduler().pending() > 0);
        reused.reset();
        assert_eq!(reused.scheduler().pending(), 0);
        *reused.model_mut() = Server::new(2_000);
        reused.scheduler_mut().schedule_at(SimTime::ZERO, Job::Arrive);
        reused.run_to_completion();

        assert_eq!(reused.model().log, fresh.model().log);
        assert_eq!(reused.now(), fresh.now());
        assert_eq!(reused.events_processed(), fresh.events_processed());
        assert_eq!(reused.scheduler().events_scheduled(), fresh.scheduler().events_scheduled());
        assert_eq!(reused.scheduler().peak_pending(), fresh.scheduler().peak_pending());
    }

    #[test]
    fn scheduler_reserve_grows_the_event_list() {
        let mut e =
            Engine::new(Chain { remaining: 0, spacing: SimTime::ZERO, fired_at: Vec::new() });
        e.scheduler_mut().reserve(64);
        for i in 0..64 {
            e.scheduler_mut().schedule_at(SimTime::from_us(i as f64), ());
        }
        assert_eq!(e.scheduler().pending(), 64);
    }

    #[test]
    fn into_model_returns_state() {
        let mut e = chain(1);
        e.run_to_completion();
        let m = e.into_model();
        assert_eq!(m.fired_at, vec![SimTime::ZERO, SimTime::from_us(10.0)]);
    }
}
