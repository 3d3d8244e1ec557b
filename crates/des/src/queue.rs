//! An instrumented FCFS queue with `c` identical servers.
//!
//! Each of the paper's communication networks (ICN1, ECN1, ICN2) behaves
//! as a single server with a FIFO queue: a message arriving at a busy
//! network waits; service times are drawn by the caller (exponential in
//! the paper's model). A fat-tree pod of parallel switches is the same
//! queue with one server per switch. The component is engine-agnostic:
//! the caller decides what "time" is and schedules the completion
//! events; the component tracks ordering and statistics.

use crate::stats::{OnlineStats, TimeWeighted};
use std::collections::VecDeque;

/// What the caller must do after notifying the queue of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceDirective<T> {
    /// Start serving this customer now (schedule its completion).
    StartService(T),
    /// Nothing to do (customer queued behind others, or queue empty).
    Idle,
}

/// An FCFS queue with `servers` identical servers and waiting-time,
/// queue-length and busy-server instrumentation.
///
/// [`FcfsServer::complete`] returns the **longest-serving** customer.
/// With one server that is simply the customer in service. With more,
/// the identification is exact only when every service at this queue
/// has the same deterministic duration (the packet simulator's case,
/// where every hop costs `α_sw + M·β`); for heterogeneous service times
/// use one single-server queue per server instead.
#[derive(Debug, Clone)]
pub struct FcfsServer<T> {
    servers: u32,
    /// Customers present with their arrival times, in arrival order;
    /// the first `min(len, servers)` are in service.
    present: VecDeque<(T, f64)>,
    waiting_times: OnlineStats,
    queue_length: TimeWeighted,
    busy_area: TimeWeighted,
    arrivals: u64,
    departures: u64,
    instrumented: bool,
}

impl<T: Clone> FcfsServer<T> {
    /// Creates an idle, empty queue with `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "an FCFS queue needs at least one server");
        FcfsServer {
            servers,
            present: VecDeque::new(),
            waiting_times: OnlineStats::new(),
            queue_length: TimeWeighted::new(),
            busy_area: TimeWeighted::new(),
            arrivals: 0,
            departures: 0,
            instrumented: true,
        }
    }

    /// Switches the per-event statistics (waiting times, time-weighted
    /// queue length, busy area) on or off. With instrumentation off the
    /// queueing *behaviour* is unchanged — directives, ordering, and
    /// arrival/departure counts stay exact — but
    /// [`FcfsServer::waiting_time_stats`],
    /// [`FcfsServer::mean_number_in_system`] and
    /// [`FcfsServer::utilization`] report empty/zero. Callers that only
    /// read latency means can turn it off to drop two time-weighted
    /// updates per event from the hot path. Survives [`FcfsServer::reset`].
    pub fn set_instrumented(&mut self, instrumented: bool) {
        self.instrumented = instrumented;
    }

    /// Server count.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Number of customers present (waiting + in service).
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True when no customer is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A customer arrives at `now`. If a server is free the caller
    /// receives `StartService` and must schedule the completion.
    pub fn arrive(&mut self, now: f64, customer: T) -> ServiceDirective<T> {
        self.arrivals += 1;
        let directive = if self.present.len() < self.servers as usize {
            if self.instrumented {
                self.waiting_times.record(0.0);
            }
            ServiceDirective::StartService(customer.clone())
        } else {
            ServiceDirective::Idle
        };
        self.present.push_back((customer, now));
        self.record_state(now);
        directive
    }

    /// The longest-serving customer completes at `now`; returns it and,
    /// if someone was waiting, the next customer to start serving on
    /// the freed server.
    ///
    /// # Panics
    ///
    /// Panics if no server was busy (a completion without a service is
    /// a simulation logic error).
    pub fn complete(&mut self, now: f64) -> (T, ServiceDirective<T>) {
        let (done, _) = self.present.pop_front().expect("completion on an idle server");
        self.departures += 1;
        let directive = match self.present.get(self.servers as usize - 1) {
            Some((next, arrived)) => {
                if self.instrumented {
                    self.waiting_times.record(now - arrived);
                }
                ServiceDirective::StartService(next.clone())
            }
            None => ServiceDirective::Idle,
        };
        self.record_state(now);
        (done, directive)
    }

    fn record_state(&mut self, now: f64) {
        if !self.instrumented {
            return;
        }
        self.queue_length.update(now, self.len() as f64);
        self.busy_area.update(now, self.present.len().min(self.servers as usize) as f64);
    }

    /// Returns the queue to its just-constructed state (same server
    /// count) while keeping the deque's storage, so a reused queue
    /// behaves exactly like a fresh one without reallocating.
    pub fn reset(&mut self) {
        self.present.clear();
        self.waiting_times = OnlineStats::new();
        self.queue_length = TimeWeighted::new();
        self.busy_area = TimeWeighted::new();
        self.arrivals = 0;
        self.departures = 0;
    }

    /// Statistics of time spent waiting before service starts.
    pub fn waiting_time_stats(&self) -> &OnlineStats {
        &self.waiting_times
    }

    /// Time-weighted mean number in system up to `now`.
    pub fn mean_number_in_system(&self, now: f64) -> f64 {
        self.queue_length.mean_until(now)
    }

    /// Time-weighted mean number of busy servers up to `now`, divided
    /// by the server count: the fraction of time a server was busy.
    pub fn utilization(&self, now: f64) -> f64 {
        self.busy_area.mean_until(now) / f64::from(self.servers)
    }

    /// Total arrivals so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total service completions so far.
    pub fn departures(&self) -> u64 {
        self.departures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s: FcfsServer<u32> = FcfsServer::new(1);
        assert_eq!(s.arrive(0.0, 1), ServiceDirective::StartService(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s: FcfsServer<u32> = FcfsServer::new(1);
        s.arrive(0.0, 1);
        assert_eq!(s.arrive(1.0, 2), ServiceDirective::Idle);
        assert_eq!(s.arrive(2.0, 3), ServiceDirective::Idle);
        assert_eq!(s.len(), 3);
        let (done, next) = s.complete(5.0);
        assert_eq!(done, 1);
        assert_eq!(next, ServiceDirective::StartService(2));
        let (done, next) = s.complete(9.0);
        assert_eq!(done, 2);
        assert_eq!(next, ServiceDirective::StartService(3));
        let (done, next) = s.complete(12.0);
        assert_eq!(done, 3);
        assert_eq!(next, ServiceDirective::Idle);
        assert!(s.is_empty());
    }

    #[test]
    fn waiting_times_are_tracked() {
        let mut s: FcfsServer<u32> = FcfsServer::new(1);
        s.arrive(0.0, 1); // waits 0
        s.arrive(1.0, 2); // served at 5 => waited 4
        s.complete(5.0);
        s.complete(8.0);
        let w = s.waiting_time_stats();
        assert_eq!(w.count(), 2);
        assert!((w.mean() - 2.0).abs() < 1e-12);
        assert_eq!(w.max(), Some(4.0));
    }

    #[test]
    fn utilization_and_queue_length() {
        let mut s: FcfsServer<u32> = FcfsServer::new(1);
        s.arrive(0.0, 1);
        s.complete(4.0); // busy [0,4]
                         // idle [4,10]
        s.arrive(10.0, 2);
        s.complete(12.0); // busy [10,12]
        assert!((s.utilization(20.0) - 6.0 / 20.0).abs() < 1e-12);
        assert!((s.mean_number_in_system(20.0) - 6.0 / 20.0).abs() < 1e-12);
        assert_eq!(s.arrivals(), 2);
        assert_eq!(s.departures(), 2);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn completion_on_idle_server_is_a_bug() {
        let mut s: FcfsServer<u32> = FcfsServer::new(3);
        s.complete(1.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_capacity_rejected() {
        let _: FcfsServer<u32> = FcfsServer::new(0);
    }

    #[test]
    fn parallel_servers_admit_up_to_capacity() {
        let mut q: FcfsServer<u32> = FcfsServer::new(2);
        assert_eq!(q.servers(), 2);
        assert_eq!(q.arrive(0.0, 1), ServiceDirective::StartService(1));
        assert_eq!(q.arrive(0.0, 2), ServiceDirective::StartService(2));
        assert_eq!(q.arrive(0.0, 3), ServiceDirective::Idle);
        assert_eq!(q.len(), 3);
        // The freed server takes the head waiter, which waited 4.
        assert_eq!(q.complete(4.0), (1, ServiceDirective::StartService(3)));
        assert_eq!(q.waiting_time_stats().max(), Some(4.0));
    }

    #[test]
    fn parallel_completions_pop_in_start_order() {
        let mut q: FcfsServer<u32> = FcfsServer::new(3);
        q.arrive(0.0, 10);
        q.arrive(1.0, 11);
        q.arrive(2.0, 12);
        // Deterministic equal service: starts at 0, 1, 2 complete in
        // the same order.
        assert_eq!(q.complete(4.0).0, 10);
        assert_eq!(q.complete(5.0).0, 11);
        assert_eq!(q.complete(6.0).0, 12);
    }

    #[test]
    fn occupancy_time_average() {
        let mut q: FcfsServer<u32> = FcfsServer::new(2);
        q.arrive(0.0, 1);
        q.arrive(0.0, 2);
        q.arrive(5.0, 3);
        q.complete(10.0);
        q.complete(10.0);
        q.complete(15.0);
        // Present: 2 on [0,5], 3 on [5,10], 1 on [10,15], 0 on [15,20]:
        // mean (10 + 15 + 5) / 20 = 1.5. Busy servers: 2 on [0,10], 1 on
        // [10,15]: mean 25 / 20 over 2 servers = 0.625.
        assert!((q.mean_number_in_system(20.0) - 1.5).abs() < 1e-12);
        assert!((q.utilization(20.0) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        for servers in [1, 2] {
            let mut s: FcfsServer<u32> = FcfsServer::new(servers);
            s.arrive(0.0, 1);
            s.arrive(1.0, 2);
            s.arrive(1.0, 3);
            s.complete(5.0);
            s.reset();
            assert!(s.is_empty());
            assert_eq!(s.servers(), servers);
            assert_eq!(s.arrivals(), 0);
            assert_eq!(s.departures(), 0);
            assert_eq!(s.waiting_time_stats().count(), 0);
            // A replayed history produces the same statistics as on a
            // fresh server.
            let mut fresh: FcfsServer<u32> = FcfsServer::new(servers);
            for q in [&mut s, &mut fresh] {
                q.arrive(0.0, 1);
                q.arrive(1.0, 2);
                q.complete(5.0);
                q.complete(8.0);
            }
            assert_eq!(s.waiting_time_stats(), fresh.waiting_time_stats());
            assert_eq!(s.utilization(10.0).to_bits(), fresh.utilization(10.0).to_bits());
            assert_eq!(
                s.mean_number_in_system(10.0).to_bits(),
                fresh.mean_number_in_system(10.0).to_bits()
            );
        }
    }
}
