//! Multi-server pod semantics the packet simulator relies on.
//!
//! A fat-tree pod of `c` parallel switches is an
//! [`hmcs_des::queue::FcfsServer`] with `c` servers; a linear-array
//! switch is a pod with one. These tests pin the pod behaviour the
//! packet simulator's event handling assumes.

#[cfg(test)]
mod tests {
    use hmcs_des::queue::{FcfsServer, ServiceDirective};

    #[test]
    fn completion_promotes_fifo_and_identifies_finisher() {
        let mut q: FcfsServer<u32> = FcfsServer::new(1);
        q.arrive(0.0, 1);
        q.arrive(1.0, 2);
        q.arrive(2.0, 3);
        assert_eq!(q.complete(5.0), (1, ServiceDirective::StartService(2)));
        assert_eq!(q.complete(8.0), (2, ServiceDirective::StartService(3)));
        assert_eq!(q.complete(9.0), (3, ServiceDirective::Idle));
        assert!(q.is_empty());
        // Waits: msg2 waited 4, msg3 waited 6.
        assert_eq!(q.waiting_time_stats().count(), 3);
        assert!((q.waiting_time_stats().mean() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_one_matches_single_server_semantics() {
        let mut q: FcfsServer<u32> = FcfsServer::new(1);
        assert_eq!(q.arrive(0.0, 7), ServiceDirective::StartService(7));
        assert_eq!(q.arrive(0.5, 8), ServiceDirective::Idle);
        assert_eq!(q.complete(1.0), (7, ServiceDirective::StartService(8)));
        assert_eq!(q.complete(2.0), (8, ServiceDirective::Idle));
        assert_eq!(q.departures(), 2);
        assert_eq!(q.arrivals(), 2);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn completion_when_idle_is_a_bug() {
        let mut q: FcfsServer<u32> = FcfsServer::new(3);
        q.complete(0.0);
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let mut q: FcfsServer<u32> = FcfsServer::new(2);
        q.arrive(0.0, 1);
        q.arrive(0.0, 2);
        q.arrive(1.0, 3);
        q.complete(4.0);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.servers(), 2);
        assert_eq!(q.arrivals(), 0);
        assert_eq!(q.departures(), 0);
        assert_eq!(q.waiting_time_stats().count(), 0);
        // A replayed history produces the same statistics as on a
        // fresh pod.
        let mut fresh: FcfsServer<u32> = FcfsServer::new(2);
        for s in [&mut q, &mut fresh] {
            s.arrive(0.0, 1);
            s.arrive(0.0, 2);
            s.complete(10.0);
            s.complete(10.0);
        }
        assert_eq!(q.waiting_time_stats(), fresh.waiting_time_stats());
        assert_eq!(
            q.mean_number_in_system(20.0).to_bits(),
            fresh.mean_number_in_system(20.0).to_bits()
        );
    }
}
