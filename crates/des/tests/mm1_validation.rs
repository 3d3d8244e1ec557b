//! End-to-end kernel validation: simulate an M/M/1 queue with the DES
//! engine and compare against the exact closed forms. This is the same
//! validation pattern the paper applies to its analytical model (§6),
//! executed here on a system whose answer is known exactly.

use hmcs_des::engine::{Engine, Model, Scheduler};
use hmcs_des::queue::{FcfsServer, ServiceDirective};
use hmcs_des::rng::RngStream;
use hmcs_des::stats::OnlineStats;
use hmcs_des::time::SimTime;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    Departure,
}

struct MM1Sim {
    lambda: f64,
    mu: f64,
    arrivals_rng: RngStream,
    service_rng: RngStream,
    server: FcfsServer<u64>,
    next_id: u64,
    entered: std::collections::HashMap<u64, f64>,
    sojourns: OnlineStats,
    completed_limit: u64,
}

impl MM1Sim {
    fn new(lambda: f64, mu: f64, seed: u64, completed_limit: u64) -> Self {
        MM1Sim {
            lambda,
            mu,
            arrivals_rng: RngStream::new(seed, 0),
            service_rng: RngStream::new(seed, 1),
            server: FcfsServer::new(1),
            next_id: 0,
            entered: std::collections::HashMap::new(),
            sojourns: OnlineStats::new(),
            completed_limit,
        }
    }

    fn schedule_service(&mut self, now: SimTime, s: &mut Scheduler<Ev>) {
        let svc = self.service_rng.exponential(self.mu);
        s.schedule_in(now, SimTime::from_us(svc), Ev::Departure);
    }
}

impl Model for MM1Sim {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<Ev>) {
        match event {
            Ev::Arrival => {
                let id = self.next_id;
                self.next_id += 1;
                self.entered.insert(id, now.as_us());
                if let ServiceDirective::StartService(_) = self.server.arrive(now.as_us(), id) {
                    self.schedule_service(now, s);
                }
                // Next arrival (open Poisson source).
                let gap = self.arrivals_rng.exponential(self.lambda);
                s.schedule_in(now, SimTime::from_us(gap), Ev::Arrival);
            }
            Ev::Departure => {
                let (done, directive) = self.server.complete(now.as_us());
                let t0 = self.entered.remove(&done).expect("unknown customer");
                self.sojourns.record(now.as_us() - t0);
                if let ServiceDirective::StartService(_) = directive {
                    self.schedule_service(now, s);
                }
            }
        }
    }
}

fn run_mm1(lambda: f64, mu: f64, seed: u64, messages: u64) -> (f64, f64, f64) {
    let mut engine = Engine::new(MM1Sim::new(lambda, mu, seed, messages));
    engine.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Arrival);
    engine.run_until(None, None, |m| m.sojourns.count() >= m.completed_limit);
    let m = engine.model();
    let now = engine.now().as_us();
    (m.sojourns.mean(), m.server.utilization(now), m.server.mean_number_in_system(now))
}

#[test]
fn mm1_simulation_matches_theory_at_moderate_load() {
    // rho = 0.5: W = 1/(mu - lambda) = 2/mu.
    let (lambda, mu) = (0.005, 0.01); // per µs
    let (w, util, l) = run_mm1(lambda, mu, 42, 200_000);
    let w_theory = 1.0 / (mu - lambda);
    assert!((w - w_theory).abs() / w_theory < 0.03, "sojourn: sim {w:.1} vs theory {w_theory:.1}");
    assert!((util - 0.5).abs() < 0.02, "utilization {util}");
    let l_theory = 1.0; // rho/(1-rho)
    assert!((l - l_theory).abs() / l_theory < 0.05, "L: sim {l} vs 1.0");
}

#[test]
fn mm1_simulation_matches_theory_at_high_load() {
    // rho = 0.9: heavier correlation, wider tolerance.
    let (lambda, mu) = (0.009, 0.01);
    let (w, util, _) = run_mm1(lambda, mu, 7, 400_000);
    let w_theory = 1.0 / (mu - lambda);
    assert!((w - w_theory).abs() / w_theory < 0.08, "sojourn: sim {w:.1} vs theory {w_theory:.1}");
    assert!((util - 0.9).abs() < 0.02);
}

#[test]
fn mm1_results_are_seed_reproducible() {
    let a = run_mm1(0.004, 0.01, 99, 20_000);
    let b = run_mm1(0.004, 0.01, 99, 20_000);
    assert_eq!(a, b);
    let c = run_mm1(0.004, 0.01, 100, 20_000);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn littles_law_holds_in_simulation() {
    let (lambda, mu) = (0.006, 0.01);
    let mut engine = Engine::new(MM1Sim::new(lambda, mu, 5, 150_000));
    engine.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Arrival);
    engine.run_until(None, None, |m| m.sojourns.count() >= m.completed_limit);
    let now = engine.now().as_us();
    let m = engine.model();
    let l = m.server.mean_number_in_system(now);
    let throughput = m.server.departures() as f64 / now;
    let w = m.sojourns.mean();
    // L = X * W within sampling noise.
    assert!((l - throughput * w).abs() / l < 0.03, "L={l} X*W={}", throughput * w);
}
