//! Property-based tests for the queueing-theory substrate.

use hmcs_queueing::closed::{mva, MachineRepairman, MvaStation};
use hmcs_queueing::jackson::{JacksonNetwork, Station};
use hmcs_queueing::linalg::{self, Matrix};
use hmcs_queueing::mg1::{ServiceDistribution, MG1};
use hmcs_queueing::mm1::MM1;
use hmcs_queueing::mmc::MMc;
use proptest::prelude::*;

proptest! {
    /// Little's law L = λW holds for every stable M/M/1.
    #[test]
    fn mm1_littles_law(lambda in 0.0f64..0.99, mu in 1.0f64..10.0) {
        prop_assume!(lambda < mu);
        let q = MM1::new(lambda, mu).unwrap();
        let resid = (q.mean_number_in_system() - lambda * q.mean_sojourn_time()).abs();
        prop_assert!(resid < 1e-6 * (1.0 + q.mean_number_in_system()));
    }

    /// Sojourn time is monotone increasing in λ and decreasing in µ.
    #[test]
    fn mm1_monotonicity(lambda in 0.01f64..0.9, mu in 1.0f64..5.0, eps in 0.001f64..0.05) {
        let w = MM1::new(lambda, mu).unwrap().mean_sojourn_time();
        let w_more_load = MM1::new(lambda + eps, mu).unwrap().mean_sojourn_time();
        let w_more_capacity = MM1::new(lambda, mu + eps).unwrap().mean_sojourn_time();
        prop_assert!(w_more_load > w);
        prop_assert!(w_more_capacity < w);
    }

    /// M/M/1 state probabilities are a valid distribution.
    #[test]
    fn mm1_state_probabilities_valid(lambda in 0.0f64..0.95) {
        let q = MM1::new(lambda, 1.0).unwrap();
        let mut total = 0.0;
        for n in 0..500 {
            let p = q.prob_n_in_system(n);
            prop_assert!((0.0..=1.0).contains(&p));
            total += p;
        }
        prop_assert!(total <= 1.0 + 1e-9);
    }

    /// Erlang C is a probability and M/M/c waiting time decreases with c.
    #[test]
    fn mmc_erlang_c_and_monotone(a in 0.1f64..6.0, c1 in 1u32..6) {
        let c2 = c1 + 1;
        // Keep both stable: need a < c1.
        prop_assume!(a < c1 as f64);
        let q1 = MMc::new(a, 1.0, c1).unwrap();
        let q2 = MMc::new(a, 1.0, c2).unwrap();
        prop_assert!((0.0..=1.0).contains(&q1.erlang_c()));
        prop_assert!(q2.mean_waiting_time() <= q1.mean_waiting_time() + 1e-12);
    }

    /// M/G/1 waiting time is linear in the SCV (P–K formula structure).
    #[test]
    fn mg1_scv_ordering(lambda in 0.05f64..0.9, scv_lo in 0.0f64..1.0, bump in 0.1f64..3.0) {
        let s_lo = ServiceDistribution::General { mean: 1.0, scv: scv_lo };
        let s_hi = ServiceDistribution::General { mean: 1.0, scv: scv_lo + bump };
        let w_lo = MG1::new(lambda, s_lo).unwrap().mean_waiting_time();
        let w_hi = MG1::new(lambda, s_hi).unwrap().mean_waiting_time();
        prop_assert!(w_hi > w_lo);
    }

    /// Jackson tandem of random length: every station sees the external
    /// rate; end-to-end time equals the sum of per-station M/M/1 times.
    #[test]
    fn jackson_tandem_consistency(
        gamma in 0.05f64..0.5,
        rates in prop::collection::vec(1.0f64..5.0, 1..6),
    ) {
        let n = rates.len();
        let mut stations = Vec::new();
        let mut routing = vec![vec![0.0; n]; n];
        for (i, &mu) in rates.iter().enumerate() {
            stations.push(Station::single(mu, if i == 0 { gamma } else { 0.0 }));
            if i + 1 < n {
                routing[i][i + 1] = 1.0;
            }
        }
        let net = JacksonNetwork::new(stations, routing).unwrap();
        let sol = net.solve().unwrap();
        let expect: f64 =
            rates.iter().map(|&mu| MM1::new(gamma, mu).unwrap().mean_sojourn_time()).sum();
        prop_assert!((sol.mean_time_in_network() - expect).abs() < 1e-8);
    }

    /// Traffic equations conserve flow: Σ exits = Σ external arrivals.
    #[test]
    fn jackson_flow_conservation(
        gammas in prop::collection::vec(0.0f64..0.3, 2..5),
        seed in 0u64..1000,
    ) {
        let n = gammas.len();
        // Deterministic pseudo-random substochastic routing.
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64)
        };
        let mut routing = vec![vec![0.0; n]; n];
        for row in routing.iter_mut() {
            let mut budget = 0.8; // keep exit probability >= 0.2
            for p in row.iter_mut() {
                let x = rnd() * budget * 0.5;
                *p = x;
                budget -= x;
            }
        }
        let stations: Vec<Station> =
            gammas.iter().map(|&g| Station::single(100.0, g)).collect();
        let net = JacksonNetwork::new(stations, routing.clone()).unwrap();
        let lambda = net.traffic_rates().unwrap();
        let external: f64 = gammas.iter().sum();
        let exits: f64 = (0..n)
            .map(|i| lambda[i] * (1.0 - routing[i].iter().sum::<f64>()))
            .sum();
        prop_assert!((external - exits).abs() < 1e-8 * (1.0 + external));
    }

    /// MVA conserves population and respects the bottleneck bound.
    #[test]
    fn mva_invariants(
        demands in prop::collection::vec(0.1f64..2.0, 1..5),
        think in 0.5f64..10.0,
        pop in 1u32..40,
    ) {
        let mut stations: Vec<MvaStation> =
            demands.iter().map(|&d| MvaStation::Queueing { demand: d }).collect();
        stations.push(MvaStation::Delay { demand: think });
        let sol = mva(&stations, pop).unwrap();
        let total: f64 = sol.queue_lengths.iter().sum();
        prop_assert!((total - pop as f64).abs() < 1e-6);
        let dmax = demands.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(sol.throughput <= 1.0 / dmax + 1e-9);
        let dsum: f64 = demands.iter().sum();
        prop_assert!(sol.throughput <= pop as f64 / (dsum + think) + 1e-9);
    }

    /// Machine repairman: utilization and throughput are monotone in the
    /// population.
    #[test]
    fn repairman_monotone_in_population(
        n in 1u32..60,
        think in 0.01f64..2.0,
        mu in 0.5f64..5.0,
    ) {
        let a = MachineRepairman::new(n, think, mu).unwrap().solve();
        let b = MachineRepairman::new(n + 1, think, mu).unwrap().solve();
        prop_assert!(b.utilization >= a.utilization - 1e-9);
        prop_assert!(b.throughput >= a.throughput - 1e-9);
    }

    /// The dense solver inverts well-conditioned diagonally dominant
    /// systems to high accuracy.
    #[test]
    fn linear_solver_accuracy(
        n in 1usize..10,
        seed in 0u64..10_000,
    ) {
        let mut s = seed.wrapping_add(7);
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rnd();
            }
            a[(i, i)] += n as f64 + 1.0;
        }
        let xtrue: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let b = a.mul_vec(&xtrue);
        let x = linalg::solve(a, b).unwrap();
        for (got, want) in x.iter().zip(&xtrue) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }
}
