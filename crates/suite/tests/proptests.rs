//! Property-based tests of the exact oracles: the M/M/1 queue, the
//! Jackson-network solver and its linear solver, and Theorem 1 by
//! max-flow on the explicit fat-tree graph.

use hmcs_suite::jackson::{JacksonNetwork, Station};
use hmcs_suite::linalg::{self, Matrix};
use hmcs_suite::mm1::MM1;
use hmcs_suite::{bisection, fat_tree};
use hmcs_topology::fat_tree::FatTree;
use hmcs_topology::switch::SwitchFabric;
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

    /// Fat-tree graphs are connected and satisfy Theorem 1 on
    /// boundary-aligned instances small enough for max-flow.
    #[test]
    fn fat_tree_full_bisection(pods in 1usize..8, half_ports in 2u32..8) {
        let sw = SwitchFabric::new(half_ports * 2, 10.0).unwrap();
        // Node count = pods * down-radix, and even, so halves align.
        let nodes = (pods * half_ports as usize).max(2) * 2 / 2 * 2;
        let nodes = nodes.max(2);
        let ft = FatTree::new(nodes, sw).unwrap();
        let g = fat_tree::build_graph(&ft);
        prop_assert!(g.is_connected());
        let report = bisection::analyze(&g, nodes);
        prop_assert!(
            report.has_full_bisection_bandwidth(),
            "nodes={} width={} target={}",
            nodes, report.bisection_width, report.full_bisection_target
        );
    }
}
