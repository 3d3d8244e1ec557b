//! Property-based tests for the queueing-theory substrate.

use hmcs_queueing::closed::{mva, MachineRepairman, MvaStation};
use hmcs_queueing::mg1::{ServiceDistribution, MG1};
use proptest::prelude::*;

proptest! {
    /// M/G/1 waiting time is linear in the SCV (P–K formula structure).
    #[test]
    fn mg1_scv_ordering(lambda in 0.05f64..0.9, scv_lo in 0.0f64..1.0, bump in 0.1f64..3.0) {
        let s_lo = ServiceDistribution::General { mean: 1.0, scv: scv_lo };
        let s_hi = ServiceDistribution::General { mean: 1.0, scv: scv_lo + bump };
        let w_lo = MG1::new(lambda, s_lo).unwrap().mean_waiting_time();
        let w_hi = MG1::new(lambda, s_hi).unwrap().mean_waiting_time();
        prop_assert!(w_hi > w_lo);
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
}
