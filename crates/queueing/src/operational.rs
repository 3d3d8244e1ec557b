//! Operational laws (Denning & Buzen): distribution-free identities
//! that hold for *any* measured interval — the sanity-check layer
//! between the model and the simulators.
//!
//! Unlike the stochastic results elsewhere in this crate, operational
//! laws assume nothing about distributions; they are bookkeeping
//! identities on observed counts and times. The workspace uses them to
//! cross-check simulator instrumentation (utilization law), to bound
//! system throughput (bottleneck analysis) and to reason about the
//! closed system the paper's assumption 4 creates (interactive response
//! time law — which *is* eq. 7 rearranged).

/// Utilization law: `U = X·S` (throughput × mean service time).
pub fn utilization(throughput: f64, mean_service_time: f64) -> f64 {
    throughput * mean_service_time
}

/// Little's law: `N = X·R`.
pub fn number_in_system(throughput: f64, mean_residence_time: f64) -> f64 {
    throughput * mean_residence_time
}

/// Interactive response time law: `R = N/X − Z` for `N` users with
/// think time `Z`. This is precisely the relation the paper's eq. 7
/// encodes: `λ_eff = X/N = 1/(Z + R)` with `Z = 1/λ`.
///
/// Returns `None` when `throughput` is not positive.
pub fn interactive_response_time(users: f64, throughput: f64, think_time: f64) -> Option<f64> {
    if throughput <= 0.0 {
        return None;
    }
    Some(users / throughput - think_time)
}

/// Asymptotic bounds on closed-system throughput for `n` users, total
/// demand `d_total = ΣD_k`, bottleneck demand `d_max` and think time
/// `z`:
///
/// `X(n) ≤ min(n/(d_total + z), 1/d_max)`.
pub fn throughput_upper_bound(users: f64, d_total: f64, d_max: f64, think_time: f64) -> f64 {
    (users / (d_total + think_time)).min(1.0 / d_max)
}

/// The population at which the two asymptotic throughput bounds cross,
/// `N* = (d_total + z)/d_max` — beyond it the bottleneck saturates.
pub fn saturation_population(d_total: f64, d_max: f64, think_time: f64) -> f64 {
    (d_total + think_time) / d_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed::{mva, MvaStation};

    #[test]
    fn utilization_law_example() {
        // 50 jobs/s at 15 ms each => 75% busy.
        assert!((utilization(50.0, 0.015) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn littles_law_identity() {
        assert!((number_in_system(2.0, 3.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn interactive_law_matches_eq7_shape() {
        // N = 256 users, think 1/lambda = 4000 µs, X = 256*2.2e-5:
        // R = N/X - Z.
        let users = 256.0;
        let x = 256.0 * 2.2e-5;
        let z = 4000.0;
        let r = interactive_response_time(users, x, z).unwrap();
        // lambda_eff = 1/(Z+R) must equal X/N.
        let lambda_eff = 1.0 / (z + r);
        assert!((lambda_eff - x / users).abs() < 1e-12);
        assert_eq!(interactive_response_time(1.0, 0.0, 1.0), None);
    }

    #[test]
    fn bounds_envelope_exact_mva() {
        let stations = [
            MvaStation::Delay { demand: 10.0 },
            MvaStation::Queueing { demand: 2.0 },
            MvaStation::Queueing { demand: 1.0 },
        ];
        let (d_total, d_max, z) = (3.0, 2.0, 10.0);
        for n in [1u32, 2, 5, 10, 50] {
            let exact = mva(&stations, n).unwrap().throughput;
            let bound = throughput_upper_bound(n as f64, d_total, d_max, z);
            assert!(exact <= bound + 1e-9, "n={n}: {exact} > {bound}");
        }
        // Far past saturation the bound is tight.
        let exact = mva(&stations, 200).unwrap().throughput;
        assert!((exact - 0.5).abs() < 1e-6);
    }

    #[test]
    fn saturation_population_marks_the_knee() {
        let nstar = saturation_population(3.0, 2.0, 10.0);
        assert!((nstar - 6.5).abs() < 1e-12);
        // Below N*: throughput ~ linear in n. Above: flat.
        let stations = [
            MvaStation::Delay { demand: 10.0 },
            MvaStation::Queueing { demand: 2.0 },
            MvaStation::Queueing { demand: 1.0 },
        ];
        let x3 = mva(&stations, 3).unwrap().throughput;
        let x30 = mva(&stations, 30).unwrap().throughput;
        assert!(x3 < 0.5 * 0.95, "well below saturation");
        assert!((x30 - 0.5).abs() < 0.01, "saturated at 1/d_max");
    }
}
