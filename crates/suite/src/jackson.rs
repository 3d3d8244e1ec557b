//! Open Jackson queueing networks.
//!
//! The ICPPW'05 model (Figure 2 of the paper) is a small open Jackson
//! network: processors inject Poisson traffic that is routed through the
//! ICN1/ECN1/ICN2 service centres with fixed probabilities. This module
//! provides the general machinery — traffic equations, product-form
//! station metrics, and end-to-end latency along a visit path — of which
//! the paper's closed-form rate equations (eqs. 1–5) are a special case.
//! The suite cross-checks the model's closed forms against this solver.

use crate::linalg::{self, Matrix};
use crate::mm1::{check_rate, MM1};
use hmcs_queueing::QueueingError;

/// Errors of the Jackson-network solver.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// A station's parameters are invalid or its queue is unstable.
    Queue(QueueingError),
    /// A routing matrix row had the wrong length, a negative or
    /// non-finite entry, or summed to more than one; or the traffic
    /// equations produced a negative rate.
    InvalidRouting {
        /// Index of the offending station (or row).
        station: usize,
        /// Description of the violation.
        reason: &'static str,
    },
    /// The traffic equations are singular (routing with no exit).
    SingularSystem,
}

impl From<QueueingError> for NetworkError {
    fn from(e: QueueingError) -> Self {
        NetworkError::Queue(e)
    }
}

/// A single-server exponential station of an open Jackson network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Station {
    /// Exponential service rate µ.
    pub service_rate: f64,
    /// External (Poisson) arrival rate γ entering the network at this
    /// station.
    pub external_arrival_rate: f64,
}

impl Station {
    /// A station serving at rate µ with external arrival rate γ.
    pub fn single(service_rate: f64, external_arrival_rate: f64) -> Self {
        Station { service_rate, external_arrival_rate }
    }
}

/// Steady-state metrics of one station in a solved network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationMetrics {
    /// Total (effective) arrival rate λᵢ from the traffic equations.
    pub arrival_rate: f64,
    /// Utilization ρᵢ.
    pub utilization: f64,
    /// Mean number of customers in the station (in queue + in service).
    pub mean_number_in_system: f64,
    /// Mean sojourn time per visit, `Wᵢ`.
    pub mean_sojourn_time: f64,
}

/// Solution of an open Jackson network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSolution {
    /// Per-station metrics, indexed like the input stations.
    pub stations: Vec<StationMetrics>,
    /// Total external arrival rate Λ = Σγᵢ.
    pub total_external_rate: f64,
}

impl NetworkSolution {
    /// Mean total number of customers in the network,
    /// `L = Σᵢ Lᵢ`.
    pub fn mean_number_in_network(&self) -> f64 {
        self.stations.iter().map(|s| s.mean_number_in_system).sum()
    }

    /// Mean time a customer spends in the network end-to-end, by
    /// Little's law: `W = L / Λ`. Returns 0 for an empty network.
    pub fn mean_time_in_network(&self) -> f64 {
        if self.total_external_rate == 0.0 {
            0.0
        } else {
            self.mean_number_in_network() / self.total_external_rate
        }
    }

    /// Expected latency along an explicit visit path, `Σ Wᵢ` over the
    /// listed station indices (stations may repeat — e.g. the paper's
    /// external path visits ECN1 twice).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn path_latency(&self, path: &[usize]) -> f64 {
        path.iter().map(|&i| self.stations[i].mean_sojourn_time).sum()
    }

    /// Expected latency averaged over a set of weighted paths
    /// (`(probability, path)` pairs). Weights need not sum to one; they
    /// are normalised. Returns 0 when all weights are zero.
    pub fn mixed_path_latency(&self, paths: &[(f64, &[usize])]) -> f64 {
        let total_w: f64 = paths.iter().map(|(w, _)| *w).sum();
        if total_w == 0.0 {
            return 0.0;
        }
        paths.iter().map(|(w, p)| w * self.path_latency(p)).sum::<f64>() / total_w
    }
}

/// An open Jackson network: `n` stations, external Poisson arrivals and a
/// substochastic routing matrix `R` where `R[i][j]` is the probability a
/// customer finishing at station `i` proceeds to station `j`
/// (`1 − Σⱼ R[i][j]` is the probability of leaving the network).
#[derive(Debug, Clone, PartialEq)]
pub struct JacksonNetwork {
    stations: Vec<Station>,
    routing: Vec<Vec<f64>>,
}

impl JacksonNetwork {
    /// Builds a network after validating rates and routing.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::Queue`] for an empty network or bad station
    ///   rates.
    /// * [`NetworkError::InvalidRouting`] if the matrix shape is wrong,
    ///   an entry is negative/non-finite, or a row sums to more than 1
    ///   (beyond rounding).
    pub fn new(stations: Vec<Station>, routing: Vec<Vec<f64>>) -> Result<Self, NetworkError> {
        let n = stations.len();
        if n == 0 {
            return Err(QueueingError::InvalidParameter {
                name: "stations",
                reason: "network must have at least one station",
            }
            .into());
        }
        for s in &stations {
            check_rate("service_rate", s.service_rate, true)?;
            check_rate("external_arrival_rate", s.external_arrival_rate, false)?;
        }
        if routing.len() != n {
            return Err(NetworkError::InvalidRouting {
                station: routing.len(),
                reason: "routing matrix must have one row per station",
            });
        }
        for (i, row) in routing.iter().enumerate() {
            if row.len() != n {
                return Err(NetworkError::InvalidRouting {
                    station: i,
                    reason: "routing row length must equal station count",
                });
            }
            let mut sum = 0.0;
            for &p in row {
                if !p.is_finite() || p < 0.0 {
                    return Err(NetworkError::InvalidRouting {
                        station: i,
                        reason: "routing probabilities must be finite and non-negative",
                    });
                }
                sum += p;
            }
            if sum > 1.0 + 1e-9 {
                return Err(NetworkError::InvalidRouting {
                    station: i,
                    reason: "routing row sums to more than 1",
                });
            }
        }
        Ok(JacksonNetwork { stations, routing })
    }

    /// Solves the traffic equations `λ = γ + Rᵀ·λ` for the effective
    /// per-station arrival rates.
    pub fn traffic_rates(&self) -> Result<Vec<f64>, NetworkError> {
        let n = self.stations.len();
        // (I - R^T) lambda = gamma
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] -= self.routing[j][i];
            }
        }
        let gamma: Vec<f64> = self.stations.iter().map(|s| s.external_arrival_rate).collect();
        let lambda = linalg::solve(a, gamma).ok_or(NetworkError::SingularSystem)?;
        for (i, &l) in lambda.iter().enumerate() {
            if l < -1e-9 {
                return Err(NetworkError::InvalidRouting {
                    station: i,
                    reason: "traffic equations produced a negative rate",
                });
            }
        }
        Ok(lambda.into_iter().map(|l| l.max(0.0)).collect())
    }

    /// Solves the network: traffic equations plus per-station M/M/1
    /// product-form metrics.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Queue`] wrapping [`QueueingError::Unstable`] if
    /// any station has ρᵢ ≥ 1.
    pub fn solve(&self) -> Result<NetworkSolution, NetworkError> {
        let lambda = self.traffic_rates()?;
        let mut metrics = Vec::with_capacity(self.stations.len());
        for (s, &l) in self.stations.iter().zip(&lambda) {
            let q = MM1::new(l, s.service_rate)?;
            metrics.push(StationMetrics {
                arrival_rate: l,
                utilization: q.utilization(),
                mean_number_in_system: q.mean_number_in_system(),
                mean_sojourn_time: q.mean_sojourn_time(),
            });
        }
        Ok(NetworkSolution {
            stations: metrics,
            total_external_rate: self.stations.iter().map(|s| s.external_arrival_rate).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_station_reduces_to_mm1() {
        let net = JacksonNetwork::new(vec![Station::single(1.0, 0.5)], vec![vec![0.0]]).unwrap();
        let sol = net.solve().unwrap();
        let q = MM1::new(0.5, 1.0).unwrap();
        assert!((sol.stations[0].mean_sojourn_time - q.mean_sojourn_time()).abs() < 1e-12);
        assert!((sol.mean_time_in_network() - q.mean_sojourn_time()).abs() < 1e-12);
    }

    #[test]
    fn feedback_queue_amplifies_traffic() {
        // Single station, customers return with probability 1/2 =>
        // lambda_total = gamma / (1 - 0.5) = 2*gamma.
        let net = JacksonNetwork::new(vec![Station::single(10.0, 1.0)], vec![vec![0.5]]).unwrap();
        let rates = net.traffic_rates().unwrap();
        assert!((rates[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tandem_network_traffic_and_latency() {
        // Two stations in series: all traffic enters at 0, proceeds to 1,
        // then leaves. lambda_0 = lambda_1 = gamma.
        let net = JacksonNetwork::new(
            vec![Station::single(2.0, 1.0), Station::single(3.0, 0.0)],
            vec![vec![0.0, 1.0], vec![0.0, 0.0]],
        )
        .unwrap();
        let sol = net.solve().unwrap();
        assert!((sol.stations[0].arrival_rate - 1.0).abs() < 1e-12);
        assert!((sol.stations[1].arrival_rate - 1.0).abs() < 1e-12);
        // End-to-end: W = 1/(2-1) + 1/(3-1) = 1.5.
        assert!((sol.mean_time_in_network() - 1.5).abs() < 1e-12);
        assert!((sol.path_latency(&[0, 1]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn probabilistic_split_balances_load() {
        // Station 0 splits 30/70 to stations 1 and 2.
        let net = JacksonNetwork::new(
            vec![
                Station::single(10.0, 2.0),
                Station::single(10.0, 0.0),
                Station::single(10.0, 0.0),
            ],
            vec![vec![0.0, 0.3, 0.7], vec![0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]],
        )
        .unwrap();
        let rates = net.traffic_rates().unwrap();
        assert!((rates[1] - 0.6).abs() < 1e-12);
        assert!((rates[2] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn paper_shaped_network_rates_match_closed_forms() {
        // A miniature of the paper's Figure 2 for one cluster plus the
        // global stage: processors feed ICN1 with prob 1-P and ECN1 with
        // prob P; ECN1 forwards to ICN2; ICN2 returns to ECN1; ECN1
        // terminates the feedback path. Model the *forward* and
        // *feedback* passes through ECN1 as two stations to expose the
        // visit structure: [ICN1, ECN1_fwd, ICN2, ECN1_fb].
        let n0 = 8.0;
        let lam = 0.01; // per processor
        let p = 0.4;
        let gamma_icn1 = n0 * (1.0 - p) * lam;
        let gamma_ecn1 = n0 * p * lam;
        let net = JacksonNetwork::new(
            vec![
                Station::single(1.0, gamma_icn1),
                Station::single(1.0, gamma_ecn1),
                Station::single(1.0, 0.0),
                Station::single(1.0, 0.0),
            ],
            vec![
                vec![0.0, 0.0, 0.0, 0.0], // ICN1 -> out
                vec![0.0, 0.0, 1.0, 0.0], // ECN1 fwd -> ICN2
                vec![0.0, 0.0, 0.0, 1.0], // ICN2 -> ECN1 fb
                vec![0.0, 0.0, 0.0, 0.0], // ECN1 fb -> out
            ],
        )
        .unwrap();
        let rates = net.traffic_rates().unwrap();
        // eq. 1: lambda_I1 = N0 (1-P) lambda
        assert!((rates[0] - n0 * (1.0 - p) * lam).abs() < 1e-12);
        // eq. 2/4: each ECN1 pass carries N0 P lambda; total 2 N0 P lambda (eq. 5)
        assert!((rates[1] + rates[3] - 2.0 * n0 * p * lam).abs() < 1e-12);
        // eq. 3 for C=1 cluster: lambda_I2 = N0 P lambda
        assert!((rates[2] - n0 * p * lam).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_routing() {
        let s = vec![Station::single(1.0, 0.1)];
        assert!(JacksonNetwork::new(s.clone(), vec![vec![1.2]]).is_err());
        assert!(JacksonNetwork::new(s.clone(), vec![vec![-0.1]]).is_err());
        assert!(JacksonNetwork::new(s.clone(), vec![vec![0.0, 0.0]]).is_err());
        assert!(JacksonNetwork::new(s.clone(), vec![]).is_err());
        assert!(JacksonNetwork::new(vec![], vec![]).is_err());
    }

    #[test]
    fn detects_station_overload() {
        // Feedback of 0.9 multiplies external rate by 10 => rho = 1.0.
        let net = JacksonNetwork::new(vec![Station::single(1.0, 0.1)], vec![vec![0.9]]).unwrap();
        assert!(matches!(net.solve(), Err(NetworkError::Queue(QueueingError::Unstable { .. }))));
    }

    #[test]
    fn closed_loop_routing_is_singular() {
        // A pure loop (row sums exactly 1) has no exit; with external
        // input the traffic equations are singular/divergent.
        let net = JacksonNetwork::new(vec![Station::single(1.0, 0.1)], vec![vec![1.0]]).unwrap();
        assert!(net.traffic_rates().is_err());
    }

    #[test]
    fn mixed_path_latency_weights_paths() {
        let net = JacksonNetwork::new(
            vec![Station::single(2.0, 0.5), Station::single(4.0, 0.5)],
            vec![vec![0.0; 2], vec![0.0; 2]],
        )
        .unwrap();
        let sol = net.solve().unwrap();
        let w0 = sol.stations[0].mean_sojourn_time;
        let w1 = sol.stations[1].mean_sojourn_time;
        let mixed = sol.mixed_path_latency(&[(0.25, &[0][..]), (0.75, &[1][..])]);
        assert!((mixed - (0.25 * w0 + 0.75 * w1)).abs() < 1e-12);
        assert_eq!(sol.mixed_path_latency(&[]), 0.0);
    }
}
