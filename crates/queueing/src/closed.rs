//! Closed queueing-network results: the machine-repairman model and
//! exact Mean Value Analysis (MVA).
//!
//! Assumption 4 of the paper — "processors which are source of request
//! must be waiting until they get service and cannot generate any other
//! request in wait state" — makes the *real* system a closed network:
//! `N` customers (processors) alternate between a think state
//! (exponential, rate λ) and the communication-network service centres.
//! The paper approximates this with an open network plus the effective-
//! rate fixed point of eq. 7. This module provides the exact closed-form
//! alternatives used to assess that approximation
//! (`ablation-accounting` experiment).

use crate::error::{check_pos_rate, QueueingError};

/// The classic machine-repairman (finite-source) model:
/// `N` machines each failing at exponential rate λ (think rate), a single
/// exponential repairman of rate µ, FCFS repair queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineRepairman {
    population: u32,
    think_rate: f64,
    service_rate: f64,
}

/// Steady-state metrics of a [`MachineRepairman`] system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairmanMetrics {
    /// Mean number of machines at the repair station (queue + service).
    pub mean_number_at_server: f64,
    /// Server (repairman) utilization.
    pub utilization: f64,
    /// System throughput: completed repairs per unit time.
    pub throughput: f64,
    /// Mean response time at the repair station (Little on the station).
    pub mean_response_time: f64,
    /// Effective per-machine request rate: throughput / population.
    pub effective_rate_per_machine: f64,
}

impl MachineRepairman {
    /// Creates a machine-repairman model.
    pub fn new(population: u32, think_rate: f64, service_rate: f64) -> Result<Self, QueueingError> {
        if population == 0 {
            return Err(QueueingError::InvalidParameter {
                name: "population",
                reason: "must be at least 1",
            });
        }
        check_pos_rate("think_rate", think_rate)?;
        check_pos_rate("service_rate", service_rate)?;
        Ok(MachineRepairman { population, think_rate, service_rate })
    }

    /// Steady-state distribution `π_n` of the number of machines at the
    /// repair station, n = 0..=N. Computed from the birth–death balance
    /// `π_n = π_0 · Π_{i<n} (N−i)λ/µ` with normalisation, evaluated in a
    /// numerically safe way (running maximum subtraction in log space is
    /// unnecessary for N ≤ a few thousand, so plain scaling is used).
    pub(crate) fn state_distribution(&self) -> Vec<f64> {
        let n = self.population as usize;
        let r = self.think_rate / self.service_rate;
        let mut unnorm = Vec::with_capacity(n + 1);
        let mut cur = 1.0f64;
        unnorm.push(cur);
        for i in 0..n {
            cur *= (self.population as f64 - i as f64) * r;
            unnorm.push(cur);
            // Rescale to avoid overflow with large N / r.
            if cur > 1e280 {
                for v in &mut unnorm {
                    *v /= cur;
                }
                cur = 1.0;
            }
        }
        let total: f64 = unnorm.iter().sum();
        unnorm.into_iter().map(|v| v / total).collect()
    }

    /// Solves the model exactly.
    pub fn solve(&self) -> RepairmanMetrics {
        let pi = self.state_distribution();
        let l: f64 = pi.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
        let utilization = 1.0 - pi[0];
        let throughput = self.service_rate * utilization;
        let mean_response_time = if throughput > 0.0 { l / throughput } else { 0.0 };
        RepairmanMetrics {
            mean_number_at_server: l,
            utilization,
            throughput,
            effective_rate_per_machine: throughput / self.population as f64,
            mean_response_time,
        }
    }
}

/// A service station in a closed product-form network solved by MVA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MvaStation {
    /// A single-server FCFS queueing station with the given mean service
    /// demand per visit (`visit ratio × mean service time`).
    Queueing {
        /// Mean total service demand a customer places on this station
        /// per cycle.
        demand: f64,
    },
    /// An infinite-server (delay/think) station with the given mean
    /// demand; customers never queue here.
    Delay {
        /// Mean total delay per cycle.
        demand: f64,
    },
}

/// Result of an exact MVA evaluation of a closed network.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// Network population the solution was computed for.
    pub population: u32,
    /// System throughput (cycles per unit time).
    pub throughput: f64,
    /// Per-station mean residence time per cycle (same order as input).
    pub residence_times: Vec<f64>,
    /// Per-station mean queue lengths (customers present).
    pub queue_lengths: Vec<f64>,
    /// Mean cycle (response) time: Σ residence times.
    pub cycle_time: f64,
}

/// Exact Mean Value Analysis for a single-class closed product-form
/// network.
///
/// Classic recursion (Reiser & Lavenberg): for n = 1..N
/// `Rᵢ(n) = Dᵢ·(1 + Qᵢ(n−1))` for queueing stations,
/// `Rᵢ(n) = Dᵢ` for delay stations, `X(n) = n / Σ Rᵢ(n)`,
/// `Qᵢ(n) = X(n)·Rᵢ(n)`.
///
/// # Errors
///
/// Rejects empty station lists, non-positive/non-finite demands and zero
/// population.
pub fn mva(stations: &[MvaStation], population: u32) -> Result<MvaSolution, QueueingError> {
    if stations.is_empty() {
        return Err(QueueingError::InvalidParameter {
            name: "stations",
            reason: "closed network must have at least one station",
        });
    }
    if population == 0 {
        return Err(QueueingError::InvalidParameter {
            name: "population",
            reason: "must be at least 1",
        });
    }
    for s in stations {
        let d = match *s {
            MvaStation::Queueing { demand } | MvaStation::Delay { demand } => demand,
        };
        if !d.is_finite() || d < 0.0 {
            return Err(QueueingError::InvalidRate { name: "demand", value: d });
        }
    }

    let k = stations.len();
    let mut q = vec![0.0f64; k];
    let mut r = vec![0.0f64; k];
    let mut x = 0.0f64;
    for n in 1..=population {
        let mut total_r = 0.0;
        for (i, s) in stations.iter().enumerate() {
            r[i] = match *s {
                MvaStation::Queueing { demand } => demand * (1.0 + q[i]),
                MvaStation::Delay { demand } => demand,
            };
            total_r += r[i];
        }
        if total_r <= 0.0 {
            return Err(QueueingError::InvalidParameter {
                name: "demand",
                reason: "total demand must be positive",
            });
        }
        x = n as f64 / total_r;
        for i in 0..k {
            q[i] = x * r[i];
        }
    }
    let cycle_time = r.iter().sum();
    Ok(MvaSolution { population, throughput: x, residence_times: r, queue_lengths: q, cycle_time })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repairman_single_machine() {
        // N=1: machine alternates Exp(lambda) think, Exp(mu) repair.
        // Utilization of server = lambda/(lambda+mu) by renewal reward.
        let m = MachineRepairman::new(1, 2.0, 3.0).unwrap().solve();
        assert!((m.utilization - 2.0 / 5.0).abs() < 1e-12);
        // Response time = 1/mu (never queues).
        assert!((m.mean_response_time - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn repairman_distribution_sums_to_one() {
        let m = MachineRepairman::new(50, 0.5, 4.0).unwrap();
        let pi = m.state_distribution();
        assert_eq!(pi.len(), 51);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn repairman_saturation_limit() {
        // Very fast failures: server always busy, throughput -> mu.
        let m = MachineRepairman::new(20, 100.0, 1.0).unwrap().solve();
        assert!(m.utilization > 0.999);
        assert!((m.throughput - 1.0).abs() < 1e-3);
        // Nearly all machines queued.
        assert!(m.mean_number_at_server > 18.0);
    }

    #[test]
    fn repairman_light_load_limit() {
        // Very slow failures: station nearly empty, response ~ 1/mu.
        let m = MachineRepairman::new(10, 1e-4, 1.0).unwrap().solve();
        assert!(m.mean_number_at_server < 0.01);
        assert!((m.mean_response_time - 1.0).abs() < 0.01);
        assert!((m.effective_rate_per_machine - 1e-4).abs() < 1e-6);
    }

    #[test]
    fn repairman_handles_large_population_without_overflow() {
        let m = MachineRepairman::new(2000, 10.0, 1.0).unwrap().solve();
        assert!(m.utilization > 0.999);
        assert!(m.mean_number_at_server.is_finite());
    }

    #[test]
    fn repairman_rejects_bad_input() {
        assert!(MachineRepairman::new(0, 1.0, 1.0).is_err());
        assert!(MachineRepairman::new(1, 0.0, 1.0).is_err());
        assert!(MachineRepairman::new(1, 1.0, -1.0).is_err());
    }

    #[test]
    fn mva_single_station_single_customer() {
        // One customer, one queueing station with demand D: X = 1/D.
        let sol = mva(&[MvaStation::Queueing { demand: 2.0 }], 1).unwrap();
        assert!((sol.throughput - 0.5).abs() < 1e-12);
        assert!((sol.cycle_time - 2.0).abs() < 1e-12);
        assert!((sol.queue_lengths[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mva_matches_machine_repairman() {
        // Repairman == closed network {delay Z=1/lambda, queueing D=1/mu}.
        let (n, lambda, mu) = (12u32, 0.8, 2.0);
        let exact = MachineRepairman::new(n, lambda, mu).unwrap().solve();
        let sol = mva(
            &[
                MvaStation::Delay { demand: 1.0 / lambda },
                MvaStation::Queueing { demand: 1.0 / mu },
            ],
            n,
        )
        .unwrap();
        assert!((sol.throughput - exact.throughput).abs() < 1e-9);
        assert!((sol.queue_lengths[1] - exact.mean_number_at_server).abs() < 1e-9);
        assert!((sol.residence_times[1] - exact.mean_response_time).abs() < 1e-9);
    }

    #[test]
    fn mva_population_conservation() {
        let stations = [
            MvaStation::Delay { demand: 5.0 },
            MvaStation::Queueing { demand: 1.0 },
            MvaStation::Queueing { demand: 0.5 },
        ];
        for n in [1u32, 2, 7, 31] {
            let sol = mva(&stations, n).unwrap();
            let total: f64 = sol.queue_lengths.iter().sum();
            assert!((total - n as f64).abs() < 1e-9, "population {n} not conserved");
        }
    }

    #[test]
    fn mva_bottleneck_law() {
        // Throughput is bounded by 1/D_max; approaches it as N grows.
        let stations = [
            MvaStation::Queueing { demand: 1.0 }, // bottleneck
            MvaStation::Queueing { demand: 0.25 },
            MvaStation::Delay { demand: 2.0 },
        ];
        let sol = mva(&stations, 200).unwrap();
        assert!(sol.throughput <= 1.0 + 1e-12);
        assert!(sol.throughput > 0.99);
    }

    #[test]
    fn mva_throughput_monotone_in_population() {
        let stations = [MvaStation::Queueing { demand: 1.0 }, MvaStation::Delay { demand: 3.0 }];
        let mut prev = 0.0;
        for n in 1..=50 {
            let x = mva(&stations, n).unwrap().throughput;
            assert!(x >= prev - 1e-12);
            prev = x;
        }
    }

    #[test]
    fn mva_rejects_bad_input() {
        assert!(mva(&[], 1).is_err());
        assert!(mva(&[MvaStation::Queueing { demand: 1.0 }], 0).is_err());
        assert!(mva(&[MvaStation::Queueing { demand: -1.0 }], 1).is_err());
        assert!(mva(&[MvaStation::Queueing { demand: f64::NAN }], 1).is_err());
        assert!(mva(&[MvaStation::Delay { demand: 0.0 }], 1).is_err(), "zero total demand");
    }
}
