//! The M/G/1 queue via the Pollaczek–Khinchine formula, together with a
//! small algebra of service-time distributions.
//!
//! The paper assumes exponentially distributed network service times
//! ("with assumption of exponential distribution for service time of the
//! communication networks", §5.2). Real message transmission times with a
//! fixed message length are closer to deterministic; this module lets the
//! analytical model swap the service distribution and quantifies how much
//! the exponential assumption inflates predicted latency (the
//! `ablation-service` experiment).

use crate::error::{check_nonneg_rate, check_pos_rate, QueueingError};

/// A service-time distribution summarised by its first two moments.
///
/// Only the mean and the squared coefficient of variation (SCV,
/// `Var/mean²`) matter for M/G/1 mean-value results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDistribution {
    /// Deterministic service of the given duration (SCV = 0).
    Deterministic(f64),
    /// Exponential service with the given **mean** (SCV = 1).
    Exponential(f64),
    /// Erlang-k service: sum of `k` exponential phases with the given
    /// overall mean (SCV = 1/k).
    Erlang {
        /// Overall mean service time.
        mean: f64,
        /// Number of phases, `k ≥ 1`.
        phases: u32,
    },
    /// Two-phase hyper-exponential service specified by mean and an SCV
    /// larger than one.
    HyperExponential {
        /// Overall mean service time.
        mean: f64,
        /// Squared coefficient of variation, must be ≥ 1.
        scv: f64,
    },
    /// Arbitrary distribution given by mean and SCV directly.
    General {
        /// Mean service time.
        mean: f64,
        /// Squared coefficient of variation (`Var/mean²`), ≥ 0.
        scv: f64,
    },
}

impl ServiceDistribution {
    /// Mean service time.
    pub fn mean(&self) -> f64 {
        match *self {
            ServiceDistribution::Deterministic(m)
            | ServiceDistribution::Exponential(m)
            | ServiceDistribution::Erlang { mean: m, .. }
            | ServiceDistribution::HyperExponential { mean: m, .. }
            | ServiceDistribution::General { mean: m, .. } => m,
        }
    }

    /// Squared coefficient of variation `Var/mean²`.
    pub fn scv(&self) -> f64 {
        match *self {
            ServiceDistribution::Deterministic(_) => 0.0,
            ServiceDistribution::Exponential(_) => 1.0,
            ServiceDistribution::Erlang { phases, .. } => 1.0 / phases as f64,
            ServiceDistribution::HyperExponential { scv, .. }
            | ServiceDistribution::General { scv, .. } => scv,
        }
    }

    /// Second raw moment `E[S²] = mean²·(1 + SCV)`.
    pub fn second_moment(&self) -> f64 {
        let m = self.mean();
        m * m * (1.0 + self.scv())
    }

    /// Validates the distribution parameters.
    pub fn validate(&self) -> Result<(), QueueingError> {
        check_pos_rate("service mean", self.mean())?;
        match *self {
            ServiceDistribution::Erlang { phases: 0, .. } => Err(QueueingError::InvalidParameter {
                name: "phases",
                reason: "Erlang phase count must be >= 1",
            }),
            ServiceDistribution::HyperExponential { scv, .. } if scv < 1.0 => {
                Err(QueueingError::InvalidParameter {
                    name: "scv",
                    reason: "hyper-exponential SCV must be >= 1",
                })
            }
            ServiceDistribution::General { scv, .. } if !(scv.is_finite() && scv >= 0.0) => {
                Err(QueueingError::InvalidParameter {
                    name: "scv",
                    reason: "SCV must be finite and non-negative",
                })
            }
            _ => Ok(()),
        }
    }
}

/// A stationary M/G/1 queue: Poisson arrivals at rate λ, i.i.d. service
/// drawn from a general distribution, one FCFS server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MG1 {
    lambda: f64,
    service: ServiceDistribution,
}

impl MG1 {
    /// Creates a stable M/G/1 queue (requires `ρ = λ·E[S] < 1`).
    pub fn new(lambda: f64, service: ServiceDistribution) -> Result<Self, QueueingError> {
        check_nonneg_rate("lambda", lambda)?;
        service.validate()?;
        let rho = lambda * service.mean();
        if rho >= 1.0 {
            return Err(QueueingError::Unstable { rho });
        }
        Ok(MG1 { lambda, service })
    }

    /// Arrival rate λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The service distribution.
    #[inline]
    pub fn service(&self) -> ServiceDistribution {
        self.service
    }

    /// Server utilization ρ = λ·E\[S\].
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service.mean()
    }

    /// Pollaczek–Khinchine mean waiting time
    /// `Wq = λ·E[S²] / (2(1−ρ))`.
    pub fn mean_waiting_time(&self) -> f64 {
        let rho = self.utilization();
        self.lambda * self.service.second_moment() / (2.0 * (1.0 - rho))
    }

    /// Mean sojourn time `W = Wq + E[S]`.
    pub fn mean_sojourn_time(&self) -> f64 {
        self.mean_waiting_time() + self.service.mean()
    }

    /// Mean number in system via Little's law, `L = λ·W`.
    pub fn mean_number_in_system(&self) -> f64 {
        self.lambda * self.mean_sojourn_time()
    }

    /// Mean number waiting in queue, `Lq = λ·Wq`.
    pub fn mean_number_in_queue(&self) -> f64 {
        self.lambda * self.mean_waiting_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_service_reduces_to_mm1() {
        // M/M/1 at lambda = 0.6, mu = 1: W = 1/(mu - lambda), L = rho/(1 - rho).
        let g = MG1::new(0.6, ServiceDistribution::Exponential(1.0)).unwrap();
        assert!((g.mean_sojourn_time() - 1.0 / (1.0 - 0.6)).abs() < 1e-12);
        assert!((g.mean_number_in_system() - 0.6 / (1.0 - 0.6)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_service_halves_the_waiting_time() {
        // M/D/1 waiting is exactly half of M/M/1 waiting at equal rho.
        let md1 = MG1::new(0.6, ServiceDistribution::Deterministic(1.0)).unwrap();
        let mm1 = MG1::new(0.6, ServiceDistribution::Exponential(1.0)).unwrap();
        assert!((md1.mean_waiting_time() - mm1.mean_waiting_time() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_interpolates_between_d_and_m() {
        let wq = |s: ServiceDistribution| MG1::new(0.5, s).unwrap().mean_waiting_time();
        let d = wq(ServiceDistribution::Deterministic(1.0));
        let e4 = wq(ServiceDistribution::Erlang { mean: 1.0, phases: 4 });
        let e1 = wq(ServiceDistribution::Erlang { mean: 1.0, phases: 1 });
        let m = wq(ServiceDistribution::Exponential(1.0));
        assert!(d < e4 && e4 < e1);
        assert!((e1 - m).abs() < 1e-12, "Erlang-1 == exponential");
    }

    #[test]
    fn hyperexponential_is_worse_than_exponential() {
        let h =
            MG1::new(0.5, ServiceDistribution::HyperExponential { mean: 1.0, scv: 4.0 }).unwrap();
        let m = MG1::new(0.5, ServiceDistribution::Exponential(1.0)).unwrap();
        assert!(h.mean_waiting_time() > m.mean_waiting_time());
    }

    #[test]
    fn second_moment_identity() {
        let s = ServiceDistribution::General { mean: 2.0, scv: 0.25 };
        // E[S^2] = mean^2 (1 + scv) = 4 * 1.25 = 5.
        assert!((s.second_moment() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(ServiceDistribution::Erlang { mean: 1.0, phases: 0 }.validate().is_err());
        assert!(ServiceDistribution::HyperExponential { mean: 1.0, scv: 0.5 }.validate().is_err());
        assert!(ServiceDistribution::General { mean: 1.0, scv: -1.0 }.validate().is_err());
        assert!(ServiceDistribution::Deterministic(0.0).validate().is_err());
        assert!(ServiceDistribution::Exponential(-2.0).validate().is_err());
        assert!(MG1::new(1.1, ServiceDistribution::Exponential(1.0)).is_err());
    }

    #[test]
    fn littles_law_holds_for_mg1() {
        let g = MG1::new(0.4, ServiceDistribution::Erlang { mean: 2.0, phases: 3 }).unwrap();
        assert!((g.mean_number_in_queue() - g.lambda() * g.mean_waiting_time()).abs() < 1e-12);
        assert!((g.mean_number_in_system() - g.lambda() * g.mean_sojourn_time()).abs() < 1e-12);
    }

    #[test]
    fn idle_mg1() {
        let g = MG1::new(0.0, ServiceDistribution::Deterministic(3.0)).unwrap();
        assert_eq!(g.mean_waiting_time(), 0.0);
        assert!((g.mean_sojourn_time() - 3.0).abs() < 1e-15);
    }
}
