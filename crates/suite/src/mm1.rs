//! The M/M/1 queue, the exact reference for the paper's eq. 16.
//!
//! The model evaluates every communication network (ICN1, ECN1, ICN2)
//! as an M/G/1 centre (`hmcs_queueing::mg1`) whose exponential case is
//! the M/M/1 queue: Poisson arrivals at rate λ, exponential service at
//! rate µ, one server, FCFS, infinite buffer. `W = 1/(µ − λ)` is
//! [`MM1::mean_sojourn_time`]; the queue length of eq. 6 is
//! [`MM1::mean_number_in_system`].

use hmcs_queueing::QueueingError;

/// Validates a rate: finite and non-negative, or strictly positive when
/// `positive` is set.
pub(crate) fn check_rate(
    name: &'static str,
    value: f64,
    positive: bool,
) -> Result<(), QueueingError> {
    if !value.is_finite() || value < 0.0 || (positive && value == 0.0) {
        return Err(QueueingError::InvalidRate { name, value });
    }
    Ok(())
}

/// A stationary M/M/1 queue with arrival rate λ and service rate µ.
///
/// Construction fails unless `0 ≤ λ < µ` (the stability condition
/// ρ = λ/µ < 1). All returned moments are exact closed forms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1 {
    lambda: f64,
    mu: f64,
}

impl MM1 {
    /// Creates a stable M/M/1 queue.
    ///
    /// # Errors
    ///
    /// * [`QueueingError::InvalidRate`] if either rate is negative,
    ///   non-finite, or µ is zero.
    /// * [`QueueingError::Unstable`] if λ ≥ µ.
    pub fn new(lambda: f64, mu: f64) -> Result<Self, QueueingError> {
        check_rate("lambda", lambda, false)?;
        check_rate("mu", mu, true)?;
        if lambda >= mu {
            return Err(QueueingError::Unstable { rho: lambda / mu });
        }
        Ok(MM1 { lambda, mu })
    }

    /// Mean service time 1/µ.
    pub fn mean_service_time(&self) -> f64 {
        1.0 / self.mu
    }

    /// Server utilization ρ = λ/µ.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Mean number of customers in the system, `L = ρ/(1−ρ)`, the
    /// in-service customer included (paper eq. 6).
    pub fn mean_number_in_system(&self) -> f64 {
        let rho = self.utilization();
        rho / (1.0 - rho)
    }

    /// Mean number of customers waiting in queue, `Lq = ρ²/(1−ρ)`.
    pub fn mean_number_in_queue(&self) -> f64 {
        let rho = self.utilization();
        rho * rho / (1.0 - rho)
    }

    /// Mean sojourn (response) time `W = 1/(µ−λ)` — paper eq. 16.
    pub fn mean_sojourn_time(&self) -> f64 {
        1.0 / (self.mu - self.lambda)
    }

    /// Mean waiting time in queue `Wq = ρ/(µ−λ)`.
    pub fn mean_waiting_time(&self) -> f64 {
        self.utilization() / (self.mu - self.lambda)
    }

    /// The absolute discrepancy of Little's law `L = λ·W` (zero up to
    /// rounding).
    pub fn littles_law_residual(&self) -> f64 {
        (self.mean_number_in_system() - self.lambda * self.mean_sojourn_time()).abs()
    }
}

/// Mean sojourn time `W = 1/(µ−λ)` without constructing the struct;
/// `None` when the queue would be unstable or the inputs are invalid.
pub fn sojourn_time(lambda: f64, mu: f64) -> Option<f64> {
    MM1::new(lambda, mu).ok().map(|q| q.mean_sojourn_time())
}

/// Mean number in system `L = ρ/(1−ρ)` without constructing the
/// struct; `None` when unstable or invalid.
pub fn number_in_system(lambda: f64, mu: f64) -> Option<f64> {
    MM1::new(lambda, mu).ok().map(|q| q.mean_number_in_system())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(lambda: f64, mu: f64) -> MM1 {
        MM1::new(lambda, mu).unwrap()
    }

    #[test]
    fn rejects_unstable_and_invalid() {
        assert!(matches!(MM1::new(2.0, 1.0), Err(QueueingError::Unstable { .. })));
        assert!(matches!(MM1::new(1.0, 1.0), Err(QueueingError::Unstable { .. })));
        assert!(MM1::new(-1.0, 1.0).is_err());
        assert!(MM1::new(1.0, 0.0).is_err());
        assert!(MM1::new(f64::NAN, 1.0).is_err());
        assert!(MM1::new(0.5, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_arrival_rate_is_an_idle_queue() {
        let idle = q(0.0, 3.0);
        assert_eq!(idle.utilization(), 0.0);
        assert_eq!(idle.mean_number_in_system(), 0.0);
        assert!((idle.mean_sojourn_time() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(idle.mean_waiting_time(), 0.0);
    }

    #[test]
    fn textbook_example() {
        // Kleinrock vol. 1 style: lambda = 1, mu = 2 => rho = 0.5,
        // L = 1, Lq = 0.5, W = 1, Wq = 0.5.
        let k = q(1.0, 2.0);
        assert!((k.utilization() - 0.5).abs() < 1e-15);
        assert!((k.mean_number_in_system() - 1.0).abs() < 1e-15);
        assert!((k.mean_number_in_queue() - 0.5).abs() < 1e-15);
        assert!((k.mean_sojourn_time() - 1.0).abs() < 1e-15);
        assert!((k.mean_waiting_time() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn littles_law_holds() {
        for (l, m) in [(0.1, 1.0), (0.9, 1.0), (3.0, 10.0), (7.5, 8.0)] {
            assert!(q(l, m).littles_law_residual() < 1e-9, "lambda={l} mu={m}");
        }
    }

    #[test]
    fn free_function_helpers_match_struct() {
        let k = q(0.25, 0.8);
        assert_eq!(sojourn_time(0.25, 0.8), Some(k.mean_sojourn_time()));
        assert_eq!(number_in_system(0.25, 0.8), Some(k.mean_number_in_system()));
        assert_eq!(sojourn_time(1.0, 1.0), None);
        assert_eq!(number_in_system(2.0, 1.0), None);
        assert_eq!(sojourn_time(-1.0, 1.0), None);
    }

    #[test]
    fn waiting_plus_service_equals_sojourn() {
        let k = q(0.4, 1.1);
        let w = k.mean_waiting_time() + k.mean_service_time();
        assert!((w - k.mean_sojourn_time()).abs() < 1e-12);
    }

    #[test]
    fn heavy_traffic_blows_up() {
        let k = q(0.999, 1.0);
        assert!(k.mean_number_in_system() > 500.0);
        assert!(k.mean_sojourn_time() > 500.0);
    }
}
