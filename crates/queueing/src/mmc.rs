//! The multi-server Markovian queue M/M/c.
//!
//! It generalises the paper's M/M/1 service centres: an M/M/c centre
//! models a network with `c` parallel links (e.g. a trunked inter-cluster
//! uplink).

use crate::error::{check_nonneg_rate, check_pos_rate, QueueingError};

/// A stationary M/M/c queue: Poisson arrivals λ, `c` exponential servers
/// each of rate µ, infinite buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MMc {
    lambda: f64,
    mu: f64,
    servers: u32,
}

impl MMc {
    /// Creates a stable M/M/c queue (requires `λ < c·µ`).
    pub fn new(lambda: f64, mu: f64, servers: u32) -> Result<Self, QueueingError> {
        check_nonneg_rate("lambda", lambda)?;
        check_pos_rate("mu", mu)?;
        if servers == 0 {
            return Err(QueueingError::InvalidParameter {
                name: "servers",
                reason: "must be at least 1",
            });
        }
        let rho = lambda / (servers as f64 * mu);
        if rho >= 1.0 {
            return Err(QueueingError::Unstable { rho });
        }
        Ok(MMc { lambda, mu, servers })
    }

    /// Arrival rate λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Per-server service rate µ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Number of servers `c`.
    #[inline]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Offered load in Erlangs, `a = λ/µ`.
    #[inline]
    pub fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Per-server utilization ρ = λ/(c·µ).
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda / (self.servers as f64 * self.mu)
    }

    /// Erlang C: the probability an arriving customer has to wait,
    /// `C(c, a)`.
    ///
    /// Computed with the numerically stable recurrence on the Erlang B
    /// blocking probability
    /// `B(0, a) = 1`, `B(k, a) = a·B(k−1, a) / (k + a·B(k−1, a))`,
    /// then `C = B / (1 − ρ(1 − B))`.
    pub fn erlang_c(&self) -> f64 {
        let a = self.offered_load();
        if a == 0.0 {
            return 0.0;
        }
        let mut b = 1.0;
        for k in 1..=self.servers {
            b = a * b / (k as f64 + a * b);
        }
        let rho = self.utilization();
        b / (1.0 - rho * (1.0 - b))
    }

    /// Mean number waiting in queue `Lq = C(c,a)·ρ/(1−ρ)`.
    pub fn mean_number_in_queue(&self) -> f64 {
        let rho = self.utilization();
        self.erlang_c() * rho / (1.0 - rho)
    }

    /// Mean number in system `L = Lq + a`.
    pub fn mean_number_in_system(&self) -> f64 {
        self.mean_number_in_queue() + self.offered_load()
    }

    /// Mean waiting time in queue `Wq = Lq/λ` (0 when λ = 0).
    pub fn mean_waiting_time(&self) -> f64 {
        if self.lambda == 0.0 {
            0.0
        } else {
            self.mean_number_in_queue() / self.lambda
        }
    }

    /// Mean sojourn time `W = Wq + 1/µ`.
    pub fn mean_sojourn_time(&self) -> f64 {
        self.mean_waiting_time() + 1.0 / self.mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::MM1;

    #[test]
    fn mmc_with_one_server_reduces_to_mm1() {
        let c = MMc::new(0.7, 1.0, 1).unwrap();
        let s = MM1::new(0.7, 1.0).unwrap();
        assert!((c.mean_number_in_system() - s.mean_number_in_system()).abs() < 1e-12);
        assert!((c.mean_sojourn_time() - s.mean_sojourn_time()).abs() < 1e-12);
        assert!((c.erlang_c() - s.prob_wait()).abs() < 1e-12);
    }

    #[test]
    fn mmc_rejects_unstable() {
        assert!(MMc::new(2.0, 1.0, 2).is_err());
        assert!(MMc::new(2.0, 1.0, 3).is_ok());
        assert!(MMc::new(1.0, 1.0, 0).is_err());
    }

    #[test]
    fn erlang_c_textbook_value() {
        // Classic call-centre example: c = 2, lambda = 1.5, mu = 1
        // => a = 1.5, rho = 0.75. Erlang B: B1 = 1.5/2.5 = 0.6,
        // B2 = 1.5*0.6/(2+0.9) = 0.9/2.9. C = B2/(1-0.75(1-B2)).
        let q = MMc::new(1.5, 1.0, 2).unwrap();
        let b2: f64 = 0.9 / 2.9;
        let expected = b2 / (1.0 - 0.75 * (1.0 - b2));
        assert!((q.erlang_c() - expected).abs() < 1e-12);
    }

    #[test]
    fn mmc_more_servers_means_less_waiting() {
        let w2 = MMc::new(1.8, 1.0, 2).unwrap().mean_waiting_time();
        let w4 = MMc::new(1.8, 1.0, 4).unwrap().mean_waiting_time();
        let w8 = MMc::new(1.8, 1.0, 8).unwrap().mean_waiting_time();
        assert!(w2 > w4 && w4 > w8);
    }

    #[test]
    fn mmc_littles_law() {
        let q = MMc::new(2.5, 1.0, 4).unwrap();
        let l = q.mean_number_in_system();
        let w = q.mean_sojourn_time();
        assert!((l - q.lambda() * w).abs() < 1e-10);
    }

    #[test]
    fn mmc_idle_queue() {
        let q = MMc::new(0.0, 1.0, 3).unwrap();
        assert_eq!(q.erlang_c(), 0.0);
        assert_eq!(q.mean_number_in_queue(), 0.0);
        assert_eq!(q.mean_waiting_time(), 0.0);
        assert!((q.mean_sojourn_time() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn ordering_mminf_le_mmc_le_mm1() {
        // Same total capacity: M/M/2 with mu each vs M/M/1 with rate mu
        // (not 2mu) is worse; M/M/inf (no waiting, so its sojourn is the
        // bare service time 1/mu) is best.
        let (lam, mu) = (0.9, 1.0);
        let w_inf = 1.0 / mu;
        let w_c = MMc::new(lam, mu, 2).unwrap().mean_sojourn_time();
        let w_1 = MM1::new(lam, mu).unwrap().mean_sojourn_time();
        assert!(w_inf <= w_c && w_c <= w_1);
    }
}
