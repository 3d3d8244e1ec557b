//! GI/G/1 two-moment approximations: Kingman's bound, Allen–Cunneen,
//! and the Krämer–Langenbach-Belz (KLB) refinement.
//!
//! The paper approximates every internal arrival process as Poisson
//! ("this approximation has often been invoked to determine the arrival
//! process in store-and-forward networks", assumption 2). The
//! reproduction's validation shows where that costs accuracy (EXPERIMENTS.md,
//! Figure 7 at C = 4): departure processes of near-saturated neighbours
//! are not Poisson. These classical approximations parameterise the
//! arrival process by its squared coefficient of variation `ca²` and let
//! a QNA-style analysis quantify the gap.

use crate::error::{check_nonneg_rate, QueueingError};
use crate::mg1::ServiceDistribution;

/// A GI/G/1 queue summarised by arrival rate + arrival SCV and a
/// two-moment service description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GG1 {
    lambda: f64,
    arrival_scv: f64,
    service: ServiceDistribution,
}

/// Which waiting-time approximation to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Approximation {
    /// Kingman's upper bound (heavy-traffic):
    /// `Wq ≤ ρ/(1−ρ)·(ca²+cs²)/2·E[S]`.
    Kingman,
    /// Allen–Cunneen: the same expression used as an estimate (exact
    /// for M/G/1 when `ca² = 1`).
    #[default]
    AllenCunneen,
    /// Krämer–Langenbach-Belz: Allen–Cunneen times a correction factor
    /// `g(ρ, ca², cs²)` that markedly improves light-traffic accuracy
    /// for `ca² < 1`.
    KLB,
}

impl GG1 {
    /// Creates a stable GI/G/1 queue (`ρ = λ·E[S] < 1`).
    pub fn new(
        lambda: f64,
        arrival_scv: f64,
        service: ServiceDistribution,
    ) -> Result<Self, QueueingError> {
        check_nonneg_rate("lambda", lambda)?;
        if !arrival_scv.is_finite() || arrival_scv < 0.0 {
            return Err(QueueingError::InvalidParameter {
                name: "arrival_scv",
                reason: "must be finite and non-negative",
            });
        }
        service.validate()?;
        let rho = lambda * service.mean();
        if rho >= 1.0 {
            return Err(QueueingError::Unstable { rho });
        }
        Ok(GG1 { lambda, arrival_scv, service })
    }

    /// Arrival rate λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Arrival-process squared coefficient of variation `ca²`.
    #[inline]
    pub fn arrival_scv(&self) -> f64 {
        self.arrival_scv
    }

    /// Utilization ρ = λ·E\[S\].
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service.mean()
    }

    /// Approximate mean waiting time in queue under the chosen
    /// approximation.
    pub fn mean_waiting_time(&self, approx: Approximation) -> f64 {
        let rho = self.utilization();
        if self.lambda == 0.0 {
            return 0.0;
        }
        let ca2 = self.arrival_scv;
        let cs2 = self.service.scv();
        let base = rho / (1.0 - rho) * (ca2 + cs2) / 2.0 * self.service.mean();
        match approx {
            Approximation::Kingman | Approximation::AllenCunneen => base,
            Approximation::KLB => {
                let g = if ca2 <= 1.0 {
                    // exp(-2(1-rho)(1-ca2)^2 / (3 rho (ca2+cs2)))
                    let denom = 3.0 * rho * (ca2 + cs2);
                    if denom <= 0.0 {
                        1.0
                    } else {
                        (-2.0 * (1.0 - rho) * (1.0 - ca2).powi(2) / denom).exp()
                    }
                } else {
                    // exp(-(1-rho)(ca2-1)/(ca2+4cs2))
                    (-(1.0 - rho) * (ca2 - 1.0) / (ca2 + 4.0 * cs2)).exp()
                };
                base * g
            }
        }
    }

    /// Approximate mean sojourn time `W = Wq + E[S]`.
    pub fn mean_sojourn_time(&self, approx: Approximation) -> f64 {
        self.mean_waiting_time(approx) + self.service.mean()
    }

    /// Approximate mean number in system via Little's law.
    pub fn mean_number_in_system(&self, approx: Approximation) -> f64 {
        self.lambda * self.mean_sojourn_time(approx)
    }

    /// SCV of the **departure process** under Marshall's approximation,
    /// `cd² ≈ ρ²·cs² + (1−ρ²)·ca²` — the linkage equation of QNA-style
    /// network decomposition (departures of one centre feed the next).
    pub fn departure_scv(&self) -> f64 {
        let rho2 = self.utilization().powi(2);
        rho2 * self.service.scv() + (1.0 - rho2) * self.arrival_scv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::MM1;

    fn exp_service(mean: f64) -> ServiceDistribution {
        ServiceDistribution::Exponential(mean)
    }

    #[test]
    fn allen_cunneen_is_exact_for_mm1() {
        let g = GG1::new(0.6, 1.0, exp_service(1.0)).unwrap();
        let exact = MM1::new(0.6, 1.0).unwrap();
        assert!(
            (g.mean_waiting_time(Approximation::AllenCunneen) - exact.mean_waiting_time()).abs()
                < 1e-12
        );
        assert!(
            (g.mean_sojourn_time(Approximation::AllenCunneen) - exact.mean_sojourn_time()).abs()
                < 1e-12
        );
    }

    #[test]
    fn allen_cunneen_matches_pollaczek_khinchine_for_poisson_arrivals() {
        use crate::mg1::MG1;
        let svc = ServiceDistribution::Erlang { mean: 2.0, phases: 3 };
        let g = GG1::new(0.3, 1.0, svc).unwrap();
        let pk = MG1::new(0.3, svc).unwrap();
        assert!(
            (g.mean_waiting_time(Approximation::AllenCunneen) - pk.mean_waiting_time()).abs()
                < 1e-12
        );
    }

    #[test]
    fn klb_corrects_downward_for_smooth_arrivals() {
        // D/M/1-ish: ca2 = 0 arrivals are smoother than Poisson; true
        // waiting is below Allen-Cunneen, and KLB reflects that.
        let g = GG1::new(0.5, 0.0, exp_service(1.0)).unwrap();
        let ac = g.mean_waiting_time(Approximation::AllenCunneen);
        let klb = g.mean_waiting_time(Approximation::KLB);
        assert!(klb < ac);
        assert!(klb > 0.0);
    }

    #[test]
    fn klb_equals_ac_for_poisson() {
        let g = GG1::new(0.7, 1.0, exp_service(1.0)).unwrap();
        let ac = g.mean_waiting_time(Approximation::AllenCunneen);
        let klb = g.mean_waiting_time(Approximation::KLB);
        assert!((ac - klb).abs() < 1e-12, "g(rho,1,cs2) must be 1");
    }

    #[test]
    fn klb_shrinks_bursty_arrivals_less_at_high_load() {
        // For ca2 > 1 the correction approaches 1 as rho -> 1.
        let light = GG1::new(0.2, 4.0, exp_service(1.0)).unwrap();
        let heavy = GG1::new(0.95, 4.0, exp_service(1.0)).unwrap();
        let ratio = |q: &GG1| {
            q.mean_waiting_time(Approximation::KLB)
                / q.mean_waiting_time(Approximation::AllenCunneen)
        };
        assert!(ratio(&light) < ratio(&heavy));
        assert!(ratio(&heavy) > 0.9);
    }

    #[test]
    fn dd1_has_no_waiting() {
        // Deterministic arrivals + deterministic service, rho < 1:
        // Wq = 0 under every approximation.
        let g = GG1::new(0.5, 0.0, ServiceDistribution::Deterministic(1.0)).unwrap();
        for approx in [Approximation::Kingman, Approximation::AllenCunneen, Approximation::KLB] {
            assert_eq!(g.mean_waiting_time(approx), 0.0, "{approx:?}");
        }
    }

    #[test]
    fn waiting_grows_with_arrival_variability() {
        let wq = |ca2: f64| {
            GG1::new(0.6, ca2, exp_service(1.0))
                .unwrap()
                .mean_waiting_time(Approximation::AllenCunneen)
        };
        assert!(wq(0.0) < wq(1.0));
        assert!(wq(1.0) < wq(4.0));
    }

    #[test]
    fn departure_scv_interpolates() {
        // rho -> 0: departures look like arrivals; rho -> 1: like
        // services.
        let smooth_service = ServiceDistribution::Deterministic(1.0);
        let light = GG1::new(0.01, 3.0, smooth_service).unwrap();
        assert!((light.departure_scv() - 3.0).abs() < 0.01);
        let heavy = GG1::new(0.99, 3.0, smooth_service).unwrap();
        assert!(heavy.departure_scv() < 0.1);
        // Poisson/exponential fixed point: cd2 = 1 for M/M/1.
        let mm1 = GG1::new(0.5, 1.0, exp_service(1.0)).unwrap();
        assert!((mm1.departure_scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(GG1::new(-1.0, 1.0, exp_service(1.0)).is_err());
        assert!(GG1::new(0.5, -0.1, exp_service(1.0)).is_err());
        assert!(GG1::new(0.5, f64::NAN, exp_service(1.0)).is_err());
        assert!(GG1::new(1.1, 1.0, exp_service(1.0)).is_err());
    }

    #[test]
    fn idle_queue_has_zero_waiting() {
        let g = GG1::new(0.0, 1.0, exp_service(2.0)).unwrap();
        assert_eq!(g.mean_waiting_time(Approximation::AllenCunneen), 0.0);
        assert!((g.mean_sojourn_time(Approximation::KLB) - 2.0).abs() < 1e-12);
    }
}
