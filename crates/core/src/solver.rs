//! The effective-rate fixed point — eqs. 6–7.
//!
//! Assumption 4 makes request sources stop while their message is in
//! flight, so the offered per-processor rate is lower than λ. The paper
//! computes the total number of waiting processors
//!
//! ```text
//! L = C·(2·L_E1 + L_I1) + L_I2            (eq. 6)
//! ```
//!
//! and iterates `λ_eff = λ·(N − L)/N` (eq. 7) "until no considerable
//! change is observed". Because `L(λ_eff)` is monotone increasing and
//! extremely steep near saturation, naive Picard iteration oscillates;
//! we solve the equivalent root problem with guaranteed-convergence
//! bisection over the provably bracketing interval
//! `[0, min(λ, λ_sat)]`, where `λ_sat` is the closed-form smallest
//! per-processor rate that saturates any centre.
//!
//! [`solve`] is the scalar reference the batched kernel
//! ([`crate::kernel`]) is tested against; production evaluations run on
//! the kernel.

use crate::config::{QueueAccounting, SystemConfig};
use crate::error::ModelError;
use crate::rates::TrafficRates;
use crate::service::ServiceTimes;
use hmcs_queueing::fixed_point::{bisect_relative, SolverOptions};
use hmcs_queueing::mg1::MG1;

/// Steady-state metrics of one service centre at the converged rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CenterState {
    /// Arrival rate λᵢ (messages/µs).
    pub arrival_rate: f64,
    /// Mean service time (µs).
    pub service_time_us: f64,
    /// Utilization ρᵢ = λᵢ·Tᵢ.
    pub utilization: f64,
    /// Mean number in system Lᵢ.
    pub number_in_system: f64,
    /// Mean sojourn time Wᵢ (µs) — eq. 16 under exponential service.
    pub sojourn_us: f64,
}

/// The converged equilibrium of the flow-blocking feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Equilibrium {
    /// The effective per-processor generation rate λ_eff (eq. 7).
    pub lambda_eff: f64,
    /// Converged traffic rates (eqs. 1–5 at λ_eff).
    pub rates: TrafficRates,
    /// Per-cluster ICN1 state.
    pub icn1: CenterState,
    /// Per-cluster ECN1 state (single queue at the combined rate of
    /// eq. 5).
    pub ecn1: CenterState,
    /// Global ICN2 state.
    pub icn2: CenterState,
    /// Total waiting processors (eq. 6 under the configured accounting).
    pub total_waiting: f64,
    /// Fraction of nominal generation capacity retained,
    /// `λ_eff/λ ∈ (0, 1]`.
    pub retained_fraction: f64,
    /// Number of fixed-point function evaluations the bisection spent
    /// converging.
    pub solver_iterations: usize,
}

impl Equilibrium {
    /// True when the flow-blocking feedback visibly throttles the
    /// sources (more than 1% of the nominal rate lost).
    pub fn is_throttled(&self) -> bool {
        self.retained_fraction < 0.99
    }

    /// Utilization of the most loaded centre.
    pub fn bottleneck_utilization(&self) -> f64 {
        self.icn1.utilization.max(self.ecn1.utilization).max(self.icn2.utilization)
    }
}

/// Closed-form smallest per-processor rate that saturates any centre.
/// Returns `f64::INFINITY` when no centre can saturate (e.g. `P = 0`
/// makes ECN1/ICN2 idle and only ICN1 binds). Shared with the QNA
/// evaluator so both paths bracket the fixed point identically, and
/// public so harnesses (e.g. the differential fuzz driver in
/// `hmcs-bench`) can sample offered rates at a controlled distance
/// from the stability boundary.
pub fn saturation_lambda(config: &SystemConfig, service: &ServiceTimes) -> f64 {
    let probe = TrafficRates::compute(config, 1.0); // rates per unit lambda
    let (mu1, mu_e, mu2) = service.rates();
    let mut sat = f64::INFINITY;
    if probe.icn1 > 0.0 {
        sat = sat.min(mu1 / probe.icn1);
    }
    if probe.ecn1_total > 0.0 {
        sat = sat.min(mu_e / probe.ecn1_total);
    }
    if probe.icn2 > 0.0 {
        sat = sat.min(mu2 / probe.icn2);
    }
    sat
}

/// Retreats `lambda` toward the stable side of a saturation boundary
/// with geometrically doubling relative steps: `λ ← λ·(1−s)` for
/// `s = 1e-9, 2e-9, 4e-9, …` until `is_stable` holds or the step would
/// remove the whole rate. Returns the stable rate and the number of
/// steps taken (0 when already stable), or `None` when even backing
/// off by ~86% cumulative leaves the predicate false — at that point
/// the problem is not a floating-point edge but a genuinely infeasible
/// rate.
///
/// The previous fixed-step loop (128 × `1e-9`, ~1.3e-7 total slack)
/// could exhaust its guard on very steep saturation curves; doubling
/// steps cover any retreat in at most ~30 probes. Shared by the base
/// solver and the QNA evaluator so both paths behave identically.
pub(crate) fn back_off_to_stable(
    mut lambda: f64,
    mut is_stable: impl FnMut(f64) -> bool,
) -> Option<(f64, u32)> {
    if is_stable(lambda) {
        return Some((lambda, 0));
    }
    let mut step = 1e-9;
    let mut steps = 0u32;
    while step < 1.0 {
        lambda *= 1.0 - step;
        steps += 1;
        if is_stable(lambda) {
            return Some((lambda, steps));
        }
        step *= 2.0;
    }
    None
}

/// Mean number in system of an M/G/1 centre, or `None` when unstable.
/// Under the default exponential service this is the M/M/1 `ρ/(1−ρ)`.
fn center_l(config: &SystemConfig, lambda: f64, service_us: f64) -> Option<f64> {
    if lambda <= 0.0 {
        return Some(0.0);
    }
    let dist = config.service_model.distribution(service_us);
    MG1::new(lambda, dist).ok().map(|q| q.mean_number_in_system())
}

/// Eq. 6 at offered rate `lambda_eff`; `None` when any centre is
/// unstable at that rate.
fn total_waiting(config: &SystemConfig, service: &ServiceTimes, lambda_eff: f64) -> Option<f64> {
    let r = TrafficRates::compute(config, lambda_eff);
    let l_i1 = center_l(config, r.icn1, service.icn1_us)?;
    let l_e1 = center_l(config, r.ecn1_total, service.ecn1_us)?;
    let l_i2 = center_l(config, r.icn2, service.icn2_us)?;
    let c = config.clusters as f64;
    let ecn1_weight = match config.accounting {
        QueueAccounting::PaperLiteral => 2.0,
        QueueAccounting::SingleQueue => 1.0,
    };
    Some(c * (ecn1_weight * l_e1 + l_i1) + l_i2)
}

/// Solves eqs. 6–7 for `config` with the scalar relative bisection.
///
/// This is the **reference** solver: production evaluations run on the
/// batched kernel ([`crate::kernel`]), which replicates this function's
/// floating-point operation sequence lane by lane. The property tests
/// and the `kernel_grid` bench check every kernel result bit for bit
/// against this path; production code does not call it, and it records
/// no metrics.
pub fn solve(config: &SystemConfig) -> Result<Equilibrium, ModelError> {
    config.validate()?;
    let service = ServiceTimes::compute(config)?;
    let lambda = config.lambda_per_us;
    let n = config.total_nodes() as f64;

    // g(x) = lambda * (N - min(L(x), N)) / N, monotone non-increasing.
    let g = |x: f64| -> f64 {
        let l = total_waiting(config, &service, x).unwrap_or(f64::INFINITY);
        lambda * (n - l.min(n)) / n
    };

    let sat = saturation_lambda(config, &service);
    let hi = lambda.min(sat * (1.0 - 1e-12));
    let opts = SolverOptions {
        tolerance: (lambda * 1e-12).max(1e-300),
        max_iterations: 500,
        damping: 0.5,
    };
    let sol = bisect_relative(|x| g(x) - x, 0.0, hi, opts).map_err(|e| match e {
        hmcs_queueing::QueueingError::NoConvergence { residual, .. } => {
            ModelError::SolverFailed { residual }
        }
        other => ModelError::Queueing(other),
    })?;
    // The bisection can land a hair inside the clamp region near
    // saturation; back off to the stable side if needed.
    let (lambda_eff, _) =
        back_off_to_stable(sol.value, |x| total_waiting(config, &service, x).is_some())
            .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;
    let total = total_waiting(config, &service, lambda_eff)
        .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;
    assemble_equilibrium(config, &service, lambda_eff, total, sol.iterations)
}

/// Builds the converged [`Equilibrium`] from a solved effective rate.
/// Shared by the scalar solver and the batched kernel
/// ([`crate::kernel`]) so both paths assemble bit-identical results.
pub(crate) fn assemble_equilibrium(
    config: &SystemConfig,
    service: &ServiceTimes,
    lambda_eff: f64,
    total_waiting: f64,
    solver_iterations: usize,
) -> Result<Equilibrium, ModelError> {
    let lambda = config.lambda_per_us;
    let rates = TrafficRates::compute(config, lambda_eff);
    let make_center = |arrival: f64, service_us: f64| -> Result<CenterState, ModelError> {
        let dist = config.service_model.distribution(service_us);
        let (l, w) = if arrival > 0.0 {
            let q = MG1::new(arrival, dist)?;
            (q.mean_number_in_system(), q.mean_sojourn_time())
        } else {
            (0.0, service_us)
        };
        Ok(CenterState {
            arrival_rate: arrival,
            service_time_us: service_us,
            utilization: arrival * service_us,
            number_in_system: l,
            sojourn_us: w,
        })
    };

    Ok(Equilibrium {
        lambda_eff,
        rates,
        icn1: make_center(rates.icn1, service.icn1_us)?,
        ecn1: make_center(rates.ecn1_total, service.ecn1_us)?,
        icn2: make_center(rates.icn2, service.icn2_us)?,
        total_waiting,
        retained_fraction: lambda_eff / lambda,
        solver_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(clusters: usize, arch: Architecture) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, arch).unwrap()
    }

    #[test]
    fn light_load_barely_throttles() {
        // Literal Table-2 lambda: utilizations are tiny.
        let config = cfg(8, Architecture::NonBlocking)
            .with_lambda(crate::scenario::PAPER_LAMBDA_LITERAL_PER_US);
        let eq = solve(&config).unwrap();
        assert!(!eq.is_throttled());
        assert!(eq.retained_fraction > 0.999);
        assert!(eq.bottleneck_utilization() < 0.01);
        assert!(eq.total_waiting < 1.0);
    }

    #[test]
    fn fixed_point_satisfies_eq7() {
        for c in [1usize, 4, 16, 64, 256] {
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                let config = cfg(c, arch);
                let eq = solve(&config).unwrap();
                let n = config.total_nodes() as f64;
                let rhs = config.lambda_per_us * (n - eq.total_waiting) / n;
                assert!(
                    (eq.lambda_eff - rhs).abs() < 1e-6 * config.lambda_per_us,
                    "eq. 7 violated at C={c} {arch:?}: {} vs {rhs}",
                    eq.lambda_eff
                );
            }
        }
    }

    #[test]
    fn all_centres_stable_at_equilibrium() {
        for c in crate::scenario::PAPER_CLUSTER_COUNTS {
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                let eq = solve(&cfg(c, arch)).unwrap();
                assert!(eq.icn1.utilization < 1.0, "C={c} {arch:?} ICN1");
                assert!(eq.ecn1.utilization < 1.0, "C={c} {arch:?} ECN1");
                assert!(eq.icn2.utilization < 1.0, "C={c} {arch:?} ICN2");
                assert!(eq.lambda_eff > 0.0);
                assert!(eq.lambda_eff <= config_lambda(&cfg(c, arch)) + 1e-18);
            }
        }
    }

    fn config_lambda(c: &SystemConfig) -> f64 {
        c.lambda_per_us
    }

    #[test]
    fn blocking_throttles_harder_than_nonblocking() {
        // The slow blocking networks hold many more processors waiting.
        let nb = solve(&cfg(16, Architecture::NonBlocking)).unwrap();
        let bl = solve(&cfg(16, Architecture::Blocking)).unwrap();
        assert!(bl.lambda_eff < nb.lambda_eff);
        assert!(bl.total_waiting > nb.total_waiting);
    }

    #[test]
    fn single_cluster_has_idle_inter_cluster_tiers() {
        let eq = solve(&cfg(1, Architecture::NonBlocking)).unwrap();
        assert_eq!(eq.ecn1.arrival_rate, 0.0);
        assert_eq!(eq.icn2.arrival_rate, 0.0);
        assert_eq!(eq.ecn1.number_in_system, 0.0);
        assert!(eq.icn1.arrival_rate > 0.0);
    }

    #[test]
    fn accounting_variants_order_correctly() {
        // Paper-literal double-counts ECN1 occupancy => larger L =>
        // stronger throttling.
        let base = cfg(32, Architecture::NonBlocking);
        let literal = solve(&base.with_accounting(QueueAccounting::PaperLiteral)).unwrap();
        let single = solve(&base.with_accounting(QueueAccounting::SingleQueue)).unwrap();
        assert!(literal.total_waiting >= single.total_waiting);
        assert!(literal.lambda_eff <= single.lambda_eff + 1e-18);
    }

    #[test]
    fn saturation_lambda_closed_form() {
        let config = cfg(8, Architecture::NonBlocking);
        let service = ServiceTimes::compute(&config).unwrap();
        let sat = saturation_lambda(&config, &service);
        // Just below: all centres stable. Just above: some centre
        // unstable.
        assert!(total_waiting(&config, &service, sat * 0.999).is_some());
        assert!(total_waiting(&config, &service, sat * 1.001).is_none());
    }

    #[test]
    fn deterministic_service_reduces_waiting() {
        use crate::config::ServiceTimeModel;
        let exp = solve(&cfg(16, Architecture::NonBlocking)).unwrap();
        let det = solve(
            &cfg(16, Architecture::NonBlocking).with_service_model(ServiceTimeModel::Deterministic),
        )
        .unwrap();
        assert!(det.total_waiting < exp.total_waiting);
        assert!(det.lambda_eff > exp.lambda_eff);
    }

    #[test]
    fn back_off_reaches_beyond_old_fixed_step_budget() {
        // Regression: 128 fixed 1e-9 steps cap the retreat at ~1.28e-7
        // relative, so a boundary needing a 1e-5 retreat exhausted the
        // old guard and the solve failed. Doubling steps cover it.
        let boundary = 1.0 - 1e-5;
        let (stable, steps) = back_off_to_stable(1.0, |x| x < boundary).unwrap();
        assert!(stable < boundary);
        assert!(
            steps > 0 && steps <= 30,
            "geometric retreat should need O(log) probes, took {steps}"
        );
        // The old loop could not have got here: even its full budget
        // retreats less than this boundary requires.
        let old_budget_floor = (1.0f64 - 1e-9).powi(128);
        assert!(old_budget_floor > boundary, "test boundary must defeat the old fixed loop");
    }

    #[test]
    fn back_off_is_noop_when_already_stable() {
        assert_eq!(back_off_to_stable(0.5, |_| true), Some((0.5, 0)));
    }

    #[test]
    fn back_off_gives_up_on_infeasible_rates() {
        assert_eq!(back_off_to_stable(1.0, |_| false), None);
    }

    #[test]
    fn back_off_takes_smallest_sufficient_retreat() {
        // A one-ulp-style overshoot should still resolve in one step of
        // the original 1e-9 size, keeping the common case unchanged.
        let boundary = 1.0 - 5e-10;
        let (stable, steps) = back_off_to_stable(1.0, |x| x < boundary).unwrap();
        assert_eq!(steps, 1);
        assert!((stable - (1.0 - 1e-9)).abs() < 1e-15);
    }

    #[test]
    fn heavy_overload_retains_little() {
        // lambda 100x the figure-scale rate: deep saturation; the fixed
        // point still exists and the retained fraction is small.
        let config = cfg(256, Architecture::Blocking).with_lambda(2.5e-2);
        let eq = solve(&config).unwrap();
        assert!(eq.is_throttled());
        assert!(eq.retained_fraction < 0.1);
        assert!(eq.bottleneck_utilization() < 1.0);
        // Most processors are waiting.
        assert!(eq.total_waiting > 0.8 * 256.0);
    }
}
