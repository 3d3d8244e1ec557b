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
//! This module holds the one effective-rate bisection in the workspace:
//! [`bisect_relative`] with its stopping rule ([`BISECT_REL_TOL`]) and
//! evaluation budget ([`MAX_EVALS`]), and the crate-private driver
//! `solve_effective_rate` that owns the bracket, the bisection, the
//! error mapping and the near-saturation back-off. Three models call
//! the driver and supply only their own eq.-6 sum and saturation rate:
//! [`solve`] (the paper's M/M/1 centres), [`crate::qna::evaluate`]
//! (GI/G/1 centres) and [`crate::cluster_of_clusters::evaluate`]
//! (unequal clusters). The batched kernel ([`crate::kernel`]) runs the
//! same schedule lane by lane with the same constants.
//!
//! [`solve`] is the scalar reference the batched kernel is tested
//! against; production evaluations run on the kernel.

use crate::config::{QueueAccounting, SystemConfig};
use crate::error::ModelError;
use crate::rates::TrafficRates;
use crate::service::ServiceTimes;
use hmcs_queueing::mg1::MG1;
use hmcs_queueing::QueueingError;

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
    saturation_from(&TrafficRates::compute(config, 1.0), service.rates())
}

/// [`saturation_lambda`] from the arrival rates at λ = 1 (`probe`) and
/// the tiers' service rates `(µ_ICN1, µ_ECN1, µ_ICN2)`, for a caller
/// that holds both for many designs (the optimizer's enumeration).
pub(crate) fn saturation_from(probe: &TrafficRates, (mu1, mu_e, mu2): (f64, f64, f64)) -> f64 {
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

/// Relative bracket width at which [`bisect_relative`] stops. Two
/// independent solves each land this close to the unique root of a
/// monotone `f`, so they agree pairwise to twice this value —
/// comfortably inside the 1e-12 relative reproducibility budget the
/// sweeps promise.
pub const BISECT_REL_TOL: f64 = 1e-13;

/// Cap on the evaluations of `f` one [`bisect_relative`] call may
/// spend, the two endpoint probes included.
pub const MAX_EVALS: usize = 500;

/// The top of the eq.-7 bracket `[0, hi]`: the offered rate, clamped a
/// hair inside the closed-form saturation rate so that every centre is
/// stable at the bracket's high edge. Every kernel lane starts from the
/// same value.
pub(crate) fn bracket_top(lambda: f64, saturation: f64) -> f64 {
    lambda.min(saturation * (1.0 - 1e-12))
}

/// The weight eq. 6 gives a cluster's ECN1 population: the paper's
/// literal accounting counts the ECN1 queue at both ends of an external
/// message, a single queue counts it once.
pub(crate) fn ecn1_weight(accounting: QueueAccounting) -> f64 {
    match accounting {
        QueueAccounting::PaperLiteral => 2.0,
        QueueAccounting::SingleQueue => 1.0,
    }
}

/// The error [`bisect_relative`] (and every kernel lane) reports when
/// `f(lo)` and `f(hi)` share a sign.
pub(crate) const BRACKET_ERROR: ModelError =
    ModelError::Queueing(QueueingError::InvalidParameter {
        name: "bracket",
        reason: "f(lo) and f(hi) must have opposite signs",
    });

/// Bisection for a root of `f` on `[lo, hi]` with a relative stopping
/// rule: it stops once the bracket is narrower than [`BISECT_REL_TOL`]
/// relative to its midpoint (midpoint/endpoint collision is the hard
/// floor), independent of the starting bracket, so any two solves of a
/// monotone `f` agree pairwise to `2·BISECT_REL_TOL ≤ 1e-12` relative.
///
/// Returns the root and the number of evaluations of `f`: the two
/// endpoint probes, every midpoint probe, and on relative convergence
/// one residual probe at the returned midpoint. `f` is pure and that
/// residual is never read, so the probe is counted but not made — the
/// batched kernel counts it the same way. Fails with the `"bracket"`
/// [`QueueingError::InvalidParameter`] (inside [`ModelError::Queueing`])
/// when `f(lo)` and `f(hi)` share a sign, and with
/// [`ModelError::SolverFailed`] (carrying `|f|` at the last midpoint)
/// when [`MAX_EVALS`] runs out.
pub fn bisect_relative(
    f: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
) -> Result<(f64, usize), ModelError> {
    assert!(lo <= hi, "invalid bracket [{lo}, {hi}]");
    let mut lo = lo;
    let mut hi = hi;
    let mut flo = f(lo);
    let fhi = f(hi);
    let mut evals: usize = 2;
    if flo == 0.0 {
        return Ok((lo, evals));
    }
    if fhi == 0.0 {
        return Ok((hi, evals));
    }
    if flo.signum() == fhi.signum() {
        return Err(BRACKET_ERROR);
    }
    while evals < MAX_EVALS {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi || (hi - lo) <= BISECT_REL_TOL * mid.abs() {
            return Ok((mid, evals + 1));
        }
        let fmid = f(mid);
        evals += 1;
        if fmid == 0.0 {
            return Ok((mid, evals));
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Err(ModelError::SolverFailed { residual: f(0.5 * (lo + hi)).abs() })
}

/// Retreats `lambda` toward the stable side of a saturation boundary
/// with geometrically doubling relative steps: `λ ← λ·(1−s)` for
/// `s = 1e-9, 2e-9, 4e-9, …` until `probe` returns `Some` or the step
/// would remove the whole rate. Returns the stable rate, the probe's
/// value there and the number of steps taken (0 when already stable),
/// or `None` when even backing off by ~86% cumulative leaves the probe
/// failing — at that point the problem is not a floating-point edge but
/// a genuinely infeasible rate. Doubling steps cover any retreat in at
/// most ~30 probes.
pub(crate) fn back_off_to_stable<T>(
    mut lambda: f64,
    mut probe: impl FnMut(f64) -> Option<T>,
) -> Option<(f64, T, u32)> {
    if let Some(v) = probe(lambda) {
        return Some((lambda, v, 0));
    }
    let mut step = 1e-9;
    let mut steps = 0u32;
    while step < 1.0 {
        lambda *= 1.0 - step;
        steps += 1;
        if let Some(v) = probe(lambda) {
            return Some((lambda, v, steps));
        }
        step *= 2.0;
    }
    None
}

/// A solved effective rate, as [`solve_effective_rate`] returns it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EffectiveRate {
    /// The effective per-processor rate λ_eff (eq. 7).
    pub lambda_eff: f64,
    /// Eq. 6's total waiting processors at `lambda_eff`.
    pub total_waiting: f64,
    /// Evaluations of the root function, counted as
    /// [`bisect_relative`] counts them.
    pub evals: usize,
    /// Back-off steps taken after the bisection (0 in the common case).
    pub backoff_steps: u32,
}

/// Solves eq. 7, `λ_eff = λ·(N − L(λ_eff))/N`, for a model given by
/// its eq.-6 sum `total_waiting` (`None` when any centre is unstable at
/// that rate) and its closed-form saturation rate `saturation`
/// (`f64::INFINITY` when no centre can saturate).
///
/// Bisects the root of `g(x) − x` over `[0, min(λ, sat·(1−1e-12))]`,
/// with an unstable `L` read as `N`: at the upper end the bottleneck
/// queue holds more than `N` processors, so the root is bracketed. The
/// bisection can land a hair inside the unstable clamp region near
/// saturation; the result then backs off to the stable side
/// ([`back_off_to_stable`]) instead of failing.
pub(crate) fn solve_effective_rate(
    lambda: f64,
    n: f64,
    saturation: f64,
    total_waiting: impl Fn(f64) -> Option<f64>,
) -> Result<EffectiveRate, ModelError> {
    let f = |x: f64| {
        let l = total_waiting(x).unwrap_or(f64::INFINITY);
        lambda * (n - l.min(n)) / n - x
    };
    let hi = bracket_top(lambda, saturation);
    let (root, evals) = bisect_relative(f, 0.0, hi)?;
    let (lambda_eff, total_waiting, backoff_steps) = back_off_to_stable(root, &total_waiting)
        .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;
    Ok(EffectiveRate { lambda_eff, total_waiting, evals, backoff_steps })
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
    Some(c * (ecn1_weight(config.accounting) * l_e1 + l_i1) + l_i2)
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
    let solved = solve_effective_rate(
        config.lambda_per_us,
        config.total_nodes() as f64,
        saturation_lambda(config, &service),
        |x| total_waiting(config, &service, x),
    )?;
    assemble_equilibrium(config, &service, solved.lambda_eff, solved.total_waiting, solved.evals)
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
    fn relative_bisect_lands_within_its_relative_tolerance() {
        let (root, evals) = bisect_relative(|x| 2.0 - x * x, 0.0, 2.0).unwrap();
        let rel = (root - std::f64::consts::SQRT_2).abs() / std::f64::consts::SQRT_2;
        assert!(rel <= 2.0 * BISECT_REL_TOL, "rel error {rel}");
        // Two endpoint probes, the halvings and the final residual probe.
        assert!(evals > 2 && evals < 60, "{evals} evaluations");
    }

    #[test]
    fn relative_bisect_accepts_root_at_endpoint() {
        assert_eq!(bisect_relative(|x| x, 0.0, 1.0).unwrap(), (0.0, 2));
        assert_eq!(bisect_relative(|x| x - 1.0, 0.0, 1.0).unwrap(), (1.0, 2));
    }

    #[test]
    fn relative_bisect_rejects_same_sign_bracket() {
        assert_eq!(bisect_relative(|x| x * x + 1.0, -1.0, 1.0), Err(BRACKET_ERROR));
    }

    #[test]
    fn relative_bisect_reports_an_exhausted_budget() {
        // A root 1e-300 above the bracket's zero end is ~1000 halvings
        // away: the relative rule cannot fire while `lo` stays at 0, so
        // the evaluation budget runs out first.
        match bisect_relative(|x| 1e-300 - x, 0.0, 1.0) {
            Err(ModelError::SolverFailed { residual }) => assert!(residual > 0.0),
            other => panic!("expected SolverFailed, got {other:?}"),
        }
    }

    #[test]
    fn monotone_solver_handles_steep_effective_rate_shape() {
        // Eq. 7 near saturation: one M/M/1 centre, L(x) = ρ/(1−ρ) with
        // ρ = x/µ, offered far above the saturation rate µ.
        let (lambda, mu, n) = (250.0, 21.7, 256.0);
        let waiting = |x: f64| (x < mu).then(|| (x / mu) / (1.0 - x / mu));
        let solved = solve_effective_rate(lambda, n, mu, waiting).unwrap();
        let x = solved.lambda_eff;
        // A genuine fixed point, strictly inside the stable region.
        assert!((lambda * (n - solved.total_waiting) / n - x).abs() < 1e-6);
        assert!(x < mu);
        assert!(solved.evals <= MAX_EVALS);
    }

    #[test]
    fn monotone_solver_trivial_when_load_is_light() {
        // L ≈ 0 and no centre can saturate: the fixed point is ≈ λ.
        let (lambda, n) = (10.0, 100.0);
        let solved =
            solve_effective_rate(lambda, n, f64::INFINITY, |x| Some(n * 1e-4 * x)).unwrap();
        let x = solved.lambda_eff;
        assert!((lambda * (n - solved.total_waiting) / n - x).abs() < 1e-8);
        assert!(x > 9.9);
        assert_eq!(solved.backoff_steps, 0);
    }

    #[test]
    fn back_off_reaches_beyond_old_fixed_step_budget() {
        // Regression: 128 fixed 1e-9 steps cap the retreat at ~1.28e-7
        // relative, so a boundary needing a 1e-5 retreat exhausted the
        // old guard and the solve failed. Doubling steps cover it.
        let boundary = 1.0 - 1e-5;
        let (stable, (), steps) =
            back_off_to_stable(1.0, |x| (x < boundary).then_some(())).unwrap();
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
        assert_eq!(back_off_to_stable(0.5, |_| Some(())), Some((0.5, (), 0)));
    }

    #[test]
    fn back_off_gives_up_on_infeasible_rates() {
        assert_eq!(back_off_to_stable(1.0, |_| None::<()>), None);
    }

    #[test]
    fn back_off_takes_smallest_sufficient_retreat() {
        // A one-ulp-style overshoot should still resolve in one step of
        // the original 1e-9 size, keeping the common case unchanged.
        let boundary = 1.0 - 5e-10;
        let (stable, (), steps) =
            back_off_to_stable(1.0, |x| (x < boundary).then_some(())).unwrap();
        assert_eq!(steps, 1);
        assert!((stable - (1.0 - 1e-9)).abs() < 1e-15);
    }

    #[test]
    fn heavy_overload_retains_little() {
        // lambda 100x the figure-scale rate: deep saturation; the fixed
        // point still exists and the retained fraction is small.
        let config = cfg(256, Architecture::Blocking).with_lambda(2.5e-2);
        let eq = solve(&config).unwrap();
        assert!(eq.retained_fraction < 0.1);
        assert!(eq.bottleneck_utilization() < 1.0);
        // Most processors are waiting.
        assert!(eq.total_waiting > 0.8 * 256.0);
    }
}
