//! Scalar fixed-point and root-finding helpers.
//!
//! The paper solves eq. 7 — `λ_eff = λ·(N − L(λ_eff))/N` — "iteratively
//! ... until no considerable change is observed". Naive Picard iteration
//! of that map diverges (oscillates) whenever any service centre is close
//! to saturation, because `L` is extremely steep there. This module
//! provides the damped iteration the paper implicitly relies on, plus a
//! guaranteed-convergence bisection fallback used by `hmcs-core`'s
//! solver: for monotone decreasing `g`, the root of `x − g(x)` is unique
//! and bracketed.

use crate::error::QueueingError;

/// Outcome of a fixed-point / root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solution {
    /// The located fixed point / root.
    pub value: f64,
    /// Number of iterations consumed.
    pub iterations: usize,
    /// Residual `|x − g(x)|` (fixed point) or `|f(x)|` (root) at the
    /// returned value.
    pub residual: f64,
}

/// Options controlling the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Absolute tolerance on the residual.
    pub tolerance: f64,
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Damping factor `d ∈ (0, 1]` for Picard iteration:
    /// `x ← (1−d)·x + d·g(x)`.
    pub damping: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { tolerance: 1e-10, max_iterations: 10_000, damping: 0.5 }
    }
}

/// Damped Picard iteration for a fixed point of `g`.
///
/// Converges for contractive maps; the damping extends convergence to
/// many monotone non-expansive maps. Returns
/// [`QueueingError::NoConvergence`] when the iteration budget runs out.
pub fn damped_fixed_point(
    g: impl Fn(f64) -> f64,
    x0: f64,
    opts: SolverOptions,
) -> Result<Solution, QueueingError> {
    assert!(opts.damping > 0.0 && opts.damping <= 1.0, "damping must be in (0,1]");
    let mut x = x0;
    for it in 0..opts.max_iterations {
        let gx = g(x);
        let residual = (gx - x).abs();
        if residual <= opts.tolerance {
            return Ok(Solution { value: x, iterations: it, residual });
        }
        x = (1.0 - opts.damping) * x + opts.damping * gx;
        if !x.is_finite() {
            return Err(QueueingError::NoConvergence { iterations: it, residual: f64::INFINITY });
        }
    }
    let residual = (g(x) - x).abs();
    Err(QueueingError::NoConvergence { iterations: opts.max_iterations, residual })
}

/// Bisection for a root of `f` on `[lo, hi]`.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs (or one of them to
/// be an exact root). Always converges; returns the midpoint once the
/// bracket is narrower than `tolerance` (absolute, on x) or `|f| ≤
/// tolerance.
pub fn bisect(
    f: impl Fn(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
    opts: SolverOptions,
) -> Result<Solution, QueueingError> {
    assert!(lo <= hi, "invalid bracket [{lo}, {hi}]");
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo.abs() <= opts.tolerance {
        return Ok(Solution { value: lo, iterations: 0, residual: flo.abs() });
    }
    if fhi.abs() <= opts.tolerance {
        return Ok(Solution { value: hi, iterations: 0, residual: fhi.abs() });
    }
    if flo.signum() == fhi.signum() {
        return Err(QueueingError::InvalidParameter {
            name: "bracket",
            reason: "f(lo) and f(hi) must have opposite signs",
        });
    }
    for it in 0..opts.max_iterations {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid.abs() <= opts.tolerance || (hi - lo) <= opts.tolerance {
            return Ok(Solution { value: mid, iterations: it, residual: fmid.abs() });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    let mid = 0.5 * (lo + hi);
    Err(QueueingError::NoConvergence { iterations: opts.max_iterations, residual: f(mid).abs() })
}

/// Relative bracket width at which [`bisect_relative`] stops. Two
/// independent solves each land this close to the unique root of a
/// monotone `f`, so they agree pairwise to twice this value —
/// comfortably inside the 1e-12 relative reproducibility budget the
/// sweeps promise.
pub const BISECT_REL_TOL: f64 = 1e-13;

/// Bisection for a root of `f` on `[lo, hi]` with a relative stopping
/// rule.
///
/// Unlike [`bisect`], convergence uses a fixed **relative** bracket
/// width ([`BISECT_REL_TOL`], with midpoint/endpoint collision as the
/// hard floor), independent of the starting bracket, so any two solves
/// of a monotone `f` agree pairwise to `2·BISECT_REL_TOL ≤ 1e-12`
/// relative. `opts.tolerance` is not consulted; `opts.max_iterations`
/// caps the number of `f` evaluations (the returned `iterations` counts
/// them all, the two endpoint probes included).
pub fn bisect_relative(
    f: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    opts: SolverOptions,
) -> Result<Solution, QueueingError> {
    assert!(lo <= hi, "invalid bracket [{lo}, {hi}]");
    let mut lo = lo;
    let mut hi = hi;
    let mut evals: usize = 0;
    let mut flo = f(lo);
    let fhi = f(hi);
    evals += 2;
    if flo == 0.0 {
        return Ok(Solution { value: lo, iterations: evals, residual: 0.0 });
    }
    if fhi == 0.0 {
        return Ok(Solution { value: hi, iterations: evals, residual: 0.0 });
    }
    if flo.signum() == fhi.signum() {
        return Err(QueueingError::InvalidParameter {
            name: "bracket",
            reason: "f(lo) and f(hi) must have opposite signs",
        });
    }

    while evals < opts.max_iterations {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi || (hi - lo) <= BISECT_REL_TOL * mid.abs() {
            // Relative convergence (or the bracket collapsed to
            // adjacent floats). The residual probe counts too:
            // `iterations` reports every evaluation of `f`.
            return Ok(Solution { value: mid, iterations: evals + 1, residual: f(mid).abs() });
        }
        let fmid = f(mid);
        evals += 1;
        if fmid == 0.0 {
            return Ok(Solution { value: mid, iterations: evals, residual: 0.0 });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    let mid = 0.5 * (lo + hi);
    Err(QueueingError::NoConvergence { iterations: evals, residual: f(mid).abs() })
}

/// Hybrid solver for the common shape in the effective-rate problem:
/// finds the fixed point of a **monotone non-increasing** map `g` on
/// `[lo, hi]`, i.e. the root of `h(x) = g(x) − x`, which is unique for
/// such `g`. Tries fast damped iteration first, then falls back to
/// bisection (guaranteed for this class).
pub fn monotone_fixed_point(
    g: impl Fn(f64) -> f64 + Copy,
    lo: f64,
    hi: f64,
    opts: SolverOptions,
) -> Result<Solution, QueueingError> {
    if let Ok(sol) = damped_fixed_point(g, 0.5 * (lo + hi), opts) {
        if sol.value >= lo - opts.tolerance && sol.value <= hi + opts.tolerance {
            return Ok(sol);
        }
    }
    bisect(move |x| g(x) - x, lo, hi, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damped_iteration_finds_cosine_fixed_point() {
        // x = cos x has the Dottie number ~0.739085.
        let sol = damped_fixed_point(|x| x.cos(), 0.0, SolverOptions::default()).unwrap();
        assert!((sol.value - 0.739_085_133_2).abs() < 1e-8);
    }

    #[test]
    fn undamped_oscillating_map_fails_but_damped_succeeds() {
        // g(x) = 2.5 - x oscillates forever undamped (period 2 orbit),
        // fixed point x = 1.25.
        let undamped = SolverOptions { damping: 1.0, max_iterations: 100, ..Default::default() };
        assert!(damped_fixed_point(|x| 2.5 - x, 0.0, undamped).is_err());
        let damped = SolverOptions { damping: 0.5, ..Default::default() };
        let sol = damped_fixed_point(|x| 2.5 - x, 0.0, damped).unwrap();
        assert!((sol.value - 1.25).abs() < 1e-8);
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let sol = bisect(|x| x * x - 2.0, 0.0, 2.0, SolverOptions::default()).unwrap();
        assert!((sol.value - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_accepts_root_at_endpoint() {
        let sol = bisect(|x| x, 0.0, 1.0, SolverOptions::default()).unwrap();
        assert_eq!(sol.value, 0.0);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn bisect_rejects_same_sign_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, SolverOptions::default()),
            Err(QueueingError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn monotone_solver_handles_steep_effective_rate_shape() {
        // Mimics eq. 7 near saturation: g(x) = lambda * (N - L(x))/N with
        // L(x) = rho/(1-rho), rho = x/mu. Extremely steep near x = mu.
        let (lambda, mu, n) = (250.0, 21.7, 256.0);
        let g = move |x: f64| {
            let rho = (x / mu).min(0.999_999_999);
            let l = (rho / (1.0 - rho)).min(n);
            lambda * (n - l) / n
        };
        let sol = monotone_fixed_point(g, 0.0, lambda, SolverOptions::default()).unwrap();
        // Verify it is a genuine fixed point.
        assert!((g(sol.value) - sol.value).abs() < 1e-6);
        // And strictly inside the stable region.
        assert!(sol.value < mu);
    }

    #[test]
    fn monotone_solver_trivial_when_load_is_light() {
        // L ~ 0 => fixed point ~ lambda.
        let g = |x: f64| 10.0 * (1.0 - 0.001 * x / 10.0);
        let sol = monotone_fixed_point(g, 0.0, 10.0, SolverOptions::default()).unwrap();
        assert!((sol.value - g(sol.value)).abs() < 1e-8);
        assert!(sol.value > 9.9);
    }

    #[test]
    fn relative_bisect_lands_within_its_relative_tolerance() {
        let sol = bisect_relative(|x| 2.0 - x * x, 0.0, 2.0, SolverOptions::default()).unwrap();
        let rel = (sol.value - std::f64::consts::SQRT_2).abs() / std::f64::consts::SQRT_2;
        assert!(rel <= 2.0 * BISECT_REL_TOL, "rel error {rel}");
        // Two endpoint probes, the halvings and the final residual probe.
        assert!(sol.iterations > 2 && sol.iterations < 60, "{} evaluations", sol.iterations);
    }

    #[test]
    fn relative_bisect_rejects_same_sign_bracket() {
        assert!(matches!(
            bisect_relative(|x| x * x + 1.0, -1.0, 1.0, SolverOptions::default()),
            Err(QueueingError::InvalidParameter { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_must_be_positive() {
        let opts = SolverOptions { damping: 0.0, ..Default::default() };
        let _ = damped_fixed_point(|x| x, 0.0, opts);
    }

    #[test]
    fn diverging_map_reports_no_convergence() {
        let opts = SolverOptions { max_iterations: 50, ..Default::default() };
        let err = damped_fixed_point(|x| 2.0 * x + 1.0, 1.0, opts).unwrap_err();
        assert!(matches!(err, QueueingError::NoConvergence { .. }));
    }
}
