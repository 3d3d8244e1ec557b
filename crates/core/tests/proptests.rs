//! Property tests for the effective-rate bisection
//! ([`hmcs_core::solver::bisect_relative`]).

use hmcs_core::solver::{bisect_relative, BISECT_REL_TOL, MAX_EVALS};
use proptest::prelude::*;

proptest! {
    /// Bisection converges on the root of any bracketed monotone
    /// function, to the relative stopping width.
    #[test]
    fn bisect_converges(root in -5.0f64..5.0) {
        let (x, evals) = bisect_relative(move |x: f64| x - root, -10.0, 10.0).unwrap();
        prop_assert!((x - root).abs() <= BISECT_REL_TOL * root.abs(), "{x} vs {root}");
        prop_assert!(evals <= MAX_EVALS);
    }

    /// An eq.-7-shaped map g(x) = λ(N − L(x))/N, with one M/M/1 centre
    /// that is steep near saturation, has its fixed point found strictly
    /// inside stability.
    #[test]
    fn effective_rate_fixed_point(
        lambda in 0.1f64..300.0,
        mu in 1.0f64..100.0,
        n in 2.0f64..512.0,
    ) {
        let g = move |x: f64| {
            let rho = (x / mu).min(1.0 - 1e-12);
            let l = (rho / (1.0 - rho)).min(n);
            lambda * (n - l) / n
        };
        let (x, _) = bisect_relative(|x| g(x) - x, 0.0, lambda).unwrap();
        prop_assert!((g(x) - x).abs() < 1e-5 * (1.0 + x));
        prop_assert!(x > 0.0 && x <= lambda);
        prop_assert!(x < mu, "fixed point {x} at or beyond saturation {mu}");
    }
}
