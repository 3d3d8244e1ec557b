//! Batched structure-of-arrays fixed-point kernel.
//!
//! Every production evaluation runs here: the figure drivers, the
//! parameter sweeps, the optimizer, the server and the single-point
//! [`AnalyticalModel::evaluate`](crate::model::AnalyticalModel::evaluate)
//! facade. The scalar reference solver ([`crate::solver::solve`])
//! re-derives everything per point: it validates the config, rebuilds
//! the topology service times, and every one of the ~45 bisection
//! probes re-runs the traffic equations (eqs. 1–5), re-constructs the
//! three service distributions and re-validates an
//! [`MG1`](hmcs_queueing::mg1::MG1) per centre.
//!
//! [`BatchKernel`] hoists everything λ-independent out of the loop
//! once per *lane* (one lane = one configuration) into flat `f64`
//! arrays — traffic coefficients, per-tier service moments, bracket
//! state — and then advances the bisection of **all** lanes in
//! lockstep with per-lane convergence masking: one pass over the
//! fixed-point loop moves the whole sweep forward by one probe. The
//! inner evaluation reduces to ~20 flops and three stability branches
//! per lane.
//!
//! ## Bit-identity contract
//!
//! The kernel is an *optimisation*, not a re-derivation: it replicates
//! the scalar solver's floating-point operation sequence exactly —
//! same association, same branch structure, same probe ordering, same
//! degenerate-bracket conventions — so every lane's
//! [`PerformanceReport`] equals the report assembled from
//! [`crate::solver::solve`] to `f64::to_bits`, including the solver
//! iteration count and every error variant. The scalar solver is kept
//! only as that reference: `tests/kernel_properties.rs` fuzzes
//! lane-vs-scalar equality over the 16–512-processor validity region
//! and the `kernel_grid` bench asserts it on the figure lambda grid.

use crate::batch::{self, EvalStats};
use crate::config::{QueueAccounting, SystemConfig};
use crate::error::ModelError;
use crate::metrics::{self, keys};
use crate::model::PerformanceReport;
use crate::service::ServiceTimes;
use crate::solver;
use hmcs_queueing::fixed_point::BISECT_REL_TOL;
use hmcs_queueing::QueueingError;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Mirrors `SolverOptions::max_iterations` in the scalar solver: the
/// cap on fixed-point function evaluations per lane.
const MAX_EVALS: usize = 500;

/// Mean number in system of an M/G/1 centre from precomputed moments,
/// or `f64::INFINITY` when unstable — the lane-local replica of the
/// scalar `center_l` (`None` becomes `INFINITY`, which is what the
/// scalar caller substitutes anyway). `mean`/`m2` are `f64::INFINITY`
/// for tiers whose service distribution failed validation, which makes
/// any positive arrival read as unstable, exactly like the scalar
/// path's `MG1::new(..).ok()`.
///
/// Written select-style (both arms computed, conditionally chosen) so
/// the lockstep loop's evaluations stay straight-line: the speculative
/// division is IEEE-safe (a non-positive denominator yields ±inf/nan,
/// discarded by the select) and the chosen value is bit-identical to
/// the scalar branch.
#[inline(always)]
fn center_l_fast(lambda: f64, mean: f64, m2: f64) -> f64 {
    let rho = lambda * mean;
    let wq = lambda * m2 / (2.0 * (1.0 - rho));
    let l = lambda * (wq + mean);
    if lambda <= 0.0 {
        0.0
    } else if rho >= 1.0 {
        f64::INFINITY
    } else {
        l
    }
}

/// The `Option` form of [`center_l_fast`], for the solve tail where the
/// scalar path's `None`-vs-`Some` distinction is observable (the
/// back-off stability predicate asks "were all centres stable", not
/// "was the sum finite").
#[inline]
fn center_l_checked(lambda: f64, mean: f64, m2: f64) -> Option<f64> {
    if lambda <= 0.0 {
        return Some(0.0);
    }
    let rho = lambda * mean;
    if rho >= 1.0 {
        return None;
    }
    let wq = lambda * m2 / (2.0 * (1.0 - rho));
    Some(lambda * (wq + mean))
}

/// Eq. 7 root function `g(x) − x` for lane `$i`, expanded over the SoA
/// columns named at the call site. Every probe in the kernel expands
/// from this one macro, so the endpoint pass and the lockstep passes
/// share a single floating-point op sequence — the bit-identity
/// contract reduced to one definition. (A macro rather than a helper
/// function: the math must land *textually* inside each probe loop for
/// the autovectoriser to see straight-line code; an out-of-line call
/// defeats it.)
macro_rules! eval_f {
    (
        $i:expr, $x:expr;
        $a_icn1:ident, $a_fwd:ident, $a_icn2:ident, $c:ident, $w_e1:ident,
        $mean_i1:ident, $m2_i1:ident, $mean_e1:ident, $m2_e1:ident,
        $mean_i2:ident, $m2_i2:ident, $lambda:ident, $n:ident
    ) => {{
        let i = $i;
        let x = $x;
        let icn1 = $a_icn1[i] * x;
        let fwd = $a_fwd[i] * x;
        let icn2 = $a_icn2[i] * x;
        let ecn1_total = fwd + icn2 / $c[i];
        let l_i1 = center_l_fast(icn1, $mean_i1[i], $m2_i1[i]);
        let l_e1 = center_l_fast(ecn1_total, $mean_e1[i], $m2_e1[i]);
        let l_i2 = center_l_fast(icn2, $mean_i2[i], $m2_i2[i]);
        let l = $c[i] * ($w_e1[i] * l_e1 + l_i1) + l_i2;
        $lambda[i] * ($n[i] - l.min($n[i])) / $n[i] - x
    }};
}

/// Evaluates `out[i] = f(x[i])` branchless over every lane — the
/// endpoint probes at the head of the scalar `bisect_relative`, run as
/// one data-parallel pass.
///
/// The probe loops live in free functions because Rust attaches
/// `noalias` to reference *parameters* only. Reborrowed as locals
/// inside `solve`, the ~15 columns would force the autovectoriser to
/// prove disjointness with runtime overlap checks — more than LLVM
/// will emit ("loop not vectorized: too many memory checks needed") —
/// and the pass would silently run scalar, forfeiting most of the
/// kernel's speedup. `inline(never)` keeps the parameter attributes
/// load-bearing instead of relying on the inliner to preserve the
/// aliasing scopes.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn probe_pass(
    out: &mut [f64],
    x: &[f64],
    a_icn1: &[f64],
    a_fwd: &[f64],
    a_icn2: &[f64],
    c: &[f64],
    w_e1: &[f64],
    mean_i1: &[f64],
    m2_i1: &[f64],
    mean_e1: &[f64],
    m2_e1: &[f64],
    mean_i2: &[f64],
    m2_i2: &[f64],
    lambda: &[f64],
    n: &[f64],
) {
    let len = out.len();
    // Pre-slice every column to the shared length so the per-index
    // bounds checks fold away (a reachable panic edge inside the loop
    // would also defeat vectorisation).
    let (x, a_icn1, a_fwd, a_icn2, c, w_e1) =
        (&x[..len], &a_icn1[..len], &a_fwd[..len], &a_icn2[..len], &c[..len], &w_e1[..len]);
    let (mean_i1, m2_i1, mean_e1, m2_e1, mean_i2, m2_i2, lambda, n) = (
        &mean_i1[..len],
        &m2_i1[..len],
        &mean_e1[..len],
        &m2_e1[..len],
        &mean_i2[..len],
        &m2_i2[..len],
        &lambda[..len],
        &n[..len],
    );
    macro_rules! f {
        ($i:expr, $x:expr) => {
            eval_f!(
                $i, $x;
                a_icn1, a_fwd, a_icn2, c, w_e1,
                mean_i1, m2_i1, mean_e1, m2_e1, mean_i2, m2_i2, lambda, n
            )
        };
    }
    for i in 0..len {
        out[i] = f!(i, x[i]);
    }
}

/// One lockstep bisection pass over every lane: probe the midpoint,
/// record the convergence verdict and residual, and advance the
/// bracket select-style — the bisection's inherently unpredictable
/// sign branch becomes a blend, and the loop body straight-line SIMD.
/// Terminal lanes hold degenerate brackets (`lo == hi == v` gives
/// `mid == v` exactly), so their convergence mask holds and nothing
/// moves. See [`probe_pass`] for why this is a free function.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn lockstep_pass(
    lo: &mut [f64],
    hi: &mut [f64],
    flo: &mut [f64],
    mids: &mut [f64],
    fms: &mut [f64],
    convf: &mut [f64],
    a_icn1: &[f64],
    a_fwd: &[f64],
    a_icn2: &[f64],
    c: &[f64],
    w_e1: &[f64],
    mean_i1: &[f64],
    m2_i1: &[f64],
    mean_e1: &[f64],
    m2_e1: &[f64],
    mean_i2: &[f64],
    m2_i2: &[f64],
    lambda: &[f64],
    n: &[f64],
) {
    let len = lo.len();
    let (hi, flo, mids, fms, convf) =
        (&mut hi[..len], &mut flo[..len], &mut mids[..len], &mut fms[..len], &mut convf[..len]);
    let (a_icn1, a_fwd, a_icn2, c, w_e1) =
        (&a_icn1[..len], &a_fwd[..len], &a_icn2[..len], &c[..len], &w_e1[..len]);
    let (mean_i1, m2_i1, mean_e1, m2_e1, mean_i2, m2_i2, lambda, n) = (
        &mean_i1[..len],
        &m2_i1[..len],
        &mean_e1[..len],
        &m2_e1[..len],
        &mean_i2[..len],
        &m2_i2[..len],
        &lambda[..len],
        &n[..len],
    );
    macro_rules! f {
        ($i:expr, $x:expr) => {
            eval_f!(
                $i, $x;
                a_icn1, a_fwd, a_icn2, c, w_e1,
                mean_i1, m2_i1, mean_e1, m2_e1, mean_i2, m2_i2, lambda, n
            )
        };
    }
    for i in 0..len {
        let lane_lo = lo[i];
        let lane_hi = hi[i];
        let mid = 0.5 * (lane_lo + lane_hi);
        let conv =
            mid <= lane_lo || mid >= lane_hi || (lane_hi - lane_lo) <= BISECT_REL_TOL * mid.abs();
        let fm = f!(i, mid);
        // Scalar: `fmid.signum() == flo.signum()` moves the low edge,
        // else the high edge. Both are non-zero and non-NaN when the
        // update mask is live (an exact zero parks the lane in the
        // bookkeeping sweep before the next pass; `f` is finite for
        // validated lanes), so comparing signs via `> 0` is
        // equivalent.
        let upd = !conv && fm != 0.0;
        let same_sign = (fm > 0.0) == (flo[i] > 0.0);
        let up_lo = upd && same_sign;
        let up_hi = upd && !same_sign;
        mids[i] = mid;
        fms[i] = fm;
        convf[i] = if conv { 1.0 } else { 0.0 };
        lo[i] = if up_lo { mid } else { lane_lo };
        flo[i] = if up_lo { fm } else { flo[i] };
        hi[i] = if up_hi { mid } else { lane_hi };
    }
}

/// Per-lane solver outcome, tracked alongside the SoA state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneState {
    /// Still bisecting.
    Active,
    /// Bisection converged at `value` after `iterations` evaluations.
    Done,
    /// Preparation or solving failed; the error is in `errors[i]`.
    Failed,
    /// A bounded solve certified mid-flight that this lane's latency
    /// cannot beat its prune threshold; the certified lower bound is in
    /// `pruned_lb[i]`.
    Pruned,
}

/// Per-lane prune thresholds for [`BatchKernel::evaluate_bounded`].
/// `f64::INFINITY` disables the corresponding bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneBounds {
    /// Prune the lane once its latency is certified strictly above this
    /// SLO (the lane would be `above_slo` in an exhaustive pass).
    pub slo_us: f64,
    /// Prune the lane once its latency is certified at or above this
    /// value (a strictly cheaper feasible design already achieved it,
    /// so the lane would be Pareto-dominated in an exhaustive pass).
    pub dominated_at_us: f64,
}

impl LaneBounds {
    /// No bounds: the lane solves to completion like [`BatchKernel::solve`].
    pub const NONE: LaneBounds =
        LaneBounds { slo_us: f64::INFINITY, dominated_at_us: f64::INFINITY };
}

/// One lane's outcome from a bounded solve.
// `Solved` dominates the size, but outcomes are consumed immediately from a
// per-wave Vec on the optimizer hot path; boxing the report would add one
// heap allocation per evaluated lane to shave bytes off pruned lanes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum LaneOutcome {
    /// The lane solved to completion, bit-identical to an unbounded solve.
    Solved(PerformanceReport, EvalStats),
    /// Preparation or solving failed, bit-identical to an unbounded solve.
    Failed(ModelError),
    /// The lane was abandoned after its mean latency was certified to be
    /// at least `latency_lb_us`, which crossed a [`LaneBounds`] threshold.
    Pruned {
        /// A certified lower bound on the latency the full solve would
        /// have reported.
        latency_lb_us: f64,
    },
}

/// Mean-sojourn form of [`center_l_fast`]: the M/G/1 sojourn `W = S +
/// Wq` from precomputed moments, `f64::INFINITY` when unstable. Used by
/// the mid-flight prune check, which needs latency (a sojourn mix)
/// rather than population.
#[inline]
fn sojourn_fast(arrival: f64, mean: f64, m2: f64) -> f64 {
    if arrival <= 0.0 {
        return mean;
    }
    let rho = arrival * mean;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    mean + arrival * m2 / (2.0 * (1.0 - rho))
}

/// A batch of fixed-point solves advanced in lockstep.
///
/// Build one with [`BatchKernel::new`] (per-lane service times, the
/// general heterogeneous-shape case) or [`BatchKernel::with_service`]
/// (one shared shape swept over λ), then call [`BatchKernel::solve`].
/// Results come back in lane order, each lane bit-identical to
/// [`crate::solver::solve`] on the same configuration.
///
/// A kernel is also a reusable *arena*: [`BatchKernel::evaluate`] and
/// [`BatchKernel::evaluate_bounded`] rewind every column to the exact
/// state a fresh build would produce without releasing capacity, so
/// steady-state callers ([`evaluate_batch`]'s worker pool, the
/// optimizer's wave loop, the serve micro-batcher, the single-point
/// facade) solve batch after batch without touching the allocator.
#[derive(Debug, Default)]
pub struct BatchKernel {
    configs: Vec<SystemConfig>,
    service: Vec<ServiceTimes>,
    // --- per-lane λ-independent constants (structure of arrays) ---
    lambda: Vec<f64>,
    n: Vec<f64>,
    c: Vec<f64>,
    p_ext: Vec<f64>,
    a_icn1: Vec<f64>,
    a_fwd: Vec<f64>,
    a_icn2: Vec<f64>,
    w_e1: Vec<f64>,
    mean_i1: Vec<f64>,
    m2_i1: Vec<f64>,
    mean_e1: Vec<f64>,
    m2_e1: Vec<f64>,
    mean_i2: Vec<f64>,
    m2_i2: Vec<f64>,
    hi0: Vec<f64>,
    // --- per-lane bracket / convergence state ---
    lo: Vec<f64>,
    hi: Vec<f64>,
    flo: Vec<f64>,
    evals: Vec<usize>,
    value: Vec<f64>,
    iterations: Vec<usize>,
    state: Vec<LaneState>,
    errors: Vec<Option<ModelError>>,
    // --- bounded-solve thresholds and certificates ---
    bound_active: bool,
    thr_slo: Vec<f64>,
    thr_dom: Vec<f64>,
    pruned_lb: Vec<f64>,
    // --- solve-scratch columns (endpoint residuals, midpoints,
    //     convergence flags), retained across resets ---
    f_los: Vec<f64>,
    f_his: Vec<f64>,
    mids: Vec<f64>,
    fms: Vec<f64>,
    convf: Vec<f64>,
}

impl BatchKernel {
    /// Prepares one lane per configuration, computing each lane's
    /// service times from its own topology (the [`solver::solve`]
    /// contract).
    pub fn new(configs: &[SystemConfig]) -> Self {
        Self::build(configs, None)
    }

    /// Prepares one lane per configuration reusing one precomputed
    /// (λ-independent) [`ServiceTimes`] for every lane — the λ-grid
    /// case where all lanes share a shape.
    pub fn with_service(configs: &[SystemConfig], shared: &ServiceTimes) -> Self {
        Self::build(configs, Some(shared))
    }

    fn build(configs: &[SystemConfig], shared: Option<&ServiceTimes>) -> Self {
        let mut k = BatchKernel::default();
        k.reset(configs, shared);
        k
    }

    /// Rewinds the arena to the state [`BatchKernel::new`] would build
    /// for `configs` and solves it in place, reusing every column's
    /// capacity: one batch through a reusable arena, bit-identical to a
    /// freshly built kernel.
    pub fn evaluate(
        &mut self,
        configs: &[SystemConfig],
    ) -> Vec<Result<(PerformanceReport, EvalStats), ModelError>> {
        self.reset(configs, None);
        self.solve_in_place()
    }

    /// Bounded solve: lanes whose latency is certified (mid-flight, via
    /// the monotone lower bound at the bracket's stable low edge) to
    /// cross their [`LaneBounds`] threshold abandon the bisection early
    /// and come back as [`LaneOutcome::Pruned`]. Lanes that solve to
    /// completion are bit-identical to an unbounded solve: the check
    /// only reads bracket state, never writes it.
    ///
    /// The certificate is conservative and float-safe: it only fires
    /// once the bracket's high edge has moved strictly inside the
    /// saturation clamp (so the final rate is provably `≥ lo` with no
    /// back-off), and the bound carries a `1e-9` relative safety margin
    /// against rounding, so a pruned lane's true latency provably
    /// crosses the threshold.
    pub fn evaluate_bounded(
        &mut self,
        configs: &[SystemConfig],
        bounds: &[LaneBounds],
    ) -> Vec<LaneOutcome> {
        assert_eq!(configs.len(), bounds.len(), "one LaneBounds per lane");
        self.reset(configs, None);
        let mut any = false;
        for (i, b) in bounds.iter().enumerate() {
            self.thr_slo[i] = b.slo_us;
            self.thr_dom[i] = b.dominated_at_us;
            any |= b.slo_us.is_finite() || b.dominated_at_us.is_finite();
        }
        self.bound_active = any;
        self.run()
    }

    /// Rewinds every column to the state a fresh build for `configs`
    /// would produce (`shared` as in [`BatchKernel::with_service`]).
    fn reset(&mut self, configs: &[SystemConfig], shared: Option<&ServiceTimes>) {
        let lanes = configs.len();
        self.configs.clear();
        self.configs.extend_from_slice(configs);
        fn refill<T: Clone>(v: &mut Vec<T>, lanes: usize, zero: T) {
            v.clear();
            v.resize(lanes, zero);
        }
        refill(&mut self.service, lanes, ServiceTimes { icn1_us: 0.0, ecn1_us: 0.0, icn2_us: 0.0 });
        for col in [
            &mut self.lambda,
            &mut self.n,
            &mut self.c,
            &mut self.p_ext,
            &mut self.a_icn1,
            &mut self.a_fwd,
            &mut self.a_icn2,
            &mut self.w_e1,
            &mut self.mean_i1,
            &mut self.m2_i1,
            &mut self.mean_e1,
            &mut self.m2_e1,
            &mut self.mean_i2,
            &mut self.m2_i2,
            &mut self.hi0,
            &mut self.lo,
            &mut self.hi,
            &mut self.flo,
            &mut self.value,
            &mut self.pruned_lb,
        ] {
            refill(col, lanes, 0.0);
        }
        refill(&mut self.evals, lanes, 0);
        refill(&mut self.iterations, lanes, 0);
        refill(&mut self.state, lanes, LaneState::Active);
        refill(&mut self.errors, lanes, None);
        self.bound_active = false;
        refill(&mut self.thr_slo, lanes, f64::INFINITY);
        refill(&mut self.thr_dom, lanes, f64::INFINITY);
        let k = self;
        for (i, config) in configs.iter().enumerate() {
            if let Err(e) = config.validate() {
                k.fail(i, e);
                continue;
            }
            let service = match shared {
                Some(s) => *s,
                None => match ServiceTimes::compute(config) {
                    Ok(s) => s,
                    Err(e) => {
                        k.fail(i, e);
                        continue;
                    }
                },
            };
            k.service[i] = service;
            k.lambda[i] = config.lambda_per_us;
            k.n[i] = config.total_nodes() as f64;
            let p = crate::routing::external_probability(config.clusters, config.nodes_per_cluster);
            let n0 = config.nodes_per_cluster as f64;
            let c = config.clusters as f64;
            k.c[i] = c;
            k.p_ext[i] = p;
            // Traffic-equation coefficients (eqs. 1–5): the scalar path
            // computes `n0 * (1.0 - p) * x` etc. per probe; hoisting the
            // full left-associated prefix keeps the bits identical.
            k.a_icn1[i] = n0 * (1.0 - p);
            k.a_fwd[i] = n0 * p;
            k.a_icn2[i] = c * n0 * p;
            k.w_e1[i] = match config.accounting {
                QueueAccounting::PaperLiteral => 2.0,
                QueueAccounting::SingleQueue => 1.0,
            };
            let moments = |service_us: f64| -> (f64, f64) {
                let dist = config.service_model.distribution(service_us);
                if dist.validate().is_err() {
                    // A positive arrival at an invalid tier must read as
                    // unstable, like the scalar `MG1::new(..).ok()`.
                    return (f64::INFINITY, f64::INFINITY);
                }
                (dist.mean(), dist.second_moment())
            };
            (k.mean_i1[i], k.m2_i1[i]) = moments(service.icn1_us);
            (k.mean_e1[i], k.m2_e1[i]) = moments(service.ecn1_us);
            (k.mean_i2[i], k.m2_i2[i]) = moments(service.icn2_us);
            let sat = solver::saturation_lambda(config, &service);
            k.hi0[i] = config.lambda_per_us.min(sat * (1.0 - 1e-12));
            k.hi[i] = k.hi0[i];
        }
    }

    fn fail(&mut self, i: usize, e: ModelError) {
        self.state[i] = LaneState::Failed;
        self.errors[i] = Some(e);
    }

    /// Eq. 6 at offered rate `x` for lane `i`; `None` when any centre
    /// is unstable at that rate. Replicates the scalar `total_waiting`
    /// operation for operation — the tail's stability predicate needs
    /// the scalar's `None`, not the loop's propagated infinity.
    #[inline]
    fn total_waiting_lane(&self, i: usize, x: f64) -> Option<f64> {
        let icn1 = self.a_icn1[i] * x;
        let fwd = self.a_fwd[i] * x;
        let icn2 = self.a_icn2[i] * x;
        let feedback = icn2 / self.c[i];
        let ecn1_total = fwd + feedback;
        let l_i1 = center_l_checked(icn1, self.mean_i1[i], self.m2_i1[i])?;
        let l_e1 = center_l_checked(ecn1_total, self.mean_e1[i], self.m2_e1[i])?;
        let l_i2 = center_l_checked(icn2, self.mean_i2[i], self.m2_i2[i])?;
        Some(self.c[i] * (self.w_e1[i] * l_e1 + l_i1) + l_i2)
    }

    /// Runs the cold-start bisection of every lane in lockstep, then
    /// assembles one result per lane in input order.
    ///
    /// Per-lane `EvalStats::eval_time_us` is the batch wall clock
    /// divided evenly over the lanes (the lockstep loop has no
    /// meaningful per-lane clock); `solver_iterations` is exact.
    pub fn solve(mut self) -> Vec<Result<(PerformanceReport, EvalStats), ModelError>> {
        self.solve_in_place()
    }

    /// [`BatchKernel::solve`] without consuming the arena; only called
    /// on a freshly built or freshly reset batch.
    fn solve_in_place(&mut self) -> Vec<Result<(PerformanceReport, EvalStats), ModelError>> {
        self.run()
            .into_iter()
            .map(|lane| match lane {
                LaneOutcome::Solved(report, stats) => Ok((report, stats)),
                LaneOutcome::Failed(e) => Err(e),
                LaneOutcome::Pruned { .. } => {
                    unreachable!("an unbounded solve never prunes a lane")
                }
            })
            .collect()
    }

    fn run(&mut self) -> Vec<LaneOutcome> {
        let start = Instant::now();
        let lanes = self.configs.len();
        let bound_active = self.bound_active;

        {
            // Distinct `&mut` slices of the bracket state: the disjoint
            // borrows carry noalias guarantees that field accesses
            // through `self` do not, and pre-slicing to a shared length
            // lets the bounds checks fold away.
            let lo = &mut self.lo[..lanes];
            let hi = &mut self.hi[..lanes];
            let flo = &mut self.flo[..lanes];
            let evals = &mut self.evals[..lanes];
            let value = &mut self.value[..lanes];
            let iterations = &mut self.iterations[..lanes];
            let state = &mut self.state[..lanes];
            let errors = &mut self.errors[..lanes];
            let a_icn1 = &self.a_icn1[..lanes];
            let a_fwd = &self.a_fwd[..lanes];
            let a_icn2 = &self.a_icn2[..lanes];
            let c = &self.c[..lanes];
            let w_e1 = &self.w_e1[..lanes];
            let mean_i1 = &self.mean_i1[..lanes];
            let m2_i1 = &self.m2_i1[..lanes];
            let mean_e1 = &self.mean_e1[..lanes];
            let m2_e1 = &self.m2_e1[..lanes];
            let mean_i2 = &self.mean_i2[..lanes];
            let m2_i2 = &self.m2_i2[..lanes];
            let lambda = &self.lambda[..lanes];
            let n = &self.n[..lanes];
            let hi0 = &self.hi0[..lanes];
            let p_ext = &self.p_ext[..lanes];
            let thr_slo = &self.thr_slo[..lanes];
            let thr_dom = &self.thr_dom[..lanes];
            let pruned_lb = &mut self.pruned_lb[..lanes];

            // Scratch columns live in the arena so steady-state reuse
            // stays allocation-free; every slot is overwritten by the
            // probe passes before it is read.
            for scratch in
                [&mut self.f_los, &mut self.f_his, &mut self.mids, &mut self.fms, &mut self.convf]
            {
                scratch.clear();
                scratch.resize(lanes, 0.0);
            }
            let f_los = &mut self.f_los[..lanes];
            let f_his = &mut self.f_his[..lanes];
            let mids = &mut self.mids[..lanes];
            let fms = &mut self.fms[..lanes];
            let convf = &mut self.convf[..lanes];

            // Endpoint probes — the head of the scalar `bisect_relative`
            // — run branchless over every lane so they vectorise like
            // the main passes. Lanes that failed preparation hold a
            // degenerate `lo == hi == 0` bracket: their probes compute
            // garbage that the triage below never reads.
            probe_pass(
                f_los, lo, a_icn1, a_fwd, a_icn2, c, w_e1, mean_i1, m2_i1, mean_e1, m2_e1, mean_i2,
                m2_i2, lambda, n,
            );
            probe_pass(
                f_his, hi, a_icn1, a_fwd, a_icn2, c, w_e1, mean_i1, m2_i1, mean_e1, m2_e1, mean_i2,
                m2_i2, lambda, n,
            );

            // Triage: the scalar head's decision order per lane.
            // Terminal lanes collapse their bracket to a fixed point of
            // the bisection (`lo == hi == v` gives `mid == v` exactly),
            // which keeps them inert through the branchless passes
            // below without a per-lane mask.
            let mut active_count = 0usize;
            for i in 0..lanes {
                if state[i] != LaneState::Active {
                    continue;
                }
                let f_lo = f_los[i];
                let f_hi = f_his[i];
                evals[i] = 2;
                if f_lo == 0.0 {
                    value[i] = lo[i];
                    iterations[i] = evals[i];
                    state[i] = LaneState::Done;
                    hi[i] = lo[i];
                } else if f_hi == 0.0 {
                    value[i] = hi[i];
                    iterations[i] = evals[i];
                    state[i] = LaneState::Done;
                    lo[i] = hi[i];
                } else if f_lo.signum() == f_hi.signum() {
                    state[i] = LaneState::Failed;
                    errors[i] = Some(ModelError::Queueing(QueueingError::InvalidParameter {
                        name: "bracket",
                        reason: "f(lo) and f(hi) must have opposite signs",
                    }));
                    lo[i] = 0.0;
                    hi[i] = 0.0;
                } else {
                    flo[i] = f_lo;
                    active_count += 1;
                }
            }

            // Lockstep bisection, two sub-steps per pass:
            //
            //  1. [`lockstep_pass`] — a branchless data-parallel sweep
            //     over *all* lanes that probes the midpoint, records
            //     the convergence verdict and residual, and advances
            //     the bracket select-style.
            //
            //  2. a scalar bookkeeping sweep that replays the scalar
            //     solver's per-iteration decision order — max-evals
            //     failure, relative convergence, exact root — on the
            //     recorded verdicts. Only state transitions happen
            //     here, at most once per lane per pass. In bounded
            //     solves the sweep ends with the prune certificate
            //     check; it reads bracket state without writing it, so
            //     surviving lanes keep the unbounded bit pattern.
            while active_count > 0 {
                lockstep_pass(
                    lo, hi, flo, mids, fms, convf, a_icn1, a_fwd, a_icn2, c, w_e1, mean_i1, m2_i1,
                    mean_e1, m2_e1, mean_i2, m2_i2, lambda, n,
                );
                for i in 0..lanes {
                    if state[i] != LaneState::Active {
                        continue;
                    }
                    if evals[i] >= MAX_EVALS {
                        // The scalar solver checks the evaluation budget
                        // before the convergence test; `fms[i]` is the
                        // residual at exactly the midpoint it would have
                        // probed.
                        state[i] = LaneState::Failed;
                        errors[i] = Some(ModelError::SolverFailed { residual: fms[i].abs() });
                        lo[i] = 0.0;
                        hi[i] = 0.0;
                        active_count -= 1;
                        continue;
                    }
                    if convf[i] != 0.0 {
                        // Relative convergence. The scalar solver spends
                        // one extra evaluation probing the residual here;
                        // `f` is pure and the residual is discarded
                        // downstream, so the kernel skips the probe but
                        // still counts it in `iterations` to keep the
                        // reported count identical.
                        value[i] = mids[i];
                        iterations[i] = evals[i] + 1;
                        state[i] = LaneState::Done;
                        lo[i] = mids[i];
                        hi[i] = mids[i];
                        active_count -= 1;
                        continue;
                    }
                    evals[i] += 1;
                    if fms[i] == 0.0 {
                        value[i] = mids[i];
                        iterations[i] = evals[i];
                        state[i] = LaneState::Done;
                        lo[i] = mids[i];
                        hi[i] = mids[i];
                        active_count -= 1;
                        continue;
                    }
                    if !bound_active {
                        continue;
                    }
                    // Prune certificate. Valid only once the high edge
                    // sits strictly inside the saturation clamp: then
                    // every rate in `[lo, hi]` is stable with margin
                    // (no back-off can fire), the final `lambda_eff`
                    // lands in `[lo, hi]`, and mean latency is
                    // monotone increasing in the effective rate — so
                    // the sojourn mix at `lo` lower-bounds the latency
                    // the completed solve would report. The `1e-6` /
                    // `1e-9` margins keep the certificate sound under
                    // floating-point rounding.
                    let t_slo = thr_slo[i];
                    let t_dom = thr_dom[i];
                    if (t_slo.is_finite() || t_dom.is_finite()) && hi[i] <= hi0[i] * (1.0 - 1e-6) {
                        let x = lo[i];
                        let icn1 = a_icn1[i] * x;
                        let icn2 = a_icn2[i] * x;
                        let ecn1_total = a_fwd[i] * x + icn2 / c[i];
                        let w_i1 = sojourn_fast(icn1, mean_i1[i], m2_i1[i]);
                        let w_ecn1 = sojourn_fast(ecn1_total, mean_e1[i], m2_e1[i]);
                        let w_i2 = sojourn_fast(icn2, mean_i2[i], m2_i2[i]);
                        let p = p_ext[i];
                        let t_lo = (1.0 - p) * w_i1 + p * (w_i2 + 2.0 * w_ecn1);
                        let certified = t_lo * (1.0 - 1e-9);
                        if certified > t_slo || certified >= t_dom {
                            state[i] = LaneState::Pruned;
                            pruned_lb[i] = certified;
                            lo[i] = 0.0;
                            hi[i] = 0.0;
                            active_count -= 1;
                        }
                    }
                }
            }
        }

        // Per-lane tail: saturation back-off, equilibrium assembly and
        // the `core.solver.*` metrics. Metric values accumulate in
        // plain locals and merge into the shared registry once at the
        // end — each shared record is four atomics, per lane — and only
        // when something was recorded, so a batch that records nothing
        // also registers nothing.
        let mut solves = 0u64;
        let mut iter_batch = metrics::HistogramBatch::new();
        let mut bracket_batch = metrics::HistogramBatch::new();
        let mut backoff_activations = 0u64;
        let mut backoff_batch = metrics::HistogramBatch::new();
        let mut out: Vec<LaneOutcome> = Vec::with_capacity(lanes);
        for i in 0..lanes {
            match self.state[i] {
                LaneState::Failed => {
                    out.push(LaneOutcome::Failed(
                        self.errors[i].clone().expect("failed lane carries its error"),
                    ));
                    continue;
                }
                LaneState::Pruned => {
                    out.push(LaneOutcome::Pruned { latency_lb_us: self.pruned_lb[i] });
                    continue;
                }
                LaneState::Active | LaneState::Done => {}
            }
            // `solver::back_off_to_stable` with its stability probe and
            // the subsequent eq.-6 evaluation fused: the probe at each
            // candidate rate *is* that evaluation, and the function is
            // pure, so keeping the successful probe's value gives the
            // exact bits the scalar path's recompute produces.
            let mut lambda_eff = self.value[i];
            let mut backoff_steps = 0u32;
            let mut total = self.total_waiting_lane(i, lambda_eff);
            if total.is_none() {
                let mut step = 1e-9;
                while step < 1.0 {
                    lambda_eff *= 1.0 - step;
                    backoff_steps += 1;
                    total = self.total_waiting_lane(i, lambda_eff);
                    if total.is_some() {
                        break;
                    }
                    step *= 2.0;
                }
            }
            let Some(total) = total else {
                out.push(LaneOutcome::Failed(ModelError::SolverFailed { residual: f64::INFINITY }));
                continue;
            };
            solves += 1;
            iter_batch.record(self.iterations[i] as u64);
            if self.lambda[i] > 0.0 {
                bracket_batch.record_f64(self.hi0[i] / self.lambda[i] * 1e6);
            }
            if backoff_steps > 0 {
                backoff_activations += 1;
                backoff_batch.record(backoff_steps as u64);
            }
            match solver::assemble_equilibrium(
                &self.configs[i],
                &self.service[i],
                lambda_eff,
                total,
                self.iterations[i],
            ) {
                Ok(eq) => {
                    let report = PerformanceReport::from_equilibrium(&self.configs[i], eq);
                    let stats =
                        EvalStats { eval_time_us: 0.0, solver_iterations: self.iterations[i] };
                    out.push(LaneOutcome::Solved(report, stats));
                }
                Err(e) => out.push(LaneOutcome::Failed(e)),
            }
        }
        if solves > 0 {
            let handles = solve_metrics();
            handles.solves.add(solves);
            iter_batch.flush_into(handles.iterations);
            bracket_batch.flush_into(handles.bracket_ppm);
        }
        if backoff_activations > 0 {
            metrics::counter(keys::SOLVER_BACKOFF_ACTIVATIONS).add(backoff_activations);
            backoff_batch.flush_into(metrics::histogram(keys::SOLVER_BACKOFF_STEPS));
        }

        let per_lane_us =
            if lanes == 0 { 0.0 } else { start.elapsed().as_secs_f64() * 1e6 / lanes as f64 };
        let mut eval_time_batch = metrics::HistogramBatch::new();
        for lane in out.iter_mut() {
            if let LaneOutcome::Solved(_, stats) = lane {
                stats.eval_time_us = per_lane_us;
                eval_time_batch.record_f64(per_lane_us);
            }
        }
        if !eval_time_batch.is_empty() {
            eval_time_batch.flush_into(solve_metrics().eval_time_us);
        }
        out
    }
}

/// Registry handles for the metrics every solve records, looked up once
/// per process: a registry lookup takes the registry's mutex, which
/// concurrent single-point solves would otherwise contend on at the end
/// of every call.
struct SolveMetrics {
    solves: &'static metrics::Counter,
    iterations: &'static metrics::ValueHistogram,
    bracket_ppm: &'static metrics::ValueHistogram,
    eval_time_us: &'static metrics::ValueHistogram,
}

fn solve_metrics() -> &'static SolveMetrics {
    static HANDLES: OnceLock<SolveMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| SolveMetrics {
        solves: metrics::counter(keys::SOLVER_SOLVES),
        iterations: metrics::histogram(keys::SOLVER_ITERATIONS),
        bracket_ppm: metrics::histogram(keys::SOLVER_BRACKET_PPM),
        eval_time_us: metrics::histogram(keys::BATCH_EVAL_TIME_US),
    })
}

/// Process-wide arena cache: finished workers park their
/// [`BatchKernel`] here and the next batch's workers pick them back
/// up, so steady-state serving and optimizer loops stop paying the
/// ~28-column rebuild allocation per call. Bounded by the peak number
/// of concurrent workers ever live.
struct ArenaPool {
    arenas: Mutex<Vec<BatchKernel>>,
}

impl ArenaPool {
    fn take(&self) -> BatchKernel {
        self.arenas.lock().expect("arena pool poisoned").pop().unwrap_or_default()
    }

    fn put(&self, kernel: BatchKernel) {
        self.arenas.lock().expect("arena pool poisoned").push(kernel);
    }
}

fn arena_pool() -> &'static ArenaPool {
    static POOL: OnceLock<ArenaPool> = OnceLock::new();
    POOL.get_or_init(|| ArenaPool { arenas: Mutex::new(Vec::new()) })
}

/// Checked-out arena that returns itself to the pool on drop (worker
/// panic included).
struct PooledKernel {
    kernel: Option<BatchKernel>,
}

impl PooledKernel {
    fn checkout() -> Self {
        PooledKernel { kernel: Some(arena_pool().take()) }
    }

    fn get(&mut self) -> &mut BatchKernel {
        self.kernel.as_mut().expect("pooled kernel present until drop")
    }
}

impl Drop for PooledKernel {
    fn drop(&mut self) {
        if let Some(kernel) = self.kernel.take() {
            arena_pool().put(kernel);
        }
    }
}

/// Evaluates a batch of configurations through [`BatchKernel`], split
/// into one contiguous lane block per worker on the shared pool.
///
/// Results arrive in input order and every lane is bit-identical to the
/// scalar reference [`crate::solver::solve`] — chunking cannot change
/// bits because lanes never exchange information. Each worker solves
/// its block in a pooled arena ([`BatchKernel::evaluate`] reuse), so
/// repeated calls are allocation-free once the pool is warm.
pub fn evaluate_batch(
    configs: &[SystemConfig],
    workers: usize,
) -> Vec<Result<(PerformanceReport, EvalStats), ModelError>> {
    if configs.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(configs.len());
    let chunk = configs.len().div_ceil(workers);
    let chunks: Vec<&[SystemConfig]> = configs.chunks(chunk).collect();
    // `par_map_init` counts one item per chunk; top the batch-items
    // counter up to one item per configuration so operator dashboards
    // keep their meaning.
    if metrics::enabled() && configs.len() > chunks.len() {
        metrics::counter(keys::BATCH_ITEMS).add((configs.len() - chunks.len()) as u64);
    }
    let nested = batch::par_map_init(&chunks, workers, PooledKernel::checkout, |arena, block| {
        arena.get().evaluate(block)
    });
    nested.into_iter().flatten().collect()
}

/// [`evaluate_batch`] with per-lane prune thresholds: the bounded
/// analogue used by the optimizer's gradient-guided pass. `bounds`
/// must be lane-aligned with `configs`. Lanes that survive are
/// bit-identical to [`evaluate_batch`]; pruned lanes carry their
/// certified latency lower bound.
pub fn evaluate_batch_bounded(
    configs: &[SystemConfig],
    bounds: &[LaneBounds],
    workers: usize,
) -> Vec<LaneOutcome> {
    assert_eq!(configs.len(), bounds.len(), "one LaneBounds per lane");
    if configs.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(configs.len());
    let chunk = configs.len().div_ceil(workers);
    let chunks: Vec<(&[SystemConfig], &[LaneBounds])> =
        configs.chunks(chunk).zip(bounds.chunks(chunk)).collect();
    if metrics::enabled() && configs.len() > chunks.len() {
        metrics::counter(keys::BATCH_ITEMS).add((configs.len() - chunks.len()) as u64);
    }
    let nested =
        batch::par_map_init(&chunks, workers, PooledKernel::checkout, |arena, &(block, bb)| {
            arena.get().evaluate_bounded(block, bb)
        });
    nested.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceTimeModel;
    use crate::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
    use hmcs_topology::transmission::Architecture;

    fn cfg(clusters: usize, arch: Architecture) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, arch).unwrap()
    }

    /// The scalar reference: [`solver::solve`] plus report assembly.
    fn scalar(config: &SystemConfig) -> Result<PerformanceReport, ModelError> {
        solver::solve(config).map(|eq| PerformanceReport::from_equilibrium(config, eq))
    }

    fn assert_bitwise_eq(kernel: &PerformanceReport, scalar: &PerformanceReport) {
        assert_eq!(
            kernel.equilibrium.lambda_eff.to_bits(),
            scalar.equilibrium.lambda_eff.to_bits(),
            "lambda_eff bits diverge"
        );
        assert_eq!(
            kernel.latency.mean_message_latency_us.to_bits(),
            scalar.latency.mean_message_latency_us.to_bits(),
            "latency bits diverge"
        );
        assert_eq!(
            kernel.equilibrium.solver_iterations, scalar.equilibrium.solver_iterations,
            "solver iteration counts diverge"
        );
        // PartialEq over PerformanceReport covers every remaining field.
        assert_eq!(kernel, scalar);
    }

    #[test]
    fn kernel_matches_scalar_on_the_paper_grid() {
        let mut configs = Vec::new();
        for scenario in [Scenario::Case1, Scenario::Case2] {
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                for &c in &PAPER_CLUSTER_COUNTS {
                    configs.push(
                        SystemConfig::paper_preset(scenario, c, arch)
                            .unwrap()
                            .with_message_bytes(1024),
                    );
                }
            }
        }
        let batch = BatchKernel::new(&configs).solve();
        for (cfg, lane) in configs.iter().zip(&batch) {
            let reference = scalar(cfg).unwrap();
            let (kernel, kstats) = lane.as_ref().unwrap();
            assert_bitwise_eq(kernel, &reference);
            assert_eq!(kstats.solver_iterations, reference.equilibrium.solver_iterations);
        }
    }

    #[test]
    fn kernel_matches_scalar_on_a_lambda_grid() {
        let base = cfg(16, Architecture::Blocking);
        let service = ServiceTimes::compute(&base).unwrap();
        let lambdas: Vec<f64> = (0..64).map(|i| 1e-6 * 1.12f64.powi(i)).collect();
        let configs: Vec<SystemConfig> = lambdas.iter().map(|&l| base.with_lambda(l)).collect();
        let lanes = BatchKernel::with_service(&configs, &service).solve();
        for (cfg, lane) in configs.iter().zip(&lanes) {
            let (kernel, _) = lane.as_ref().unwrap();
            assert_bitwise_eq(kernel, &scalar(cfg).unwrap());
        }
    }

    #[test]
    fn kernel_matches_scalar_through_backoff_and_overload() {
        // Deep saturation exercises the back-off retreat; the kernel
        // must walk the identical path.
        for lambda in [2.5e-3, 2.5e-2] {
            let config = cfg(256, Architecture::Blocking).with_lambda(lambda);
            let lane = BatchKernel::new(std::slice::from_ref(&config)).solve().remove(0);
            assert_bitwise_eq(&lane.unwrap().0, &scalar(&config).unwrap());
        }
    }

    #[test]
    fn kernel_matches_scalar_across_service_models() {
        for model in [
            ServiceTimeModel::Deterministic,
            ServiceTimeModel::Erlang(4),
            ServiceTimeModel::HyperExponential(4.0),
        ] {
            let config = cfg(8, Architecture::NonBlocking).with_service_model(model);
            let lane = BatchKernel::new(std::slice::from_ref(&config)).solve().remove(0);
            assert_bitwise_eq(&lane.unwrap().0, &scalar(&config).unwrap());
        }
    }

    #[test]
    fn error_lanes_match_the_scalar_errors_in_place() {
        let good = cfg(4, Architecture::NonBlocking);
        let bad = good.with_lambda(-1.0);
        let lanes = BatchKernel::new(&[good, bad, good]).solve();
        assert!(lanes[0].is_ok());
        assert!(lanes[2].is_ok());
        let scalar_err = scalar(&bad).unwrap_err();
        assert_eq!(lanes[1].as_ref().unwrap_err(), &scalar_err);
    }

    #[test]
    fn evaluate_batch_is_chunking_invariant() {
        let configs: Vec<SystemConfig> =
            PAPER_CLUSTER_COUNTS.iter().map(|&c| cfg(c, Architecture::NonBlocking)).collect();
        let one = evaluate_batch(&configs, 1);
        for workers in [2, 3, 8, 32] {
            let many = evaluate_batch(&configs, workers);
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.as_ref().unwrap().0, b.as_ref().unwrap().0, "workers={workers}");
            }
        }
    }

    #[test]
    fn evaluate_batch_handles_empty_input() {
        assert!(evaluate_batch(&[], 8).is_empty());
    }

    #[test]
    fn lane_stats_report_exact_iterations_and_positive_time() {
        let configs = [cfg(8, Architecture::NonBlocking)];
        let lanes = BatchKernel::new(&configs).solve();
        let (report, stats) = lanes[0].as_ref().unwrap();
        assert_eq!(stats.solver_iterations, report.equilibrium.solver_iterations);
        assert!(stats.eval_time_us > 0.0);
    }

    #[test]
    fn one_arena_cycled_through_batches_matches_fresh_builds() {
        // Grow, shrink, and re-grow one arena across batches with
        // error lanes in the mix: every pass must be bit-identical to
        // a fresh build of the same batch.
        let mut arena = BatchKernel::default();
        let batches: Vec<Vec<SystemConfig>> = vec![
            PAPER_CLUSTER_COUNTS.iter().map(|&c| cfg(c, Architecture::NonBlocking)).collect(),
            vec![cfg(4, Architecture::Blocking).with_lambda(-1.0)],
            vec![
                cfg(256, Architecture::Blocking).with_lambda(2.5e-2),
                cfg(2, Architecture::NonBlocking),
                cfg(16, Architecture::Blocking).with_lambda(-1.0),
                cfg(16, Architecture::Blocking),
            ],
            Vec::new(),
            PAPER_CLUSTER_COUNTS.iter().map(|&c| cfg(c, Architecture::Blocking)).collect(),
        ];
        for batch_cfgs in &batches {
            let reused = arena.evaluate(batch_cfgs);
            let fresh = BatchKernel::new(batch_cfgs).solve();
            assert_eq!(reused.len(), fresh.len());
            for (a, b) in reused.iter().zip(&fresh) {
                match (a, b) {
                    (Ok((ra, sa)), Ok((rb, sb))) => {
                        assert_bitwise_eq(ra, rb);
                        assert_eq!(sa.solver_iterations, sb.solver_iterations);
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                    _ => panic!("reused arena and fresh build disagree on lane outcome"),
                }
            }
        }
    }

    #[test]
    fn arena_reuse_matches_fresh_builds_on_the_shared_service_path() {
        let base = cfg(16, Architecture::Blocking);
        let service = ServiceTimes::compute(&base).unwrap();
        let mut arena = BatchKernel::default();
        for count in [7usize, 64, 3] {
            let configs: Vec<SystemConfig> =
                (0..count).map(|i| base.with_lambda(1e-6 * 1.3f64.powi(i as i32))).collect();
            arena.reset(&configs, Some(&service));
            let reused = arena.solve_in_place();
            let fresh = BatchKernel::with_service(&configs, &service).solve();
            for (a, b) in reused.iter().zip(&fresh) {
                assert_bitwise_eq(&a.as_ref().unwrap().0, &b.as_ref().unwrap().0);
            }
        }
    }

    #[test]
    fn bounded_solve_without_bounds_matches_the_unbounded_solve() {
        let configs: Vec<SystemConfig> =
            PAPER_CLUSTER_COUNTS.iter().map(|&c| cfg(c, Architecture::Blocking)).collect();
        let bounds = vec![LaneBounds::NONE; configs.len()];
        let outcomes = BatchKernel::default().evaluate_bounded(&configs, &bounds);
        let plain = BatchKernel::new(&configs).solve();
        for (o, p) in outcomes.iter().zip(&plain) {
            match (o, p) {
                (LaneOutcome::Solved(ro, _), Ok((rp, _))) => assert_bitwise_eq(ro, rp),
                (LaneOutcome::Failed(eo), Err(ep)) => assert_eq!(eo, ep),
                _ => panic!("bounded solve without bounds changed a lane outcome"),
            }
        }
    }

    #[test]
    fn bounded_solve_certificates_are_sound_and_survivors_identical() {
        // Heavily throttled lanes: their latency is far above the
        // threshold, so the certificate must fire, and its certified
        // bound must sit at or below the true latency. The unbounded
        // lane in the same batch must keep its exact bits.
        let throttled = cfg(256, Architecture::Blocking).with_lambda(2.5e-3);
        let light = cfg(4, Architecture::NonBlocking);
        let true_latency = BatchKernel::new(std::slice::from_ref(&throttled))
            .solve()
            .remove(0)
            .unwrap()
            .0
            .latency
            .mean_message_latency_us;
        let threshold = true_latency * 0.5;
        let configs = [throttled, light];
        let bounds =
            [LaneBounds { slo_us: f64::INFINITY, dominated_at_us: threshold }, LaneBounds::NONE];
        let outcomes = BatchKernel::default().evaluate_bounded(&configs, &bounds);
        match &outcomes[0] {
            LaneOutcome::Pruned { latency_lb_us } => {
                assert!(*latency_lb_us >= threshold, "prune fired below its threshold");
                assert!(*latency_lb_us <= true_latency, "certificate overshot the true latency");
            }
            other => panic!("expected the throttled lane to prune, got {other:?}"),
        }
        let light_report = scalar(&configs[1]).unwrap();
        match &outcomes[1] {
            LaneOutcome::Solved(report, _) => assert_bitwise_eq(report, &light_report),
            other => panic!("expected the light lane to solve, got {other:?}"),
        }
    }

    #[test]
    fn evaluate_batch_bounded_is_chunking_invariant() {
        let configs: Vec<SystemConfig> = PAPER_CLUSTER_COUNTS
            .iter()
            .map(|&c| cfg(c, Architecture::Blocking).with_lambda(1e-3))
            .collect();
        let bounds =
            vec![LaneBounds { slo_us: 2e4, dominated_at_us: f64::INFINITY }; configs.len()];
        let one = evaluate_batch_bounded(&configs, &bounds, 1);
        for workers in [2, 3, 8] {
            let many = evaluate_batch_bounded(&configs, &bounds, workers);
            assert_eq!(one, many, "workers={workers}");
        }
    }
}
