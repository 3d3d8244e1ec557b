//! Batched structure-of-arrays fixed-point kernel.
//!
//! Every production evaluation runs here: the figure drivers, the
//! parameter sweeps, the optimizer, the server and the single-point
//! [`AnalyticalModel::evaluate`](crate::model::AnalyticalModel::evaluate)
//! facade. The scalar reference solver ([`crate::solver::solve`])
//! re-derives everything per point: it validates the config, rebuilds
//! the topology service times, and every one of its 46 residual
//! evaluations on the paper grid (47 counted iterations: the residual
//! at the converged midpoint is counted, not made) re-runs the traffic
//! equations (eqs. 1–5), re-constructs the three service distributions
//! and re-validates an [`MG1`](hmcs_queueing::mg1::MG1) per centre.
//! [`BatchKernel::work`] reports a solve's lanes, lane-passes and
//! evaluations.
//!
//! [`BatchKernel`] hoists everything λ-independent out of the loop
//! once per *lane* (one lane = one configuration) into flat `f64`
//! arrays — traffic coefficients, per-tier service moments, bracket
//! state — and then advances the bisection of the live lanes in
//! lockstep with per-lane convergence masking: one pass over the
//! fixed-point loop moves every live lane forward by one probe. The
//! inner evaluation reduces to ~20 flops and three stability branches
//! per lane. A caller that already holds a lane's tier service times
//! and saturation rate (the optimizer, a λ grid over one shape) hands
//! them in as a [`LaneService`], so setup skips the topology.
//!
//! ## Compaction
//!
//! In a bounded solve lanes leave the bisection at very different
//! passes: a pruned lane after a handful of its 47 iterations. A
//! terminal lane's bracket collapses to a fixed point of the bisection,
//! so it is inert in the lockstep passes, but it would still cost a
//! probe per pass. So each pass covers only a *span* of positions
//! holding every live lane: whenever at most half the span is live, the
//! live lanes move to its front (keeping their order) and the span
//! shrinks to them. The rule is fixed — a halving span bounds the moves
//! by twice the lane count — and before the per-lane tail every column
//! is scattered back to input order. Lanes never share data, so where a
//! lane sits changes none of its bits. Unbounded solves, whose lanes
//! converge within a few passes of each other, keep the whole batch as
//! their span.
//!
//! ## Layout and codegen
//!
//! The passes are vectorised in the shipped binaries. With the
//! `target-cpu=native` that `.cargo/config.toml` sets, on an AVX-512
//! x86-64 host, `objdump -d target/release/reproduce` shows 61
//! instructions on `ymm` registers and 5 packed `vdivpd` in
//! `probe_pass`, and 91 on `ymm` and 5 `vdivpd` in `lockstep_pass`:
//! four lanes per instruction. Each keeps a scalar remainder loop with
//! 5 `vdivsd` for the lanes past the last multiple of four; neither
//! uses `zmm`. Read a release binary's disassembly, not the library's
//! `cargo rustc --release -p hmcs-core -- --emit asm`: the release
//! profile's fat LTO leaves loop vectorisation to the link step, so the
//! library's own asm shows only the scalar form. CI fails when neither
//! pass in `target/release/reproduce` has a packed divide.
//!
//! The structure-of-arrays lockstep layout is what lets the loops
//! vectorise: every column is a contiguous `f64` slice and every lane
//! runs one select-style op sequence. On 1,728 lanes (both cases and both
//! architectures × 9 cluster counts × 16 λ × 3 message sizes, bits
//! identical across layouts) on a 2-vCPU Xeon host, the per-lane solve
//! took 452–523 ns in this layout, 1,460–1,724 ns as an array-of-structs
//! lockstep and 1,378–1,499 ns as a per-lane loop.
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
//! The stopping width, the evaluation budget, the same-sign bracket
//! error, the bracket's saturation clamp and the ECN1 weight are the
//! solver's own ([`solver::BISECT_REL_TOL`], [`solver::MAX_EVALS`]),
//! imported rather than mirrored.
//!
//! ## Parallel batches
//!
//! [`evaluate_batch`] and [`evaluate_batch_bounded`] cut a batch into
//! one contiguous block of lanes per worker. The calling thread solves
//! block 0 on its own arena; the others go, lanes copied, to a set of
//! process-wide helper threads that each own an arena and wait on one
//! job queue between batches. The set grows lazily to one fewer than
//! the largest worker count asked for, so a warm batch spawns no
//! thread. Outcomes come back in block order, and lanes never share
//! data, so no lane changes a bit whatever the worker count. A panic in
//! a helper's block reaches the caller as a `batch worker panicked`
//! panic; the helper replaces its arena and serves on.
//!
//! Only the paper's M/M/1 model runs in lanes. The QNA refinement and
//! the Cluster-of-Clusters model solve the same fixed point through the
//! solver's scalar driver: a `reproduce all` run makes a handful of
//! those evaluations, too few to batch.

use crate::batch::EvalStats;
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::metrics::{self, keys};
use crate::model::PerformanceReport;
use crate::service::ServiceTimes;
use crate::solver::{self, BISECT_REL_TOL, MAX_EVALS};
use crate::work::{self, Work};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Mean number in system of an M/G/1 centre from precomputed moments,
/// or `f64::INFINITY` when unstable — the lane-local replica of the
/// scalar `center_l` (`None` becomes `INFINITY`, which is what the
/// scalar caller substitutes anyway). `mean`/`m2` are `f64::INFINITY`
/// for tiers whose service distribution failed validation, which makes
/// any positive arrival read as unstable, exactly like the scalar
/// path's `MG1::new(..).ok()`.
///
/// Written select-style (both arms computed, conditionally chosen), so
/// the passes that inline it vectorise (see the module doc): the
/// speculative division is IEEE-safe (a non-positive denominator yields
/// ±inf/nan, discarded by the select) and the chosen value is
/// bit-identical to the scalar branch.
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
/// contract reduced to one definition — which the vectorised loops run
/// four lanes at a time. (A macro rather than a helper function because
/// each probe loop names its own pre-sliced columns.)
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

/// Evaluates `out[i] = f(x[i])` over every lane — the endpoint probes
/// at the head of the scalar `bisect_relative`, run as one pass.
///
/// The probe loops live in free functions that take each column as a
/// slice parameter, pre-sliced to one length so the per-index bounds
/// checks fold away and the loop vectorises (packed `vdivpd` on `ymm`
/// in the release binaries, with a scalar remainder loop; see the
/// module doc). `inline(never)` keeps each pass its own symbol, so its
/// code can be found in `objdump -d` of a release binary.
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
    // bounds checks fold away.
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

/// One lockstep bisection pass over a span of lanes: probe the
/// midpoint, record the convergence verdict and residual, and advance
/// the bracket select-style, every lane running the same update in
/// place of the scalar solver's sign branch, so the loop vectorises
/// into masked selects four lanes wide (see the module doc).
/// Terminal lanes still in the span hold degenerate brackets (`lo ==
/// hi == v` gives `mid == v` exactly), so their convergence mask holds
/// and nothing moves. See [`probe_pass`] for why this is a free
/// function.
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

/// The λ-independent inputs of one lane — its tier service times and
/// closed-form saturation rate — handed to the kernel by a caller that
/// already holds them, so lane setup skips the topology. Both depend
/// only on the configuration's shape, never on its offered rate, so one
/// value serves every lane of a λ grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneService {
    /// The three tier service times ([`ServiceTimes::compute`]).
    pub service: ServiceTimes,
    /// [`solver::saturation_lambda`] of the configuration at `service`.
    pub saturation_lambda: f64,
}

impl LaneService {
    /// Computes both inputs from `config`'s topology, exactly as a lane
    /// built by [`BatchKernel::new`] does.
    pub fn compute(config: &SystemConfig) -> Result<Self, ModelError> {
        let service = ServiceTimes::compute(config)?;
        Ok(LaneService { service, saturation_lambda: solver::saturation_lambda(config, &service) })
    }
}

/// A batch of fixed-point solves advanced in lockstep.
///
/// Build one with [`BatchKernel::new`] (every lane derives its service
/// times from its own topology) or `BatchKernel::with_service` (the
/// caller hands each lane its [`LaneService`]), then call
/// [`BatchKernel::solve`]. Results come back in lane order, each lane
/// bit-identical to [`crate::solver::solve`] on the same configuration.
///
/// A kernel is also a reusable *arena*: [`BatchKernel::evaluate`] and
/// [`BatchKernel::evaluate_bounded`] rewind every column to the exact
/// state a fresh build would produce without releasing capacity, so
/// steady-state callers solve batch after batch without touching the
/// allocator. Each thread keeps one ([`with_arena`]) for the batch
/// blocks it solves itself, the serve micro-batcher, the single-point
/// facade and the sensitivity probes; each kernel helper thread owns
/// one for the blocks it is handed.
///
/// While the lockstep loop runs, every column indexed by lane (the
/// `order` column maps positions back to input lanes) may be permuted
/// by compaction; `configs` and `service` never are, and every column
/// is back in input order before the per-lane tail.
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
    /// The `lo` at which the lane's prune certificate was last
    /// evaluated (NaN before the first): the certificate is a pure
    /// function of `lo`, so it is only re-evaluated once `lo` moves.
    cert_lo: Vec<f64>,
    /// Input lane held at each position once compaction has permuted
    /// the columns.
    order: Vec<usize>,
    // --- solve-scratch columns (endpoint residuals, midpoints,
    //     convergence flags), retained across resets ---
    f_los: Vec<f64>,
    f_his: Vec<f64>,
    mids: Vec<f64>,
    fms: Vec<f64>,
    convf: Vec<f64>,
    /// The work of the last solve.
    work: Work,
}

impl BatchKernel {
    /// Prepares one lane per configuration, computing each lane's
    /// service times from its own topology (the [`solver::solve`]
    /// contract).
    pub fn new(configs: &[SystemConfig]) -> Self {
        Self::build(configs, None)
    }

    /// Prepares one lane per configuration with the caller's
    /// [`LaneService`] for each lane (`service[i]` must be what
    /// [`LaneService::compute`] returns for `configs[i]`; a λ grid over
    /// one shape repeats one value).
    pub(crate) fn with_service(configs: &[SystemConfig], service: &[LaneService]) -> Self {
        assert_eq!(configs.len(), service.len(), "one LaneService per lane");
        Self::build(configs, Some(service))
    }

    fn build(configs: &[SystemConfig], service: Option<&[LaneService]>) -> Self {
        let mut k = BatchKernel::default();
        k.reset(configs, service);
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

    /// Bounded solve through the arena, with the caller's
    /// [`LaneService`] per lane as in `BatchKernel::with_service`:
    /// lanes whose latency is certified (mid-flight, via the monotone
    /// lower bound at the bracket's stable low edge) to cross their
    /// [`LaneBounds`] threshold abandon the bisection early and come
    /// back as [`LaneOutcome::Pruned`]. Lanes that solve to completion
    /// are bit-identical to an unbounded solve: the check only reads
    /// bracket state, never writes it. With [`LaneBounds::NONE`] on
    /// every lane this is the unbounded solve.
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
        service: &[LaneService],
        bounds: &[LaneBounds],
    ) -> Vec<LaneOutcome> {
        let mut out = Vec::with_capacity(configs.len());
        self.solve_into(configs, Some((service, bounds)), &mut out);
        out
    }

    /// Solves `configs` through the arena and appends one outcome per
    /// lane to `out`: unbounded with each lane's service derived from
    /// its topology (`bounded` is `None`, as [`BatchKernel::evaluate`]),
    /// or with the caller's service and bounds per lane (as
    /// [`BatchKernel::evaluate_bounded`]).
    pub(crate) fn solve_into(
        &mut self,
        configs: &[SystemConfig],
        bounded: Option<(&[LaneService], &[LaneBounds])>,
        out: &mut Vec<LaneOutcome>,
    ) {
        match bounded {
            None => self.reset(configs, None),
            Some((service, bounds)) => {
                assert_eq!(configs.len(), service.len(), "one LaneService per lane");
                assert_eq!(configs.len(), bounds.len(), "one LaneBounds per lane");
                self.reset(configs, Some(service));
                let mut any = false;
                for (i, b) in bounds.iter().enumerate() {
                    self.thr_slo[i] = b.slo_us;
                    self.thr_dom[i] = b.dominated_at_us;
                    any |= b.slo_us.is_finite() || b.dominated_at_us.is_finite();
                }
                self.bound_active = any;
            }
        }
        self.run_into(out);
    }

    /// Rewinds every column to the state a fresh build for `configs`
    /// would produce (`service` as in [`BatchKernel::with_service`], or
    /// `None` to derive it from each lane's topology).
    fn reset(&mut self, configs: &[SystemConfig], service: Option<&[LaneService]>) {
        let lanes = configs.len();
        self.configs.clear();
        self.configs.extend_from_slice(configs);
        fn refill<T: Clone>(v: &mut Vec<T>, lanes: usize, zero: T) {
            v.clear();
            v.resize(lanes, zero);
        }
        refill(&mut self.service, lanes, ServiceTimes { icn1_us: 0.0, ecn1_us: 0.0, icn2_us: 0.0 });
        for col in self.lane_columns() {
            col.clear();
        }
        self.thr_slo.resize(lanes, f64::INFINITY);
        self.thr_dom.resize(lanes, f64::INFINITY);
        self.cert_lo.resize(lanes, f64::NAN);
        for col in self.lane_columns() {
            col.resize(lanes, 0.0);
        }
        refill(&mut self.evals, lanes, 0);
        refill(&mut self.iterations, lanes, 0);
        refill(&mut self.state, lanes, LaneState::Active);
        refill(&mut self.errors, lanes, None);
        self.bound_active = false;
        let k = self;
        for (i, config) in configs.iter().enumerate() {
            if let Err(e) = config.validate() {
                k.fail(i, e);
                continue;
            }
            let lane = match service {
                Some(s) => s[i],
                None => match LaneService::compute(config) {
                    Ok(s) => s,
                    Err(e) => {
                        k.fail(i, e);
                        continue;
                    }
                },
            };
            let service = lane.service;
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
            k.w_e1[i] = solver::ecn1_weight(config.accounting);
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
            k.hi0[i] = solver::bracket_top(config.lambda_per_us, lane.saturation_lambda);
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

    /// The work of the arena's last solve: its lanes, its lockstep
    /// lane-passes and its evaluations of the residual.
    pub fn work(&self) -> Work {
        self.work
    }

    /// [`BatchKernel::solve`] without consuming the arena; only called
    /// on a freshly built or freshly reset batch.
    fn solve_in_place(&mut self) -> Vec<Result<(PerformanceReport, EvalStats), ModelError>> {
        let mut out = Vec::with_capacity(self.configs.len());
        self.run_into(&mut out);
        out.into_iter().map(unbounded).collect()
    }

    /// Solves the freshly reset batch and appends one outcome per lane
    /// to `out`, in input order.
    fn run_into(&mut self, out: &mut Vec<LaneOutcome>) {
        let start = Instant::now();
        let first = out.len();
        let lanes = self.configs.len();
        self.work = Work { lanes: lanes as u64, ..Work::default() };
        self.bisect(lanes);
        self.work.evaluations = self.evals.iter().map(|&e| e as u64).sum();
        work::record(self.work);

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
        out.reserve(lanes);
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
        for lane in &mut out[first..] {
            if let LaneOutcome::Solved(_, stats) = lane {
                stats.eval_time_us = per_lane_us;
                eval_time_batch.record_f64(per_lane_us);
            }
        }
        if !eval_time_batch.is_empty() {
            eval_time_batch.flush_into(solve_metrics().eval_time_us);
        }
    }

    /// Runs the cold-start bisection of every lane in lockstep. On
    /// return no lane is `Active` and every column is in input order.
    ///
    /// Each pass covers a *span* of positions `[0, span)` that holds
    /// every live lane. In a bounded solve, whenever at most half the
    /// span is still live, [`BatchKernel::compact`] moves the live lanes
    /// to its front and the span shrinks to them, so a pruned lane stops
    /// costing a probe per pass. Lanes never share data, so where a lane
    /// sits changes none of its bits.
    fn bisect(&mut self, lanes: usize) {
        let mut active = self.probe_endpoints(lanes);
        let mut span = lanes;
        let mut compacted = false;
        while active > 0 {
            active = self.passes(span, active);
            if active > 0 {
                if !compacted {
                    self.order.clear();
                    self.order.extend(0..lanes);
                    compacted = true;
                }
                self.compact(span);
                span = active;
            }
        }
        if compacted {
            self.restore_order();
        }
    }

    /// Endpoint probes — the head of the scalar `bisect_relative` — run
    /// as one pass over every lane like the main passes, then the
    /// scalar head's triage per lane. Returns the number of lanes left
    /// bisecting.
    fn probe_endpoints(&mut self, lanes: usize) -> usize {
        // Scratch columns live in the arena so steady-state reuse stays
        // allocation-free; every slot is overwritten by the probe
        // passes before it is read.
        for scratch in
            [&mut self.f_los, &mut self.f_his, &mut self.mids, &mut self.fms, &mut self.convf]
        {
            scratch.clear();
            scratch.resize(lanes, 0.0);
        }
        // Distinct `&mut` slices of the columns: the disjoint borrows
        // carry noalias guarantees that field accesses through `self`
        // do not, and pre-slicing to a shared length lets the bounds
        // checks fold away.
        let (lo, hi, flo) = (&mut self.lo[..lanes], &mut self.hi[..lanes], &mut self.flo[..lanes]);
        let (evals, value, iterations) =
            (&mut self.evals[..lanes], &mut self.value[..lanes], &mut self.iterations[..lanes]);
        let (state, errors) = (&mut self.state[..lanes], &mut self.errors[..lanes]);
        let (f_los, f_his) = (&mut self.f_los[..lanes], &mut self.f_his[..lanes]);
        let (a_icn1, a_fwd, a_icn2, c, w_e1) =
            (&self.a_icn1, &self.a_fwd, &self.a_icn2, &self.c, &self.w_e1);
        let (mean_i1, m2_i1, mean_e1, m2_e1, mean_i2, m2_i2) =
            (&self.mean_i1, &self.m2_i1, &self.mean_e1, &self.m2_e1, &self.mean_i2, &self.m2_i2);
        let (lambda, n) = (&self.lambda, &self.n);
        // Lanes that failed preparation hold a degenerate `lo == hi ==
        // 0` bracket: their probes compute garbage that the triage
        // below never reads.
        probe_pass(
            f_los, lo, a_icn1, a_fwd, a_icn2, c, w_e1, mean_i1, m2_i1, mean_e1, m2_e1, mean_i2,
            m2_i2, lambda, n,
        );
        probe_pass(
            f_his, hi, a_icn1, a_fwd, a_icn2, c, w_e1, mean_i1, m2_i1, mean_e1, m2_e1, mean_i2,
            m2_i2, lambda, n,
        );

        // Triage: the scalar head's decision order per lane. Terminal
        // lanes collapse their bracket to a fixed point of the
        // bisection (`lo == hi == v` gives `mid == v` exactly), which
        // keeps them inert through the lockstep passes until
        // compaction drops them from the span.
        let mut active = 0usize;
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
                errors[i] = Some(solver::BRACKET_ERROR);
                lo[i] = 0.0;
                hi[i] = 0.0;
            } else {
                flo[i] = f_lo;
                active += 1;
            }
        }
        active
    }

    /// Lockstep passes over the positions `[0, span)`, which hold all
    /// `active` live lanes, until none is live or — in a bounded solve —
    /// at most half the span is; returns the lanes still live. Each pass
    /// has two sub-steps:
    ///
    ///  1. [`lockstep_pass`] — a data-parallel sweep that
    ///     probes the midpoint, records the convergence verdict and
    ///     residual, and advances the bracket select-style.
    ///
    ///  2. a scalar bookkeeping sweep that replays the scalar solver's
    ///     per-iteration decision order — max-evals failure, relative
    ///     convergence, exact root — on the recorded verdicts. Only
    ///     state transitions happen here, at most once per lane per
    ///     pass. In bounded solves the sweep ends with the prune
    ///     certificate check; it reads bracket state without writing
    ///     it, so surviving lanes keep the unbounded bit pattern.
    fn passes(&mut self, span: usize, mut active: usize) -> usize {
        let bound_active = self.bound_active;
        let (lo, hi, flo) = (&mut self.lo[..span], &mut self.hi[..span], &mut self.flo[..span]);
        let (evals, value, iterations) =
            (&mut self.evals[..span], &mut self.value[..span], &mut self.iterations[..span]);
        let (state, errors) = (&mut self.state[..span], &mut self.errors[..span]);
        let (mids, fms, convf) =
            (&mut self.mids[..span], &mut self.fms[..span], &mut self.convf[..span]);
        let (pruned_lb, cert_lo) = (&mut self.pruned_lb[..span], &mut self.cert_lo[..span]);
        let (a_icn1, a_fwd, a_icn2, c, w_e1) = (
            &self.a_icn1[..span],
            &self.a_fwd[..span],
            &self.a_icn2[..span],
            &self.c[..span],
            &self.w_e1[..span],
        );
        let (mean_i1, m2_i1, mean_e1, m2_e1, mean_i2, m2_i2) = (
            &self.mean_i1[..span],
            &self.m2_i1[..span],
            &self.mean_e1[..span],
            &self.m2_e1[..span],
            &self.mean_i2[..span],
            &self.m2_i2[..span],
        );
        let (lambda, n) = (&self.lambda[..span], &self.n[..span]);
        let (hi0, p_ext, thr_slo, thr_dom) =
            (&self.hi0[..span], &self.p_ext[..span], &self.thr_slo[..span], &self.thr_dom[..span]);
        loop {
            lockstep_pass(
                lo, hi, flo, mids, fms, convf, a_icn1, a_fwd, a_icn2, c, w_e1, mean_i1, m2_i1,
                mean_e1, m2_e1, mean_i2, m2_i2, lambda, n,
            );
            self.work.lane_passes += span as u64;
            for i in 0..span {
                if state[i] != LaneState::Active {
                    continue;
                }
                if evals[i] >= MAX_EVALS {
                    // The scalar solver checks the evaluation budget before
                    // the convergence test; `fms[i]` is the residual at
                    // exactly the midpoint it would have probed.
                    state[i] = LaneState::Failed;
                    errors[i] = Some(ModelError::SolverFailed { residual: fms[i].abs() });
                    lo[i] = 0.0;
                    hi[i] = 0.0;
                    active -= 1;
                    continue;
                }
                if convf[i] != 0.0 {
                    // Relative convergence. Like the scalar
                    // `bisect_relative`, count the residual probe at the
                    // midpoint without making it: `f` is pure and the
                    // residual is never read.
                    value[i] = mids[i];
                    iterations[i] = evals[i] + 1;
                    state[i] = LaneState::Done;
                    lo[i] = mids[i];
                    hi[i] = mids[i];
                    active -= 1;
                    continue;
                }
                evals[i] += 1;
                if fms[i] == 0.0 {
                    value[i] = mids[i];
                    iterations[i] = evals[i];
                    state[i] = LaneState::Done;
                    lo[i] = mids[i];
                    hi[i] = mids[i];
                    active -= 1;
                    continue;
                }
                if !bound_active {
                    continue;
                }
                // Prune certificate. Valid only once the high edge sits
                // strictly inside the saturation clamp: then every rate in
                // `[lo, hi]` is stable with margin (no back-off can fire),
                // the final `lambda_eff` lands in `[lo, hi]`, and mean
                // latency is monotone increasing in the effective rate — so
                // the sojourn mix at `lo` lower-bounds the latency the
                // completed solve would report. The `1e-6` / `1e-9` margins
                // keep the certificate sound under floating-point rounding.
                // The bound is a pure function of `lo` and `hi` only falls,
                // so once evaluated at some `lo` it can only change its
                // verdict after `lo` moves.
                let t_slo = thr_slo[i];
                let t_dom = thr_dom[i];
                if (t_slo.is_finite() || t_dom.is_finite())
                    && hi[i] <= hi0[i] * (1.0 - 1e-6)
                    && lo[i] != cert_lo[i]
                {
                    let x = lo[i];
                    cert_lo[i] = x;
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
                        active -= 1;
                    }
                }
            }
            if active == 0 || (bound_active && active * 2 <= span) {
                return active;
            }
        }
    }

    /// Moves the live lanes of `[0, span)` to its front, keeping their
    /// order: each live lane swaps places with the first terminal lane
    /// before it.
    fn compact(&mut self, span: usize) {
        let mut front = 0;
        for pos in 0..span {
            if self.state[pos] == LaneState::Active {
                if front != pos {
                    self.swap_lanes(front, pos);
                }
                front += 1;
            }
        }
    }

    /// Undoes every compaction: each swap puts one lane back at its
    /// input position, so at most one swap per lane.
    fn restore_order(&mut self) {
        for pos in 0..self.order.len() {
            while self.order[pos] != pos {
                let lane = self.order[pos];
                self.swap_lanes(pos, lane);
            }
        }
    }

    /// Every `f64` column indexed by lane: the columns
    /// [`BatchKernel::reset`] rewinds and compaction permutes.
    fn lane_columns(&mut self) -> [&mut Vec<f64>; 23] {
        [
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
            &mut self.thr_slo,
            &mut self.thr_dom,
            &mut self.pruned_lb,
            &mut self.cert_lo,
        ]
    }

    /// Swaps positions `a` and `b` in every column indexed by lane
    /// except `configs` and `service`, which only the tail reads.
    fn swap_lanes(&mut self, a: usize, b: usize) {
        for col in self.lane_columns() {
            col.swap(a, b);
        }
        self.evals.swap(a, b);
        self.iterations.swap(a, b);
        self.state.swap(a, b);
        self.errors.swap(a, b);
        self.order.swap(a, b);
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

/// An unbounded solve's lane outcome as the per-lane result
/// [`BatchKernel::evaluate`] returns.
fn unbounded(lane: LaneOutcome) -> Result<(PerformanceReport, EvalStats), ModelError> {
    match lane {
        LaneOutcome::Solved(report, stats) => Ok((report, stats)),
        LaneOutcome::Failed(e) => Err(e),
        LaneOutcome::Pruned { .. } => unreachable!("an unbounded solve never prunes a lane"),
    }
}

/// One contiguous block of lanes, owned so that it can cross to a
/// helper thread, with the buffer its outcomes are solved into.
/// `service` and `bounds` stay empty on the unbounded path, where every
/// lane derives its service from its own topology. A caller keeps the
/// blocks its helpers hand back, so a warm batch allocates no block
/// storage.
#[derive(Default)]
struct Block {
    configs: Vec<SystemConfig>,
    service: Vec<LaneService>,
    bounds: Vec<LaneBounds>,
    outcomes: Vec<LaneOutcome>,
    /// The work of the block's last solve.
    work: Work,
}

impl Block {
    /// Refills the block with the next `len` lanes of `lanes`.
    fn fill<L: Lane>(&mut self, lanes: &mut impl Iterator<Item = L>, len: usize) {
        self.configs.clear();
        self.service.clear();
        self.bounds.clear();
        for lane in lanes.take(len) {
            lane.push_to(self);
        }
    }

    /// Solves the block's lanes in `arena` into `self.outcomes`.
    fn solve(&mut self, arena: &mut BatchKernel) {
        let bounded = (!self.service.is_empty()).then_some((&self.service[..], &self.bounds[..]));
        self.outcomes.clear();
        arena.solve_into(&self.configs, bounded, &mut self.outcomes);
        self.work = arena.work();
    }
}

/// One lane's inputs, as the batch driver gathers them into a [`Block`].
trait Lane {
    fn push_to(self, block: &mut Block);
}

/// An unbounded lane that derives its service from its topology.
impl Lane for SystemConfig {
    fn push_to(self, block: &mut Block) {
        block.configs.push(self);
    }
}

/// A bounded lane with the caller's service.
impl Lane for (SystemConfig, LaneService, LaneBounds) {
    fn push_to(self, block: &mut Block) {
        block.configs.push(self.0);
        block.service.push(self.1);
        block.bounds.push(self.2);
    }
}

/// What a thread keeps for the batches it runs: its kernel arena, the
/// block it solves itself, the blocks its helper jobs brought back, and
/// where those jobs answer.
#[derive(Default)]
struct Local {
    arena: BatchKernel,
    head: Block,
    spare: Vec<Block>,
    answers: Arc<Answers>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// The answers to one thread's helper jobs.
#[derive(Default)]
struct Answers {
    slots: Mutex<Slots>,
    filled: Condvar,
}

/// One slot per helper block of the current call (block `i` in slot
/// `i − 1`), and how many helpers have yet to answer.
#[derive(Default)]
struct Slots {
    blocks: Vec<Option<std::thread::Result<Block>>>,
    pending: usize,
}

impl Answers {
    /// Every update leaves the slots valid; the lock is poisoned only
    /// when a call panics on a helper's panic while it reads them.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens `helpers` empty slots for a new call.
    fn expect(&self, helpers: usize) {
        let mut slots = self.lock();
        slots.blocks.clear();
        slots.blocks.resize_with(helpers, || None);
        slots.pending = helpers;
    }

    /// A helper's answer for block `index`.
    fn answer(&self, index: usize, solved: std::thread::Result<Block>) {
        let mut slots = self.lock();
        slots.blocks[index - 1] = Some(solved);
        slots.pending -= 1;
        drop(slots);
        self.filled.notify_one();
    }

    /// Waits until every helper of the current call has answered.
    fn all(&self) -> MutexGuard<'_, Slots> {
        let mut slots = self.lock();
        while slots.pending > 0 {
            slots = self.filled.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
        slots
    }
}

/// Waits, when dropped, until every helper of the current call has
/// answered, so a call never returns or unwinds while a helper may
/// still write into its thread's slots.
struct AllAnswered<'a>(&'a Answers);

impl Drop for AllAnswered<'_> {
    fn drop(&mut self) {
        drop(self.0.all());
    }
}

/// Runs `f` on this thread's kernel arena.
///
/// Each thread has one arena. It serves the block a thread solves
/// itself in [`evaluate_batch`] and [`evaluate_batch_bounded`], the
/// single-point facade, the sensitivity probes and the server's batch
/// leader, so a warm solve on any of them allocates no columns and
/// takes no lock. `f` must not start another solve on this thread.
pub fn with_arena<R>(f: impl FnOnce(&mut BatchKernel) -> R) -> R {
    LOCAL.with_borrow_mut(|local| f(&mut local.arena))
}

/// A block sent to a helper thread, and where its answer goes.
struct Job {
    index: usize,
    block: Block,
    answers: Arc<Answers>,
    /// When the batch was handed out, on an instrumented call.
    dispatched: Option<Instant>,
}

/// The process-wide kernel helpers: threads that each own one arena and
/// wait on one job queue between batches. The set grows lazily to one
/// fewer than the largest worker count a batch has asked for, and never
/// shrinks, so once it is warm a batch spawns no thread.
struct Helpers {
    jobs: Mutex<VecDeque<Job>>,
    queued: Condvar,
    spawned: Mutex<usize>,
}

static HELPERS: Helpers =
    Helpers { jobs: Mutex::new(VecDeque::new()), queued: Condvar::new(), spawned: Mutex::new(0) };

impl Helpers {
    /// Spawns helpers until there are at least `count`. Helpers are
    /// never joined: they live as long as the process, and a job's
    /// panic reaches its caller through the job's answer.
    fn grow_to(&'static self, count: usize) {
        let mut spawned = self.spawned.lock().unwrap_or_else(PoisonError::into_inner);
        while *spawned < count {
            std::thread::Builder::new()
                .name(format!("hmcs-kernel-helper-{spawned}"))
                .spawn(|| self.serve())
                .expect("failed to spawn a kernel helper thread");
            *spawned += 1;
        }
    }

    /// Queues `job` for the next idle helper. The queue is only ever
    /// pushed and popped under its lock, so a poisoned lock still
    /// guards a whole queue.
    fn submit(&self, job: Job) {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).push_back(job);
        self.queued.notify_one();
    }

    /// A helper's life: take the next job, solve its block in this
    /// helper's arena and hand it back. A panicking solve goes back to
    /// its caller as the panic; the helper drops its arena, in case the
    /// panic left it half-written, and serves on.
    fn serve(&self) {
        let mut arena = BatchKernel::default();
        loop {
            let Job { index, mut block, answers, dispatched } = {
                let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    match jobs.pop_front() {
                        Some(job) => break job,
                        None => {
                            jobs = self.queued.wait(jobs).unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            let solved = panic::catch_unwind(AssertUnwindSafe(|| {
                let started = Instant::now();
                block.solve(&mut arena);
                if let Some(dispatched) = dispatched {
                    record_worker(started - dispatched, started.elapsed());
                }
            }));
            if solved.is_err() {
                arena = BatchKernel::default();
            }
            answers.answer(index, solved.map(|()| block));
        }
    }
}

/// Helper threads this process has spawned so far. The count only
/// grows, and never past one fewer than the largest worker count a
/// batch has used.
pub fn helpers_spawned() -> usize {
    *HELPERS.spawned.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registry handles for the `core.batch.*` metrics a kernel batch
/// records, looked up once per process like [`SolveMetrics`]: the
/// caller and its helpers finish their blocks at about the same time,
/// and would otherwise contend on the registry's mutex.
struct BatchMetrics {
    calls: &'static metrics::Counter,
    items: &'static metrics::Counter,
    worker_items: &'static metrics::ValueHistogram,
    worker_busy_us: &'static metrics::ValueHistogram,
    worker_idle_us: &'static metrics::ValueHistogram,
}

fn batch_metrics() -> &'static BatchMetrics {
    static HANDLES: OnceLock<BatchMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| BatchMetrics {
        calls: metrics::counter(keys::BATCH_CALLS),
        items: metrics::counter(keys::BATCH_ITEMS),
        worker_items: metrics::histogram(keys::BATCH_WORKER_ITEMS),
        worker_busy_us: metrics::histogram(keys::BATCH_WORKER_BUSY_US),
        worker_idle_us: metrics::histogram(keys::BATCH_WORKER_IDLE_US),
    })
}

/// Records one worker's share of a batch under the
/// `core.batch.worker_*` histograms: one block, the time it spent
/// solving, and the time from the batch's start until it began.
fn record_worker(idle: Duration, busy: Duration) {
    let handles = batch_metrics();
    handles.worker_items.record(1);
    handles.worker_busy_us.record_f64(busy.as_secs_f64() * 1e6);
    handles.worker_idle_us.record_f64(idle.as_secs_f64() * 1e6);
}

/// Evaluates a batch of configurations through [`BatchKernel`], split
/// into one contiguous lane block per worker.
///
/// Results arrive in input order and every lane is bit-identical to the
/// scalar reference [`crate::solver::solve`] — chunking cannot change
/// bits because lanes never exchange information. The calling thread
/// solves the first block in its own arena ([`with_arena`]) while the
/// process-wide kernel helpers solve the others, so a warm call spawns
/// no thread and allocates only the vector it returns.
pub fn evaluate_batch(
    configs: &[SystemConfig],
    workers: usize,
) -> Vec<Result<(PerformanceReport, EvalStats), ModelError>> {
    let mut out = Vec::with_capacity(configs.len());
    evaluate_chunked(configs.iter().copied(), workers, |lane| out.push(unbounded(lane)));
    out
}

/// [`evaluate_batch`] with each lane's [`LaneService`] handed in and
/// per-lane prune thresholds ([`BatchKernel::evaluate_bounded`] per
/// block). `service` and `bounds` must be lane-aligned with `configs`.
/// Lanes that survive are bit-identical to [`evaluate_batch`]; pruned
/// lanes carry their certified latency lower bound.
pub fn evaluate_batch_bounded(
    configs: &[SystemConfig],
    service: &[LaneService],
    bounds: &[LaneBounds],
    workers: usize,
) -> Vec<LaneOutcome> {
    assert_eq!(configs.len(), service.len(), "one LaneService per lane");
    assert_eq!(configs.len(), bounds.len(), "one LaneBounds per lane");
    let lanes = configs.iter().zip(service).zip(bounds).map(|((&c, &s), &b)| (c, s, b));
    let mut out = Vec::with_capacity(configs.len());
    for_each_outcome_bounded(lanes, workers, |lane| out.push(lane));
    out
}

/// [`evaluate_batch_bounded`] over lanes the caller gathers on the fly,
/// handing each outcome to `each` in lane order: the optimizer's solve
/// path. Each lane is copied once, straight into the block that solves
/// it, and each outcome is read from the buffer its block was solved
/// into. `each` must not start a kernel solve on this thread.
pub(crate) fn for_each_outcome_bounded(
    lanes: impl ExactSizeIterator<Item = (SystemConfig, LaneService, LaneBounds)>,
    workers: usize,
    each: impl FnMut(LaneOutcome),
) {
    evaluate_chunked(lanes, workers, each);
}

/// The chunked driver behind every batch entry point. It cuts the lanes
/// into one contiguous block per worker and queues blocks `1..` for the
/// kernel helpers. It then solves block 0 in this thread's arena and
/// hands every outcome to `each` in lane order, block 0's while the
/// helpers may still be solving.
fn evaluate_chunked<L: Lane>(
    mut lanes: impl ExactSizeIterator<Item = L>,
    workers: usize,
    mut each: impl FnMut(LaneOutcome),
) {
    let count = lanes.len();
    if count == 0 {
        return;
    }
    let instrumented = metrics::enabled();
    if instrumented {
        let handles = batch_metrics();
        handles.calls.incr();
        handles.items.add(count as u64);
    }
    let chunk = count.div_ceil(workers.max(1).min(count));
    let blocks = count.div_ceil(chunk);
    LOCAL.with_borrow_mut(|local| {
        let Local { arena, head, spare, answers } = local;
        let answers: &Arc<Answers> = answers;
        head.fill(&mut lanes, chunk);
        if blocks > 1 {
            HELPERS.grow_to(blocks - 1);
        }
        answers.expect(blocks - 1);
        let _all_answered = AllAnswered(answers);
        let dispatched = Instant::now();
        for index in 1..blocks {
            let mut block = spare.pop().unwrap_or_default();
            block.fill(&mut lanes, chunk);
            let answers = Arc::clone(answers);
            HELPERS.submit(Job {
                index,
                block,
                answers,
                dispatched: instrumented.then_some(dispatched),
            });
        }
        let started = Instant::now();
        head.solve(arena);
        if instrumented && blocks > 1 {
            record_worker(started - dispatched, started.elapsed());
        }
        head.outcomes.drain(..).for_each(&mut each);
        for slot in answers.all().blocks.iter_mut() {
            let mut block =
                slot.take().expect("every helper answered").expect("batch worker panicked");
            block.outcomes.drain(..).for_each(&mut each);
            work::record(block.work);
            spare.push(block);
        }
    });
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

    /// Each config's [`LaneService`], as a caller that holds them hands
    /// them in.
    fn lane_service(configs: &[SystemConfig]) -> Vec<LaneService> {
        configs.iter().map(|c| LaneService::compute(c).unwrap()).collect()
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
        let service = LaneService::compute(&base).unwrap();
        let lambdas: Vec<f64> = (0..64).map(|i| 1e-6 * 1.12f64.powi(i)).collect();
        let configs: Vec<SystemConfig> = lambdas.iter().map(|&l| base.with_lambda(l)).collect();
        let lanes = BatchKernel::with_service(&configs, &vec![service; configs.len()]).solve();
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
        let service = LaneService::compute(&base).unwrap();
        let mut arena = BatchKernel::default();
        for count in [7usize, 64, 3] {
            let configs: Vec<SystemConfig> =
                (0..count).map(|i| base.with_lambda(1e-6 * 1.3f64.powi(i as i32))).collect();
            let shared = vec![service; count];
            arena.reset(&configs, Some(&shared));
            let reused = arena.solve_in_place();
            let fresh = BatchKernel::with_service(&configs, &shared).solve();
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
        let outcomes =
            BatchKernel::default().evaluate_bounded(&configs, &lane_service(&configs), &bounds);
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
        let outcomes =
            BatchKernel::default().evaluate_bounded(&configs, &lane_service(&configs), &bounds);
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
    fn pruned_lower_bounds_are_pinned() {
        // 54 lanes, each with a threshold at 55–95% of its true
        // latency, so every lane prunes. The bits of every certified
        // bound fold into one pinned digest: when a lane prunes, and at
        // which `lo`, must not move.
        let mut configs = Vec::new();
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &c in &PAPER_CLUSTER_COUNTS {
                for lambda in [1e-4, 2.5e-4, 1e-3] {
                    configs.push(
                        SystemConfig::paper_preset(Scenario::Case2, c, arch)
                            .unwrap()
                            .with_lambda(lambda),
                    );
                }
            }
        }
        let bounds: Vec<LaneBounds> = evaluate_batch(&configs, 1)
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let latency = lane.as_ref().unwrap().0.latency.mean_message_latency_us;
                let threshold = latency * (0.55 + 0.4 * (i % 5) as f64 / 4.0);
                if i % 2 == 0 {
                    LaneBounds { slo_us: threshold, dominated_at_us: f64::INFINITY }
                } else {
                    LaneBounds { slo_us: f64::INFINITY, dominated_at_us: threshold }
                }
            })
            .collect();
        let outcomes = evaluate_batch_bounded(&configs, &lane_service(&configs), &bounds, 1);
        let mut digest = 0u64;
        for outcome in &outcomes {
            let LaneOutcome::Pruned { latency_lb_us } = outcome else {
                panic!("every lane should prune, got {outcome:?}");
            };
            digest = digest.rotate_left(7) ^ latency_lb_us.to_bits();
        }
        assert_eq!(outcomes.len(), 54);
        assert_eq!(digest, 0x3715_4f70_43a9_4a6f);
    }

    /// A bounded lane that, when `poisoned`, leaves its bounds out of
    /// its block, so the solve of that block trips the kernel's
    /// one-bounds-per-lane assert.
    struct Poisoned(SystemConfig, LaneService, bool);

    impl Lane for Poisoned {
        fn push_to(self, block: &mut Block) {
            block.configs.push(self.0);
            block.service.push(self.1);
            if !self.2 {
                block.bounds.push(LaneBounds::NONE);
            }
        }
    }

    #[test]
    fn a_panicking_helper_block_panics_the_caller_and_the_pool_serves_on() {
        let configs: Vec<SystemConfig> =
            PAPER_CLUSTER_COUNTS.iter().map(|&c| cfg(c, Architecture::Blocking)).collect();
        let service = lane_service(&configs);
        // Two workers: the caller solves the first half of the lanes and
        // a helper the second, the poisoned one.
        let half = configs.len().div_ceil(2);
        let poisoned =
            configs.iter().zip(&service).enumerate().map(|(i, (&c, &s))| Poisoned(c, s, i >= half));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| evaluate_chunked(poisoned, 2, drop)));
        let payload = caught.expect_err("a helper's panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("batch worker panicked"), "caller panicked with {message:?}");

        let bounds = vec![LaneBounds::NONE; configs.len()];
        let alone = evaluate_batch_bounded(&configs, &service, &bounds, 1);
        for _ in 0..3 {
            assert_eq!(evaluate_batch_bounded(&configs, &service, &bounds, 2).len(), alone.len());
            for (helped, solo) in
                evaluate_batch_bounded(&configs, &service, &bounds, 2).iter().zip(&alone)
            {
                match (helped, solo) {
                    (LaneOutcome::Solved(a, _), LaneOutcome::Solved(b, _)) => {
                        assert_bitwise_eq(a, b)
                    }
                    _ => panic!("after a helper panic, {helped:?} differs from {solo:?}"),
                }
            }
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
        let service = lane_service(&configs);
        let one = evaluate_batch_bounded(&configs, &service, &bounds, 1);
        // The last one-worker batch follows parallel ones on this thread.
        for workers in [2, 3, 8, 1] {
            let many = evaluate_batch_bounded(&configs, &service, &bounds, workers);
            assert_eq!(one, many, "workers={workers}");
        }
    }
}
