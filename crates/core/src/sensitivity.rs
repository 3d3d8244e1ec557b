//! Central finite-difference derivatives of the mean message latency.
//!
//! The analytical model gives `T_W` (eq. 15) as an implicit function of
//! the offered rate λ, the message size `M` and the population `N`
//! through the effective-rate fixed point, so closed-form derivatives
//! would have to differentiate through the bisection. Instead this
//! module evaluates symmetric probe pairs around the operating point
//! and forms second-order central differences — all probes run as
//! lanes of one kernel solve on the thread's arena
//! ([`kernel::with_arena`]), so a full sensitivity evaluation costs a
//! single lockstep kernel pass.
//!
//! Derivative conventions (units matter — λ is per-processor
//! messages/µs, `T_W` is µs):
//!
//! * `dlatency_dlambda` — µs per unit of per-processor rate (µs²):
//!   how fast latency climbs as every processor offers more load.
//! * `dlatency_dbyte` — µs per payload byte at fixed shape.
//! * `dlatency_dnode` — µs per added *processor* (the per-cluster
//!   population probe moves `C` processors at once; the difference is
//!   normalised back to one processor).
//!
//! Step sizes are the classic central-difference compromise between
//! truncation error (`O(h²)`) and round-off (`O(ε/h)`): `1e-5`
//! relative for λ; the integer axes use the smallest steps their grids
//! allow (±16 bytes, ±1 node per cluster) and fall back to one-sided
//! differences at the domain edge. See EXPERIMENTS.md ("Sensitivity
//! artefact") for the full rationale.

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::kernel::{self, LaneBounds, LaneOutcome, LaneService};
use crate::service::ServiceTimes;
use crate::solver;

/// Relative half-step for the λ probes: the pair is evaluated at
/// `λ·(1 ∓ LAMBDA_REL_STEP)`.
const LAMBDA_REL_STEP: f64 = 1e-5;
/// Half-step in bytes for the message-size probes.
const MESSAGE_STEP_BYTES: u64 = 16;
/// Half-step in processors *per cluster* for the population probes.
const NODES_STEP: usize = 1;
/// Probes on the geometric λ ladder of [`lambda_for_latency`].
const LADDER: usize = 47;

/// Latency derivatives of one configuration at its operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// Mean message latency `T_W` at the operating point (µs).
    pub latency_us: f64,
    /// `∂T_W/∂λ` — µs per unit per-processor rate (µs²). Positive,
    /// steepest at the saturation knee; beyond it the retention
    /// mechanism (waiting processors stop generating) flattens the
    /// curve again.
    pub dlatency_dlambda: f64,
    /// `∂T_W/∂M` — µs per payload byte.
    pub dlatency_dbyte: f64,
    /// `∂T_W/∂N` — µs per added processor at fixed cluster count.
    pub dlatency_dnode: f64,
    /// The closed-form saturation rate (messages/µs/processor).
    pub saturation_lambda: f64,
    /// Offered-rate headroom `saturation_lambda − λ` (messages/µs).
    pub lambda_headroom: f64,
}

/// Evaluates all three derivatives of `config` with one batched kernel
/// pass over the centre point and its probe pairs.
pub fn evaluate(config: &SystemConfig) -> Result<Sensitivity, ModelError> {
    config.validate()?;

    let lambda = config.lambda_per_us;
    let h_l = lambda * LAMBDA_REL_STEP;
    let lam_hi = lambda + h_l;
    let lam_lo = lambda - h_l;
    if lam_hi <= lambda {
        return Err(ModelError::InvalidConfig {
            name: "lambda_per_us",
            reason: "the relative lambda step underflows at this lambda",
        });
    }

    let m = config.message_bytes;
    let dm = MESSAGE_STEP_BYTES;
    let m_hi = m + dm;
    // One-sided at the small-message edge: the lower probe must stay
    // at least one byte.
    let m_lo = if m > dm { m - dm } else { m };

    let n0 = config.nodes_per_cluster;
    let dn = NODES_STEP;
    // One-sided at the small-population edge: the lower probe needs at
    // least one node per cluster and two nodes in total.
    let n_lo_ok = n0 > dn && config.clusters * (n0 - dn) >= 2;

    // The operating point and up to six probes, as the lanes of one
    // solve on this thread's arena.
    let mut lanes = [*config; 7];
    let mut len = 1;
    let mut push = |lane: SystemConfig| {
        lanes[len] = lane;
        len += 1;
        len - 1
    };
    let i_lam_hi = push(config.with_lambda(lam_hi));
    let i_lam_lo = (lam_lo > 0.0).then(|| push(config.with_lambda(lam_lo)));
    let i_m_hi = push(config.with_message_bytes(m_hi));
    let i_m_lo = (m_lo != m).then(|| push(config.with_message_bytes(m_lo)));
    let mut up = *config;
    up.nodes_per_cluster = n0 + dn;
    let i_n_hi = push(up);
    let i_n_lo = n_lo_ok.then(|| {
        let mut down = *config;
        down.nodes_per_cluster = n0 - dn;
        push(down)
    });

    let results = kernel::with_arena(|arena| arena.evaluate(&lanes[..len]));
    let lat = |i: usize| -> Result<f64, ModelError> {
        match &results[i] {
            Ok((report, _)) => Ok(report.latency.mean_message_latency_us),
            Err(e) => Err(e.clone()),
        }
    };

    let t0 = lat(0)?;
    let dlatency_dlambda = match i_lam_lo {
        Some(ilo) => (lat(i_lam_hi)? - lat(ilo)?) / (lam_hi - lam_lo),
        None => (lat(i_lam_hi)? - t0) / (lam_hi - lambda),
    };
    let dlatency_dbyte = match i_m_lo {
        Some(ilo) => (lat(i_m_hi)? - lat(ilo)?) / ((m_hi - m_lo) as f64),
        None => (lat(i_m_hi)? - t0) / (dm as f64),
    };
    let c = config.clusters as f64;
    let dlatency_dnode = match i_n_lo {
        Some(ilo) => (lat(i_n_hi)? - lat(ilo)?) / (2.0 * c * dn as f64),
        None => (lat(i_n_hi)? - t0) / (c * dn as f64),
    };

    let service = ServiceTimes::compute(config)?;
    let saturation_lambda = solver::saturation_lambda(config, &service);
    Ok(Sensitivity {
        latency_us: t0,
        dlatency_dlambda,
        dlatency_dbyte,
        dlatency_dnode,
        saturation_lambda,
        lambda_headroom: saturation_lambda - lambda,
    })
}

/// Largest per-processor rate (messages/µs) whose predicted mean
/// latency stays at or below `latency_budget_us`, or `None` when even
/// near-zero load violates the budget.
///
/// Offered load is *not* bounded by [`solver::saturation_lambda`]:
/// beyond the knee the retention mechanism keeps the fixed point
/// stable and latency keeps climbing slowly, so the search expands a
/// geometric ladder of probes past saturation until the budget is
/// exceeded (the ladder is one kernel pass), then polishes the
/// crossing with Newton steps on the central-difference derivative;
/// any step that leaves the bracket falls back to bisection, so
/// convergence is guaranteed. Each polish iteration evaluates its
/// three probes (`x−h`, `x`, `x+h`) as lanes of one kernel solve, and
/// every solve of the search runs on the thread's kernel arena. If
/// latency stays within budget all the way to `2¹⁶·saturation_lambda`
/// (deep in the retention plateau), that ceiling is returned.
/// Compared to a pure bisection on latency, the Newton polish reaches
/// tighter tolerances in a handful of iterations — this is the one
/// answer to λ-headroom questions in capacity planning.
pub fn lambda_for_latency(
    config: &SystemConfig,
    latency_budget_us: f64,
) -> Result<Option<f64>, ModelError> {
    config.validate()?;
    if !(latency_budget_us.is_finite() && latency_budget_us > 0.0) {
        return Err(ModelError::InvalidConfig {
            name: "latency_budget_us",
            reason: "latency budget must be finite and positive",
        });
    }
    let lane = LaneService::compute(config)?;
    let sat = lane.saturation_lambda;
    let scale = if sat.is_finite() && sat > 0.0 { sat } else { config.lambda_per_us };

    // Geometric ladder: scale·2^k for k = −30..=16 covers near-zero
    // load through deep retention-plateau overload in one batch.
    let ladder: [f64; LADDER] = std::array::from_fn(|j| scale * ((j as i32 - 30) as f64).exp2());

    // Every solve of the search — the ladder and each polish probe —
    // runs on this thread's arena with the shape's one `LaneService`,
    // into one outcome buffer.
    let mut cfgs = [*config; LADDER];
    let service = [lane; LADDER];
    let unbounded = [LaneBounds::NONE; LADDER];
    let mut outcomes: Vec<LaneOutcome> = Vec::with_capacity(LADDER);
    let mut eval_lat = |lams: &[f64], lats: &mut [f64]| -> Result<(), ModelError> {
        let k = lams.len();
        for (cfg, &l) in cfgs.iter_mut().zip(lams) {
            *cfg = config.with_lambda(l);
        }
        outcomes.clear();
        kernel::with_arena(|arena| {
            arena.solve_into(&cfgs[..k], Some((&service[..k], &unbounded[..k])), &mut outcomes);
        });
        for (lat, outcome) in lats.iter_mut().zip(outcomes.drain(..)) {
            *lat = match outcome {
                LaneOutcome::Solved(report, _) => report.latency.mean_message_latency_us,
                LaneOutcome::Failed(e) => return Err(e),
                LaneOutcome::Pruned { .. } => unreachable!("an unbounded solve never prunes"),
            };
        }
        Ok(())
    };
    let mut lats = [0.0; LADDER];
    eval_lat(&ladder, &mut lats)?;
    if lats[0] > latency_budget_us {
        return Ok(None);
    }
    let Some(first_over) = lats.iter().position(|&t| t > latency_budget_us) else {
        return Ok(Some(ladder[ladder.len() - 1]));
    };

    let (mut lo, mut hi) = (ladder[first_over - 1], ladder[first_over]);
    let mut x = 0.5 * (lo + hi);
    for _ in 0..40 {
        let h = x * 1e-5;
        let mut probes = [0.0; 3];
        eval_lat(&[x - h, x, x + h], &mut probes)?;
        let [t_lo, t, t_hi] = probes;
        if t <= latency_budget_us {
            lo = x;
        } else {
            hi = x;
        }
        if (hi - lo) <= 1e-12 * hi {
            break;
        }
        let deriv = (t_hi - t_lo) / (2.0 * h);
        let newton = if deriv.is_finite() && deriv > 0.0 {
            x - (t - latency_budget_us) / deriv
        } else {
            f64::NAN
        };
        x = if newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;
    use crate::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(clusters: usize) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, Architecture::NonBlocking).unwrap()
    }

    #[test]
    fn derivatives_have_the_right_signs() {
        let s = evaluate(&cfg(16)).unwrap();
        assert!(s.latency_us > 0.0);
        assert!(s.dlatency_dlambda > 0.0, "more load must cost latency");
        assert!(s.dlatency_dbyte > 0.0, "bigger messages must cost latency");
        assert!(s.dlatency_dnode > 0.0, "more contending processors must cost latency");
        assert!(s.saturation_lambda > 0.0 && s.saturation_lambda.is_finite());
    }

    #[test]
    fn lambda_derivative_matches_a_coarse_secant() {
        // The central difference at 1e-5 must agree with a 1e-3-wide
        // secant to within the secant's own truncation error.
        let base = cfg(8);
        let s = evaluate(&base).unwrap();
        let l = base.lambda_per_us;
        let up = AnalyticalModel::evaluate(&base.with_lambda(l * 1.001)).unwrap();
        let down = AnalyticalModel::evaluate(&base.with_lambda(l * 0.999)).unwrap();
        let secant = (up.latency.mean_message_latency_us - down.latency.mean_message_latency_us)
            / (l * 0.002);
        let rel = (s.dlatency_dlambda - secant).abs() / secant.abs();
        assert!(rel < 1e-2, "central FD {} vs secant {secant}: rel {rel}", s.dlatency_dlambda);
    }

    #[test]
    fn derivative_steepens_toward_the_knee() {
        // Below the saturation knee the latency curve is convex, so
        // the λ-derivative must grow as load approaches saturation.
        // (Beyond the knee retention flattens it again, which is why
        // the probes sit at fractions of the closed-form rate.)
        let base = cfg(16);
        let sat = evaluate(&base).unwrap().saturation_lambda;
        let near = evaluate(&base.with_lambda(0.95 * sat)).unwrap();
        let far = evaluate(&base.with_lambda(0.5 * sat)).unwrap();
        assert!(near.dlatency_dlambda > far.dlatency_dlambda);
    }

    #[test]
    fn edge_populations_fall_back_to_one_sided_steps() {
        // C=256 leaves one node per cluster: the N− probe is invalid
        // and the M/λ axes still work.
        let s = evaluate(&cfg(256)).unwrap();
        assert!(s.dlatency_dnode.is_finite());
        assert!(s.dlatency_dlambda > 0.0);
    }

    #[test]
    fn newton_lambda_hits_the_budget_from_below() {
        let base = cfg(16);
        let budget = 5_000.0; // 5 ms, comfortably above zero load
        let best = lambda_for_latency(&base, budget).unwrap().expect("budget is feasible");
        let at = AnalyticalModel::evaluate(&base.with_lambda(best)).unwrap();
        assert!(at.latency.mean_message_latency_us <= budget * (1.0 + 1e-9));
        let above = AnalyticalModel::evaluate(&base.with_lambda(best * 1.001)).unwrap();
        assert!(above.latency.mean_message_latency_us > budget);
    }

    #[test]
    fn newton_lambda_agrees_with_a_serial_bisection_oracle() {
        // An independent oracle: a plain serial bisection on per-point
        // scalar evaluations.
        let base = cfg(16);
        let budget = 5_000.0;
        let newton = lambda_for_latency(&base, budget).unwrap().unwrap();
        let latency_at = |lam: f64| {
            AnalyticalModel::evaluate(&base.with_lambda(lam))
                .unwrap()
                .latency
                .mean_message_latency_us
        };
        let (mut lo, mut hi) = (1e-8, 1e-2);
        assert!(latency_at(lo) <= budget && latency_at(hi) > budget);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if latency_at(mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let rel = (newton - lo).abs() / lo;
        assert!(rel < 1e-3, "newton {newton} vs bisection {lo}: rel {rel}");
    }

    #[test]
    fn newton_lambda_detects_impossible_budgets() {
        // Budget below the zero-load service mix: nothing fits.
        assert_eq!(lambda_for_latency(&cfg(16), 1.0).unwrap(), None);
    }

    #[test]
    fn newton_lambda_rejects_bad_budgets() {
        assert!(lambda_for_latency(&cfg(4), f64::NAN).is_err());
        assert!(lambda_for_latency(&cfg(4), -5.0).is_err());
    }
}
