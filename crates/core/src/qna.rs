//! A QNA-style refinement of the paper's model: propagate
//! **arrival-process variability** through the network instead of
//! assuming Poisson arrivals everywhere.
//!
//! Assumption 2 of the paper approximates the arrival process at every
//! centre as Poisson. Our validation (EXPERIMENTS.md) shows where that
//! costs accuracy: with several tiers loaded at once (Figure 7, C = 4)
//! the analysis misses by ~15–20%, because the *departure* process of a
//! loaded queue feeding the next tier is not Poisson.
//!
//! Following Whitt's Queueing Network Analyzer recipe with two-moment
//! traffic descriptors `(λ, ca²)`:
//!
//! * external (source) streams are Poisson: `ca² = 1` — in fact the
//!   throttled source process is slightly smoother, but we keep the
//!   conservative choice;
//! * each centre is a GI/G/1 queue evaluated with the
//!   Krämer–Langenbach-Belz formula ([`hmcs_queueing::gg1`]);
//! * departures follow Marshall's linkage
//!   `cd² = ρ²·cs² + (1−ρ²)·ca²`;
//! * splitting a stream with probability `p` gives
//!   `ca²' = p·ca² + 1 − p`; merging streams averages SCVs weighted by
//!   rate.
//!
//! The flow topology (Figure 2): sources → {ICN1 | ECN1-fwd} →
//! ECN1-fwd → ICN2 → split 1/C → ECN1-feedback. ECN1's physical queue
//! sees the *merge* of the forward and feedback streams. The SCV
//! propagation is solved by damped iteration inside the same
//! effective-λ outer fixed point as the base model.

use crate::config::{QueueAccounting, SystemConfig};
use crate::error::ModelError;
use crate::latency::LatencyReport;
use crate::metrics::{self, keys};
use crate::rates::TrafficRates;
use crate::service::ServiceTimes;
use hmcs_queueing::fixed_point::{bisect_relative, SolverOptions};
use hmcs_queueing::gg1::{Approximation, GG1};

/// Converged SCV state of the three tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScvState {
    /// Arrival SCV at ICN1.
    pub icn1_ca2: f64,
    /// Arrival SCV at the (merged) ECN1 queue.
    pub ecn1_ca2: f64,
    /// Arrival SCV at ICN2.
    pub icn2_ca2: f64,
}

/// Output of the QNA-refined evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QnaReport {
    /// Effective per-processor rate (eq. 7 under GI/G/1 queue lengths).
    pub lambda_eff: f64,
    /// Converged arrival SCVs.
    pub scv: ScvState,
    /// Latency report (eq. 15 with GI/G/1 sojourns).
    pub latency: LatencyReport,
}

/// Per-centre GI/G/1 view at a candidate rate and SCV state.
struct Centers {
    icn1: Option<GG1>,
    ecn1: Option<GG1>,
    icn2: Option<GG1>,
}

fn build_centers(
    config: &SystemConfig,
    service: &ServiceTimes,
    rates: &TrafficRates,
    scv: &ScvState,
) -> Option<Centers> {
    let mk = |lambda: f64, ca2: f64, mean_us: f64| -> Option<Option<GG1>> {
        if lambda <= 0.0 {
            return Some(None);
        }
        GG1::new(lambda, ca2, config.service_model.distribution(mean_us)).ok().map(Some)
    };
    Some(Centers {
        icn1: mk(rates.icn1, scv.icn1_ca2, service.icn1_us)?,
        ecn1: mk(rates.ecn1_total, scv.ecn1_ca2, service.ecn1_us)?,
        icn2: mk(rates.icn2, scv.icn2_ca2, service.icn2_us)?,
    })
}

/// One sweep of the SCV propagation at fixed rates. Returns the updated
/// state.
fn propagate_scv(config: &SystemConfig, rates: &TrafficRates, centers: &Centers) -> ScvState {
    let c = config.clusters as f64;
    // Sources are Poisson streams.
    let source_ca2 = 1.0;

    // ECN1 forward component: the source stream (split off the
    // processor's output: splitting preserves Poisson).
    let fwd_ca2 = source_ca2;

    // ICN2 arrivals: merge of the C clusters' ECN1 *forward-share*
    // departures. Approximate the forward share of ECN1's departure SCV
    // by the whole queue's departure SCV, split by the forward fraction
    // of its traffic.
    let ecn1_cd2 = centers.ecn1.as_ref().map_or(1.0, |q| q.departure_scv());
    let fwd_fraction =
        if rates.ecn1_total > 0.0 { rates.ecn1_forward / rates.ecn1_total } else { 0.0 };
    // Split: ca2' = p ca2 + 1 - p, then merging C iid streams keeps the
    // weighted SCV (all equal).
    let icn2_ca2 = fwd_fraction * ecn1_cd2 + 1.0 - fwd_fraction;

    // Feedback into each ECN1: ICN2 departures split 1/C.
    let icn2_cd2 = centers.icn2.as_ref().map_or(1.0, |q| q.departure_scv());
    let fb_ca2 = icn2_cd2 / c + 1.0 - 1.0 / c;

    // ECN1's merged arrival SCV: rate-weighted average of forward and
    // feedback components.
    let ecn1_ca2 = if rates.ecn1_total > 0.0 {
        (rates.ecn1_forward * fwd_ca2 + rates.ecn1_feedback * fb_ca2) / rates.ecn1_total
    } else {
        1.0
    };

    ScvState { icn1_ca2: source_ca2, ecn1_ca2, icn2_ca2 }
}

/// Solves SCVs at a fixed rate vector by damped iteration.
fn solve_scv(
    config: &SystemConfig,
    service: &ServiceTimes,
    rates: &TrafficRates,
) -> Option<ScvState> {
    let mut scv = ScvState { icn1_ca2: 1.0, ecn1_ca2: 1.0, icn2_ca2: 1.0 };
    for _ in 0..200 {
        let centers = build_centers(config, service, rates, &scv)?;
        let next = propagate_scv(config, rates, &centers);
        let delta = (next.ecn1_ca2 - scv.ecn1_ca2).abs().max((next.icn2_ca2 - scv.icn2_ca2).abs());
        // Damping for stability near saturation.
        scv = ScvState {
            icn1_ca2: next.icn1_ca2,
            ecn1_ca2: 0.5 * scv.ecn1_ca2 + 0.5 * next.ecn1_ca2,
            icn2_ca2: 0.5 * scv.icn2_ca2 + 0.5 * next.icn2_ca2,
        };
        if delta < 1e-10 {
            break;
        }
    }
    Some(scv)
}

/// Total waiting processors (eq. 6) under GI/G/1 queue lengths.
fn total_waiting(config: &SystemConfig, service: &ServiceTimes, lambda_eff: f64) -> Option<f64> {
    let rates = TrafficRates::compute(config, lambda_eff);
    let scv = solve_scv(config, service, &rates)?;
    let centers = build_centers(config, service, &rates, &scv)?;
    let l =
        |q: &Option<GG1>| q.as_ref().map_or(0.0, |q| q.mean_number_in_system(Approximation::KLB));
    let w = match config.accounting {
        QueueAccounting::PaperLiteral => 2.0,
        QueueAccounting::SingleQueue => 1.0,
    };
    let c = config.clusters as f64;
    Some(c * (w * l(&centers.ecn1) + l(&centers.icn1)) + l(&centers.icn2))
}

/// Evaluates the QNA-refined model.
pub fn evaluate(config: &SystemConfig) -> Result<QnaReport, ModelError> {
    config.validate()?;
    let service = &ServiceTimes::compute(config)?;
    let lambda = config.lambda_per_us;
    let n = config.total_nodes() as f64;

    let g = |x: f64| -> f64 {
        let l = total_waiting(config, service, x).unwrap_or(f64::INFINITY);
        lambda * (n - l.min(n)) / n
    };
    // Reuse the closed-form stability boundary of the base model (GG1
    // shares the rho < 1 condition).
    let sat = crate::solver::saturation_lambda(config, service);
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
    // Like the base solver: the bisection can land a hair inside the
    // unstable clamp region near saturation; back off to the stable
    // side instead of failing the whole evaluation. Shares the
    // geometric helper so both paths retreat identically.
    let (lambda_eff, backoff_steps) = crate::solver::back_off_to_stable(sol.value, |x| {
        total_waiting(config, service, x).is_some()
    })
    .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;

    metrics::counter(keys::QNA_SOLVES).incr();
    metrics::histogram(keys::QNA_ITERATIONS).record(sol.iterations as u64);
    if backoff_steps > 0 {
        metrics::counter(keys::QNA_BACKOFF_ACTIVATIONS).incr();
        metrics::histogram(keys::SOLVER_BACKOFF_STEPS).record(backoff_steps as u64);
    }

    let rates = TrafficRates::compute(config, lambda_eff);
    let scv = solve_scv(config, service, &rates)
        .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;
    let centers = build_centers(config, service, &rates, &scv)
        .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;

    let w = |q: &Option<GG1>, fallback_us: f64| {
        q.as_ref().map_or(fallback_us, |q| q.mean_sojourn_time(Approximation::KLB))
    };
    let p = rates.external_probability;
    let w_i1 = w(&centers.icn1, service.icn1_us);
    let w_e1 = w(&centers.ecn1, service.ecn1_us);
    let w_i2 = w(&centers.icn2, service.icn2_us);
    let internal = w_i1;
    let external = w_i2 + 2.0 * w_e1;
    let latency = LatencyReport {
        external_probability: p,
        internal_latency_us: internal,
        external_latency_us: external,
        mean_message_latency_us: (1.0 - p) * internal + p * external,
        sojourn_icn1_us: w_i1,
        sojourn_ecn1_us: w_e1,
        sojourn_icn2_us: w_i2,
    };
    Ok(QnaReport { lambda_eff, scv, latency })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;
    use crate::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(scenario: Scenario, clusters: usize, arch: Architecture) -> SystemConfig {
        SystemConfig::paper_preset(scenario, clusters, arch).unwrap()
    }

    #[test]
    fn scv_state_converges_and_is_sane() {
        let config = cfg(Scenario::Case1, 8, Architecture::NonBlocking);
        let r = evaluate(&config).unwrap();
        assert!(r.scv.icn1_ca2 == 1.0);
        assert!(r.scv.ecn1_ca2 > 0.0 && r.scv.ecn1_ca2 < 4.0);
        assert!(r.scv.icn2_ca2 > 0.0 && r.scv.icn2_ca2 < 4.0);
        assert!(r.latency.mean_message_latency_us > 0.0);
    }

    #[test]
    fn reduces_toward_base_model_when_everything_is_poissonish() {
        // Exponential service + light load: departures stay ~Poisson, so
        // QNA and the base M/M/1 model agree closely.
        let config = cfg(Scenario::Case1, 8, Architecture::NonBlocking)
            .with_lambda(crate::scenario::PAPER_LAMBDA_LITERAL_PER_US);
        let qna = evaluate(&config).unwrap();
        let base = AnalyticalModel::evaluate(&config).unwrap();
        let rel = (qna.latency.mean_message_latency_us - base.latency.mean_message_latency_us)
            .abs()
            / base.latency.mean_message_latency_us;
        assert!(rel < 0.01, "light-load divergence {rel}");
    }

    #[test]
    fn exponential_service_keeps_unit_scv_fixed_point() {
        // M/M/1 tandem: cd2 = 1 exactly, so the SCV iteration must stay
        // at 1 and QNA must reproduce the base model's latency.
        let config = cfg(Scenario::Case2, 16, Architecture::NonBlocking);
        let r = evaluate(&config).unwrap();
        assert!((r.scv.ecn1_ca2 - 1.0).abs() < 1e-6);
        assert!((r.scv.icn2_ca2 - 1.0).abs() < 1e-6);
        let base = AnalyticalModel::evaluate(&config).unwrap();
        let rel = (r.latency.mean_message_latency_us - base.latency.mean_message_latency_us).abs()
            / base.latency.mean_message_latency_us;
        assert!(rel < 1e-6, "exponential fixed point should match base, rel {rel}");
    }

    #[test]
    fn deterministic_service_smooths_internal_traffic() {
        use crate::config::ServiceTimeModel;
        // cs2 = 0 at loaded centres drives departure SCVs below 1,
        // reducing downstream waiting vs the base P-K treatment.
        let config = cfg(Scenario::Case1, 32, Architecture::NonBlocking)
            .with_service_model(ServiceTimeModel::Deterministic);
        let r = evaluate(&config).unwrap();
        assert!(r.scv.icn2_ca2 < 1.0, "smoothed arrivals, got {}", r.scv.icn2_ca2);
        let base = AnalyticalModel::evaluate(&config).unwrap();
        assert!(r.latency.mean_message_latency_us <= base.latency.mean_message_latency_us);
    }

    #[test]
    fn heavy_overload_evaluates_like_base_solver() {
        // lambda 100x the figure-scale rate: deep saturation. The base
        // solver survives this via its near-saturation back-off guard;
        // the QNA path must too (regression: it used to return
        // SolverFailed when bisection landed a hair inside the unstable
        // clamp region).
        let config = cfg(Scenario::Case1, 256, Architecture::Blocking).with_lambda(2.5e-2);
        let r = evaluate(&config).unwrap();
        let base = crate::solver::solve(&config).unwrap();
        assert!(r.lambda_eff > 0.0 && r.lambda_eff < config.lambda_per_us);
        assert!(r.latency.mean_message_latency_us.is_finite());
        // Both paths throttle to the same saturation-bound rate within
        // a loose factor (GI/G/1 vs M/M/1 queue lengths differ).
        let rel = (r.lambda_eff - base.lambda_eff).abs() / base.lambda_eff;
        assert!(rel < 0.5, "qna {} vs base {}", r.lambda_eff, base.lambda_eff);
    }

    #[test]
    fn evaluates_across_the_paper_grid() {
        for scenario in [Scenario::Case1, Scenario::Case2] {
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                for c in [1usize, 4, 16, 256] {
                    let r = evaluate(&cfg(scenario, c, arch)).unwrap();
                    assert!(
                        r.latency.mean_message_latency_us.is_finite()
                            && r.latency.mean_message_latency_us > 0.0,
                        "{scenario:?} {arch:?} C={c}"
                    );
                }
            }
        }
    }
}
