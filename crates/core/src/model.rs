//! The one-call analytical-model facade.
//!
//! [`AnalyticalModel::evaluate`] runs the whole pipeline: service times
//! from the topology models (§5), traffic equations (eqs. 1–5), the
//! effective-rate fixed point (eqs. 6–7), and the latency composition
//! (eqs. 9, 15–16), returning a single [`PerformanceReport`]. It solves
//! the configuration as one lane of the batched kernel
//! ([`crate::kernel`]), the same path every grid evaluation takes.

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::kernel;
use crate::latency::LatencyReport;
use crate::service::ServiceTimes;
use crate::solver::Equilibrium;

/// The complete output of one analytical-model evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceReport {
    /// Per-tier mean service times (µs).
    pub service_times: ServiceTimes,
    /// The converged flow-blocking equilibrium.
    pub equilibrium: Equilibrium,
    /// The mean-latency report (the paper's primary metric).
    pub latency: LatencyReport,
    /// System throughput: delivered messages per µs, `N·λ_eff`.
    pub throughput_per_us: f64,
}

impl PerformanceReport {
    /// Assembles the report from a converged equilibrium; the service
    /// times are the ones its centres were solved with. The kernel
    /// builds every report here, and comparisons against the reference
    /// [`crate::solver::solve`] assemble its equilibrium here too, so
    /// both reports come from the same operations.
    pub fn from_equilibrium(config: &SystemConfig, equilibrium: Equilibrium) -> Self {
        PerformanceReport {
            service_times: ServiceTimes {
                icn1_us: equilibrium.icn1.service_time_us,
                ecn1_us: equilibrium.ecn1.service_time_us,
                icn2_us: equilibrium.icn2.service_time_us,
            },
            equilibrium,
            latency: LatencyReport::from_equilibrium(&equilibrium),
            throughput_per_us: config.total_nodes() as f64 * equilibrium.lambda_eff,
        }
    }
}

/// The analytical performance model (stateless facade).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticalModel;

impl AnalyticalModel {
    /// Evaluates the model for `config` as a one-lane kernel solve on
    /// this thread's arena.
    pub fn evaluate(config: &SystemConfig) -> Result<PerformanceReport, ModelError> {
        let lane = kernel::with_arena(|arena| arena.evaluate(std::slice::from_ref(config)).pop());
        lane.expect("one lane in, one result out").map(|(report, _)| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceTimeModel;
    use crate::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
    use hmcs_topology::transmission::Architecture;

    fn eval(
        scenario: Scenario,
        clusters: usize,
        arch: Architecture,
        bytes: u64,
    ) -> PerformanceReport {
        let cfg =
            SystemConfig::paper_preset(scenario, clusters, arch).unwrap().with_message_bytes(bytes);
        AnalyticalModel::evaluate(&cfg).unwrap()
    }

    #[test]
    fn evaluates_the_full_paper_grid() {
        for scenario in [Scenario::Case1, Scenario::Case2] {
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                for &c in &PAPER_CLUSTER_COUNTS {
                    for m in [512u64, 1024] {
                        let r = eval(scenario, c, arch, m);
                        assert!(
                            r.latency.mean_message_latency_us.is_finite()
                                && r.latency.mean_message_latency_us > 0.0,
                            "{scenario:?} {arch:?} C={c} M={m}"
                        );
                        assert!(r.throughput_per_us > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn larger_messages_cost_more() {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            let small = eval(Scenario::Case1, 16, arch, 512);
            let large = eval(Scenario::Case1, 16, arch, 1024);
            assert!(large.latency.mean_message_latency_us > small.latency.mean_message_latency_us);
        }
    }

    #[test]
    fn blocking_figures_sit_far_above_nonblocking() {
        // Figures 6-7 vs 4-5: the blocking curves are an order of
        // magnitude above the non-blocking ones at large C.
        let nb = eval(Scenario::Case1, 64, Architecture::NonBlocking, 1024);
        let bl = eval(Scenario::Case1, 64, Architecture::Blocking, 1024);
        let ratio = bl.latency.mean_message_latency_us / nb.latency.mean_message_latency_us;
        assert!(ratio > 1.4, "paper reports 1.4x-3.1x or more; got {ratio}");
    }

    #[test]
    fn throughput_equals_population_times_effective_rate() {
        let cfg =
            SystemConfig::paper_preset(Scenario::Case2, 8, Architecture::NonBlocking).unwrap();
        let r = AnalyticalModel::evaluate(&cfg).unwrap();
        assert!((r.throughput_per_us - 256.0 * r.equilibrium.lambda_eff).abs() < 1e-15);
    }

    #[test]
    fn service_model_ordering_det_le_exp_le_hyper() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
        let w = |m: ServiceTimeModel| {
            AnalyticalModel::evaluate(&base.with_service_model(m))
                .unwrap()
                .latency
                .mean_message_latency_us
        };
        let det = w(ServiceTimeModel::Deterministic);
        let erl = w(ServiceTimeModel::Erlang(4));
        let exp = w(ServiceTimeModel::Exponential);
        let hyp = w(ServiceTimeModel::HyperExponential(4.0));
        assert!(det < erl && erl < exp && exp < hyp);
    }

    #[test]
    fn latency_grows_with_lambda() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 32, Architecture::NonBlocking).unwrap();
        let mut prev = 0.0;
        for lam in [1e-6, 1e-5, 1e-4, 2.5e-4] {
            let r = AnalyticalModel::evaluate(&base.with_lambda(lam)).unwrap();
            assert!(
                r.latency.mean_message_latency_us >= prev,
                "latency must grow with offered load"
            );
            prev = r.latency.mean_message_latency_us;
        }
    }

    #[test]
    fn zero_load_limit_equals_raw_transmission_mix() {
        // As lambda -> 0 the sojourns collapse to the service times.
        let cfg = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking)
            .unwrap()
            .with_lambda(1e-12);
        let r = AnalyticalModel::evaluate(&cfg).unwrap();
        let p = r.latency.external_probability;
        let raw = (1.0 - p) * r.service_times.icn1_us
            + p * (r.service_times.icn2_us + 2.0 * r.service_times.ecn1_us);
        let diff = (r.latency.mean_message_latency_us - raw).abs() / raw;
        assert!(diff < 1e-6, "zero-load latency should equal raw mix, diff {diff}");
    }
}
