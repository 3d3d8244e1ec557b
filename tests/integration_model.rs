//! Cross-crate integration tests: the analytical model's closed forms
//! against the exact queueing oracles it specialises.

use hmcs_core::config::SystemConfig;
use hmcs_core::model::AnalyticalModel;
use hmcs_core::rates::TrafficRates;
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_core::service::ServiceTimes;
use hmcs_suite::jackson::{JacksonNetwork, Station};
use hmcs_suite::mm1::MM1;
use hmcs_topology::transmission::Architecture;

/// The paper's latency composition (eq. 15) must equal an explicit
/// Jackson-network path computation over the same centres at the same
/// converged rates.
#[test]
fn eq15_equals_explicit_jackson_path_latency() {
    for clusters in [2usize, 8, 64] {
        let cfg = SystemConfig::paper_preset(Scenario::Case1, clusters, Architecture::NonBlocking)
            .unwrap();
        let report = AnalyticalModel::evaluate(&cfg).unwrap();
        let eq = &report.equilibrium;
        let st = &report.service_times;

        // Build the explicit 3-station network at the converged rates.
        let (mu1, mu_e, mu2) = st.rates();
        let net = JacksonNetwork::new(
            vec![
                Station::single(mu1, eq.rates.icn1),
                Station::single(mu_e, eq.rates.ecn1_total),
                Station::single(mu2, eq.rates.icn2),
            ],
            vec![vec![0.0; 3], vec![0.0; 3], vec![0.0; 3]],
        )
        .unwrap();
        let sol = net.solve().unwrap();
        let p = eq.rates.external_probability;
        let explicit =
            sol.mixed_path_latency(&[(1.0 - p, &[0usize][..]), (p, &[1usize, 2, 1][..])]);
        let rel = (explicit - report.latency.mean_message_latency_us).abs()
            / report.latency.mean_message_latency_us;
        assert!(
            rel < 1e-9,
            "C={clusters}: eq.15 {} vs Jackson {explicit}",
            report.latency.mean_message_latency_us
        );
    }
}

/// The traffic equations (eqs. 1–5) must equal the general Jackson
/// traffic equations. One cluster's centres plus ICN2 form an explicit
/// network (forward and feedback ECN1 passes as separate stations),
/// mirroring Figure 2 of the paper.
#[test]
fn jackson_network_reproduces_the_closed_forms() {
    let config = SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::NonBlocking).unwrap(); // C=4, N0=64
    let lam = 1e-4;
    let r = TrafficRates::compute(&config, lam);
    let p = r.external_probability;
    let n0 = config.nodes_per_cluster as f64;
    let c = config.clusters as f64;
    // Stations: [ICN1, ECN1_fwd, ICN2, ECN1_fb]. ICN2 receives the
    // forward traffic of ALL clusters; model the other clusters'
    // contribution as external arrivals at ICN2. Feedback returns
    // only this cluster's share (1/C).
    let net = JacksonNetwork::new(
        vec![
            Station::single(1.0, n0 * (1.0 - p) * lam),
            Station::single(1.0, n0 * p * lam),
            Station::single(1.0, (c - 1.0) * n0 * p * lam),
            Station::single(1.0, 0.0),
        ],
        vec![
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0 / c],
            vec![0.0, 0.0, 0.0, 0.0],
        ],
    )
    .unwrap();
    let rates = net.traffic_rates().unwrap();
    assert!((rates[0] - r.icn1).abs() < 1e-15, "ICN1");
    assert!((rates[1] - r.ecn1_forward).abs() < 1e-15, "ECN1 forward");
    assert!((rates[2] - r.icn2).abs() < 1e-15, "ICN2");
    assert!((rates[3] - r.ecn1_feedback).abs() < 1e-15, "ECN1 feedback");
}

/// Per-centre sojourn times must equal 1/(µ−λ) (eq. 16) at the
/// converged rates under exponential service.
#[test]
fn eq16_sojourns_match_mm1_closed_forms() {
    let cfg = SystemConfig::paper_preset(Scenario::Case2, 16, Architecture::Blocking).unwrap();
    let report = AnalyticalModel::evaluate(&cfg).unwrap();
    let st = report.service_times;
    let eq = report.equilibrium;
    for (arrival, mean_service, sojourn) in [
        (eq.rates.icn1, st.icn1_us, eq.icn1.sojourn_us),
        (eq.rates.ecn1_total, st.ecn1_us, eq.ecn1.sojourn_us),
        (eq.rates.icn2, st.icn2_us, eq.icn2.sojourn_us),
    ] {
        let q = MM1::new(arrival, 1.0 / mean_service).unwrap();
        assert!((q.mean_sojourn_time() - sojourn).abs() < 1e-9);
    }
}

/// The traffic equations must conserve flow at every grid point and
/// both architectures.
#[test]
fn traffic_conservation_across_the_grid() {
    for scenario in [Scenario::Case1, Scenario::Case2] {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &c in &PAPER_CLUSTER_COUNTS {
                let cfg = SystemConfig::paper_preset(scenario, c, arch).unwrap();
                let eq = AnalyticalModel::evaluate(&cfg).unwrap().equilibrium;
                let rates = TrafficRates::compute(&cfg, eq.lambda_eff);
                assert!(rates.generation_rate_residual(&cfg) < 1e-10);
                // ECN1 forward equals feedback (eqs. 2 and 4).
                assert!((rates.ecn1_forward - rates.ecn1_feedback).abs() < 1e-15);
            }
        }
    }
}

/// The C = 16 kink: the paper attributes the latency inflection to all
/// networks collapsing to a single switch. Verify the latency curve's
/// slope changes there for the non-blocking Case-1 system.
#[test]
fn c16_kink_is_visible_in_the_latency_curve() {
    let lat = |c: usize| {
        let cfg =
            SystemConfig::paper_preset(Scenario::Case1, c, Architecture::NonBlocking).unwrap();
        AnalyticalModel::evaluate(&cfg).unwrap().latency.mean_message_latency_ms()
    };
    // Between C=16 and C=32 the ICN2 crosses the single-switch
    // boundary (32 > Pr = 24): the latency jump from 16 to 32 must be
    // larger than the jump from 8 to 16.
    let jump_8_16 = lat(16) - lat(8);
    let jump_16_32 = lat(32) - lat(16);
    assert!(jump_16_32 > jump_8_16, "kink missing: 8->16 {jump_8_16}, 16->32 {jump_16_32}");
}

/// Service times must be consistent between the model facade and a
/// direct ServiceTimes computation (same config, same numbers).
#[test]
fn facade_and_direct_service_times_agree() {
    let cfg = SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::Blocking).unwrap();
    let direct = ServiceTimes::compute(&cfg).unwrap();
    let via_model = AnalyticalModel::evaluate(&cfg).unwrap().service_times;
    assert_eq!(direct, via_model);
}

/// Case symmetry: Case 1 at C=1 exercises only GE ICN1s; Case 2 at
/// C=256 routes everything through GE ECN1/ICN2. Their service-time
/// building blocks must match where the topology sizes coincide.
#[test]
fn case_symmetry_of_technology_assignment() {
    let c1 = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
    let c2 = SystemConfig::paper_preset(Scenario::Case2, 16, Architecture::NonBlocking).unwrap();
    let st1 = ServiceTimes::compute(&c1).unwrap();
    let st2 = ServiceTimes::compute(&c2).unwrap();
    // With C = N0 = 16 every tier is one switch, so the GE tier of one
    // case equals the GE tier of the other.
    assert!((st1.icn1_us - st2.ecn1_us).abs() < 1e-12);
    assert!((st2.icn1_us - st1.ecn1_us).abs() < 1e-12);
}
