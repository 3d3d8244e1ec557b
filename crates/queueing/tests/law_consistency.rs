//! Cross-module consistency: classical identities that tie the
//! independent implementations in this crate together. Each test uses
//! two different code paths to compute the same quantity.

use hmcs_queueing::closed::{mva, MachineRepairman, MvaStation};
use hmcs_queueing::gg1::{Approximation, GG1};
use hmcs_queueing::jackson::{JacksonNetwork, Station};
use hmcs_queueing::mg1::ServiceDistribution;
use hmcs_queueing::mm1::MM1;
use hmcs_queueing::mmc::MMc;
use hmcs_queueing::operational;

/// Burke's theorem consequence: a two-stage M/M/1 tandem has end-to-end
/// time equal to the sum of independent M/M/1 sojourns — the Jackson
/// solver and the direct M/M/1 formulas must agree.
#[test]
fn burke_tandem_identity() {
    let (lambda, mu1, mu2) = (0.4, 1.0, 0.7);
    let net = JacksonNetwork::new(
        vec![Station::single(mu1, lambda), Station::single(mu2, 0.0)],
        vec![vec![0.0, 1.0], vec![0.0, 0.0]],
    )
    .unwrap();
    let jackson = net.solve().unwrap().mean_time_in_network();
    let direct = MM1::new(lambda, mu1).unwrap().mean_sojourn_time()
        + MM1::new(lambda, mu2).unwrap().mean_sojourn_time();
    assert!((jackson - direct).abs() < 1e-12);
}

/// The repairman's utilization obeys the utilization law with its own
/// throughput: U = X·S.
#[test]
fn repairman_satisfies_utilization_law() {
    let m = MachineRepairman::new(30, 0.05, 1.0).unwrap().solve();
    let u = operational::utilization(m.throughput, 1.0);
    assert!((u - m.utilization).abs() < 1e-12);
}

/// MVA cycle time satisfies the interactive response time law exactly.
#[test]
fn mva_satisfies_interactive_law() {
    let z = 25.0;
    let stations = [
        MvaStation::Delay { demand: z },
        MvaStation::Queueing { demand: 3.0 },
        MvaStation::Queueing { demand: 1.5 },
    ];
    for n in [1u32, 4, 16, 64] {
        let sol = mva(&stations, n).unwrap();
        let r_from_law =
            operational::interactive_response_time(n as f64, sol.throughput, z).unwrap();
        let r_from_mva: f64 = sol.residence_times[1..].iter().sum();
        assert!(
            (r_from_law - r_from_mva).abs() < 1e-9,
            "n={n}: law {r_from_law} vs MVA {r_from_mva}"
        );
    }
}

/// Erlang C at c=1 equals the M/M/1 busy probability, and the GG1
/// Poisson/exponential case matches both queueing-time ladders.
#[test]
fn three_ways_to_the_same_mm1() {
    let (lambda, mu) = (0.65, 1.0);
    let mm1 = MM1::new(lambda, mu).unwrap();
    let mmc = MMc::new(lambda, mu, 1).unwrap();
    let gg1 = GG1::new(lambda, 1.0, ServiceDistribution::Exponential(1.0)).unwrap();
    assert!((mmc.erlang_c() - mm1.prob_wait()).abs() < 1e-12);
    assert!((mmc.mean_waiting_time() - mm1.mean_waiting_time()).abs() < 1e-12);
    assert!((gg1.mean_waiting_time(Approximation::KLB) - mm1.mean_waiting_time()).abs() < 1e-12);
}

/// Little's law chains through a Jackson network: the sum of station
/// occupancies equals external rate times mean network time.
#[test]
fn network_wide_littles_law() {
    let net = JacksonNetwork::new(
        vec![Station::single(2.0, 0.5), Station::single(1.5, 0.2), Station::single(3.0, 0.0)],
        vec![vec![0.0, 0.3, 0.4], vec![0.0, 0.0, 0.5], vec![0.0, 0.0, 0.0]],
    )
    .unwrap();
    let sol = net.solve().unwrap();
    let l = sol.mean_number_in_network();
    let w = sol.mean_time_in_network();
    let lambda_total = 0.7;
    assert!((l - operational::number_in_system(lambda_total, w)).abs() < 1e-12);
}
