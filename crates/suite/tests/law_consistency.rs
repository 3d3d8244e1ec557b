//! Cross-module consistency between the exact oracles and the
//! production queueing formulas: classical identities computed along two
//! different code paths that must agree.

use hmcs_queueing::gg1::{Approximation, GG1};
use hmcs_queueing::mg1::{ServiceDistribution, MG1};
use hmcs_queueing::operational;
use hmcs_suite::jackson::{JacksonNetwork, Station};
use hmcs_suite::mm1::MM1;

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

/// The GI/G/1 ladder at Poisson arrivals and the M/G/1 formula at
/// exponential service both reproduce the M/M/1 queueing time.
#[test]
fn three_ways_to_the_same_mm1() {
    let (lambda, mu) = (0.65, 1.0);
    let mm1 = MM1::new(lambda, mu).unwrap();
    let mg1 = MG1::new(lambda, ServiceDistribution::Exponential(1.0)).unwrap();
    let gg1 = GG1::new(lambda, 1.0, ServiceDistribution::Exponential(1.0)).unwrap();
    assert!((mg1.mean_waiting_time() - mm1.mean_waiting_time()).abs() < 1e-12);
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
