//! Cross-module consistency: classical identities that tie the
//! independent implementations in this crate together. Each test uses
//! two different code paths to compute the same quantity.

use hmcs_queueing::closed::{mva, MachineRepairman, MvaStation};
use hmcs_queueing::operational;

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
