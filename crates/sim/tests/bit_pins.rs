//! Bit pins of the flow and packet simulators' outputs.
//!
//! The committed `results/*.csv` exercise both simulators only with
//! blocked sources, uniform traffic, and quantiles and centre
//! statistics off. These pins cover the rest of the workload: every
//! traffic pattern with blocked and open sources, a Cluster-of-Clusters
//! run on unequal clusters, and the packet simulator on both
//! architectures, all with quantiles and centre statistics on.
//!
//! Each run pins, as `f64::to_bits` where the value is a float: the mean
//! latency, the throughput, p50 and p99, the internal and external
//! message counts, and (flow only) the ICN1, ECN1 and ICN2
//! utilizations. A refactor of the simulators' workload or service
//! centres must leave every pinned word unchanged.

use hmcs_core::cluster_of_clusters::{ClusterSpec, CocConfig};
use hmcs_core::config::{QueueAccounting, ServiceTimeModel, SystemConfig};
use hmcs_core::routing::TrafficPattern;
use hmcs_core::scenario::Scenario;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::FlowSimulator;
use hmcs_sim::packet::PacketSimulator;
use hmcs_sim::SimResult;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::Architecture;

/// The pinned words of one run; utilizations only when `utilizations`.
fn words(r: &SimResult, utilizations: bool) -> Vec<u64> {
    let q = r.quantiles.expect("quantiles are on");
    let mut got = vec![
        r.mean_latency_us.to_bits(),
        r.throughput_per_us.to_bits(),
        q.p50_us.to_bits(),
        q.p99_us.to_bits(),
        r.internal_latency.count(),
        r.external_latency.count(),
    ];
    if utilizations {
        got.extend([
            r.icn1.utilization.to_bits(),
            r.ecn1.utilization.to_bits(),
            r.icn2.utilization.to_bits(),
        ]);
    }
    got
}

fn assert_pinned(label: &str, got: &[u64], pinned: &[u64]) {
    let hex: Vec<String> = got.iter().map(|w| format!("{w:#x}")).collect();
    assert_eq!(got, pinned, "{label}: got [{}]", hex.join(", "));
}

const PATTERNS: [TrafficPattern; 3] = [
    TrafficPattern::Uniform,
    TrafficPattern::Localized { locality: 0.7 },
    TrafficPattern::Hotspot { node: 5, fraction: 0.3 },
];

/// Flow, 8 × 32 Case 1 fat-tree at λ = 1e-5 msg/µs: per pattern, the
/// blocked-source run then the open one.
const FLOW_PINNED: [[[u64; 9]; 2]; 3] = [
    [
        [
            0x40810595f5ee0ce8,
            0x3f6484b44447c01b,
            0x407e780ed1198ac5,
            0x409a093e7ee18aa8,
            0x17a,
            0xa3e,
            0x3f734b830e4ea475,
            0x3fb879abffa3cce1,
            0x3fd5f3f833bffff9,
        ],
        [
            0x4081964f017e5633,
            0x3f64a04ef8ebd282,
            0x407eef968dec345d,
            0x4099c69d9ff704de,
            0x16a,
            0xa4e,
            0x3f738652261afedb,
            0x3fb8b22b34979036,
            0x3fd5ef5937de634c,
        ],
    ],
    [
        [
            0x406da4508531960b,
            0x3f6496ec692d0399,
            0x40611fae46c9faba,
            0x409305c1b891d92e,
            0x88a,
            0x32e,
            0x3f9c085f2cd0191e,
            0x3f9e891aac5d351e,
            0x3fbcdce13bd6b180,
        ],
        [
            0x406e039edf608002,
            0x3f64a34ea5acc38d,
            0x40620ffeddd404b5,
            0x4092973dd74bf235,
            0x871,
            0x347,
            0x3f9d04c4b75491c8,
            0x3f9f348e7c401c6a,
            0x3fbb1cc04af24574,
        ],
    ],
    [
        [
            0x40810f6d5d7e98fa,
            0x3f6484194bd54846,
            0x407f279c04845f02,
            0x40989f2deb80f565,
            0x16d,
            0xa4b,
            0x3f725cb7c331457c,
            0x3fb8b182eeab8ce6,
            0x3fd5bf2cea2549f1,
        ],
        [
            0x408164477ab4acf0,
            0x3f64a2c23ff66829,
            0x407e9043a63dfd16,
            0x409cebd2d4dff536,
            0x182,
            0xa36,
            0x3f7417e2ee569f33,
            0x3fb8a54403abb54b,
            0x3fd5872bbb961528,
        ],
    ],
];

#[test]
fn flow_outputs_match_bit_pins_across_patterns_and_source_modes() {
    let sys = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking)
        .unwrap()
        .with_lambda(1e-5);
    for (pattern, pinned) in PATTERNS.into_iter().zip(FLOW_PINNED) {
        for (blocked, pinned) in [true, false].into_iter().zip(pinned) {
            let cfg = SimConfig::new(sys)
                .with_messages(3_000)
                .with_warmup(500)
                .with_seed(2005)
                .with_pattern(pattern)
                .with_blocked_sources(blocked);
            let r = FlowSimulator::run(&cfg).unwrap();
            assert_pinned(&format!("{pattern:?} blocked={blocked}"), &words(&r, true), &pinned);
        }
    }
}

/// Flow on a three-cluster federation of unequal size and technology
/// with localized traffic, so destinations are drawn from unequal
/// cluster ranges.
const COC_PINNED: [u64; 9] = [
    0x40706d4f260943ff,
    0x3f86a38a49a805a1,
    0x4055966d0259454f,
    0x40988bdde131c1de,
    0x7f1,
    0x3c7,
    0x3fc5571becd27dbf,
    0x3fd0835e8d5e6756,
    0x3fe147b2f04373c0,
];

#[test]
fn flow_coc_outputs_match_bit_pins() {
    let cluster = |nodes, icn1, ecn1| ClusterSpec { nodes, icn1, ecn1 };
    let coc = CocConfig {
        clusters: vec![
            cluster(24, NetworkTechnology::MYRINET, NetworkTechnology::GIGABIT_ETHERNET),
            cluster(16, NetworkTechnology::GIGABIT_ETHERNET, NetworkTechnology::GIGABIT_ETHERNET),
            cluster(8, NetworkTechnology::FAST_ETHERNET, NetworkTechnology::FAST_ETHERNET),
        ],
        icn2: NetworkTechnology::FAST_ETHERNET,
        switch: SwitchFabric::paper_default(),
        architecture: Architecture::NonBlocking,
        message_bytes: 1024,
        lambda_per_us: 2.5e-4,
        accounting: QueueAccounting::SingleQueue,
        service_model: ServiceTimeModel::Exponential,
    };
    let cfg = SimConfig::new(coc)
        .with_messages(3_000)
        .with_warmup(500)
        .with_seed(2005)
        .with_pattern(TrafficPattern::Localized { locality: 0.5 });
    let r = FlowSimulator::run(&cfg).unwrap();
    assert_pinned("coc", &words(&r, true), &COC_PINNED);
}

/// Packet, 4 × 64 Case 1 at the paper's λ: the fat-tree with hotspot
/// traffic, then the linear array with localized traffic.
const PACKET_PINNED: [[u64; 6]; 2] = [
    [0x40ce5270b5d994eb, 0x3f8af8c4590f2b5a, 0x40d5134884c035ab, 0x40d633a03088e47e, 0x197, 0x445],
    [0x409305d3e5333a02, 0x3fa79e22ecfa3ec5, 0x405e6faf2d59062c, 0x40c0a0a455c341fb, 0x4a8, 0x134],
];

#[test]
fn packet_outputs_match_bit_pins_on_both_architectures() {
    let runs = [(Architecture::NonBlocking, PATTERNS[2]), (Architecture::Blocking, PATTERNS[1])];
    for ((arch, pattern), pinned) in runs.into_iter().zip(PACKET_PINNED) {
        let sys = SystemConfig::paper_preset(Scenario::Case1, 4, arch).unwrap();
        let cfg = SimConfig::new(sys)
            .with_messages(1_500)
            .with_warmup(300)
            .with_seed(2005)
            .with_pattern(pattern);
        let r = PacketSimulator::run(&cfg).unwrap();
        assert_pinned(&format!("{arch:?} {pattern:?}"), &words(&r, false), &pinned);
    }
}
