//! The Cluster-of-Clusters generalisation (the paper's §7 future work)
//! on an LLNL-inspired four-cluster system: MCR-, ALC-, Thunder- and
//! PVC-like members with different sizes and interconnects, joined by a
//! Gigabit-Ethernet second stage.
//!
//! ```text
//! cargo run --release -p hmcs-suite --example cluster_of_clusters
//! ```

use hmcs_core::cluster_of_clusters::{evaluate, ClusterSpec, CocConfig};
use hmcs_core::config::{QueueAccounting, ServiceTimeModel};
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::FlowSimulator;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::Architecture;

fn main() {
    let names = ["MCR-like", "ALC-like", "Thunder-like", "PVC-like"];
    let cfg = CocConfig {
        clusters: vec![
            // A large capability cluster on Myrinet.
            ClusterSpec {
                nodes: 128,
                icn1: NetworkTechnology::MYRINET,
                ecn1: NetworkTechnology::GIGABIT_ETHERNET,
            },
            // A mid-size Linux cluster on GigE.
            ClusterSpec {
                nodes: 96,
                icn1: NetworkTechnology::GIGABIT_ETHERNET,
                ecn1: NetworkTechnology::GIGABIT_ETHERNET,
            },
            // A newer InfiniBand machine.
            ClusterSpec {
                nodes: 64,
                icn1: NetworkTechnology::INFINIBAND,
                ecn1: NetworkTechnology::GIGABIT_ETHERNET,
            },
            // A small visualization cluster on Fast Ethernet.
            ClusterSpec {
                nodes: 16,
                icn1: NetworkTechnology::FAST_ETHERNET,
                ecn1: NetworkTechnology::FAST_ETHERNET,
            },
        ],
        icn2: NetworkTechnology::GIGABIT_ETHERNET,
        switch: SwitchFabric::paper_default(),
        architecture: Architecture::NonBlocking,
        message_bytes: 1024,
        lambda_per_us: 2.5e-4,
        accounting: QueueAccounting::SingleQueue,
        service_model: ServiceTimeModel::Exponential,
    };

    let report = evaluate(&cfg).expect("CoC model evaluates");

    println!("Cluster-of-Clusters: {} nodes in {} clusters", cfg.total_nodes(), cfg.clusters.len());
    println!(
        "Effective rate: {:.3e} msg/µs per node; {:.1} processors waiting on average\n",
        report.lambda_eff, report.total_waiting
    );
    println!(
        "{:<14} {:>6} {:>18} {:>8} {:>14} {:>14}",
        "cluster", "nodes", "ICN1 tech", "P_i", "W_ICN1 (µs)", "W_ECN1 (µs)"
    );
    for ((spec, state), name) in cfg.clusters.iter().zip(&report.clusters).zip(names) {
        println!(
            "{:<14} {:>6} {:>18} {:>8.3} {:>14.1} {:>14.1}",
            name,
            spec.nodes,
            spec.icn1.name,
            state.external_probability,
            state.icn1_sojourn_us,
            state.ecn1_sojourn_us
        );
    }
    println!(
        "\nICN2 sojourn: {:.1} µs at {:.1}% utilization",
        report.icn2_sojourn_us,
        report.icn2_utilization * 100.0
    );
    println!(
        "Mean message latency across the federation: {:.3} ms",
        report.mean_message_latency_us / 1e3
    );
    println!("\nNote how the small Fast-Ethernet cluster suffers the slowest intra-cluster");
    println!("sojourn while the big Myrinet cluster sees most of its traffic leave home");
    println!("(high P_i): heterogeneity shifts the bottleneck to the shared second stage.");

    // Validate the future-work model against the flow-level simulator.
    let sim = FlowSimulator::run(
        &SimConfig::new(cfg).with_messages(10_000).with_warmup(2_000).with_seed(7),
    )
    .expect("CoC simulation runs");
    let err = (report.mean_message_latency_us - sim.mean_latency_us).abs() / sim.mean_latency_us;
    println!(
        "\nSimulated: {:.3} ms over {} messages — the generalised model is off by {:.1}%.",
        sim.mean_latency_ms(),
        sim.messages,
        err * 100.0
    );
}
