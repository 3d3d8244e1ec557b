//! Heap allocations of reused simulator runs and of a fresh build,
//! counted exactly.
//!
//! A reused `FlowSimInstance` or `PacketSimInstance` keeps its event
//! list, server deques and message table warm, so a run that stays
//! within the storage an earlier run grew allocates only the result it
//! returns, whatever its message count. The counting allocator keeps
//! each thread's count apart and counts only while that thread asks,
//! so tests running in parallel cannot land in each other's counts.

use hmcs_core::config::SystemConfig;
use hmcs_core::scenario::Scenario;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::{FlowSimInstance, HopDelays};
use hmcs_sim::packet::PacketSimInstance;
use hmcs_topology::latmatrix::{LatencyBand, SyntheticSpec};
use hmcs_topology::transmission::Architecture;

mod counting_alloc;
use counting_alloc::allocations;

/// Allocations of an instance's run of `seed`.
fn run(instance: &mut FlowSimInstance<'_>, seed: u64) -> u64 {
    allocations(|| {
        instance.run(seed);
    })
}

#[test]
fn a_reused_flow_run_allocates_only_its_result() {
    // 8 × 32 Case 1 at the paper's λ, 11,000 delivered messages.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
    let cfg = SimConfig::new(sys).with_messages(10_000).with_warmup(1_000).with_seed(2005);
    let mut instance = FlowSimInstance::new(&cfg).unwrap();
    run(&mut instance, cfg.seed);
    // Replaying the warm-up seed follows the same sample path within
    // the same storage: the one allocation is the result's per-cluster
    // utilization vector.
    let plain = run(&mut instance, cfg.seed);
    assert_eq!(plain, 1, "a replayed flow run's allocations");
    // A new seed's run outgrows the warm-up's high-water marks twice.
    assert_eq!(run(&mut instance, cfg.seed + 1), 3, "a new seed's flow run's allocations");

    // The replay modulated by a two-level matrix allocates no more:
    // each message's offset lives in the warm message table.
    let intra = LatencyBand::new(50.0, 4.0).unwrap();
    let inter = LatencyBand::new(400.0, 30.0).unwrap();
    let matrix = SyntheticSpec::uniform(8, 32, intra, inter, 5).source().unwrap();
    let partition = matrix.partition();
    let hops = HopDelays {
        source: &matrix,
        intra_centre_us: 50.0,
        inter_centre_us: 400.0,
        partition: &partition,
    };
    let mut instance = FlowSimInstance::with_hops(&cfg, hops).unwrap();
    run(&mut instance, cfg.seed);
    let modulated = run(&mut instance, cfg.seed);
    assert!(modulated <= plain, "modulated run allocates {modulated}, plain {plain}");
}

#[test]
fn a_reused_packet_run_allocates_only_its_result() {
    // 4 × 64 Case 1 blocking fabric at the paper's λ, 1,100 messages.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::Blocking).unwrap();
    let cfg = SimConfig::new(sys).with_messages(1_000).with_warmup(100).with_seed(2005);
    let mut instance = PacketSimInstance::new(&cfg).unwrap();
    allocations(|| {
        instance.run(cfg.seed);
    });
    let replay = allocations(|| {
        instance.run(cfg.seed);
    });
    assert_eq!(replay, PACKET_REPLAY, "a replayed packet run's allocations");
}

#[test]
fn a_fresh_flow_build_allocates_no_more_than_the_indexed_heap_did() {
    // The flat event list is one pre-sized array; the indexed heap it
    // replaced also pre-sized a payload slab beside it.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
    let cfg = SimConfig::new(sys).with_messages(10_000).with_warmup(1_000).with_seed(2005);
    let build = allocations(|| {
        FlowSimInstance::new(&cfg).unwrap();
    });
    assert!(build <= FLOW_BUILD_BEFORE, "a fresh flow build makes {build} allocations");
}

/// Allocations of the replayed packet run: none, since a packet result
/// carries no per-cluster vector.
const PACKET_REPLAY: u64 = 0;
/// Allocations of a fresh flow build under the indexed event heap (the
/// flat heap makes 12).
const FLOW_BUILD_BEFORE: u64 = 13;
