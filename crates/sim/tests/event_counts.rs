//! Exact event counts of one fixed flow run and one fixed packet run.
//!
//! An event-list change that keeps every output bit for bit must also
//! keep the work the engine does: these pins show a faster simulator
//! pays less per event, not fewer events. Each count is read from the
//! instance that ran, never from the process-global metrics registry,
//! so tests running in parallel cannot disturb it.

use hmcs_core::config::SystemConfig;
use hmcs_core::scenario::Scenario;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::FlowSimInstance;
use hmcs_sim::packet::PacketSimInstance;
use hmcs_topology::transmission::Architecture;

#[test]
fn a_fixed_flow_run_processes_a_pinned_number_of_events() {
    // 8 × 32 Case 1 at the paper's λ, 2,200 delivered messages.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
    let cfg = SimConfig::new(sys).with_messages(2_000).with_warmup(200).with_seed(2005);
    let mut instance = FlowSimInstance::new(&cfg).unwrap();
    assert_eq!(instance.events_processed(), 0, "no run yet");
    instance.run(cfg.seed);
    assert_eq!(instance.events_processed(), FLOW_EVENTS);
    // The count is the last run's, not a running total.
    instance.run(cfg.seed);
    assert_eq!(instance.events_processed(), FLOW_EVENTS);
}

#[test]
fn a_fixed_packet_run_processes_a_pinned_number_of_events() {
    // 4 × 64 Case 1 blocking fabric at the paper's λ, 1,100 messages.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::Blocking).unwrap();
    let cfg = SimConfig::new(sys).with_messages(1_000).with_warmup(100).with_seed(2005);
    let mut instance = PacketSimInstance::new(&cfg).unwrap();
    assert_eq!(instance.events_processed(), 0, "no run yet");
    instance.run(cfg.seed);
    assert_eq!(instance.events_processed(), PACKET_EVENTS);
    instance.run(cfg.seed);
    assert_eq!(instance.events_processed(), PACKET_EVENTS);
}

/// Events of the fixed flow run, the same under the earlier indexed
/// (payload-slab) event heap.
const FLOW_EVENTS: u64 = 8_649;
/// Events of the fixed packet run, likewise unchanged.
const PACKET_EVENTS: u64 = 8_926;
