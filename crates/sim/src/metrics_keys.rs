//! Metric names the simulators record into the process-global
//! [`hmcs_core::metrics`] registry. The DES kernel (`hmcs-des`) stays
//! free of `hmcs-core` by design, so this crate bridges the engine's
//! local counters (events processed/scheduled, future-event-list peak)
//! into the shared registry after each run.

/// Counter: replication batches started.
pub const REPLICATION_BATCHES: &str = "sim.replication.batches";
/// Counter: individual replications completed.
pub const REPLICATION_RUNS: &str = "sim.replication.runs";
/// Histogram: per-replication wall-clock time (µs).
pub const REPLICATION_WALL_US: &str = "sim.replication.wall_us";
/// Counter: DES events processed by flow-level runs.
pub const FLOW_EVENTS: &str = "sim.flow.events_processed";
/// Histogram: future-event-list high-water mark per flow-level run.
pub const FLOW_PEAK_PENDING: &str = "sim.flow.peak_pending";
/// Counter: DES events processed by packet-level runs.
pub const PACKET_EVENTS: &str = "sim.packet.events_processed";
/// Histogram: future-event-list high-water mark per packet-level run.
pub const PACKET_PEAK_PENDING: &str = "sim.packet.peak_pending";
