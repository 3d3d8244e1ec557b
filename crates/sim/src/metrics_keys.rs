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
/// Counter: shard simulations completed by the sharded driver.
pub const SHARD_RUNS: &str = "sim.shard.shards";
/// Counter: background ICN2 jobs absorbed (cross-shard load in).
pub const SHARD_BOUNDARY_IN: &str = "sim.shard.boundary_in";
/// Counter: local external messages that crossed the ICN2 (load out).
pub const SHARD_BOUNDARY_OUT: &str = "sim.shard.boundary_out";
/// Histogram: per-shard wall-clock (busy) time (µs).
pub const SHARD_BUSY_US: &str = "sim.shard.busy_us";
/// Histogram: per-pass worker idle wall-clock time (µs): pool threads ×
/// pass wall time, less the summed per-shard busy time.
pub const SHARD_IDLE_US: &str = "sim.shard.idle_us";
