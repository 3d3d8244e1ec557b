//! # hmcs-sim
//!
//! Discrete-event simulators for heterogeneous multi-cluster systems —
//! the "set of simulators" the paper uses to validate its analytical
//! model (§6).
//!
//! Two fidelity levels are provided, both driven by the *same*
//! [`hmcs_core::config::SystemConfig`] the analytical model consumes
//! and the *same* workload: the private `source` module generates the
//! paper's messages (exponential think times, destinations by traffic
//! pattern, blocked or open sources) and the private `sink` module
//! collects their latencies. The simulators differ only in how they
//! model the networks:
//!
//! * [`flow`] — a **flow-level** simulator that mirrors the queueing
//!   abstraction: each network tier is one FCFS server
//!   ([`hmcs_des::queue::FcfsServer`]); service times
//!   are drawn from the configured distribution with the topology-model
//!   mean. This is the direct counterpart of the paper's own simulator:
//!   exponential inter-arrival times, uniform destinations, sources that
//!   block until delivery (assumption 4), time-stamped messages and a
//!   sink module, 10,000 messages per run.
//! * [`packet`] — a **packet-level** simulator that walks each message
//!   hop-by-hop through the explicitly constructed switch fabrics
//!   (fat-tree pods / linear-array switches) with store-and-forward
//!   contention at every switch (each pod an `FcfsServer` with one
//!   server per member switch). It contains none of the model's
//!   queueing approximations, making it the stronger referee.
//!
//! [`flow`] also runs heterogeneous Cluster-of-Clusters systems (the
//! paper's §7 future work): given a
//! [`hmcs_core::cluster_of_clusters::CocConfig`] as the system, it is
//! the same model on clusters of unequal size and technology.
//! [`replication`] runs independent replications with confidence
//! intervals on the shared bounded worker pool ([`hmcs_core::batch`]):
//! seeds are fixed by replication index, each worker reuses one
//! simulator instance across the replications it claims, and the
//! summary is identical for any worker count.
//!
//! [`flow`] also consumes a measured latency matrix
//! ([`flow::HopDelays`]): each message's service mean is shifted by its
//! node pair's residual against the fitted two-level bands, so the
//! whole 10k–100k-node system identified from the matrix runs as one
//! simulation ([`replication::run_modulated_replications`]).
//!
//! ```
//! use hmcs_core::config::SystemConfig;
//! use hmcs_core::scenario::Scenario;
//! use hmcs_topology::transmission::Architecture;
//! use hmcs_sim::config::SimConfig;
//! use hmcs_sim::flow::FlowSimulator;
//!
//! let system = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking)
//!     .unwrap();
//! let sim = SimConfig::new(system).with_messages(2_000).with_seed(7);
//! let result = FlowSimulator::run(&sim).unwrap();
//! assert!(result.mean_latency_us > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flow;
pub mod metrics_keys;
#[cfg(test)]
mod multiserver;
pub mod packet;
pub mod replication;
pub mod result;
mod sink;
mod source;

pub use config::SimConfig;
pub use result::SimResult;
