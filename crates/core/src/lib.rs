//! # hmcs-core
//!
//! The analytical performance model of *Performance Analysis of
//! Heterogeneous Multi-Cluster Systems* (Javadi, Akbari & Abawajy,
//! ICPPW 2005) — the paper's primary contribution — implemented as a
//! library.
//!
//! ## The model in one paragraph
//!
//! A Heterogeneous Multi-Stage Clustered Structure (HMSCS) has `C`
//! clusters of `N₀` processors. Every processor generates messages in a
//! Poisson stream of rate λ; destinations are uniform over all other
//! nodes, so a message leaves its cluster with probability
//! `P = (C−1)·N₀/(C·N₀−1)` (eq. 8). Each communication network — the
//! per-cluster ICN1 and ECN1 and the global ICN2 — is an M/M/1 service
//! centre whose mean service time comes from the interconnect model of
//! `hmcs-topology` (fat-tree, eq. 11, or blocking linear array, eq. 21).
//! The traffic equations (eqs. 1–5) give each centre's arrival rate;
//! because waiting processors stop generating, the offered rate is
//! solved from the fixed point `λ_eff = λ·(N−L)/N` (eqs. 6–7). The mean
//! message latency is `T_W = (1−P)·W_I1 + P·(W_I2 + 2·W_E1)` with
//! `W = 1/(µ−λ)` per centre (eqs. 15–16).
//!
//! ## Modules
//!
//! * [`config`] — system configuration and validation.
//! * [`scenario`] — Table 1 scenarios (Case 1 / Case 2) and Table 2
//!   constants.
//! * [`routing`] — the external-request probability (eq. 8) and the
//!   locality extension.
//! * [`rates`] — the traffic equations (eqs. 1–5).
//! * [`service`] — per-centre service times from the topology models.
//! * [`solver`] — the effective-rate fixed point (eqs. 6–7): the one
//!   bisection that the paper's model, QNA and Cluster-of-Clusters all
//!   solve through.
//! * [`kernel`] — the batched structure-of-arrays fixed-point kernel
//!   advancing whole sweeps in lockstep, bit-identical to the scalar
//!   solver.
//! * [`sensitivity`] — central finite-difference derivatives of the
//!   mean latency with respect to λ, message size and population.
//! * [`latency`] — latency composition (eqs. 9, 15–16).
//! * [`identify`] — the inverse of the paper's setup: partition a
//!   measured latency matrix into logical clusters by a latency-gap
//!   threshold and fit `(C, N₀, effective technologies)` with a
//!   non-HMCS residual report.
//! * [`model`] — the one-call facade: [`model::AnalyticalModel`].
//! * [`cluster_of_clusters`] — the heterogeneous-processor
//!   generalisation the paper lists as future work.
//! * [`qna`] — a QNA-style refinement that propagates arrival-process
//!   variability (relaxing assumption 2).
//! * [`sweep`] — parameter sweeps (the figures' x-axes).
//! * [`optimize`] — the inverse problem: design-space enumeration to a
//!   Pareto frontier of latency vs. cost under SLO/budget/saturation
//!   constraints, with binding-constraint diagnostics.
//! * [`metrics`] — process-global counters/histograms recording solver,
//!   QNA and batch-pool behaviour (the observability layer).
//! * [`json`] — the shared hand-rolled JSON writer/parser (the
//!   workspace builds offline with no serde), used by the run
//!   manifests and the `hmcs-serve` daemon.
//!
//! ## Example
//!
//! ```
//! use hmcs_core::model::AnalyticalModel;
//! use hmcs_core::scenario::Scenario;
//! use hmcs_core::config::SystemConfig;
//! use hmcs_topology::transmission::Architecture;
//!
//! // Case-1 system, 8 clusters x 32 nodes, 1 KiB messages, fat-tree.
//! let cfg = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking)
//!     .unwrap();
//! let report = AnalyticalModel::evaluate(&cfg).unwrap();
//! assert!(report.latency.mean_message_latency_us > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cluster_of_clusters;
pub mod config;
pub mod error;
pub mod identify;
pub mod json;
pub mod kernel;
pub mod latency;
pub mod metrics;
pub mod model;
pub mod optimize;
pub mod qna;
pub mod rates;
pub mod routing;
pub mod scenario;
pub mod sensitivity;
pub mod service;
pub mod solver;
pub mod sweep;

pub use config::SystemConfig;
pub use error::ModelError;
pub use model::{AnalyticalModel, PerformanceReport};
pub use scenario::Scenario;
