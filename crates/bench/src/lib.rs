//! # hmcs-bench
//!
//! The experiment harness that regenerates **every table and figure**
//! of *Performance Analysis of Heterogeneous Multi-Cluster Systems*
//! (ICPPW 2005), plus the reproduction's ablation studies.
//!
//! * [`experiments`] — one runner per paper artefact: Table 1, Table 2,
//!   Figures 4–7, the §6 blocking/non-blocking ratio claim, and the
//!   `ablation-*` studies described in DESIGN.md.
//! * [`report`] — plain-text table rendering and CSV export.
//! * [`manifest`] — machine-readable run manifests written next to the
//!   CSVs (provenance, λ-unit mode, solver histograms, metrics
//!   snapshot), plus the JSON schema validator.
//! * [`golden`] — tolerance-aware CSV differ driven by
//!   `results/GOLDEN.toml`, the regression gate behind
//!   `reproduce check`.
//! * [`claims`] — the machine-readable registry of the paper's shape
//!   claims (dips, V-minima, orderings, symmetries), evaluated against
//!   generated artefacts.
//! * [`differential`] — seeded model-vs-simulation fuzzing with greedy
//!   shrinking of any disagreement to a minimal regression test.
//! * [`identfuzz`] — seeded round-trip fuzzing of the latency-matrix
//!   cluster-identification pass (generate → identify must recover the
//!   planted partition), with the same shrink-to-regression-test flow.
//! * [`topology`] — the latency-matrix pipeline artefact: generate →
//!   identify → fit → analytic vs flow-simulation agreement at
//!   10k nodes.
//!
//! The `reproduce` binary drives everything:
//!
//! ```text
//! cargo run --release -p hmcs-bench --bin reproduce -- fig4
//! cargo run --release -p hmcs-bench --bin reproduce -- all --csv out/
//! cargo run --release -p hmcs-bench --bin reproduce -- check out/
//! cargo run --release -p hmcs-bench --bin reproduce -- fuzz --cases 25
//! ```
//!
//! The three Criterion benches CI gates on live in `benches/`:
//! `batch_sweep`, `simulators` and `kernel_grid`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod differential;
pub mod experiments;
pub mod golden;
pub mod identfuzz;
pub mod manifest;
pub mod report;
pub mod simcache;
pub mod topology;
