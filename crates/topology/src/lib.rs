//! # hmcs-topology
//!
//! Interconnect-topology models for cluster systems, implementing §5 of
//! *Performance Analysis of Heterogeneous Multi-Cluster Systems*
//! (Javadi, Akbari & Abawajy, ICPPW 2005):
//!
//! * [`technology`] — link technologies (latency α, bandwidth 1/β) with
//!   the paper's Gigabit-Ethernet / Fast-Ethernet presets (Table 2).
//! * [`switch`] — the `Pr`-port switch-fabric building block.
//! * [`fat_tree`] — the non-blocking Multi-Stage Fat-Tree (§5.2):
//!   stage count (eq. 12), switch count (eq. 13 / Proposition 1) and
//!   up/down hop counts.
//! * [`latmatrix`] — the empirical latency-matrix source: the
//!   [`latmatrix::LatencySource`] sampling trait the
//!   cluster-identification pass and the flow simulator's per-pair
//!   hop modulation consume (any caller with measured pairwise
//!   latencies implements it), and a seeded synthetic WAN/LAN
//!   generator with planted clusters.
//! * [`linear_array`] — the blocking linear switch array (§5.3):
//!   switch count (eq. 17), hop statistics (the `(k+1)/3` average of
//!   eq. 19, plus the exact distribution).
//! * [`splitmix`] — the workspace's one SplitMix64 generator and
//!   64-bit hash, shared by the latency-matrix generator, cluster
//!   identification and the load generator.
//! * [`transmission`] — message transmission-time models
//!   (eqs. 10, 11, 18–21).
//!
//! The paper models exactly two interconnects, the fat-tree and the
//! linear array, so the crate carries no direct networks (rings, tori,
//! hypercubes). The bisection-width claims — Theorem 1's full bisection
//! bandwidth of the fat-tree and the linear array's width of 1 — are
//! checked by max-flow on the explicit topology graphs that the test
//! crate `hmcs-suite` builds; no production path needs those graphs.
//!
//! Time unit: microseconds. Bandwidth unit: MB/s, which conveniently
//! equals bytes/µs.
//!
//! ```
//! use hmcs_topology::fat_tree::FatTree;
//! use hmcs_topology::switch::SwitchFabric;
//!
//! // The paper's Figure 3: 16 nodes on 8-port switches.
//! let ft = FatTree::new(16, SwitchFabric::new(8, 10.0).unwrap()).unwrap();
//! assert_eq!(ft.stages(), 2);
//! assert_eq!(ft.switch_count(), 6);
//! assert_eq!(ft.worst_case_switch_traversals(), 3); // 2d-1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fat_tree;
pub mod latmatrix;
pub mod linear_array;
pub mod splitmix;
pub mod switch;
pub mod technology;
pub mod transmission;

pub use error::TopologyError;
pub use latmatrix::LatencySource;
pub use switch::SwitchFabric;
pub use technology::NetworkTechnology;
