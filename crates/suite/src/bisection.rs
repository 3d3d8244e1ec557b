//! Bisection-width analysis (§5.1, Definition 1, Theorem 1).
//!
//! *Bisection width* is the minimum number of links that must be cut to
//! divide a topology into two equal halves (±1 node); a network has
//! *full bisection bandwidth* when that width is `N/2` single-link
//! bandwidths (Definition 1). The paper proves the multi-stage fat-tree
//! has full bisection bandwidth (Theorem 1) and uses the linear array's
//! bisection width of 1 to justify the blocking penalty of eq. 20.
//!
//! This module provides:
//! * [`natural_split_cut`] — the min-cut between the canonical
//!   index-halves via max-flow (exact for the symmetric topologies built
//!   here, where the natural split is an optimal bisection);
//! * [`exhaustive_bisection_width`] — brute force over *all* balanced
//!   partitions, feasible for ≤ ~20 endpoints, used in tests to confirm
//!   that the natural split is indeed optimal;
//! * [`BisectionReport`] / [`analyze`] — the Definition-1 verdict for a
//!   topology graph.

use crate::graph::Graph;

/// Outcome of a bisection analysis of a topology with `n` endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectionReport {
    /// Measured bisection width (links cut between the halves).
    pub bisection_width: usize,
    /// `⌈N/2⌉` — the width required for full bisection bandwidth.
    pub full_bisection_target: usize,
}

impl BisectionReport {
    /// Definition 1: true when the bisection width reaches `N/2` links.
    pub fn has_full_bisection_bandwidth(&self) -> bool {
        self.bisection_width >= self.full_bisection_target
    }
}

/// Min-cut between the canonical halves `0..n/2` and `n/2..n` of a
/// topology graph whose first `n` vertices are endpoints.
///
/// # Panics
///
/// Panics if `endpoints < 2` or the graph has fewer vertices than
/// `endpoints`.
pub fn natural_split_cut(graph: &Graph, endpoints: usize) -> usize {
    assert!(endpoints >= 2, "bisection needs at least two endpoints");
    assert!(graph.vertex_count() >= endpoints, "graph smaller than endpoint count");
    let half = endpoints / 2;
    let left: Vec<usize> = (0..half).collect();
    let right: Vec<usize> = (half..endpoints).collect();
    graph.min_cut_between_sets(&left, &right)
}

/// Exhaustive bisection width: minimum cut over **all** balanced
/// endpoint partitions (left side of size ⌊n/2⌋). Exponential — intended
/// for cross-checking on ≤ ~20 endpoints.
///
/// # Panics
///
/// Panics if `endpoints < 2`, exceeds the graph size, or exceeds 24
/// (enumeration guard).
pub fn exhaustive_bisection_width(graph: &Graph, endpoints: usize) -> usize {
    assert!(endpoints >= 2, "bisection needs at least two endpoints");
    assert!(endpoints <= 24, "exhaustive search is limited to 24 endpoints");
    assert!(graph.vertex_count() >= endpoints, "graph smaller than endpoint count");
    let half = endpoints / 2;
    let mut best = usize::MAX;
    // Iterate subsets of {0..endpoints} of size `half` containing
    // endpoint 0 (fixing 0 halves the work; the complement covers the
    // rest).
    let full: u32 = endpoints as u32;
    for mask in 0u32..(1 << (full - 1)) {
        let subset = (mask << 1) | 1; // endpoint 0 always on the left
        if subset.count_ones() as usize != half {
            continue;
        }
        let mut left = Vec::with_capacity(half);
        let mut right = Vec::with_capacity(endpoints - half);
        for v in 0..endpoints {
            if subset >> v & 1 == 1 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        best = best.min(graph.min_cut_between_sets(&left, &right));
        if best == 0 {
            break;
        }
    }
    // When n is odd the fixed-vertex trick can miss partitions where
    // vertex 0 sits on the larger side; sweep those too.
    if endpoints % 2 == 1 {
        for mask in 0u32..(1 << (full - 1)) {
            let subset = mask << 1; // endpoint 0 on the right
            if subset.count_ones() as usize != half {
                continue;
            }
            let mut left = Vec::with_capacity(half);
            let mut right = Vec::with_capacity(endpoints - half);
            for v in 0..endpoints {
                if subset >> v & 1 == 1 {
                    left.push(v);
                } else {
                    right.push(v);
                }
            }
            best = best.min(graph.min_cut_between_sets(&left, &right));
        }
    }
    best
}

/// Runs the Definition-1 analysis on a topology graph using the natural
/// index split.
pub fn analyze(graph: &Graph, endpoints: usize) -> BisectionReport {
    BisectionReport {
        bisection_width: natural_split_cut(graph, endpoints),
        full_bisection_target: endpoints.div_ceil(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fat_tree, linear_array};
    use hmcs_topology::fat_tree::FatTree;
    use hmcs_topology::linear_array::LinearArray;
    use hmcs_topology::switch::SwitchFabric;

    fn sw(ports: u32) -> SwitchFabric {
        SwitchFabric::new(ports, 10.0).unwrap()
    }

    #[test]
    fn theorem1_fat_tree_has_full_bisection_bandwidth() {
        for (n, p) in [(16usize, 8u32), (32, 8), (16, 4), (48, 24)] {
            let ft = FatTree::new(n, sw(p)).unwrap();
            let report = analyze(&fat_tree::build_graph(&ft), n);
            assert!(
                report.has_full_bisection_bandwidth(),
                "fat-tree n={n} p={p}: width {} < {}",
                report.bisection_width,
                report.full_bisection_target
            );
        }
    }

    #[test]
    fn linear_array_has_bisection_width_one() {
        // Boundary-aligned halves: the cut is exactly one chain link.
        for (n, p) in [(48usize, 24u32), (96, 24), (8, 4)] {
            let la = LinearArray::new(n, sw(p)).unwrap();
            let report = analyze(&linear_array::build_graph(&la), n);
            assert_eq!(report.bisection_width, 1, "n={n} p={p}");
            assert!(!report.has_full_bisection_bandwidth());
        }
    }

    #[test]
    fn natural_split_is_optimal_for_small_fat_tree() {
        // Verify by exhaustive search that the index split used by
        // Theorem 1 really is a minimum bisection.
        let ft = FatTree::new(8, sw(4)).unwrap();
        let g = fat_tree::build_graph(&ft);
        let natural = natural_split_cut(&g, 8);
        let exhaustive = exhaustive_bisection_width(&g, 8);
        assert_eq!(natural, exhaustive);
        assert_eq!(exhaustive, 4, "N/2 = 4");
    }

    #[test]
    fn natural_split_is_optimal_for_small_linear_array() {
        let la = LinearArray::new(8, sw(4)).unwrap();
        let g = linear_array::build_graph(&la);
        assert_eq!(exhaustive_bisection_width(&g, 8), 1);
        assert_eq!(natural_split_cut(&g, 8), 1);
    }

    #[test]
    fn exhaustive_handles_odd_endpoint_counts() {
        let la = LinearArray::new(7, sw(4)).unwrap();
        let g = linear_array::build_graph(&la);
        // 7 endpoints over 2 switches: cut the single chain link.
        assert_eq!(exhaustive_bisection_width(&g, 7), 1);
    }

    #[test]
    fn tree_bisection_is_one() {
        // The paper's §5.1 example: a tree has bisection width 1 — two
        // switches, three endpoints each, one bridging link whose removal
        // splits the endpoints into equal halves.
        let mut g = Graph::new(6 + 2);
        for i in 0..6 {
            g.add_edge(i, 6 + i / 3);
        }
        g.add_edge(6, 7);
        assert_eq!(exhaustive_bisection_width(&g, 6), 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_endpoint() {
        let g = Graph::new(2);
        natural_split_cut(&g, 1);
    }

    #[test]
    #[should_panic(expected = "limited to 24")]
    fn exhaustive_guards_against_explosion() {
        let g = Graph::new(30);
        exhaustive_bisection_width(&g, 30);
    }
}
