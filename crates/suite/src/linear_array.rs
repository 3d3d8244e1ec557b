//! The explicit graph of the linear switch array and its closed-form
//! bisection width, the paper's §5.3 claim the graph cut is checked
//! against.

use crate::graph::Graph;
use hmcs_topology::linear_array::LinearArray;

/// Fabric bisection width of the chain — the paper's §5.3 claim:
/// 1 for `k ≥ 2` (cut one chain link). This counts switch-to-switch
/// links and assumes the node halves align with switch boundaries;
/// when `N/2` falls inside a switch the *graph* bisection also cuts
/// the minority endpoint links (see the tests). A single-switch
/// "chain" has no chain link to cut; its natural bisection runs
/// through the switch itself and counts `⌈N/2⌉` endpoint links,
/// although the paper's blocking model (eq. 20) applies the `(N/2−1)`
/// penalty regardless of `k`.
pub fn bisection_width(la: &LinearArray) -> usize {
    if la.switch_count() >= 2 {
        1
    } else {
        la.nodes().div_ceil(2)
    }
}

/// Builds the explicit multigraph: endpoint vertices `0..n`, switch
/// vertices following, chain links between consecutive switches.
pub fn build_graph(la: &LinearArray) -> Graph {
    let (nodes, k) = (la.nodes(), la.switch_count());
    let pr = la.switch().ports() as usize;
    let mut g = Graph::new(nodes + k);
    for node in 0..nodes {
        g.add_edge(node, nodes + node / pr);
    }
    for s in 0..k.saturating_sub(1) {
        g.add_edge(nodes + s, nodes + s + 1);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_topology::switch::SwitchFabric;

    fn arr(nodes: usize, ports: u32) -> LinearArray {
        LinearArray::new(nodes, SwitchFabric::new(ports, 10.0).unwrap()).unwrap()
    }

    #[test]
    fn bisection_width_is_one_for_chains() {
        assert_eq!(bisection_width(&arr(256, 24)), 1);
        assert_eq!(bisection_width(&arr(48, 24)), 1);
        // Single switch: bisection runs through endpoint links.
        assert_eq!(bisection_width(&arr(10, 24)), 5);
    }

    #[test]
    fn explicit_graph_bisection_matches_closed_form_on_aligned_halves() {
        // When N/2 falls on a switch boundary the graph cut equals the
        // paper's fabric bisection of 1.
        for (n, p) in [(48usize, 24u32), (96, 24), (8, 4), (16, 8)] {
            let a = arr(n, p);
            let g = build_graph(&a);
            let half = n / 2;
            let left: Vec<usize> = (0..half).collect();
            let right: Vec<usize> = (half..n).collect();
            let cut = g.min_cut_between_sets(&left, &right);
            assert_eq!(cut, bisection_width(&a), "n={n} p={p}");
        }
    }

    #[test]
    fn misaligned_half_pays_for_the_minority_endpoint_links() {
        // n=100, Pr=24: half=50 splits switch 2 (nodes 48..71) into a
        // minority of 2, so the natural cut is 1 chain link + 2 endpoint
        // links.
        let g = build_graph(&arr(100, 24));
        let left: Vec<usize> = (0..50).collect();
        let right: Vec<usize> = (50..100).collect();
        assert_eq!(g.min_cut_between_sets(&left, &right), 3);
    }

    #[test]
    fn explicit_graph_is_connected() {
        for (n, p) in [(1usize, 24u32), (256, 24), (25, 24), (7, 2)] {
            assert!(build_graph(&arr(n, p)).is_connected());
        }
    }
}
