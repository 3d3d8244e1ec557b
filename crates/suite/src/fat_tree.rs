//! The explicit graph of a multi-stage fat-tree, the structure Theorem 1
//! (full bisection bandwidth) is checked on by max-flow.
//!
//! The graph is **pod-collapsed**: the `D^{s−1}` parallel switches that
//! form a stage-`s` "pod" of a folded Clos are merged into one vertex,
//! and the physical links between two pods become parallel edges with
//! the exact physical multiplicity. This preserves bisection width and
//! up/down hop counts exactly, and for `d ≤ 2` (every configuration in
//! the paper's experiments — N=256, Pr=24 gives d=2) the pods are single
//! switches so the graph is switch-exact.

use crate::graph::Graph;
use hmcs_topology::fat_tree::FatTree;

/// Builds the pod-collapsed explicit multigraph of `ft`.
///
/// Vertex layout: `0..n` are endpoints; pods follow stage by stage
/// (stage 1 pods first). Every physical link is one unit-capacity
/// edge (links between pods appear with their physical multiplicity),
/// so max-flow cuts on this graph measure link counts.
pub fn build_graph(ft: &FatTree) -> Graph {
    let nodes = ft.nodes();
    let stages = ft.stages();
    let d_radix = (ft.switch().ports() / 2) as usize;
    let mut pods_per_stage: Vec<usize> = Vec::new();
    let mut stage_offsets: Vec<usize> = Vec::new();

    // Stage s pods: ceil(n / D^s) for s < d, exactly 1 for s = d
    // (the merged root pod).
    let mut block = d_radix;
    for s in 1..=stages {
        let pods = if s == stages { 1 } else { nodes.div_ceil(block) };
        pods_per_stage.push(pods);
        block = block.saturating_mul(d_radix);
    }

    // Allocate pod vertices after the endpoint vertices.
    let mut next = nodes;
    for &pods in &pods_per_stage {
        stage_offsets.push(next);
        next += pods;
    }
    let mut graph = Graph::new(next);

    // Endpoint -> leaf pod edges (one physical link each). In a
    // single-stage tree the only pod is the root.
    for node in 0..nodes {
        let leaf = if stages == 1 { stage_offsets[0] } else { stage_offsets[0] + node / d_radix };
        graph.add_edge(node, leaf);
    }

    // Pod -> parent pod trunk edges with physical multiplicity: a
    // stage-s pod covering `c` endpoints contains ⌈c/D⌉ switches,
    // each with D up-links.
    let mut block = d_radix;
    for s in 1..stages {
        let pods = pods_per_stage[(s - 1) as usize];
        let parent_block = block * d_radix;
        for g in 0..pods {
            let covered = (nodes.min((g + 1) * block)).saturating_sub(g * block);
            if covered == 0 {
                continue;
            }
            let uplinks = covered.div_ceil(d_radix) * d_radix;
            let parent = if s + 1 == stages {
                stage_offsets[s as usize] // single root pod
            } else {
                stage_offsets[s as usize] + (g * block) / parent_block
            };
            let child = stage_offsets[(s - 1) as usize] + g;
            for _ in 0..uplinks {
                graph.add_edge(child, parent);
            }
        }
        block = parent_block;
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisection::natural_split_cut;
    use hmcs_topology::switch::SwitchFabric;

    fn sw(ports: u32) -> SwitchFabric {
        SwitchFabric::new(ports, 10.0).unwrap()
    }

    #[test]
    fn theorem1_full_bisection_bandwidth_via_max_flow() {
        // Figure 3 instance: bisection width must be N/2 = 8.
        let ft = FatTree::new(16, sw(8)).unwrap();
        assert_eq!(natural_split_cut(&build_graph(&ft), 16), 8);
        // Two-stage 32-node tree on 8-port switches: N/2 = 16.
        let ft = FatTree::new(32, sw(8)).unwrap();
        assert_eq!(ft.stages(), 2);
        assert_eq!(natural_split_cut(&build_graph(&ft), 32), 16);
        // Three-stage 16-node tree on 4-port switches: N/2 = 8.
        let ft = FatTree::new(16, sw(4)).unwrap();
        assert_eq!(ft.stages(), 3);
        assert_eq!(natural_split_cut(&build_graph(&ft), 16), 8);
    }

    #[test]
    fn graph_is_connected() {
        for (nodes, ports) in [(16usize, 8u32), (256, 24), (16, 4), (30, 8), (7, 24)] {
            let ft = FatTree::new(nodes, sw(ports)).unwrap();
            assert!(build_graph(&ft).is_connected(), "nodes={nodes} ports={ports}");
        }
    }
}
