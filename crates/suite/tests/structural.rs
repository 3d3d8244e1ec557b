//! Structural invariants of the explicit topology graphs at scale,
//! cross-checked against the closed forms.

use hmcs_suite::{fat_tree, linear_array};
use hmcs_topology::fat_tree::FatTree;
use hmcs_topology::linear_array::LinearArray;
use hmcs_topology::switch::SwitchFabric;

fn sw(ports: u32) -> SwitchFabric {
    SwitchFabric::new(ports, 10.0).unwrap()
}

#[test]
fn fat_tree_graph_shape_full_population() {
    // Full-population trees: every middle stage contributes exactly n
    // uplink edges (pods of c endpoints have c up-links), plus n
    // endpoint edges.
    for (ports, stages_expected) in [(8u32, 2u32), (4, 3)] {
        let d = ports as usize / 2;
        let n = ports as usize * d.pow(stages_expected - 1);
        let ft = FatTree::new(n, sw(ports)).unwrap();
        assert_eq!(ft.stages(), stages_expected, "n={n} ports={ports}");
        let g = fat_tree::build_graph(&ft);
        assert!(g.is_connected());
        // Endpoints have degree 1 (their leaf link).
        for v in 0..n {
            assert_eq!(g.degree(v), 1, "endpoint {v}");
        }
        let expected_edges = n + (stages_expected as usize - 1) * n;
        assert_eq!(g.edge_count(), expected_edges, "n={n} ports={ports}");
    }
}

#[test]
fn linear_array_graph_shape() {
    for (n, ports) in [(256usize, 24u32), (100, 24), (7, 4)] {
        let la = LinearArray::new(n, sw(ports)).unwrap();
        let g = linear_array::build_graph(&la);
        let k = la.switch_count();
        // Vertices: endpoints + switches. Edges: one per endpoint plus
        // the k-1 chain links.
        assert_eq!(g.vertex_count(), n + k);
        assert_eq!(g.edge_count(), n + k - 1);
        assert!(g.is_connected());
        // Endpoint degree 1; interior switch degree occupancy + 2.
        for v in 0..n {
            assert_eq!(g.degree(v), 1);
        }
    }
}
