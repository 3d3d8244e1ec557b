//! Structural invariants of the topologies at scale, cross-checked
//! against the closed forms.

use hmcs_topology::fat_tree::FatTree;
use hmcs_topology::switch::SwitchFabric;

fn sw(ports: u32) -> SwitchFabric {
    SwitchFabric::new(ports, 10.0).unwrap()
}

#[test]
fn fat_tree_eq13_agrees_with_stage_sums_large_grid() {
    for ports in [8u32, 16, 24, 48] {
        for n in [5usize, 24, 100, 256, 777, 2048] {
            let ft = FatTree::new(n, sw(ports)).unwrap();
            let d = ft.stages() as usize;
            let per_middle = n.div_ceil(ports as usize / 2);
            let last = n.div_ceil(ports as usize);
            assert_eq!(ft.switch_count(), (d - 1) * per_middle + last, "n={n} ports={ports}");
        }
    }
}

#[test]
fn fat_tree_mean_hops_scale_with_radix() {
    // Bigger switches flatten the tree: mean traversals must be
    // non-increasing in the port count for fixed n.
    let n = 512;
    let mut prev = f64::INFINITY;
    for ports in [8u32, 16, 24, 48, 64] {
        let ft = FatTree::new(n, sw(ports)).unwrap();
        let mean = ft.mean_switch_traversals();
        assert!(mean <= prev + 1e-12, "ports={ports}: {mean} > {prev}");
        prev = mean;
    }
}

#[test]
fn fat_tree_diameter_at_256_nodes_is_three_switches() {
    // 256 nodes on 24-port switches need two stages, so the worst-case
    // up/down route crosses 2d-1 = 3 switches.
    let ft = FatTree::new(256, sw(24)).unwrap();
    assert_eq!(ft.worst_case_switch_traversals(), 3);
}
