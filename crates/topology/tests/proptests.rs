//! Property-based tests for the topology substrate.

use hmcs_topology::fat_tree::FatTree;
use hmcs_topology::linear_array::LinearArray;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::{Architecture, HopModel, TransmissionModel};
use proptest::prelude::*;

fn any_switch() -> impl Strategy<Value = SwitchFabric> {
    (2u32..32, 0.0f64..50.0)
        .prop_map(|(half_ports, lat)| SwitchFabric::new(half_ports * 2, lat).unwrap())
}

proptest! {
    /// Eq. 12's closed form and the structural minimal-stage rule agree
    /// everywhere.
    #[test]
    fn stage_count_forms_agree(nodes in 1usize..20_000, sw in any_switch()) {
        prop_assume!(sw.ports() >= 4 || nodes <= 2);
        let ft = FatTree::new(nodes, sw).unwrap();
        prop_assert_eq!(ft.stages(), FatTree::stage_count_eq12(nodes, sw.ports()));
    }

    /// A fat-tree's capacity covers its nodes with the minimal number of
    /// stages.
    #[test]
    fn fat_tree_stage_minimality(nodes in 1usize..20_000, sw in any_switch()) {
        prop_assume!(sw.ports() >= 4 || nodes <= 2);
        let ft = FatTree::new(nodes, sw).unwrap();
        prop_assert!(ft.capacity() >= nodes as u128);
        if ft.stages() > 1 {
            let pr = sw.ports() as u128;
            let smaller_cap = pr * (pr / 2).pow(ft.stages() - 2);
            prop_assert!(smaller_cap < nodes as u128);
        }
    }

    /// Switch-count closed form (eq. 13) equals stage-by-stage counting.
    #[test]
    fn switch_count_eq13_consistency(nodes in 1usize..5_000, sw in any_switch()) {
        prop_assume!(sw.ports() >= 4 || nodes <= 2);
        let ft = FatTree::new(nodes, sw).unwrap();
        let d = ft.stages() as usize;
        let by_stages =
            (d - 1) * ft.switches_per_middle_stage() + ft.switches_in_last_stage();
        prop_assert_eq!(ft.switch_count(), by_stages);
    }

    /// Hop counts are symmetric, bounded by the worst case, and zero only
    /// on the diagonal.
    #[test]
    fn fat_tree_hop_count_properties(
        nodes in 2usize..300,
        sw in any_switch(),
        seed in 0u64..500,
    ) {
        prop_assume!(sw.ports() >= 4);
        let ft = FatTree::new(nodes, sw).unwrap();
        let a = (seed as usize) % nodes;
        let b = (seed as usize * 31 + 7) % nodes;
        let hab = ft.switch_traversals(a, b).unwrap();
        let hba = ft.switch_traversals(b, a).unwrap();
        prop_assert_eq!(hab, hba);
        if a == b {
            prop_assert_eq!(hab, 0);
        } else {
            prop_assert!(hab >= 1);
            prop_assert!(hab <= ft.worst_case_switch_traversals());
            // Up/down distances are odd.
            prop_assert_eq!(hab % 2, 1);
        }
    }

    /// The linear array's exact mean traversal count lies within the
    /// chain length and is at least 1.
    #[test]
    fn linear_array_mean_bounds(nodes in 2usize..2_000, sw in any_switch()) {
        let la = LinearArray::new(nodes, sw).unwrap();
        let mean = la.exact_mean_switch_traversals();
        prop_assert!(mean >= 1.0 - 1e-12);
        prop_assert!(mean <= la.switch_count() as f64 + 1e-12);
        // Distribution sums to 1 and reproduces the mean.
        let dist = la.traversal_distribution();
        let total: f64 = dist.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mean2: f64 = dist.iter().enumerate().map(|(h, p)| (h as f64 + 1.0) * p).sum();
        prop_assert!((mean - mean2).abs() < 1e-9);
    }

    /// Transmission time decomposition is consistent and monotone in
    /// message size.
    #[test]
    fn transmission_monotone_in_message_size(
        nodes in 2usize..1_000,
        m1 in 1u64..100_000,
        extra in 1u64..100_000,
        blocking in any::<bool>(),
    ) {
        let arch = if blocking { Architecture::Blocking } else { Architecture::NonBlocking };
        let t = TransmissionModel::new(
            NetworkTechnology::GIGABIT_ETHERNET,
            SwitchFabric::paper_default(),
            nodes,
            arch,
        )
        .unwrap();
        let a = t.mean_time_us(m1);
        let b = t.mean_time_us(m1 + extra);
        prop_assert!(b > a);
        let bd = t.breakdown(m1);
        prop_assert!((bd.total_us() - a).abs() < 1e-9);
        prop_assert!(bd.link_latency_us >= 0.0 && bd.switch_delay_us >= 0.0);
        if !blocking {
            prop_assert_eq!(bd.blocking_time_us, 0.0);
        }
    }

    /// The blocking penalty grows linearly with network size.
    #[test]
    fn blocking_penalty_scales_with_endpoints(n1 in 4usize..500, grow in 2usize..4) {
        let mk = |n| {
            TransmissionModel::new(
                NetworkTechnology::FAST_ETHERNET,
                SwitchFabric::paper_default(),
                n,
                Architecture::Blocking,
            )
            .unwrap()
            .breakdown(1024)
            .blocking_time_us
        };
        prop_assert!(mk(n1 * grow) > mk(n1));
    }

    /// Exact hop model never exceeds the chain length and the paper's
    /// approximation stays within one switch of it for full chains.
    #[test]
    fn hop_models_close_for_full_chains(k in 1usize..40) {
        let sw = SwitchFabric::paper_default();
        let nodes = k * sw.ports() as usize;
        let t = TransmissionModel::new(
            NetworkTechnology::FAST_ETHERNET,
            sw,
            nodes,
            Architecture::Blocking,
        )
        .unwrap();
        let paper = t.mean_switch_traversals();
        let exact = t.with_hop_model(HopModel::ExactMean).mean_switch_traversals();
        prop_assert!((paper - exact).abs() < 1.4, "k={k} paper={paper} exact={exact}");
    }
}
