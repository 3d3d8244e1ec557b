//! The Multi-Stage Fat-Tree — the paper's **non-blocking** interconnect
//! (§5.2, Figure 3).
//!
//! The tree is built from `Pr`-port switch fabrics. Middle stages split
//! ports as `UL = DL = Pr/2`; the last (root) stage uses all ports as
//! down-links. Stage count follows eq. 12 and switch count follows
//! eq. 13 / Proposition 1. Theorem 1 (full bisection bandwidth) is
//! checked by max-flow on the tree's explicit graph, which the test
//! crate `hmcs-suite` builds.

use crate::error::TopologyError;
use crate::switch::SwitchFabric;

/// A multi-stage fat-tree over `n` endpoints built from a given switch
/// fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTree {
    nodes: usize,
    switch: SwitchFabric,
    stages: u32,
}

impl FatTree {
    /// Builds the fat-tree description for `nodes` endpoints.
    ///
    /// # Errors
    ///
    /// * `nodes` must be ≥ 1;
    /// * a 2-port switch (down-radix 1) cannot form a multi-stage tree,
    ///   so `ports = 2` is only accepted when `nodes ≤ 2`.
    pub fn new(nodes: usize, switch: SwitchFabric) -> Result<Self, TopologyError> {
        if nodes == 0 {
            return Err(TopologyError::InvalidParameter {
                name: "nodes",
                reason: "fat-tree needs at least one endpoint",
            });
        }
        if nodes > switch.ports() as usize && switch.ports() == 2 {
            return Err(TopologyError::InvalidParameter {
                name: "ports",
                reason: "2-port switches cannot form a multi-stage fat-tree",
            });
        }
        let stages = Self::stage_count_structural(nodes, switch.ports());
        Ok(FatTree { nodes, switch, stages })
    }

    /// Number of endpoints.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The switch fabric used throughout the tree.
    #[inline]
    pub fn switch(&self) -> SwitchFabric {
        self.switch
    }

    /// Number of stages `d` (paper eq. 12).
    #[inline]
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Integer-exact stage count: the smallest `d ≥ 1` such that the
    /// tree's capacity `Pr·(Pr/2)^{d−1}` reaches `n`. This is precisely
    /// eq. 12, `d = ⌈log₂(N/2) / log₂(Pr/2)⌉`, evaluated without
    /// floating-point hazards (tests cross-check the two forms).
    fn stage_count_structural(nodes: usize, ports: u32) -> u32 {
        let pr = ports as u128;
        let radix = pr / 2;
        let n = nodes as u128;
        let mut d: u32 = 1;
        let mut capacity = pr;
        while capacity < n {
            d += 1;
            capacity = capacity.saturating_mul(radix);
        }
        d
    }

    /// Eq. 12 evaluated literally in floating point:
    /// `d = ⌈log₂(N/2)/log₂(Pr/2)⌉`, clamped to ≥ 1. Provided for
    /// fidelity checks; [`FatTree::stages`] uses the integer-exact form.
    pub fn stage_count_eq12(nodes: usize, ports: u32) -> u32 {
        if nodes <= 2 {
            return 1;
        }
        let num = (nodes as f64 / 2.0).log2();
        let den = (ports as f64 / 2.0).log2();
        if den <= 0.0 {
            return 1;
        }
        let d = (num / den).ceil();
        (d as u32).max(1)
    }

    /// Maximum number of endpoints a `d`-stage tree of this switch can
    /// serve: `Pr·(Pr/2)^{d−1}`.
    pub fn capacity(&self) -> u128 {
        let pr = self.switch.ports() as u128;
        pr.saturating_mul((pr / 2).saturating_pow(self.stages - 1))
    }

    /// Number of switches per **middle** stage, `⌈N / (Pr/2)⌉`
    /// (Proposition 1).
    pub fn switches_per_middle_stage(&self) -> usize {
        self.nodes.div_ceil(self.switch.ports() as usize / 2)
    }

    /// Number of switches in the **last** (root) stage, `⌈N/Pr⌉`.
    pub fn switches_in_last_stage(&self) -> usize {
        self.nodes.div_ceil(self.switch.ports() as usize)
    }

    /// Total switch count — paper eq. 13:
    /// `k = (d−1)·⌈2N/Pr⌉ + ⌈N/Pr⌉`.
    pub fn switch_count(&self) -> usize {
        (self.stages as usize - 1) * self.switches_per_middle_stage()
            + self.switches_in_last_stage()
    }

    /// Worst-case number of switches a message traverses: up to the root
    /// and back down, `2d − 1` (the multiplier in eq. 11).
    #[inline]
    pub fn worst_case_switch_traversals(&self) -> u32 {
        2 * self.stages - 1
    }

    /// Down-radix `D = Pr/2`: endpoints per leaf switch.
    #[inline]
    fn down_radix(&self) -> usize {
        (self.switch.ports() / 2) as usize
    }

    /// Number of switches traversed by a message between two endpoints
    /// under up/down routing: `2s − 1`, where `s` is the lowest stage at
    /// which the endpoints share a pod. Returns 0 for `a == b`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NodeOutOfRange`] for invalid endpoints.
    pub fn switch_traversals(&self, a: usize, b: usize) -> Result<u32, TopologyError> {
        for &v in &[a, b] {
            if v >= self.nodes {
                return Err(TopologyError::NodeOutOfRange { index: v, nodes: self.nodes });
            }
        }
        if a == b {
            return Ok(0);
        }
        let d = self.down_radix();
        let mut block = d; // pod size at stage 1
        for s in 1..self.stages {
            if a / block == b / block {
                return Ok(2 * s - 1);
            }
            block = block.saturating_mul(d);
        }
        // Top stage covers everything.
        Ok(2 * self.stages - 1)
    }

    /// Exact mean switch traversals over ordered pairs of distinct
    /// endpoints under uniform traffic. The paper conservatively uses the
    /// worst case `2d−1` in eq. 11; this exact average quantifies that
    /// approximation (`ablation-hops` experiment).
    pub fn mean_switch_traversals(&self) -> f64 {
        if self.nodes < 2 {
            return 0.0;
        }
        let n = self.nodes as f64;
        let d_radix = self.down_radix();
        // P(shared pod at stage s but not s-1) summed exactly from block
        // sizes. pairs_within(block) counts ordered pairs in same block.
        let pairs_within = |block: usize| -> f64 {
            if block == 0 {
                return 0.0;
            }
            let full_blocks = self.nodes / block;
            let rem = self.nodes % block;
            (full_blocks * block * (block - 1) + rem * rem.saturating_sub(1)) as f64
        };
        let total_pairs = n * (n - 1.0);
        let mut acc = 0.0;
        let mut prev_within = 0.0;
        let mut block = d_radix;
        for s in 1..self.stages {
            let within = pairs_within(block);
            acc += (within - prev_within) * (2 * s - 1) as f64;
            prev_within = within;
            block = block.saturating_mul(d_radix);
        }
        // Remaining pairs meet at the top stage.
        acc += (total_pairs - prev_within) * (2 * self.stages - 1) as f64;
        acc / total_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw(ports: u32) -> SwitchFabric {
        SwitchFabric::new(ports, 10.0).unwrap()
    }

    /// True when the whole network is one switch (d = 1 and a single
    /// last-stage switch) — the regime responsible for the latency kink
    /// the paper observes at C = 16 (§6).
    fn is_single_switch(ft: &FatTree) -> bool {
        ft.stages() == 1 && ft.switches_in_last_stage() == 1
    }

    #[test]
    fn figure3_example_16_nodes_8_ports() {
        let ft = FatTree::new(16, sw(8)).unwrap();
        assert_eq!(ft.stages(), 2, "paper: d = 2");
        assert_eq!(ft.switch_count(), 6, "paper: k = 6");
        assert_eq!(ft.switches_per_middle_stage(), 4);
        assert_eq!(ft.switches_in_last_stage(), 2);
        assert_eq!(ft.worst_case_switch_traversals(), 3);
        assert!(!is_single_switch(&ft));
    }

    #[test]
    fn paper_experiment_scale_256_nodes_24_ports() {
        let ft = FatTree::new(256, sw(24)).unwrap();
        assert_eq!(ft.stages(), 2);
        // k = (2-1)*ceil(256/12) + ceil(256/24) = 22 + 11 = 33.
        assert_eq!(ft.switch_count(), 33);
    }

    #[test]
    fn single_switch_regime() {
        // N <= Pr: one stage; and N <= Pr means one switch.
        let ft = FatTree::new(16, sw(24)).unwrap();
        assert_eq!(ft.stages(), 1);
        assert_eq!(ft.switch_count(), 1);
        assert!(is_single_switch(&ft));
        assert_eq!(ft.worst_case_switch_traversals(), 1);
    }

    #[test]
    fn structural_stage_count_matches_eq12_over_a_grid() {
        for ports in [4u32, 8, 12, 16, 24, 32, 48, 64] {
            for nodes in [1usize, 2, 3, 7, 8, 16, 17, 64, 100, 256, 500, 1024, 4096] {
                let structural = FatTree::stage_count_structural(nodes, ports);
                let eq12 = FatTree::stage_count_eq12(nodes, ports);
                assert_eq!(structural, eq12, "divergence at nodes={nodes} ports={ports}");
            }
        }
    }

    #[test]
    fn capacity_covers_nodes() {
        for ports in [8u32, 24] {
            for nodes in [1usize, 5, 24, 25, 200, 256, 288, 289, 5000] {
                let ft = FatTree::new(nodes, sw(ports)).unwrap();
                assert!(ft.capacity() >= nodes as u128);
                if ft.stages() > 1 {
                    // d is minimal: one fewer stage must not suffice.
                    let pr = ports as u128;
                    let smaller = pr * (pr / 2).pow(ft.stages() - 2);
                    assert!(smaller < nodes as u128, "d not minimal for nodes={nodes}");
                }
            }
        }
    }

    #[test]
    fn traversals_depend_on_pod_locality() {
        let ft = FatTree::new(16, sw(8)).unwrap(); // D = 4
        assert_eq!(ft.switch_traversals(0, 0).unwrap(), 0);
        assert_eq!(ft.switch_traversals(0, 3).unwrap(), 1, "same leaf switch");
        assert_eq!(ft.switch_traversals(0, 4).unwrap(), 3, "crosses the root");
        assert_eq!(ft.switch_traversals(0, 15).unwrap(), 3);
        assert!(ft.switch_traversals(0, 16).is_err());
    }

    #[test]
    fn three_stage_tree_traversals() {
        // ports=4 => D=2, capacity(3) = 4*2*2 = 16.
        let ft = FatTree::new(16, sw(4)).unwrap();
        assert_eq!(ft.stages(), 3);
        assert_eq!(ft.switch_traversals(0, 1).unwrap(), 1); // same leaf
        assert_eq!(ft.switch_traversals(0, 2).unwrap(), 3); // stage-2 pod (block 4)
        assert_eq!(ft.switch_traversals(0, 5).unwrap(), 5); // root
        assert_eq!(ft.worst_case_switch_traversals(), 5);
    }

    #[test]
    fn mean_traversals_below_worst_case() {
        for (nodes, ports) in [(16usize, 8u32), (256, 24), (64, 8)] {
            let ft = FatTree::new(nodes, sw(ports)).unwrap();
            let mean = ft.mean_switch_traversals();
            assert!(mean > 0.0);
            assert!(mean <= ft.worst_case_switch_traversals() as f64 + 1e-12);
        }
    }

    #[test]
    fn mean_traversals_exact_small_case() {
        // 4 nodes, D=2 (ports 4): leaves {0,1},{2,3}, d=1? capacity(1)=4
        // => single stage! Use 8 nodes: d=2. Leaf pods {0,1},{2,3},...
        let ft = FatTree::new(8, sw(4)).unwrap();
        assert_eq!(ft.stages(), 2);
        // Ordered pairs: 8*7=56. Same-leaf pairs: 4 pods * 2*1 = 8 -> 1
        // switch. Other 48 pairs -> 3 switches.
        let expect = (8.0 * 1.0 + 48.0 * 3.0) / 56.0;
        assert!((ft.mean_switch_traversals() - expect).abs() < 1e-12);
    }

    #[test]
    fn mean_traversals_brute_force_cross_check() {
        for (nodes, ports) in [(8usize, 4u32), (16, 8), (12, 8), (16, 4), (30, 8)] {
            let ft = FatTree::new(nodes, sw(ports)).unwrap();
            let mut acc = 0.0;
            let mut count = 0.0;
            for a in 0..nodes {
                for b in 0..nodes {
                    if a != b {
                        acc += ft.switch_traversals(a, b).unwrap() as f64;
                        count += 1.0;
                    }
                }
            }
            let brute = acc / count;
            assert!(
                (ft.mean_switch_traversals() - brute).abs() < 1e-9,
                "mismatch for nodes={nodes} ports={ports}: {} vs {brute}",
                ft.mean_switch_traversals()
            );
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(FatTree::new(0, sw(8)).is_err());
        assert!(FatTree::new(3, sw(2)).is_err(), "2-port switch cannot scale");
        assert!(FatTree::new(2, sw(2)).is_ok());
    }
}
