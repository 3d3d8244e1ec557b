//! The linear switch array — the paper's **blocking** interconnect
//! (§5.3).
//!
//! A chain of `k = ⌈N/Pr⌉` cascaded switches (eq. 17). Messages traverse
//! on average `(k+1)/3` switches (the approximation used in eq. 19); the
//! exact hop distribution is also provided so the approximation can be
//! quantified (`ablation-hops` experiment). The bisection width of the
//! chain is 1 (for `k ≥ 2`), which is why the paper charges the blocking
//! time `T_B = (N/2 − 1)·M·β` of eq. 20.

use crate::error::TopologyError;
use crate::switch::SwitchFabric;

/// A linear array of switches serving `n` endpoints.
///
/// Endpoints fill switches in index order: endpoint `i` attaches to
/// switch `i / Pr`. (The paper attaches `Pr` endpoints per switch and
/// does not reserve ports for the chain links; we keep that convention
/// for fidelity.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearArray {
    nodes: usize,
    switch: SwitchFabric,
}

impl LinearArray {
    /// Builds the linear-array description for `nodes` endpoints.
    pub fn new(nodes: usize, switch: SwitchFabric) -> Result<Self, TopologyError> {
        if nodes == 0 {
            return Err(TopologyError::InvalidParameter {
                name: "nodes",
                reason: "linear array needs at least one endpoint",
            });
        }
        Ok(LinearArray { nodes, switch })
    }

    /// Number of endpoints.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The switch fabric used along the chain.
    #[inline]
    pub fn switch(&self) -> SwitchFabric {
        self.switch
    }

    /// Number of switches in the chain, `k = ⌈N/Pr⌉` (eq. 17).
    #[inline]
    pub fn switch_count(&self) -> usize {
        self.nodes.div_ceil(self.switch.ports() as usize)
    }

    /// Switch hosting endpoint `i`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NodeOutOfRange`] for an invalid endpoint.
    pub(crate) fn switch_of(&self, node: usize) -> Result<usize, TopologyError> {
        if node >= self.nodes {
            return Err(TopologyError::NodeOutOfRange { index: node, nodes: self.nodes });
        }
        Ok(node / self.switch.ports() as usize)
    }

    /// Number of switches traversed between two endpoints:
    /// `|switch(a) − switch(b)| + 1` (both end switches are crossed).
    /// Returns 0 for `a == b`.
    pub fn switch_traversals(&self, a: usize, b: usize) -> Result<u32, TopologyError> {
        let sa = self.switch_of(a)?;
        let sb = self.switch_of(b)?;
        if a == b {
            return Ok(0);
        }
        Ok((sa.abs_diff(sb) + 1) as u32)
    }

    /// The paper's average traversed-switch count, `(k+1)/3` (eq. 19).
    #[inline]
    pub(crate) fn paper_mean_switch_traversals(&self) -> f64 {
        (self.switch_count() as f64 + 1.0) / 3.0
    }

    /// Exact mean switch traversals over ordered pairs of distinct
    /// endpoints under uniform traffic.
    pub fn exact_mean_switch_traversals(&self) -> f64 {
        if self.nodes < 2 {
            return 0.0;
        }
        let k = self.switch_count();
        let pr = self.switch.ports() as usize;
        // occupancy[s] = endpoints on switch s.
        let occupancy: Vec<f64> = (0..k)
            .map(|s| {
                let lo = s * pr;
                let hi = ((s + 1) * pr).min(self.nodes);
                (hi - lo) as f64
            })
            .collect();
        let mut acc = 0.0;
        for (sa, &na) in occupancy.iter().enumerate() {
            for (sb, &nb) in occupancy.iter().enumerate() {
                let pairs = if sa == sb { na * (na - 1.0) } else { na * nb };
                acc += pairs * (sa.abs_diff(sb) as f64 + 1.0);
            }
        }
        let n = self.nodes as f64;
        acc / (n * (n - 1.0))
    }

    /// Full hop-count distribution: `dist[h]` = probability a uniformly
    /// random ordered pair of distinct endpoints traverses `h + 1`
    /// switches (index 0 ↔ one switch).
    pub fn traversal_distribution(&self) -> Vec<f64> {
        let k = self.switch_count();
        let pr = self.switch.ports() as usize;
        let occupancy: Vec<f64> = (0..k)
            .map(|s| {
                let lo = s * pr;
                let hi = ((s + 1) * pr).min(self.nodes);
                (hi - lo) as f64
            })
            .collect();
        let mut dist = vec![0.0; k];
        for (sa, &na) in occupancy.iter().enumerate() {
            for (sb, &nb) in occupancy.iter().enumerate() {
                let pairs = if sa == sb { na * (na - 1.0) } else { na * nb };
                dist[sa.abs_diff(sb)] += pairs;
            }
        }
        let n = self.nodes as f64;
        let total = n * (n - 1.0);
        if total > 0.0 {
            for v in &mut dist {
                *v /= total;
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(nodes: usize, ports: u32) -> LinearArray {
        LinearArray::new(nodes, SwitchFabric::new(ports, 10.0).unwrap()).unwrap()
    }

    #[test]
    fn eq17_switch_count() {
        assert_eq!(arr(256, 24).switch_count(), 11);
        assert_eq!(arr(24, 24).switch_count(), 1);
        assert_eq!(arr(25, 24).switch_count(), 2);
        assert_eq!(arr(1, 24).switch_count(), 1);
    }

    #[test]
    fn node_placement_and_traversals() {
        let a = arr(100, 24);
        assert_eq!(a.switch_of(0).unwrap(), 0);
        assert_eq!(a.switch_of(23).unwrap(), 0);
        assert_eq!(a.switch_of(24).unwrap(), 1);
        assert_eq!(a.switch_of(99).unwrap(), 4);
        assert_eq!(a.switch_traversals(0, 23).unwrap(), 1);
        assert_eq!(a.switch_traversals(0, 99).unwrap(), 5);
        assert_eq!(a.switch_traversals(5, 5).unwrap(), 0);
        assert!(a.switch_of(100).is_err());
    }

    #[test]
    fn paper_mean_eq19() {
        let a = arr(256, 24); // k = 11
        assert!((a.paper_mean_switch_traversals() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exact_mean_matches_brute_force() {
        for (n, p) in [(100usize, 24u32), (48, 24), (7, 4), (30, 8), (24, 24)] {
            let a = arr(n, p);
            let mut acc = 0.0;
            let mut cnt = 0.0;
            for x in 0..n {
                for y in 0..n {
                    if x != y {
                        acc += a.switch_traversals(x, y).unwrap() as f64;
                        cnt += 1.0;
                    }
                }
            }
            let brute = acc / cnt;
            assert!(
                (a.exact_mean_switch_traversals() - brute).abs() < 1e-9,
                "n={n} p={p}: {} vs {brute}",
                a.exact_mean_switch_traversals()
            );
        }
    }

    #[test]
    fn paper_mean_is_a_reasonable_approximation_for_large_k() {
        // With many switches and full occupancy the exact mean tends to
        // k/3 + 1 - o(1); the paper's (k+1)/3 underestimates it but stays
        // within one switch latency of the exact value relative to k.
        let a = arr(24 * 30, 24); // k = 30
        let exact = a.exact_mean_switch_traversals();
        let paper = a.paper_mean_switch_traversals();
        assert!((exact - paper).abs() < 2.0, "exact={exact} paper={paper}");
    }

    #[test]
    fn traversal_distribution_is_a_distribution() {
        let a = arr(100, 24);
        let dist = a.traversal_distribution();
        assert_eq!(dist.len(), 5);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Mean from the distribution equals the exact mean.
        let mean: f64 = dist.iter().enumerate().map(|(h, p)| (h as f64 + 1.0) * p).sum();
        assert!((mean - a.exact_mean_switch_traversals()).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert!(LinearArray::new(0, SwitchFabric::paper_default()).is_err());
    }
}
