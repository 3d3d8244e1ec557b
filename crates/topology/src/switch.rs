//! The switch-fabric building block.
//!
//! Both of the paper's interconnect architectures are built from
//! `Pr`-port switch fabrics with a fixed traversal latency α_sw
//! (Table 2: Pr = 24 ports, α_sw = 10 µs). In the fat-tree, a switch's
//! ports are split into **up-links** (UL) and **down-links** (DL): middle
//! stages use `UL = DL = Pr/2`, the last (root) stage uses `DL = Pr`,
//! `UL = 0` (§5.2, Figure 3).

use crate::error::TopologyError;

/// A `Pr`-port switch fabric with traversal latency α_sw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchFabric {
    ports: u32,
    latency_us: f64,
}

impl SwitchFabric {
    /// Creates a switch fabric.
    ///
    /// # Errors
    ///
    /// Ports must be an even number ≥ 2 (the fat-tree construction
    /// splits them in half); latency must be finite and non-negative.
    pub fn new(ports: u32, latency_us: f64) -> Result<Self, TopologyError> {
        if ports < 2 {
            return Err(TopologyError::InvalidParameter {
                name: "ports",
                reason: "switch must have at least 2 ports",
            });
        }
        if !ports.is_multiple_of(2) {
            return Err(TopologyError::InvalidParameter {
                name: "ports",
                reason: "port count must be even (fat-tree splits ports into UL/DL halves)",
            });
        }
        if !latency_us.is_finite() || latency_us < 0.0 {
            return Err(TopologyError::InvalidParameter {
                name: "latency_us",
                reason: "must be finite and non-negative",
            });
        }
        Ok(SwitchFabric { ports, latency_us })
    }

    /// The paper's Table 2 switch: 24 ports, 10 µs.
    pub fn paper_default() -> Self {
        SwitchFabric { ports: 24, latency_us: 10.0 }
    }

    /// Total port count `Pr`.
    #[inline]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Traversal latency α_sw in µs.
    #[inline]
    pub fn latency_us(&self) -> f64 {
        self.latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let sw = SwitchFabric::paper_default();
        assert_eq!(sw.ports(), 24);
        assert_eq!(sw.latency_us(), 10.0);
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(SwitchFabric::new(0, 1.0).is_err());
        assert!(SwitchFabric::new(1, 1.0).is_err());
        assert!(SwitchFabric::new(7, 1.0).is_err(), "odd port count");
        assert!(SwitchFabric::new(8, -1.0).is_err());
        assert!(SwitchFabric::new(8, f64::INFINITY).is_err());
        assert!(SwitchFabric::new(2, 0.0).is_ok());
    }
}
