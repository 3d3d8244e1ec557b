//! Network link technologies.
//!
//! §5 of the paper characterises a cluster interconnect by its
//! **latency** (α, µs) and **bandwidth** (1/β, MB/s). Heterogeneity
//! across network tiers is expressed by assigning different technologies
//! to ICN1, ECN1 and ICN2 (Table 1 scenarios). Table 2 gives the
//! measured constants for Gigabit Ethernet and Fast Ethernet used in the
//! paper's experiments; Myrinet and InfiniBand presets (typical 2005-era
//! figures from the literature the paper cites) are included for the
//! technology-heterogeneity extension.

use crate::error::TopologyError;

/// A link technology: startup latency α and sustained bandwidth.
///
/// Bandwidth is stored in MB/s, which equals bytes/µs, so
/// [`NetworkTechnology::byte_time_us`] (the paper's β) is simply
/// `1/bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkTechnology {
    /// Human-readable technology name.
    pub name: &'static str,
    /// One-way small-message latency α in microseconds.
    pub latency_us: f64,
    /// Sustained bandwidth in MB/s (== bytes/µs).
    pub bandwidth_mb_s: f64,
}

impl NetworkTechnology {
    /// Creates a custom technology after validating parameters.
    pub fn new(
        name: &'static str,
        latency_us: f64,
        bandwidth_mb_s: f64,
    ) -> Result<Self, TopologyError> {
        if !latency_us.is_finite() || latency_us < 0.0 {
            return Err(TopologyError::InvalidParameter {
                name: "latency_us",
                reason: "must be finite and non-negative",
            });
        }
        if !bandwidth_mb_s.is_finite() || bandwidth_mb_s <= 0.0 {
            return Err(TopologyError::InvalidParameter {
                name: "bandwidth_mb_s",
                reason: "must be finite and positive",
            });
        }
        Ok(NetworkTechnology { name, latency_us, bandwidth_mb_s })
    }

    /// Gigabit Ethernet — Table 2: α = 80 µs, 94 MB/s.
    pub const GIGABIT_ETHERNET: NetworkTechnology =
        NetworkTechnology { name: "Gigabit Ethernet", latency_us: 80.0, bandwidth_mb_s: 94.0 };

    /// Fast Ethernet — Table 2: α = 50 µs, 10.5 MB/s.
    pub const FAST_ETHERNET: NetworkTechnology =
        NetworkTechnology { name: "Fast Ethernet", latency_us: 50.0, bandwidth_mb_s: 10.5 };

    /// Myrinet (2000-class) — typical 2005-era measurements
    /// (Lobosco et al., the paper's ref. \[16\]).
    pub const MYRINET: NetworkTechnology =
        NetworkTechnology { name: "Myrinet", latency_us: 9.0, bandwidth_mb_s: 230.0 };

    /// InfiniBand 4x SDR — typical 2005-era measurements.
    pub const INFINIBAND: NetworkTechnology =
        NetworkTechnology { name: "InfiniBand 4x", latency_us: 6.0, bandwidth_mb_s: 700.0 };

    /// Every built-in technology preset, ordered by bandwidth. The
    /// canonical enumeration axis for design-space search: a sweep or
    /// optimizer that consumes this list automatically picks up any
    /// preset added later (and exhaustive `match`es over preset names,
    /// like the capacity planner's cost catalogue, are tested against
    /// it so a new preset cannot be silently mispriced).
    pub const PRESETS: [NetworkTechnology; 4] = [
        NetworkTechnology::FAST_ETHERNET,
        NetworkTechnology::GIGABIT_ETHERNET,
        NetworkTechnology::MYRINET,
        NetworkTechnology::INFINIBAND,
    ];

    /// Time to transmit one byte, β = 1/bandwidth, in µs/byte.
    #[inline]
    pub fn byte_time_us(&self) -> f64 {
        1.0 / self.bandwidth_mb_s
    }

    /// Point-to-point message time without switches — paper eq. 10:
    /// `T = α + M·β` for a message of `message_bytes`.
    #[inline]
    pub fn point_to_point_time_us(&self, message_bytes: u64) -> f64 {
        self.latency_us + message_bytes as f64 * self.byte_time_us()
    }

    /// Half-power point n_{1/2}: the message size at which half of the
    /// peak bandwidth is achieved, `α/β` bytes. A classic figure of merit
    /// for interconnects.
    #[inline]
    pub fn half_power_point_bytes(&self) -> f64 {
        self.latency_us / self.byte_time_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        let ge = NetworkTechnology::GIGABIT_ETHERNET;
        assert_eq!(ge.latency_us, 80.0);
        assert_eq!(ge.bandwidth_mb_s, 94.0);
        let fe = NetworkTechnology::FAST_ETHERNET;
        assert_eq!(fe.latency_us, 50.0);
        assert_eq!(fe.bandwidth_mb_s, 10.5);
    }

    #[test]
    fn byte_time_is_inverse_bandwidth() {
        let fe = NetworkTechnology::FAST_ETHERNET;
        assert!((fe.byte_time_us() - 1.0 / 10.5).abs() < 1e-15);
    }

    #[test]
    fn point_to_point_eq10() {
        // 1024 B over GE: 80 + 1024/94 ≈ 90.894 µs.
        let t = NetworkTechnology::GIGABIT_ETHERNET.point_to_point_time_us(1024);
        assert!((t - (80.0 + 1024.0 / 94.0)).abs() < 1e-9);
        // Zero-byte message costs exactly the latency.
        assert_eq!(NetworkTechnology::FAST_ETHERNET.point_to_point_time_us(0), 50.0);
    }

    #[test]
    fn ge_beats_fe_for_large_messages_but_not_small() {
        let ge = NetworkTechnology::GIGABIT_ETHERNET;
        let fe = NetworkTechnology::FAST_ETHERNET;
        // Small message: FE's lower latency wins (50 < 80).
        assert!(fe.point_to_point_time_us(16) < ge.point_to_point_time_us(16));
        // Large message: GE's bandwidth wins.
        assert!(ge.point_to_point_time_us(100_000) < fe.point_to_point_time_us(100_000));
    }

    #[test]
    fn half_power_point() {
        let ge = NetworkTechnology::GIGABIT_ETHERNET;
        // alpha/beta = 80 µs * 94 B/µs = 7520 B.
        assert!((ge.half_power_point_bytes() - 7520.0).abs() < 1e-9);
        // At n_1/2 the effective bandwidth is half the peak.
        let t = ge.point_to_point_time_us(7520);
        let eff = 7520.0 / t;
        assert!((eff - ge.bandwidth_mb_s / 2.0).abs() < 1e-9);
    }

    #[test]
    fn custom_technology_validation() {
        assert!(NetworkTechnology::new("x", -1.0, 100.0).is_err());
        assert!(NetworkTechnology::new("x", 1.0, 0.0).is_err());
        assert!(NetworkTechnology::new("x", f64::NAN, 1.0).is_err());
        assert!(NetworkTechnology::new("x", 0.0, 1.0).is_ok());
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let techs = [
            NetworkTechnology::FAST_ETHERNET,
            NetworkTechnology::GIGABIT_ETHERNET,
            NetworkTechnology::MYRINET,
            NetworkTechnology::INFINIBAND,
        ];
        for w in techs.windows(2) {
            assert!(w[0].bandwidth_mb_s < w[1].bandwidth_mb_s);
        }
    }
}
