//! SplitMix64 (Steele, Lea & Flood, 2014): the workspace's one small
//! seedable generator and 64-bit hash.
//!
//! The synthetic latency-matrix generator, the cluster-identification
//! pair sampler, the load generator and the kernel fuzz tests all draw
//! from this type, so equal seeds give equal streams everywhere.
//! `hmcs_des::rng` keeps its own private seed mixer with the same
//! constants: `hmcs-des` has no workspace dependency to import this one
//! through.

/// The golden-ratio increment between successive states.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer of `x + GAMMA`: a high-quality 64-bit hash, and
/// the first output of a stream seeded with `x`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Uniform index in `0..n` (`n > 0`) by 128-bit multiply.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_matches_the_reference_stream() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len());
    }
}
