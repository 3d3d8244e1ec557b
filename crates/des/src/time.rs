//! Simulation time.
//!
//! Time is kept as a `f64` count of microseconds wrapped in a newtype so
//! that durations and instants cannot be confused with other floats. The
//! whole workspace uses microseconds (the unit of the paper's latency
//! constants) and converts to milliseconds only for reporting.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant (or duration) on the simulation clock, in microseconds.
///
/// `SimTime` is totally ordered; constructing or deriving a NaN time is
/// a programming error and panics on comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from microseconds.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative input.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        assert!(us >= 0.0, "SimTime must be non-negative, got {us}");
        SimTime(us)
    }

    /// Creates a time from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        Self::from_us(s * 1e6)
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    #[inline]
    pub(crate) fn as_ms(self) -> f64 {
        self.0 / 1e3
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1e6
    }

    /// Saturating subtraction: `max(self − other, 0)`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("NaN SimTime")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Difference between two instants.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative (durations are
    /// non-negative by construction).
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        assert!(self.0 >= rhs.0, "SimTime subtraction underflow: {} - {}", self.0, rhs.0);
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3} s", self.as_secs())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} ms", self.as_ms())
        } else {
            write!(f, "{:.3} µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_us(1500.0);
        assert_eq!(t.as_us(), 1500.0);
        assert_eq!(t.as_ms(), 1.5);
        assert_eq!(SimTime::from_secs(2.0).as_us(), 2e6);
        assert_eq!(SimTime::from_secs(2.0).as_secs(), 2.0);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_us(10.0);
        let b = SimTime::from_us(20.0);
        assert!(a < b);
        assert_eq!(a + a, b);
        assert_eq!(b - a, a);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        let mut c = a;
        c += a;
        assert_eq!(c, b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_us(1.0) - SimTime::from_us(2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        SimTime::from_us(-1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_us(5.0)), "5.000 µs");
        assert_eq!(format!("{}", SimTime::from_us(5000.0)), "5.000 ms");
        assert_eq!(format!("{}", SimTime::from_secs(5.0)), "5.000 s");
    }
}
