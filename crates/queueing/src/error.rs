//! Error type shared by all queueing computations.

use std::fmt;

/// Errors reported by queueing-theory computations.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueingError {
    /// A rate (arrival or service) was negative, zero where positivity is
    /// required, NaN or infinite.
    InvalidRate {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The offered load meets or exceeds capacity, so no steady state
    /// exists (ρ ≥ 1 for an unbounded queue).
    Unstable {
        /// Offered load ρ = λ/(c·µ).
        rho: f64,
    },
    /// A structural parameter (server count, buffer size, population …)
    /// was out of range.
    InvalidParameter {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        reason: &'static str,
    },
}

impl fmt::Display for QueueingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueingError::InvalidRate { name, value } => {
                write!(f, "invalid rate {name} = {value}")
            }
            QueueingError::Unstable { rho } => {
                write!(f, "queue is unstable: offered load rho = {rho} >= 1")
            }
            QueueingError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
        }
    }
}

impl std::error::Error for QueueingError {}

/// Validates that `value` is a finite, non-negative rate.
pub(crate) fn check_nonneg_rate(name: &'static str, value: f64) -> Result<(), QueueingError> {
    if !value.is_finite() || value < 0.0 {
        return Err(QueueingError::InvalidRate { name, value });
    }
    Ok(())
}

/// Validates that `value` is a finite, strictly positive rate.
pub(crate) fn check_pos_rate(name: &'static str, value: f64) -> Result<(), QueueingError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(QueueingError::InvalidRate { name, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let cases: Vec<QueueingError> = vec![
            QueueingError::InvalidRate { name: "lambda", value: -1.0 },
            QueueingError::Unstable { rho: 1.5 },
            QueueingError::InvalidParameter { name: "servers", reason: "must be >= 1" },
        ];
        for c in cases {
            let s = format!("{c}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn rate_checks_accept_valid_values() {
        assert!(check_nonneg_rate("x", 0.0).is_ok());
        assert!(check_nonneg_rate("x", 1.5).is_ok());
        assert!(check_pos_rate("x", 1e-12).is_ok());
    }

    #[test]
    fn rate_checks_reject_invalid_values() {
        assert!(check_nonneg_rate("x", -0.1).is_err());
        assert!(check_nonneg_rate("x", f64::NAN).is_err());
        assert!(check_nonneg_rate("x", f64::INFINITY).is_err());
        assert!(check_pos_rate("x", 0.0).is_err());
        assert!(check_pos_rate("x", -1.0).is_err());
        assert!(check_pos_rate("x", f64::NAN).is_err());
    }

    #[test]
    fn error_implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(QueueingError::Unstable { rho: 1.5 });
        assert_eq!(e.to_string(), "queue is unstable: offered load rho = 1.5 >= 1");
    }
}
