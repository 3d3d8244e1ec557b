//! Error type for the analytical model.

use hmcs_queueing::QueueingError;
use hmcs_topology::latmatrix::MatrixError;
use hmcs_topology::TopologyError;
use std::fmt;

/// Errors reported by the analytical model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: &'static str,
    },
    /// A queueing computation failed (e.g. an unstable centre outside
    /// the solver's control).
    Queueing(QueueingError),
    /// A topology could not be constructed.
    Topology(TopologyError),
    /// A latency matrix could not be parsed or generated.
    Matrix(MatrixError),
    /// The effective-rate fixed point could not be solved.
    SolverFailed {
        /// Residual at the last iterate.
        residual: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidConfig { name, reason } => {
                write!(f, "invalid configuration {name}: {reason}")
            }
            ModelError::Queueing(e) => write!(f, "queueing error: {e}"),
            ModelError::Topology(e) => write!(f, "topology error: {e}"),
            ModelError::Matrix(e) => write!(f, "latency-matrix error: {e}"),
            ModelError::SolverFailed { residual } => {
                write!(f, "effective-rate solver failed (residual {residual:e})")
            }
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Queueing(e) => Some(e),
            ModelError::Topology(e) => Some(e),
            ModelError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueueingError> for ModelError {
    fn from(e: QueueingError) -> Self {
        ModelError::Queueing(e)
    }
}

impl From<TopologyError> for ModelError {
    fn from(e: TopologyError) -> Self {
        ModelError::Topology(e)
    }
}

impl From<MatrixError> for ModelError {
    fn from(e: MatrixError) -> Self {
        ModelError::Matrix(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let q: ModelError = QueueingError::Unstable { rho: 1.2 }.into();
        assert!(format!("{q}").contains("rho"));
        let t: ModelError = TopologyError::InvalidParameter { name: "x", reason: "y" }.into();
        assert!(format!("{t}").contains("topology"));
        let m: ModelError = MatrixError::TooSmall { nodes: 1 }.into();
        assert!(format!("{m}").contains("matrix"));
        let c = ModelError::InvalidConfig { name: "clusters", reason: "must divide N" };
        assert!(format!("{c}").contains("clusters"));
        let s = ModelError::SolverFailed { residual: 1e-3 };
        assert!(format!("{s}").contains("solver"));
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let q: ModelError = QueueingError::Unstable { rho: 1.5 }.into();
        assert!(q.source().is_some());
        let c = ModelError::InvalidConfig { name: "x", reason: "y" };
        assert!(c.source().is_none());
    }
}
