//! Error type for the world-set descriptor substrate.

use std::fmt;

use crate::value::{DomainValue, VarId};

/// Errors raised when constructing or manipulating world tables and
/// world-set descriptors.
#[derive(Debug, Clone, PartialEq)]
pub enum WsdError {
    /// A variable's probability distribution does not sum to one.
    DistributionNotNormalized {
        /// Human-readable variable name.
        name: String,
        /// The actual sum of the supplied probabilities.
        sum: f64,
    },
    /// A probability outside `[0, 1]` was supplied.
    InvalidProbability {
        /// Human-readable variable name.
        name: String,
        /// The offending probability.
        probability: f64,
    },
    /// A variable was declared with an empty domain.
    EmptyDomain {
        /// Human-readable variable name.
        name: String,
    },
    /// The same domain value was listed twice for one variable.
    DuplicateDomainValue {
        /// Human-readable variable name.
        name: String,
        /// The repeated value label.
        value: DomainValue,
    },
    /// A variable name was registered twice.
    DuplicateVariable {
        /// The repeated name.
        name: String,
    },
    /// A [`VarId`] does not belong to the world table it was used with.
    UnknownVariable {
        /// The unknown identifier.
        var: VarId,
    },
    /// A value label is not part of the variable's domain.
    UnknownValue {
        /// The variable whose domain was searched.
        var: VarId,
        /// The value label that was not found.
        value: DomainValue,
    },
    /// Two assignments for the same variable with different values were
    /// combined into one descriptor (descriptors must be functional).
    NotFunctional {
        /// The variable assigned twice.
        var: VarId,
    },
    /// A domain exceeded the maximum supported size (`u16::MAX` alternatives),
    /// or adding it would overflow the world table's `u32` column offsets.
    DomainTooLarge {
        /// Human-readable variable name.
        name: String,
        /// Requested domain size.
        size: usize,
    },
}

impl fmt::Display for WsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsdError::DistributionNotNormalized { name, sum } => write!(
                f,
                "probability distribution of variable '{name}' sums to {sum}, expected 1"
            ),
            WsdError::InvalidProbability { name, probability } => write!(
                f,
                "variable '{name}' has probability {probability} outside [0, 1]"
            ),
            WsdError::EmptyDomain { name } => {
                write!(f, "variable '{name}' declared with an empty domain")
            }
            WsdError::DuplicateDomainValue { name, value } => write!(
                f,
                "variable '{name}' lists domain value {value} more than once"
            ),
            WsdError::DuplicateVariable { name } => {
                write!(f, "variable '{name}' registered twice")
            }
            WsdError::UnknownVariable { var } => {
                write!(f, "variable {var} is not part of this world table")
            }
            WsdError::UnknownValue { var, value } => {
                write!(f, "value {value} is not in the domain of variable {var}")
            }
            WsdError::NotFunctional { var } => write!(
                f,
                "descriptor assigns two different values to variable {var}"
            ),
            WsdError::DomainTooLarge { name, size } => write!(
                f,
                "variable '{name}' with {size} alternatives exceeds the supported domain or world-table size"
            ),
        }
    }
}

impl std::error::Error for WsdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = WsdError::DistributionNotNormalized {
            name: "x".into(),
            sum: 0.9,
        };
        assert!(e.to_string().contains("sums to 0.9"));

        let e = WsdError::UnknownValue {
            var: VarId(3),
            value: 17,
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("x3"));

        let e = WsdError::NotFunctional { var: VarId(0) };
        assert!(e.to_string().contains("two different values"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&WsdError::EmptyDomain { name: "v".into() });
    }
}
