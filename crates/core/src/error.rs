//! Error type for decomposition, confidence computation and conditioning.

use std::fmt;

use uprob_urel::UrelError;
use uprob_wsd::WsdError;

/// Errors raised by the decomposition, confidence and conditioning
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Conditioning was attempted on an empty (or zero-probability)
    /// world-set; the posterior is undefined.
    EmptyCondition,
    /// The configured node budget was exhausted before the computation
    /// finished (used by the benchmark harness to emulate timeouts).
    BudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// A shared decomposition cache was reused with a different world
    /// table than the one it was first populated from. Cached
    /// probabilities are only valid for one (unmutated) table; hold one
    /// cache per database version (see DESIGN.md).
    CacheTableMismatch {
        /// Stamp of the world table the cache is bound to.
        bound: u64,
        /// Stamp of the world table of the rejected call.
        given: u64,
    },
    /// An error bubbled up from the ws-descriptor layer.
    Wsd(WsdError),
    /// An error bubbled up from the U-relation layer.
    Urel(UrelError),
    /// An error bubbled up from the Monte-Carlo approximation layer (the
    /// sampling fallback of the hybrid confidence engine).
    Approx(uprob_approx::ApproxError),
    /// The `UPROB_WORKERS` environment variable (or an equivalent worker
    /// spec) was set but did not parse as a positive integer. Malformed
    /// specs are rejected rather than silently falling back to an
    /// automatic worker count: a CI determinism matrix that typos its
    /// worker knob must fail loudly, not quietly test the wrong policy.
    InvalidWorkerSpec {
        /// The rejected raw value.
        spec: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyCondition => {
                write!(f, "cannot condition on an empty or impossible world-set")
            }
            CoreError::BudgetExceeded { budget } => {
                write!(f, "decomposition exceeded the node budget of {budget}")
            }
            CoreError::CacheTableMismatch { bound, given } => {
                write!(
                    f,
                    "decomposition cache is bound to world table {bound} but was \
                     used with world table {given}; hold one cache per database"
                )
            }
            CoreError::Wsd(e) => write!(f, "world-set descriptor error: {e}"),
            CoreError::Urel(e) => write!(f, "U-relation error: {e}"),
            CoreError::Approx(e) => write!(f, "approximation error: {e}"),
            CoreError::InvalidWorkerSpec { spec } => {
                write!(
                    f,
                    "invalid worker spec {spec:?}: expected a positive integer                      (unset or empty means automatic)"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Wsd(e) => Some(e),
            CoreError::Urel(e) => Some(e),
            CoreError::Approx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WsdError> for CoreError {
    fn from(e: WsdError) -> Self {
        CoreError::Wsd(e)
    }
}

impl From<UrelError> for CoreError {
    fn from(e: UrelError) -> Self {
        CoreError::Urel(e)
    }
}

impl From<uprob_approx::ApproxError> for CoreError {
    fn from(e: uprob_approx::ApproxError) -> Self {
        CoreError::Approx(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::EmptyCondition.to_string().contains("empty"));
        assert!(CoreError::BudgetExceeded { budget: 10 }
            .to_string()
            .contains("10"));
        let e: CoreError = WsdError::EmptyDomain { name: "x".into() }.into();
        assert!(e.to_string().contains("world-set descriptor"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: CoreError = WsdError::EmptyDomain { name: "x".into() }.into();
        assert!(e.source().is_some());
        assert!(CoreError::EmptyCondition.source().is_none());
    }
}
