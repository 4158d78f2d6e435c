//! # uprob-approx — Monte-Carlo approximation of ws-set confidence
//!
//! The approximation baseline that the paper's experiments (Section 7)
//! compare the exact algorithms against:
//!
//! * [`karp_luby`]: the Karp–Luby *coverage* estimator for the probability
//!   of a union of ws-descriptors (the DNF-counting FPRAS of Karp & Luby,
//!   in the faster unbiased-estimator form described in Vazirani's book and
//!   similar to the self-adjusting coverage algorithm of Karp, Luby &
//!   Madras), generalised from Boolean DNF to ws-descriptors over
//!   finite-domain variables;
//! * [`dagum`]: the optimal Monte-Carlo stopping rule of Dagum, Karp, Luby &
//!   Ross used by the paper to pick a small sufficient number of iterations.
//!
//! All estimators are deterministic given a seed, so benchmark runs are
//! reproducible. Sampling loops are pre-partitioned into fixed RNG streams
//! ([`parallel`]); every entry point takes the number of sampling threads
//! as its last argument and returns the same bits for every value of it.
//!
//! ```
//! use uprob_wsd::{WorldTable, WsDescriptor, WsSet};
//! use uprob_approx::{karp_luby::KarpLuby, ApproximationOptions};
//!
//! let mut w = WorldTable::new();
//! let a = w.add_boolean("a", 0.5).unwrap();
//! let b = w.add_boolean("b", 0.5).unwrap();
//! let s = WsSet::from_descriptors(vec![
//!     WsDescriptor::from_pairs(&w, &[(a, 1)]).unwrap(),
//!     WsDescriptor::from_pairs(&w, &[(b, 1)]).unwrap(),
//! ]);
//! let estimate = KarpLuby::new(&s, &w)
//!     .unwrap()
//!     .estimate_fixed_parallel(20_000, &ApproximationOptions::default(), 2);
//! assert!((estimate - 0.75).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason
    )
)]

pub mod conditioned;
pub mod dagum;
pub mod error;
pub mod karp_luby;
pub mod parallel;
pub mod pool;
mod sampler;

pub use conditioned::{conditioned_monte_carlo, ConditionedEstimate};
pub use dagum::{optimal_monte_carlo, StoppingRuleResult};
pub use error::ApproxError;
pub use karp_luby::{karp_luby_epsilon_delta, KarpLuby};
pub use pool::fan_out_indexed;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ApproxError>;

/// Options shared by the approximation algorithms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproximationOptions {
    /// Relative error bound ε (0 < ε < 1).
    pub epsilon: f64,
    /// Failure probability δ (0 < δ < 1).
    pub delta: f64,
    /// Seed for the deterministic random number generator. Every estimator
    /// run derives its RNG (and the RNGs of its sampling streams) from this
    /// seed alone, so a given `(instance, options)` pair always reproduces
    /// the same estimate — there is no entropy-seeded path.
    pub seed: u64,
}

impl Default for ApproximationOptions {
    fn default() -> Self {
        ApproximationOptions {
            epsilon: 0.1,
            delta: 0.01,
            seed: 0xC0FFEE,
        }
    }
}

impl ApproximationOptions {
    /// Returns a copy with the given ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Returns a copy with the given δ.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A derived seed for an auxiliary RNG stream (a sampling worker stream,
    /// a per-tuple estimator of a batch, or the numerator / denominator of a
    /// conditioned estimate). The derivation is a SplitMix64 finalizer over
    /// the base seed and the stream index, so distinct streams get
    /// statistically independent generators while remaining a pure function
    /// of `(seed, stream)`.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        split_mix64(self.seed ^ split_mix64(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// The deterministic RNG of stream `stream` (see
    /// [`ApproximationOptions::stream_seed`]).
    pub fn rng_for_stream(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.stream_seed(stream))
    }

    /// Validates ε and δ.
    ///
    /// # Errors
    ///
    /// Returns [`ApproxError::InvalidParameter`] if either bound is outside
    /// `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ApproxError::InvalidParameter {
                name: "epsilon",
                value: self.epsilon,
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(ApproxError::InvalidParameter {
                name: "delta",
                value: self.delta,
            });
        }
        Ok(())
    }
}

/// The SplitMix64 finalizer used to derive stream seeds.
fn split_mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_valid() {
        let options = ApproximationOptions::default();
        assert!(options.validate().is_ok());
        assert_eq!(options.epsilon, 0.1);
        assert_eq!(options.delta, 0.01);
    }

    #[test]
    fn builders_update_fields() {
        let options = ApproximationOptions::default()
            .with_epsilon(0.01)
            .with_delta(0.05)
            .with_seed(7);
        assert_eq!(options.epsilon, 0.01);
        assert_eq!(options.delta, 0.05);
        assert_eq!(options.seed, 7);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ApproximationOptions::default()
            .with_epsilon(0.0)
            .validate()
            .is_err());
        assert!(ApproximationOptions::default()
            .with_epsilon(1.5)
            .validate()
            .is_err());
        assert!(ApproximationOptions::default()
            .with_delta(0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::RngExt;
        let mut a = ApproximationOptions::default()
            .with_seed(3)
            .rng_for_stream(0);
        let mut b = ApproximationOptions::default()
            .with_seed(3)
            .rng_for_stream(0);
        assert_eq!(
            a.random_range(0..1_000_000u64),
            b.random_range(0..1_000_000u64)
        );
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let options = ApproximationOptions::default().with_seed(42);
        assert_eq!(options.stream_seed(0), options.stream_seed(0));
        let seeds: std::collections::HashSet<u64> =
            (0..100).map(|s| options.stream_seed(s)).collect();
        assert_eq!(seeds.len(), 100, "stream seeds must not collide");
        // Different base seeds derive different stream seeds.
        let other = ApproximationOptions::default().with_seed(43);
        assert_ne!(options.stream_seed(7), other.stream_seed(7));
    }

    #[test]
    fn worker_resolution_clamps_to_available_work() {
        use uprob_wsd::{WorldTable, WsDescriptor, WsSet};
        // 100 iterations are one stream: a worker count of 0 or 64 is
        // clamped to the one job there is, and the bits do not move.
        let mut w = WorldTable::new();
        let a = w.add_boolean("a", 0.5).unwrap();
        let b = w.add_boolean("b", 0.5).unwrap();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(a, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(b, 1)]).unwrap(),
        ]);
        let estimator = KarpLuby::new(&set, &w).unwrap();
        let options = ApproximationOptions::default();
        let inline = estimator.estimate_fixed_parallel(100, &options, 1);
        for workers in [0, 64] {
            let got = estimator.estimate_fixed_parallel(100, &options, workers);
            assert_eq!(got.to_bits(), inline.to_bits(), "workers {workers}");
        }
    }
}
