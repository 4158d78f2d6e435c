//! # uprob-core — ws-trees, exact confidence computation and conditioning
//!
//! The primary contribution of *Conditioning Probabilistic Databases*
//! (Koch & Olteanu, VLDB 2008), implemented on top of the `uprob-wsd` and
//! `uprob-urel` substrates:
//!
//! * [`WsTree`]: world-set trees (Section 4) with ⊗ (independence) and ⊕
//!   (mutually exclusive variable branching) nodes;
//! * [`decompose`]: the Davis–Putnam-style translation of ws-sets into
//!   ws-trees (`ComputeTree`, Figure 4), with independent partitioning and
//!   variable elimination and the **minlog** / **minmax** heuristics
//!   (Section 4.2, Figure 6);
//! * [`mod@confidence`]: exact probability computation (Figure 7), streamed over
//!   the decomposition without materialising the tree;
//! * [`elimination`]: the alternative ws-descriptor elimination method (WE,
//!   Section 6);
//! * [`conditioning`]: the `assert[B]` operation (Section 5, Figure 8) that
//!   transforms a database of priors into a posterior database, with the
//!   three simplification optimisations;
//! * [`cache`]: the shared decomposition cache — hash-consed canonical
//!   ws-set keys memoizing sub-set probabilities, shared across the
//!   confidence fold and the batch query layer (see `DESIGN.md`);
//! * [`parallel`]: parallel exact confidence — the top of the ws-tree is
//!   split on the calling thread, its independent partitions and ⊕-split
//!   siblings are solved as scoped jobs, and the splits fold in canonical
//!   child order so results are **bit-identical** to the sequential fold
//!   for every worker count;
//! * [`engine`]: the unified confidence engine — an explicit
//!   [`ConfidenceStrategy`] (`Exact` / `Approximate(ε, δ)` /
//!   `Hybrid { budget, ε, δ }`) that runs the cached exact decomposition
//!   under a node budget and transparently falls back to Karp–Luby/Dagum
//!   sampling, including conditioned confidence `P(Q ∧ C)/P(C)`.
//!
//! The literal row-threading Figure 8 recursion that [`condition`] is
//! differentially tested against is a `#[cfg(test)]` module of this crate:
//! an oracle, not product API.
//!
//! ## Quick example
//!
//! ```
//! use uprob_wsd::{WorldTable, WsDescriptor, WsSet};
//! use uprob_core::{confidence, DecompositionOptions};
//!
//! // The ws-set S of Figure 3 of the paper; its probability is 0.7578.
//! let mut w = WorldTable::new();
//! let x = w.add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)]).unwrap();
//! let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
//! let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
//! let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
//! let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
//! let s = WsSet::from_descriptors(vec![
//!     WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
//!     WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
//!     WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
//!     WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
//!     WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
//! ]);
//! let result = confidence(&s, &w, &DecompositionOptions::indve_minlog()).unwrap();
//! assert!((result.probability - 0.7578).abs() < 1e-12);
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

pub mod cache;
pub mod conditioning;
pub mod confidence;
pub mod decompose;
pub mod elimination;
pub mod engine;
pub mod error;
pub mod heuristics;
pub mod parallel;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod wstree;

pub use cache::{CacheStats, InheritOutcome, SharedDecompositionCache};
pub use conditioning::{condition, Conditioned, ConditioningOptions};
pub use confidence::{confidence, tree_probability};
pub use decompose::{build_tree, DecompositionMethod, DecompositionOptions};
pub use elimination::confidence_by_elimination;
pub use engine::{
    estimate_conditioned_confidence, estimate_conditioned_confidence_with_options,
    estimate_confidence, estimate_confidence_with_options, ConfidenceReport, ConfidenceStrategy,
    ResolvedPath, SamplingStats,
};
pub use error::CoreError;
pub use heuristics::VariableHeuristic;
pub use parallel::{available_workers, confidence_parallel, ParallelOptions};
pub use stats::{Confidence, DecompositionStats};
pub use uprob_approx::{fan_out_indexed, ApproximationOptions};
pub use wstree::WsTree;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
