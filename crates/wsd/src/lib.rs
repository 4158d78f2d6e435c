//! # uprob-wsd — world tables, world-set descriptors and ws-sets
//!
//! This crate implements the representation substrate of
//! *Conditioning Probabilistic Databases* (Koch & Olteanu, VLDB 2008),
//! Sections 2 and 3:
//!
//! * a [`WorldTable`] of independent finite-domain random variables with a
//!   probability distribution per variable (the relation `W` of the paper),
//! * [`WsDescriptor`]s — partial assignments of variables to domain values
//!   that describe sets of possible worlds,
//! * [`WsSet`]s — sets of descriptors closed under the set operations
//!   union, intersection and difference (Section 3.2, Proposition 3.4),
//! * the syntactic checks for **mutual exclusion**, **independence** and
//!   **containment** of descriptors and ws-sets (Section 3.1).
//!
//! All higher layers (U-relations, ws-trees, confidence computation and
//! conditioning) are built on top of these types.
//!
//! ## Example
//!
//! The running example of the paper (Figure 2): two variables `j` and `b`
//! modelling the social security numbers of John and Bill.
//!
//! ```
//! use uprob_wsd::{WorldTable, WsDescriptor, WsSet};
//!
//! let mut w = WorldTable::new();
//! let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
//! let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
//!
//! // The worlds in which the functional dependency SSN -> NAME holds:
//! let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
//! let d2 = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
//! let good = WsSet::from_descriptors(vec![d1, d2]);
//!
//! // Aggregate prior probability of those worlds: .2 + .8*.3 = .44
//! let p: f64 = good.iter().map(|d| d.probability(&w)).sum();
//! assert!((p - 0.44).abs() < 1e-12);
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

pub mod descriptor;
pub mod error;
pub mod fast_hash;
pub mod leaf_lock;
pub mod numeric;
pub mod stamped;
pub mod value;
pub mod world_table;
pub mod ws_set;

pub use descriptor::WsDescriptor;
pub use error::WsdError;
pub use fast_hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use leaf_lock::LeafLock;
pub use numeric::NeumaierSum;
pub use stamped::Stamped;
pub use value::{DomainValue, ValueIndex, VarId};
pub use world_table::{VariableInfo, WorldTable};
pub use ws_set::{diff_descriptor_set, try_diff_descriptor_set, WsSet};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, WsdError>;
