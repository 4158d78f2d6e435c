//! # uprob — conditioning probabilistic databases
//!
//! A Rust implementation of *Conditioning Probabilistic Databases*
//! (Christoph Koch & Dan Olteanu, VLDB 2008): U-relational probabilistic
//! databases, world-set descriptors, exact confidence computation by
//! Davis–Putnam-style decomposition (a fold over the ws-tree that never
//! materialises it), and the `assert[·]` conditioning operation that turns
//! a database of priors into a posterior database.
//!
//! This crate is a facade that re-exports the workspace crates:
//!
//! | module | contents |
//! |--------|----------|
//! | [`wsd`] | world tables, ws-descriptors, ws-sets and their set algebra |
//! | [`urel`] | values, tuples, schemas, U-relations, probabilistic databases and the positive relational algebra as query plans |
//! | [`core`] | the INDVE/VE decomposition with the minlog/minmax heuristics, exact confidence, ws-descriptor elimination and conditioning |
//! | [`approx`] | the Karp–Luby / Dagum-et-al. Monte-Carlo baseline |
//! | [`query`] | `conf()` aggregates, constraints, `assert` and the snapshot-isolated [`ProbDbService`](query::ProbDbService) serving layer |
//!
//! The [`prelude`] re-exports the types needed by typical applications.
//!
//! ## Quickstart
//!
//! ```
//! use uprob::prelude::*;
//!
//! // A probabilistic database: John's SSN is 1 or 7, Bill's is 4 or 7.
//! let mut db = ProbDb::new();
//! let j = db.world_table_mut().add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
//! let b = db.world_table_mut().add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
//! let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
//! let mut r = db.create_relation(schema).unwrap();
//! {
//!     let w = db.world_table();
//!     r.push(Tuple::new(vec![Value::Int(1), Value::str("John")]),
//!            WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap());
//!     r.push(Tuple::new(vec![Value::Int(7), Value::str("John")]),
//!            WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap());
//!     r.push(Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
//!            WsDescriptor::from_pairs(w, &[(b, 4)]).unwrap());
//!     r.push(Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
//!            WsDescriptor::from_pairs(w, &[(b, 7)]).unwrap());
//! }
//! db.insert_relation(r).unwrap();
//!
//! // assert[SSN -> NAME] and ask for P(Bill's SSN = 4 | the FD holds).
//! let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
//! let posterior = assert_constraint(&db, &fd, &ConditioningOptions::default()).unwrap();
//! assert!((posterior.confidence - 0.44).abs() < 1e-9);
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

#[cfg(clippy)]
mod clippy_contract;

pub use uprob_approx as approx;
pub use uprob_core as core;
pub use uprob_query as query;
pub use uprob_urel as urel;
pub use uprob_wsd as wsd;

/// The types most applications need.
pub mod prelude {
    pub use uprob_approx::{
        conditioned_monte_carlo, karp_luby_epsilon_delta, optimal_monte_carlo,
        ApproximationOptions, KarpLuby,
    };
    pub use uprob_core::{
        available_workers, condition, confidence, confidence_by_elimination, confidence_parallel,
        estimate_conditioned_confidence_with_options, estimate_confidence,
        estimate_confidence_with_options, CacheStats, ConditioningOptions, ConfidenceReport,
        ConfidenceStrategy, DecompositionMethod, DecompositionOptions, InheritOutcome,
        ParallelOptions, ResolvedPath, SamplingStats, SharedDecompositionCache, VariableHeuristic,
    };
    pub use uprob_query::{
        answer_confidences_with_options, answer_confidences_with_strategy, assert_all,
        assert_all_delta, assert_all_with_strategy, assert_constraint, boolean_confidence,
        certain_tuples, planned_answer_confidences_with_options, possible_tuples,
        tuple_confidences, AnswerConfidences, AssertOutcome, Assertion, Constraint, DeltaOutcome,
        EstimatedAssertion, ProbDbService, ServiceOptions, ServiceStats, Snapshot, ViolationMemo,
    };
    pub use uprob_urel::{
        execute_plan, optimize_plan, ColumnType, Comparison, DeltaBuilder, DeltaReport, Expr, Plan,
        Predicate, ProbDb, Schema, Tuple, URelation, Value,
    };
    pub use uprob_wsd::{DomainValue, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};
}
