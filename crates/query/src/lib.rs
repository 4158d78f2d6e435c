//! # uprob-query — queries with `conf()` and constraint-based conditioning
//!
//! The user-facing layer that ties the query plans of `uprob-urel`
//! to the exact confidence computation and conditioning of `uprob-core`:
//!
//! * [`confidence`]: the `conf()` aggregate — per-tuple confidence values of
//!   a query result, and the confidence of Boolean queries;
//! * [`constraints`]: integrity constraints (functional dependencies, keys,
//!   row-level predicates, inclusion dependencies / foreign keys,
//!   cross-relation denial constraints and arbitrary Boolean violation
//!   plans), validated up front and compiled — through the optimized
//!   pipelined executor — into the ws-set of the worlds that *satisfy*
//!   them; the `assert[·]` operation that conditions a database on a
//!   constraint (Section 5); and the single-pass `assert_all` that
//!   conditions on a whole constraint set at once;
//! * the confidence comparison predicates that motivate exact computation
//!   in the paper (e.g. `conf(t) = 1`, "certain answers");
//! * [`planned`]: the same `conf()` aggregates over logical query plans —
//!   `ProbDb::query(plan)` (rule-based optimization + pipelined hash-join
//!   execution) composed with the batch confidence paths in one call;
//! * [`service`]: the snapshot-isolated concurrent serving layer —
//!   [`ProbDbService`] serves `query`/`conf`/`assert_all` to any number of
//!   threads against immutable [`Snapshot`]s — each a stamped database and
//!   its decomposition cache — publishing conditioned databases by atomic
//!   swap.
//!
//! ## Example: the introduction's data-cleaning scenario
//!
//! ```
//! use uprob_query::confidence::tuple_confidences;
//! use uprob_query::constraints::{assert_constraint, Constraint};
//! use uprob_urel::{ColumnType, Plan, Predicate, ProbDb, Schema, Tuple, Value};
//! use uprob_wsd::WsDescriptor;
//!
//! // The SSN database of Figure 2.
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
//! // assert[SSN -> NAME]: social security numbers are unique.
//! let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
//! let conditioned = assert_constraint(&db, &fd, &Default::default()).unwrap();
//! assert!((conditioned.confidence - 0.44).abs() < 1e-9);
//!
//! // select SSN, conf() from R where NAME = 'Bill' group by SSN;
//! let bills = conditioned.db
//!     .query(&Plan::scan("R").select(Predicate::col_eq("NAME", "Bill")).project(&["SSN"]))
//!     .unwrap();
//! let answers = tuple_confidences(&bills, conditioned.db.world_table(), &Default::default()).unwrap();
//! // P(Bill has SSN 4 | the FD holds) = .3/.44 ≈ .68.
//! let p4 = answers.iter().find(|(t, _)| t.get(0) == Some(&Value::Int(4))).unwrap().1;
//! assert!((p4 - 0.3 / 0.44).abs() < 1e-9);
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

pub mod confidence;
pub mod constraints;
pub mod error;
pub mod planned;
pub mod service;

pub use confidence::{
    answer_confidences_with_options, answer_confidences_with_strategy, boolean_confidence,
    certain_tuples, possible_tuples, tuple_confidences, AnswerConfidences,
    StrategyAnswerConfidences,
};
pub use constraints::{
    assert_all, assert_all_delta, assert_all_with_strategy, assert_constraint, Assertion,
    Constraint, EstimatedAssertion, ViolationMemo,
};
pub use error::QueryError;
pub use planned::{
    planned_answer_confidences_with_options, planned_answer_confidences_with_strategy,
    planned_boolean_confidence,
};
pub use service::{
    AssertOutcome, DeltaOutcome, ProbDbService, ServiceOptions, ServiceStats, Snapshot,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueryError>;
