//! # uprob-urel — U-relations and positive relational algebra
//!
//! This crate implements the probabilistic database model of
//! *Conditioning Probabilistic Databases* (Koch & Olteanu, VLDB 2008),
//! Section 2:
//!
//! * relational [`Value`]s, [`Tuple`]s and [`Schema`]s,
//! * [`URelation`]s: relations in which every tuple carries a world-set
//!   descriptor over a shared [`uprob_wsd::WorldTable`],
//! * [`ProbDb`]: a probabilistic database (a world table plus a set of
//!   U-relations) with possible-world semantics,
//! * the **positive relational algebra** on U-relations — selection,
//!   projection, join (with the ws-descriptor consistency condition),
//!   cross product, union, rename, distinct — as **logical query plans**:
//!   the [`Plan`] AST, the rule-based [`optimize_plan`] rewriter
//!   (predicate/projection pushdown, select-product → join recognition,
//!   trivial-predicate and empty-relation pruning) and the pipelined
//!   [`execute_plan`] executor with hash equi-joins. [`ProbDb::query`]
//!   runs both and is the one way to evaluate a query,
//! * the constraint **violation-plan builders** ([`violations`]): FD/key
//!   self-joins, row-filter complements and denial-constraint
//!   conjunctive queries as plans.
//!
//! The query/constraint layer (`uprob-query`) and the confidence /
//! conditioning algorithms (`uprob-core`) are built on top of this crate.
//!
//! ## Example
//!
//! The database of Figure 2 of the paper:
//!
//! ```
//! use uprob_urel::{ProbDb, Schema, ColumnType, Value, Tuple};
//! use uprob_wsd::WsDescriptor;
//!
//! let mut db = ProbDb::new();
//! let j = db.world_table_mut().add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
//! let b = db.world_table_mut().add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
//!
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
//! assert_eq!(db.relation("R").unwrap().len(), 4);
//! assert_eq!(db.world_table().world_count(), Some(4));
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

pub mod database;
pub mod delta;
pub mod error;
pub mod exec;
pub mod optimizer;
pub mod plan;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod violations;

pub use database::ProbDb;
pub use delta::{DeltaBuilder, DeltaReport};
pub use error::UrelError;
pub use exec::execute_plan;
pub use optimizer::optimize_plan;
pub use plan::Plan;
pub use predicate::{ColumnRef, Comparison, Expr, Predicate};
pub use relation::URelation;
pub use schema::{Column, ColumnType, Schema};
pub use tuple::Tuple;
pub use value::Value;
pub use violations::{
    denial_constraint_plan, fd_violation_plan, row_filter_violation_plan, FD_SELF_JOIN_ALIAS,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, UrelError>;
