//! # uprob-reference — the oracles the product paths are tested against
//!
//! The product crates have exactly one implementation of each operator.
//! The literal, slow translations they are differentially tested against
//! live here, outside every product crate:
//!
//! * [`urel`]: the eager, materializing positive relational algebra and its
//!   plan interpreter — the oracle of `ProbDb::query` (optimizer +
//!   pipelined hash joins);
//! * [`query`]: the eager violation compilation of every constraint form and
//!   the cache-free, thread-free per-tuple confidence fold;
//! * [`wstree`]: the ws-set a ws-tree denotes and the structural constraints
//!   of Definition 4.1 — the oracle of `uprob_core::build_tree`.
//!
//! This crate depends on the product crates, so no product crate can depend
//! on it: that would be a cycle, which Cargo rejects. Its users are the
//! facade's tests and examples, `uprob-datagen`'s tests (both as a
//! dev-dependency) and `crates/bench`. (`uprob-core`'s oracle, the literal
//! row-threading Figure 8 recursion, stays a `#[cfg(test)]` module of that
//! crate because it is built on the crate-private `Decomposer`.)
//!
//! The product unit tests that compare against one of these oracles are
//! unit tests of this crate, in modules named after the product module they
//! test: `exec::tests` checks `uprob_urel::execute_plan`, `constraints::tests`
//! checks `uprob_query::Constraint`, and so on.

pub mod query;
pub mod urel;
pub mod wstree;

#[cfg(test)]
mod algebra;
#[cfg(test)]
mod confidence;
#[cfg(test)]
mod constraints;
#[cfg(test)]
mod decompose;
#[cfg(test)]
mod exec;
#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod optimizer;
#[cfg(test)]
mod plan;
#[cfg(test)]
mod violations;
