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
//! * [`wstree`]: the ws-tree of Section 4 — the ws-set it denotes, the
//!   structural constraints of Definition 4.1 and Figure 7 over a
//!   materialised tree, which the confidence fold must agree with;
//! * [`worlds`]: the possible worlds of a world table and of a ws-set,
//!   enumerated, with their probabilities — the brute-force oracle of every
//!   exact method.
//!
//! This crate depends on the product crates, so no product crate can depend
//! on it: that would be a cycle, which Cargo rejects. Its users are the
//! facade's tests and examples, the tests of `uprob-datagen`, `uprob-core`
//! and `uprob-query` and `uprob-wsd`'s integration tests (all as a
//! dev-dependency) and `crates/bench`. (`uprob-core`'s oracle, the literal
//! row-threading Figure 8 recursion, stays a `#[cfg(test)]` module of that
//! crate because it is built on the crate-private `Decomposer`.)
//!
//! A dev-dependency cycle links a second copy of the crate under test, so
//! only types of the crates below it may cross: a `uprob-core` unit test can
//! hand a `uprob_wsd::WsSet` to [`worlds`], but a `uprob-wsd` or
//! `uprob-urel` unit test cannot hand over its own types. The product unit
//! tests that compare against one of these oracles and cannot reach it are
//! unit tests of this crate, in modules named after the product module they
//! test: `exec::tests` checks `uprob_urel::execute_plan`, `ws_set::tests`
//! checks `uprob_wsd::WsSet`'s set operations, `constraints::tests` checks
//! `uprob_query::Constraint`, and so on.

pub mod query;
pub mod urel;
pub mod worlds;
pub mod wstree;

#[cfg(test)]
mod algebra;
#[cfg(test)]
mod confidence;
#[cfg(test)]
mod constraints;
#[cfg(test)]
mod database;
#[cfg(test)]
mod descriptor;
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
#[cfg(test)]
mod world_table;
#[cfg(test)]
mod ws_set;
