//! # uprob-datagen — synthetic workloads for the experiments of the paper
//!
//! Section 7 of *Conditioning Probabilistic Databases* evaluates the
//! algorithms on two synthetic data sets; this crate regenerates both:
//!
//! * [`tpch`]: tuple-independent probabilistic databases shaped like the
//!   TPC-H tables touched by the paper's queries Q1 and Q2 (`customer`,
//!   `orders`, `lineitem`), with a Boolean random variable per tuple and a
//!   randomly chosen probability distribution, plus the two Boolean queries
//!   of Figure 10 ([`tpch_queries`]);
//! * [`hard`]: the #P-hard generator — ws-sets shaped like the answers of
//!   non-hierarchical join queries `R_1 ⋈ … ⋈ R_s` on tuple-independent
//!   databases, parameterised by the number of variables `n`, the number of
//!   alternatives per variable `r`, the descriptor length `s` and the
//!   number of descriptors `w`;
//! * [`random`]: small random world-tables and ws-sets (with non-uniform
//!   distributions) plus proptest strategies, feeding the differential
//!   confidence test harness;
//! * [`random_plan`]: small random U-relational databases and random query
//!   plans over them, feeding the differential plan-equivalence harness
//!   (`tests/plan_equivalence.rs`);
//! * [`random_constraints`]: random constraint workloads (with NULL
//!   injections) for the sequential-vs-batch `assert` harness
//!   (`tests/constraint_equivalence.rs`), plus the deterministic
//!   FK/denial fixture behind the `condition_assert` benchmark workload;
//! * [`sensor`]: the continuous-ingest sensor stream (fixed uncertain
//!   fleet, per-reading reliability variables, clean canonical
//!   constraints) behind the `sensor_ingest_serve` benchmark workload and
//!   the `sensor_tracking` example.
//!
//! The paper ran TPC-H's `dbgen` at scale factors 0.01–0.10 on a 2008-era
//! machine; this crate substitutes an in-process, seeded generator that
//! reproduces the join fan-out (each customer has several orders, each
//! order several lineitems) and the selectivities of the two queries, so
//! the *shape* of the answer ws-sets — which is all the algorithms see —
//! matches the paper's workload. See DESIGN.md for the substitution notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hard;
pub mod random;
pub mod random_constraints;
pub mod random_plan;
pub mod sensor;
pub mod tpch;
pub mod tpch_queries;

pub use hard::{HardInstance, HardInstanceConfig};
pub use random::{arb_small_recipe, random_small_instance, SmallInstance, SmallInstanceRecipe};
pub use random_constraints::{
    arb_constraint_case, ConstraintCaseRecipe, ConstraintRecipe, ConstraintWorkload,
    ConstraintWorkloadConfig,
};
pub use random_plan::{
    arb_plan_case, arb_small_db_recipe, PlanCaseRecipe, PlanRecipe, PredicateRecipe,
    RelationRecipe, SmallDbRecipe,
};
pub use sensor::{SensorConfig, SensorReading, SensorWorkload};
pub use tpch::{TpchConfig, TpchDatabase};
pub use tpch_queries::{
    q1_answer, q1_answer_relation, q1_plan, q2_answer, q2_answer_relation, q2_plan, QueryAnswer,
};
