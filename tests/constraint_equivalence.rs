//! Differential constraint harness: on randomly generated small
//! U-relational databases (NULL injections included) and random
//! constraint sets (`uprob_datagen::random_constraints`),
//!
//! 1. the **planned** violation compilation (`ProbDb::query` through the
//!    optimizer and the pipelined hash-join executor) must produce
//!    exactly the same violation ws-set as the **eager reference**
//!    compilation, and both must agree world-by-world with an independent
//!    per-instance semantic oracle re-implemented here;
//! 2. the single-pass [`assert_all`] must produce the same posterior
//!    distribution — and the same satisfiability verdict — as folding
//!    [`assert_constraint`] one constraint at a time, with bit-identical
//!    results on singleton sets.
//!
//! All randomness is driven by the (deterministic, pinned-seed) vendored
//! proptest runner; a failing case prints the full
//! [`ConstraintCaseRecipe`], which reproduces the instance exactly via
//! `recipe.build_db()` and `recipe.build_constraints(&db)`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use uprob::prelude::*;
use uprob::query::QueryError;
use uprob_datagen::arb_constraint_case;

/// SQL-style equality: both values non-NULL and equal.
fn sql_eq(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a == b
}

/// Independent per-world oracle: does the deterministic `instance`
/// violate `constraint`? Re-implements the documented semantics directly
/// over materialised world instances — no ws-sets, no plans.
fn instance_violates(
    db: &ProbDb,
    instance: &BTreeMap<String, Vec<Tuple>>,
    constraint: &Constraint,
) -> bool {
    match constraint {
        Constraint::FunctionalDependency {
            relation,
            determinant,
            dependent,
        } => fd_violated(db, instance, relation, determinant, dependent),
        Constraint::Key { relation, columns } => {
            let schema = db.relation(relation).unwrap().schema();
            let dependent: Vec<String> = schema
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .filter(|name| !columns.contains(name))
                .collect();
            fd_violated(db, instance, relation, columns, &dependent)
        }
        Constraint::RowFilter {
            relation,
            predicate,
        } => {
            let schema = db.relation(relation).unwrap().schema();
            instance[relation]
                .iter()
                .any(|t| !predicate.eval(schema, t).unwrap())
        }
        Constraint::InclusionDependency {
            child,
            child_columns,
            parent,
            parent_columns,
        } => {
            let child_schema = db.relation(child).unwrap().schema();
            let parent_schema = db.relation(parent).unwrap().schema();
            let c_idx: Vec<usize> = child_columns
                .iter()
                .map(|c| child_schema.column_index(c).unwrap())
                .collect();
            let p_idx: Vec<usize> = parent_columns
                .iter()
                .map(|c| parent_schema.column_index(c).unwrap())
                .collect();
            instance[child].iter().any(|t| {
                // A child key containing NULL satisfies the FK.
                if c_idx.iter().any(|&k| t.get(k).unwrap().is_null()) {
                    return false;
                }
                !instance[parent].iter().any(|p| {
                    c_idx
                        .iter()
                        .zip(&p_idx)
                        .all(|(&c, &k)| sql_eq(t.get(c).unwrap(), p.get(k).unwrap()))
                })
            })
        }
        Constraint::DenialConstraint {
            atoms, condition, ..
        } => {
            assert_eq!(atoms.len(), 2, "generated denial constraints are binary");
            let (lr, la) = &atoms[0];
            let (rr, ra) = &atoms[1];
            let ls = db.relation(lr).unwrap().schema().renamed(la);
            let rs = db.relation(rr).unwrap().schema().renamed(ra);
            let concat = ls.concat(&rs, ls.name());
            instance[lr].iter().any(|lt| {
                instance[rr]
                    .iter()
                    .any(|rt| condition.eval(&concat, &lt.concat(rt)).unwrap())
            })
        }
        Constraint::PlanConstraint { .. } => {
            unreachable!("the generator does not emit plan constraints")
        }
    }
}

/// The FD oracle, self-pairs included: a pair (possibly `i == j`) violates
/// when every determinant value is non-NULL-equal on both sides and some
/// dependent value is not provably equal.
fn fd_violated(
    db: &ProbDb,
    instance: &BTreeMap<String, Vec<Tuple>>,
    relation: &str,
    determinant: &[String],
    dependent: &[String],
) -> bool {
    let schema = db.relation(relation).unwrap().schema();
    let det: Vec<usize> = determinant
        .iter()
        .map(|c| schema.column_index(c).unwrap())
        .collect();
    let dep: Vec<usize> = dependent
        .iter()
        .map(|c| schema.column_index(c).unwrap())
        .collect();
    let tuples = &instance[relation];
    tuples.iter().enumerate().any(|(i, t1)| {
        tuples[i..].iter().any(|t2| {
            det.iter()
                .all(|&k| sql_eq(t1.get(k).unwrap(), t2.get(k).unwrap()))
                && dep
                    .iter()
                    .any(|&k| !sql_eq(t1.get(k).unwrap(), t2.get(k).unwrap()))
        })
    })
}

/// The distribution over deterministic instances of `db`, keyed by the
/// printed form of the instance (stable and hashable).
fn instance_distribution(db: &ProbDb) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (_, p, instance) in uprob_reference::urel::enumerate_instances(db) {
        let key = format!("{instance:?}");
        *out.entry(key).or_insert(0.0) += p;
    }
    out.retain(|_, p| *p > 1e-15);
    out
}

/// Folds `assert_constraint` one constraint at a time (each step re-derives
/// its violation query over the *posterior* of the previous step).
fn sequential_asserts(
    db: &ProbDb,
    constraints: &[Constraint],
    options: &ConditioningOptions,
) -> Result<(f64, ProbDb), QueryError> {
    let mut current = db.clone();
    let mut product = 1.0;
    for constraint in constraints {
        let step = assert_constraint(&current, constraint, options)?;
        product *= step.confidence;
        current = step.db;
    }
    Ok((product, current))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Planned and eager violation compilation agree exactly, and both
    /// agree with the per-world semantic oracle.
    #[test]
    fn violation_compilation_matches_the_per_world_oracle(case in arb_constraint_case()) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        for constraint in &constraints {
            let planned = constraint.violation_ws_set(&db).unwrap();
            let eager = uprob_reference::query::violation_ws_set(constraint, &db).unwrap();
            prop_assert_eq!(
                &planned,
                &eager,
                "planned and eager violation ws-sets diverge for {}",
                constraint.describe()
            );
            for (world, _, instance) in uprob_reference::urel::enumerate_instances(&db) {
                let expected = instance_violates(&db, &instance, constraint);
                let got = planned.matches_world(&world);
                prop_assert_eq!(
                    got,
                    expected,
                    "constraint {} world {:?}: ws-set says {}, oracle says {}",
                    constraint.describe(),
                    &world,
                    got,
                    expected
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-pass `assert_all` agrees with the sequential
    /// `assert_constraint` fold: same satisfiability verdict, same prior
    /// confidence of the conjunction, same posterior distribution over
    /// deterministic instances — and bit-identical results on singleton
    /// constraint sets.
    #[test]
    fn assert_all_matches_the_sequential_fold(case in arb_constraint_case()) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        let options = ConditioningOptions::default();

        let batch = assert_all(&db, &constraints, &options);
        let sequential = sequential_asserts(&db, &constraints, &options);
        match (batch, sequential) {
            (
                Err(QueryError::UnsatisfiableConstraint { .. }),
                Err(QueryError::UnsatisfiableConstraint { .. }),
            ) => {} // Both reject: agreement.
            (Ok(batch), Ok((product, sequential_db))) => {
                prop_assert!(
                    (batch.confidence - product).abs() < 1e-9,
                    "P(conjunction): batch {} vs sequential product {}",
                    batch.confidence,
                    product
                );
                if constraints.len() == 1 {
                    // A singleton batch is the identical computation.
                    prop_assert_eq!(batch.confidence.to_bits(), product.to_bits());
                }
                // Same posterior distribution over instances (skip the
                // enumeration when a posterior world table grew past what
                // brute force can enumerate instantly).
                let small = |db: &ProbDb| db.world_table().world_count().is_some_and(|c| c <= 50_000);
                if small(&batch.db) && small(&sequential_db) {
                    let a = instance_distribution(&batch.db);
                    let b = instance_distribution(&sequential_db);
                    prop_assert_eq!(a.len(), b.len(), "posterior supports differ");
                    for (key, p) in &a {
                        let q = b.get(key).copied().unwrap_or(0.0);
                        prop_assert!(
                            (p - q).abs() < 1e-9,
                            "posterior instance {}: batch {} vs sequential {}",
                            key,
                            p,
                            q
                        );
                    }
                }
            }
            (batch, sequential) => {
                return Err(TestCaseError::fail(format!(
                    "satisfiability verdicts diverge: batch {:?} vs sequential {:?}",
                    batch.map(|c| c.confidence),
                    sequential.map(|(p, _)| p)
                )));
            }
        }
    }
}
