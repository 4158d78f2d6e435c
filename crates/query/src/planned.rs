//! `conf()` over logical query plans: evaluate a [`Plan`] through the
//! optimizing, pipelined executor of `uprob-urel` and feed the answer
//! straight into the batch confidence machinery of [`crate::confidence`].
//!
//! These helpers are thin on purpose: `ProbDb::query` produces a plain
//! `URelation`, so everything in this crate — the shared-decomposition-
//! cache batch paths, the strategy engine with its sampling fallback, and
//! `assert`-style conditioning — composes with planned answers exactly as
//! with eagerly built ones. Because the pipelined executor emits rows in
//! the same order as the eager reference, the exact confidences of a
//! planned answer are **bit-identical** to the eager path (the golden
//! strategy tests pin this).

use uprob_core::{
    ConfidenceStrategy, DecompositionOptions, ParallelOptions, SharedDecompositionCache,
};
use uprob_urel::{Plan, ProbDb};

use crate::confidence::{
    answer_confidences_with_options, answer_confidences_with_strategy, boolean_confidence,
    AnswerConfidences, StrategyAnswerConfidences,
};
use crate::Result;

/// `select ..., conf() from <plan> group by ...` in one call: evaluates
/// `plan` with [`ProbDb::query`] (rule-based optimization + pipelined
/// hash-join execution) and runs the exact batch of
/// [`answer_confidences_with_options`] over the answer — same `parallel`
/// placement, same caller-held per-database `cache` (repeated or
/// overlapping planned queries over one database reuse every decomposition
/// any of them solved), same bit-identity contract.
///
/// # Errors
///
/// Propagates plan-validation errors and decomposition errors.
pub fn planned_answer_confidences_with_options(
    db: &ProbDb,
    plan: &Plan,
    options: &DecompositionOptions,
    parallel: &ParallelOptions,
    cache: &SharedDecompositionCache,
) -> Result<AnswerConfidences> {
    let answer = db.query(plan)?;
    answer_confidences_with_options(&answer, db.world_table(), options, parallel, cache)
}

/// The planned `conf()` batch under an explicit [`ConfidenceStrategy`]
/// ([`answer_confidences_with_strategy`] over the plan's answer): `Exact`,
/// `Approximate(ε, δ)` or `Hybrid` with the transparent exact→sampling
/// fallback, per-tuple [`uprob_core::ConfidenceReport`]s included.
///
/// # Errors
///
/// Propagates plan-validation errors, exact-path errors and sampling
/// errors.
pub fn planned_answer_confidences_with_strategy(
    db: &ProbDb,
    plan: &Plan,
    options: &DecompositionOptions,
    strategy: &ConfidenceStrategy,
    parallel: &ParallelOptions,
) -> Result<StrategyAnswerConfidences> {
    let answer = db.query(plan)?;
    answer_confidences_with_strategy(&answer, db.world_table(), options, strategy, parallel)
}

/// `select conf() from <plan>`: the Boolean confidence of a planned query
/// (probability that the answer is non-empty).
///
/// # Errors
///
/// Propagates plan-validation errors and decomposition errors.
pub fn planned_boolean_confidence(
    db: &ProbDb,
    plan: &Plan,
    options: &DecompositionOptions,
) -> Result<f64> {
    let answer = db.query(plan)?;
    boolean_confidence(&answer, db.world_table(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_urel::{reference, ColumnType, Predicate, Schema, Tuple, Value};
    use uprob_wsd::WsDescriptor;

    /// The SSN database of Figure 2.
    fn ssn_db() -> ProbDb {
        let mut db = ProbDb::new();
        let j = db
            .world_table_mut()
            .add_variable("j", &[(1, 0.2), (7, 0.8)])
            .unwrap();
        let b = db
            .world_table_mut()
            .add_variable("b", &[(4, 0.3), (7, 0.7)])
            .unwrap();
        let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Int(1), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 4)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 7)]).unwrap(),
            );
        }
        db.insert_relation(r).unwrap();
        db
    }

    #[test]
    fn planned_conf_is_bit_identical_to_the_eager_answer() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let plan = uprob_urel::Plan::scan("R")
            .select(Predicate::col_eq("NAME", "Bill"))
            .project(&["SSN"]);
        let sequential = ParallelOptions::sequential();
        let planned = planned_answer_confidences_with_options(
            &db,
            &plan,
            &options,
            &sequential,
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        let eager_answer = {
            let bills = reference::select(
                db.relation("R").unwrap(),
                &Predicate::col_eq("NAME", "Bill"),
                "Bills",
            )
            .unwrap();
            reference::project(&bills, &["SSN"], "Q").unwrap()
        };
        let eager = answer_confidences_with_options(
            &eager_answer,
            db.world_table(),
            &options,
            &sequential,
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        assert_eq!(planned.tuples.len(), eager.tuples.len());
        for ((t1, p1), (t2, p2)) in planned.tuples.iter().zip(&eager.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
        assert_eq!(planned.boolean.to_bits(), eager.boolean.to_bits());
        assert!((planned.tuples[0].1 - 0.3).abs() < 1e-12);
        assert!((planned.tuples[1].1 - 0.7).abs() < 1e-12);
    }

    #[test]
    fn planned_strategies_and_boolean_confidence() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        // Example 2.3: the FD-violation self-join has confidence .56.
        let violation = uprob_urel::Plan::scan("R")
            .join_on(
                uprob_urel::Plan::scan("R").rename("R2"),
                Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
                    uprob_urel::Expr::col("NAME"),
                    uprob_urel::Comparison::Ne,
                    uprob_urel::Expr::col("R2.NAME"),
                )),
            )
            .project(&[]);
        let p = planned_boolean_confidence(&db, &violation, &options).unwrap();
        assert!((p - 0.56).abs() < 1e-12);

        let names = uprob_urel::Plan::scan("R").project(&["NAME"]);
        let exact = planned_answer_confidences_with_strategy(
            &db,
            &names,
            &options,
            &ConfidenceStrategy::Exact,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        let hybrid = planned_answer_confidences_with_strategy(
            &db,
            &names,
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert_eq!(hybrid.sampled_tuples(), 0);
        for ((t1, r1), (t2, r2)) in exact.tuples.iter().zip(&hybrid.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(r1.probability.to_bits(), r2.probability.to_bits());
        }
        // A cache shared across two planned queries reports reuse.
        let cache = SharedDecompositionCache::new();
        let sequential = ParallelOptions::sequential();
        let first =
            planned_answer_confidences_with_options(&db, &names, &options, &sequential, &cache)
                .unwrap();
        let second =
            planned_answer_confidences_with_options(&db, &names, &options, &sequential, &cache)
                .unwrap();
        assert_eq!(first.tuples, second.tuples);
        assert!(second.stats.cache_hits > 0, "warm run must hit the cache");
    }

    #[test]
    fn planned_errors_propagate() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let bad = uprob_urel::Plan::scan("NOPE");
        assert!(matches!(
            planned_boolean_confidence(&db, &bad, &options),
            Err(crate::QueryError::Urel(_))
        ));
    }
}
