//! Differential plan-equivalence harness: on randomly generated small
//! U-relational databases and random query plans
//! (`uprob_datagen::random_plan`), optimized + pipelined execution must be
//! **set-equivalent** — same `(tuple, ws-descriptor)` multiset, same
//! output schema — to the eager oracle `uprob_reference::urel::execute_plan`, and
//! the exact confidences computed through the decomposition fold must be
//! identical on every path.
//!
//! All randomness is driven by the (deterministic, pinned-seed) vendored
//! proptest runner; a failing case prints the full [`PlanCaseRecipe`],
//! which reproduces the instance exactly via `recipe.build_db()` and
//! `recipe.plan.build(&db)`.

use proptest::prelude::*;
use uprob::prelude::*;
use uprob_datagen::arb_plan_case;
use uprob_reference::urel as reference;
use uprob_reference::worlds::SetWorlds;

/// Sorted copy of the rows: the multiset fingerprint two equivalent
/// answers must share.
fn sorted_rows(relation: &URelation) -> Vec<(Tuple, WsDescriptor)> {
    let mut rows = relation.rows().to_vec();
    rows.sort();
    rows
}

/// Answers whose confidence we cross-check; plans ending in wide cross
/// products can produce thousands of rows, where the *row* comparison is
/// still instant but exact per-tuple confidence is beside the point.
const MAX_CONFIDENCE_ROWS: usize = 1_500;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Optimized + pipelined execution is set-equivalent to the eager
    /// reference (and the optimizer preserves the output schema exactly).
    #[test]
    fn optimized_pipelined_execution_matches_eager(case in arb_plan_case()) {
        let db = case.build_db();
        let plan = case.plan.build(&db);

        let eager = reference::execute_plan(&db, &plan).unwrap();
        let unoptimized = db.query_unoptimized(&plan).unwrap();
        let optimized_plan = optimize_plan(&plan, &db).unwrap();
        let planned = db.query(&plan).unwrap();

        prop_assert_eq!(
            optimized_plan.output_schema(&db).unwrap(),
            plan.output_schema(&db).unwrap(),
            "optimizer changed the output schema:\n{}\nvs\n{}",
            &plan,
            &optimized_plan
        );
        prop_assert_eq!(eager.schema(), planned.schema());

        // The pure executor swap preserves even the row order...
        prop_assert_eq!(
            eager.rows(),
            unoptimized.rows(),
            "pipelined executor diverges from the eager reference:\n{}",
            &plan
        );
        // ...and so does the optimizer: `ProbDb::query` documents row-for-
        // row identity with the eager reference (the current rule set only
        // filters or narrows streams, never reorders them), which is what
        // makes planned exact confidences bit-identical. A future
        // reordering rule (join commutation, say) must renegotiate that
        // contract here and in the `query`/`planned` docs, not slip past a
        // multiset check.
        prop_assert_eq!(
            eager.rows(),
            planned.rows(),
            "optimized plan changed the answer rows (or their order):\n{}\noptimized:\n{}",
            &plan,
            &optimized_plan
        );
        prop_assert_eq!(sorted_rows(&eager), sorted_rows(&planned));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exact confidences through the decomposition fold agree between the
    /// eager and the optimized + pipelined answer: the answer-level
    /// Boolean confidence and every per-tuple `conf()` value.
    #[test]
    fn planned_confidences_match_eager(case in arb_plan_case()) {
        let db = case.build_db();
        let plan = case.plan.build(&db);

        let eager = reference::execute_plan(&db, &plan).unwrap();
        let planned = db.query(&plan).unwrap();
        if eager.len() > MAX_CONFIDENCE_ROWS {
            return Ok(());
        }
        let options = DecompositionOptions::default();

        // Boolean confidence, cross-checked against brute-force world
        // enumeration (the databases are ≤ 81 worlds by construction).
        let eager_boolean =
            boolean_confidence(&eager, db.world_table(), &options).unwrap();
        let planned_boolean =
            boolean_confidence(&planned, db.world_table(), &options).unwrap();
        prop_assert!(
            (eager_boolean - planned_boolean).abs() < 1e-9,
            "boolean conf: eager {eager_boolean} vs planned {planned_boolean}\n{}",
            &plan
        );
        let brute = planned.answer_ws_set().probability_by_enumeration(db.world_table());
        prop_assert!(
            (planned_boolean - brute).abs() < 1e-9,
            "planned conf {planned_boolean} vs brute force {brute}\n{}",
            &plan
        );

        // Per-tuple conf(): same distinct tuples, same exact values.
        let eager_tuples =
            tuple_confidences(&eager, db.world_table(), &options).unwrap();
        let planned_tuples =
            tuple_confidences(&planned, db.world_table(), &options).unwrap();
        prop_assert_eq!(eager_tuples.len(), planned_tuples.len());
        for ((t1, p1), (t2, p2)) in eager_tuples.iter().zip(&planned_tuples) {
            prop_assert_eq!(t1, t2, "distinct tuples diverge:\n{}", &plan);
            prop_assert!(
                (p1 - p2).abs() < 1e-9,
                "conf({t1:?}): eager {p1} vs planned {p2}\n{}",
                &plan
            );
        }
    }
}
