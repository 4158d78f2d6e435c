//! Delta-conditioning differential harness: on randomly generated small
//! U-relational databases and constraint sets
//! (`uprob_datagen::random_constraints`), [`assert_all_delta`] must be
//! **bit-for-bit** the computation [`assert_all`] performs — the same
//! posterior world table (variable names, domains, probability bits),
//! the same relations and the same prior confidence — whether its
//! violation ws-sets were recomputed or reused from the
//! [`ViolationMemo`], at every worker count, and across `DeltaBuilder`
//! mutations that invalidate some memo entries and not others.
//!
//! All randomness is driven by the (deterministic, pinned-seed) vendored
//! proptest runner; a failing case prints the full
//! `ConstraintCaseRecipe`, which reproduces the instance exactly.

use proptest::prelude::*;
use uprob::prelude::*;
use uprob::query::QueryError;
use uprob_datagen::arb_constraint_case;

/// Worker counts exercised by the parallel recompute leg. The CI matrix
/// adds its own count via `UPROB_WORKERS`.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![2, 3, 8];
    let env = ParallelOptions::from_env()
        .expect("CI sets a well-formed UPROB_WORKERS")
        .workers();
    if env > 1 && !counts.contains(&env) {
        counts.push(env);
    }
    counts
}

/// Panics unless the two databases are bit-identical: the same variables
/// (ids, names, domains, probability bits) and equal relations.
fn assert_bit_identical(a: &ProbDb, b: &ProbDb) {
    let (wa, wb) = (a.world_table(), b.world_table());
    assert_eq!(
        wa.num_variables(),
        wb.num_variables(),
        "variable counts differ"
    );
    for ((va, ia), (vb, ib)) in wa.iter().zip(wb.iter()) {
        assert_eq!(va, vb, "variable ids diverge");
        assert_eq!(ia.name, ib.name, "variable names diverge at {va}");
        assert_eq!(ia.values, ib.values, "domains diverge for {}", ia.name);
        let pa: Vec<u64> = ia.probabilities.iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u64> = ib.probabilities.iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb, "distribution bits diverge for {}", ia.name);
    }
    assert_eq!(a.relation_names(), b.relation_names());
    for name in a.relation_names() {
        assert_eq!(
            a.relation(&name).unwrap(),
            b.relation(&name).unwrap(),
            "relation {name} diverges"
        );
    }
}

/// A non-NULL filler tuple for `schema`, appended by the ingest leg.
fn filler_tuple(schema: &Schema) -> Tuple {
    Tuple::new(
        schema
            .columns()
            .iter()
            .map(|c| match c.column_type {
                ColumnType::Int => Value::Int(41),
                ColumnType::Float => Value::Float(0.25),
                ColumnType::Str => Value::str("ingest"),
                ColumnType::Bool => Value::Bool(true),
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cold, warm and post-ingest `assert_all_delta` all match the full
    /// rebuild bit for bit, and the memo accounts every constraint as
    /// either reused or recomputed on every call.
    #[test]
    fn delta_assert_is_bit_identical_to_full_rebuild(case in arb_constraint_case()) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        let options = ConditioningOptions::default();
        let sequential = ParallelOptions::new(1);
        let mut memo = ViolationMemo::new();

        let full = assert_all(&db, &constraints, &options);
        let delta = assert_all_delta(&db, &constraints, &options, &sequential, &mut memo);
        let (full, delta) = match (full, delta) {
            (
                Err(QueryError::UnsatisfiableConstraint { .. }),
                Err(QueryError::UnsatisfiableConstraint { .. }),
            ) => return Ok(()), // Both reject: agreement.
            (Ok(f), Ok(d)) => (f, d),
            (f, d) => {
                return Err(TestCaseError::fail(format!(
                    "cold verdicts diverge: full {:?} vs delta {:?}",
                    f.map(|c| c.confidence),
                    d.map(|c| c.confidence),
                )))
            }
        };
        prop_assert_eq!(full.confidence.to_bits(), delta.confidence.to_bits());
        assert_bit_identical(&full.db, &delta.db);
        prop_assert_eq!(memo.recomputed(), constraints.len() as u64);
        prop_assert_eq!(memo.reused(), 0);

        // Warm pass on the unchanged prior: every violation set comes
        // from the memo and the posterior is still bit-identical.
        let again = assert_all_delta(&db, &constraints, &options, &sequential, &mut memo).unwrap();
        prop_assert_eq!(again.confidence.to_bits(), full.confidence.to_bits());
        assert_bit_identical(&full.db, &again.db);
        prop_assert_eq!(memo.reused(), constraints.len() as u64);

        // Ingest a fresh-variable row into one relation. Constraints over
        // the untouched relations keep their memoized violation sets, yet
        // the posterior still matches a cold rebuild bit for bit. (The
        // appended row exists only in worlds where the fresh variable is
        // 1, so a satisfiable case stays satisfiable.)
        let mut builder = DeltaBuilder::new(&db);
        let v = builder.add_boolean("delta-ingest", 0.5).unwrap();
        let target = db.relation_names().into_iter().next().unwrap();
        let tuple = filler_tuple(db.relation(&target).unwrap().schema());
        let d = WsDescriptor::from_pairs(builder.world_table(), &[(v, 1)]).unwrap();
        builder.append(&target, tuple, d).unwrap();
        let (next, report) = builder.finish();
        prop_assert!(report.touched(&target));

        let full_next = assert_all(&next, &constraints, &options);
        let delta_next = assert_all_delta(&next, &constraints, &options, &sequential, &mut memo);
        match (full_next, delta_next) {
            (
                Err(QueryError::UnsatisfiableConstraint { .. }),
                Err(QueryError::UnsatisfiableConstraint { .. }),
            ) => {}
            (Ok(f), Ok(d)) => {
                prop_assert_eq!(f.confidence.to_bits(), d.confidence.to_bits());
                assert_bit_identical(&f.db, &d.db);
            }
            (f, d) => {
                return Err(TestCaseError::fail(format!(
                    "post-ingest verdicts diverge: full {:?} vs delta {:?}",
                    f.map(|c| c.confidence),
                    d.map(|c| c.confidence),
                )))
            }
        }
        // Every call accounts each constraint exactly once.
        prop_assert_eq!(
            memo.reused() + memo.recomputed(),
            3 * constraints.len() as u64
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel violation recompute inside `assert_all_delta` is
    /// bit-identical to the sequential one at every worker count.
    #[test]
    fn parallel_delta_recompute_is_bit_identical(case in arb_constraint_case()) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        let options = ConditioningOptions::default();
        let mut reference_memo = ViolationMemo::new();
        let reference = assert_all_delta(
            &db,
            &constraints,
            &options,
            &ParallelOptions::new(1),
            &mut reference_memo,
        );
        for workers in worker_counts() {
            let mut memo = ViolationMemo::new();
            let parallel = assert_all_delta(
                &db,
                &constraints,
                &options,
                &ParallelOptions::new(workers),
                &mut memo,
            );
            match (&reference, parallel) {
                (
                    Err(QueryError::UnsatisfiableConstraint { .. }),
                    Err(QueryError::UnsatisfiableConstraint { .. }),
                ) => {}
                (Ok(r), Ok(p)) => {
                    prop_assert_eq!(
                        r.confidence.to_bits(),
                        p.confidence.to_bits(),
                        "confidence bits diverge at {} workers",
                        workers
                    );
                    assert_bit_identical(&r.db, &p.db);
                }
                (r, p) => {
                    return Err(TestCaseError::fail(format!(
                        "verdicts diverge at {} workers: sequential {:?} vs parallel {:?}",
                        workers,
                        r.as_ref().map(|c| c.confidence),
                        p.map(|c| c.confidence),
                    )))
                }
            }
        }
    }
}
