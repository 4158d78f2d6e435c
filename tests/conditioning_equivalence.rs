//! Differential conditioning harness: on randomly generated small
//! U-relational databases and random condition ws-sets
//! (`uprob_datagen::random`), the product [`condition`] — which decomposes
//! the condition once and joins every row against the leaves of its
//! ws-tree — must return the **same object** as the literal row-threading
//! Figure 8 recursion (`uprob::core::reference::condition`): the same
//! confidence bits, counters, fresh/touched variables, `prior_remap`, world
//! table (names, domains, probability bits, ids) and the same rows in the
//! same order, for both [`ConditioningMethod`]s, with the Section 5
//! simplifications on and off — and the same typed error when there is no
//! posterior or the node budget runs out.
//!
//! All randomness is driven by the (deterministic, pinned-seed) vendored
//! proptest runner; a failing case prints the full `SmallInstanceRecipe`,
//! which reproduces the database exactly via `database_of(&recipe.build())`.

use proptest::prelude::*;
use uprob::core::reference;
use uprob::core::{Conditioned, CoreError};
use uprob::datagen::{arb_small_recipe, SmallInstance};
use uprob::prelude::*;

/// A two-relation database over the instance's world table, extended with
/// one single-alternative variable `one`:
///
/// * `R(ID)`: one row per descriptor of the instance's query ws-set, every
///   other one also carrying `one -> 0` (simplification (2) must drop it
///   even though no condition mentions it);
/// * `S(ID, TAG)`: the certain row, then one row per descriptor of the
///   condition itself, last first — rows that agree with some leaf of the
///   condition's ws-tree on every variable and contradict others.
fn database_of(instance: &SmallInstance) -> ProbDb {
    let mut db = ProbDb::with_world_table(instance.table.clone());
    let one = db
        .world_table_mut()
        .add_variable("one", &[(0, 1.0)])
        .unwrap();
    let mut r = db
        .create_relation(Schema::new("R", &[("ID", ColumnType::Int)]))
        .unwrap();
    for (id, descriptor) in instance.query.iter().enumerate() {
        let mut descriptor = descriptor.clone();
        if id % 2 == 1 {
            descriptor.assign(one, ValueIndex(0)).unwrap();
        }
        r.push(Tuple::new(vec![Value::Int(id as i64)]), descriptor);
    }
    db.insert_relation(r).unwrap();
    let mut s = db
        .create_relation(Schema::new(
            "S",
            &[("ID", ColumnType::Int), ("TAG", ColumnType::Str)],
        ))
        .unwrap();
    s.push(
        Tuple::new(vec![Value::Int(-1), Value::str("certain")]),
        WsDescriptor::empty(),
    );
    let condition: Vec<&WsDescriptor> = instance.condition.iter().collect();
    for (id, descriptor) in condition.into_iter().rev().enumerate() {
        s.push(
            Tuple::new(vec![Value::Int(id as i64), Value::str("condition")]),
            descriptor.clone(),
        );
    }
    db.insert_relation(s).unwrap();
    db
}

/// Field-by-field equality of two conditioning results; floats by bits.
fn assert_same_posterior(got: &Conditioned, want: &Conditioned) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
    prop_assert_eq!(&got.stats, &want.stats);
    prop_assert_eq!(got.new_variables, want.new_variables);
    prop_assert_eq!(&got.touched_variables, &want.touched_variables);
    prop_assert_eq!(&got.prior_remap, &want.prior_remap);

    let (got_table, want_table) = (got.db.world_table(), want.db.world_table());
    prop_assert_eq!(got_table.num_variables(), want_table.num_variables());
    for ((got_id, got_info), (want_id, want_info)) in got_table.iter().zip(want_table.iter()) {
        prop_assert_eq!(got_id, want_id);
        prop_assert_eq!(&got_info.name, &want_info.name);
        prop_assert_eq!(&got_info.values, &want_info.values);
        let bits = |info: &uprob::wsd::VariableInfo| -> Vec<u64> {
            info.probabilities.iter().map(|p| p.to_bits()).collect()
        };
        prop_assert_eq!(
            bits(got_info),
            bits(want_info),
            "variable {}",
            &got_info.name
        );
        prop_assert_eq!(got_table.variable_by_name(&got_info.name), Some(got_id));
    }

    prop_assert_eq!(got.db.relation_names(), want.db.relation_names());
    for (got_relation, want_relation) in got.db.relations().zip(want.db.relations()) {
        prop_assert_eq!(got_relation.schema(), want_relation.schema());
        prop_assert_eq!(got_relation.rows(), want_relation.rows());
    }
    prop_assert!(got.db.validate().is_ok());
    Ok(())
}

/// Both sides succeed with the same posterior or fail with the same error.
fn assert_same_outcome(
    got: Result<Conditioned, CoreError>,
    want: Result<Conditioned, CoreError>,
    options: &ConditioningOptions,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_same_posterior(&got, &want),
        (Err(got), Err(want)) => {
            prop_assert_eq!(got, want);
            Ok(())
        }
        (got, want) => {
            prop_assert!(
                false,
                "{options:?}: product {:?}, reference {:?}",
                got.map(|c| c.confidence),
                want.map(|c| c.confidence)
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `condition` ≡ the Figure 8 reference, field by field.
    #[test]
    fn the_leaf_join_is_the_row_threading_recursion(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        let db = database_of(&instance);
        for method in [ConditioningMethod::Exact, ConditioningMethod::PaperFig8] {
            for simplify in [true, false] {
                for node_budget in [None, Some(3)] {
                    let options = ConditioningOptions {
                        method,
                        simplify,
                        node_budget,
                        ..Default::default()
                    };
                    let got = condition(&db, &instance.condition, &options);
                    let want = reference::condition(&db, &instance.condition, &options);
                    assert_same_outcome(got, want, &options)?;
                }
            }
        }
    }

    /// The posterior of a posterior: conditioning the product's output again
    /// (fresh names colliding with `v0'`-style names already in the table,
    /// renumbered prior ids) still matches the reference.
    #[test]
    fn conditioning_a_posterior_matches_too(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        let db = database_of(&instance);
        let raw = ConditioningOptions { simplify: false, ..Default::default() };
        let Ok(first) = condition(&db, &instance.condition, &raw) else {
            return Ok(());
        };
        // The instance's query set only mentions prior variables, which the
        // unsimplified posterior keeps at their ids.
        for options in [raw, ConditioningOptions::default(), ConditioningOptions::paper_fig8()] {
            let got = condition(&first.db, &instance.query, &options);
            let want = reference::condition(&first.db, &instance.query, &options);
            assert_same_outcome(got, want, &options)?;
        }
    }
}
