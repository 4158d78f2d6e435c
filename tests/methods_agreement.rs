//! Cross-crate agreement tests: on randomly generated workloads, all exact
//! confidence algorithms (INDVE, VE, WE, brute force) must agree, the
//! Karp–Luby estimator must land within its error bound, and conditioning
//! must produce the Bayesian posterior.

use proptest::prelude::*;
use uprob::datagen::{HardInstance, HardInstanceConfig};
use uprob::prelude::*;

fn hard_config_strategy() -> impl Strategy<Value = HardInstanceConfig> {
    (2usize..=8, 2usize..=3, 1usize..=3, 0usize..=12, 0u64..1000).prop_map(
        |(num_variables, alternatives, descriptor_length, num_descriptors, seed)| {
            HardInstanceConfig {
                num_variables,
                alternatives,
                descriptor_length: descriptor_length.min(num_variables),
                num_descriptors,
                seed,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// INDVE (both heuristics), VE, WE and brute force agree on the
    /// confidence of #P-hard-generator instances small enough to enumerate.
    #[test]
    fn exact_methods_agree_on_hard_instances(config in hard_config_strategy()) {
        let instance = HardInstance::generate(config);
        let table = &instance.world_table;
        let set = &instance.ws_set;
        let expected = set.probability_by_enumeration(table);
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
            DecompositionOptions::ve_minlog(),
        ] {
            let got = confidence(set, table, &options).unwrap().probability;
            prop_assert!((got - expected).abs() < 1e-9, "{options:?}: {got} vs {expected}");
        }
        let we = confidence_by_elimination(set, table, None).unwrap().probability;
        prop_assert!((we - expected).abs() < 1e-9, "WE: {we} vs {expected}");
    }

    /// The materialised ws-tree is valid, represents the input ws-set and
    /// evaluates to the same probability.
    #[test]
    fn ws_tree_construction_is_sound(config in hard_config_strategy()) {
        let instance = HardInstance::generate(config);
        let table = &instance.world_table;
        let set = &instance.ws_set;
        let (tree, _) = build_tree(set, table, &DecompositionOptions::indve_minlog()).unwrap();
        prop_assert!(uprob_reference::wstree::validate(&tree, table).is_ok());
        prop_assert!(uprob_reference::wstree::ws_set(&tree).is_equivalent_by_enumeration(set, table));
        let p_tree = uprob::core::tree_probability(&tree, table);
        let p_brute = set.probability_by_enumeration(table);
        prop_assert!((p_tree - p_brute).abs() < 1e-9);
    }

    /// The Karp-Luby estimator stays within a loose absolute error band
    /// (the (ε, δ) guarantee is statistical; the band is generous so the
    /// test is deterministic for the sampled seeds).
    #[test]
    fn karp_luby_is_close_on_hard_instances(config in hard_config_strategy()) {
        let instance = HardInstance::generate(config);
        if instance.ws_set.is_empty() {
            return Ok(());
        }
        let table = &instance.world_table;
        let exact = instance.ws_set.probability_by_enumeration(table);
        let kl = karp_luby_epsilon_delta(
            &instance.ws_set,
            table,
            &ApproximationOptions::default().with_epsilon(0.1).with_delta(0.01).with_seed(config.seed),
            available_workers(),
        )
        .unwrap();
        prop_assert!((kl.estimate - exact).abs() < 0.1 * exact + 0.02,
            "estimate {} vs exact {exact}", kl.estimate);
    }
}

/// Conditioning a tuple-independent database on a random row-filter
/// constraint yields the Bayesian posterior over instances.
#[test]
fn conditioning_matches_bayes_on_random_tuple_independent_databases() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    for case in 0..25 {
        // Build a small tuple-independent database: one relation with a
        // value column; each tuple present with a random probability.
        let mut db = ProbDb::new();
        let schema = Schema::new("T", &[("ID", ColumnType::Int), ("V", ColumnType::Int)]);
        let mut relation = db.create_relation(schema).unwrap();
        let tuples = rng.random_range(1..=6usize);
        for id in 0..tuples {
            let p = rng.random_range(0.1..0.9);
            let var = db
                .world_table_mut()
                .add_boolean(&format!("t{id}"), p)
                .unwrap();
            let value = rng.random_range(0..4i64);
            relation.push(
                Tuple::new(vec![Value::Int(id as i64), Value::Int(value)]),
                WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).unwrap(),
            );
        }
        db.insert_relation(relation).unwrap();

        // Condition on "every present tuple has V < threshold".
        let threshold = rng.random_range(1..=3i64);
        let constraint = Constraint::row_filter(
            "T",
            Predicate::cmp(Expr::col("V"), Comparison::Lt, Expr::val(threshold)),
        );
        let conditioned = match assert_constraint(&db, &constraint, &ConditioningOptions::default())
        {
            Ok(c) => c,
            Err(uprob::query::QueryError::UnsatisfiableConstraint { .. }) => continue,
            Err(e) => panic!("case {case}: {e}"),
        };

        // Brute-force posterior over instances.
        let satisfying = constraint.satisfying_ws_set(&db).unwrap();
        let mass = satisfying.probability_by_enumeration(db.world_table());
        assert!((conditioned.confidence - mass).abs() < 1e-9);
        let mut expected: std::collections::BTreeMap<String, f64> = Default::default();
        for (world, p) in db.world_table().enumerate_worlds() {
            if satisfying.matches_world(&world) {
                *expected
                    .entry(format!("{:?}", db.instantiate_world(&world)))
                    .or_insert(0.0) += p / mass;
            }
        }
        expected.retain(|_, p| *p > 1e-15);
        let mut got: std::collections::BTreeMap<String, f64> = Default::default();
        for (_, p, instance) in uprob_reference::urel::enumerate_instances(&conditioned.db) {
            *got.entry(format!("{instance:?}")).or_insert(0.0) += p;
        }
        got.retain(|_, p| *p > 1e-15);
        assert_eq!(expected.len(), got.len(), "case {case}");
        for (key, p) in &expected {
            let q = got.get(key).copied().unwrap_or(0.0);
            assert!(
                (p - q).abs() < 1e-9,
                "case {case}, instance {key}: {p} vs {q}"
            );
        }
    }
}

/// The TPC-H queries produce ws-sets whose confidence all exact methods
/// agree on (small instance, checked against brute force via a restricted
/// world table is infeasible here, so methods are checked against each
/// other).
#[test]
fn tpch_answers_have_consistent_confidences() {
    use uprob::datagen::{q1_answer, q2_answer, TpchConfig, TpchDatabase};
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.02).with_seed(3));
    for answer in [q1_answer(&data), q2_answer(&data)] {
        let table = data.db.world_table();
        let indve = confidence(&answer.ws_set, table, &DecompositionOptions::indve_minlog())
            .unwrap()
            .probability;
        let minmax = confidence(&answer.ws_set, table, &DecompositionOptions::indve_minmax())
            .unwrap()
            .probability;
        assert!((indve - minmax).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&indve));
    }

    // VE (no independent partitioning) is exponential in the number of
    // independent answer descriptors (the transition of Figure 12), so the
    // three-way agreement including VE runs on a much smaller instance.
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.002).with_seed(3));
    for answer in [q1_answer(&data), q2_answer(&data)] {
        let table = data.db.world_table();
        let indve = confidence(&answer.ws_set, table, &DecompositionOptions::indve_minlog())
            .unwrap()
            .probability;
        let ve = confidence(&answer.ws_set, table, &DecompositionOptions::ve_minlog())
            .unwrap()
            .probability;
        let minmax = confidence(&answer.ws_set, table, &DecompositionOptions::indve_minmax())
            .unwrap()
            .probability;
        assert!((indve - ve).abs() < 1e-9);
        assert!((indve - minmax).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&indve));
    }
}
