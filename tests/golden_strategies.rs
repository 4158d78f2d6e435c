//! Golden regression tests routing the paper's worked examples (Figure 3's
//! 0.7578, Example 5.1's 0.44) and the Figure 10 TPC-H fixture through all
//! three [`ConfidenceStrategy`] variants, plus the hard-instance acceptance
//! scenario: a `Hybrid` batch on a `#P`-hard datagen instance that exact
//! computation aborts on (BudgetExceeded) must complete via sampling, and
//! must land within the requested ε on a brute-forceable downscaled twin.
//! The sampled bits of both Karp–Luby entry points are pinned literally on a
//! downscaled intractable shape.

use uprob::prelude::*;
use uprob_datagen::{
    q1_answer_relation, q1_plan, HardInstance, HardInstanceConfig, TpchConfig, TpchDatabase,
};
use uprob_reference::urel as reference;
use uprob_reference::worlds::SetWorlds;

/// The Figure 3 ws-set with exact probability 0.7578.
fn figure3() -> (WorldTable, WsSet) {
    let mut w = WorldTable::new();
    let x = w
        .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
        .unwrap();
    let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
    let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
    let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
    let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
    let s = WsSet::from_descriptors(vec![
        WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
        WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
        WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
        WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
        WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
    ]);
    (w, s)
}

/// The SSN database of Figure 2 with the FD of Example 5.1 (P = 0.44).
fn ssn_db() -> (ProbDb, Constraint) {
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
    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    (db, fd)
}

/// Wraps a hard instance's ws-set into a U-relation whose distinct tuples
/// partition the descriptors into `groups` answer tuples (the per-tuple
/// `conf()` shape of a grouped query answer).
fn hard_relation(instance: &HardInstance, groups: usize) -> URelation {
    let schema = Schema::new("H", &[("ID", ColumnType::Int)]);
    let mut relation = URelation::new(schema);
    for (i, d) in instance.ws_set.iter().enumerate() {
        relation.push(Tuple::new(vec![Value::Int((i % groups) as i64)]), d.clone());
    }
    relation
}

#[test]
fn figure3_through_all_three_strategies() {
    let (w, s) = figure3();
    let options = DecompositionOptions::indve_minlog();
    let exact = estimate_confidence(&s, &w, &options, &ConfidenceStrategy::Exact, None).unwrap();
    assert!((exact.probability - 0.7578).abs() < 1e-12);
    assert_eq!(exact.path, ResolvedPath::Exact);

    // Hybrid on a feasible instance: the exact path's result, bit for bit,
    // and no spurious fallback.
    let hybrid = estimate_confidence(
        &s,
        &w,
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        None,
    )
    .unwrap();
    assert_eq!(hybrid.path, ResolvedPath::Exact);
    assert_eq!(hybrid.probability.to_bits(), exact.probability.to_bits());
    assert!(hybrid.sampling.is_none());

    // Approximate within its ε-band (pinned seed).
    let epsilon = 0.05;
    let approx = estimate_confidence(
        &s,
        &w,
        &options,
        &ConfidenceStrategy::approximate(epsilon, 0.05).with_seed(2008),
        None,
    )
    .unwrap();
    assert_eq!(approx.path, ResolvedPath::Sampled { fell_back: false });
    let sampling = approx.sampling.unwrap();
    assert!(sampling.iterations > 0);
    assert_eq!(sampling.epsilon, epsilon);
    assert!(
        (approx.probability - 0.7578).abs() <= epsilon * 0.7578 + 0.01,
        "approximate {} vs 0.7578",
        approx.probability
    );
}

#[test]
fn golden_values_are_bit_identical_under_the_ci_worker_matrix() {
    // The worker count the CI `parallel-determinism` matrix routes through
    // `UPROB_WORKERS` (the available parallelism when unset), with a tiny
    // grain so the top split is exercised on these small fixtures.
    let parallel = ParallelOptions::from_env()
        .expect("CI sets a well-formed UPROB_WORKERS")
        .with_grain(2);
    let options = DecompositionOptions::indve_minlog();

    // Figure 3's 0.7578 through the parallel fold, WE and the engine.
    let (w, s) = figure3();
    let sequential = confidence(&s, &w, &options).unwrap();
    assert!((sequential.probability - 0.7578).abs() < 1e-12);
    let fold = confidence_parallel(&s, &w, &options, &parallel, None).unwrap();
    assert_eq!(
        fold.probability.to_bits(),
        sequential.probability.to_bits(),
        "parallel fold at {} workers",
        parallel.workers()
    );
    assert_eq!(fold.stats, sequential.stats, "same virtual tree");
    let we = confidence_by_elimination(&s, &w, None).unwrap();
    assert!((we.probability - 0.7578).abs() < 1e-12);
    let engine = estimate_confidence_with_options(
        &s,
        &w,
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        None,
        &parallel,
    )
    .unwrap();
    assert_eq!(engine.path, ResolvedPath::Exact);
    assert_eq!(
        engine.probability.to_bits(),
        sequential.probability.to_bits()
    );

    // Example 5.1's 0.44 through the parallel single-pass assert.
    let (db, fd) = ssn_db();
    let conditioning = ConditioningOptions::default();
    let batch = assert_all(&db, std::slice::from_ref(&fd), &conditioning).unwrap();
    let batch_parallel = assert_all_delta(
        &db,
        std::slice::from_ref(&fd),
        &conditioning,
        &parallel,
        &mut ViolationMemo::new(),
    )
    .unwrap();
    assert!((batch_parallel.confidence - 0.44).abs() < 1e-12);
    assert_eq!(
        batch_parallel.confidence.to_bits(),
        batch.confidence.to_bits()
    );
    assert_eq!(
        batch_parallel.db.relation("R").unwrap().rows(),
        batch.db.relation("R").unwrap().rows()
    );

    // The fig10 TPC-H fixture through the parallel batch path.
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(2008));
    let relation = q1_answer_relation(&data);
    let reference = answer_confidences_with_options(
        &relation,
        data.db.world_table(),
        &options,
        &ParallelOptions::sequential(),
        &SharedDecompositionCache::new(),
    )
    .unwrap();
    let batched = answer_confidences_with_options(
        &relation,
        data.db.world_table(),
        &options,
        &parallel,
        &SharedDecompositionCache::new(),
    )
    .unwrap();
    assert_eq!(reference.tuples.len(), batched.tuples.len());
    for ((t1, p1), (t2, p2)) in reference.tuples.iter().zip(&batched.tuples) {
        assert_eq!(t1, t2);
        assert_eq!(
            p1.to_bits(),
            p2.to_bits(),
            "tuple {t1:?} at {} workers",
            parallel.workers()
        );
    }
    assert_eq!(reference.boolean.to_bits(), batched.boolean.to_bits());
}

#[test]
fn example_5_1_constraint_through_all_three_strategies() {
    let (db, fd) = ssn_db();
    let options = ConditioningOptions::default();

    let exact = assert_all_with_strategy(
        &db,
        std::slice::from_ref(&fd),
        &options,
        &ConfidenceStrategy::Exact,
    )
    .unwrap();
    assert!(matches!(exact, Assertion::Materialized(_)));
    assert!((exact.confidence() - 0.44).abs() < 1e-12);

    let hybrid = assert_all_with_strategy(
        &db,
        std::slice::from_ref(&fd),
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
    )
    .unwrap();
    assert!(
        matches!(hybrid, Assertion::Materialized(_)),
        "feasible: must materialise"
    );
    assert_eq!(hybrid.confidence().to_bits(), exact.confidence().to_bits());

    let epsilon = 0.05;
    let approx = assert_all_with_strategy(
        &db,
        std::slice::from_ref(&fd),
        &options,
        &ConfidenceStrategy::approximate(epsilon, 0.05).with_seed(44),
    )
    .unwrap();
    assert!(!matches!(approx, Assertion::Materialized(_)));
    assert!(
        (approx.confidence() - 0.44).abs() <= epsilon * 0.44 + 0.01,
        "estimated P(C) {}",
        approx.confidence()
    );
    // The virtual posterior agrees with the materialised one on the
    // introduction's query: P(Bill has SSN 4 | FD) = .3/.44.
    let Assertion::Estimated(virtual_posterior) = &approx else {
        unreachable!()
    };
    let Assertion::Materialized(conditioned) = &exact else {
        unreachable!()
    };
    let ssns = db
        .query(
            &Plan::scan("R")
                .select(Predicate::col_eq("NAME", "Bill"))
                .project(&["SSN"]),
        )
        .unwrap();
    let posterior = virtual_posterior
        .tuple_confidences(&ssns, db.world_table(), &ParallelOptions::sequential())
        .unwrap();
    let p4 = posterior
        .iter()
        .find(|(t, _)| t.get(0) == Some(&Value::Int(4)))
        .unwrap()
        .1
        .probability;
    assert!(
        (p4 - 0.3 / 0.44).abs() <= 0.05 * (0.3 / 0.44) + 0.02,
        "virtual posterior P(SSN 4 | FD) = {p4}"
    );
    assert!((conditioned.confidence - 0.44).abs() < 1e-12);
}

#[test]
fn fig10_tpch_fixture_through_all_three_strategies() {
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(2008));
    let world_table = data.db.world_table();
    let relation = q1_answer_relation(&data);
    assert!(!relation.is_empty(), "the tiny instance has Q1 answers");
    let options = DecompositionOptions::indve_minlog();

    let exact = answer_confidences_with_strategy(
        &relation,
        world_table,
        &options,
        &ConfidenceStrategy::Exact,
        &ParallelOptions::new(2),
    )
    .unwrap();
    let hybrid = answer_confidences_with_strategy(
        &relation,
        world_table,
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        &ParallelOptions::new(2),
    )
    .unwrap();
    assert_eq!(exact.tuples.len(), hybrid.tuples.len());
    assert_eq!(hybrid.sampled_tuples(), 0, "no spurious fallback");
    for ((t1, r1), (t2, r2)) in exact.tuples.iter().zip(&hybrid.tuples) {
        assert_eq!(t1, t2);
        assert_eq!(
            r1.probability.to_bits(),
            r2.probability.to_bits(),
            "tuple {t1:?}: hybrid must be the exact value, bit for bit"
        );
    }
    assert_eq!(
        exact.boolean.probability.to_bits(),
        hybrid.boolean.probability.to_bits()
    );

    // Approximate: every tuple lands within the ε-band (pinned seed, with
    // the band's δ slack folded into a small absolute floor).
    let epsilon = 0.1;
    let approx = answer_confidences_with_strategy(
        &relation,
        world_table,
        &options,
        &ConfidenceStrategy::approximate(epsilon, 0.05).with_seed(1010),
        &ParallelOptions::new(2),
    )
    .unwrap();
    assert_eq!(approx.sampled_tuples(), approx.tuples.len());
    for ((t1, r1), (_, r2)) in exact.tuples.iter().zip(&approx.tuples) {
        assert!(
            (r1.probability - r2.probability).abs() <= epsilon * r1.probability + 0.02,
            "tuple {t1:?}: exact {}, sampled {}",
            r1.probability,
            r2.probability
        );
    }
}

#[test]
fn figure3_through_a_query_plan_and_all_three_strategies() {
    // The Figure 3 ws-set wrapped into a stored relation: projecting a scan
    // to the nullary schema is the Boolean query whose answer ws-set
    // collects all five descriptors — exact probability 0.7578.
    let (w, s) = figure3();
    let mut db = ProbDb::with_world_table(w);
    let mut f = db
        .create_relation(Schema::new("F", &[("ID", ColumnType::Int)]))
        .unwrap();
    for (i, d) in s.iter().enumerate() {
        f.push(Tuple::new(vec![Value::Int(i as i64)]), d.clone());
    }
    db.insert_relation(f).unwrap();
    let plan = Plan::scan("F").project(&[]);
    let options = DecompositionOptions::indve_minlog();

    // Planned and eager answers are row-identical, and the exact route is
    // bit-identical between them.
    let planned = db.query(&plan).unwrap();
    let eager = reference::execute_plan(&db, &plan).unwrap();
    assert_eq!(planned.rows(), eager.rows());
    let planned_exact = estimate_confidence(
        &planned.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::Exact,
        None,
    )
    .unwrap();
    let eager_exact = estimate_confidence(
        &eager.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::Exact,
        None,
    )
    .unwrap();
    assert!((planned_exact.probability - 0.7578).abs() < 1e-12);
    assert_eq!(
        planned_exact.probability.to_bits(),
        eager_exact.probability.to_bits()
    );

    // Hybrid: the exact value, bit for bit; Approximate: within its ε-band.
    let hybrid = estimate_confidence(
        &planned.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        None,
    )
    .unwrap();
    assert_eq!(hybrid.path, ResolvedPath::Exact);
    assert_eq!(
        hybrid.probability.to_bits(),
        planned_exact.probability.to_bits()
    );
    let epsilon = 0.05;
    let approx = estimate_confidence(
        &planned.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::approximate(epsilon, 0.05).with_seed(2008),
        None,
    )
    .unwrap();
    assert!((approx.probability - 0.7578).abs() <= epsilon * 0.7578 + 0.01);
}

#[test]
fn example_5_1_through_a_query_plan_and_all_three_strategies() {
    // The FD-violation self-join of Example 2.3 as a plan: its Boolean
    // confidence is 0.56, so the FD of Example 5.1 holds with 1 − 0.56 =
    // 0.44 — the same value `assert[SSN → NAME]` computes.
    let (db, fd) = ssn_db();
    let violation = Plan::scan("R")
        .join_on(
            Plan::scan("R").rename("R2"),
            Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
                Expr::col("NAME"),
                Comparison::Ne,
                Expr::col("R2.NAME"),
            )),
        )
        .project(&[]);
    let options = DecompositionOptions::indve_minlog();

    let planned = db.query(&violation).unwrap();
    let eager = reference::execute_plan(&db, &violation).unwrap();
    assert_eq!(planned.rows(), eager.rows(), "planned answer must match");

    let exact = estimate_confidence(
        &planned.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::Exact,
        None,
    )
    .unwrap();
    assert!((exact.probability - 0.56).abs() < 1e-12);
    let conditioned = assert_all_with_strategy(
        &db,
        std::slice::from_ref(&fd),
        &Default::default(),
        &ConfidenceStrategy::Exact,
    )
    .unwrap();
    assert!((conditioned.confidence() - (1.0 - exact.probability)).abs() < 1e-12);
    assert!((conditioned.confidence() - 0.44).abs() < 1e-12);

    let hybrid = estimate_confidence(
        &planned.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        None,
    )
    .unwrap();
    assert_eq!(hybrid.probability.to_bits(), exact.probability.to_bits());
    let epsilon = 0.1;
    let approx = estimate_confidence(
        &planned.answer_ws_set(),
        db.world_table(),
        &options,
        &ConfidenceStrategy::approximate(epsilon, 0.05).with_seed(56),
        None,
    )
    .unwrap();
    assert!((approx.probability - 0.56).abs() <= epsilon * 0.56 + 0.02);

    // Planned queries compose with conditioning: on the posterior database
    // the certain NAME set is queried through a plan.
    let Assertion::Materialized(posterior) = conditioned else {
        unreachable!("exact assertion materializes")
    };
    let bills = posterior
        .db
        .query(
            &Plan::scan("R")
                .select(Predicate::col_eq("NAME", "Bill"))
                .project(&["SSN"]),
        )
        .unwrap();
    let answers = tuple_confidences(
        &bills,
        posterior.db.world_table(),
        &DecompositionOptions::default(),
    )
    .unwrap();
    let p4 = answers
        .iter()
        .find(|(t, _)| t.get(0) == Some(&Value::Int(4)))
        .unwrap()
        .1;
    assert!((p4 - 0.3 / 0.44).abs() < 1e-9);
}

#[test]
fn tpch_q1_through_a_query_plan_and_all_three_strategies() {
    // Small instance: the eager reference materialises the unoptimized
    // cross-product chain of the q1 plan.
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.005).with_seed(7));
    let world_table = data.db.world_table();
    let options = DecompositionOptions::indve_minlog();

    let planned = data.db.query(&q1_plan()).unwrap();
    let eager = reference::execute_plan(&data.db, &q1_plan()).unwrap();
    assert!(!planned.is_empty(), "the instance has Q1 answers");
    assert_eq!(planned.rows(), eager.rows(), "same rows, same order");

    let planned_exact = answer_confidences_with_strategy(
        &planned,
        world_table,
        &options,
        &ConfidenceStrategy::Exact,
        &ParallelOptions::new(1),
    )
    .unwrap();
    let eager_exact = answer_confidences_with_strategy(
        &eager,
        world_table,
        &options,
        &ConfidenceStrategy::Exact,
        &ParallelOptions::new(1),
    )
    .unwrap();
    assert_eq!(planned_exact.tuples.len(), eager_exact.tuples.len());
    for ((t1, r1), (t2, r2)) in planned_exact.tuples.iter().zip(&eager_exact.tuples) {
        assert_eq!(t1, t2);
        assert_eq!(
            r1.probability.to_bits(),
            r2.probability.to_bits(),
            "tuple {t1:?}: planned exact conf must be bit-identical to eager"
        );
    }
    assert_eq!(
        planned_exact.boolean.probability.to_bits(),
        eager_exact.boolean.probability.to_bits()
    );

    // Hybrid with an ample budget: bit-identical, no fallback.
    let hybrid = answer_confidences_with_strategy(
        &planned,
        world_table,
        &options,
        &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        &ParallelOptions::new(2),
    )
    .unwrap();
    assert_eq!(hybrid.sampled_tuples(), 0);
    for ((t1, r1), (t2, r2)) in planned_exact.tuples.iter().zip(&hybrid.tuples) {
        assert_eq!(t1, t2);
        assert_eq!(r1.probability.to_bits(), r2.probability.to_bits());
    }

    // Approximate: in-band per tuple (pinned seed).
    let epsilon = 0.1;
    let approx = answer_confidences_with_strategy(
        &planned,
        world_table,
        &options,
        &ConfidenceStrategy::approximate(epsilon, 0.05).with_seed(1995),
        &ParallelOptions::new(2),
    )
    .unwrap();
    assert_eq!(approx.sampled_tuples(), approx.tuples.len());
    for ((t1, r1), (_, r2)) in planned_exact.tuples.iter().zip(&approx.tuples) {
        assert!(
            (r1.probability - r2.probability).abs() <= epsilon * r1.probability + 0.02,
            "tuple {t1:?}: exact {}, sampled {}",
            r1.probability,
            r2.probability
        );
    }
}

#[test]
fn hybrid_batch_completes_on_a_hard_instance_where_exact_aborts() {
    // The fig11a-shaped #P-hard instance: 100 variables, 2000 descriptors.
    // Exact decomposition blows the 20k-node budget on every answer tuple;
    // the hybrid batch must complete via the sampling fallback.
    const BUDGET: u64 = 20_000;
    let instance = HardInstance::generate(HardInstanceConfig {
        num_variables: 100,
        alternatives: 4,
        descriptor_length: 4,
        num_descriptors: 2_000,
        seed: 11,
    });
    let relation = hard_relation(&instance, 4);
    let options = DecompositionOptions::indve_minlog();

    // The exact strategy aborts with BudgetExceeded...
    let exact_attempt = answer_confidences_with_strategy(
        &relation,
        &instance.world_table,
        &options.with_budget(BUDGET),
        &ConfidenceStrategy::Exact,
        &ParallelOptions::new(1),
    );
    assert!(
        matches!(
            exact_attempt,
            Err(uprob::query::QueryError::Core(
                uprob::core::CoreError::BudgetExceeded { .. }
            ))
        ),
        "the hard instance must exhaust the exact budget"
    );

    // ...and the hybrid batch completes through sampling, reporting the
    // fallback per tuple.
    let hybrid = answer_confidences_with_strategy(
        &relation,
        &instance.world_table,
        &options,
        &ConfidenceStrategy::hybrid(BUDGET, 0.1, 0.05).with_seed(7),
        &ParallelOptions::new(2),
    )
    .unwrap();
    assert_eq!(hybrid.tuples.len(), 4);
    assert_eq!(hybrid.sampled_tuples(), 4, "every tuple fell back");
    assert!(hybrid.sampling_iterations() > 0);
    for (tuple, report) in &hybrid.tuples {
        assert_eq!(
            report.path,
            ResolvedPath::Sampled { fell_back: true },
            "tuple {tuple:?}"
        );
        let sampling = report.sampling.unwrap();
        assert_eq!(sampling.epsilon, 0.1);
        assert_eq!(sampling.delta, 0.05);
        assert!((0.0..=1.0).contains(&report.probability));
    }
    assert!(hybrid.boolean.path.is_sampled());
}

#[test]
fn hybrid_fallback_lands_within_epsilon_on_the_downscaled_twin() {
    // The brute-forceable twin of the hard instance (12 Boolean-ish
    // variables, 2^12 · r worlds): force the fallback with a budget of 1
    // and compare every sampled tuple confidence against the brute-force
    // reference within the requested ε.
    let epsilon = 0.1;
    let instance = HardInstance::generate(HardInstanceConfig {
        num_variables: 12,
        alternatives: 2,
        descriptor_length: 4,
        num_descriptors: 60,
        seed: 11,
    });
    let relation = hard_relation(&instance, 6);
    let hybrid = answer_confidences_with_strategy(
        &relation,
        &instance.world_table,
        &DecompositionOptions::indve_minlog(),
        &ConfidenceStrategy::hybrid(1, epsilon, 0.05).with_seed(2008),
        &ParallelOptions::new(2),
    )
    .unwrap();
    assert_eq!(hybrid.sampled_tuples(), hybrid.tuples.len());
    for ((tuple, ws_set), (reported_tuple, report)) in
        relation.distinct_tuples().into_iter().zip(&hybrid.tuples)
    {
        assert_eq!(&tuple, reported_tuple);
        assert_eq!(report.path, ResolvedPath::Sampled { fell_back: true });
        let reference = ws_set.probability_by_enumeration(&instance.world_table);
        assert!(
            (report.probability - reference).abs() <= epsilon * reference + 0.01,
            "tuple {tuple:?}: sampled {} vs brute force {reference}",
            report.probability
        );
    }
    // The answer-level Boolean confidence falls back and lands in-band too.
    let boolean_reference = relation
        .answer_ws_set()
        .probability_by_enumeration(&instance.world_table);
    assert!(hybrid.boolean.path.is_sampled());
    assert!(
        (hybrid.boolean.probability - boolean_reference).abs()
            <= epsilon * boolean_reference + 0.01,
        "boolean {} vs brute force {boolean_reference}",
        hybrid.boolean.probability
    );
}

#[test]
fn karp_luby_bits_are_pinned_on_a_downscaled_intractable_shape() {
    // The hybrid fallback's shape (r = 4, s = 4, w = 10n) at a fifth of its
    // size. A change to the RNG words a trial draws, or to which descriptors
    // count as covering its world, moves these bits and iteration counts;
    // the worker count never does.
    let instance = HardInstance::generate(HardInstanceConfig {
        num_variables: 20,
        alternatives: 4,
        descriptor_length: 4,
        num_descriptors: 200,
        seed: 2008,
    });
    let (set, table) = (&instance.ws_set, &instance.world_table);
    let adaptive = ApproximationOptions::default()
        .with_epsilon(0.02)
        .with_seed(2008);
    let bounded = ApproximationOptions::default()
        .with_epsilon(0.2)
        .with_delta(0.05)
        .with_seed(7);
    for workers in [1, 2] {
        let run = optimal_monte_carlo(set, table, &adaptive, workers).unwrap();
        assert_eq!(
            (
                run.estimate.to_bits(),
                run.stopping_iterations,
                run.refinement_iterations
            ),
            (0x3fe1_1d09_2209_21a4, 1_507, 26_551),
            "optimal_monte_carlo at {workers} workers: {run:?}"
        );
        let run = karp_luby_epsilon_delta(set, table, &bounded, workers).unwrap();
        assert_eq!(
            (run.estimate.to_bits(), run.iterations),
            (0x3fe1_4c6a_9060_ab7e, 73_778),
            "karp_luby_epsilon_delta at {workers} workers: {run:?}"
        );
    }
}

#[test]
fn assert_all_on_example_5_1_is_bit_identical_to_sequential_asserts() {
    // The 0.44 golden example as a constraint *set*: the FD of Example 5.1
    // plus a universally satisfied row filter. The single-pass batch must
    // reproduce the sequential fold bit for bit — and condition the
    // ws-tree exactly once.
    let (db, fd) = ssn_db();
    let range = Constraint::row_filter(
        "R",
        Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(9i64)),
    );
    let constraints = vec![fd.clone(), range.clone()];
    let options = ConditioningOptions::default();

    let batch = assert_all(&db, &constraints, &options).unwrap();
    assert!((batch.confidence - 0.44).abs() < 1e-12);

    // Sequential fold: assert the FD, then the (trivial) filter.
    let step1 = assert_constraint(&db, &fd, &options).unwrap();
    let step2 = assert_constraint(&step1.db, &range, &options).unwrap();
    let sequential_confidence = step1.confidence * step2.confidence;
    assert_eq!(batch.confidence.to_bits(), sequential_confidence.to_bits());
    assert_eq!(
        batch.db.relation("R").unwrap().rows(),
        step2.db.relation("R").unwrap().rows(),
        "posterior U-relations must be identical"
    );
    // Posterior tuple confidences, bit for bit.
    let opts = DecompositionOptions::default();
    let a = tuple_confidences(
        batch.db.relation("R").unwrap(),
        batch.db.world_table(),
        &opts,
    )
    .unwrap();
    let b = tuple_confidences(
        step2.db.relation("R").unwrap(),
        step2.db.world_table(),
        &opts,
    )
    .unwrap();
    for ((t1, p1), (t2, p2)) in a.iter().zip(&b) {
        assert_eq!(t1, t2);
        assert_eq!(p1.to_bits(), p2.to_bits());
    }
    // The batch conditions exactly once: its decomposition counters equal
    // those of the single FD assert (the combined satisfying set *is* the
    // FD's), while the sequential fold pays a second conditioning pass.
    assert_eq!(batch.stats, step1.stats);
    assert!(
        step1.stats.total_nodes() + step2.stats.total_nodes() > batch.stats.total_nodes(),
        "sequential: {} + {} nodes, batch: {}",
        step1.stats.total_nodes(),
        step2.stats.total_nodes(),
        batch.stats.total_nodes()
    );
}

#[test]
fn assert_all_on_figure3_is_bit_identical_to_the_singleton_assert() {
    // The 0.7578 golden example as a plan constraint: the Boolean query
    // over the Figure 3 relation is the violation, so the satisfying set
    // is its complement (P = 1 − 0.7578).
    let (w, s) = figure3();
    let mut db = ProbDb::with_world_table(w);
    let mut f = db
        .create_relation(Schema::new("F", &[("ID", ColumnType::Int)]))
        .unwrap();
    for (i, d) in s.iter().enumerate() {
        f.push(Tuple::new(vec![Value::Int(i as i64)]), d.clone());
    }
    db.insert_relation(f).unwrap();
    let constraint = Constraint::PlanConstraint {
        name: "fig3".into(),
        plan: Plan::scan("F").project(&[]),
    };
    let options = ConditioningOptions::default();

    let single = assert_constraint(&db, &constraint, &options).unwrap();
    let batch = assert_all(&db, std::slice::from_ref(&constraint), &options).unwrap();
    assert!((single.confidence - (1.0 - 0.7578)).abs() < 1e-9);
    assert_eq!(single.confidence.to_bits(), batch.confidence.to_bits());
    assert_eq!(
        single.db.relation("F").unwrap().rows(),
        batch.db.relation("F").unwrap().rows()
    );
    assert_eq!(
        single.stats, batch.stats,
        "identical single conditioning pass"
    );
}

#[test]
fn assert_all_on_the_fig10_tpch_fixture_is_bit_identical_to_sequential() {
    // The fig10 workload as a constraint set: "Q1 has no answers"
    // (violation = the Q1 plan projected to the Boolean schema, running
    // through the optimized pipelined executor) plus a universally
    // satisfied row filter on lineitem. The row scale keeps the Q1 answer
    // at ~17 descriptors over ~23 variables — conditioning on a larger Q1
    // complement grows exponentially (that infeasibility is the paper's
    // point, and the hybrid fallback's job; here the *exact* batch is the
    // golden value).
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.002).with_seed(7));
    let q1_boolean = Constraint::PlanConstraint {
        name: "q1-nonempty".into(),
        plan: q1_plan().project(&[]),
    };
    let quantity_range =
        Constraint::row_filter("lineitem", Predicate::between("quantity", 0i64, 50i64));
    let constraints = vec![q1_boolean.clone(), quantity_range.clone()];
    let options = ConditioningOptions::default();

    let batch = assert_all(&data.db, &constraints, &options).unwrap();
    let step1 = assert_constraint(&data.db, &q1_boolean, &options).unwrap();
    let step2 = assert_constraint(&step1.db, &quantity_range, &options).unwrap();
    assert_eq!(
        batch.confidence.to_bits(),
        (step1.confidence * step2.confidence).to_bits()
    );
    for name in ["customer", "orders", "lineitem"] {
        assert_eq!(
            batch.db.relation(name).unwrap().rows(),
            step2.db.relation(name).unwrap().rows(),
            "posterior {name} must be identical"
        );
    }
    // Cross-check the confidence against the planned Boolean query:
    // P(all constraints) = 1 − P(Q1 non-empty).
    let p_q1 = boolean_confidence(
        &data.db.query(&q1_plan().project(&[])).unwrap(),
        data.db.world_table(),
        &DecompositionOptions::default(),
    )
    .unwrap();
    assert!((batch.confidence - (1.0 - p_q1)).abs() < 1e-9);
}

#[test]
fn fk_and_denial_workload_through_all_three_strategies() {
    // An InclusionDependency + DenialConstraint workload end-to-end: the
    // violation queries run through the optimized planned executor (denial
    // constraints) and the hash-bucket difference (the FK), under every
    // strategy variant.
    let workload =
        uprob_datagen::ConstraintWorkload::generate(uprob_datagen::ConstraintWorkloadConfig {
            departments: 5,
            people: 40,
            conflicts: 2,
            dangling: 2,
            out_of_range: 2,
            seed: 2008,
        });
    let options = ConditioningOptions::default();
    let exact = assert_all_with_strategy(
        &workload.db,
        &workload.constraints,
        &options,
        &ConfidenceStrategy::Exact,
    )
    .unwrap();
    assert!(matches!(exact, Assertion::Materialized(_)));
    assert!(exact.confidence() > 0.0 && exact.confidence() < 1.0);

    // Hybrid with an ample budget: bit-identical materialisation.
    let hybrid = assert_all_with_strategy(
        &workload.db,
        &workload.constraints,
        &options,
        &ConfidenceStrategy::hybrid(10_000_000, 0.1, 0.01),
    )
    .unwrap();
    assert!(matches!(hybrid, Assertion::Materialized(_)));
    assert_eq!(hybrid.confidence().to_bits(), exact.confidence().to_bits());

    // Hybrid with a starvation budget: the virtual posterior answers
    // posterior queries through conditioned estimation.
    let starved = assert_all_with_strategy(
        &workload.db,
        &workload.constraints,
        &options,
        &ConfidenceStrategy::Hybrid {
            budget: 2,
            approx: ApproximationOptions::default()
                .with_epsilon(0.1)
                .with_delta(0.05)
                .with_seed(2008),
        },
    )
    .unwrap();
    let Assertion::Estimated(virtual_posterior) = starved else {
        panic!("a budget of 2 must force the estimated path");
    };
    assert!(
        (virtual_posterior.confidence.probability - exact.confidence()).abs()
            <= 0.1 * exact.confidence() + 0.02,
        "estimated P(C) {} vs exact {}",
        virtual_posterior.confidence.probability,
        exact.confidence()
    );

    // Approximate: in-band estimate of the conjunction (pinned seed).
    let approx = assert_all_with_strategy(
        &workload.db,
        &workload.constraints,
        &options,
        &ConfidenceStrategy::approximate(0.1, 0.05).with_seed(1010),
    )
    .unwrap();
    assert!(!matches!(approx, Assertion::Materialized(_)));
    assert!(
        (approx.confidence() - exact.confidence()).abs() <= 0.1 * exact.confidence() + 0.02,
        "approximate P(C) {} vs exact {}",
        approx.confidence(),
        exact.confidence()
    );
}
