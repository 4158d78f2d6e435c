//! End-to-end replication of the worked examples of the paper, exercised
//! through the public facade (`uprob::prelude`).

use uprob::prelude::*;
use uprob_reference::worlds::{SetWorlds, TableWorlds};

/// The SSN database of Figures 1/2.
fn ssn_db() -> (ProbDb, VarId, VarId) {
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
    (db, j, b)
}

/// The world table and ws-set S of Figure 3.
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

#[test]
fn figure_1_the_four_worlds_and_their_probabilities() {
    let (db, _, _) = ssn_db();
    assert_eq!(db.world_table().world_count(), Some(4));
    let mut probabilities: Vec<f64> = db
        .world_table()
        .enumerate_worlds()
        .map(|(_, p)| p)
        .collect();
    probabilities.sort_by(f64::total_cmp);
    let expected = [0.06, 0.14, 0.24, 0.56];
    for (p, e) in probabilities.iter().zip(expected) {
        assert!((p - e).abs() < 1e-12);
    }
}

#[test]
fn introduction_prior_confidences_of_bills_ssn() {
    let (db, _, _) = ssn_db();
    let ssns = db
        .query(
            &Plan::scan("R")
                .select(Predicate::col_eq("NAME", "Bill"))
                .project(&["SSN"]),
        )
        .unwrap();
    let answers =
        tuple_confidences(&ssns, db.world_table(), &DecompositionOptions::default()).unwrap();
    let lookup = |ssn: i64| {
        answers
            .iter()
            .find(|(t, _)| t.get(0) == Some(&Value::Int(ssn)))
            .map(|(_, p)| *p)
            .unwrap()
    };
    assert!((lookup(4) - 0.3).abs() < 1e-12);
    assert!((lookup(7) - 0.7).abs() < 1e-12);
}

#[test]
fn example_2_3_the_fd_violation_world_set() {
    let (db, j, b) = ssn_db();
    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    let violations = fd.violation_ws_set(&db).unwrap();
    let expected = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(
        db.world_table(),
        &[(j, 7), (b, 7)],
    )
    .unwrap()]);
    assert!(violations.is_equivalent_by_enumeration(&expected, db.world_table()));
    // The complement given in the paper: {{j -> 1}, {j -> 7, b -> 4}} (one
    // of several equivalent solutions).
    let satisfying = fd.satisfying_ws_set(&db).unwrap();
    let paper_solution = WsSet::from_descriptors(vec![
        WsDescriptor::from_pairs(db.world_table(), &[(j, 1)]).unwrap(),
        WsDescriptor::from_pairs(db.world_table(), &[(j, 7), (b, 4)]).unwrap(),
    ]);
    assert!(satisfying.is_equivalent_by_enumeration(&paper_solution, db.world_table()));
}

#[test]
fn example_4_7_and_figure_3_probability() {
    let (w, s) = figure3();
    // All exact methods agree on P(S) = 0.7578.
    for options in [
        DecompositionOptions::indve_minlog(),
        DecompositionOptions::indve_minmax(),
        DecompositionOptions::ve_minlog(),
    ] {
        assert!((confidence(&s, &w, &options).unwrap().probability - 0.7578).abs() < 1e-12);
    }
    assert!((confidence_by_elimination(&s, &w, None).unwrap().probability - 0.7578).abs() < 1e-12);
    assert!((s.probability_by_enumeration(&w) - 0.7578).abs() < 1e-12);
}

#[test]
fn introduction_conditional_probability_of_bill_given_the_fd() {
    let (db, _, _) = ssn_db();
    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    // P(A4 | B) = P(A4 ∧ B) / P(B) = .3 / .44 ≈ .68 (Introduction), computed
    // both by the two-query formulation and via conditioning.
    let satisfying = fd.satisfying_ws_set(&db).unwrap();
    let p_b = confidence(
        &satisfying,
        db.world_table(),
        &DecompositionOptions::default(),
    )
    .unwrap()
    .probability;
    assert!((p_b - 0.44).abs() < 1e-12);
    let bill4 = Plan::scan("R")
        .select(Predicate::col_eq("NAME", "Bill").and(Predicate::col_eq("SSN", 4i64)));
    let bill4_rows = db.query(&bill4).unwrap();
    let a4 = bill4_rows.answer_ws_set();
    let a4_and_b = a4.intersect(&satisfying);
    let p_a4_and_b = confidence(
        &a4_and_b,
        db.world_table(),
        &DecompositionOptions::default(),
    )
    .unwrap()
    .probability;
    let by_two_queries = p_a4_and_b / p_b;
    assert!((by_two_queries - 0.3 / 0.44).abs() < 1e-9);

    // Via conditioning (assert + conf on the posterior).
    let conditioned = assert_constraint(&db, &fd, &ConditioningOptions::default()).unwrap();
    let bills = conditioned.db.query(&bill4).unwrap();
    let posterior = boolean_confidence(
        &bills,
        conditioned.db.world_table(),
        &DecompositionOptions::default(),
    )
    .unwrap();
    assert!((posterior - by_two_queries).abs() < 1e-9);
}

#[test]
fn example_5_1_and_5_4_the_conditioned_database_of_the_paper() {
    // Conditioning reproduces the database printed in Example 5.1 (two
    // variables b and j' after simplification, five rows). Figure 8's ⊗ rule
    // never fires on this condition, so VE-only conditioning is the paper's
    // algorithm here.
    let (db, j, b) = ssn_db();
    let condition_set = WsSet::from_descriptors(vec![
        WsDescriptor::from_pairs(db.world_table(), &[(j, 1)]).unwrap(),
        WsDescriptor::from_pairs(db.world_table(), &[(j, 7), (b, 4)]).unwrap(),
    ]);
    let result = condition(&db, &condition_set, &ConditioningOptions::default()).unwrap();
    assert!((result.confidence - 0.44).abs() < 1e-12);
    let table = result.db.world_table();
    assert_eq!(table.num_variables(), 2);
    let jp = table.variable_by_name("j'").expect("fresh variable j'");
    assert!((table.probability(jp, ValueIndex(0)).unwrap() - 0.2 / 0.44).abs() < 1e-12);
    assert!((table.probability(jp, ValueIndex(1)).unwrap() - (0.8 * 0.3) / 0.44).abs() < 1e-12);
    assert_eq!(result.db.relation("R").unwrap().len(), 5);
    // In the conditioned database the FD holds with probability 1.
    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    let satisfied = fd.satisfying_ws_set(&result.db).unwrap();
    let p = confidence(&satisfied, table, &DecompositionOptions::default())
        .unwrap()
        .probability;
    assert!((p - 1.0).abs() < 1e-9);
}

#[test]
fn example_6_1_ws_descriptor_elimination() {
    let (db, j, b) = ssn_db();
    let w = db.world_table();
    let set = WsSet::from_descriptors(vec![
        WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap(),
        WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap(),
        WsDescriptor::from_pairs(w, &[(j, 1), (b, 4)]).unwrap(),
    ]);
    let result = confidence_by_elimination(&set, w, None).unwrap();
    assert!((result.probability - 1.0).abs() < 1e-12);
}

#[test]
fn karp_luby_approximates_the_figure_3_probability() {
    let (w, s) = figure3();
    let kl = karp_luby_epsilon_delta(
        &s,
        &w,
        &ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.01)
            .with_seed(1),
        available_workers(),
    )
    .unwrap();
    assert!((kl.estimate - 0.7578).abs() < 0.05 * 0.7578 + 1e-9);
    let optimal = optimal_monte_carlo(
        &s,
        &w,
        &ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.01)
            .with_seed(2),
        available_workers(),
    )
    .unwrap();
    assert!((optimal.estimate - 0.7578).abs() < 0.06);
}

#[test]
fn theorem_5_5_asserts_commute() {
    // assert[B1]; assert[B2] and assert[B2]; assert[B1] produce databases
    // with the same instance-level posterior distribution.
    let (db, _, _) = ssn_db();
    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    let range = Constraint::row_filter(
        "R",
        Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(7i64))
            .or(Predicate::col_eq("NAME", "John")),
    );
    let options = ConditioningOptions::default();

    let order_a = {
        let step = assert_constraint(&db, &fd, &options).unwrap();
        assert_constraint(&step.db, &range, &options).unwrap()
    };
    let order_b = {
        let step = assert_constraint(&db, &range, &options).unwrap();
        assert_constraint(&step.db, &fd, &options).unwrap()
    };
    let distribution = |db: &ProbDb| {
        let mut out = std::collections::BTreeMap::new();
        for (_, p, instance) in uprob_reference::urel::enumerate_instances(db) {
            *out.entry(format!("{instance:?}")).or_insert(0.0) += p;
        }
        out.retain(|_, p: &mut f64| *p > 1e-12);
        out
    };
    let a = distribution(&order_a.db);
    let b = distribution(&order_b.db);
    assert_eq!(a.len(), b.len());
    for (key, p) in &a {
        assert!((p - b[key]).abs() < 1e-9, "instance {key}");
    }
}
