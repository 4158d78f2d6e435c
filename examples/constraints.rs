//! Cross-relation constraints and single-pass conditioning.
//!
//! A small order-management database with uncertain ingestion: customers
//! and orders both carry existence probabilities, and some rows are
//! corrupt — an order referencing a customer that was never confirmed, a
//! duplicate customer SSN, an order total that fails a sanity check.
//! Cleaning means conditioning on the conjunction of four constraints:
//!
//! * a **key**: customer SSNs are unique,
//! * an **inclusion dependency** (foreign key): every order references an
//!   existing customer,
//! * a **row filter**: order totals are positive,
//! * a **denial constraint**: no order above the credit limit co-exists
//!   with a customer flagged as `blocked`.
//!
//! [`assert_all`] compiles every violation query through the optimized
//! pipelined executor, unions the violation world-sets, complements once,
//! and conditions the database in a **single pass** — this example
//! cross-checks it against the sequential [`assert_constraint`] fold and
//! then answers posterior queries, both exactly and through the hybrid
//! sampling engine. Each violation probability is checked against the
//! brute-force world enumeration of the `uprob-reference` oracle crate.
//!
//! Run with `cargo run --example constraints`.

use uprob::prelude::*;
use uprob_reference::worlds::SetWorlds;

fn main() {
    // ------------------------------------------------------------- //
    // 1. The prior database: uncertain customers and orders.         //
    // ------------------------------------------------------------- //
    let mut db = ProbDb::new();
    let customer_schema = Schema::new(
        "customer",
        &[
            ("CID", ColumnType::Int),
            ("SSN", ColumnType::Int),
            ("STATUS", ColumnType::Str),
        ],
    );
    let order_schema = Schema::new(
        "orders",
        &[
            ("OID", ColumnType::Int),
            ("CID", ColumnType::Int),
            ("TOTAL", ColumnType::Int),
        ],
    );
    let mut customer = db.create_relation(customer_schema).expect("fresh relation");
    let mut orders = db.create_relation(order_schema).expect("fresh relation");
    // Customers: (CID, SSN, STATUS, probability). Customers 1 and 2 share
    // an SSN reading — the key constraint will have to arbitrate.
    let customers = [
        (1i64, 500i64, "ok", 0.9),
        (2, 500, "ok", 0.6),
        (3, 501, "blocked", 0.8),
        (4, 502, "ok", 0.7),
    ];
    for &(cid, ssn, status, p) in &customers {
        let var = db
            .world_table_mut()
            .add_boolean(&format!("c{cid}"), p)
            .expect("fresh variable");
        customer.push(
            Tuple::new(vec![Value::Int(cid), Value::Int(ssn), Value::str(status)]),
            WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).expect("boolean"),
        );
    }
    // Orders: (OID, CID, TOTAL, probability). Order 102 references the
    // never-ingested customer 9; order 103 has a negative total; order 104
    // is a big-ticket order by the blocked customer 3.
    let order_rows = [
        (101i64, 1i64, 250i64, 0.9),
        (102, 9, 120, 0.5),
        (103, 4, -30, 0.4),
        (104, 3, 9_000, 0.7),
        (105, 2, 80, 0.8),
    ];
    for &(oid, cid, total, p) in &order_rows {
        let var = db
            .world_table_mut()
            .add_boolean(&format!("o{oid}"), p)
            .expect("fresh variable");
        orders.push(
            Tuple::new(vec![Value::Int(oid), Value::Int(cid), Value::Int(total)]),
            WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).expect("boolean"),
        );
    }
    db.insert_relation(customer).expect("valid relation");
    db.insert_relation(orders).expect("valid relation");

    // ------------------------------------------------------------- //
    // 2. The constraint set.                                         //
    // ------------------------------------------------------------- //
    let constraints = vec![
        Constraint::key("customer", &["SSN"]),
        Constraint::inclusion_dependency("orders", &["CID"], "customer", &["CID"]),
        Constraint::row_filter(
            "orders",
            Predicate::cmp(Expr::col("TOTAL"), Comparison::Gt, Expr::val(0i64)),
        ),
        Constraint::denial(
            "no-blocked-big-ticket",
            &[("orders", "o"), ("customer", "c")],
            Predicate::cols_eq("CID", "c.CID")
                .and(Predicate::col_eq("STATUS", "blocked"))
                .and(Predicate::cmp(
                    Expr::col("TOTAL"),
                    Comparison::Gt,
                    Expr::val(1_000i64),
                )),
        ),
    ];
    println!("constraints:");
    for constraint in &constraints {
        let violations = constraint
            .violation_ws_set(&db)
            .expect("constraints validate");
        let violated = confidence(
            &violations,
            db.world_table(),
            &DecompositionOptions::default(),
        )
        .expect("the violation set decomposes")
        .probability;
        let by_enumeration = violations.probability_by_enumeration(db.world_table());
        assert!((violated - by_enumeration).abs() < 1e-9);
        println!(
            "  {:<40} P(violated) = {:.4}",
            constraint.describe(),
            violated
        );
    }

    // ------------------------------------------------------------- //
    // 3. Single-pass assert_all vs the sequential fold.              //
    // ------------------------------------------------------------- //
    let options = ConditioningOptions::default();
    let batch = assert_all(&db, &constraints, &options).expect("satisfiable");
    println!(
        "\nassert_all: P(all constraints hold) = {:.6} ({} decomposition nodes, one pass)",
        batch.confidence,
        batch.stats.total_nodes()
    );
    let mut current = db.clone();
    let mut product = 1.0;
    let mut sequential_nodes = 0;
    for constraint in &constraints {
        let step = assert_constraint(&current, constraint, &options).expect("satisfiable");
        product *= step.confidence;
        sequential_nodes += step.stats.total_nodes();
        current = step.db;
    }
    println!(
        "sequential:  P = {:.6} ({sequential_nodes} nodes across {} passes)",
        product,
        constraints.len()
    );
    assert!((batch.confidence - product).abs() < 1e-9);

    // ------------------------------------------------------------- //
    // 4. Posterior queries on the cleaned database.                  //
    // ------------------------------------------------------------- //
    let surviving_orders = batch
        .db
        .query(&Plan::scan("orders").project(&["OID"]))
        .expect("valid plan");
    let answers = tuple_confidences(
        &surviving_orders,
        batch.db.world_table(),
        &DecompositionOptions::default(),
    )
    .expect("exact confidences");
    println!("\nposterior order survival:");
    for (tuple, p) in &answers {
        println!("  order {:?}: P = {:.4}", tuple.get(0).unwrap(), p);
    }

    // The same assertion through the hybrid engine: with a starved budget
    // the posterior stays virtual and queries run as conditioned
    // estimates on the *prior* database.
    let starved = assert_all_with_strategy(
        &db,
        &constraints,
        &options,
        &ConfidenceStrategy::hybrid(4, 0.1, 0.05),
    )
    .expect("satisfiable");
    if let Assertion::Estimated(virtual_posterior) = starved {
        println!(
            "\nhybrid (budget 4): virtual posterior, estimated P(C) = {:.4}",
            virtual_posterior.confidence.probability
        );
        // Queries against a virtual posterior run on the *prior* database.
        let prior_orders = db
            .query(&Plan::scan("orders").project(&["OID"]))
            .expect("valid plan");
        let posterior = virtual_posterior
            .tuple_confidences(&prior_orders, db.world_table(), &ParallelOptions::new(2))
            .expect("conditioned estimates");
        let (tuple, report) = &posterior[0];
        println!(
            "  e.g. order {:?}: estimated posterior P = {:.4}",
            tuple.get(0).unwrap(),
            report.probability
        );
    } else {
        println!("\nhybrid (budget 4): materialized after all");
    }
}
