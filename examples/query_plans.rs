//! Logical query plans end to end: build the unoptimized plan of a query,
//! watch the optimizer rewrite it, execute it through the pipelined
//! hash-join executor, and run `conf()` over the planned answer —
//! including the planned-vs-eager wall-clock gap on a TPC-H-shaped join.
//!
//! ```text
//! cargo run --release --example query_plans
//! ```

use std::time::Instant;

use uprob::datagen::{q1_plan, TpchConfig, TpchDatabase};
use uprob::prelude::*;

fn main() {
    // ── The SSN database of Figure 2 ────────────────────────────────────
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

    // Example 2.3 as a plan, written the naive way: a selection over a
    // cross product of the relation with a renamed copy of itself.
    let violation = Plan::scan("R")
        .product(Plan::scan("R").rename("R2"))
        .select(Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
            Expr::col("NAME"),
            Comparison::Ne,
            Expr::col("R2.NAME"),
        )))
        .project(&[]);
    println!("unoptimized FD-violation plan:\n{violation}");
    let optimized = optimize_plan(&violation, &db).unwrap();
    println!("optimized (select-product became an equi-join):\n{optimized}");

    // `ProbDb::query` = optimize + pipelined execution; `conf()` of the
    // Boolean answer is the violation probability of Example 2.3.
    let p = planned_boolean_confidence(&db, &violation, &DecompositionOptions::default()).unwrap();
    println!("conf(FD violated) = {p:.2}   (paper: 0.56; assert[SSN→NAME] keeps 0.44)\n");

    // Per-tuple conf() over a planned query: Bill's SSN marginals.
    let bills = Plan::scan("R")
        .select(Predicate::col_eq("NAME", "Bill"))
        .project(&["SSN"]);
    let answers = planned_answer_confidences_with_options(
        &db,
        &bills,
        &DecompositionOptions::default(),
        &ParallelOptions::auto(),
        &SharedDecompositionCache::new(),
    )
    .unwrap();
    for (tuple, confidence) in &answers.tuples {
        println!(
            "conf(Bill has SSN {}) = {confidence:.2}",
            tuple.get(0).unwrap()
        );
    }

    // ── Planned vs. eager on a TPC-H-shaped join ────────────────────────
    // The eager reference materialises every intermediate relation — on
    // the unoptimized Q1 product chain that is |customer|·|orders| rows
    // and then |customer|·|orders|·|lineitem| pairs, so the comparison
    // runs on a deliberately tiny instance. The planned path streams
    // through pushed-down selections and hash joins and shrugs at it.
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.005).with_seed(7));
    let q1 = q1_plan();
    println!("\nTPC-H Q1 as an unoptimized product chain:\n{q1}");
    println!("optimized:\n{}", optimize_plan(&q1, &data.db).unwrap());

    let start = Instant::now();
    let planned = data.db.query(&q1).unwrap();
    let planned_elapsed = start.elapsed();
    println!(
        "optimize + pipelined hash joins: {} answer rows in {:.2?}",
        planned.len(),
        planned_elapsed
    );
    let start = Instant::now();
    let eager = uprob_reference::urel::execute_plan(&data.db, &q1).unwrap();
    let eager_elapsed = start.elapsed();
    println!(
        "eager nested-loop reference:     {} answer rows in {:.2?}  ({:.0}x slower)",
        eager.len(),
        eager_elapsed,
        eager_elapsed.as_secs_f64() / planned_elapsed.as_secs_f64().max(1e-9)
    );
    assert_eq!(planned.len(), eager.len());

    // At a 10x larger instance the planned path is still instant; the
    // per-tuple conf() batch over the planned answer closes the loop.
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(7));
    let start = Instant::now();
    let confidences = planned_answer_confidences_with_options(
        &data.db,
        &q1,
        &DecompositionOptions::default(),
        &ParallelOptions::sequential(),
        &SharedDecompositionCache::new(),
    )
    .unwrap();
    println!(
        "10x larger instance: plan + conf() over {} answer tuples in {:.2?} \
         (boolean conf {:.4})",
        confidences.tuples.len(),
        start.elapsed(),
        confidences.boolean
    );
}
