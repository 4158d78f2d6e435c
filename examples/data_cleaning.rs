//! Data cleaning with conditioning: a larger OCR-extraction scenario.
//!
//! A batch of paper forms is digitised by OCR software; for every person the
//! reader proposes a handful of weighted alternatives for the social
//! security number. The raw extraction is stored as a probabilistic
//! database of priors. Cleaning then *conditions* the database on the
//! knowledge that SSNs are unique (a key constraint) and that SSNs lie in a
//! valid range, materialising a posterior database that all later queries
//! run against — without redoing the cleaning.
//!
//! The example also contrasts exact confidence computation with the
//! Karp–Luby approximation on the cleaned data, illustrating why the paper
//! insists on exact values when confidences feed comparison predicates.
//!
//! Run with `cargo run --example data_cleaning`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uprob::prelude::*;

/// Number of extracted persons.
const PERSONS: usize = 12;
/// Size of the SSN pool the OCR confuses readings within.
const SSN_POOL: i64 = 18;

fn main() {
    let mut rng = StdRng::seed_from_u64(2008);

    // ----------------------------------------------------------------- //
    // 1. Simulate the OCR extraction: per person, 2-3 weighted readings. //
    // ----------------------------------------------------------------- //
    let mut db = ProbDb::new();
    let schema = Schema::new(
        "person",
        &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)],
    );
    let mut relation = db.create_relation(schema).expect("fresh relation");
    for person in 0..PERSONS {
        let alternatives = rng.random_range(2..=3usize);
        // Draw distinct candidate SSNs and random weights.
        let mut candidates: Vec<i64> = Vec::new();
        while candidates.len() < alternatives {
            let candidate = rng.random_range(0..SSN_POOL);
            if !candidates.contains(&candidate) {
                candidates.push(candidate);
            }
        }
        let mut weights: Vec<f64> = (0..alternatives)
            .map(|_| rng.random_range(0.1..1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let distribution: Vec<(i64, f64)> = candidates
            .iter()
            .copied()
            .zip(weights.iter().copied())
            .collect();
        let var = db
            .world_table_mut()
            .add_variable(&format!("p{person}"), &distribution)
            .expect("valid distribution");
        for &(ssn, _) in &distribution {
            relation.push(
                Tuple::new(vec![
                    Value::Int(ssn),
                    Value::Str(format!("Person#{person:02}")),
                ]),
                WsDescriptor::from_pairs(db.world_table(), &[(var, ssn)])
                    .expect("valid descriptor"),
            );
        }
    }
    db.insert_relation(relation).expect("relation is valid");
    println!("== Raw OCR extraction ==");
    println!(
        "{} persons, {} candidate rows, 10^{:.1} possible worlds",
        PERSONS,
        db.relation("person").expect("person exists").len(),
        db.world_table().log2_world_count() * std::f64::consts::LN_2 / std::f64::consts::LN_10,
    );

    // ----------------------------------------------------------------- //
    // 2. Clean: assert that SSNs are unique and within the valid range.  //
    // ----------------------------------------------------------------- //
    let key = Constraint::key("person", &["SSN"]);
    let range = Constraint::row_filter(
        "person",
        Predicate::between("SSN", 0i64, SSN_POOL - 1).and(Predicate::cmp(
            Expr::col("SSN"),
            Comparison::Ge,
            Expr::val(0i64),
        )),
    );
    let options = ConditioningOptions::default();
    let step1 = assert_constraint(&db, &range, &options).expect("range constraint is satisfiable");
    let cleaned =
        assert_constraint(&step1.db, &key, &options).expect("key constraint is satisfiable");
    println!("\n== Cleaning ==");
    println!("P(valid range)          = {:.6}", step1.confidence);
    println!("P(key | valid range)    = {:.6}", cleaned.confidence);
    println!(
        "posterior world table: {} variables (was {})",
        cleaned.db.world_table().num_variables(),
        db.world_table().num_variables()
    );

    // ----------------------------------------------------------------- //
    // 3. Query the posterior: most likely SSN per person.                //
    // ----------------------------------------------------------------- //
    println!("\n== Posterior: most likely SSN per person ==");
    for person in 0..PERSONS {
        let name = format!("Person#{person:02}");
        let ssns = cleaned
            .db
            .query(
                &Plan::scan("person")
                    .select(Predicate::col_eq("NAME", name.as_str()))
                    .project(&["SSN"]),
            )
            .expect("valid plan");
        let mut confidences = tuple_confidences(
            &ssns,
            cleaned.db.world_table(),
            &DecompositionOptions::default(),
        )
        .expect("confidence computation succeeds");
        confidences.sort_by(|a, b| b.1.total_cmp(&a.1));
        if let Some((tuple, p)) = confidences.first() {
            println!(
                "  {name}: SSN {:>3}  (conf {:.3})",
                tuple.get(0).expect("one column"),
                p
            );
        }
    }

    // ----------------------------------------------------------------- //
    // 4. Exact versus approximate confidence on the cleaned database.    //
    // ----------------------------------------------------------------- //
    let all = cleaned
        .db
        .query(&Plan::scan("person").project(&["SSN"]))
        .expect("valid plan");
    let ws = all.answer_ws_set();
    let exact = confidence(
        &ws,
        cleaned.db.world_table(),
        &DecompositionOptions::indve_minlog(),
    )
    .expect("exact confidence succeeds");
    let approximate = karp_luby_epsilon_delta(
        &ws,
        cleaned.db.world_table(),
        &ApproximationOptions::default().with_epsilon(0.1),
        available_workers(),
    )
    .expect("approximation succeeds");
    println!("\n== P(some SSN is recorded) on the cleaned database ==");
    println!("  exact (INDVE, minlog): {:.6}", exact.probability);
    println!(
        "  Karp-Luby (eps = 0.1): {:.6}  ({} iterations)",
        approximate.estimate, approximate.iterations
    );
    println!(
        "  decomposition: {} nodes, max depth {}",
        exact.stats.total_nodes(),
        exact.stats.max_depth
    );
}
