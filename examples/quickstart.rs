//! Quickstart: the running example of the paper.
//!
//! Builds the SSN/NAME database of Figures 1/2, queries tuple confidences,
//! asserts the functional dependency `SSN -> NAME` (social security numbers
//! are unique) and queries the *conditional* probabilities on the posterior
//! database — reproducing the numbers of the paper's introduction.
//!
//! Run with `cargo run --example quickstart`.

use uprob::prelude::*;

fn main() {
    // ----------------------------------------------------------------- //
    // 1. Build the prior database.                                       //
    // ----------------------------------------------------------------- //
    let mut db = ProbDb::new();
    let j = db
        .world_table_mut()
        .add_variable("j", &[(1, 0.2), (7, 0.8)])
        .expect("valid distribution");
    let b = db
        .world_table_mut()
        .add_variable("b", &[(4, 0.3), (7, 0.7)])
        .expect("valid distribution");
    let f = db
        .world_table_mut()
        .add_variable("f", &[(1, 0.5), (4, 0.5)])
        .expect("valid distribution");

    let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
    let mut r = db.create_relation(schema).expect("fresh relation");
    {
        let w = db.world_table();
        let mut push = |ssn: i64, name: &str, var, value| {
            r.push(
                Tuple::new(vec![Value::Int(ssn), Value::str(name)]),
                WsDescriptor::from_pairs(w, &[(var, value)]).expect("valid descriptor"),
            );
        };
        push(1, "John", j, 1);
        push(7, "John", j, 7);
        push(4, "Bill", b, 4);
        push(7, "Bill", b, 7);
        push(1, "Fred", f, 1);
        push(4, "Fred", f, 4);
    }
    db.insert_relation(r).expect("relation is valid");

    println!("== Prior database ==");
    println!("{db}");
    println!(
        "possible worlds: {}",
        db.world_table().world_count().expect("small database")
    );

    // ----------------------------------------------------------------- //
    // 2. select SSN, conf() from R where NAME = 'Bill' group by SSN      //
    // ----------------------------------------------------------------- //
    let bills_ssns = Plan::scan("R")
        .select(Predicate::col_eq("NAME", "Bill"))
        .project(&["SSN"]);
    let ssns = db.query(&bills_ssns).expect("valid plan");
    let prior_conf = tuple_confidences(&ssns, db.world_table(), &DecompositionOptions::default())
        .expect("confidence computation succeeds");
    println!("\n== Prior confidences: Bill's SSN ==");
    for (tuple, p) in &prior_conf {
        println!(
            "  SSN {}   conf {:.4}",
            tuple.get(0).expect("one column"),
            p
        );
    }

    // ----------------------------------------------------------------- //
    // 3. assert[SSN -> NAME]: SSNs are unique.                           //
    // ----------------------------------------------------------------- //
    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    let posterior = assert_constraint(&db, &fd, &ConditioningOptions::default())
        .expect("the FD is satisfiable");
    println!("\n== assert[SSN -> NAME] ==");
    println!(
        "confidence of the constraint in the prior: {:.4}",
        posterior.confidence
    );
    println!("fresh variables introduced: {}", posterior.new_variables);
    println!("\n== Posterior database ==");
    println!("{}", posterior.db);

    // ----------------------------------------------------------------- //
    // 4. The same query on the posterior gives conditional probabilities //
    // ----------------------------------------------------------------- //
    let ssns = posterior.db.query(&bills_ssns).expect("valid plan");
    let posterior_conf = tuple_confidences(
        &ssns,
        posterior.db.world_table(),
        &DecompositionOptions::default(),
    )
    .expect("confidence computation succeeds");
    println!("== Posterior confidences: Bill's SSN given the FD ==");
    for (tuple, p) in &posterior_conf {
        println!(
            "  SSN {}   conf {:.4}",
            tuple.get(0).expect("one column"),
            p
        );
    }

    // ----------------------------------------------------------------- //
    // 5. select SSN from R where conf(SSN) = 1: the certain SSNs.        //
    // ----------------------------------------------------------------- //
    let all_ssns = posterior
        .db
        .query(&Plan::scan("R").project(&["SSN"]))
        .expect("valid plan");
    let certain = certain_tuples(
        &all_ssns,
        posterior.db.world_table(),
        &DecompositionOptions::default(),
    )
    .expect("confidence computation succeeds");
    println!("\n== Certain SSNs after conditioning (conf = 1) ==");
    for tuple in &certain {
        println!("  SSN {}", tuple.get(0).expect("one column"));
    }
    assert_eq!(
        certain.len(),
        3,
        "the introduction's example promises three"
    );
}
