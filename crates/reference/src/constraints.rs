//! Constraint compilation (`uprob_query::Constraint::violation_ws_set`)
//! against the eager compilation [`crate::query::violation_ws_set`]: the
//! same normalised world-sets, bit for bit, NULL semantics included.

mod tests {
    use crate::fixtures::ssn_db;
    use crate::query::violation_ws_set;
    use uprob_core::ConditioningOptions;
    use uprob_query::{assert_constraint, Constraint};
    use uprob_urel::{ColumnType, Comparison, Expr, Predicate, ProbDb, Schema, Tuple, Value};
    use uprob_wsd::WsDescriptor;

    /// A two-relation parent/child database for FK constraints: parents
    /// `P(K)` with keys 1, 2; children `C(FK)` referencing 1 (valid where
    /// the parent exists), 9 (dangling) and NULL.
    fn fk_db() -> ProbDb {
        let mut db = ProbDb::new();
        let p1 = db.world_table_mut().add_boolean("p1", 0.5).unwrap();
        let p2 = db.world_table_mut().add_boolean("p2", 0.5).unwrap();
        let c1 = db.world_table_mut().add_boolean("c1", 0.5).unwrap();
        let c2 = db.world_table_mut().add_boolean("c2", 0.5).unwrap();
        let c3 = db.world_table_mut().add_boolean("c3", 0.5).unwrap();
        let mut parent = db
            .create_relation(Schema::new("P", &[("K", ColumnType::Int)]))
            .unwrap();
        let mut child = db
            .create_relation(Schema::new("C", &[("FK", ColumnType::Int)]))
            .unwrap();
        {
            let w = db.world_table();
            parent.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(p1, 1)]).unwrap(),
            );
            parent.push(
                Tuple::new(vec![Value::Int(2)]),
                WsDescriptor::from_pairs(w, &[(p2, 1)]).unwrap(),
            );
            child.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(c1, 1)]).unwrap(),
            );
            child.push(
                Tuple::new(vec![Value::Int(9)]),
                WsDescriptor::from_pairs(w, &[(c2, 1)]).unwrap(),
            );
            child.push(
                Tuple::new(vec![Value::Null]),
                WsDescriptor::from_pairs(w, &[(c3, 1)]).unwrap(),
            );
        }
        db.insert_relation(parent).unwrap();
        db.insert_relation(child).unwrap();
        db
    }

    #[test]
    fn fd_violation_and_satisfying_world_sets() {
        let db = ssn_db();
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let violations = fd.violation_ws_set(&db).unwrap();
        assert_eq!(violations.len(), 1);
        assert!((violations.probability_by_enumeration(db.world_table()) - 0.56).abs() < 1e-12);
        let satisfying = fd.satisfying_ws_set(&db).unwrap();
        assert!((satisfying.probability_by_enumeration(db.world_table()) - 0.44).abs() < 1e-12);
        // The planned compilation and the eager reference agree exactly.
        assert_eq!(violations, violation_ws_set(&fd, &db).unwrap());
    }

    #[test]
    fn key_constraint_is_an_fd_to_all_other_columns() {
        let db = ssn_db();
        let key = Constraint::key("R", &["SSN"]);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let a = key.violation_ws_set(&db).unwrap();
        let b = fd.violation_ws_set(&db).unwrap();
        assert!(a.is_equivalent_by_enumeration(&b, db.world_table()));
        assert_eq!(key.describe(), "R: key(SSN)");
        assert_eq!(key.relations(), vec!["R"]);
        // A key over every column has nothing left to determine: the
        // violation query is trivially false.
        let all = Constraint::key("R", &["SSN", "NAME"]);
        assert!(all.violation_ws_set(&db).unwrap().is_empty());
        assert!(violation_ws_set(&all, &db).unwrap().is_empty());
    }

    #[test]
    fn inclusion_dependency_violations_are_the_unmatched_child_worlds() {
        let db = fk_db();
        let fk = Constraint::inclusion_dependency("C", &["FK"], "P", &["K"]);
        let violations = fk.violation_ws_set(&db).unwrap();
        // Child 1 violates where c1 holds and p1 does not (P = .25);
        // child 9 violates wherever c2 holds (P = .5); the NULL child
        // never violates. Total by inclusion-exclusion: .25 + .5 - .125.
        let expected = 0.25 + 0.5 - 0.125;
        assert!((violations.probability_by_enumeration(db.world_table()) - expected).abs() < 1e-12);
        // Hashed and nested-loop compilations agree bit for bit.
        assert_eq!(violations, violation_ws_set(&fk, &db).unwrap());
        // Asserting the FK conditions on the complement.
        let conditioned = assert_constraint(&db, &fk, &ConditioningOptions::default()).unwrap();
        assert!((conditioned.confidence - (1.0 - expected)).abs() < 1e-9);
    }

    #[test]
    fn parent_null_keys_never_match() {
        // A NULL parent key must not "satisfy" any child reference.
        let mut db = ProbDb::new();
        let c = db.world_table_mut().add_boolean("c", 0.5).unwrap();
        let mut parent = db
            .create_relation(Schema::new("P", &[("K", ColumnType::Int)]))
            .unwrap();
        let mut child = db
            .create_relation(Schema::new("C", &[("FK", ColumnType::Int)]))
            .unwrap();
        {
            let w = db.world_table();
            parent.push(Tuple::new(vec![Value::Null]), WsDescriptor::empty());
            child.push(
                Tuple::new(vec![Value::Int(3)]),
                WsDescriptor::from_pairs(w, &[(c, 1)]).unwrap(),
            );
        }
        db.insert_relation(parent).unwrap();
        db.insert_relation(child).unwrap();
        let fk = Constraint::inclusion_dependency("C", &["FK"], "P", &["K"]);
        let violations = fk.violation_ws_set(&db).unwrap();
        assert!((violations.probability_by_enumeration(db.world_table()) - 0.5).abs() < 1e-12);
        assert_eq!(violations, violation_ws_set(&fk, &db).unwrap());
    }

    #[test]
    fn denial_constraint_generalises_the_fd() {
        let db = ssn_db();
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        // Same violation worlds, expressed as a two-atom denial constraint.
        let denial = Constraint::denial(
            "unique-ssn",
            &[("R", "a"), ("R", "b")],
            Predicate::cols_eq("SSN", "b.SSN").and(Predicate::cmp(
                Expr::col("NAME"),
                Comparison::Ne,
                Expr::col("b.NAME"),
            )),
        );
        let v1 = fd.violation_ws_set(&db).unwrap();
        let v2 = denial.violation_ws_set(&db).unwrap();
        assert!(v1.is_equivalent_by_enumeration(&v2, db.world_table()));
        assert_eq!(v2, violation_ws_set(&denial, &db).unwrap());
        assert_eq!(denial.relations(), vec!["R"]);
        let conditioned = assert_constraint(&db, &denial, &ConditioningOptions::default()).unwrap();
        assert!((conditioned.confidence - 0.44).abs() < 1e-9);
    }

    #[test]
    fn cross_relation_denial_constraint_runs_through_the_planned_executor() {
        // "No child with FK = 9 co-exists with parent 2": a cross-relation
        // denial constraint (arbitrary, but exercises two relations).
        let db = fk_db();
        let denial = Constraint::denial(
            "no-nine-with-two",
            &[("C", "c"), ("P", "p")],
            Predicate::col_eq("FK", 9i64).and(Predicate::col_eq("K", 2i64)),
        );
        let violations = denial.violation_ws_set(&db).unwrap();
        // c2 ∧ p2: probability .25.
        assert!((violations.probability_by_enumeration(db.world_table()) - 0.25).abs() < 1e-12);
        assert_eq!(violations, violation_ws_set(&denial, &db).unwrap());
        assert_eq!(denial.relations(), vec!["C", "P"]);
    }

    /// The documented NULL semantics of FD/Key violation queries, pinned
    /// on both compilation paths: NULL determinants never match; a
    /// dependent pair violates unless provably equal.
    #[test]
    fn fd_null_semantics_agree_between_eager_and_planned() {
        let mut db = ProbDb::new();
        let vars: Vec<_> = (0..6)
            .map(|i| {
                db.world_table_mut()
                    .add_boolean(&format!("t{i}"), 0.5)
                    .unwrap()
            })
            .collect();
        let schema = Schema::new("R", &[("K", ColumnType::Int), ("D", ColumnType::Int)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            let rows = vec![
                // NULL determinant: never matches anything (not even
                // another NULL determinant, not even itself).
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
                // Agreeing non-NULL determinant, NULL vs value dependent:
                // not provably equal — violates.
                vec![Value::Int(5), Value::Null],
                vec![Value::Int(5), Value::Int(3)],
                // Agreeing determinant, equal non-NULL dependents: fine.
                vec![Value::Int(7), Value::Int(4)],
                vec![Value::Int(7), Value::Int(4)],
            ];
            for (i, values) in rows.into_iter().enumerate() {
                r.push(
                    Tuple::new(values),
                    WsDescriptor::from_pairs(w, &[(vars[i], 1)]).unwrap(),
                );
            }
        }
        db.insert_relation(r).unwrap();
        let fd = Constraint::functional_dependency("R", &["K"], &["D"]);
        let planned = fd.violation_ws_set(&db).unwrap();
        let eager = violation_ws_set(&fd, &db).unwrap();
        assert_eq!(planned, eager, "the two compilation paths must agree");
        // The violations: row 2 with itself (NULL dependent cannot be
        // certified) and the pair (2, 3). Worlds: t2 ∨ (t2 ∧ t3) = t2.
        assert!((planned.probability_by_enumeration(db.world_table()) - 0.5).abs() < 1e-12);
        // A key constraint over K treats D as dependent the same way.
        let key = Constraint::key("R", &["K"]);
        assert_eq!(
            key.violation_ws_set(&db).unwrap(),
            violation_ws_set(&key, &db).unwrap()
        );
    }

    #[test]
    fn null_dependent_against_null_dependent_still_violates() {
        // Two distinct tuples agreeing on the determinant with NULL
        // dependents on both sides: neither can be certified equal, so the
        // pair violates — and so does each tuple on its own.
        let mut db = ProbDb::new();
        let a = db.world_table_mut().add_boolean("a", 0.5).unwrap();
        let b = db.world_table_mut().add_boolean("b", 0.5).unwrap();
        let schema = Schema::new(
            "R",
            &[
                ("K", ColumnType::Int),
                ("D", ColumnType::Int),
                ("X", ColumnType::Int),
            ],
        );
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Int(1), Value::Null, Value::Int(10)]),
                WsDescriptor::from_pairs(w, &[(a, 1)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(1), Value::Null, Value::Int(20)]),
                WsDescriptor::from_pairs(w, &[(b, 1)]).unwrap(),
            );
        }
        db.insert_relation(r).unwrap();
        let fd = Constraint::functional_dependency("R", &["K"], &["D"]);
        let planned = fd.violation_ws_set(&db).unwrap();
        assert_eq!(planned, violation_ws_set(&fd, &db).unwrap());
        // Each row violates by itself: worlds a ∨ b, probability .75.
        assert!((planned.probability_by_enumeration(db.world_table()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn row_filter_with_null_values_violates() {
        // A NULL value makes the filter predicate unknown — the row cannot
        // be certified, so it violates; identical on both paths.
        let mut db = ProbDb::new();
        let x = db.world_table_mut().add_boolean("x", 0.5).unwrap();
        let schema = Schema::new("R", &[("V", ColumnType::Int)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Null]),
                WsDescriptor::from_pairs(w, &[(x, 1)]).unwrap(),
            );
            r.push(Tuple::new(vec![Value::Int(1)]), WsDescriptor::empty());
        }
        db.insert_relation(r).unwrap();
        let check = Constraint::row_filter(
            "R",
            Predicate::cmp(Expr::col("V"), Comparison::Lt, Expr::val(5i64)),
        );
        let planned = check.violation_ws_set(&db).unwrap();
        assert_eq!(planned, violation_ws_set(&check, &db).unwrap());
        assert!((planned.probability_by_enumeration(db.world_table()) - 0.5).abs() < 1e-12);
    }
}
