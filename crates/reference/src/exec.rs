//! The pipelined executor (`uprob_urel::execute_plan`) against the eager
//! interpreter [`crate::urel::execute_plan`]: the same rows in the same
//! order, and the same validation errors.

mod tests {
    use crate::urel::execute_plan as execute_plan_eager;
    use uprob_urel::{
        execute_plan, ColumnType, Comparison, Expr, Plan, Predicate, ProbDb, Schema, Tuple,
        URelation, Value,
    };
    use uprob_wsd::{WorldTable, WsDescriptor};

    type RelationSpec<'a> = (&'a str, Vec<(&'a str, ColumnType)>, Vec<Vec<Value>>);

    fn db_with(relations: Vec<RelationSpec<'_>>) -> ProbDb {
        let mut table = WorldTable::new();
        let x = table.add_variable("x", &[(0, 0.5), (1, 0.5)]).unwrap();
        let mut db = ProbDb::with_world_table(table);
        for (i, (name, cols, rows)) in relations.into_iter().enumerate() {
            let schema = Schema::new(name, &cols);
            let mut rel = db.create_relation(schema).unwrap();
            for (j, values) in rows.into_iter().enumerate() {
                // Alternate descriptors so some pairs are inconsistent.
                let d = if (i + j) % 3 == 0 {
                    WsDescriptor::from_pairs(db.world_table(), &[(x, ((i + j) / 3 % 2) as i64)])
                        .unwrap()
                } else {
                    WsDescriptor::empty()
                };
                rel.push(Tuple::new(values), d);
            }
            db.insert_relation(rel).unwrap();
        }
        db
    }

    fn check_matches_eager(db: &ProbDb, plan: &Plan) -> URelation {
        let eager = execute_plan_eager(db, plan).unwrap();
        let pipelined = execute_plan(db, plan).unwrap();
        assert_eq!(eager.schema(), pipelined.schema());
        assert_eq!(
            eager.rows(),
            pipelined.rows(),
            "pipelined row stream must match the eager reference in order:\n{plan}"
        );
        pipelined
    }

    fn int_rows(rows: &[&[i64]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let db = db_with(vec![
            (
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
                int_rows(&[&[1, 10], &[2, 20], &[3, 20], &[4, 99]]),
            ),
            (
                "S",
                vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
                int_rows(&[&[10, 100], &[20, 200], &[20, 300], &[77, 400]]),
            ),
        ]);
        let plan = Plan::scan("R").join_on(Plan::scan("S"), Predicate::cols_eq("B", "S.B"));
        let out = check_matches_eager(&db, &plan);
        assert!(!out.is_empty());
        // With a residual on top of the keys.
        let plan = Plan::scan("R").join_on(
            Plan::scan("S"),
            Predicate::cols_eq("B", "S.B").and(Predicate::cmp(
                Expr::col("C"),
                Comparison::Lt,
                Expr::val(250i64),
            )),
        );
        check_matches_eager(&db, &plan);
        // Pure theta join: nested-loop fallback.
        let plan = Plan::scan("R").join_on(
            Plan::scan("S"),
            Predicate::cmp(Expr::col("A"), Comparison::Lt, Expr::col("C")),
        );
        check_matches_eager(&db, &plan);
        // Product.
        check_matches_eager(&db, &Plan::scan("R").product(Plan::scan("S")));
    }

    #[test]
    fn null_keys_never_match() {
        let db = db_with(vec![
            (
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
                vec![
                    vec![Value::Int(1), Value::Null],
                    vec![Value::Int(2), Value::Int(20)],
                ],
            ),
            (
                "S",
                vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
                vec![
                    vec![Value::Null, Value::Int(100)],
                    vec![Value::Int(20), Value::Int(200)],
                ],
            ),
        ]);
        let plan = Plan::scan("R").join_on(Plan::scan("S"), Predicate::cols_eq("B", "S.B"));
        let out = check_matches_eager(&db, &plan);
        assert_eq!(out.len(), 1, "only the non-NULL 20 = 20 pair matches");
    }

    #[test]
    fn streaming_operators_match_eager() {
        let db = db_with(vec![
            (
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
                int_rows(&[&[1, 10], &[2, 20], &[2, 20], &[3, 30]]),
            ),
            (
                "S",
                vec![("X", ColumnType::Int), ("Y", ColumnType::Int)],
                int_rows(&[&[2, 20], &[9, 90]]),
            ),
        ]);
        for plan in [
            Plan::scan("R").select(Predicate::col_eq("A", 2i64)),
            Plan::scan("R").project(&["B"]),
            Plan::scan("R").project(&[]),
            Plan::scan("R").union(Plan::scan("S")),
            Plan::scan("R").rename("Z"),
            Plan::scan("R").distinct(),
            Plan::scan("R")
                .union(Plan::scan("S"))
                .distinct()
                .select(Predicate::cmp(
                    Expr::col("A"),
                    Comparison::Ge,
                    Expr::val(2i64),
                ))
                .project(&["B", "A"]),
            Plan::empty(Schema::new("E", &[("A", ColumnType::Int)])),
        ] {
            check_matches_eager(&db, &plan);
        }
    }

    #[test]
    fn column_maps_match_eager() {
        let db = db_with(vec![
            (
                "R",
                vec![
                    ("A", ColumnType::Int),
                    ("B", ColumnType::Int),
                    ("C", ColumnType::Int),
                ],
                vec![
                    vec![Value::Int(1), Value::Int(10), Value::Int(5)],
                    vec![Value::Int(2), Value::Int(20), Value::Null],
                    vec![Value::Int(2), Value::Int(20), Value::Int(7)],
                    vec![Value::Int(3), Value::Int(20), Value::Int(7)],
                    vec![Value::Int(2), Value::Int(20), Value::Int(7)],
                    vec![Value::Int(4), Value::Null, Value::Int(9)],
                ],
            ),
            (
                "S",
                vec![
                    ("B", ColumnType::Int),
                    ("C", ColumnType::Int),
                    ("D", ColumnType::Int),
                ],
                vec![
                    vec![Value::Int(20), Value::Int(7), Value::Int(200)],
                    vec![Value::Int(10), Value::Int(5), Value::Int(100)],
                    vec![Value::Int(20), Value::Null, Value::Int(300)],
                    vec![Value::Int(20), Value::Int(7), Value::Int(400)],
                    vec![Value::Null, Value::Int(9), Value::Int(500)],
                ],
            ),
        ]);
        let lt = |a: &str, b: &str| Predicate::cmp(Expr::col(a), Comparison::Lt, Expr::col(b));
        // Projections on both join inputs; B clashes, so the right one is
        // `S.B` in the join's schema.
        let projected_join = Plan::scan("R").project(&["C", "B", "A"]).join_on(
            Plan::scan("S").project(&["D", "B"]),
            Predicate::cols_eq("B", "S.B").and(lt("A", "D")),
        );
        let projected_pairs = Plan::scan("R")
            .join_on(Plan::scan("S"), Predicate::cols_eq("B", "S.B"))
            .project(&["A", "S.B"]);
        let plans = [
            projected_join.clone(),
            projected_join.clone().project(&["S.B", "A", "D"]),
            // Select over project over scan, and a projection composed
            // with another.
            Plan::scan("R").project(&["C", "A"]).select(Predicate::cmp(
                Expr::col("A"),
                Comparison::Ge,
                Expr::val(2i64),
            )),
            Plan::scan("R").project(&["C", "A"]).project(&["A"]),
            // A two-conjunct key, NULLs in the second key column on both
            // sides.
            Plan::scan("R").join_on(
                Plan::scan("S"),
                Predicate::cols_eq("S.B", "B").and(Predicate::cols_eq("C", "S.C")),
            ),
            // A union of two differently projected streams (R's C is its
            // third column, S's B its first), then a selection over the
            // re-laid-out rows.
            Plan::scan("R")
                .project(&["C"])
                .union(Plan::scan("S").project(&["B"]))
                .select(Predicate::cmp(
                    Expr::col("C"),
                    Comparison::Gt,
                    Expr::val(6i64),
                )),
            // Two streams with the same map (both second columns) chain
            // unchanged.
            Plan::scan("R")
                .project(&["B"])
                .union(Plan::scan("S").project(&["C"])),
            // Distinct over a projected join.
            projected_pairs.clone().distinct(),
            // Key-less joins over projected inputs: a theta join and a
            // product.
            Plan::scan("R")
                .project(&["A"])
                .join_on(Plan::scan("S").project(&["D", "C"]), lt("A", "C")),
            Plan::scan("R")
                .project(&["B"])
                .product(Plan::scan("S").project(&["B"])),
        ];
        for plan in &plans {
            let out = check_matches_eager(&db, plan);
            assert!(!out.is_empty(), "every case emits rows:\n{plan}");
        }
        // The distinct case drops duplicate (tuple, descriptor) rows.
        let pairs = execute_plan(&db, &projected_pairs).unwrap();
        assert!(
            execute_plan(&db, &projected_pairs.distinct())
                .unwrap()
                .len()
                < pairs.len()
        );
    }

    #[test]
    fn self_join_with_shared_variables() {
        // Descriptor-inconsistent pairs must be dropped identically.
        let db = db_with(vec![(
            "R",
            vec![("A", ColumnType::Int)],
            int_rows(&[&[1], &[1], &[2], &[1]]),
        )]);
        let plan = Plan::scan("R").join_on(
            Plan::scan("R").rename("R2"),
            Predicate::cols_eq("A", "R2.A"),
        );
        check_matches_eager(&db, &plan);
    }

    #[test]
    fn validation_errors_match_eager_path() {
        let db = db_with(vec![("R", vec![("A", ColumnType::Int)], int_rows(&[&[1]]))]);
        for plan in [
            Plan::scan("NOPE"),
            Plan::scan("R").select(Predicate::col_eq("MISSING", 1i64)),
            Plan::scan("R").project(&["MISSING"]),
            Plan::scan("R").select(Predicate::col_eq("A", "one")),
        ] {
            let eager = execute_plan_eager(&db, &plan);
            let pipelined = execute_plan(&db, &plan);
            assert!(pipelined.is_err());
            match (eager, pipelined) {
                (Err(a), Err(b)) => {
                    assert_eq!(std::mem::discriminant(&a), std::mem::discriminant(&b))
                }
                _ => panic!("both paths must fail"),
            }
        }
    }
}
