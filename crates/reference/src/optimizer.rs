//! The rule-based optimizer (`uprob_urel::optimize_plan`): every rewrite
//! keeps the output schema, and the eager interpreter
//! [`crate::urel::execute_plan`] returns the same rows for the plan before
//! and after it.

mod tests {
    use crate::urel::execute_plan as execute_plan_eager;
    use uprob_urel::{
        optimize_plan, ColumnType, Comparison, Expr, Plan, Predicate, ProbDb, Schema, Tuple,
        URelation, Value,
    };
    use uprob_wsd::WsDescriptor;

    /// Two small relations sharing the variable space: R(A, B) and S(B, C).
    fn join_db() -> ProbDb {
        let mut db = ProbDb::new();
        let x = db
            .world_table_mut()
            .add_variable("x", &[(0, 0.4), (1, 0.6)])
            .unwrap();
        let y = db
            .world_table_mut()
            .add_variable("y", &[(0, 0.5), (1, 0.5)])
            .unwrap();
        let mut r = db
            .create_relation(Schema::new(
                "R",
                &[("A", ColumnType::Int), ("B", ColumnType::Int)],
            ))
            .unwrap();
        let mut s = db
            .create_relation(Schema::new(
                "S",
                &[("B", ColumnType::Int), ("C", ColumnType::Int)],
            ))
            .unwrap();
        {
            let w = db.world_table();
            for (a, b, pairs) in [
                (1i64, 10i64, vec![(x, 0i64)]),
                (2, 20, vec![(x, 1)]),
                (3, 20, vec![]),
            ] {
                r.push(
                    Tuple::new(vec![Value::Int(a), Value::Int(b)]),
                    WsDescriptor::from_pairs(w, &pairs).unwrap(),
                );
            }
            for (b, c, pairs) in [
                (10i64, 100i64, vec![(y, 0i64)]),
                (20, 200, vec![(y, 1)]),
                (20, 300, vec![(x, 0)]),
            ] {
                s.push(
                    Tuple::new(vec![Value::Int(b), Value::Int(c)]),
                    WsDescriptor::from_pairs(w, &pairs).unwrap(),
                );
            }
        }
        db.insert_relation(r).unwrap();
        db.insert_relation(s).unwrap();
        // An empty relation for pruning tests.
        let e = db
            .create_relation(Schema::new(
                "E",
                &[("A", ColumnType::Int), ("B", ColumnType::Int)],
            ))
            .unwrap();
        db.insert_relation(e).unwrap();
        db
    }

    fn sorted_rows(rel: &URelation) -> Vec<(Tuple, WsDescriptor)> {
        let mut rows: Vec<_> = rel.rows().to_vec();
        rows.sort();
        rows
    }

    fn assert_equivalent(db: &ProbDb, plan: &Plan) -> Plan {
        let optimized = optimize_plan(plan, db).unwrap();
        assert_eq!(
            optimized.output_schema(db).unwrap(),
            plan.output_schema(db).unwrap(),
            "schema must be preserved"
        );
        let eager = execute_plan_eager(db, plan).unwrap();
        let opt_eager = execute_plan_eager(db, &optimized).unwrap();
        assert_eq!(
            sorted_rows(&eager),
            sorted_rows(&opt_eager),
            "optimized plan changed the result:\n{plan}\nvs\n{optimized}"
        );
        optimized
    }

    #[test]
    fn pushes_single_side_conjuncts_below_the_join() {
        let db = join_db();
        let plan = Plan::scan("R").product(Plan::scan("S")).select(
            Predicate::cols_eq("B", "S.B")
                .and(Predicate::col_eq("A", 2i64))
                .and(Predicate::cmp(
                    Expr::col("C"),
                    Comparison::Gt,
                    Expr::val(150i64),
                )),
        );
        let optimized = assert_equivalent(&db, &plan);
        // The select-product pair became a join whose children carry the
        // single-side conjuncts.
        let Plan::Join {
            left,
            right,
            predicate,
        } = &optimized
        else {
            panic!("expected a join at the root, got:\n{optimized}");
        };
        assert_eq!(predicate, &Predicate::cols_eq("B", "S.B"));
        assert!(
            matches!(left.as_ref(), Plan::Select { .. }),
            "left conjunct not pushed:\n{optimized}"
        );
        let Plan::Select { predicate: rp, .. } = right.as_ref() else {
            panic!("right conjunct not pushed:\n{optimized}");
        };
        // `C > 150` was rewritten to the right operand's local name (no
        // qualification needed here) and pushed.
        assert_eq!(rp.referenced_columns(), vec!["C"]);
    }

    #[test]
    fn prunes_trivial_predicates_and_empty_relations() {
        let db = join_db();
        let plan = Plan::scan("R")
            .select(Predicate::True)
            .select(Predicate::col_eq("A", 1i64).and(Predicate::True));
        let optimized = assert_equivalent(&db, &plan);
        let Plan::Select { input, .. } = &optimized else {
            panic!("expected a single select, got:\n{optimized}");
        };
        assert!(matches!(input.as_ref(), Plan::Scan { .. }));

        // FALSE selections and empty scans collapse, and emptiness
        // propagates through joins; the empty side of a union is dropped.
        for plan in [
            Plan::scan("R").select(Predicate::False),
            Plan::scan("E"),
            Plan::scan("R").join_on(
                Plan::scan("E").rename("E2"),
                Predicate::cols_eq("A", "E2.A"),
            ),
            Plan::scan("E").product(Plan::scan("S")),
        ] {
            let optimized = assert_equivalent(&db, &plan);
            assert!(
                matches!(optimized, Plan::Empty { .. }),
                "expected Empty, got:\n{optimized}"
            );
        }
        let union = Plan::scan("R").union(Plan::scan("E"));
        let optimized = assert_equivalent(&db, &union);
        assert!(matches!(optimized, Plan::Scan { .. }));
        let union_flipped = Plan::scan("E").union(Plan::scan("R"));
        // Schemas differ in relation name only — still not identical, so
        // the union is kept (and stays correct).
        assert_equivalent(&db, &union_flipped);
    }

    #[test]
    fn pushes_selections_through_unions_with_renaming() {
        let db = join_db();
        // S's columns are (B, C); R's are (A, B): position 0 is "B" on the
        // right branch.
        let plan = Plan::scan("R")
            .union(Plan::scan("S"))
            .select(Predicate::col_eq("A", 2i64));
        let optimized = assert_equivalent(&db, &plan);
        let Plan::Union { left, right } = &optimized else {
            panic!("selection not pushed through the union:\n{optimized}");
        };
        let Plan::Select { predicate: lp, .. } = left.as_ref() else {
            panic!("left branch misses the selection:\n{optimized}");
        };
        assert_eq!(lp.referenced_columns(), vec!["A"]);
        let Plan::Select { predicate: rp, .. } = right.as_ref() else {
            panic!("right branch misses the selection:\n{optimized}");
        };
        assert_eq!(rp.referenced_columns(), vec!["B"]);
    }

    #[test]
    fn pushes_projections_below_joins_keeping_names_stable() {
        let db = join_db();
        let plan = Plan::scan("R")
            .join_on(Plan::scan("S"), Predicate::cols_eq("B", "S.B"))
            .project(&["A", "C"]);
        let optimized = assert_equivalent(&db, &plan);
        // Both children got narrowed: R to (A, B), i.e. unchanged arity —
        // actually R needs A (output) and B (join key), so R keeps both;
        // S needs B (join key, and it clashes so it is kept on the left
        // too) and C: also both. With these tiny schemas nothing narrows;
        // use a wider relation to see the narrowing.
        let _ = optimized;
        let mut db = join_db();
        let mut wide = db
            .create_relation(Schema::new(
                "W",
                &[
                    ("B", ColumnType::Int),
                    ("C", ColumnType::Int),
                    ("D", ColumnType::Int),
                    ("EZ", ColumnType::Int),
                ],
            ))
            .unwrap();
        wide.push(
            Tuple::new(vec![
                Value::Int(10),
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
            ]),
            WsDescriptor::empty(),
        );
        db.insert_relation(wide).unwrap();
        let plan = Plan::scan("R")
            .join_on(Plan::scan("W"), Predicate::cols_eq("B", "W.B"))
            .project(&["A", "C"]);
        let optimized = assert_equivalent(&db, &plan);
        let Plan::Project { input, .. } = &optimized else {
            panic!("outer projection must stay:\n{optimized}");
        };
        let Plan::Join { right, .. } = input.as_ref() else {
            panic!("join expected below the projection:\n{optimized}");
        };
        let Plan::Project { columns, .. } = right.as_ref() else {
            panic!("right input not narrowed:\n{optimized}");
        };
        // W narrows to its join key and the projected output column.
        assert_eq!(columns, &vec!["B".to_string(), "C".to_string()]);
    }

    #[test]
    fn recognizes_equi_joins_under_selects_over_products() {
        let db = join_db();
        // The classic unoptimized shape: σ over a product chain.
        let plan = Plan::scan("R")
            .product(Plan::scan("S"))
            .select(Predicate::cols_eq("B", "S.B"));
        let optimized = assert_equivalent(&db, &plan);
        assert!(
            matches!(optimized, Plan::Join { .. }),
            "expected join recognition, got:\n{optimized}"
        );
        // A selection whose conjuncts all push away leaves a product.
        let plan = Plan::scan("R")
            .product(Plan::scan("S"))
            .select(Predicate::col_eq("A", 1i64));
        let optimized = assert_equivalent(&db, &plan);
        assert!(
            matches!(optimized, Plan::Product { .. }),
            "expected bare product, got:\n{optimized}"
        );
    }

    #[test]
    fn pushdown_commutes_with_rename_distinct_and_projection() {
        let db = join_db();
        let plan = Plan::scan("R")
            .rename("R2")
            .distinct()
            .project(&["B", "A"])
            .select(Predicate::col_eq("A", 2i64));
        let optimized = assert_equivalent(&db, &plan);
        // The selection sank below projection, distinct and rename, down
        // to the scan.
        fn selection_depth(plan: &Plan) -> Option<usize> {
            match plan {
                Plan::Select { input, .. } => {
                    matches!(input.as_ref(), Plan::Scan { .. }).then_some(0)
                }
                Plan::Project { input, .. }
                | Plan::Rename { input, .. }
                | Plan::Distinct { input } => selection_depth(input).map(|d| d + 1),
                _ => None,
            }
        }
        assert!(
            selection_depth(&optimized).is_some(),
            "selection did not reach the scan:\n{optimized}"
        );
    }

    #[test]
    fn optimizer_validates_and_rejects_malformed_plans() {
        let db = join_db();
        assert!(optimize_plan(&Plan::scan("NOPE"), &db).is_err());
        assert!(optimize_plan(
            &Plan::scan("R").select(Predicate::col_eq("MISSING", 1i64)),
            &db
        )
        .is_err());
    }
}
