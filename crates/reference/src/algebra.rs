//! World-by-world tests of the positive relational algebra (Section 2),
//! run against the operators of [`crate::urel`].

mod tests {
    use crate::fixtures::ssn_db;
    use crate::urel::{distinct, join, product, project, rename, select, tuple_ws_set, union};
    use crate::worlds::TableWorlds;
    use uprob_urel::{ColumnType, Comparison, Expr, Predicate, Schema, Tuple, URelation, Value};
    use uprob_wsd::WsDescriptor;

    #[test]
    fn selection_keeps_descriptors() {
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let bills = select(r, &Predicate::col_eq("NAME", "Bill"), "Bills").unwrap();
        assert_eq!(bills.len(), 2);
        assert_eq!(bills.schema().name(), "Bills");
        // The descriptors are those of the Bill tuples (variable b).
        let vars = bills.answer_ws_set().variables();
        assert_eq!(vars.len(), 1);
    }

    #[test]
    fn projection_keeps_all_rows() {
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let names = project(r, &["NAME"], "Names").unwrap();
        assert_eq!(names.len(), 4);
        assert_eq!(names.schema().arity(), 1);
        // Two rows carry the tuple (John) with different descriptors.
        let john = Tuple::new(vec![Value::str("John")]);
        assert_eq!(tuple_ws_set(&names, &john).len(), 2);
        assert!(project(r, &["BAD"], "P").is_err());
    }

    #[test]
    fn example_2_3_fd_violation_query() {
        // The complement of the FD SSN -> NAME holds exactly on the worlds
        // returned by the self-join with 1.SSN = 2.SSN and 1.NAME <> 2.NAME.
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let r2 = rename(r, "R2");
        let phi = Predicate::cmp(Expr::col("SSN"), Comparison::Eq, Expr::col("R2.SSN")).and(
            Predicate::cmp(Expr::col("NAME"), Comparison::Ne, Expr::col("R2.NAME")),
        );
        let violations = join(r, &r2, &phi, "V").unwrap();
        let ws = violations.answer_ws_set().normalized();
        // The violating world-set is {{j -> 7, b -> 7}} (Example 2.3).
        assert_eq!(ws.len(), 1);
        let d = &ws.descriptors()[0];
        assert_eq!(d.len(), 2);
        assert!((d.probability(db.world_table()) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn join_requires_consistent_descriptors() {
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let r2 = rename(r, "R2");
        // Join on nothing: the cross product keeps only pairs with
        // consistent descriptors. Pairs like ({j->1}, {j->7}) are dropped.
        let all_pairs = product(r, &r2, "P").unwrap();
        // 4x4 = 16 pairs, minus the 4 inconsistent combinations
        // (j1/j7, j7/j1, b4/b7, b7/b4) = 12.
        assert_eq!(all_pairs.len(), 12);
    }

    #[test]
    fn algebra_commutes_with_world_instantiation() {
        // For every possible world: instantiating the query output equals
        // running the classical operators on the instantiated input.
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let query = |rel: &URelation| -> URelation {
            let bills = select(rel, &Predicate::col_eq("NAME", "Bill"), "Bills").unwrap();
            project(&bills, &["SSN"], "Q").unwrap()
        };
        let output = query(r);
        for (world, _p) in db.world_table().enumerate_worlds() {
            let out_instance = output.instantiate(&world);
            // Classical evaluation on the instantiated input.
            let input_tuples = r.instantiate(&world);
            let mut expected: Vec<Tuple> = input_tuples
                .iter()
                .filter(|t| t.get(1) == Some(&Value::str("Bill")))
                .map(|t| Tuple::new(vec![t.get(0).unwrap().clone()]))
                .collect();
            expected.sort();
            expected.dedup();
            assert_eq!(out_instance, expected);
        }
    }

    #[test]
    fn join_skips_inconsistent_pairs_before_the_predicate() {
        // A predicate that errors on evaluation: if the join evaluated it
        // on descriptor-inconsistent pairs, every pairing below would fail.
        // Two single-row relations whose descriptors assign the same
        // variable different values are inconsistent, so the bad predicate
        // is never reached and the join is empty.
        let mut w = uprob_wsd::WorldTable::new();
        let x = w.add_variable("x", &[(0, 0.5), (1, 0.5)]).unwrap();
        let schema = Schema::new("L", &[("A", ColumnType::Int)]);
        let mut l = URelation::new(schema);
        l.push(
            Tuple::new(vec![Value::Int(1)]),
            WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap(),
        );
        let mut r = URelation::new(Schema::new("R", &[("B", ColumnType::Int)]));
        r.push(
            Tuple::new(vec![Value::Int(2)]),
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
        );
        let bad = Predicate::col_eq("NO_SUCH_COLUMN", 0i64);
        let joined = join(&l, &r, &bad, "J").unwrap();
        assert!(joined.is_empty());
        let crossed = product(&l, &r, "P").unwrap();
        assert!(crossed.is_empty());
        // With a consistent right side the predicate *is* evaluated and the
        // error surfaces.
        let mut r2 = URelation::new(Schema::new("R2", &[("B", ColumnType::Int)]));
        r2.push(
            Tuple::new(vec![Value::Int(2)]),
            WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap(),
        );
        assert!(join(&l, &r2, &bad, "J").is_err());
    }

    #[test]
    fn join_with_empty_relations_is_empty() {
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let empty = URelation::new(r.schema().renamed("E"));
        for (a, b) in [(r, &empty), (&empty, r), (&empty, &empty)] {
            let j = join(a, b, &Predicate::True, "J").unwrap();
            assert!(j.is_empty());
            assert_eq!(j.schema().arity(), 4);
            assert!(product(a, b, "P").unwrap().is_empty());
        }
    }

    #[test]
    fn self_join_keeps_identical_descriptor_pairs() {
        // Self-join with the same variable on both sides: a row paired with
        // itself has a (trivially consistent) identical descriptor, and the
        // union is that descriptor again — no duplicated assignments.
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let r2 = rename(r, "R2");
        let self_pairs = join(
            r,
            &r2,
            &Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cols_eq("NAME", "R2.NAME")),
            "S",
        )
        .unwrap();
        // Exactly the four diagonal pairs survive (distinct rows differ in
        // SSN or NAME, or are descriptor-inconsistent).
        assert_eq!(self_pairs.len(), 4);
        for (tuple, descriptor) in self_pairs.iter() {
            assert_eq!(descriptor.len(), 1, "no duplicated assignments");
            assert_eq!(tuple.get(0), tuple.get(2));
            assert_eq!(tuple.get(1), tuple.get(3));
        }
        // World-by-world, the self-join equals the classical self-join of
        // the instantiated input.
        for (world, _p) in db.world_table().enumerate_worlds() {
            let got = self_pairs.instantiate(&world);
            let expected: Vec<Tuple> = {
                let mut v: Vec<Tuple> = r.instantiate(&world).iter().map(|t| t.concat(t)).collect();
                v.sort();
                v
            };
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn distinct_drops_only_identical_rows() {
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        // Duplicate every row and add a same-tuple/different-descriptor row.
        let mut doubled = union(r, r, "U").unwrap();
        let extra = Tuple::new(vec![Value::Int(7), Value::str("Bill")]);
        doubled.push(extra.clone(), WsDescriptor::empty());
        let deduped = distinct(&doubled);
        // 4 distinct rows + the extra derivation of (7, Bill).
        assert_eq!(deduped.len(), 5);
        assert_eq!(tuple_ws_set(&deduped, &extra).len(), 2);
        // Idempotent, and a no-op on an already-duplicate-free relation.
        assert_eq!(distinct(&deduped), deduped);
        assert_eq!(distinct(r).len(), 4);
    }

    #[test]
    fn union_concatenates_and_checks_compatibility() {
        let db = ssn_db();
        let r = db.relation("R").unwrap();
        let u = union(r, r, "U").unwrap();
        assert_eq!(u.len(), 8);
        let bad = URelation::new(Schema::new("S", &[("ONLY", ColumnType::Int)]));
        assert!(union(r, &bad, "U").is_err());
    }
}
