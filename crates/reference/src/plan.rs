//! The eager interpreter [`crate::urel::execute_plan`] evaluates a
//! `uprob_urel::Plan` node by node through the eager operators.

mod tests {
    use crate::fixtures::ssn_db;
    use crate::urel::{self, execute_plan as execute_plan_eager};
    use uprob_urel::{ColumnType, Comparison, Expr, Plan, Predicate, Schema};

    /// The FD-violation self-join of Example 2.3 as a plan.
    fn violation_plan() -> Plan {
        Plan::scan("R")
            .join_on(
                Plan::scan("R").rename("R2"),
                Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
                    Expr::col("NAME"),
                    Comparison::Ne,
                    Expr::col("R2.NAME"),
                )),
            )
            .project(&[])
    }

    #[test]
    fn eager_execution_matches_the_algebra() {
        let db = ssn_db();
        let plan = Plan::scan("R")
            .select(Predicate::col_eq("NAME", "Bill"))
            .project(&["SSN"]);
        let got = execute_plan_eager(&db, &plan).unwrap();
        let expected = {
            let bills = urel::select(
                db.relation("R").unwrap(),
                &Predicate::col_eq("NAME", "Bill"),
                "R",
            )
            .unwrap();
            urel::project(&bills, &["SSN"], "R").unwrap()
        };
        assert_eq!(got, expected);

        // Example 2.3 through the plan: P(violation) world-set is
        // {{j->7, b->7}}.
        let ws = execute_plan_eager(&db, &violation_plan())
            .unwrap()
            .answer_ws_set()
            .normalized();
        assert_eq!(ws.len(), 1);
        assert!((ws.descriptors()[0].probability(db.world_table()) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn union_product_distinct_and_empty_evaluate() {
        let db = ssn_db();
        let u = Plan::scan("R").union(Plan::scan("R"));
        assert_eq!(execute_plan_eager(&db, &u).unwrap().len(), 8);
        assert_eq!(
            execute_plan_eager(&db, &u.clone().distinct())
                .unwrap()
                .len(),
            4
        );
        let p = Plan::scan("R").product(Plan::scan("R").rename("R2"));
        assert_eq!(execute_plan_eager(&db, &p).unwrap().len(), 12);
        let schema = Schema::new("E", &[("X", ColumnType::Int)]);
        let e = Plan::empty(schema.clone());
        let out = execute_plan_eager(&db, &e).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.schema(), &schema);
    }
}
