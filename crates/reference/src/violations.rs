//! The violation-plan builders of `uprob_urel::violations` evaluate to the
//! same world-sets through `ProbDb::query` and the eager interpreter
//! [`crate::urel::execute_plan`].

mod tests {
    use crate::fixtures::ssn_db;
    use crate::urel::execute_plan as execute_plan_eager;
    use uprob_urel::fd_violation_plan;

    #[test]
    fn fd_violation_plan_reproduces_example_2_3() {
        let db = ssn_db();
        let plan = fd_violation_plan("R", &["SSN".to_string()], &["NAME".to_string()]);
        assert_eq!(plan.output_schema(&db).unwrap().arity(), 0);
        // {{j->7, b->7}} with probability .56 — both execution paths.
        for answer in [
            db.query(&plan).unwrap(),
            execute_plan_eager(&db, &plan).unwrap(),
        ] {
            let ws = answer.answer_ws_set().normalized();
            assert_eq!(ws.len(), 1);
            assert!((ws.descriptors()[0].probability(db.world_table()) - 0.56).abs() < 1e-12);
        }
    }
}
