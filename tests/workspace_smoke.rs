//! Workspace smoke test: guards the facade wiring of the root `uprob`
//! crate — every prelude re-export must resolve, the per-subsystem module
//! aliases must point at the workspace crates, and the quickstart flow of
//! the crate-level docs must run end to end.

use uprob::prelude::*;

/// Every name re-exported by `uprob::prelude` is usable. The function is
/// never run for its result — referencing each item makes missing
/// re-exports a compile error.
#[allow(dead_code)]
fn prelude_reexports_resolve() {
    // uprob-wsd
    let _: fn() -> WorldTable = WorldTable::new;
    let _ = VarId(0);
    let _ = ValueIndex(0);
    let _: DomainValue = 7;
    let _: fn() -> WsDescriptor = WsDescriptor::empty;
    let _: fn() -> WsSet = WsSet::empty;
    // uprob-urel
    let _: fn() -> ProbDb = ProbDb::new;
    let _ = ColumnType::Int;
    let _ = Comparison::Lt;
    let _ = Value::Int(1);
    let _ = Expr::col("c");
    let _ = Predicate::col_eq("c", 1i64);
    let _: fn(Vec<Value>) -> Tuple = Tuple::new;
    let _: Option<&URelation> = None;
    // uprob-core
    let _ = DecompositionOptions::indve_minlog();
    let _ = DecompositionMethod::IndVe;
    let _ = VariableHeuristic::MinLog;
    let _ = ConditioningOptions::default();
    let _: WsTree = WsTree::Bottom;
    let _ = build_tree;
    let _ = confidence;
    let _ = confidence_by_elimination;
    let _ = condition;
    // uprob-approx
    let _ = ApproximationOptions::default();
    let _ = karp_luby_epsilon_delta;
    let _ = optimal_monte_carlo;
    // uprob-query
    let _ = Constraint::functional_dependency("R", &["K"], &["V"]);
    let _ = assert_constraint;
    let _ = boolean_confidence;
    let _ = tuple_confidences;
    let _ = certain_tuples;
    let _ = possible_tuples;
}

/// The one-per-operation entry points of the prelude, pinned by coercing
/// each to its exact `fn` pointer type: a signature drift — or a variant
/// re-grown under one of these names with different knobs — is a compile
/// error here, next to the benchmark's frozen call surface
/// (`perfbench/README.md`).
#[allow(dead_code, clippy::type_complexity)]
fn entry_point_signatures_are_pinned() {
    use uprob::core::{Conditioned, Confidence};
    type Core<T> = Result<T, uprob::core::CoreError>;
    type Query<T> = Result<T, uprob::query::QueryError>;
    type Cache = SharedDecompositionCache;

    // conf() on one ws-set: paper form, general form, WE, strategy engine.
    let _: fn(&WsSet, &WorldTable, &DecompositionOptions) -> Core<Confidence> = confidence;
    let _: fn(
        &WsSet,
        &WorldTable,
        &DecompositionOptions,
        &ParallelOptions,
        Option<&Cache>,
    ) -> Core<Confidence> = confidence_parallel;
    let _: fn(&WsSet, &WorldTable, Option<u64>) -> Core<Confidence> = confidence_by_elimination;
    let _: fn(
        &WsSet,
        &WorldTable,
        &DecompositionOptions,
        &ConfidenceStrategy,
        Option<&Cache>,
    ) -> Core<ConfidenceReport> = estimate_confidence;
    let _: fn(
        &WsSet,
        &WorldTable,
        &DecompositionOptions,
        &ConfidenceStrategy,
        Option<&Cache>,
        &ParallelOptions,
    ) -> Core<ConfidenceReport> = estimate_confidence_with_options;
    let _: fn(&ProbDb, &WsSet, &ConditioningOptions) -> Core<Conditioned> = condition;

    // conf() over a query answer: general batch, strategy batch, SQL forms.
    let _: fn(
        &URelation,
        &WorldTable,
        &DecompositionOptions,
        &ParallelOptions,
        &Cache,
    ) -> Query<AnswerConfidences> = answer_confidences_with_options;
    let _: fn(
        &URelation,
        &WorldTable,
        &DecompositionOptions,
        &ConfidenceStrategy,
        &ParallelOptions,
    ) -> Query<StrategyAnswerConfidences> = answer_confidences_with_strategy;
    type SqlForm<T> = fn(&URelation, &WorldTable, &DecompositionOptions) -> Query<T>;
    let _: SqlForm<Vec<(Tuple, f64)>> = tuple_confidences;
    let _: SqlForm<Vec<(Tuple, f64)>> = possible_tuples;
    let _: SqlForm<Vec<Tuple>> = certain_tuples;
    let _: SqlForm<f64> = boolean_confidence;

    // conf() over a plan.
    let _: fn(
        &ProbDb,
        &Plan,
        &DecompositionOptions,
        &ParallelOptions,
        &Cache,
    ) -> Query<AnswerConfidences> = planned_answer_confidences_with_options;
    let _: fn(
        &ProbDb,
        &Plan,
        &DecompositionOptions,
        &ConfidenceStrategy,
        &ParallelOptions,
    ) -> Query<StrategyAnswerConfidences> = planned_answer_confidences_with_strategy;
    let _: fn(&ProbDb, &Plan, &DecompositionOptions) -> Query<f64> = planned_boolean_confidence;

    // assert[·]: paper form, batch form, general form, strategy form.
    let _: fn(&ProbDb, &Constraint, &ConditioningOptions) -> Query<Conditioned> = assert_constraint;
    let _: fn(&ProbDb, &[Constraint], &ConditioningOptions) -> Query<Conditioned> = assert_all;
    let _: fn(
        &ProbDb,
        &[Constraint],
        &ConditioningOptions,
        &ParallelOptions,
        &mut ViolationMemo,
    ) -> Query<Conditioned> = assert_all_delta;
    let _: fn(
        &ProbDb,
        &[Constraint],
        &ConditioningOptions,
        &ConfidenceStrategy,
    ) -> Query<Assertion> = assert_all_with_strategy;
    let _: fn(
        &EstimatedAssertion,
        &URelation,
        &WorldTable,
        &ParallelOptions,
    ) -> Query<Vec<(Tuple, ConfidenceReport)>> = EstimatedAssertion::tuple_confidences;

    // The one way to evaluate a query, and the oracles it is tested against
    // (in `uprob-reference`, a dev-dependency: never reachable through the
    // facade).
    type Urel<T> = Result<T, uprob::urel::UrelError>;
    let _: fn(&ProbDb, &Plan) -> Urel<URelation> = ProbDb::query;
    let _: fn(&ProbDb, &Plan) -> Urel<URelation> = uprob_reference::urel::execute_plan;
    let _: fn(&Constraint, &ProbDb) -> Query<WsSet> = uprob_reference::query::violation_ws_set;
    let _: SqlForm<Vec<(Tuple, f64)>> = uprob_reference::query::tuple_confidences;
}

/// The facade's module aliases expose the underlying crates.
#[test]
fn facade_modules_point_at_workspace_crates() {
    let _: uprob::wsd::WorldTable = uprob::wsd::WorldTable::new();
    let _: uprob::urel::ProbDb = uprob::urel::ProbDb::new();
    let _ = uprob::core::DecompositionOptions::indve_minlog();
    let _ = uprob::approx::ApproximationOptions::default();
    let _ = uprob::datagen::HardInstanceConfig {
        num_variables: 2,
        alternatives: 2,
        descriptor_length: 1,
        num_descriptors: 1,
        seed: 0,
    };
    let _ = uprob::query::Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
}

/// The quickstart flow from the crate-level docs: build the SSN database,
/// assert the functional dependency, and check the paper's posterior.
#[test]
fn quickstart_flow_runs() {
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

    let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
    let posterior = assert_constraint(&db, &fd, &ConditioningOptions::default()).unwrap();
    assert!((posterior.confidence - 0.44).abs() < 1e-9);

    // The posterior database answers queries like any other ProbDb.
    let relation = posterior.db.relation("R").unwrap();
    let certain = certain_tuples(
        relation,
        posterior.db.world_table(),
        &DecompositionOptions::indve_minlog(),
    )
    .unwrap();
    assert!(certain.len() <= relation.len());
}
