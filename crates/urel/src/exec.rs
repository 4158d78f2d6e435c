//! The pipelined plan executor.
//!
//! [`execute_plan`] validates a [`Plan`] once, compiles every predicate
//! down to positional form (column names are resolved against the operator
//! schemas exactly once, not per row), and then **streams**
//! `(tuple, ws-descriptor)` rows between operators instead of
//! materializing an intermediate U-relation per node:
//!
//! * selection, projection, rename, union and distinct are fully
//!   streaming — a row flows from the scan to the output without ever
//!   being parked in an intermediate relation;
//! * a join materializes only its **right (build) side** into a hash
//!   table keyed on the equi-join columns extracted from the join
//!   condition, then streams the left (probe) side through it — the
//!   classical hash join. A join condition without cross-side equality
//!   conjuncts falls back to a block nested loop over the materialized
//!   right side;
//! * descriptor consistency (`ψ` in the paper's
//!   `U_R ⋈_{φ ∧ ψ} U_S`) is checked with the allocation-free merge scan
//!   *before* the residual predicate, and the descriptor union is built
//!   only for emitted rows.
//!
//! Rows are emitted in exactly the order of the eager reference
//! interpreter ([`crate::reference::execute_plan`]): every streaming operator
//! is order-preserving and the hash join probes in left-row order with
//! build rows bucketed in input order, so even the per-tuple ws-sets of
//! the answer come out in the same descriptor order — which is what makes
//! the exact confidence of a planned answer **bit-identical** to the eager
//! path (see `tests/plan_equivalence.rs` and the golden strategy tests).
//!
//! NULL semantics: a comparison involving NULL is never satisfied, so rows
//! with a NULL equi-join key on either side are dropped by the hash join —
//! exactly what evaluating the equality predicate would do.

use uprob_wsd::{FxHashMap, FxHashSet};

use uprob_wsd::WsDescriptor;

use crate::database::ProbDb;
use crate::plan::Plan;
use crate::predicate::{Comparison, Expr, Predicate};
use crate::relation::URelation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A streamed row: the tuple plus its ws-descriptor.
type Row = (Tuple, WsDescriptor);
type RowStream<'a> = Box<dyn Iterator<Item = Row> + 'a>;

/// Executes `plan` against `db` with the pipelined executor (no
/// optimization; [`ProbDb::query`] optimizes first). The output relation
/// carries the plan's [`Plan::output_schema`].
///
/// # Errors
///
/// Returns plan-validation errors (unknown relations/columns, predicate
/// type errors, union incompatibility). Execution itself cannot fail once
/// validation passed: predicates are compiled to positional form.
pub fn execute_plan(db: &ProbDb, plan: &Plan) -> Result<URelation> {
    // One full validation pass (schema resolution + predicate type
    // checking); compile() then recomputes each node's schema exactly once,
    // bottom-up, without re-validating subtrees.
    let schema = plan.output_schema(db)?;
    let (_, stream) = compile(db, plan)?;
    Ok(URelation::from_rows(schema, stream.collect()))
}

/// A predicate with all column references resolved to tuple positions:
/// evaluation is infallible and allocation-free.
enum CompiledPredicate {
    True,
    False,
    Cmp {
        left: CompiledExpr,
        op: Comparison,
        right: CompiledExpr,
    },
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    Not(Box<CompiledPredicate>),
}

enum CompiledExpr {
    Column(usize),
    Const(Value),
}

impl CompiledExpr {
    fn compile(expr: &Expr, schema: &Schema) -> Result<CompiledExpr> {
        Ok(match expr {
            Expr::Const(v) => CompiledExpr::Const(v.clone()),
            Expr::Column(c) => CompiledExpr::Column(schema.column_index(&c.name)?),
        })
    }

    fn eval<'a>(&'a self, tuple: &'a Tuple) -> &'a Value {
        match self {
            CompiledExpr::Const(v) => v,
            #[expect(
                clippy::expect_used,
                reason = "column positions were validated against this schema at compile time"
            )]
            CompiledExpr::Column(i) => tuple.get(*i).expect("validated column position"),
        }
    }
}

impl CompiledPredicate {
    fn compile(predicate: &Predicate, schema: &Schema) -> Result<CompiledPredicate> {
        Ok(match predicate {
            Predicate::True => CompiledPredicate::True,
            Predicate::False => CompiledPredicate::False,
            Predicate::Cmp { left, op, right } => CompiledPredicate::Cmp {
                left: CompiledExpr::compile(left, schema)?,
                op: *op,
                right: CompiledExpr::compile(right, schema)?,
            },
            Predicate::And(a, b) => CompiledPredicate::And(
                Box::new(CompiledPredicate::compile(a, schema)?),
                Box::new(CompiledPredicate::compile(b, schema)?),
            ),
            Predicate::Or(a, b) => CompiledPredicate::Or(
                Box::new(CompiledPredicate::compile(a, schema)?),
                Box::new(CompiledPredicate::compile(b, schema)?),
            ),
            Predicate::Not(p) => {
                CompiledPredicate::Not(Box::new(CompiledPredicate::compile(p, schema)?))
            }
        })
    }

    fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            CompiledPredicate::True => true,
            CompiledPredicate::False => false,
            CompiledPredicate::Cmp { left, op, right } => {
                op.apply(left.eval(tuple), right.eval(tuple))
            }
            CompiledPredicate::And(a, b) => a.eval(tuple) && b.eval(tuple),
            CompiledPredicate::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            CompiledPredicate::Not(p) => !p.eval(tuple),
        }
    }

    fn is_true(&self) -> bool {
        matches!(self, CompiledPredicate::True)
    }
}

/// Compiles a plan node into its output schema and row stream. Each
/// node's schema is computed exactly once, bottom-up (the full-tree
/// validation already happened in [`execute_plan`]).
fn compile<'a>(db: &'a ProbDb, plan: &'a Plan) -> Result<(Schema, RowStream<'a>)> {
    Ok(match plan {
        Plan::Scan { relation } => {
            let rel = db.relation(relation)?;
            (
                rel.schema().clone(),
                Box::new(rel.iter().map(|(t, d)| (t.clone(), d.clone()))),
            )
        }
        Plan::Empty { schema } => (schema.clone(), Box::new(std::iter::empty())),
        Plan::Select { input, predicate } => {
            // Fused select-over-scan: evaluate on the borrowed row and
            // clone survivors only (a plain scan clones every row before
            // the filter would drop it).
            if let Plan::Scan { relation } = input.as_ref() {
                let rel = db.relation(relation)?;
                let schema = rel.schema().clone();
                let compiled = CompiledPredicate::compile(predicate, &schema)?;
                (
                    schema,
                    Box::new(
                        rel.iter()
                            .filter(move |(t, _)| compiled.eval(t))
                            .map(|(t, d)| (t.clone(), d.clone())),
                    ),
                )
            } else {
                let (schema, stream) = compile(db, input)?;
                let compiled = CompiledPredicate::compile(predicate, &schema)?;
                (
                    schema,
                    Box::new(stream.filter(move |(t, _)| compiled.eval(t))),
                )
            }
        }
        Plan::Project { input, columns } => {
            let (schema, stream) = compile(db, input)?;
            let positions: Vec<usize> = columns
                .iter()
                .map(|c| schema.column_index(c))
                .collect::<Result<_>>()?;
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            let projected = schema.project(&names, schema.name())?;
            (
                projected,
                Box::new(stream.map(move |(t, d)| (t.project(&positions), d))),
            )
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => compile_join(db, left, right, predicate)?,
        Plan::Product { left, right } => compile_join(db, left, right, &Predicate::True)?,
        Plan::Union { left, right } => {
            let (ls, l) = compile(db, left)?;
            let (rs, r) = compile(db, right)?;
            ls.check_union_compatible(&rs)?;
            (ls, Box::new(l.chain(r)))
        }
        Plan::Rename { input, name } => {
            let (schema, stream) = compile(db, input)?;
            (schema.renamed(name), stream)
        }
        Plan::Distinct { input } => {
            let (schema, stream) = compile(db, input)?;
            let mut seen: FxHashSet<Row> = FxHashSet::default();
            (
                schema,
                Box::new(stream.filter(move |row| seen.insert(row.clone()))),
            )
        }
    })
}

/// Compiles a join: splits the condition into cross-side equality conjuncts
/// (the hash keys) and a compiled residual, materializes the right (build)
/// side, and streams the left (probe) side through it.
fn compile_join<'a>(
    db: &'a ProbDb,
    left: &'a Plan,
    right: &'a Plan,
    predicate: &Predicate,
) -> Result<(Schema, RowStream<'a>)> {
    let (left_schema, left_stream) = compile(db, left)?;
    let (right_schema, right_stream) = compile(db, right)?;
    let concat = left_schema.concat(&right_schema, left_schema.name());
    let left_arity = left_schema.arity();

    // Extract `left-column = right-column` conjuncts as hash keys.
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    let mut residual: Vec<Predicate> = Vec::new();
    for conjunct in predicate.clone().into_conjuncts() {
        if let Predicate::Cmp {
            left: Expr::Column(a),
            op: Comparison::Eq,
            right: Expr::Column(b),
        } = &conjunct
        {
            let ia = concat.column_index(&a.name)?;
            let ib = concat.column_index(&b.name)?;
            if ia < left_arity && ib >= left_arity {
                left_keys.push(ia);
                right_keys.push(ib - left_arity);
                continue;
            }
            if ib < left_arity && ia >= left_arity {
                left_keys.push(ib);
                right_keys.push(ia - left_arity);
                continue;
            }
        }
        residual.push(conjunct);
    }
    let residual = CompiledPredicate::compile(&Predicate::conjoin(residual), &concat)?;

    let right_rows: Vec<Row> = right_stream.collect();

    if left_keys.is_empty() {
        // No equi-join keys: block nested loop over the materialized right
        // side (identical pair order to the eager reference).
        return Ok((
            concat,
            Box::new(left_stream.flat_map(move |(lt, ld)| {
                let mut out = Vec::new();
                for (rt, rd) in &right_rows {
                    if !ld.is_consistent_with(rd) {
                        continue;
                    }
                    let tuple = lt.concat(rt);
                    if residual.eval(&tuple) {
                            #[expect(clippy::expect_used, reason = "the `is_consistent_with` filter above guarantees the union exists")]
                        let descriptor = ld
                            .union(rd)
                            .expect("consistent descriptors always have a union");
                        out.push((tuple, descriptor));
                    }
                }
                out
            })),
        ));
    }

    // Hash join: bucket the build side by key. Rows with a NULL key value
    // can never satisfy the equality conjuncts and are dropped up front.
    let mut table: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
    for (rt, rd) in right_rows {
        if let Some(key) = key_of(&rt, &right_keys) {
            table.entry(key).or_default().push((rt, rd));
        }
    }
    let residual_is_true = residual.is_true();
    Ok((
        concat,
        Box::new(left_stream.flat_map(move |(lt, ld)| {
            let mut out = Vec::new();
            if let Some(key) = key_of(&lt, &left_keys) {
                if let Some(bucket) = table.get(&key) {
                    out.reserve(bucket.len());
                    for (rt, rd) in bucket {
                        if !ld.is_consistent_with(rd) {
                            continue;
                        }
                        let tuple = lt.concat(rt);
                        if residual_is_true || residual.eval(&tuple) {
                                #[expect(clippy::expect_used, reason = "the `is_consistent_with` filter above guarantees the union exists")]
                            let descriptor = ld
                                .union(rd)
                                .expect("consistent descriptors always have a union");
                            out.push((tuple, descriptor));
                        }
                    }
                }
            }
            out
        })),
    ))
}

/// The hash key of a tuple on the given positions; `None` if any key value
/// is NULL (such rows never match an equality).
fn key_of(tuple: &Tuple, positions: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(positions.len());
    for &p in positions {
        #[expect(
            clippy::expect_used,
            reason = "key positions were resolved against the schema when the join was built"
        )]
        let v = tuple.get(p).expect("validated key position");
        if v.is_null() {
            return None;
        }
        key.push(v.clone());
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::execute_plan as execute_plan_eager;
    use crate::schema::ColumnType;
    use uprob_wsd::WorldTable;

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
