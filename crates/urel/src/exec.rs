//! The pipelined plan executor.
//!
//! [`execute_plan`] validates a [`Plan`] once, compiles every operator
//! down to positional form (column names are resolved against the operator
//! schemas exactly once, not per row), and then **streams**
//! `(tuple, ws-descriptor)` rows between operators instead of
//! materializing an intermediate U-relation per node:
//!
//! * a row in flight **borrows** its tuple and descriptor from the stored
//!   relation it was scanned from; a row is owned only once an operator
//!   creates it (a join output), and copied only where it leaves
//!   [`execute_plan`];
//! * every compiled stream carries a **column map** (logical column →
//!   position in the rows' tuples), so scan, project and rename do no
//!   per-row work: a projection composes the map, and a selection compiles
//!   its predicate through the map to tuple positions. Selections over a
//!   stored relation run inside its scan loop;
//! * a join builds over the borrowed rows of its **right (build) side**: the
//!   values of the equi-join key (the cross-side equality conjuncts of the
//!   condition) are hashed in place through the map, and each key hash
//!   heads a chain of build rows in input order. The left (probe) side
//!   streams through the chains. A condition without such conjuncts is the
//!   one-chain case — a block nested loop — on the same path;
//! * the join condition is evaluated on the borrowed pair, reading both
//!   tuples through their maps; a pair that satisfies it becomes a row in
//!   one fallible step: the descriptor union (`ψ` in the paper's
//!   `U_R ⋈_{φ ∧ ψ} U_S`) fails, allocating nothing, on an inconsistent
//!   pair, and otherwise the output tuple is allocated once at its exact
//!   length;
//! * distinct, and a union of two streams with different maps, are the
//!   only operators that copy tuples on the way (to compare whole rows, and
//!   to give both inputs one map).
//!
//! Rows are emitted in exactly the order of the eager reference
//! interpreter (`uprob_reference::urel::execute_plan`): every streaming operator
//! is order-preserving and the hash join probes in left-row order with
//! build rows chained in input order, so even the per-tuple ws-sets of
//! the answer come out in the same descriptor order — which is what makes
//! the exact confidence of a planned answer **bit-identical** to the eager
//! path (see `tests/plan_equivalence.rs` and the golden strategy tests).
//!
//! NULL semantics: a comparison involving NULL is never satisfied, so rows
//! with a NULL equi-join key on either side are dropped by the hash join —
//! exactly what evaluating the equality predicate would do.

use std::borrow::Cow;
use std::hash::{BuildHasher, Hash, Hasher};

use uprob_wsd::{FxBuildHasher, FxHashMap, FxHashSet, WsDescriptor};

use crate::database::ProbDb;
use crate::error::UrelError;
use crate::plan::Plan;
use crate::predicate::{Comparison, Expr, Predicate};
use crate::relation::URelation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A streamed row: the tuple plus its ws-descriptor, borrowed from a stored
/// relation until an operator creates the row.
type Row<'a> = (Cow<'a, Tuple>, Cow<'a, WsDescriptor>);
type RowStream<'a> = Box<dyn Iterator<Item = Row<'a>> + 'a>;

/// A compiled plan node: its output schema, its rows, and the position in
/// the rows' tuples of each column of the schema.
struct Stream<'a> {
    schema: Schema,
    map: Vec<usize>,
    rows: Rows<'a>,
}

impl<'a> Stream<'a> {
    /// A stream whose tuples are its schema's columns (the identity map).
    fn new(schema: Schema, rows: Rows<'a>) -> Stream<'a> {
        let map = (0..schema.arity()).collect();
        Stream { schema, map, rows }
    }
}

/// The rows of a compiled plan node. Selections over a stored relation
/// stay beside it and run inside its scan loop, so a row they drop never
/// crosses an operator boundary.
enum Rows<'a> {
    Stored(&'a [(Tuple, WsDescriptor)], Vec<CompiledPredicate>),
    Streamed(RowStream<'a>),
}

impl<'a> Rows<'a> {
    /// The rows as a stream; a stored relation's are lent, not copied.
    fn stream(self) -> RowStream<'a> {
        match self {
            Rows::Stored(rows, predicates) => Box::new(
                rows.iter()
                    .filter(move |(t, _)| predicates.iter().all(|p| p.eval(t, t)))
                    .map(|(t, d)| (Cow::Borrowed(t), Cow::Borrowed(d))),
            ),
            Rows::Streamed(rows) => rows,
        }
    }
}

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
    let Stream { map, rows, .. } = compile(db, plan)?;
    let rows = rows
        .stream()
        .map(|(tuple, descriptor)| (owned_tuple(tuple, &map), descriptor.into_owned()))
        .collect();
    Ok(URelation::from_rows(schema, rows))
}

/// The value at position `position` of a row's tuple.
fn value_at(tuple: &Tuple, position: usize) -> &Value {
    #[expect(
        clippy::expect_used,
        reason = "column maps and key positions are resolved against the schema the rows were validated against"
    )]
    tuple.get(position).expect("validated column position")
}

/// A copy of the columns `map` reads from a row's tuple, in map order.
fn read_through(tuple: &Tuple, map: &[usize]) -> Tuple {
    Tuple::new(map.iter().map(|&p| value_at(tuple, p).clone()).collect())
}

/// The row's tuple as the map reads it: moved when it already is (an
/// operator's own output), copied through the map otherwise.
fn owned_tuple(tuple: Cow<'_, Tuple>, map: &[usize]) -> Tuple {
    match tuple {
        Cow::Owned(t) if t.arity() == map.len() && map.iter().enumerate().all(|(i, &p)| i == p) => {
            t
        }
        t => read_through(&t, map),
    }
}

/// A stream's rows with their tuples copied into the column order of the
/// stream's schema (the identity map).
fn relayout<'a>(Stream { map, rows, .. }: Stream<'a>) -> impl Iterator<Item = Row<'a>> + 'a {
    rows.stream()
        .map(move |(t, d)| (Cow::Owned(owned_tuple(t, &map)), d))
}

/// The entry of `map` for the column `name` of `schema`: first-match
/// resolution, exactly as [`Schema::column_index`].
fn resolve<T: Copy>(schema: &Schema, map: &[T], name: &str) -> Result<T> {
    let column = schema.column_index(name)?;
    map.get(column)
        .copied()
        .ok_or_else(|| UrelError::UnknownColumn {
            relation: schema.name().to_string(),
            column: name.to_string(),
        })
}

/// Where a compiled column reference reads: a position in the left or the
/// right tuple of a join pair. A single stream's predicates read `Left`.
#[derive(Clone, Copy)]
enum Slot {
    Left(usize),
    Right(usize),
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
    Column(Slot),
    Const(Value),
}

impl CompiledExpr {
    fn compile(expr: &Expr, slot: &impl Fn(&str) -> Result<Slot>) -> Result<CompiledExpr> {
        Ok(match expr {
            Expr::Const(v) => CompiledExpr::Const(v.clone()),
            Expr::Column(c) => CompiledExpr::Column(slot(&c.name)?),
        })
    }

    fn eval<'v>(&'v self, lt: &'v Tuple, rt: &'v Tuple) -> &'v Value {
        match self {
            CompiledExpr::Const(v) => v,
            CompiledExpr::Column(Slot::Left(p)) => value_at(lt, *p),
            CompiledExpr::Column(Slot::Right(p)) => value_at(rt, *p),
        }
    }
}

impl CompiledPredicate {
    /// Compiles `predicate`, locating each column name with `slot`.
    fn compile(
        predicate: &Predicate,
        slot: &impl Fn(&str) -> Result<Slot>,
    ) -> Result<CompiledPredicate> {
        Ok(match predicate {
            Predicate::True => CompiledPredicate::True,
            Predicate::False => CompiledPredicate::False,
            Predicate::Cmp { left, op, right } => CompiledPredicate::Cmp {
                left: CompiledExpr::compile(left, slot)?,
                op: *op,
                right: CompiledExpr::compile(right, slot)?,
            },
            Predicate::And(a, b) => CompiledPredicate::And(
                Box::new(CompiledPredicate::compile(a, slot)?),
                Box::new(CompiledPredicate::compile(b, slot)?),
            ),
            Predicate::Or(a, b) => CompiledPredicate::Or(
                Box::new(CompiledPredicate::compile(a, slot)?),
                Box::new(CompiledPredicate::compile(b, slot)?),
            ),
            Predicate::Not(p) => {
                CompiledPredicate::Not(Box::new(CompiledPredicate::compile(p, slot)?))
            }
        })
    }

    /// Evaluates on a join pair (a single stream passes its tuple twice).
    fn eval(&self, lt: &Tuple, rt: &Tuple) -> bool {
        match self {
            CompiledPredicate::True => true,
            CompiledPredicate::False => false,
            CompiledPredicate::Cmp { left, op, right } => {
                op.apply(left.eval(lt, rt), right.eval(lt, rt))
            }
            CompiledPredicate::And(a, b) => a.eval(lt, rt) && b.eval(lt, rt),
            CompiledPredicate::Or(a, b) => a.eval(lt, rt) || b.eval(lt, rt),
            CompiledPredicate::Not(p) => !p.eval(lt, rt),
        }
    }
}

/// Compiles a plan node into its output schema, column map and row stream.
/// Each node's schema is computed exactly once, bottom-up (the full-tree
/// validation already happened in [`execute_plan`]).
fn compile<'a>(db: &'a ProbDb, plan: &'a Plan) -> Result<Stream<'a>> {
    Ok(match plan {
        Plan::Scan { relation } => {
            let rel = db.relation(relation)?;
            Stream::new(rel.schema().clone(), Rows::Stored(rel.rows(), Vec::new()))
        }
        Plan::Empty { schema } => Stream::new(schema.clone(), Rows::Stored(&[], Vec::new())),
        Plan::Select { input, predicate } => {
            let mut s = compile(db, input)?;
            let compiled = CompiledPredicate::compile(predicate, &|name: &str| {
                resolve(&s.schema, &s.map, name).map(Slot::Left)
            })?;
            s.rows = match s.rows {
                Rows::Stored(rows, mut predicates) => {
                    predicates.push(compiled);
                    Rows::Stored(rows, predicates)
                }
                rows => Rows::Streamed(Box::new(
                    rows.stream().filter(move |(t, _)| compiled.eval(t, t)),
                )),
            };
            s
        }
        Plan::Project { input, columns } => {
            let mut s = compile(db, input)?;
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            s.map = names
                .iter()
                .map(|name| resolve(&s.schema, &s.map, name))
                .collect::<Result<_>>()?;
            s.schema = s.schema.project(&names, s.schema.name())?;
            s
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => compile_join(db, left, right, predicate)?,
        Plan::Product { left, right } => compile_join(db, left, right, &Predicate::True)?,
        Plan::Union { left, right } => {
            let l = compile(db, left)?;
            let r = compile(db, right)?;
            l.schema.check_union_compatible(&r.schema)?;
            if l.map == r.map {
                Stream {
                    rows: Rows::Streamed(Box::new(l.rows.stream().chain(r.rows.stream()))),
                    ..l
                }
            } else {
                // Two layouts: copy both inputs into the schema's own.
                let schema = l.schema.clone();
                Stream::new(
                    schema,
                    Rows::Streamed(Box::new(relayout(l).chain(relayout(r)))),
                )
            }
        }
        Plan::Rename { input, name } => {
            let mut s = compile(db, input)?;
            s.schema = s.schema.renamed(name);
            s
        }
        Plan::Distinct { input } => {
            let mut s = compile(db, input)?;
            let mut seen: FxHashSet<(Tuple, WsDescriptor)> = FxHashSet::default();
            let map = s.map.clone();
            s.rows = Rows::Streamed(Box::new(s.rows.stream().filter(move |(t, d)| {
                seen.insert((read_through(t, &map), WsDescriptor::clone(d)))
            })));
            s
        }
    })
}

/// Compiles a join: takes the cross-side equality conjuncts of the
/// condition as the key, chains the right side's rows by key hash, and
/// streams the left side through the chains.
fn compile_join<'a>(
    db: &'a ProbDb,
    left: &'a Plan,
    right: &'a Plan,
    predicate: &Predicate,
) -> Result<Stream<'a>> {
    let l = compile(db, left)?;
    let r = compile(db, right)?;
    let concat = l.schema.concat(&r.schema, l.schema.name());
    let slots: Vec<Slot> = l
        .map
        .iter()
        .map(|&p| Slot::Left(p))
        .chain(r.map.iter().map(|&p| Slot::Right(p)))
        .collect();
    let slot = |name: &str| resolve(&concat, &slots, name);

    // The `left-column = right-column` conjuncts are the key the build rows
    // are chained by; the whole condition is then checked on each pair a
    // chain offers (a chain holds every row whose key hash is equal).
    let (mut left_key, mut right_key) = (Vec::new(), Vec::new());
    for conjunct in predicate.clone().into_conjuncts() {
        if let Predicate::Cmp {
            left: Expr::Column(a),
            op: Comparison::Eq,
            right: Expr::Column(b),
        } = conjunct
        {
            if let (Slot::Left(p), Slot::Right(q)) | (Slot::Right(q), Slot::Left(p)) =
                (slot(&a.name)?, slot(&b.name)?)
            {
                left_key.push(p);
                right_key.push(q);
            }
        }
    }
    let condition = CompiledPredicate::compile(predicate, &slot)?;

    // Chain the build rows by key hash: walking them backwards and pushing
    // each onto the front of its chain leaves every chain in input order.
    // A row with a NULL key value can never satisfy the equality and joins
    // no chain.
    let mut build: Vec<(Row<'a>, Option<usize>)> = r.rows.stream().map(|row| (row, None)).collect();
    let mut heads: FxHashMap<u64, usize> = FxHashMap::default();
    for (j, ((t, _), next)) in build.iter_mut().enumerate().rev() {
        *next = key_hash(t, &right_key).and_then(|h| heads.insert(h, j));
    }

    let join = Join {
        probe: l.rows.stream(),
        build,
        heads,
        left_key,
        columns: slots.into_iter().map(CompiledExpr::Column).collect(),
        condition,
        current: None,
    };
    Ok(Stream::new(concat, Rows::Streamed(Box::new(join))))
}

/// The hash of a row's key values, `None` if one of them is NULL (such a
/// row never matches an equality). The empty key hashes to one constant.
fn key_hash(tuple: &Tuple, key: &[usize]) -> Option<u64> {
    let mut hasher = FxBuildHasher.build_hasher();
    for &p in key {
        let value = value_at(tuple, p);
        if value.is_null() {
            return None;
        }
        value.hash(&mut hasher);
    }
    Some(hasher.finish())
}

/// The join operator: probes each left row against the chain of its key
/// hash, in build-input order, so a left row's matches come out in the
/// order a nested loop over the right side would emit them.
struct Join<'a> {
    probe: RowStream<'a>,
    /// The build rows, each with the next build row of its chain.
    build: Vec<(Row<'a>, Option<usize>)>,
    /// The first build row of each key hash's chain.
    heads: FxHashMap<u64, usize>,
    left_key: Vec<usize>,
    /// The output columns: the left row's, then the right row's.
    columns: Vec<CompiledExpr>,
    condition: CompiledPredicate,
    /// The probe row being matched and the build row its chain visits next.
    current: Option<(Row<'a>, Option<usize>)>,
}

impl<'a> Iterator for Join<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        loop {
            if let Some(((lt, ld), cursor)) = &mut self.current {
                while let Some(j) = *cursor {
                    let Some(((rt, rd), next)) = self.build.get(j) else {
                        break;
                    };
                    *cursor = *next;
                    if !self.condition.eval(lt, rt) {
                        continue;
                    }
                    // The union is the consistency check: an inconsistent
                    // pair is skipped without allocating.
                    let Ok(descriptor) = ld.union(rd) else {
                        continue;
                    };
                    let values = self
                        .columns
                        .iter()
                        .map(|c| c.eval(lt, rt).clone())
                        .collect();
                    return Some((Cow::Owned(Tuple::new(values)), Cow::Owned(descriptor)));
                }
            }
            let (lt, ld) = self.probe.next()?;
            let cursor = key_hash(&lt, &self.left_key).and_then(|h| self.heads.get(&h).copied());
            self.current = Some(((lt, ld), cursor));
        }
    }
}
