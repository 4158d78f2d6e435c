//! The positive relational algebra on U-relations (Section 2), translated
//! literally — the semantics oracle of `uprob_urel`'s optimizer and
//! pipelined executor, **not** a query API (queries are evaluated with
//! [`ProbDb::query`]):
//!
//! * selections and projections simply keep the ws-descriptor of each tuple,
//! * joins additionally require the ws-descriptors of the joined tuples to
//!   be **consistent** and output the union of the two descriptors
//!   (nested loop, quadratic),
//! * set union concatenates the operands,
//! * [`execute_plan`] maps every [`Plan`] node one-to-one onto these
//!   materializing operators.
//!
//! All operations are world-by-world correct: instantiating the output in a
//! possible world yields the same tuples as running the classical operator
//! on the instantiated inputs (tested in `algebra.rs` and by property
//! tests).

use std::collections::BTreeMap;

use uprob_urel::{Plan, Predicate, ProbDb, Result, Tuple, URelation, UrelError, Value};
use uprob_wsd::{FxHashSet, ValueIndex, WsDescriptor, WsSet};

use crate::worlds::TableWorlds;

/// Selection `σ_φ(R)`: keeps the rows whose tuple satisfies `φ`, with their
/// descriptors unchanged.
pub fn select(relation: &URelation, predicate: &Predicate, name: &str) -> Result<URelation> {
    let schema = relation.schema().renamed(name);
    let mut out = URelation::new(schema);
    for (tuple, descriptor) in relation.iter() {
        if predicate.eval(relation.schema(), tuple)? {
            out.push(tuple.clone(), descriptor.clone());
        }
    }
    Ok(out)
}

/// Projection `π_A(R)`: projects every tuple onto the named columns, keeping
/// its descriptor (the paper's `π_{WSD, A}`). Duplicate tuples are *not*
/// merged; they represent alternative derivations in different world-sets.
pub fn project(relation: &URelation, columns: &[&str], name: &str) -> Result<URelation> {
    let schema = relation.schema().project(columns, name)?;
    let positions: Vec<usize> = columns
        .iter()
        .map(|c| relation.schema().column_index(c))
        .collect::<Result<_>>()?;
    let mut out = URelation::new(schema);
    for (tuple, descriptor) in relation.iter() {
        let values: Option<Vec<Value>> = positions.iter().map(|&i| tuple.get(i).cloned()).collect();
        let values = values.ok_or_else(|| UrelError::TupleSchemaMismatch {
            relation: relation.schema().name().to_string(),
            detail: format!("tuple {tuple} is shorter than its schema"),
        })?;
        out.push(Tuple::new(values), descriptor.clone());
    }
    Ok(out)
}

/// Join `R ⋈_φ S`: pairs of tuples that satisfy `φ` on the concatenated
/// schema *and* whose ws-descriptors are consistent with each other; the
/// output descriptor is the union of the two input descriptors
/// (`U_R ⋈_{φ ∧ ψ} U_S` in the paper, where `ψ` is descriptor consistency).
pub fn join(
    left: &URelation,
    right: &URelation,
    predicate: &Predicate,
    name: &str,
) -> Result<URelation> {
    let schema = left.schema().concat(right.schema(), name);
    let mut out = URelation::new(schema.clone());
    for (lt, ld) in left.iter() {
        for (rt, rd) in right.iter() {
            // ψ: the two descriptors must have a common extension. The
            // consistency check is an allocation-free merge scan, so
            // inconsistent pairs are skipped before paying for the tuple
            // concatenation, the predicate evaluation, or the descriptor
            // union (which is only materialised for matching pairs).
            if !ld.is_consistent_with(rd) {
                continue;
            }
            let tuple = lt.concat(rt);
            if predicate.eval(&schema, &tuple)? {
                let combined = ld
                    .union(rd)
                    .expect("consistent descriptors always have a union");
                out.push(tuple, combined);
            }
        }
    }
    Ok(out)
}

/// Cross product `R × S` (a join with the always-true condition).
pub fn product(left: &URelation, right: &URelation, name: &str) -> Result<URelation> {
    join(left, right, &Predicate::True, name)
}

/// Union `R ∪ S` of two union-compatible relations: simply the concatenation
/// of their rows (Section 3.2: ws-set union is plain set union).
pub fn union(left: &URelation, right: &URelation, name: &str) -> Result<URelation> {
    left.schema().check_union_compatible(right.schema())?;
    let schema = left.schema().renamed(name);
    let mut out = URelation::new(schema);
    for (t, d) in left.iter().chain(right.iter()) {
        out.push(t.clone(), d.clone());
    }
    Ok(out)
}

/// Duplicate elimination `δ(R)`: drops rows whose `(tuple, descriptor)`
/// pair already occurred, keeping first occurrences in order. World-by-world
/// correct: identical rows are present in exactly the same worlds, so the
/// instantiated output (a set) is unchanged. Rows carrying the same tuple
/// under *different* descriptors are kept — they are distinct derivations
/// and their world-sets union in [`tuple_ws_set`].
pub fn distinct(relation: &URelation) -> URelation {
    let mut seen: FxHashSet<(&Tuple, &WsDescriptor)> = FxHashSet::default();
    let mut out = URelation::new(relation.schema().clone());
    for (t, d) in relation.iter() {
        if seen.insert((t, d)) {
            out.push(t.clone(), d.clone());
        }
    }
    out
}

/// The ws-set of the worlds in which `tuple` is present: the descriptors of
/// all rows of `relation` whose tuple equals `tuple`.
pub fn tuple_ws_set(relation: &URelation, tuple: &Tuple) -> WsSet {
    relation
        .iter()
        .filter(|(t, _)| *t == tuple)
        .map(|(_, d)| d.clone())
        .collect()
}

/// Enumerates all `(world, probability, instance)` triples of `db`.
/// Exponential in the number of variables.
pub fn enumerate_instances(
    db: &ProbDb,
) -> impl Iterator<Item = (Vec<ValueIndex>, f64, BTreeMap<String, Vec<Tuple>>)> + '_ {
    db.world_table().enumerate_worlds().map(move |(world, p)| {
        let instance = db.instantiate_world(&world);
        (world, p, instance)
    })
}

/// Renames a relation (schema name only; columns are unchanged).
pub fn rename(relation: &URelation, name: &str) -> URelation {
    let mut out = URelation::new(relation.schema().renamed(name));
    for (t, d) in relation.iter() {
        out.push(t.clone(), d.clone());
    }
    out
}

/// The eager reference interpreter: validates the plan, then evaluates it
/// bottom-up through the materializing operators of this module
/// (nested-loop joins, full intermediate relations). Quadratic joins; it
/// exists as the semantics oracle the optimizer and the pipelined
/// executor are differentially tested against.
///
/// # Errors
///
/// Returns plan-validation errors (unknown relations/columns, predicate
/// type errors, union incompatibility).
pub fn execute_plan(db: &ProbDb, plan: &Plan) -> Result<URelation> {
    plan.output_schema(db)?;
    eval(db, plan)
}

fn eval(db: &ProbDb, plan: &Plan) -> Result<URelation> {
    match plan {
        Plan::Scan { relation } => Ok(db.relation(relation)?.clone()),
        Plan::Empty { schema } => Ok(URelation::new(schema.clone())),
        Plan::Select { input, predicate } => {
            let rel = eval(db, input)?;
            let name = rel.schema().name().to_string();
            select(&rel, predicate, &name)
        }
        Plan::Project { input, columns } => {
            let rel = eval(db, input)?;
            let name = rel.schema().name().to_string();
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            project(&rel, &names, &name)
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let l = eval(db, left)?;
            let r = eval(db, right)?;
            let name = l.schema().name().to_string();
            join(&l, &r, predicate, &name)
        }
        Plan::Product { left, right } => {
            let l = eval(db, left)?;
            let r = eval(db, right)?;
            let name = l.schema().name().to_string();
            product(&l, &r, &name)
        }
        Plan::Union { left, right } => {
            let l = eval(db, left)?;
            let r = eval(db, right)?;
            let name = l.schema().name().to_string();
            union(&l, &r, &name)
        }
        Plan::Rename { input, name } => Ok(rename(&eval(db, input)?, name)),
        Plan::Distinct { input } => Ok(distinct(&eval(db, input)?)),
    }
}
