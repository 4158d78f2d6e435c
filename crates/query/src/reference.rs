//! Reference implementations the optimized paths of this crate are
//! differentially tested against — oracles, **not** product API.
//!
//! Nothing on the product path calls into this module; it is imported only
//! by tests, the differential suites and `crates/bench`:
//!
//! * [`violation_ws_set`] compiles a constraint's violation ws-set the slow,
//!   literal way — hand-rolled tuple-pair loops for FDs/keys, a row scan for
//!   row filters, a nested loop for inclusion dependencies and the eager
//!   interpreter ([`uprob_urel::reference::execute_plan`]) for denial and
//!   plan constraints. Its product twin is
//!   [`Constraint::violation_ws_set`]; `tests/constraint_equivalence.rs`
//!   pins the agreement, NULLs included.
//! * [`tuple_confidences`] folds every distinct tuple on its own — no
//!   cache, no worker threads. Its product twin is
//!   [`crate::tuple_confidences`] /
//!   [`crate::answer_confidences_with_options`], bit for bit.

#![expect(
    clippy::expect_used,
    reason = "each `.expect` restates an invariant `Constraint::validate` established at the top of `violation_ws_set`: every column name resolves, and denial/plan constraints have a violation plan"
)]

use uprob_core::{confidence, DecompositionOptions};
use uprob_urel::{ProbDb, Tuple, URelation, Value};
use uprob_wsd::{diff_descriptor_set, WorldTable, WsDescriptor, WsSet};

use crate::constraints::{non_null_key, resolve_columns, Constraint};
use crate::Result;

/// The violation ws-set of `constraint`, normalised, computed with the
/// eager reference compilation. Semantically identical to
/// [`Constraint::violation_ws_set`] but asymptotically slower.
///
/// # Errors
///
/// Same as [`Constraint::violation_ws_set`].
pub fn violation_ws_set(constraint: &Constraint, db: &ProbDb) -> Result<WsSet> {
    constraint.validate(db)?;
    match constraint {
        Constraint::FunctionalDependency {
            relation,
            determinant,
            dependent,
        } => fd_violations(db, relation, determinant, dependent),
        Constraint::Key { relation, columns } => {
            let rel = db.relation(relation)?;
            let dependent: Vec<String> = rel
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .filter(|name| !columns.contains(name))
                .collect();
            fd_violations(db, relation, columns, &dependent)
        }
        Constraint::RowFilter {
            relation,
            predicate,
        } => {
            let rel = db.relation(relation)?;
            let mut violations = WsSet::empty();
            for (tuple, descriptor) in rel.iter() {
                if !predicate.eval(rel.schema(), tuple)? {
                    violations.push(descriptor.clone());
                }
            }
            violations.normalize();
            Ok(violations)
        }
        Constraint::InclusionDependency {
            child,
            child_columns,
            parent,
            parent_columns,
        } => ind_violations(db, child, child_columns, parent, parent_columns),
        Constraint::DenialConstraint { .. } | Constraint::PlanConstraint { .. } => {
            let plan = constraint
                .violation_plan(db)?
                .expect("denial/plan constraints compile to plans");
            let answer = uprob_urel::reference::execute_plan(db, &plan)?;
            Ok(answer.answer_ws_set().normalized())
        }
    }
}

/// SQL-style equality: satisfied only when both values are non-NULL and
/// equal (the tuple-level twin of the executor's comparison rule).
fn sql_eq(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a == b
}

/// Worlds in which two consistent tuples agree on `determinant` and are
/// not provably equal on some `dependent` column — the tuple-pair twin of
/// the FD violation self-join, including the degenerate self-pair (a
/// non-NULL determinant with a NULL dependent violates by itself).
fn fd_violations(
    db: &ProbDb,
    relation: &str,
    determinant: &[String],
    dependent: &[String],
) -> Result<WsSet> {
    let rel = db.relation(relation)?;
    let schema = rel.schema();
    let det_idx = resolve_columns(schema, determinant);
    let dep_idx = resolve_columns(schema, dependent);
    let rows = rel.rows();
    let mut violations = WsSet::empty();
    for (i, (t1, d1)) in rows.iter().enumerate() {
        for (t2, d2) in rows.iter().skip(i) {
            let same_determinant = det_idx.iter().all(|&k| {
                sql_eq(
                    t1.get(k).expect("validated column position"),
                    t2.get(k).expect("validated column position"),
                )
            });
            if !same_determinant {
                continue;
            }
            let disagrees = dep_idx.iter().any(|&k| {
                !sql_eq(
                    t1.get(k).expect("validated column position"),
                    t2.get(k).expect("validated column position"),
                )
            });
            if !disagrees {
                continue;
            }
            if let Ok(both) = d1.union(d2) {
                violations.push(both);
            }
        }
    }
    violations.normalize();
    Ok(violations)
}

/// Worlds in which some child tuple co-exists with **no** matching parent
/// tuple, by nested loop: every child row scans all parent rows, in row
/// order (the order the product's hash buckets preserve).
fn ind_violations(
    db: &ProbDb,
    child: &str,
    child_columns: &[String],
    parent: &str,
    parent_columns: &[String],
) -> Result<WsSet> {
    let child_rel = db.relation(child)?;
    let parent_rel = db.relation(parent)?;
    let c_idx = resolve_columns(child_rel.schema(), child_columns);
    let p_idx = resolve_columns(parent_rel.schema(), parent_columns);
    let mut violations = WsSet::empty();
    for (tuple, descriptor) in child_rel.iter() {
        // SQL MATCH SIMPLE: a child key containing NULL satisfies the FK.
        let Some(key) = non_null_key(tuple, &c_idx) else {
            continue;
        };
        let matches: Vec<WsDescriptor> = parent_rel
            .iter()
            .filter(|(p, _)| {
                p_idx
                    .iter()
                    .zip(&key)
                    .all(|(&k, v)| sql_eq(p.get(k).expect("validated column position"), v))
            })
            .map(|(_, e)| e.clone())
            .collect();
        for d in diff_descriptor_set(descriptor, &matches, db.world_table()) {
            violations.push(d);
        }
    }
    violations.normalize();
    Ok(violations)
}

/// The sequential per-tuple fold: the distinct tuples of `answer` with
/// their exact confidences, one [`confidence()`] call each — no cache, no
/// worker threads.
///
/// # Errors
///
/// Propagates decomposition errors (e.g. an exhausted node budget).
pub fn tuple_confidences(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<Vec<(Tuple, f64)>> {
    let mut out = Vec::new();
    for (tuple, ws_set) in answer.distinct_tuples() {
        out.push((tuple, confidence(&ws_set, table, options)?.probability));
    }
    Ok(out)
}
