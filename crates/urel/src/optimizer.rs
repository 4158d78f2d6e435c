//! Rule-based logical plan optimization.
//!
//! [`optimize_plan`] rewrites a [`Plan`] into a world-by-world equivalent
//! plan that the pipelined executor ([`crate::execute_plan`]) can run
//! faster, using the classical rule set:
//!
//! * **trivial-predicate pruning** — predicates are constant-folded
//!   ([`Predicate::simplify`]); `σ_TRUE` disappears, `σ_FALSE` and joins
//!   with a `FALSE` condition collapse to [`Plan::Empty`];
//! * **empty-relation pruning** — scans of empty stored relations become
//!   [`Plan::Empty`], and emptiness propagates through every operator
//!   (`∅ ⋈ R = ∅`, `∅ ∪ R = R`, …);
//! * **predicate pushdown** — selection conjuncts that only reference one
//!   side of a join/product move below it, and selections push through
//!   unions (with positional column renaming), projections, renames and
//!   distinct;
//! * **select-product → join recognition** — a selection over a cross
//!   product (or over a join) folds its cross-side conjuncts into the join
//!   condition, from which the executor extracts hash-join keys;
//! * **projection pushdown** — a projection above a join narrows the join
//!   inputs to the columns the output and the join condition need.
//!
//! Every rule preserves the output schema (names included) and the
//! multiset of `(tuple, ws-descriptor)` rows — ws-descriptors are not
//! plan-visible columns but ride alongside each row, so no rule can drop
//! or reorder them relative to their tuples (the paper's `π_{WSD, A}`
//! convention). Column references are resolved exactly like the executors
//! resolve them (first match in schema order); a rewrite that cannot
//! guarantee identical resolution — e.g. pushing through a union whose
//! branches disagree on duplicate names — is skipped rather than risked.

#![expect(
    clippy::indexing_slicing,
    reason = "every index in this file is resolved by `column_index`/`position` on the same schema, or bounded by that schema's arity, immediately before use"
)]

use std::collections::BTreeSet;

use uprob_wsd::FxHashMap;

use crate::database::ProbDb;
use crate::plan::Plan;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::Result;

/// Maximum number of full rewrite rounds before the optimizer settles for
/// the current plan (each round is prune → selection pushdown → prune →
/// projection pushdown; real plans reach a fixpoint in two or three).
const MAX_ROUNDS: usize = 8;

/// Optimizes a plan against `db` (rules above). The result computes the
/// same multiset of `(tuple, ws-descriptor)` rows, with the same output
/// schema, on every database sharing `db`'s schemas and statistics-free
/// emptiness (the only instance property the rules consult is whether a
/// scanned relation is empty).
///
/// # Errors
///
/// Returns plan-validation errors (unknown relations/columns, predicate
/// type errors, union incompatibility); a valid plan never fails.
pub fn optimize_plan(plan: &Plan, db: &ProbDb) -> Result<Plan> {
    let schema = plan.output_schema(db)?;
    let mut current = plan.clone();
    for _ in 0..MAX_ROUNDS {
        let mut next = prune(current.clone(), db)?;
        next = push_selections(next, db)?;
        next = prune(next, db)?;
        next = push_projections(next, db)?;
        if next == current {
            break;
        }
        current = next;
    }
    debug_assert_eq!(
        current.output_schema(db)?,
        schema,
        "optimizer rules must preserve the output schema"
    );
    Ok(current)
}

/// Applies `f` to every direct child of `plan`.
fn map_children(plan: Plan, db: &ProbDb, f: fn(Plan, &ProbDb) -> Result<Plan>) -> Result<Plan> {
    Ok(match plan {
        Plan::Scan { .. } | Plan::Empty { .. } => plan,
        Plan::Select { input, predicate } => Plan::Select {
            input: Box::new(f(*input, db)?),
            predicate,
        },
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(f(*input, db)?),
            columns,
        },
        Plan::Join {
            left,
            right,
            predicate,
        } => Plan::Join {
            left: Box::new(f(*left, db)?),
            right: Box::new(f(*right, db)?),
            predicate,
        },
        Plan::Product { left, right } => Plan::Product {
            left: Box::new(f(*left, db)?),
            right: Box::new(f(*right, db)?),
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(f(*left, db)?),
            right: Box::new(f(*right, db)?),
        },
        Plan::Rename { input, name } => Plan::Rename {
            input: Box::new(f(*input, db)?),
            name,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(f(*input, db)?),
        },
    })
}

/// Bottom-up structural simplification: trivial predicates, empty-relation
/// propagation, and collapsing of stacked selects/projects/renames/
/// distincts.
fn prune(plan: Plan, db: &ProbDb) -> Result<Plan> {
    Ok(match plan {
        Plan::Scan { relation } => {
            let rel = db.relation(&relation)?;
            if rel.is_empty() {
                Plan::Empty {
                    schema: rel.schema().clone(),
                }
            } else {
                Plan::Scan { relation }
            }
        }
        Plan::Empty { .. } => plan,
        Plan::Select { input, predicate } => {
            let input = prune(*input, db)?;
            match (input, predicate.simplify()) {
                (input, Predicate::True) => input,
                (input, Predicate::False) => Plan::Empty {
                    schema: input.output_schema(db)?,
                },
                (Plan::Empty { schema }, _) => Plan::Empty { schema },
                // σ_p(σ_q(R)) = σ_{q ∧ p}(R)
                (
                    Plan::Select {
                        input: inner,
                        predicate: q,
                    },
                    p,
                ) => Plan::Select {
                    input: inner,
                    predicate: q.and(p),
                },
                (input, p) => Plan::Select {
                    input: Box::new(input),
                    predicate: p,
                },
            }
        }
        Plan::Project { input, columns } => {
            let input = prune(*input, db)?;
            match input {
                Plan::Empty { schema } => {
                    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                    Plan::Empty {
                        schema: schema.project(&names, schema.name())?,
                    }
                }
                // π_A(π_B(R)) = π_A(R): the outer names are a subset of the
                // inner projection's output names, which the inner
                // projection resolved in R exactly like π_A(R) would
                // (projection preserves column names and first-match
                // order among the survivors it references).
                Plan::Project { input: inner, .. } => Plan::Project {
                    input: inner,
                    columns,
                },
                input => {
                    let schema = input.output_schema(db)?;
                    let identity = columns.len() == schema.arity()
                        && columns.iter().enumerate().all(|(i, c)| {
                            schema.columns()[i].name == *c
                                && schema.column_index(c).map(|x| x == i).unwrap_or(false)
                        });
                    if identity {
                        input
                    } else {
                        Plan::Project {
                            input: Box::new(input),
                            columns,
                        }
                    }
                }
            }
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let left = prune(*left, db)?;
            let right = prune(*right, db)?;
            let predicate = predicate.simplify();
            if is_empty_plan(&left) || is_empty_plan(&right) || predicate == Predicate::False {
                Plan::Empty {
                    schema: concat_schema(&left, &right, db)?,
                }
            } else if predicate == Predicate::True {
                Plan::Product {
                    left: Box::new(left),
                    right: Box::new(right),
                }
            } else {
                Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    predicate,
                }
            }
        }
        Plan::Product { left, right } => {
            let left = prune(*left, db)?;
            let right = prune(*right, db)?;
            if is_empty_plan(&left) || is_empty_plan(&right) {
                Plan::Empty {
                    schema: concat_schema(&left, &right, db)?,
                }
            } else {
                Plan::Product {
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
        Plan::Union { left, right } => {
            let left = prune(*left, db)?;
            let right = prune(*right, db)?;
            if is_empty_plan(&right) {
                // The union's schema is the left operand's: dropping an
                // empty right side is always transparent.
                left
            } else if is_empty_plan(&left) {
                // Dropping an empty left side changes the output schema to
                // the right operand's; only safe when they agree exactly.
                if left.output_schema(db)? == right.output_schema(db)? {
                    right
                } else {
                    Plan::Union {
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
            } else {
                Plan::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
        Plan::Rename { input, name } => {
            let input = prune(*input, db)?;
            match input {
                Plan::Empty { schema } => Plan::Empty {
                    schema: schema.renamed(&name),
                },
                Plan::Rename { input: inner, .. } => Plan::Rename { input: inner, name },
                input => {
                    if input.output_schema(db)?.name() == name {
                        input
                    } else {
                        Plan::Rename {
                            input: Box::new(input),
                            name,
                        }
                    }
                }
            }
        }
        Plan::Distinct { input } => {
            let input = prune(*input, db)?;
            match input {
                Plan::Empty { schema } => Plan::Empty { schema },
                distinct @ Plan::Distinct { .. } => distinct,
                input => Plan::Distinct {
                    input: Box::new(input),
                },
            }
        }
    })
}

fn is_empty_plan(plan: &Plan) -> bool {
    matches!(plan, Plan::Empty { .. })
}

fn concat_schema(left: &Plan, right: &Plan, db: &ProbDb) -> Result<Schema> {
    let l = left.output_schema(db)?;
    let r = right.output_schema(db)?;
    Ok(l.concat(&r, l.name()))
}

/// Top-down selection pushdown (and join-predicate sinking: a join's own
/// single-side conjuncts move below it too).
fn push_selections(plan: Plan, db: &ProbDb) -> Result<Plan> {
    let plan = match plan {
        Plan::Select { input, predicate } => push_select_into(*input, predicate, db)?,
        Plan::Join {
            left,
            right,
            predicate,
        } => build_join(*left, *right, predicate.into_conjuncts(), db)?,
        other => other,
    };
    map_children(plan, db, push_selections)
}

/// Pushes the selection `predicate` into (or through) `input`.
fn push_select_into(input: Plan, predicate: Predicate, db: &ProbDb) -> Result<Plan> {
    Ok(match input {
        // σ_φ(L ⋈_ψ R): classify the conjuncts of φ ∧ ψ.
        Plan::Join {
            left,
            right,
            predicate: join_predicate,
        } => {
            let mut conjuncts = join_predicate.into_conjuncts();
            conjuncts.extend(predicate.into_conjuncts());
            build_join(*left, *right, conjuncts, db)?
        }
        // σ_φ(L × R): the select-product → join recognition.
        Plan::Product { left, right } => build_join(*left, *right, predicate.into_conjuncts(), db)?,
        // σ_φ(L ∪ R) = σ_φ(L) ∪ σ_φ'(R) with φ' positionally renamed.
        Plan::Union { left, right } => {
            let ls = left.output_schema(db)?;
            let rs = right.output_schema(db)?;
            let mut pushed_left = Vec::new();
            let mut pushed_right = Vec::new();
            let mut kept = Vec::new();
            for c in predicate.into_conjuncts() {
                match remap_for_right_branch(&c, &ls, &rs) {
                    Some(rc) => {
                        pushed_left.push(c);
                        pushed_right.push(rc);
                    }
                    None => kept.push(c),
                }
            }
            let unioned = if pushed_left.is_empty() {
                Plan::Union { left, right }
            } else {
                Plan::Union {
                    left: Box::new(Plan::Select {
                        input: left,
                        predicate: Predicate::conjoin(pushed_left),
                    }),
                    right: Box::new(Plan::Select {
                        input: right,
                        predicate: Predicate::conjoin(pushed_right),
                    }),
                }
            };
            wrap_select(unioned, kept)
        }
        // σ_φ(π_A(R)) = π_A(σ_φ(R)): projection preserves the names and
        // the first-match resolution of every column φ can reference.
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(Plan::Select { input, predicate }),
            columns,
        },
        // Renaming changes the relation name only; column references are
        // untouched.
        Plan::Rename { input, name } => Plan::Rename {
            input: Box::new(Plan::Select { input, predicate }),
            name,
        },
        // σ and δ commute: both filter/keep whole rows.
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(Plan::Select { input, predicate }),
        },
        // σ_p(σ_q(R)) = σ_{q ∧ p}(R), then keep pushing.
        Plan::Select {
            input,
            predicate: q,
        } => push_select_into(*input, q.and(predicate), db)?,
        other => Plan::Select {
            input: Box::new(other),
            predicate,
        },
    })
}

fn wrap_select(plan: Plan, conjuncts: Vec<Predicate>) -> Plan {
    if conjuncts.is_empty() {
        plan
    } else {
        Plan::Select {
            input: Box::new(plan),
            predicate: Predicate::conjoin(conjuncts),
        }
    }
}

/// Rebuilds a join from its operands and a classified conjunct list:
/// left-only conjuncts become a selection on the left input, right-only
/// conjuncts (renamed to the right operand's local column names) a
/// selection on the right input, and the cross-side remainder the join
/// condition (an empty remainder degrades to a cross product).
fn build_join(left: Plan, right: Plan, conjuncts: Vec<Predicate>, db: &ProbDb) -> Result<Plan> {
    let ls = left.output_schema(db)?;
    let rs = right.output_schema(db)?;
    let concat = ls.concat(&rs, ls.name());
    let left_arity = ls.arity();
    let mut left_push = Vec::new();
    let mut right_push = Vec::new();
    let mut keep = Vec::new();
    for c in conjuncts {
        let c = c.simplify();
        if c == Predicate::True {
            continue;
        }
        let refs = c.referenced_columns();
        let indices: Option<Vec<usize>> =
            refs.iter().map(|n| concat.column_index(n).ok()).collect();
        let Some(indices) = indices else {
            keep.push(c);
            continue;
        };
        if indices.is_empty() {
            // Constant-only conjunct (not foldable by simplify): keep it at
            // the join, where it is evaluated like the eager path would.
            keep.push(c);
        } else if indices.iter().all(|&i| i < left_arity) {
            // The left region of the concat schema is the left schema,
            // names and order: first-match resolution is unchanged below.
            left_push.push(c);
        } else if indices.iter().all(|&i| i >= left_arity) {
            match remap_to_right_local(&c, &refs, &indices, left_arity, &rs) {
                Some(rc) => right_push.push(rc),
                None => keep.push(c),
            }
        } else {
            keep.push(c);
        }
    }
    let left = wrap_select(left, left_push);
    let right = wrap_select(right, right_push);
    Ok(match Predicate::conjoin(keep) {
        Predicate::True => Plan::Product {
            left: Box::new(left),
            right: Box::new(right),
        },
        predicate => Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate,
        },
    })
}

/// Rewrites a right-only conjunct from concat names (possibly
/// `rel.column`-qualified) to the right operand's local names, provided
/// every rewritten reference first-match-resolves to the same column.
fn remap_to_right_local(
    conjunct: &Predicate,
    refs: &[String],
    indices: &[usize],
    left_arity: usize,
    right_schema: &Schema,
) -> Option<Predicate> {
    let mut map = FxHashMap::default();
    for (name, &idx) in refs.iter().zip(indices) {
        let local = idx - left_arity;
        let local_name = right_schema.columns()[local].name.clone();
        if right_schema.column_index(&local_name).ok()? != local {
            return None;
        }
        map.insert(name.clone(), local_name);
    }
    conjunct.rename_columns(&map)
}

/// Rewrites a conjunct over a union's output schema (the left branch's)
/// into the right branch's positional column names; `None` when a
/// reference cannot be renamed resolution-stably.
fn remap_for_right_branch(
    conjunct: &Predicate,
    left_schema: &Schema,
    right_schema: &Schema,
) -> Option<Predicate> {
    let mut map = FxHashMap::default();
    for name in conjunct.referenced_columns() {
        let idx = left_schema.column_index(&name).ok()?;
        let right_name = right_schema.columns()[idx].name.clone();
        if right_schema.column_index(&right_name).ok()? != idx {
            return None;
        }
        map.insert(name, right_name);
    }
    conjunct.rename_columns(&map)
}

/// Top-down projection pushdown.
fn push_projections(plan: Plan, db: &ProbDb) -> Result<Plan> {
    let plan = match plan {
        Plan::Project { input, columns } => push_project_into(*input, columns, db)?,
        other => other,
    };
    map_children(plan, db, push_projections)
}

/// Pushes the projection onto `columns` into (or through) `input`.
fn push_project_into(input: Plan, columns: Vec<String>, db: &ProbDb) -> Result<Plan> {
    Ok(match input {
        // π_A(L ∪ R) = π_A(L) ∪ π_{A'}(R), positionally renamed.
        Plan::Union { left, right } => {
            let ls = left.output_schema(db)?;
            let rs = right.output_schema(db)?;
            let mut right_columns = Vec::with_capacity(columns.len());
            let mut stable = true;
            for c in &columns {
                let idx = ls.column_index(c)?;
                let right_name = rs.columns()[idx].name.clone();
                if rs
                    .column_index(&right_name)
                    .map(|x| x == idx)
                    .unwrap_or(false)
                {
                    right_columns.push(right_name);
                } else {
                    stable = false;
                    break;
                }
            }
            if stable {
                Plan::Union {
                    left: Box::new(Plan::Project {
                        input: left,
                        columns,
                    }),
                    right: Box::new(Plan::Project {
                        input: right,
                        columns: right_columns,
                    }),
                }
            } else {
                Plan::Project {
                    input: Box::new(Plan::Union { left, right }),
                    columns,
                }
            }
        }
        // π_A over a rename: the rename only affects the relation name.
        Plan::Rename { input, name } => Plan::Rename {
            input: Box::new(Plan::Project { input, columns }),
            name,
        },
        Plan::Join {
            left,
            right,
            predicate,
        } => push_project_into_join(*left, *right, Some(predicate), columns, db)?,
        Plan::Product { left, right } => push_project_into_join(*left, *right, None, columns, db)?,
        other => Plan::Project {
            input: Box::new(other),
            columns,
        },
    })
}

/// Narrows the inputs of a join/product to the columns referenced by the
/// outer projection and the join condition.
///
/// Column names of the concatenated schema depend on which left columns
/// exist (clashing right columns are `rel.column`-prefixed), so the left
/// kept-set is augmented with every left column whose name clashes with a
/// kept right column: this keeps every surviving concat name — and hence
/// the outer projection list and join condition — byte-identical. The
/// rewrite is skipped entirely if name or resolution stability cannot be
/// guaranteed (duplicate-name corner cases).
fn push_project_into_join(
    left: Plan,
    right: Plan,
    predicate: Option<Predicate>,
    columns: Vec<String>,
    db: &ProbDb,
) -> Result<Plan> {
    let rebuild = |left: Plan, right: Plan, predicate: Option<Predicate>, columns: Vec<String>| {
        let input = match predicate {
            Some(predicate) => Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate,
            },
            None => Plan::Product {
                left: Box::new(left),
                right: Box::new(right),
            },
        };
        Plan::Project {
            input: Box::new(input),
            columns,
        }
    };

    let ls = left.output_schema(db)?;
    let rs = right.output_schema(db)?;
    let concat = ls.concat(&rs, ls.name());
    let left_arity = ls.arity();

    // Concat indices needed by the projection and the join condition.
    let mut referenced: Vec<String> = columns.clone();
    if let Some(p) = &predicate {
        referenced.extend(p.referenced_columns());
    }
    let mut needed: BTreeSet<usize> = BTreeSet::new();
    for name in &referenced {
        needed.insert(concat.column_index(name)?);
    }
    let mut left_keep: BTreeSet<usize> =
        needed.iter().copied().filter(|&i| i < left_arity).collect();
    let right_keep: BTreeSet<usize> = needed
        .iter()
        .copied()
        .filter(|&i| i >= left_arity)
        .map(|i| i - left_arity)
        .collect();
    // Name-stability augmentation: keep any left column whose name clashes
    // with a kept right column, so the `rel.column` prefixing of the
    // narrowed concat matches the original.
    for &ri in &right_keep {
        if let Ok(li) = ls.column_index(&rs.columns()[ri].name) {
            left_keep.insert(li);
        }
    }
    if left_keep.len() == left_arity && right_keep.len() == rs.arity() {
        return Ok(rebuild(left, right, predicate, columns));
    }

    // Resolution stability of the kept columns inside their own schema.
    let stable = left_keep
        .iter()
        .all(|&i| ls.column_index(&ls.columns()[i].name).map(|x| x == i) == Ok(true))
        && right_keep
            .iter()
            .all(|&i| rs.column_index(&rs.columns()[i].name).map(|x| x == i) == Ok(true));
    if !stable {
        return Ok(rebuild(left, right, predicate, columns));
    }

    let left_columns: Vec<String> = left_keep
        .iter()
        .map(|&i| ls.columns()[i].name.clone())
        .collect();
    let right_columns: Vec<String> = right_keep
        .iter()
        .map(|&i| rs.columns()[i].name.clone())
        .collect();
    let narrowed_left = {
        let names: Vec<&str> = left_columns.iter().map(String::as_str).collect();
        ls.project(&names, ls.name())?
    };
    let narrowed_right = {
        let names: Vec<&str> = right_columns.iter().map(String::as_str).collect();
        rs.project(&names, rs.name())?
    };
    let narrowed_concat = narrowed_left.concat(&narrowed_right, narrowed_left.name());

    // Every surviving concat name must be unchanged, and every reference
    // must resolve to the same (surviving) column as before.
    let kept_concat: Vec<usize> = left_keep
        .iter()
        .copied()
        .chain(right_keep.iter().map(|&i| i + left_arity))
        .collect();
    for (pos, &old) in kept_concat.iter().enumerate() {
        if narrowed_concat.columns()[pos].name != concat.columns()[old].name {
            return Ok(rebuild(left, right, predicate, columns));
        }
    }
    for name in &referenced {
        let old = concat.column_index(name)?;
        #[expect(
            clippy::expect_used,
            reason = "`referenced` seeded the keep-sets above, so every referenced column survives into kept_concat"
        )]
        let pos = kept_concat.iter().position(|&i| i == old).expect("kept");
        if narrowed_concat.column_index(name).map(|x| x == pos) != Ok(true) {
            return Ok(rebuild(left, right, predicate, columns));
        }
    }

    Ok(rebuild(
        Plan::Project {
            input: Box::new(left),
            columns: left_columns,
        },
        Plan::Project {
            input: Box::new(right),
            columns: right_columns,
        },
        predicate,
        columns,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Comparison, Expr};
    use crate::reference::execute_plan as execute_plan_eager;
    use crate::schema::ColumnType;
    use crate::tuple::Tuple;
    use crate::value::Value;
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

    fn sorted_rows(rel: &crate::URelation) -> Vec<(Tuple, WsDescriptor)> {
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
