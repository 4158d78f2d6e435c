//! Integrity constraints and the `assert[·]` operation.
//!
//! Conditioning is most naturally driven by constraints: "social security
//! numbers are unique", "every order references an existing customer",
//! "no two co-existing readings disagree", etc. A [`Constraint`] is
//! compiled into
//!
//! 1. the ws-set of the worlds that *violate* it (a Boolean relational
//!    query, as in Example 2.3), and
//! 2. its complement — the ws-set of the worlds that *satisfy* it, obtained
//!    with the ws-set difference operation of Section 3.2 —
//!
//! and [`assert_constraint`] conditions the database on the satisfying
//! world-set using the algorithm of Section 5.
//!
//! ## The compilation pipeline
//!
//! Violation queries are built as logical [`Plan`]s
//! (`uprob_urel::violations`) and executed through [`ProbDb::query`] — the
//! rule-based optimizer plus the pipelined hash-join executor — so
//! constraint checking inherits the hash-join speedup of the plan layer
//! instead of running hand-rolled nested loops. The one exception is
//! [`Constraint::InclusionDependency`]: "some child tuple has **no**
//! matching parent" needs negation, which the positive algebra cannot
//! express, so it is checked with the same hash-bucket technique directly
//! (parent rows bucketed by key, one ws-set difference per child row).
//!
//! Constraint *sets* are asserted in a single pass: [`assert_all`] unions
//! the violation ws-sets of all constraints, complements once (one
//! difference against the universal set — by De Morgan this **is** the
//! intersection of the per-constraint satisfying sets), and conditions /
//! renormalises the ws-tree exactly once, instead of materialising an
//! intermediate posterior database per constraint.
//!
//! ## NULL semantics
//!
//! All violation queries follow the SQL comparison rule (a comparison
//! involving NULL is never satisfied). For functional dependencies and
//! keys this means: tuples with a NULL determinant value never witness a
//! violation (NULLs never match), while a dependent pair violates unless
//! it is **provably equal** — a NULL dependent value cannot certify the
//! FD, so it violates, including against a second occurrence of the same
//! tuple. The oracle compilation (`uprob_reference::query::violation_ws_set`)
//! implements the identical rules tuple-by-tuple; see
//! `uprob_urel::violations` and DESIGN.md.

use std::sync::Arc;
use uprob_wsd::FxHashMap;

use uprob_core::{
    condition, estimate_conditioned_confidence, estimate_conditioned_confidence_with_options,
    estimate_confidence, fan_out_indexed, Conditioned, ConditioningOptions, ConfidenceReport,
    ConfidenceStrategy, CoreError, DecompositionOptions, ParallelOptions, SharedDecompositionCache,
};
use uprob_urel::{
    denial_constraint_plan, fd_violation_plan, row_filter_violation_plan, Plan, Predicate, ProbDb,
    Schema, Tuple, URelation, UrelError, Value,
};
use uprob_wsd::{diff_descriptor_set, WorldTable, WsDescriptor, WsSet};

use crate::error::QueryError;
use crate::Result;

/// An integrity constraint over a probabilistic database.
#[derive(Clone, Debug, PartialEq)]
pub enum Constraint {
    /// A functional dependency `determinant → dependent`: no two co-existing
    /// tuples may agree on the determinant columns and disagree on a
    /// dependent column.
    FunctionalDependency {
        /// The constrained relation.
        relation: String,
        /// Left-hand-side columns.
        determinant: Vec<String>,
        /// Right-hand-side columns.
        dependent: Vec<String>,
    },
    /// A key constraint: the key columns functionally determine all other
    /// columns of the relation.
    Key {
        /// The constrained relation.
        relation: String,
        /// Key columns.
        columns: Vec<String>,
    },
    /// A row-level predicate that every tuple must satisfy in every world
    /// (worlds containing a violating tuple are removed).
    RowFilter {
        /// The constrained relation.
        relation: String,
        /// The predicate every tuple must satisfy.
        predicate: Predicate,
    },
    /// An inclusion dependency (foreign key):
    /// `child[child_columns] ⊆ parent[parent_columns]` — in every world,
    /// every child tuple's key must appear among the co-existing parent
    /// tuples. A child key containing NULL satisfies the dependency
    /// (SQL's `MATCH SIMPLE` rule), and parent keys containing NULL never
    /// match anything.
    InclusionDependency {
        /// The referencing (child) relation.
        child: String,
        /// The referencing columns, in order.
        child_columns: Vec<String>,
        /// The referenced (parent) relation.
        parent: String,
        /// The referenced columns, in order (same arity and types as
        /// `child_columns`).
        parent_columns: Vec<String>,
    },
    /// A denial constraint: a cross-relation conjunctive query (atoms
    /// joined by `condition`) whose non-emptiness marks a violating
    /// world. Column references in `condition` follow the join
    /// concatenation convention: unique columns keep their plain names,
    /// clashing ones are `"<alias>.<column>"`.
    DenialConstraint {
        /// A short name used in error messages and reports.
        name: String,
        /// The atoms: `(relation, alias)`, scanned and renamed in order.
        atoms: Vec<(String, String)>,
        /// The violation condition over the concatenated schema.
        condition: Predicate,
    },
    /// An arbitrary Boolean violation query: any plan projecting to the
    /// nullary schema. A world violates the constraint iff the plan's
    /// answer is non-empty there.
    PlanConstraint {
        /// A short name used in error messages and reports.
        name: String,
        /// The violation plan (must have arity 0).
        plan: Plan,
    },
}

impl Constraint {
    /// Convenience constructor for a functional dependency.
    pub fn functional_dependency(relation: &str, determinant: &[&str], dependent: &[&str]) -> Self {
        Constraint::FunctionalDependency {
            relation: relation.to_string(),
            determinant: determinant.iter().map(|s| s.to_string()).collect(),
            dependent: dependent.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Convenience constructor for a key constraint.
    pub fn key(relation: &str, columns: &[&str]) -> Self {
        Constraint::Key {
            relation: relation.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Convenience constructor for a row-level predicate constraint.
    pub fn row_filter(relation: &str, predicate: Predicate) -> Self {
        Constraint::RowFilter {
            relation: relation.to_string(),
            predicate,
        }
    }

    /// Convenience constructor for an inclusion dependency (foreign key).
    pub fn inclusion_dependency(
        child: &str,
        child_columns: &[&str],
        parent: &str,
        parent_columns: &[&str],
    ) -> Self {
        Constraint::InclusionDependency {
            child: child.to_string(),
            child_columns: child_columns.iter().map(|s| s.to_string()).collect(),
            parent: parent.to_string(),
            parent_columns: parent_columns.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Convenience constructor for a denial constraint.
    pub fn denial(name: &str, atoms: &[(&str, &str)], condition: Predicate) -> Self {
        Constraint::DenialConstraint {
            name: name.to_string(),
            atoms: atoms
                .iter()
                .map(|(r, a)| (r.to_string(), a.to_string()))
                .collect(),
            condition,
        }
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Constraint::FunctionalDependency {
                relation,
                determinant,
                dependent,
            } => format!(
                "{relation}: {} -> {}",
                determinant.join(", "),
                dependent.join(", ")
            ),
            Constraint::Key { relation, columns } => {
                format!("{relation}: key({})", columns.join(", "))
            }
            Constraint::RowFilter {
                relation,
                predicate,
            } => {
                format!("{relation}: check({predicate})")
            }
            Constraint::InclusionDependency {
                child,
                child_columns,
                parent,
                parent_columns,
            } => format!(
                "{child}({}) in {parent}({})",
                child_columns.join(", "),
                parent_columns.join(", ")
            ),
            Constraint::DenialConstraint { name, .. } => format!("denial({name})"),
            Constraint::PlanConstraint { name, .. } => format!("plan({name})"),
        }
    }

    /// The relations this constraint reads, in first-use order.
    pub fn relations(&self) -> Vec<&str> {
        match self {
            Constraint::FunctionalDependency { relation, .. }
            | Constraint::Key { relation, .. }
            | Constraint::RowFilter { relation, .. } => vec![relation],
            Constraint::InclusionDependency { child, parent, .. } => {
                if child == parent {
                    vec![child]
                } else {
                    vec![child, parent]
                }
            }
            Constraint::DenialConstraint { atoms, .. } => {
                let mut out: Vec<&str> = Vec::new();
                for (relation, _) in atoms {
                    if !out.contains(&relation.as_str()) {
                        out.push(relation);
                    }
                }
                out
            }
            Constraint::PlanConstraint { plan, .. } => plan.scanned_relations(),
        }
    }

    /// Statically validates the constraint against `db`: referenced
    /// relations and columns must exist, column lists must be non-empty
    /// and duplicate-free, inclusion dependencies must pair columns of
    /// equal arity and type, denial-constraint aliases must be unique and
    /// their condition must type-check, and a plan constraint's violation
    /// plan must be a Boolean (nullary-projection) query.
    ///
    /// Every assert entry point and every violation compilation runs this
    /// first, so a malformed constraint fails here — with an error naming
    /// the offending column — instead of deep inside plan execution.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownColumn`] for missing columns,
    /// [`QueryError::InvalidConstraint`] for structural problems,
    /// [`QueryError::Urel`] for unknown relations and predicate type
    /// errors.
    pub fn validate(&self, db: &ProbDb) -> Result<()> {
        let invalid = |reason: String| QueryError::InvalidConstraint {
            constraint: self.describe(),
            reason,
        };
        match self {
            Constraint::FunctionalDependency {
                relation,
                determinant,
                dependent,
            } => {
                let schema = db.relation(relation)?.schema();
                check_columns(self, relation, schema, determinant, "determinant")?;
                check_columns(self, relation, schema, dependent, "dependent")?;
                Ok(())
            }
            Constraint::Key { relation, columns } => {
                let schema = db.relation(relation)?.schema();
                check_columns(self, relation, schema, columns, "key")
            }
            Constraint::RowFilter {
                relation,
                predicate,
            } => {
                let schema = db.relation(relation)?.schema();
                predicate
                    .validate(schema)
                    .map_err(|e| lift_column_error(e, relation))
            }
            Constraint::InclusionDependency {
                child,
                child_columns,
                parent,
                parent_columns,
            } => {
                let child_schema = db.relation(child)?.schema().clone();
                let parent_schema = db.relation(parent)?.schema();
                check_columns(self, child, &child_schema, child_columns, "child")?;
                check_columns(self, parent, parent_schema, parent_columns, "parent")?;
                if child_columns.len() != parent_columns.len() {
                    return Err(invalid(format!(
                        "column lists have different arity ({} vs {})",
                        child_columns.len(),
                        parent_columns.len()
                    )));
                }
                for (c, p) in child_columns.iter().zip(parent_columns) {
                    let ct = column_type(&child_schema, c);
                    let pt = column_type(parent_schema, p);
                    if ct != pt {
                        return Err(invalid(format!(
                            "column '{c}' has type {ct} but referenced column '{p}' has type {pt}"
                        )));
                    }
                }
                Ok(())
            }
            Constraint::DenialConstraint {
                atoms, condition, ..
            } => {
                if atoms.is_empty() {
                    return Err(invalid(
                        "a denial constraint needs at least one atom".into(),
                    ));
                }
                let mut seen: Vec<&str> = Vec::new();
                for (relation, alias) in atoms {
                    db.relation(relation)?;
                    if alias.is_empty() {
                        return Err(invalid(format!(
                            "atom over '{relation}' has an empty alias"
                        )));
                    }
                    if seen.contains(&alias.as_str()) {
                        return Err(invalid(format!("duplicate atom alias '{alias}'")));
                    }
                    seen.push(alias);
                }
                // Type-check the condition against the concatenated schema
                // the violation plan will produce.
                let plan = denial_constraint_plan(atoms, condition);
                plan.output_schema(db).map_err(QueryError::Urel)?;
                Ok(())
            }
            Constraint::PlanConstraint { plan, .. } => {
                let schema = plan.output_schema(db).map_err(QueryError::Urel)?;
                if schema.arity() != 0 {
                    return Err(invalid(format!(
                        "violation plan must project to the nullary (Boolean) schema, \
                         but has arity {}",
                        schema.arity()
                    )));
                }
                Ok(())
            }
        }
    }

    /// The violation query as a logical [`Plan`], when the constraint is
    /// expressible in the positive algebra: every variant except
    /// [`Constraint::InclusionDependency`], whose "no matching parent
    /// exists" needs negation and is checked with the hash-bucket
    /// difference instead (see the module docs).
    ///
    /// # Errors
    ///
    /// Fails when the constraint does not pass [`Constraint::validate`]
    /// against `db` (the plan for a key constraint also needs the
    /// relation's schema to enumerate the dependent columns).
    pub fn violation_plan(&self, db: &ProbDb) -> Result<Option<Plan>> {
        self.validate(db)?;
        self.violation_plan_unchecked(db)
    }

    /// [`Constraint::violation_plan`] for a constraint that already passed
    /// [`Constraint::validate`] against `db`: builds the plan without
    /// validating (and, for a denial constraint, type-checking it) again.
    fn violation_plan_unchecked(&self, db: &ProbDb) -> Result<Option<Plan>> {
        match self {
            Constraint::FunctionalDependency {
                relation,
                determinant,
                dependent,
            } => Ok(Some(fd_violation_plan(relation, determinant, dependent))),
            Constraint::Key { relation, columns } => {
                let rel = db.relation(relation)?;
                let dependent: Vec<String> = rel
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .filter(|name| !columns.contains(name))
                    .collect();
                Ok(Some(fd_violation_plan(relation, columns, &dependent)))
            }
            Constraint::RowFilter {
                relation,
                predicate,
            } => Ok(Some(row_filter_violation_plan(relation, predicate))),
            Constraint::InclusionDependency { .. } => Ok(None),
            Constraint::DenialConstraint {
                atoms, condition, ..
            } => Ok(Some(denial_constraint_plan(atoms, condition))),
            Constraint::PlanConstraint { plan, .. } => Ok(Some(plan.clone())),
        }
    }

    /// The ws-set of the worlds that **violate** the constraint (the result
    /// of the Boolean violation query, cf. Example 2.3), normalised.
    ///
    /// Runs through [`ProbDb::query`] — rule-based optimization plus the
    /// pipelined hash-join executor — except for inclusion dependencies
    /// (hash-bucket difference; see the module docs).
    ///
    /// # Errors
    ///
    /// Fails if the constraint does not validate against `db`.
    pub fn violation_ws_set(&self, db: &ProbDb) -> Result<WsSet> {
        self.validate(db)?;
        self.compile_violations(db)
    }

    /// [`Constraint::violation_ws_set`] for a constraint that already
    /// passed [`Constraint::validate`] against `db`.
    fn compile_violations(&self, db: &ProbDb) -> Result<WsSet> {
        match self.violation_plan_unchecked(db)? {
            Some(plan) => {
                let answer = db.query(&plan)?;
                Ok(answer.answer_ws_set().normalized())
            }
            None => {
                #[expect(
                    clippy::unreachable,
                    reason = "the enclosing match arm already excludes every other constraint kind"
                )]
                let Constraint::InclusionDependency {
                    child,
                    child_columns,
                    parent,
                    parent_columns,
                } = self
                else {
                    unreachable!("only inclusion dependencies have no violation plan");
                };
                ind_violations(db, child, child_columns, parent, parent_columns)
            }
        }
    }

    /// The ws-set of the worlds that **satisfy** the constraint: the
    /// complement of the violation ws-set, computed with the ws-set
    /// difference operation (Section 3.2) and normalised.
    ///
    /// # Errors
    ///
    /// Fails if the constraint does not validate against `db`.
    pub fn satisfying_ws_set(&self, db: &ProbDb) -> Result<WsSet> {
        satisfying_world_set(
            db,
            std::slice::from_ref(self),
            &ParallelOptions::sequential(),
            None,
        )
    }
}

fn column_type(schema: &Schema, column: &str) -> uprob_urel::ColumnType {
    #[expect(
        clippy::expect_used,
        reason = "`check_columns` resolved the column against this schema just before"
    )]
    let idx = schema
        .column_index(column)
        .expect("column checked by validate");
    #[expect(
        clippy::indexing_slicing,
        reason = "idx was just resolved by `column_index` on the same schema"
    )]
    schema.columns()[idx].column_type
}

/// Column-list validation shared by FD/Key/IND: non-empty, duplicate-free,
/// every column present in the schema.
fn check_columns(
    constraint: &Constraint,
    relation: &str,
    schema: &Schema,
    columns: &[String],
    role: &str,
) -> Result<()> {
    if columns.is_empty() {
        return Err(QueryError::InvalidConstraint {
            constraint: constraint.describe(),
            reason: format!("empty {role} column list"),
        });
    }
    for (i, column) in columns.iter().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "`i` comes from enumerate() over `columns`"
        )]
        if columns[..i].contains(column) {
            return Err(QueryError::InvalidConstraint {
                constraint: constraint.describe(),
                reason: format!("duplicate {role} column '{column}'"),
            });
        }
        if schema.column_index(column).is_err() {
            return Err(QueryError::UnknownColumn {
                relation: relation.to_string(),
                column: column.clone(),
            });
        }
    }
    Ok(())
}

/// Re-targets a predicate-validation error so missing columns surface as
/// [`QueryError::UnknownColumn`] naming the constrained relation.
fn lift_column_error(e: UrelError, relation: &str) -> QueryError {
    match e {
        UrelError::UnknownColumn { column, .. } => QueryError::UnknownColumn {
            relation: relation.to_string(),
            column,
        },
        other => QueryError::Urel(other),
    }
}

/// Resolves a list of column names to positions.
#[expect(
    clippy::expect_used,
    reason = "only called on constraints that passed `validate`, which resolved every column name"
)]
pub(crate) fn resolve_columns(schema: &Schema, columns: &[String]) -> Vec<usize> {
    columns
        .iter()
        .map(|c| schema.column_index(c).expect("columns checked by validate"))
        .collect()
}

/// The key values of `tuple` at `positions`; `None` if any is NULL.
#[expect(
    clippy::expect_used,
    reason = "positions come from `resolve_columns` on the tuple's own schema"
)]
pub(crate) fn non_null_key(tuple: &Tuple, positions: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(positions.len());
    for &p in positions {
        let v = tuple.get(p).expect("validated column position");
        if v.is_null() {
            return None;
        }
        key.push(v.clone());
    }
    Some(key)
}

/// Worlds in which some child tuple co-exists with **no** matching parent
/// tuple: parent rows are bucketed by key (as the pipelined hash join
/// would) and probed in row order, one ws-set difference per child row.
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
    let table = db.world_table();

    // Build side: parent descriptors bucketed by (fully non-NULL) key.
    let mut buckets: FxHashMap<Vec<Value>, Vec<WsDescriptor>> = FxHashMap::default();
    for (tuple, descriptor) in parent_rel.iter() {
        if let Some(key) = non_null_key(tuple, &p_idx) {
            buckets.entry(key).or_default().push(descriptor.clone());
        }
    }

    let mut violations = WsSet::empty();
    for (tuple, descriptor) in child_rel.iter() {
        // SQL MATCH SIMPLE: a child key containing NULL satisfies the FK.
        let Some(key) = non_null_key(tuple, &c_idx) else {
            continue;
        };
        let matches = buckets.get(&key).map_or(&[][..], Vec::as_slice);
        // The worlds where the child exists and no matching parent does:
        // ω({d}) − ω({e_1, …, e_k}) (Section 3.2).
        for d in diff_descriptor_set(descriptor, matches, table) {
            violations.push(d);
        }
    }
    violations.normalize();
    Ok(violations)
}

/// The one body behind every `assert[·]` form: validates every constraint,
/// obtains each violation ws-set — from `memo` when its inputs are provably
/// unchanged (see [`ViolationMemo`]), otherwise compiled through the
/// optimized path, the stale ones fanned out over the workers of
/// `parallel` — unions them **in constraint order**, normalizes, and
/// complements **once**: by De Morgan the result is the intersection of the
/// per-constraint satisfying ws-sets — the world-set of the conjunction —
/// at the cost of a single ws-set difference. Worker count and memo reuse
/// only decide *where* a violation set comes from, never its content, so
/// the returned set is bit-identical across all of them.
///
/// On return `memo` (if any) holds the sets of this call, keyed to the
/// current world table and relation stamps, ready for the next delta.
fn satisfying_world_set(
    db: &ProbDb,
    constraints: &[Constraint],
    parallel: &ParallelOptions,
    mut memo: Option<&mut ViolationMemo>,
) -> Result<WsSet> {
    // Validate every constraint up front — memo hits must fail exactly the
    // way a compilation would.
    for constraint in constraints {
        constraint.validate(db)?;
    }
    let mut sets: Vec<Option<WsSet>> = vec![None; constraints.len()];
    let mut stamps: Vec<Vec<u64>> = Vec::new();
    if let Some(memo) = memo.as_deref_mut() {
        memo.invalidate_unless_extended_by(db.world_table());
        for (constraint, slot) in constraints.iter().zip(&mut sets) {
            let relation_stamps = constraint_relation_stamps(db, constraint)?;
            *slot = memo.lookup(constraint, &relation_stamps).cloned();
            stamps.push(relation_stamps);
        }
        let reused = sets.iter().flatten().count();
        memo.reused += reused as u64;
        memo.recomputed += (sets.len() - reused) as u64;
    }
    let stale: Vec<&Constraint> = constraints
        .iter()
        .zip(&sets)
        .filter_map(|(constraint, set)| set.is_none().then_some(constraint))
        .collect();
    let compiled = fan_out_indexed(stale.len(), parallel.workers(), |k| {
        #[expect(
            clippy::indexing_slicing,
            reason = "fan_out_indexed yields indices below stale.len()"
        )]
        stale[k].compile_violations(db)
    });
    for (slot, result) in sets.iter_mut().filter(|set| set.is_none()).zip(compiled) {
        *slot = Some(result?);
    }

    let mut violations = WsSet::empty();
    for set in sets.iter().flatten() {
        violations = violations.union(set);
    }
    violations.normalize();
    let mut satisfying = WsSet::universal().difference(&violations, db.world_table());
    satisfying.normalize();

    // Refresh the memo to this database before conditioning (conditioning
    // errors do not endanger soundness: the memoized sets are valid for
    // this db regardless).
    if let Some(memo) = memo {
        memo.table = Some(db.world_table().clone());
        memo.entries = constraints
            .iter()
            .zip(stamps)
            .zip(sets.into_iter().flatten())
            .map(
                |((constraint, relation_stamps), violations)| MemoizedViolations {
                    constraint: constraint.clone(),
                    relation_stamps,
                    violations,
                },
            )
            .collect();
    }
    Ok(satisfying)
}

/// One human-readable description for a constraint set.
fn describe_all(constraints: &[Constraint]) -> String {
    constraints
        .iter()
        .map(Constraint::describe)
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Conditions `db` on a precomputed satisfying world-set, mapping the
/// empty / zero-probability cases to the typed unsatisfiable error.
fn condition_on_satisfying(
    db: &ProbDb,
    satisfying: &WsSet,
    options: &ConditioningOptions,
    describe: impl Fn() -> String,
) -> Result<Conditioned> {
    if satisfying.is_empty() {
        return Err(QueryError::UnsatisfiableConstraint {
            constraint: describe(),
        });
    }
    condition(db, satisfying, options).map_err(|e| match e {
        CoreError::EmptyCondition => QueryError::UnsatisfiableConstraint {
            constraint: describe(),
        },
        other => QueryError::Core(other),
    })
}

/// `assert[constraint]`: conditions `db` on the worlds satisfying the
/// constraint (Section 5) and returns the posterior database together with
/// the prior confidence of the constraint — the paper-level short form of
/// the one-element [`assert_all`].
///
/// # Errors
///
/// * [`QueryError::UnsatisfiableConstraint`] if no world satisfies the
///   constraint (including the zero-probability case);
/// * validation errors of [`Constraint::validate`];
/// * any error of the underlying conditioning algorithm.
pub fn assert_constraint(
    db: &ProbDb,
    constraint: &Constraint,
    options: &ConditioningOptions,
) -> Result<Conditioned> {
    assert_all(db, std::slice::from_ref(constraint), options)
}

/// `assert[c_1 ∧ … ∧ c_n]` in a **single pass**: every constraint's
/// violation query is compiled through the optimized planned executor, the
/// violation ws-sets are unioned and complemented once (the intersection
/// of the satisfying ws-sets, by De Morgan), and the ws-tree is
/// conditioned and renormalised exactly once. The returned confidence is
/// the probability that *all* constraints hold in the prior database.
///
/// Asserts commute and compose (Theorem 5.5), so the posterior is the
/// same distribution the sequential [`assert_constraint`] fold produces —
/// without materialising an intermediate database per constraint. The
/// empty slice conditions on the universal world-set (the identity). This
/// is [`assert_all_delta`] on one worker without a memo.
///
/// # Errors
///
/// * [`QueryError::UnsatisfiableConstraint`] if the constraints are
///   (mutually) unsatisfiable — no world, or a zero-probability world-set,
///   satisfies them all;
/// * validation errors of [`Constraint::validate`];
/// * any error of the underlying conditioning algorithm.
pub fn assert_all(
    db: &ProbDb,
    constraints: &[Constraint],
    options: &ConditioningOptions,
) -> Result<Conditioned> {
    assert_all_in(
        db,
        constraints,
        options,
        &ParallelOptions::sequential(),
        None,
    )
}

/// The exact `assert[·]` every public form (and the service's publishes)
/// reaches: the combined satisfying world-set, then one conditioning pass —
/// the sequential ws-tree rewrite.
pub(crate) fn assert_all_in(
    db: &ProbDb,
    constraints: &[Constraint],
    options: &ConditioningOptions,
    parallel: &ParallelOptions,
    memo: Option<&mut ViolationMemo>,
) -> Result<Conditioned> {
    let satisfying = satisfying_world_set(db, constraints, parallel, memo)?;
    condition_on_satisfying(db, &satisfying, options, || describe_all(constraints))
}

/// One memoized per-constraint violation ws-set with the evidence that
/// proves it is still current: the content stamps of every relation the
/// constraint reads, recorded when the set was computed.
#[derive(Clone, Debug)]
struct MemoizedViolations {
    constraint: Constraint,
    relation_stamps: Vec<u64>,
    violations: WsSet,
}

/// Cross-publish memo of per-constraint violation ws-sets, the state behind
/// [`assert_all_delta`].
///
/// Reuse is stamp-proved, never heuristic: a memoized set is reused only
/// when (i) the current world table [`extends`](WorldTable::extends) the
/// memoized one append-only (existing variables keep their ids, domains and
/// distributions bit-for-bit — violation compilation never reads anything
/// else of the table), and (ii) every relation the constraint reads has an
/// unchanged content stamp (equal [`URelation::stamp`]s imply identical
/// rows). Under those two facts the recomputed set would be syntactically
/// identical, so reuse is bit-exact by construction — the differential
/// suite (`tests/delta_equivalence.rs`) checks the end-to-end posterior
/// against a full [`assert_all`] rebuild anyway.
///
/// [`URelation::stamp`]: uprob_urel::URelation::stamp
#[derive(Clone, Debug, Default)]
pub struct ViolationMemo {
    /// The world table the memoized sets were computed against.
    table: Option<WorldTable>,
    entries: Vec<MemoizedViolations>,
    reused: u64,
    recomputed: u64,
    invalidated: u64,
}

impl ViolationMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        ViolationMemo::default()
    }

    /// Number of memoized per-constraint sets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every memoized set (the next [`assert_all_delta`] recomputes
    /// from scratch, exactly like [`assert_all`]).
    pub fn clear(&mut self) {
        self.invalidated += self.entries.len() as u64;
        self.entries.clear();
        self.table = None;
    }

    /// Lifetime count of constraint sets served from the memo.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Lifetime count of constraint sets recomputed.
    pub fn recomputed(&self) -> u64 {
        self.recomputed
    }

    /// Lifetime count of entries dropped by invalidation (world-table
    /// replacement or explicit [`ViolationMemo::clear`]).
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// Drops every memoized set unless `table` extends the memoized world
    /// table: a replaced (non-extending) table may have changed the meaning
    /// of variable ids or distributions.
    fn invalidate_unless_extended_by(&mut self, table: &WorldTable) {
        let world_ok = self
            .table
            .as_ref()
            .is_some_and(|memoized| table.extends(memoized));
        if !world_ok && !self.entries.is_empty() {
            self.invalidated += self.entries.len() as u64;
            self.entries.clear();
        }
    }

    /// The memoized set for `constraint` under the given current relation
    /// stamps, if still valid.
    fn lookup(&self, constraint: &Constraint, stamps: &[u64]) -> Option<&WsSet> {
        self.entries
            .iter()
            .find(|e| e.constraint == *constraint && e.relation_stamps == stamps)
            .map(|e| &e.violations)
    }
}

/// The current content stamps of every relation `constraint` reads.
fn constraint_relation_stamps(db: &ProbDb, constraint: &Constraint) -> Result<Vec<u64>> {
    constraint
        .relations()
        .into_iter()
        .map(|name| Ok(db.relation(name)?.stamp()))
        .collect()
}

/// The general exact `assert[·]`: [`assert_all`] with explicit
/// [`ParallelOptions`] and **delta conditioning**. Per-constraint violation
/// ws-sets are served from `memo` when their inputs are provably unchanged
/// (see [`ViolationMemo`]) and recompiled — each a full plan compilation
/// and execution, fanned out over the workers — only for constraints
/// reading touched relations; a fresh memo recompiles everything. The
/// union (in constraint order) / complement / conditioning pipeline is the
/// one [`assert_all`] runs, so the posterior database, confidence and
/// statistics are **bit-identical** to [`assert_all`] at every worker count
/// and every memo state; only the violation-query work is saved. The
/// conditioning pass itself is the sequential ws-tree rewrite.
///
/// On return the memo holds the (validated) sets of this call, keyed to the
/// current world table and relation stamps, ready for the next delta.
///
/// # Errors
///
/// Same as [`assert_all`].
pub fn assert_all_delta(
    db: &ProbDb,
    constraints: &[Constraint],
    options: &ConditioningOptions,
    parallel: &ParallelOptions,
    memo: &mut ViolationMemo,
) -> Result<Conditioned> {
    assert_all_in(db, constraints, options, parallel, Some(memo))
}

/// The outcome of a strategy-driven `assert[·]`.
#[derive(Clone, Debug)]
pub enum Assertion {
    /// Exact conditioning completed (within budget, if any): the posterior
    /// database was materialised as usual.
    Materialized(Conditioned),
    /// Exact conditioning exhausted its budget (or sampling was requested
    /// outright): the posterior exists only *virtually*, as the prior
    /// database plus the satisfying world-set, and posterior confidences
    /// are answered by conditioned estimation.
    Estimated(EstimatedAssertion),
}

impl Assertion {
    /// The confidence of the constraint in the prior database (exact for
    /// [`Assertion::Materialized`], an (ε, δ) estimate otherwise).
    pub fn confidence(&self) -> f64 {
        match self {
            Assertion::Materialized(c) => c.confidence,
            Assertion::Estimated(e) => e.confidence.probability,
        }
    }
}

/// A *virtual* posterior: the satisfying world-set `C` of an asserted
/// constraint (or constraint set) over the prior database, with posterior
/// confidences computed as conditioned confidences `P(Q ∧ C) / P(C)`
/// through the hybrid engine instead of rewriting the database.
///
/// Queries are run against the **prior** database (whose world table is
/// unchanged); only the confidence aggregation differs. One shared
/// decomposition cache lives for the lifetime of the assertion: the exact
/// folds of the assertion itself and of every posterior confidence query
/// reuse each other's sub-decompositions — in particular the (common)
/// condition denominator `P(C)` is solved once, ever.
#[derive(Clone, Debug)]
pub struct EstimatedAssertion {
    /// The ws-set of the worlds satisfying the constraint.
    pub condition: WsSet,
    /// The (estimated) prior confidence `P(C)` of the constraint.
    pub confidence: ConfidenceReport,
    /// The decomposition options of exact attempts.
    decomposition: DecompositionOptions,
    /// The strategy used for posterior confidence queries.
    strategy: ConfidenceStrategy,
    /// The decomposition cache shared by the assertion and all posterior
    /// confidence queries.
    cache: Arc<SharedDecompositionCache>,
}

impl EstimatedAssertion {
    /// Posterior tuple confidences of a query answer over the prior
    /// database: for every distinct tuple `t` with ws-set `Q_t`, the
    /// conditioned confidence `P(Q_t | C)`, with per-tuple deterministic
    /// seed streams and the workers of `parallel` placed as in
    /// [`crate::confidence::answer_confidences_with_options`] (wide answers
    /// fan the tuples out, narrow ones parallelize inside each exact fold),
    /// so every value is bit-identical at every worker count. The
    /// assertion's shared decomposition cache serves the whole batch, so
    /// the exact fold of the (shared) condition denominator — and any
    /// recurring sub-set — is solved once, not once per tuple.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (an `Exact` strategy propagates budget
    /// aborts; sampling strategies propagate invalid parameters).
    pub fn tuple_confidences(
        &self,
        answer: &URelation,
        table: &WorldTable,
        parallel: &ParallelOptions,
    ) -> Result<Vec<(Tuple, ConfidenceReport)>> {
        let groups = answer.distinct_tuples();
        let reports =
            crate::confidence::fan_out_over_groups(&groups, parallel, |index, ws_set, inner| {
                estimate_conditioned_confidence_with_options(
                    ws_set,
                    &self.condition,
                    table,
                    &self.decomposition,
                    &self.strategy.for_stream(index as u64 + 1),
                    Some(&self.cache),
                    inner,
                )
            })?;
        Ok(groups
            .into_iter()
            .map(|(tuple, _)| tuple)
            .zip(reports)
            .collect())
    }

    /// Posterior Boolean confidence of a query answer (the probability that
    /// the answer is non-empty *given the constraint*).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn boolean_confidence(
        &self,
        answer: &URelation,
        table: &WorldTable,
    ) -> Result<ConfidenceReport> {
        estimate_conditioned_confidence(
            &answer.answer_ws_set(),
            &self.condition,
            table,
            &self.decomposition,
            &self.strategy.for_stream(0),
            Some(&self.cache),
        )
        .map_err(QueryError::Core)
    }
}

/// [`assert_all`] under an explicit [`ConfidenceStrategy`]: the single
/// combined satisfying world-set (one union of violation ws-sets, one
/// complement) drives one strategy-dispatched assertion —
///
/// * `Exact` — materialise the posterior in a single conditioning pass,
///   exactly as [`assert_all`] (the conditioning options' own budget
///   applies);
/// * `Hybrid { budget, .. }` — attempt exact conditioning under `budget`
///   nodes; on [`CoreError::BudgetExceeded`], estimate
///   `P(C_1 ∧ … ∧ C_n)` by sampling and return a *virtual* posterior
///   ([`Assertion::Estimated`]) whose confidence queries run through
///   conditioned estimation;
/// * `Approximate` — skip materialisation outright and return the virtual
///   posterior.
///
/// The estimated paths share one decomposition cache between the assertion
/// itself and every posterior confidence query. For a single constraint
/// pass `std::slice::from_ref(&constraint)`.
///
/// # Errors
///
/// Same as [`assert_all`]; a zero-probability satisfying set is reported
/// as [`QueryError::UnsatisfiableConstraint`] on both paths.
pub fn assert_all_with_strategy(
    db: &ProbDb,
    constraints: &[Constraint],
    options: &ConditioningOptions,
    strategy: &ConfidenceStrategy,
) -> Result<Assertion> {
    let satisfying = satisfying_world_set(db, constraints, &ParallelOptions::sequential(), None)?;
    let unsatisfiable = || QueryError::UnsatisfiableConstraint {
        constraint: describe_all(constraints),
    };
    if satisfying.is_empty() {
        return Err(unsatisfiable());
    }
    let decomposition = DecompositionOptions {
        heuristic: options.heuristic,
        node_budget: options.node_budget,
        ..DecompositionOptions::default()
    };
    let cache = Arc::new(SharedDecompositionCache::new());
    let estimated = |satisfying: WsSet| -> Result<Assertion> {
        let confidence = estimate_confidence(
            &satisfying,
            db.world_table(),
            &decomposition,
            strategy,
            Some(&cache),
        )
        .map_err(QueryError::Core)?;
        if confidence.probability <= 0.0 || confidence.probability.is_nan() {
            return Err(unsatisfiable());
        }
        Ok(Assertion::Estimated(EstimatedAssertion {
            condition: satisfying,
            confidence,
            decomposition,
            strategy: *strategy,
            cache: Arc::clone(&cache),
        }))
    };
    match strategy {
        ConfidenceStrategy::Exact => {
            condition_on_satisfying(db, &satisfying, options, || describe_all(constraints))
                .map(Assertion::Materialized)
        }
        ConfidenceStrategy::Approximate(_) => estimated(satisfying),
        ConfidenceStrategy::Hybrid { budget, .. } => {
            let budgeted = ConditioningOptions {
                node_budget: Some(*budget),
                ..*options
            };
            match condition(db, &satisfying, &budgeted) {
                Ok(conditioned) => Ok(Assertion::Materialized(conditioned)),
                Err(CoreError::BudgetExceeded { .. }) => estimated(satisfying),
                Err(CoreError::EmptyCondition) => Err(unsatisfiable()),
                Err(other) => Err(QueryError::Core(other)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::{certain_tuples, tuple_confidences};
    use uprob_core::DecompositionOptions;
    use uprob_urel::{ColumnType, Comparison, Expr, Schema, Tuple, Value};
    use uprob_wsd::WsDescriptor;

    /// The SSN database of Figure 2, optionally extended with Fred
    /// (SSN 1 or 4 with equal probability), as in the introduction.
    fn ssn_db(with_fred: bool) -> ProbDb {
        let mut db = ProbDb::new();
        let j = db
            .world_table_mut()
            .add_variable("j", &[(1, 0.2), (7, 0.8)])
            .unwrap();
        let b = db
            .world_table_mut()
            .add_variable("b", &[(4, 0.3), (7, 0.7)])
            .unwrap();
        let f = if with_fred {
            Some(
                db.world_table_mut()
                    .add_variable("f", &[(1, 0.5), (4, 0.5)])
                    .unwrap(),
            )
        } else {
            None
        };
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
            if let Some(f) = f {
                r.push(
                    Tuple::new(vec![Value::Int(1), Value::str("Fred")]),
                    WsDescriptor::from_pairs(w, &[(f, 1)]).unwrap(),
                );
                r.push(
                    Tuple::new(vec![Value::Int(4), Value::str("Fred")]),
                    WsDescriptor::from_pairs(w, &[(f, 4)]).unwrap(),
                );
            }
        }
        db.insert_relation(r).unwrap();
        db
    }

    /// A two-relation parent/child database for FK constraints: parents
    /// `P(K)` with keys 1, 2; children `C(FK)` referencing 1 (valid where
    /// the parent exists), 9 (dangling) and NULL.
    fn fk_db() -> ProbDb {
        let mut db = ProbDb::new();
        let p1 = db.world_table_mut().add_boolean("p1", 0.5).unwrap();
        let p2 = db.world_table_mut().add_boolean("p2", 0.5).unwrap();
        let c1 = db.world_table_mut().add_boolean("c1", 0.5).unwrap();
        let c2 = db.world_table_mut().add_boolean("c2", 0.5).unwrap();
        let c3 = db.world_table_mut().add_boolean("c3", 0.5).unwrap();
        let mut parent = db
            .create_relation(Schema::new("P", &[("K", ColumnType::Int)]))
            .unwrap();
        let mut child = db
            .create_relation(Schema::new("C", &[("FK", ColumnType::Int)]))
            .unwrap();
        {
            let w = db.world_table();
            parent.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(p1, 1)]).unwrap(),
            );
            parent.push(
                Tuple::new(vec![Value::Int(2)]),
                WsDescriptor::from_pairs(w, &[(p2, 1)]).unwrap(),
            );
            child.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(c1, 1)]).unwrap(),
            );
            child.push(
                Tuple::new(vec![Value::Int(9)]),
                WsDescriptor::from_pairs(w, &[(c2, 1)]).unwrap(),
            );
            child.push(
                Tuple::new(vec![Value::Null]),
                WsDescriptor::from_pairs(w, &[(c3, 1)]).unwrap(),
            );
        }
        db.insert_relation(parent).unwrap();
        db.insert_relation(child).unwrap();
        db
    }

    #[test]
    fn asserting_the_fd_gives_the_conditional_probabilities() {
        let db = ssn_db(false);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let conditioned = assert_constraint(&db, &fd, &ConditioningOptions::default()).unwrap();
        assert!((conditioned.confidence - 0.44).abs() < 1e-9);
        let ssns = conditioned
            .db
            .query(
                &Plan::scan("R")
                    .select(Predicate::col_eq("NAME", "Bill"))
                    .project(&["SSN"]),
            )
            .unwrap();
        let answers = tuple_confidences(
            &ssns,
            conditioned.db.world_table(),
            &DecompositionOptions::default(),
        )
        .unwrap();
        let p4 = answers
            .iter()
            .find(|(t, _)| t.get(0) == Some(&Value::Int(4)))
            .unwrap()
            .1;
        assert!((p4 - 0.3 / 0.44).abs() < 1e-9, "P(A4 | B) = {p4}");
    }

    #[test]
    fn introduction_example_with_fred_yields_three_certain_ssns() {
        // With Fred added, conditioning on the FD leaves two worlds:
        // (John 1, Bill 7, Fred 4) and (John 7, Bill 4, Fred 1). The query
        // `select SSN from R where conf(SSN) = 1` must return three tuples.
        let db = ssn_db(true);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let conditioned = assert_constraint(&db, &fd, &ConditioningOptions::default()).unwrap();
        let ssns = conditioned
            .db
            .query(&Plan::scan("R").project(&["SSN"]))
            .unwrap();
        let certain = certain_tuples(
            &ssns,
            conditioned.db.world_table(),
            &DecompositionOptions::default(),
        )
        .unwrap();
        assert_eq!(certain.len(), 3);
        let values: Vec<i64> = certain
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        assert!(values.contains(&1) && values.contains(&4) && values.contains(&7));
    }

    #[test]
    fn row_filter_removes_worlds_with_bad_tuples() {
        // Require SSN < 7: the worlds where anyone has SSN 7 are removed,
        // leaving only {j -> 1, b -> 4}.
        let db = ssn_db(false);
        let check = Constraint::row_filter(
            "R",
            uprob_urel::Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(7i64)),
        );
        let conditioned = assert_constraint(&db, &check, &ConditioningOptions::default()).unwrap();
        assert!((conditioned.confidence - 0.2 * 0.3).abs() < 1e-9);
        let names = conditioned
            .db
            .query(&Plan::scan("R").project(&["NAME"]))
            .unwrap();
        let certain = certain_tuples(
            &names,
            conditioned.db.world_table(),
            &DecompositionOptions::default(),
        )
        .unwrap();
        assert_eq!(certain.len(), 2);
    }

    #[test]
    fn unsatisfiable_constraints_are_rejected() {
        let db = ssn_db(false);
        let impossible = Constraint::row_filter(
            "R",
            uprob_urel::Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(0i64)),
        );
        let err = assert_constraint(&db, &impossible, &ConditioningOptions::default()).unwrap_err();
        assert!(matches!(err, QueryError::UnsatisfiableConstraint { .. }));
    }

    #[test]
    fn unknown_columns_are_reported() {
        let db = ssn_db(false);
        let fd = Constraint::functional_dependency("R", &["NOPE"], &["NAME"]);
        assert!(matches!(
            fd.violation_ws_set(&db),
            Err(QueryError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn validation_catches_every_malformed_case() {
        let db = fk_db();
        let unknown_column = |c: &Constraint, column: &str| match c.validate(&db) {
            Err(QueryError::UnknownColumn { column: got, .. }) => assert_eq!(got, column),
            other => panic!("{}: expected UnknownColumn, got {other:?}", c.describe()),
        };
        let invalid = |c: &Constraint, needle: &str| match c.validate(&db) {
            Err(QueryError::InvalidConstraint { reason, .. }) => assert!(
                reason.contains(needle),
                "{}: reason '{reason}' does not mention '{needle}'",
                c.describe()
            ),
            other => panic!(
                "{}: expected InvalidConstraint, got {other:?}",
                c.describe()
            ),
        };

        // FD/Key: empty, duplicate and missing column lists.
        invalid(
            &Constraint::functional_dependency("P", &[], &["K"]),
            "empty",
        );
        invalid(
            &Constraint::functional_dependency("P", &["K"], &[]),
            "empty",
        );
        invalid(
            &Constraint::functional_dependency("P", &["K", "K"], &["K"]),
            "duplicate",
        );
        unknown_column(
            &Constraint::functional_dependency("P", &["K"], &["MISSING"]),
            "MISSING",
        );
        invalid(&Constraint::key("P", &[]), "empty");
        invalid(&Constraint::key("P", &["K", "K"]), "duplicate");
        unknown_column(&Constraint::key("P", &["NOPE"]), "NOPE");

        // RowFilter referencing a missing column fails at validation time,
        // naming the column — not deep inside execution.
        unknown_column(
            &Constraint::row_filter("P", Predicate::col_eq("GHOST", 1i64)),
            "GHOST",
        );

        // Inclusion dependencies: arity and type mismatches, bad columns.
        invalid(
            &Constraint::inclusion_dependency("C", &["FK"], "P", &["K", "K"]),
            "duplicate",
        );
        unknown_column(
            &Constraint::inclusion_dependency("C", &["FK"], "P", &["NOPE"]),
            "NOPE",
        );
        invalid(
            &Constraint::InclusionDependency {
                child: "C".into(),
                child_columns: vec!["FK".into()],
                parent: "P".into(),
                parent_columns: vec![],
            },
            "empty",
        );

        // Denial constraints: no atoms, duplicate aliases.
        invalid(
            &Constraint::denial("empty", &[], Predicate::True),
            "at least one atom",
        );
        invalid(
            &Constraint::denial("dup", &[("P", "a"), ("C", "a")], Predicate::True),
            "duplicate atom alias",
        );

        // Plan constraints must be Boolean queries.
        invalid(
            &Constraint::PlanConstraint {
                name: "wide".into(),
                plan: Plan::scan("P"),
            },
            "nullary",
        );

        // Unknown relations surface as the urel error.
        assert!(matches!(
            Constraint::key("GONE", &["K"]).validate(&db),
            Err(QueryError::Urel(UrelError::UnknownRelation { .. }))
        ));

        // violation_plan validates too: a malformed constraint is a typed
        // error, never a panic (the empty-atom denial would otherwise
        // reach the panicking plan builder).
        assert!(matches!(
            Constraint::denial("empty", &[], Predicate::True).violation_plan(&db),
            Err(QueryError::InvalidConstraint { .. })
        ));
    }

    /// `assert_all` validates each constraint once and then compiles its
    /// violations from the unchecked plan builder: the malformed denial
    /// constraints of the test above must still surface as the same typed
    /// errors (the empty-atom one would otherwise reach the panicking plan
    /// builder).
    #[test]
    fn assert_all_reports_malformed_denial_constraints_as_typed_errors() {
        let db = fk_db();
        let options = ConditioningOptions::default();
        let invalid = |c: Constraint, needle: &str| match assert_all(&db, &[c], &options) {
            Err(QueryError::InvalidConstraint { reason, .. }) => {
                assert!(reason.contains(needle), "'{reason}' lacks '{needle}'")
            }
            other => panic!("expected InvalidConstraint({needle}), got {other:?}"),
        };
        invalid(
            Constraint::denial("empty", &[], Predicate::True),
            "at least one atom",
        );
        invalid(
            Constraint::denial("dup", &[("P", "a"), ("C", "a")], Predicate::True),
            "duplicate atom alias",
        );
        invalid(
            Constraint::denial("blank", &[("P", "")], Predicate::True),
            "empty alias",
        );
        assert!(matches!(
            assert_all(
                &db,
                &[Constraint::denial(
                    "gone",
                    &[("GONE", "g")],
                    Predicate::True
                )],
                &options
            ),
            Err(QueryError::Urel(UrelError::UnknownRelation { .. }))
        ));
        // The condition is type-checked against the concatenated schema.
        assert!(matches!(
            assert_all(
                &db,
                &[Constraint::denial(
                    "ghost",
                    &[("P", "a")],
                    Predicate::col_eq("GHOST", 1i64)
                )],
                &options
            ),
            Err(QueryError::Urel(_))
        ));
    }

    #[test]
    fn ind_arity_mismatch_is_invalid() {
        let mut db = ProbDb::new();
        db.world_table_mut().add_boolean("x", 0.5).unwrap();
        let a = db
            .create_relation(Schema::new(
                "A",
                &[("U", ColumnType::Int), ("V", ColumnType::Int)],
            ))
            .unwrap();
        let b = db
            .create_relation(Schema::new(
                "B",
                &[("U", ColumnType::Int), ("S", ColumnType::Str)],
            ))
            .unwrap();
        db.insert_relation(a).unwrap();
        db.insert_relation(b).unwrap();
        let arity = Constraint::inclusion_dependency("A", &["U", "V"], "B", &["U"]);
        assert!(matches!(
            arity.validate(&db),
            Err(QueryError::InvalidConstraint { ref reason, .. }) if reason.contains("arity")
        ));
        let types = Constraint::inclusion_dependency("A", &["U"], "B", &["S"]);
        assert!(matches!(
            types.validate(&db),
            Err(QueryError::InvalidConstraint { ref reason, .. }) if reason.contains("type")
        ));
    }

    #[test]
    fn plan_constraints_accept_any_boolean_violation_query() {
        let db = ssn_db(false);
        // The FD violation self-join, hand-written as a plan.
        let plan = Plan::scan("R")
            .join_on(
                Plan::scan("R").rename("R2"),
                Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
                    Expr::col("NAME"),
                    Comparison::Ne,
                    Expr::col("R2.NAME"),
                )),
            )
            .project(&[]);
        let constraint = Constraint::PlanConstraint {
            name: "fd-by-plan".into(),
            plan,
        };
        assert_eq!(constraint.describe(), "plan(fd-by-plan)");
        assert_eq!(constraint.relations(), vec!["R"]);
        let conditioned =
            assert_constraint(&db, &constraint, &ConditioningOptions::default()).unwrap();
        assert!((conditioned.confidence - 0.44).abs() < 1e-9);
    }

    #[test]
    fn strategy_assertion_materializes_when_feasible() {
        let db = ssn_db(false);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let options = ConditioningOptions::default();
        let assertion = assert_all_with_strategy(
            &db,
            std::slice::from_ref(&fd),
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        )
        .unwrap();
        assert!(matches!(assertion, Assertion::Materialized(_)));
        let exact = assert_constraint(&db, &fd, &options).unwrap();
        assert!((assertion.confidence() - exact.confidence).abs() < 1e-12);
        // The Exact strategy is the plain assert.
        let exact_assertion = assert_all_with_strategy(
            &db,
            std::slice::from_ref(&fd),
            &options,
            &ConfidenceStrategy::Exact,
        )
        .unwrap();
        assert!(matches!(exact_assertion, Assertion::Materialized(_)));
    }

    #[test]
    fn strategy_assertion_estimates_when_the_budget_is_exhausted() {
        // The independence-rich instance of the uniform-budget test: eight
        // variable-disjoint pairs make exact conditioning abort under a
        // small budget, while sampling handles it easily.
        let mut db = ProbDb::new();
        let mut pairs = Vec::new();
        {
            let table = db.world_table_mut();
            for i in 0..8 {
                let x = table.add_boolean(&format!("x{i}"), 0.5).unwrap();
                let y = table.add_boolean(&format!("y{i}"), 0.5).unwrap();
                pairs.push((x, y));
            }
        }
        let schema = Schema::new("T", &[("ID", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            for (i, &(x, _)) in pairs.iter().enumerate() {
                rel.push(
                    Tuple::new(vec![Value::Int(i as i64)]),
                    WsDescriptor::from_pairs(w, &[(x, 1)]).unwrap(),
                );
            }
        }
        db.insert_relation(rel).unwrap();
        // All rows violate the filter, so the satisfying worlds are those
        // where no row co-exists: every x_i must be false; P = 0.5^8.
        let check = Constraint::row_filter(
            "T",
            uprob_urel::Predicate::cmp(Expr::col("ID"), Comparison::Lt, Expr::val(0i64)),
        );
        let strategy = ConfidenceStrategy::Hybrid {
            budget: 4,
            approx: uprob_core::ApproximationOptions::default()
                .with_epsilon(0.05)
                .with_delta(0.05)
                .with_seed(29),
        };
        let assertion = assert_all_with_strategy(
            &db,
            std::slice::from_ref(&check),
            &ConditioningOptions::default(),
            &strategy,
        )
        .unwrap();
        let Assertion::Estimated(virtual_posterior) = assertion else {
            panic!("budget 4 must force the estimated path");
        };
        let expected = 0.5f64.powi(8);
        assert!(
            (virtual_posterior.confidence.probability - expected).abs() <= 0.05 * expected + 0.005,
            "P(C) estimate {} vs exact {expected}",
            virtual_posterior.confidence.probability
        );
        // Posterior tuple confidences: given all x_i false, every tuple's
        // ws-set {x_i -> 1} has posterior probability 0.
        let answer = db.query(&Plan::scan("T").project(&["ID"])).unwrap();
        let posterior = virtual_posterior
            .tuple_confidences(&answer, db.world_table(), &ParallelOptions::new(2))
            .unwrap();
        assert_eq!(posterior.len(), 8);
        for (tuple, report) in &posterior {
            assert!(
                report.probability <= 0.01,
                "tuple {tuple:?} posterior {} should be ~0",
                report.probability
            );
        }
        // Boolean posterior of the full answer is likewise ~0.
        let boolean = virtual_posterior
            .boolean_confidence(&answer, db.world_table())
            .unwrap();
        assert!(boolean.probability <= 0.01);
    }

    #[test]
    fn strategy_assertion_rejects_unsatisfiable_constraints() {
        let db = ssn_db(false);
        let impossible = Constraint::row_filter(
            "R",
            uprob_urel::Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(0i64)),
        );
        for strategy in [
            ConfidenceStrategy::Exact,
            ConfidenceStrategy::approximate(0.1, 0.05),
            ConfidenceStrategy::hybrid(10, 0.1, 0.05),
        ] {
            let err = assert_all_with_strategy(
                &db,
                std::slice::from_ref(&impossible),
                &ConditioningOptions::default(),
                &strategy,
            )
            .unwrap_err();
            assert!(
                matches!(err, QueryError::UnsatisfiableConstraint { .. }),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn assert_all_composes_constraints() {
        let db = ssn_db(true);
        let constraints = vec![
            Constraint::functional_dependency("R", &["SSN"], &["NAME"]),
            Constraint::row_filter(
                "R",
                uprob_urel::Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(9i64)),
            ),
        ];
        let combined = assert_all(&db, &constraints, &ConditioningOptions::default()).unwrap();
        // The second constraint always holds, so the combined confidence is
        // that of the FD alone.
        let fd_only = assert_constraint(&db, &constraints[0], &ConditioningOptions::default())
            .unwrap()
            .confidence;
        assert!((combined.confidence - fd_only).abs() < 1e-9);
        // Asserting no constraints at all is the identity.
        let identity = assert_all(&db, &[], &ConditioningOptions::default()).unwrap();
        assert!((identity.confidence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assert_all_on_a_singleton_is_bit_identical_to_assert_constraint() {
        let db = ssn_db(true);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let options = ConditioningOptions::default();
        let single = assert_constraint(&db, &fd, &options).unwrap();
        let batch = assert_all(&db, std::slice::from_ref(&fd), &options).unwrap();
        assert_eq!(single.confidence.to_bits(), batch.confidence.to_bits());
        let r1 = single.db.relation("R").unwrap();
        let r2 = batch.db.relation("R").unwrap();
        assert_eq!(r1.rows(), r2.rows());
        // Posterior tuple confidences are bit-identical too.
        let opts = DecompositionOptions::default();
        let a = tuple_confidences(r1, single.db.world_table(), &opts).unwrap();
        let b = tuple_confidences(r2, batch.db.world_table(), &opts).unwrap();
        assert_eq!(a.len(), b.len());
        for ((t1, p1), (t2, p2)) in a.iter().zip(&b) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
    }

    #[test]
    fn assert_all_delta_with_a_fresh_memo_is_bit_identical_across_worker_counts() {
        let db = ssn_db(true);
        let constraints = vec![
            Constraint::functional_dependency("R", &["SSN"], &["NAME"]),
            Constraint::row_filter(
                "R",
                uprob_urel::Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(9i64)),
            ),
            Constraint::key("R", &["SSN"]),
        ];
        let options = ConditioningOptions::default();
        let reference = assert_all(&db, &constraints, &options).unwrap();
        let opts = DecompositionOptions::default();
        let reference_tuples = tuple_confidences(
            reference.db.relation("R").unwrap(),
            reference.db.world_table(),
            &opts,
        )
        .unwrap();
        for workers in [1, 2, 4, 8] {
            let parallel = ParallelOptions::new(workers).with_grain(2);
            let got = assert_all_delta(
                &db,
                &constraints,
                &options,
                &parallel,
                &mut ViolationMemo::new(),
            )
            .unwrap();
            assert_eq!(
                reference.confidence.to_bits(),
                got.confidence.to_bits(),
                "workers {workers}"
            );
            let got_tuples =
                tuple_confidences(got.db.relation("R").unwrap(), got.db.world_table(), &opts)
                    .unwrap();
            assert_eq!(reference_tuples.len(), got_tuples.len());
            for ((t1, p1), (t2, p2)) in reference_tuples.iter().zip(&got_tuples) {
                assert_eq!(t1, t2, "workers {workers}");
                assert_eq!(p1.to_bits(), p2.to_bits(), "workers {workers}");
            }
        }
        // The empty constraint set is the identity on both paths.
        let identity = assert_all_delta(
            &db,
            &[],
            &options,
            &ParallelOptions::new(4),
            &mut ViolationMemo::new(),
        )
        .unwrap();
        assert!((identity.confidence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assert_all_rejects_mutually_contradictory_constraints() {
        let db = ssn_db(false);
        // SSN < 5 and SSN > 5 leave no world in which both filters can be
        // certified for every tuple (John is 1-or-7, Bill 4-or-7).
        let contradictory = vec![
            Constraint::row_filter(
                "R",
                Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(5i64)),
            ),
            Constraint::row_filter(
                "R",
                Predicate::cmp(Expr::col("SSN"), Comparison::Gt, Expr::val(5i64)),
            ),
        ];
        let err = assert_all(&db, &contradictory, &ConditioningOptions::default()).unwrap_err();
        assert!(matches!(err, QueryError::UnsatisfiableConstraint { .. }));
        for strategy in [
            ConfidenceStrategy::Exact,
            ConfidenceStrategy::approximate(0.1, 0.05),
            ConfidenceStrategy::hybrid(10, 0.1, 0.05),
        ] {
            let err = assert_all_with_strategy(
                &db,
                &contradictory,
                &ConditioningOptions::default(),
                &strategy,
            )
            .unwrap_err();
            assert!(
                matches!(err, QueryError::UnsatisfiableConstraint { .. }),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn zero_probability_satisfying_sets_are_typed_errors() {
        // The satisfying world-set is non-empty as a *set* but has
        // probability zero: variable z has value 0 with probability 0, and
        // the only world satisfying "V = 0" is {z -> 0}.
        let mut db = ProbDb::new();
        let z = db
            .world_table_mut()
            .add_variable("z", &[(0, 0.0), (1, 1.0)])
            .unwrap();
        let schema = Schema::new("R", &[("V", ColumnType::Int)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Int(0)]),
                WsDescriptor::from_pairs(w, &[(z, 0)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(z, 1)]).unwrap(),
            );
        }
        db.insert_relation(r).unwrap();
        let check = Constraint::row_filter("R", Predicate::col_eq("V", 0i64));
        let satisfying = check.satisfying_ws_set(&db).unwrap();
        assert!(!satisfying.is_empty(), "the set itself is non-empty");
        assert!(
            satisfying.probability_by_enumeration(db.world_table()) <= 0.0,
            "…but it has probability zero"
        );
        // Exact assert, strategy asserts and the batch pipeline all report
        // the typed unsatisfiable error — no NaN/Inf posterior, no panic.
        let err = assert_constraint(&db, &check, &ConditioningOptions::default()).unwrap_err();
        assert!(matches!(err, QueryError::UnsatisfiableConstraint { .. }));
        let err = assert_all(
            &db,
            std::slice::from_ref(&check),
            &ConditioningOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::UnsatisfiableConstraint { .. }));
        for strategy in [
            ConfidenceStrategy::Exact,
            ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.05),
        ] {
            let err = assert_all_with_strategy(
                &db,
                std::slice::from_ref(&check),
                &ConditioningOptions::default(),
                &strategy,
            )
            .unwrap_err();
            assert!(
                matches!(err, QueryError::UnsatisfiableConstraint { .. }),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn assert_all_with_strategy_covers_all_three_paths() {
        let db = fk_db();
        let constraints = vec![
            Constraint::inclusion_dependency("C", &["FK"], "P", &["K"]),
            Constraint::denial(
                "no-nine-with-two",
                &[("C", "c"), ("P", "p")],
                Predicate::col_eq("FK", 9i64).and(Predicate::col_eq("K", 2i64)),
            ),
        ];
        let options = ConditioningOptions::default();
        let exact =
            assert_all_with_strategy(&db, &constraints, &options, &ConfidenceStrategy::Exact)
                .unwrap();
        assert!(matches!(exact, Assertion::Materialized(_)));
        let batch = assert_all(&db, &constraints, &options).unwrap();
        assert_eq!(exact.confidence().to_bits(), batch.confidence.to_bits());

        // A generous hybrid budget materialises with the exact confidence.
        let hybrid = assert_all_with_strategy(
            &db,
            &constraints,
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
        )
        .unwrap();
        assert!(matches!(hybrid, Assertion::Materialized(_)));
        assert_eq!(hybrid.confidence().to_bits(), batch.confidence.to_bits());

        // The approximate strategy returns a virtual posterior whose
        // confidence estimate lands within the (ε, δ) band.
        let approx = assert_all_with_strategy(
            &db,
            &constraints,
            &options,
            &ConfidenceStrategy::Approximate(
                uprob_core::ApproximationOptions::default()
                    .with_epsilon(0.05)
                    .with_delta(0.05)
                    .with_seed(41),
            ),
        )
        .unwrap();
        let Assertion::Estimated(virtual_posterior) = approx else {
            panic!("the approximate strategy never materialises");
        };
        assert!(
            (virtual_posterior.confidence.probability - batch.confidence).abs()
                <= 0.05 * batch.confidence + 0.01
        );
    }

    /// Posterior equality, bit-for-bit: identical world tables (names,
    /// values, probability bits) and identical relations (rows and
    /// descriptors, in order).
    fn assert_bit_identical(a: &ProbDb, b: &ProbDb) {
        let (wa, wb) = (a.world_table(), b.world_table());
        assert_eq!(wa.num_variables(), wb.num_variables());
        for (va, vb) in wa.iter().zip(wb.iter()) {
            assert_eq!(va.0, vb.0);
            assert_eq!(va.1.name, vb.1.name);
            assert_eq!(va.1.values, vb.1.values);
            assert_eq!(va.1.probabilities.len(), vb.1.probabilities.len());
            for (pa, pb) in va.1.probabilities.iter().zip(&vb.1.probabilities) {
                assert_eq!(pa.to_bits(), pb.to_bits());
            }
        }
        assert_eq!(a.relation_names(), b.relation_names());
        for name in a.relation_names() {
            assert_eq!(a.relation(&name).unwrap(), b.relation(&name).unwrap());
        }
    }

    #[test]
    fn assert_all_delta_matches_full_rebuild_and_reuses_unchanged_sets() {
        use uprob_urel::DeltaBuilder;
        let db = ssn_db(true);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let s_filter = {
            // A second relation so one constraint's inputs stay unmutated.
            let mut db2 = db.clone();
            let schema = Schema::new("S", &[("ID", ColumnType::Int)]);
            let mut s = db2.create_relation(schema).unwrap();
            s.push(Tuple::new(vec![Value::Int(1)]), WsDescriptor::empty());
            s.push(Tuple::new(vec![Value::Int(-3)]), WsDescriptor::empty());
            db2.insert_relation(s).unwrap();
            db2
        };
        let filter = Constraint::row_filter(
            "S",
            Predicate::cmp(Expr::col("ID"), Comparison::Lt, Expr::val(100i64)),
        );
        let constraints = vec![fd.clone(), filter.clone()];
        let options = ConditioningOptions::default();
        let parallel = ParallelOptions::sequential();

        // First call: everything recomputed; posterior identical to
        // assert_all.
        let mut memo = ViolationMemo::new();
        let full = assert_all(&s_filter, &constraints, &options).unwrap();
        let delta =
            assert_all_delta(&s_filter, &constraints, &options, &parallel, &mut memo).unwrap();
        assert_eq!(full.confidence.to_bits(), delta.confidence.to_bits());
        assert_bit_identical(&full.db, &delta.db);
        assert_eq!(memo.recomputed(), 2);
        assert_eq!(memo.reused(), 0);
        assert_eq!(memo.len(), 2);

        // Append a row to R only: the FD set is recomputed, the S filter
        // set is served from the memo, and the posterior still matches the
        // full rebuild bit-for-bit.
        let mut builder = DeltaBuilder::new(&s_filter);
        let v = builder.add_variable("g", &[(7, 0.5), (9, 0.5)]).unwrap();
        let d = WsDescriptor::from_pairs(builder.world_table(), &[(v, 9)]).unwrap();
        builder
            .append("R", Tuple::new(vec![Value::Int(9), Value::str("Gil")]), d)
            .unwrap();
        let (mutated, report) = builder.finish();
        assert_eq!(report.touched_relations, vec!["R".to_string()]);

        let full2 = assert_all(&mutated, &constraints, &options).unwrap();
        let delta2 =
            assert_all_delta(&mutated, &constraints, &options, &parallel, &mut memo).unwrap();
        assert_eq!(full2.confidence.to_bits(), delta2.confidence.to_bits());
        assert_bit_identical(&full2.db, &delta2.db);
        assert_eq!(memo.recomputed(), 3, "only the FD set is recomputed");
        assert_eq!(memo.reused(), 1, "the untouched S set is reused");

        // A non-extending world table (the conditioned posterior) drops
        // every entry instead of serving stale sets.
        let mut memo2 = memo.clone();
        let again =
            assert_all_delta(&delta2.db, &constraints, &options, &parallel, &mut memo2).unwrap();
        assert!(again.confidence > 0.0);
        assert!(memo2.invalidated() >= 2);
    }

    #[test]
    fn assert_all_delta_parallel_recompute_is_bit_identical() {
        let db = ssn_db(true);
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let key = Constraint::key("R", &["SSN"]);
        let constraints = vec![fd, key];
        let options = ConditioningOptions::default();
        let full = assert_all(&db, &constraints, &options).unwrap();
        for workers in [1usize, 2, 4] {
            let mut memo = ViolationMemo::new();
            let parallel = ParallelOptions::new(workers);
            let delta =
                assert_all_delta(&db, &constraints, &options, &parallel, &mut memo).unwrap();
            assert_eq!(full.confidence.to_bits(), delta.confidence.to_bits());
            assert_bit_identical(&full.db, &delta.db);
            // Second run over the unchanged database reuses both sets and
            // still matches.
            let delta2 =
                assert_all_delta(&db, &constraints, &options, &parallel, &mut memo).unwrap();
            assert_eq!(full.confidence.to_bits(), delta2.confidence.to_bits());
            assert_bit_identical(&full.db, &delta2.db);
            assert_eq!(memo.reused(), 2);
        }
    }
}
