//! Plan builders for constraint **violation queries**.
//!
//! The paper compiles an integrity constraint into the Boolean query whose
//! answer ws-set is the set of worlds *violating* the constraint
//! (Example 2.3: the FD self-join). This module constructs those queries
//! as logical [`Plan`]s, so constraint checking runs through
//! [`crate::ProbDb::query`] — the rule-based optimizer plus the pipelined
//! hash-join executor — instead of hand-rolled nested loops:
//!
//! * [`fd_violation_plan`]: the self-join of Example 2.3 generalised to
//!   multi-column determinants/dependents,
//! * [`row_filter_violation_plan`]: `σ_{¬φ}(R)` projected to the nullary
//!   schema,
//! * [`denial_constraint_plan`]: a cross-relation conjunctive query whose
//!   non-emptiness marks a violating world (the optimizer recognises the
//!   equality conjuncts and plans hash joins).
//!
//! All builders are pure AST constructors: they neither validate against a
//! database nor execute anything. Validation happens where it always does,
//! in [`crate::Plan::output_schema`], so a malformed constraint fails
//! identically on every execution path.
//!
//! ## NULL semantics of the FD violation query
//!
//! Comparisons follow the SQL rule (a comparison involving NULL is never
//! satisfied), which fixes the constraint semantics:
//!
//! * **determinants**: two tuples "agree" on the determinant only when
//!   every determinant value is non-NULL and equal — rows with a NULL
//!   determinant value never witness a violation (they are dropped by the
//!   hash join exactly as the equality predicate would drop them);
//! * **dependents**: a pair *disagrees* on a dependent column unless the
//!   two values are **provably equal**, i.e. the disagreement predicate is
//!   `¬(a = b)`, which is satisfied when the values differ *and* when
//!   either is NULL. An unknown dependent value cannot certify the FD, so
//!   it violates — including the degenerate self-pair: a single tuple with
//!   a fully non-NULL determinant and a NULL dependent violates the FD on
//!   its own.
//!
//! The eager constraint compiler in `uprob-query` implements the same
//! rules tuple-by-tuple; the differential suite pins the agreement.

use crate::plan::Plan;
use crate::predicate::Predicate;

/// The alias under which violation self-joins scan the second copy of the
/// constrained relation; qualified column references are
/// `"<alias>.<column>"` (see [`crate::Schema::concat`]).
pub const FD_SELF_JOIN_ALIAS: &str = "rhs";

/// The violation query of the functional dependency
/// `relation: determinant → dependent` (Example 2.3 generalised): a
/// self-join pairing tuples that agree on every determinant column and are
/// not provably equal on some dependent column, projected to the nullary
/// (Boolean) schema. See the module docs for the NULL semantics.
///
/// The second copy of the relation is renamed to [`FD_SELF_JOIN_ALIAS`],
/// so its columns are the qualified `"rhs.<column>"` names.
pub fn fd_violation_plan(relation: &str, determinant: &[String], dependent: &[String]) -> Plan {
    let rhs = |column: &str| format!("{FD_SELF_JOIN_ALIAS}.{column}");
    let agreement = Predicate::conjoin(
        determinant
            .iter()
            .map(|column| Predicate::cols_eq(column, &rhs(column))),
    );
    // Disagreement = not provably equal on some dependent column; the
    // empty disjunction is FALSE (an FD with no dependents cannot be
    // violated, and the optimizer prunes the trivially false join).
    let mut disagreement: Option<Predicate> = None;
    for column in dependent {
        let not_equal = Predicate::cols_eq(column, &rhs(column)).not();
        disagreement = Some(match disagreement {
            None => not_equal,
            Some(acc) => acc.or(not_equal),
        });
    }
    let disagreement = disagreement.unwrap_or(Predicate::False);
    Plan::scan(relation)
        .join_on(
            Plan::scan(relation).rename(FD_SELF_JOIN_ALIAS),
            agreement.and(disagreement),
        )
        .project(&[])
}

/// The violation query of a row-level predicate constraint: the worlds
/// containing a tuple that does **not** satisfy `predicate`
/// (`π_∅(σ_{¬φ}(R))`). Under the SQL comparison rule a NULL-involving
/// comparison is unsatisfied, so a row whose values make `φ` unknown
/// violates the constraint — the filter cannot certify it.
pub fn row_filter_violation_plan(relation: &str, predicate: &Predicate) -> Plan {
    Plan::scan(relation)
        .select(predicate.clone().not())
        .project(&[])
}

/// The violation query of a denial constraint: the conjunctive query over
/// `atoms` (each a `(relation, alias)` pair, scanned and renamed in
/// order) filtered by `condition`, projected to the nullary schema. A
/// world violates the constraint iff the query is non-empty there.
///
/// The atoms are combined with cross products and the condition applied
/// on top; [`crate::optimize_plan`] pushes the condition down and turns
/// equality conjuncts into pipelined hash joins, so a denial constraint
/// checks at hash-join speed without the builder doing any planning of
/// its own. Column references in `condition` follow the concatenation
/// convention of [`crate::Schema::concat`]: a column unique across the
/// atoms keeps its plain name, a clashing one is `"<alias>.<column>"`
/// (qualified by the alias of the atom it belongs to, for every atom
/// after the first).
///
/// # Panics
///
/// Panics if `atoms` is empty (an atomless conjunctive query has no
/// meaning); the constraint layer validates this before calling.
pub fn denial_constraint_plan(atoms: &[(String, String)], condition: &Predicate) -> Plan {
    let mut iter = atoms.iter();
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract: the constraint layer rejects atomless constraints"
    )]
    let (first_relation, first_alias) = iter.next().expect("a denial constraint has atoms");
    let mut plan = Plan::scan(first_relation).rename(first_alias);
    for (relation, alias) in iter {
        plan = plan.product(Plan::scan(relation).rename(alias));
    }
    plan.select(condition.clone()).project(&[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::ssn_db;
    use crate::predicate::{Comparison, Expr};
    use crate::reference::execute_plan as execute_plan_eager;

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

    #[test]
    fn fd_plan_with_no_dependents_is_trivially_satisfied() {
        let db = ssn_db();
        let plan = fd_violation_plan("R", &["SSN".to_string()], &[]);
        assert!(db.query(&plan).unwrap().is_empty());
    }

    #[test]
    fn row_filter_violation_selects_the_complement() {
        let db = ssn_db();
        let predicate = Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(7i64));
        let plan = row_filter_violation_plan("R", &predicate);
        // Two of the four tuples have SSN 7.
        assert_eq!(db.query(&plan).unwrap().len(), 2);
    }

    #[test]
    fn denial_constraint_plan_builds_the_conjunctive_query() {
        let db = ssn_db();
        // "No two co-existing tuples share an SSN with different names" as
        // a denial constraint — same worlds as the FD violation query.
        let atoms = vec![
            ("R".to_string(), "a".to_string()),
            ("R".to_string(), "b".to_string()),
        ];
        let condition = Predicate::cols_eq("SSN", "b.SSN").and(Predicate::cmp(
            Expr::col("NAME"),
            Comparison::Ne,
            Expr::col("b.NAME"),
        ));
        let plan = denial_constraint_plan(&atoms, &condition);
        let ws = db.query(&plan).unwrap().answer_ws_set().normalized();
        assert_eq!(ws.len(), 1);
        assert!((ws.descriptors()[0].probability(db.world_table()) - 0.56).abs() < 1e-12);
    }
}
