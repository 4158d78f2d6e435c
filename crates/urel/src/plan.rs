//! Logical query plans over U-relations.
//!
//! A [`Plan`] is an AST over the positive relational algebra of Section 2
//! — scan, select, project, join, product, union, rename and distinct —
//! evaluated against a [`crate::ProbDb`] with [`ProbDb::query`]. Plans
//! decouple *what* a query computes from *how* it is computed:
//!
//! * [`crate::optimize_plan`] rewrites a plan with the classical rule set
//!   (predicate/projection pushdown, select-product → join recognition,
//!   trivial-predicate and empty-relation pruning);
//! * [`crate::execute_plan`] runs a plan through the pipelined executor,
//!   which streams rows between operators and replaces nested-loop
//!   equi-joins with hash joins;
//! * `uprob_reference::urel::execute_plan` (outside the product crates) is
//!   the semantics oracle both are differentially tested against: every
//!   node maps one-to-one onto an eager, materializing operator
//!   (nested-loop joins included).
//!
//! The ws-descriptor attached to every tuple is **not** a plan-visible
//! column: it rides alongside each row through every operator (the paper's
//! `π_{WSD, A}` convention), so no optimizer rule can drop it — projection
//! pushdown narrows attribute columns only and descriptor consistency is
//! enforced by the join operators themselves.
//!
//! Projection to the empty column list produces the nullary schema, i.e.
//! the Boolean query whose answer ws-set is the union of all surviving
//! descriptors (Section 7 of the paper).

use std::fmt;

use crate::database::ProbDb;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::Result;

/// A logical query plan node.
///
/// Built with the consuming combinators ([`Plan::scan`],
/// [`Plan::select`], …) and evaluated with [`ProbDb::query`] (optimized +
/// pipelined) or [`ProbDb::query_unoptimized`] (pipelined only).
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Scan of a stored relation by name.
    Scan {
        /// Name of the stored relation.
        relation: String,
    },
    /// A statically empty relation with a known schema. Produced by the
    /// optimizer's empty-relation pruning; never necessary in hand-written
    /// plans.
    Empty {
        /// Schema of the (empty) output.
        schema: Schema,
    },
    /// Selection `σ_φ(input)`.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Row predicate over the input schema.
        predicate: Predicate,
    },
    /// Projection `π_A(input)` onto the named columns (the empty list is
    /// the projection to the nullary, Boolean schema).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns, by name, in order.
        columns: Vec<String>,
    },
    /// Join `left ⋈_φ right` (descriptor consistency is always required in
    /// addition to `φ`).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate over the concatenated schema.
        predicate: Predicate,
    },
    /// Cross product `left × right` (with descriptor consistency).
    Product {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Union of two union-compatible inputs (row concatenation; the output
    /// schema is the left input's).
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Renames the output relation (columns are unchanged; the name drives
    /// the `rel.column` disambiguation of later join concatenations).
    Rename {
        /// Input plan.
        input: Box<Plan>,
        /// New relation name.
        name: String,
    },
    /// Duplicate elimination: drops repeated `(tuple, descriptor)` rows
    /// (world-by-world a no-op — instances are sets).
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Scan of the stored relation `relation`.
    pub fn scan(relation: &str) -> Plan {
        Plan::Scan {
            relation: relation.to_string(),
        }
    }

    /// A statically empty relation with the given schema.
    pub fn empty(schema: Schema) -> Plan {
        Plan::Empty { schema }
    }

    /// Selection with `predicate`.
    pub fn select(self, predicate: Predicate) -> Plan {
        Plan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Projection onto `columns` (empty for the Boolean, nullary
    /// projection).
    pub fn project(self, columns: &[&str]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Join with `right` on `predicate`.
    pub fn join_on(self, right: Plan, predicate: Predicate) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            predicate,
        }
    }

    /// Cross product with `right`.
    pub fn product(self, right: Plan) -> Plan {
        Plan::Product {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Union with `right` (must be union-compatible).
    pub fn union(self, right: Plan) -> Plan {
        Plan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Renames the output relation.
    pub fn rename(self, name: &str) -> Plan {
        Plan::Rename {
            input: Box::new(self),
            name: name.to_string(),
        }
    }

    /// Duplicate elimination.
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    /// Computes the output schema of this plan against `db`, validating the
    /// plan along the way: referenced relations and columns must exist,
    /// selection/join predicates must type-check
    /// ([`Predicate::validate`]) and union operands must be
    /// union-compatible.
    ///
    /// Both executors and the optimizer validate through this method first,
    /// so a malformed plan fails identically on every path — including
    /// subtrees an execution would never reach (empty inputs, pruned
    /// branches, predicates short-circuited per row).
    ///
    /// # Errors
    ///
    /// Returns the first validation error found (bottom-up, left to
    /// right).
    pub fn output_schema(&self, db: &ProbDb) -> Result<Schema> {
        match self {
            Plan::Scan { relation } => Ok(db.relation(relation)?.schema().clone()),
            Plan::Empty { schema } => Ok(schema.clone()),
            Plan::Select { input, predicate } => {
                let schema = input.output_schema(db)?;
                predicate.validate(&schema)?;
                Ok(schema)
            }
            Plan::Project { input, columns } => {
                let schema = input.output_schema(db)?;
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                schema.project(&names, schema.name())
            }
            Plan::Join {
                left,
                right,
                predicate,
            } => {
                let l = left.output_schema(db)?;
                let r = right.output_schema(db)?;
                let concat = l.concat(&r, l.name());
                predicate.validate(&concat)?;
                Ok(concat)
            }
            Plan::Product { left, right } => {
                let l = left.output_schema(db)?;
                let r = right.output_schema(db)?;
                Ok(l.concat(&r, l.name()))
            }
            Plan::Union { left, right } => {
                let l = left.output_schema(db)?;
                let r = right.output_schema(db)?;
                l.check_union_compatible(&r)?;
                Ok(l)
            }
            Plan::Rename { input, name } => Ok(input.output_schema(db)?.renamed(name)),
            Plan::Distinct { input } => input.output_schema(db),
        }
    }

    /// The names of the stored relations this plan scans, de-duplicated,
    /// in first-use order (left to right, bottom up).
    pub fn scanned_relations(&self) -> Vec<&str> {
        fn walk<'a>(plan: &'a Plan, out: &mut Vec<&'a str>) {
            match plan {
                Plan::Scan { relation } => {
                    if !out.contains(&relation.as_str()) {
                        out.push(relation);
                    }
                }
                Plan::Empty { .. } => {}
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::Rename { input, .. }
                | Plan::Distinct { input } => walk(input, out),
                Plan::Join { left, right, .. }
                | Plan::Product { left, right }
                | Plan::Union { left, right } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } | Plan::Empty { .. } => 0,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Distinct { input } => input.node_count(),
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::Union { left, right } => left.node_count() + right.node_count(),
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { relation } => writeln!(f, "{pad}Scan {relation}"),
            Plan::Empty { schema } => writeln!(f, "{pad}Empty {schema}"),
            Plan::Select { input, predicate } => {
                writeln!(f, "{pad}Select {predicate}")?;
                input.fmt_indented(f, depth + 1)
            }
            Plan::Project { input, columns } => {
                writeln!(f, "{pad}Project [{}]", columns.join(", "))?;
                input.fmt_indented(f, depth + 1)
            }
            Plan::Join {
                left,
                right,
                predicate,
            } => {
                writeln!(f, "{pad}Join {predicate}")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            Plan::Product { left, right } => {
                writeln!(f, "{pad}Product")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            Plan::Union { left, right } => {
                writeln!(f, "{pad}Union")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            Plan::Rename { input, name } => {
                writeln!(f, "{pad}Rename {name}")?;
                input.fmt_indented(f, depth + 1)
            }
            Plan::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indented(f, depth + 1)
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::ssn_db;
    use crate::predicate::{Comparison, Expr};
    use crate::UrelError;

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
    fn output_schema_tracks_operators() {
        let db = ssn_db();
        let plan = Plan::scan("R")
            .select(Predicate::col_eq("NAME", "Bill"))
            .project(&["SSN"]);
        let schema = plan.output_schema(&db).unwrap();
        assert_eq!(schema.arity(), 1);
        assert_eq!(schema.columns()[0].name, "SSN");
        assert_eq!(schema.name(), "R");

        let joined = Plan::scan("R").join_on(
            Plan::scan("R").rename("R2"),
            Predicate::cols_eq("SSN", "R2.SSN"),
        );
        let js = joined.output_schema(&db).unwrap();
        assert_eq!(js.arity(), 4);
        assert_eq!(js.columns()[2].name, "R2.SSN");

        // Nullary projection: the Boolean query schema.
        let boolean = violation_plan();
        assert_eq!(boolean.output_schema(&db).unwrap().arity(), 0);
    }

    #[test]
    fn validation_catches_errors_everywhere() {
        let db = ssn_db();
        assert!(matches!(
            Plan::scan("NOPE").output_schema(&db),
            Err(UrelError::UnknownRelation { .. })
        ));
        assert!(matches!(
            Plan::scan("R")
                .select(Predicate::col_eq("MISSING", 1i64))
                .output_schema(&db),
            Err(UrelError::UnknownColumn { .. })
        ));
        assert!(matches!(
            Plan::scan("R")
                .select(Predicate::col_eq("NAME", 7i64))
                .output_schema(&db),
            Err(UrelError::TypeError { .. })
        ));
        assert!(matches!(
            Plan::scan("R").project(&["SSN", "BAD"]).output_schema(&db),
            Err(UrelError::UnknownColumn { .. })
        ));
        let incompatible = Plan::scan("R").union(Plan::scan("R").project(&["SSN"]));
        assert!(matches!(
            incompatible.output_schema(&db),
            Err(UrelError::SchemaMismatch { .. })
        ));
        // Execution validates up front: the error surfaces even though the
        // selection would never evaluate its predicate (the input row
        // stream could be empty).
        let unreachable = Plan::scan("R")
            .select(Predicate::col_eq("NAME", "Nobody"))
            .select(Predicate::col_eq("MISSING", 1i64));
        assert!(crate::execute_plan(&db, &unreachable).is_err());
    }

    #[test]
    fn display_renders_the_tree() {
        let plan = violation_plan();
        let text = plan.to_string();
        assert!(text.contains("Project []"));
        assert!(text.contains("Join"));
        assert!(text.contains("Rename R2"));
        assert!(text.contains("Scan R"));
        assert_eq!(plan.node_count(), 5);
    }
}
