//! Random constraint workloads (and a deterministic FK fixture) for the
//! sequential-vs-batch `assert` differential harness
//! (`tests/constraint_equivalence.rs`) and the `constraint_pipeline`
//! bench.
//!
//! Mirrors [`crate::random_plan`]: every generated case is plain,
//! `Debug`-printable data — a [`ConstraintCaseRecipe`] reproduces the
//! database (with its NULL injections) and the constraint set exactly, so
//! a failing property prints what is needed to replay it.

use proptest::{collection, Strategy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uprob_query::Constraint;
use uprob_urel::{ColumnType, Comparison, Expr, Predicate, ProbDb, Schema, Tuple, Value};
use uprob_wsd::WsDescriptor;

use crate::random_plan::{arb_small_db_recipe, SmallDbRecipe};

/// One random constraint over a [`SmallDbRecipe`] database (relations
/// `R0…`, integer columns `C0…`). All indices are wrapped at build time,
/// so every recipe yields a *valid* constraint.
#[derive(Clone, Debug, PartialEq)]
pub enum ConstraintRecipe {
    /// `C{determinant} → C{dependent}` on relation `R{relation}`.
    Fd {
        /// Relation index (wrapped).
        relation: u8,
        /// Determinant column index (wrapped).
        determinant: u8,
        /// Dependent column index (wrapped).
        dependent: u8,
    },
    /// `key(C{column})` on relation `R{relation}`.
    Key {
        /// Relation index (wrapped).
        relation: u8,
        /// Key column index (wrapped).
        column: u8,
    },
    /// `check(C{column} op value)` on relation `R{relation}`.
    RowFilter {
        /// Relation index (wrapped).
        relation: u8,
        /// Filtered column index (wrapped).
        column: u8,
        /// Comparison operator (wrapped over `=`, `<>`, `<`, `<=`, `>`, `>=`).
        op: u8,
        /// Right-hand constant (wrapped into the value domain).
        value: u8,
    },
    /// `R{child}(C{child_column}) ⊆ R{parent}(C{parent_column})`.
    Ind {
        /// Child relation index (wrapped).
        child: u8,
        /// Child column index (wrapped).
        child_column: u8,
        /// Parent relation index (wrapped).
        parent: u8,
        /// Parent column index (wrapped).
        parent_column: u8,
    },
    /// A two-atom denial constraint: no co-existing pair of tuples from
    /// `R{left}` and `R{right}` with equal join columns.
    Denial {
        /// Left atom relation index (wrapped).
        left: u8,
        /// Left join column index (wrapped).
        left_column: u8,
        /// Right atom relation index (wrapped).
        right: u8,
        /// Right join column index (wrapped).
        right_column: u8,
    },
}

impl ConstraintRecipe {
    /// Materialises the constraint against `db`, wrapping every index into
    /// range (the result always passes `Constraint::validate`).
    pub fn build(&self, db: &ProbDb) -> Constraint {
        let names = db.relation_names();
        let rel = |index: u8| names[index as usize % names.len()].clone();
        let col = |relation: &str, index: u8| {
            let arity = db
                .relation(relation)
                .expect("wrapped relation name exists")
                .schema()
                .arity();
            format!("C{}", index as usize % arity)
        };
        match *self {
            ConstraintRecipe::Fd {
                relation,
                determinant,
                dependent,
            } => {
                let r = rel(relation);
                let det = col(&r, determinant);
                // A dependent equal to the determinant is a trivial FD;
                // shift it off the determinant when the arity allows.
                let arity = db.relation(&r).unwrap().schema().arity();
                let mut dep = col(&r, dependent);
                if dep == det && arity > 1 {
                    dep = col(&r, dependent.wrapping_add(1));
                }
                Constraint::functional_dependency(&r, &[&det], &[&dep])
            }
            ConstraintRecipe::Key { relation, column } => {
                let r = rel(relation);
                let c = col(&r, column);
                Constraint::key(&r, &[&c])
            }
            ConstraintRecipe::RowFilter {
                relation,
                column,
                op,
                value,
            } => {
                let r = rel(relation);
                let c = col(&r, column);
                let op = [
                    Comparison::Eq,
                    Comparison::Ne,
                    Comparison::Lt,
                    Comparison::Le,
                    Comparison::Gt,
                    Comparison::Ge,
                ][op as usize % 6];
                let constant = (value % 5) as i64;
                Constraint::row_filter(&r, Predicate::cmp(Expr::col(&c), op, Expr::val(constant)))
            }
            ConstraintRecipe::Ind {
                child,
                child_column,
                parent,
                parent_column,
            } => {
                let c = rel(child);
                let p = rel(parent);
                let cc = col(&c, child_column);
                let pc = col(&p, parent_column);
                Constraint::inclusion_dependency(&c, &[&cc], &p, &[&pc])
            }
            ConstraintRecipe::Denial {
                left,
                left_column,
                right,
                right_column,
            } => {
                let l = rel(left);
                let r = rel(right);
                let lc = col(&l, left_column);
                let rc = col(&r, right_column);
                // Column references follow the join concatenation rule:
                // the left atom's columns keep their plain names, the
                // right atom's are alias-qualified when they clash with a
                // left column (all SmallDbRecipe columns are `C{i}`, so a
                // clash is simply "the left arity covers the index").
                let left_arity = db.relation(&l).unwrap().schema().arity();
                let right_index: usize = rc[1..].parse().expect("column names are C{i}");
                let right_ref = if right_index < left_arity {
                    format!("den_r.{rc}")
                } else {
                    rc.clone()
                };
                Constraint::denial(
                    "den",
                    &[(&l, "den_l"), (&r, "den_r")],
                    Predicate::cols_eq(&lc, &right_ref),
                )
            }
        }
    }
}

/// A full differential test case: a random small database, NULL
/// injections, and a constraint set.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintCaseRecipe {
    /// The database recipe.
    pub db: SmallDbRecipe,
    /// Positions overwritten with NULL: `(relation, row, column)`, each
    /// wrapped into range (ignored when the relation has no rows).
    pub nulls: Vec<(u8, u8, u8)>,
    /// The constraints (wrapped at build time).
    pub constraints: Vec<ConstraintRecipe>,
}

impl ConstraintCaseRecipe {
    /// Materialises the database with the NULL injections applied.
    pub fn build_db(&self) -> ProbDb {
        let mut db = self.db.build();
        let names = db.relation_names();
        for &(rel, row, column) in &self.nulls {
            let name = &names[rel as usize % names.len()];
            let relation = db.relation_mut(name).expect("relation exists");
            let rows = relation.rows_mut();
            if rows.is_empty() {
                continue;
            }
            let row = row as usize % rows.len();
            let (tuple, _) = &mut rows[row];
            let column = column as usize % tuple.arity().max(1);
            let mut values = tuple.values().to_vec();
            values[column] = Value::Null;
            *tuple = Tuple::new(values);
        }
        db
    }

    /// Materialises the constraint set against `db`.
    pub fn build_constraints(&self, db: &ProbDb) -> Vec<Constraint> {
        self.constraints.iter().map(|c| c.build(db)).collect()
    }
}

fn arb_constraint_recipe() -> impl Strategy<Value = ConstraintRecipe> {
    // The vendored proptest shim has no `prop_oneof`: pick the variant
    // with a discriminant component instead.
    (0..5u8, 0..3u8, 0..4u8, 0..3u8, 0..6u8, 0..5u8).prop_map(
        |(kind, relation, column_a, relation_b, misc, value)| match kind {
            0 => ConstraintRecipe::Fd {
                relation,
                determinant: column_a,
                dependent: misc % 4,
            },
            1 => ConstraintRecipe::Key {
                relation,
                column: column_a,
            },
            2 => ConstraintRecipe::RowFilter {
                relation,
                column: column_a,
                op: misc,
                value,
            },
            3 => ConstraintRecipe::Ind {
                child: relation,
                child_column: column_a,
                parent: relation_b,
                parent_column: misc % 4,
            },
            _ => ConstraintRecipe::Denial {
                left: relation,
                left_column: column_a,
                right: relation_b,
                right_column: misc % 4,
            },
        },
    )
}

/// Strategy for full differential cases: a small database (≤ 3 relations
/// of ≤ 5 rows over ≤ 4 world variables), up to three NULL injections and
/// one to three constraints. Satisfiability is *not* guaranteed — the
/// harness skips unsatisfiable sets (they are themselves covered by
/// dedicated regression tests).
pub fn arb_constraint_case() -> impl Strategy<Value = ConstraintCaseRecipe> {
    (
        arb_small_db_recipe(),
        collection::vec((0..3u8, 0..5u8, 0..3u8), 0..4),
        collection::vec(arb_constraint_recipe(), 1..4),
    )
        .prop_map(|(db, nulls, constraints)| ConstraintCaseRecipe {
            db,
            nulls,
            constraints,
        })
}

/// Configuration of the deterministic FK/constraint workload fixture used
/// by the `constraint_pipeline` bench and its ≥ 3x acceptance test.
#[derive(Clone, Copy, Debug)]
pub struct ConstraintWorkloadConfig {
    /// Number of departments (the IND parent relation).
    pub departments: usize,
    /// Number of people (the constrained child relation).
    pub people: usize,
    /// Number of SSN conflicts (pairs of people sharing an SSN): each
    /// contributes one Key-violation descriptor.
    pub conflicts: usize,
    /// Number of people referencing a non-existent department: each
    /// contributes IND-violation worlds.
    pub dangling: usize,
    /// Number of people with an out-of-range age: each contributes one
    /// RowFilter-violation descriptor.
    pub out_of_range: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConstraintWorkloadConfig {
    fn default() -> Self {
        ConstraintWorkloadConfig {
            departments: 8,
            people: 400,
            conflicts: 2,
            dangling: 2,
            out_of_range: 2,
            seed: 2008,
        }
    }
}

/// A deterministic two-relation workload exercising every constraint
/// family at once: `person(ID, SSN, DEPT, AGE)` and `dept(NAME)`, with a
/// configurable (small) number of violations per constraint so the
/// satisfying world-set stays tractable while the *database* is large
/// enough that per-constraint posterior materialisation dominates the
/// sequential assert cost.
pub struct ConstraintWorkload {
    /// The database.
    pub db: ProbDb,
    /// The canonical constraint set: `key(person.SSN)`,
    /// `person(DEPT) ⊆ dept(NAME)`, `check(0 ≤ AGE ≤ 120)` and a
    /// cross-relation denial constraint ("no person older than 150
    /// co-exists with their department").
    pub constraints: Vec<Constraint>,
}

impl ConstraintWorkload {
    /// Generates the workload.
    pub fn generate(config: ConstraintWorkloadConfig) -> ConstraintWorkload {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut db = ProbDb::new();
        let mut dept = db
            .create_relation(Schema::new("dept", &[("NAME", ColumnType::Int)]))
            .unwrap();
        for d in 0..config.departments {
            let var = db
                .world_table_mut()
                .add_boolean(&format!("d{d}"), 0.9)
                .unwrap();
            dept.push(
                Tuple::new(vec![Value::Int(d as i64)]),
                WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).unwrap(),
            );
        }
        db.insert_relation(dept).unwrap();

        let mut person = db
            .create_relation(Schema::new(
                "person",
                &[
                    ("ID", ColumnType::Int),
                    ("SSN", ColumnType::Int),
                    ("DEPT", ColumnType::Int),
                    ("AGE", ColumnType::Int),
                ],
            ))
            .unwrap();
        for p in 0..config.people {
            let probability = 0.3 + 0.6 * rng.random_range(0.0..1.0);
            let var = db
                .world_table_mut()
                .add_boolean(&format!("p{p}"), probability)
                .unwrap();
            // The first `conflicts` people duplicate the SSN of the person
            // `conflicts` places later; the next `dangling` reference a
            // department past the end; the next `out_of_range` have an
            // impossible age. Everyone else is clean and unique.
            let ssn = if p < config.conflicts {
                (p + config.conflicts) as i64
            } else {
                p as i64
            };
            let dept_ref = if (config.conflicts..config.conflicts + config.dangling).contains(&p) {
                (config.departments + p) as i64
            } else {
                rng.random_range(0..config.departments) as i64
            };
            let bad_age_start = config.conflicts + config.dangling;
            let age = if (bad_age_start..bad_age_start + config.out_of_range).contains(&p) {
                200
            } else {
                rng.random_range(18..90i64)
            };
            person.push(
                Tuple::new(vec![
                    Value::Int(p as i64),
                    Value::Int(ssn),
                    Value::Int(dept_ref),
                    Value::Int(age),
                ]),
                WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).unwrap(),
            );
        }
        db.insert_relation(person).unwrap();

        let constraints = vec![
            Constraint::key("person", &["SSN"]),
            Constraint::inclusion_dependency("person", &["DEPT"], "dept", &["NAME"]),
            Constraint::row_filter("person", Predicate::between("AGE", 0i64, 120i64)),
            Constraint::denial(
                "no-ancient-employees",
                &[("person", "a"), ("dept", "d")],
                Predicate::cmp(Expr::col("AGE"), Comparison::Gt, Expr::val(150i64))
                    .and(Predicate::cols_eq("DEPT", "NAME")),
            ),
        ];
        ConstraintWorkload { db, constraints }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_query::assert_all;

    #[test]
    fn recipes_build_valid_constraints() {
        let case = ConstraintCaseRecipe {
            db: SmallDbRecipe {
                domains: vec![2, 2],
                probability_seed: 7,
                relations: vec![crate::random_plan::RelationRecipe {
                    arity: 2,
                    rows: vec![
                        crate::random_plan::RowRecipe {
                            values: vec![1, 2],
                            descriptor: vec![(0, 1)],
                        },
                        crate::random_plan::RowRecipe {
                            values: vec![1, 3],
                            descriptor: vec![(1, 1)],
                        },
                    ],
                }],
            },
            nulls: vec![(0, 1, 1)],
            constraints: vec![
                ConstraintRecipe::Fd {
                    relation: 0,
                    determinant: 0,
                    dependent: 0,
                },
                ConstraintRecipe::Key {
                    relation: 5,
                    column: 9,
                },
                ConstraintRecipe::RowFilter {
                    relation: 0,
                    column: 1,
                    op: 3,
                    value: 4,
                },
                ConstraintRecipe::Ind {
                    child: 0,
                    child_column: 0,
                    parent: 0,
                    parent_column: 1,
                },
                ConstraintRecipe::Denial {
                    left: 0,
                    left_column: 0,
                    right: 0,
                    right_column: 1,
                },
            ],
        };
        let db = case.build_db();
        // The NULL injection landed.
        assert!(db.relation("R0").unwrap().rows()[1]
            .0
            .get(1)
            .unwrap()
            .is_null());
        for constraint in case.build_constraints(&db) {
            constraint.validate(&db).expect("wrapped recipes are valid");
            // Both compilations run.
            let planned = constraint.violation_ws_set(&db).unwrap();
            let eager = uprob_query::reference::violation_ws_set(&constraint, &db).unwrap();
            assert_eq!(planned, eager, "{}", constraint.describe());
        }
    }

    #[test]
    fn workload_fixture_is_satisfiable_and_violating() {
        let workload = ConstraintWorkload::generate(ConstraintWorkloadConfig {
            departments: 4,
            people: 30,
            ..Default::default()
        });
        // Every constraint has at least one violating world…
        for constraint in &workload.constraints {
            let violations = constraint.violation_ws_set(&workload.db).unwrap();
            assert!(
                !violations.is_empty(),
                "{} should be violated somewhere",
                constraint.describe()
            );
        }
        // …and the conjunction is still satisfiable.
        let posterior =
            assert_all(&workload.db, &workload.constraints, &Default::default()).unwrap();
        assert!(posterior.confidence > 0.0 && posterior.confidence < 1.0);
    }
}
