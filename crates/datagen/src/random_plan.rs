//! Random small U-relational databases and random query plans for the
//! differential plan-equivalence harness (`tests/plan_equivalence.rs`).
//!
//! Mirrors the design of [`crate::random`]: everything the harness runs on
//! is generated from a plain-data, `Debug`-printable **recipe**
//! ([`PlanCaseRecipe`]), so a failing property prints exactly what is
//! needed to reproduce the case (`recipe.build_db()` +
//! `recipe.plan.build(&db)`).
//!
//! Databases are small (≤ 3 relations of ≤ 5 integer rows over ≤ 4 world
//! variables) so the eager reference interpreter — quadratic nested-loop
//! joins included — and brute-force confidence stay instant. Value domains
//! are narrow (`0..5`) so random equi-joins actually match, and descriptor
//! assignments reuse variables across relations so joins exercise the
//! consistency check and self-join plans hit identical-variable pairs.
//! Duplicate projection columns are generated on purpose: they stress the
//! first-match column-resolution invariants the optimizer must respect.

use proptest::{collection, Strategy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uprob_urel::{ColumnType, Comparison, Expr, Plan, Predicate, ProbDb, Schema, Tuple, Value};
use uprob_wsd::{ValueIndex, VarId, WsDescriptor};

use crate::random::random_distribution;

/// Number of distinct integer values appearing in generated tuples.
const VALUE_DOMAIN: u8 = 5;

/// One row of a generated relation: integer values (one per column) plus
/// raw `(variable, value)` descriptor pairs (wrapped into range at build
/// time; the first assignment of a variable wins).
#[derive(Clone, Debug, PartialEq)]
pub struct RowRecipe {
    /// One value per column, each taken modulo `VALUE_DOMAIN` (5).
    pub values: Vec<u8>,
    /// Raw descriptor assignments, like
    /// [`crate::SmallInstanceRecipe::query`].
    pub descriptor: Vec<(u8, u8)>,
}

/// A generated relation: `R{i}` with integer columns `C0..C{arity}`.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationRecipe {
    /// Number of columns (1..=3).
    pub arity: u8,
    /// The rows (0..=5; empty relations exercise empty-relation pruning).
    pub rows: Vec<RowRecipe>,
}

/// A compact, printable recipe for a random small probabilistic database.
#[derive(Clone, Debug, PartialEq)]
pub struct SmallDbRecipe {
    /// Domain size per world variable (each in `2..=3`).
    pub domains: Vec<u8>,
    /// Seed for the per-variable (non-uniform) probability distributions.
    pub probability_seed: u64,
    /// The relations, named `R0`, `R1`, … with columns `C0`, `C1`, ….
    pub relations: Vec<RelationRecipe>,
}

impl SmallDbRecipe {
    /// Materialises the database: world table with seed-derived
    /// distributions, then one U-relation per [`RelationRecipe`].
    pub fn build(&self) -> ProbDb {
        let mut rng = StdRng::seed_from_u64(self.probability_seed);
        let mut db = ProbDb::new();
        let vars: Vec<VarId> = self
            .domains
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let alternatives = random_distribution(&mut rng, size as usize);
                db.world_table_mut()
                    .add_variable(&format!("v{i}"), &alternatives)
                    .expect("generated distribution is valid")
            })
            .collect();
        for (index, recipe) in self.relations.iter().enumerate() {
            let columns: Vec<(String, ColumnType)> = (0..recipe.arity)
                .map(|c| (format!("C{c}"), ColumnType::Int))
                .collect();
            let column_refs: Vec<(&str, ColumnType)> =
                columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let schema = Schema::new(&format!("R{index}"), &column_refs);
            let mut relation = db.create_relation(schema).expect("fresh relation name");
            for row in &recipe.rows {
                let mut values: Vec<Value> = row
                    .values
                    .iter()
                    .map(|&v| Value::Int((v % VALUE_DOMAIN) as i64))
                    .collect();
                values.resize(recipe.arity as usize, Value::Int(0));
                let mut descriptor = WsDescriptor::empty();
                for &(var_idx, val) in &row.descriptor {
                    let var_idx = var_idx as usize % vars.len();
                    let domain = self.domains[var_idx] as u16;
                    // First assignment of a variable wins.
                    let _ = descriptor.assign(vars[var_idx], ValueIndex(val as u16 % domain));
                }
                relation.push(Tuple::new(values), descriptor);
            }
            db.insert_relation(relation).expect("valid relation");
        }
        db
    }
}

/// A random comparison atom; all indices are wrapped at build time.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomRecipe {
    /// Left column (index into the schema, wrapped).
    pub column: u8,
    /// Comparison operator (wrapped over the six operators).
    pub op: u8,
    /// Right side: a constant (`Ok`, wrapped into `VALUE_DOMAIN` (5)) or
    /// another column (`Err`, wrapped).
    pub rhs: std::result::Result<u8, u8>,
}

/// A random predicate: one or two atoms, conjoined or disjoined, possibly
/// negated.
#[derive(Clone, Debug, PartialEq)]
pub struct PredicateRecipe {
    /// The comparison atoms (1..=2).
    pub atoms: Vec<AtomRecipe>,
    /// `true`: `OR` the atoms; `false`: `AND` them.
    pub disjunctive: bool,
    /// Negate the combined predicate.
    pub negate: bool,
}

impl PredicateRecipe {
    /// Builds the predicate against `schema` (a schema with no columns
    /// yields `TRUE`).
    pub fn build(&self, schema: &Schema) -> Predicate {
        if schema.arity() == 0 {
            return Predicate::True;
        }
        let column_name = |idx: u8| schema.columns()[idx as usize % schema.arity()].name.clone();
        let ops = [
            Comparison::Eq,
            Comparison::Ne,
            Comparison::Lt,
            Comparison::Le,
            Comparison::Gt,
            Comparison::Ge,
        ];
        let mut combined: Option<Predicate> = None;
        for atom in &self.atoms {
            let left = Expr::col(&column_name(atom.column));
            let op = ops[atom.op as usize % ops.len()];
            let right = match atom.rhs {
                Ok(constant) => Expr::val((constant % VALUE_DOMAIN) as i64),
                Err(column) => Expr::col(&column_name(column)),
            };
            let cmp = Predicate::cmp(left, op, right);
            combined = Some(match combined {
                None => cmp,
                Some(acc) if self.disjunctive => acc.or(cmp),
                Some(acc) => acc.and(cmp),
            });
        }
        let predicate = combined.unwrap_or(Predicate::True);
        if self.negate {
            predicate.not()
        } else {
            predicate
        }
    }

    fn random(rng: &mut StdRng) -> PredicateRecipe {
        let atoms = (0..rng.random_range(1..=2usize))
            .map(|_| AtomRecipe {
                column: rng.random_range(0..8u32) as u8,
                op: rng.random_range(0..6u32) as u8,
                rhs: if rng.random_range(0..3u32) == 0 {
                    Err(rng.random_range(0..8u32) as u8)
                } else {
                    Ok(rng.random_range(0..VALUE_DOMAIN as u32) as u8)
                },
            })
            .collect();
        PredicateRecipe {
            atoms,
            disjunctive: rng.random_range(0..3u32) == 0,
            negate: rng.random_range(0..5u32) == 0,
        }
    }
}

/// A random plan shape; all relation/column indices are wrapped against
/// the actual schemas at build time, so every recipe builds a valid plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanRecipe {
    /// Scan of relation `R{relation % num_relations}`.
    Scan {
        /// Raw relation index.
        relation: u8,
    },
    /// Selection with a random predicate.
    Select {
        /// Input recipe.
        input: Box<PlanRecipe>,
        /// Predicate recipe.
        predicate: PredicateRecipe,
    },
    /// Projection onto 1..=3 (possibly duplicate) columns.
    Project {
        /// Input recipe.
        input: Box<PlanRecipe>,
        /// Raw column indices (wrapped).
        columns: Vec<u8>,
    },
    /// Equi-join on one wrapped column pair plus an optional extra
    /// predicate over the concatenated schema.
    Join {
        /// Left input recipe.
        left: Box<PlanRecipe>,
        /// Right input recipe.
        right: Box<PlanRecipe>,
        /// `(left column, right column)` raw indices for the equi-join.
        on: (u8, u8),
        /// Optional extra predicate over the concatenated schema.
        extra: Option<PredicateRecipe>,
    },
    /// Cross product.
    Product {
        /// Left input recipe.
        left: Box<PlanRecipe>,
        /// Right input recipe.
        right: Box<PlanRecipe>,
    },
    /// Union; operands of different arity are first projected onto their
    /// leading columns so the union is always compatible.
    Union {
        /// Left input recipe.
        left: Box<PlanRecipe>,
        /// Right input recipe.
        right: Box<PlanRecipe>,
    },
    /// Rename to `N{tag}`.
    Rename {
        /// Input recipe.
        input: Box<PlanRecipe>,
        /// Raw name tag.
        tag: u8,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input recipe.
        input: Box<PlanRecipe>,
    },
}

impl PlanRecipe {
    /// Builds the plan against `db`, wrapping all indices so the result is
    /// always a valid, type-correct plan over the database's schemas.
    pub fn build(&self, db: &ProbDb) -> Plan {
        match self {
            PlanRecipe::Scan { relation } => {
                let names = db.relation_names();
                Plan::scan(&names[*relation as usize % names.len()])
            }
            PlanRecipe::Select { input, predicate } => {
                let plan = input.build(db);
                let schema = plan.output_schema(db).expect("recipe plans are valid");
                let predicate = predicate.build(&schema);
                plan.select(predicate)
            }
            PlanRecipe::Project { input, columns } => {
                let plan = input.build(db);
                let schema = plan.output_schema(db).expect("recipe plans are valid");
                if schema.arity() == 0 {
                    return plan;
                }
                let names: Vec<String> = columns
                    .iter()
                    .map(|&c| schema.columns()[c as usize % schema.arity()].name.clone())
                    .collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                plan.project(&refs)
            }
            PlanRecipe::Join {
                left,
                right,
                on,
                extra,
            } => {
                let l = left.build(db);
                let r = right.build(db);
                let ls = l.output_schema(db).expect("recipe plans are valid");
                let rs = r.output_schema(db).expect("recipe plans are valid");
                let concat = ls.concat(&rs, ls.name());
                let mut conjuncts = Vec::new();
                if ls.arity() > 0 && rs.arity() > 0 {
                    let li = on.0 as usize % ls.arity();
                    let ri = ls.arity() + on.1 as usize % rs.arity();
                    conjuncts.push(Predicate::cols_eq(
                        &concat.columns()[li].name,
                        &concat.columns()[ri].name,
                    ));
                }
                if let Some(extra) = extra {
                    conjuncts.push(extra.build(&concat));
                }
                l.join_on(r, Predicate::conjoin(conjuncts))
            }
            PlanRecipe::Product { left, right } => left.build(db).product(right.build(db)),
            PlanRecipe::Union { left, right } => {
                let l = left.build(db);
                let r = right.build(db);
                let ls = l.output_schema(db).expect("recipe plans are valid");
                let rs = r.output_schema(db).expect("recipe plans are valid");
                let arity = ls.arity().min(rs.arity());
                let narrow = |plan: Plan, schema: &Schema| {
                    if schema.arity() == arity {
                        plan
                    } else {
                        let names: Vec<&str> = schema.columns()[..arity]
                            .iter()
                            .map(|c| c.name.as_str())
                            .collect();
                        plan.project(&names)
                    }
                };
                narrow(l, &ls).union(narrow(r, &rs))
            }
            PlanRecipe::Rename { input, tag } => input.build(db).rename(&format!("N{tag}")),
            PlanRecipe::Distinct { input } => input.build(db).distinct(),
        }
    }

    /// Generates a random recipe with at most `budget` operator nodes above
    /// the scans (deterministic in `seed`).
    pub fn random(seed: u64, budget: usize) -> PlanRecipe {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::generate(&mut rng, budget)
    }

    fn generate(rng: &mut StdRng, budget: usize) -> PlanRecipe {
        if budget == 0 {
            return PlanRecipe::Scan {
                relation: rng.random_range(0..8u32) as u8,
            };
        }
        match rng.random_range(0..100u32) {
            0..=19 => PlanRecipe::Select {
                input: Box::new(Self::generate(rng, budget - 1)),
                predicate: PredicateRecipe::random(rng),
            },
            20..=34 => PlanRecipe::Project {
                input: Box::new(Self::generate(rng, budget - 1)),
                columns: (0..rng.random_range(1..=3usize))
                    .map(|_| rng.random_range(0..8u32) as u8)
                    .collect(),
            },
            35..=54 => {
                let left_budget = rng.random_range(0..budget);
                PlanRecipe::Join {
                    left: Box::new(Self::generate(rng, left_budget)),
                    right: Box::new(Self::generate(rng, budget - 1 - left_budget)),
                    on: (
                        rng.random_range(0..8u32) as u8,
                        rng.random_range(0..8u32) as u8,
                    ),
                    extra: (rng.random_range(0..3u32) == 0).then(|| PredicateRecipe::random(rng)),
                }
            }
            55..=62 => {
                let left_budget = rng.random_range(0..budget);
                PlanRecipe::Product {
                    left: Box::new(Self::generate(rng, left_budget)),
                    right: Box::new(Self::generate(rng, budget - 1 - left_budget)),
                }
            }
            63..=77 => {
                let left_budget = rng.random_range(0..budget);
                PlanRecipe::Union {
                    left: Box::new(Self::generate(rng, left_budget)),
                    right: Box::new(Self::generate(rng, budget - 1 - left_budget)),
                }
            }
            78..=87 => PlanRecipe::Rename {
                input: Box::new(Self::generate(rng, budget - 1)),
                tag: rng.random_range(0..4u32) as u8,
            },
            _ => PlanRecipe::Distinct {
                input: Box::new(Self::generate(rng, budget - 1)),
            },
        }
    }
}

/// One differential test case: a database recipe plus a plan recipe over
/// it. The `Debug` output of this struct is the full reproduction recipe.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanCaseRecipe {
    /// The database recipe.
    pub db: SmallDbRecipe,
    /// The plan recipe.
    pub plan: PlanRecipe,
}

impl PlanCaseRecipe {
    /// Materialises the database ([`SmallDbRecipe::build`]).
    pub fn build_db(&self) -> ProbDb {
        self.db.build()
    }
}

/// Proptest strategy for one relation over `num_vars` world variables.
fn arb_relation_recipe(num_vars: usize) -> impl Strategy<Value = RelationRecipe> {
    (1u8..=3).prop_flat_map(move |arity| {
        collection::vec(
            (
                collection::vec(0u8..VALUE_DOMAIN, arity as usize),
                collection::vec((0..num_vars as u8, 0..3u8), 0..=2),
            ),
            0..=5,
        )
        .prop_map(move |rows| RelationRecipe {
            arity,
            rows: rows
                .into_iter()
                .map(|(values, descriptor)| RowRecipe { values, descriptor })
                .collect(),
        })
    })
}

/// Proptest strategy for [`SmallDbRecipe`]: 1–3 relations of ≤ 5 rows over
/// 2–4 world variables with domain sizes 2–3 (≤ 81 worlds: brute force is
/// instant).
pub fn arb_small_db_recipe() -> impl Strategy<Value = SmallDbRecipe> {
    (2usize..=4).prop_flat_map(|num_vars| {
        (
            collection::vec(2u8..=3, num_vars),
            0u64..u64::MAX,
            collection::vec(arb_relation_recipe(num_vars), 1..=3),
        )
            .prop_map(|(domains, probability_seed, relations)| SmallDbRecipe {
                domains,
                probability_seed,
                relations,
            })
    })
}

/// Proptest strategy for [`PlanCaseRecipe`]: a small database plus a plan
/// of up to 6 operator nodes. The plan recipe is derived (deterministically)
/// from a seed inside the strategy, so the printed counterexample is the
/// fully materialised recipe, not an opaque seed.
pub fn arb_plan_case() -> impl Strategy<Value = PlanCaseRecipe> {
    (arb_small_db_recipe(), 0u64..u64::MAX, 1usize..=6).prop_map(|(db, seed, budget)| {
        PlanCaseRecipe {
            db,
            plan: PlanRecipe::random(seed, budget),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    #[test]
    fn db_recipes_build_valid_databases() {
        let recipe = SmallDbRecipe {
            domains: vec![2, 3],
            probability_seed: 7,
            relations: vec![
                RelationRecipe {
                    arity: 2,
                    rows: vec![
                        RowRecipe {
                            values: vec![1, 9],
                            descriptor: vec![(0, 1), (7, 9)],
                        },
                        RowRecipe {
                            values: vec![3, 0],
                            descriptor: vec![],
                        },
                    ],
                },
                RelationRecipe {
                    arity: 1,
                    rows: vec![],
                },
            ],
        };
        let db = recipe.build();
        assert!(db.validate().is_ok());
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.relation("R0").unwrap().len(), 2);
        assert!(db.relation("R1").unwrap().is_empty());
        // Values are wrapped into the domain.
        let row = &db.relation("R0").unwrap().rows()[0];
        assert_eq!(row.0.get(1), Some(&Value::Int(9 % VALUE_DOMAIN as i64)));
        // Deterministic.
        assert_eq!(
            db.relation("R0").unwrap().rows(),
            recipe.build().relation("R0").unwrap().rows()
        );
    }

    #[test]
    fn plan_recipes_build_valid_plans() {
        let strategy = arb_plan_case();
        let mut rng = TestRng::new(99);
        for _ in 0..60 {
            let case = strategy.generate(&mut rng);
            let db = case.build_db();
            let plan = case.plan.build(&db);
            let schema = plan
                .output_schema(&db)
                .expect("recipe-built plans always validate");
            // And they execute on every path.
            let eager = uprob_reference::urel::execute_plan(&db, &plan).expect("eager execution");
            assert_eq!(eager.schema(), &schema);
        }
    }

    #[test]
    fn plan_generation_is_deterministic_in_the_seed() {
        let a = PlanRecipe::random(5, 4);
        let b = PlanRecipe::random(5, 4);
        assert_eq!(a, b);
        let c = PlanRecipe::random(6, 4);
        assert!(a != c || PlanRecipe::random(7, 4) != a);
    }

    #[test]
    fn predicate_recipes_build_against_any_schema() {
        let recipe = PredicateRecipe {
            atoms: vec![
                AtomRecipe {
                    column: 9,
                    op: 11,
                    rhs: Ok(200),
                },
                AtomRecipe {
                    column: 1,
                    op: 0,
                    rhs: Err(7),
                },
            ],
            disjunctive: true,
            negate: true,
        };
        let schema = Schema::new("R", &[("C0", ColumnType::Int), ("C1", ColumnType::Int)]);
        let p = recipe.build(&schema);
        assert!(p.validate(&schema).is_ok());
        let nullary = Schema::new("B", &[]);
        assert_eq!(recipe.build(&nullary), Predicate::True);
    }
}
