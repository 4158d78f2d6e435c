//! Selection and join predicates.
//!
//! Predicates are small expression trees over column references and
//! constants, evaluated against a tuple together with its schema. Join
//! conditions are ordinary predicates over the concatenated schema of the
//! two operands (see [`crate::Schema::concat`]).

use std::fmt;
use uprob_wsd::FxHashMap;

use crate::error::UrelError;
use crate::schema::{ColumnType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A reference to a column by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// Column name as it appears in the schema the predicate is evaluated
    /// against.
    pub name: String,
}

/// A scalar expression: a column reference or a constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(ColumnRef),
    /// A constant value.
    Const(Value),
}

impl Expr {
    /// Column reference expression.
    pub fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef {
            name: name.to_string(),
        })
    }

    /// Constant expression.
    pub fn val(value: impl Into<Value>) -> Expr {
        Expr::Const(value.into())
    }

    /// Evaluates the expression against a tuple.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Column(c) => {
                let idx = schema.column_index(&c.name)?;
                tuple
                    .get(idx)
                    .cloned()
                    .ok_or_else(|| UrelError::TupleSchemaMismatch {
                        relation: schema.name().to_string(),
                        detail: format!("tuple has no value at position {idx}"),
                    })
            }
        }
    }
}

impl Expr {
    /// The statically known type of the expression against `schema`:
    /// the column type for references, the value's type for non-NULL
    /// constants, `None` for the NULL constant (which compares with every
    /// type under the SQL rule that the comparison is never satisfied).
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::UnknownColumn`] for an unresolvable reference.
    pub fn static_type(&self, schema: &Schema) -> Result<Option<ColumnType>> {
        match self {
            Expr::Column(c) => {
                let idx = schema.column_index(&c.name)?;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "idx was just resolved by `column_index` on the same schema"
                )]
                Ok(Some(schema.columns()[idx].column_type))
            }
            Expr::Const(Value::Null) => Ok(None),
            Expr::Const(Value::Bool(_)) => Ok(Some(ColumnType::Bool)),
            Expr::Const(Value::Int(_)) => Ok(Some(ColumnType::Int)),
            Expr::Const(Value::Float(_)) => Ok(Some(ColumnType::Float)),
            Expr::Const(Value::Str(_)) => Ok(Some(ColumnType::Str)),
        }
    }

    /// Rewrites column references through `map`; returns `None` if a
    /// referenced column has no entry (the optimizer then keeps the
    /// predicate where it is instead of pushing it down).
    fn rename_columns(&self, map: &FxHashMap<String, String>) -> Option<Expr> {
        match self {
            Expr::Const(v) => Some(Expr::Const(v.clone())),
            Expr::Column(c) => map.get(&c.name).map(|n| Expr::col(n)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{}", c.name),
            Expr::Const(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Comparison {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Comparison {
    /// Applies the comparison to two values with SQL NULL semantics (a
    /// comparison involving NULL is never satisfied). Shared by the
    /// name-resolving [`Predicate::eval`] and the executor's compiled,
    /// positional predicates — one copy, so the eager and the pipelined
    /// path cannot drift apart.
    pub(crate) fn apply(self, left: &Value, right: &Value) -> bool {
        // SQL-style: comparisons involving NULL are never satisfied.
        if left.is_null() || right.is_null() {
            return false;
        }
        let ord = left.cmp(right);
        match self {
            Comparison::Eq => ord == std::cmp::Ordering::Equal,
            Comparison::Ne => ord != std::cmp::Ordering::Equal,
            Comparison::Lt => ord == std::cmp::Ordering::Less,
            Comparison::Le => ord != std::cmp::Ordering::Greater,
            Comparison::Gt => ord == std::cmp::Ordering::Greater,
            Comparison::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparison::Eq => "=",
            Comparison::Ne => "<>",
            Comparison::Lt => "<",
            Comparison::Le => "<=",
            Comparison::Gt => ">",
            Comparison::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A Boolean predicate over one tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Comparison of two scalar expressions.
    Cmp {
        /// Left operand.
        left: Expr,
        /// Operator.
        op: Comparison,
        /// Right operand.
        right: Expr,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `left op right`.
    pub fn cmp(left: Expr, op: Comparison, right: Expr) -> Predicate {
        Predicate::Cmp { left, op, right }
    }

    /// `column = constant`.
    pub fn col_eq(column: &str, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(Expr::col(column), Comparison::Eq, Expr::val(value))
    }

    /// `left-column = right-column` (typical equi-join condition).
    pub fn cols_eq(left: &str, right: &str) -> Predicate {
        Predicate::cmp(Expr::col(left), Comparison::Eq, Expr::col(right))
    }

    /// `column BETWEEN low AND high` (inclusive).
    pub fn between(column: &str, low: impl Into<Value>, high: impl Into<Value>) -> Predicate {
        Predicate::cmp(Expr::col(column), Comparison::Ge, Expr::val(low)).and(Predicate::cmp(
            Expr::col(column),
            Comparison::Le,
            Expr::val(high),
        ))
    }

    /// Conjunction with another predicate.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction with another predicate.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[expect(
        clippy::should_implement_trait,
        reason = "a builder combinator named to sit beside `and` / `or`, not an operator overload"
    )]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate on a tuple.
    ///
    /// # Errors
    ///
    /// Returns an error if a referenced column does not exist.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Cmp { left, op, right } => {
                let l = left.eval(schema, tuple)?;
                let r = right.eval(schema, tuple)?;
                Ok(op.apply(&l, &r))
            }
            Predicate::And(a, b) => Ok(a.eval(schema, tuple)? && b.eval(schema, tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(schema, tuple)? || b.eval(schema, tuple)?),
            Predicate::Not(p) => Ok(!p.eval(schema, tuple)?),
        }
    }

    /// Statically checks the predicate against a schema: every referenced
    /// column must exist and the two sides of each comparison must have
    /// comparable types.
    ///
    /// Comparable means: equal types, or both numeric (`INT`/`FLOAT`)
    /// under an *ordering* operator — mixed-numeric `<`/`<=`/`>`/`>=`
    /// compare as floats with ties broken by type ([`Value`]'s total
    /// order). Mixed-numeric `=`/`<>` is rejected: [`Value`] equality
    /// never identifies `Int(24)` with `Float(24.0)`, so such an equality
    /// is constantly false (and the inequality constantly true) — the
    /// silent-empty-answer class of query bug this check exists to catch,
    /// same as `STR = INT`.
    ///
    /// The plan validator runs this before execution, so a malformed
    /// predicate fails identically on the eager and the pipelined path —
    /// including plans whose execution would never reach the predicate
    /// (empty inputs, pruned branches).
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::UnknownColumn`] or [`UrelError::TypeError`].
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        match self {
            Predicate::True | Predicate::False => Ok(()),
            Predicate::Cmp { left, op, right } => {
                let lt = left.static_type(schema)?;
                let rt = right.static_type(schema)?;
                if let (Some(a), Some(b)) = (lt, rt) {
                    let numeric = |t| matches!(t, ColumnType::Int | ColumnType::Float);
                    let comparable = a == b
                        || (numeric(a)
                            && numeric(b)
                            && !matches!(op, Comparison::Eq | Comparison::Ne));
                    if !comparable {
                        return Err(UrelError::TypeError {
                            detail: format!("cannot compare {a} {op} {b} in '{left} {op} {right}'"),
                        });
                    }
                }
                Ok(())
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Predicate::Not(p) => p.validate(schema),
        }
    }

    /// Splits the predicate into its top-level conjuncts (flattening nested
    /// `AND`s; `OR`/`NOT` subtrees stay intact). `TRUE` conjuncts are
    /// dropped; splitting `TRUE` itself yields the empty list.
    pub fn into_conjuncts(self) -> Vec<Predicate> {
        let mut out = Vec::new();
        fn walk(p: Predicate, out: &mut Vec<Predicate>) {
            match p {
                Predicate::True => {}
                Predicate::And(a, b) => {
                    walk(*a, out);
                    walk(*b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// The conjunction of a list of predicates: `TRUE` for the empty list,
    /// `FALSE` as soon as a conjunct is `FALSE`, and the left-deep `AND`
    /// chain of the rest (dual of [`Predicate::into_conjuncts`]).
    pub fn conjoin(conjuncts: impl IntoIterator<Item = Predicate>) -> Predicate {
        let mut result: Option<Predicate> = None;
        for c in conjuncts {
            match c {
                Predicate::True => {}
                Predicate::False => return Predicate::False,
                c => {
                    result = Some(match result {
                        None => c,
                        Some(acc) => acc.and(c),
                    })
                }
            }
        }
        result.unwrap_or(Predicate::True)
    }

    /// The names of all referenced columns, de-duplicated, in first-use
    /// order.
    pub fn referenced_columns(&self) -> Vec<String> {
        fn walk(p: &Predicate, out: &mut Vec<String>) {
            match p {
                Predicate::True | Predicate::False => {}
                Predicate::Cmp { left, right, .. } => {
                    for expr in [left, right] {
                        if let Expr::Column(c) = expr {
                            if !out.iter().any(|n| n == &c.name) {
                                out.push(c.name.clone());
                            }
                        }
                    }
                }
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Predicate::Not(p) => walk(p, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Rewrites every column reference through `map` (used by pushdown
    /// through unions and joins, where the same column has different names
    /// above and below the operator). Returns `None` if a referenced column
    /// has no entry; the optimizer then leaves the predicate in place.
    pub fn rename_columns(&self, map: &FxHashMap<String, String>) -> Option<Predicate> {
        Some(match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp { left, op, right } => Predicate::Cmp {
                left: left.rename_columns(map)?,
                op: *op,
                right: right.rename_columns(map)?,
            },
            Predicate::And(a, b) => Predicate::And(
                Box::new(a.rename_columns(map)?),
                Box::new(b.rename_columns(map)?),
            ),
            Predicate::Or(a, b) => Predicate::Or(
                Box::new(a.rename_columns(map)?),
                Box::new(b.rename_columns(map)?),
            ),
            Predicate::Not(p) => Predicate::Not(Box::new(p.rename_columns(map)?)),
        })
    }

    /// Constant-folds the trivial connectives: `TRUE AND p → p`,
    /// `FALSE AND p → FALSE`, `TRUE OR p → TRUE`, `FALSE OR p → p`,
    /// `NOT TRUE → FALSE`, `NOT NOT p → p`. World-by-world equivalent to
    /// the input (comparisons are untouched).
    pub fn simplify(self) -> Predicate {
        match self {
            Predicate::And(a, b) => match (a.simplify(), b.simplify()) {
                (Predicate::False, _) | (_, Predicate::False) => Predicate::False,
                (Predicate::True, p) | (p, Predicate::True) => p,
                (a, b) => a.and(b),
            },
            Predicate::Or(a, b) => match (a.simplify(), b.simplify()) {
                (Predicate::True, _) | (_, Predicate::True) => Predicate::True,
                (Predicate::False, p) | (p, Predicate::False) => p,
                (a, b) => a.or(b),
            },
            Predicate::Not(p) => match p.simplify() {
                Predicate::True => Predicate::False,
                Predicate::False => Predicate::True,
                Predicate::Not(inner) => *inner,
                p => p.not(),
            },
            other => other,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn schema() -> Schema {
        Schema::new(
            "R",
            &[
                ("SSN", ColumnType::Int),
                ("NAME", ColumnType::Str),
                ("SCORE", ColumnType::Float),
            ],
        )
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![Value::Int(7), Value::str("Bill"), Value::Float(0.5)])
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let t = tuple();
        assert!(Predicate::col_eq("NAME", "Bill").eval(&s, &t).unwrap());
        assert!(!Predicate::col_eq("NAME", "John").eval(&s, &t).unwrap());
        assert!(
            Predicate::cmp(Expr::col("SSN"), Comparison::Gt, Expr::val(4i64))
                .eval(&s, &t)
                .unwrap()
        );
        assert!(
            Predicate::cmp(Expr::col("SSN"), Comparison::Le, Expr::val(7i64))
                .eval(&s, &t)
                .unwrap()
        );
        assert!(
            Predicate::cmp(Expr::col("SSN"), Comparison::Ne, Expr::val(4i64))
                .eval(&s, &t)
                .unwrap()
        );
        assert!(
            !Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(7i64))
                .eval(&s, &t)
                .unwrap()
        );
    }

    #[test]
    fn boolean_connectives() {
        let s = schema();
        let t = tuple();
        let p = Predicate::col_eq("NAME", "Bill").and(Predicate::col_eq("SSN", 7i64));
        assert!(p.eval(&s, &t).unwrap());
        let q = Predicate::col_eq("NAME", "John").or(Predicate::col_eq("SSN", 7i64));
        assert!(q.eval(&s, &t).unwrap());
        assert!(!q.clone().not().eval(&s, &t).unwrap());
        assert!(Predicate::True.eval(&s, &t).unwrap());
        assert!(!Predicate::False.eval(&s, &t).unwrap());
    }

    #[test]
    fn between_is_inclusive() {
        let s = schema();
        let t = tuple();
        assert!(Predicate::between("SCORE", 0.5, 0.8).eval(&s, &t).unwrap());
        assert!(Predicate::between("SCORE", 0.0, 0.5).eval(&s, &t).unwrap());
        assert!(!Predicate::between("SCORE", 0.6, 0.8).eval(&s, &t).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let t = Tuple::new(vec![Value::Null, Value::str("Bill"), Value::Float(0.5)]);
        assert!(!Predicate::col_eq("SSN", 7i64).eval(&s, &t).unwrap());
        assert!(
            !Predicate::cmp(Expr::col("SSN"), Comparison::Ne, Expr::val(7i64))
                .eval(&s, &t)
                .unwrap()
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let s = schema();
        let t = tuple();
        assert!(Predicate::col_eq("MISSING", 1i64).eval(&s, &t).is_err());
    }

    #[test]
    fn cols_eq_compares_two_columns() {
        let s = Schema::new("J", &[("A", ColumnType::Int), ("B", ColumnType::Int)]);
        let equal = Tuple::new(vec![Value::Int(3), Value::Int(3)]);
        let differ = Tuple::new(vec![Value::Int(3), Value::Int(4)]);
        let p = Predicate::cols_eq("A", "B");
        assert!(p.eval(&s, &equal).unwrap());
        assert!(!p.eval(&s, &differ).unwrap());
    }

    #[test]
    fn validate_catches_type_mismatches() {
        let s = schema();
        // Comparable: same type, or mixed numeric.
        assert!(Predicate::col_eq("NAME", "Bill").validate(&s).is_ok());
        assert!(Predicate::col_eq("SSN", 7i64).validate(&s).is_ok());
        // Mixed numeric: ordering comparisons are well defined...
        assert!(
            Predicate::cmp(Expr::col("SSN"), Comparison::Lt, Expr::val(2.5))
                .validate(&s)
                .is_ok()
        );
        assert!(
            Predicate::cmp(Expr::col("SSN"), Comparison::Ge, Expr::col("SCORE"))
                .validate(&s)
                .is_ok()
        );
        // ...but mixed-numeric equality can never be satisfied (Value
        // equality does not identify Int with Float), so it is rejected.
        assert!(matches!(
            Predicate::cols_eq("SSN", "SCORE").validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        assert!(matches!(
            Predicate::col_eq("SSN", 7.0).validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        assert!(matches!(
            Predicate::cmp(Expr::col("SCORE"), Comparison::Ne, Expr::val(7i64)).validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        // NULL compares (to false) with everything.
        assert!(
            Predicate::cmp(Expr::col("NAME"), Comparison::Eq, Expr::Const(Value::Null))
                .validate(&s)
                .is_ok()
        );
        // Incomparable combinations are static type errors.
        assert!(matches!(
            Predicate::col_eq("NAME", 7i64).validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        assert!(matches!(
            Predicate::col_eq("SSN", "seven").validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        assert!(matches!(
            Predicate::cols_eq("SSN", "NAME").validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        assert!(matches!(
            Predicate::cmp(Expr::col("SSN"), Comparison::Gt, Expr::val(true)).validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        // The error is found inside connectives and under negation.
        let nested = Predicate::col_eq("SSN", 1i64)
            .and(Predicate::col_eq("NAME", 2i64).not())
            .or(Predicate::True);
        assert!(matches!(
            nested.validate(&s),
            Err(UrelError::TypeError { .. })
        ));
        // Unknown columns are reported as such, not as type errors.
        assert!(matches!(
            Predicate::col_eq("MISSING", 1i64).validate(&s),
            Err(UrelError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn columns_resolve_after_rename_and_projection() {
        use crate::database::ProbDb;
        use crate::plan::Plan;
        use crate::tuple::Tuple;
        use uprob_wsd::WsDescriptor;

        let mut db = ProbDb::new();
        let mut r = db.create_relation(schema()).unwrap();
        r.push(
            Tuple::new(vec![Value::Int(7), Value::str("Bill"), Value::Float(0.5)]),
            WsDescriptor::empty(),
        );
        db.insert_relation(r).unwrap();
        let r = db.relation("R").unwrap();
        // After a projection the surviving columns keep their names, so a
        // predicate written against the projected schema evaluates
        // identically below the projection (the pushdown invariant).
        let projected = db
            .query(&Plan::scan("R").project(&["NAME", "SSN"]))
            .unwrap();
        let p = Predicate::col_eq("NAME", "Bill").and(Predicate::col_eq("SSN", 7i64));
        let (pt, pd) = (&projected.rows()[0].0, projected.schema());
        assert!(p.eval(pd, pt).unwrap());
        assert!(p.eval(r.schema(), &r.rows()[0].0).unwrap());
        // A column dropped by the projection no longer resolves.
        assert!(matches!(
            Predicate::col_eq("SCORE", 0.5).eval(pd, pt),
            Err(UrelError::UnknownColumn { .. })
        ));
        // Renaming changes only the relation name: unqualified references
        // keep resolving, and the new name drives the qualified
        // `rel.column` names produced by a subsequent self-join concat.
        let renamed = db.query(&Plan::scan("R").rename("R2")).unwrap();
        assert!(p.eval(renamed.schema(), &renamed.rows()[0].0).unwrap());
        let concat = r.schema().concat(renamed.schema(), "J");
        assert!(concat.has_column("R2.SSN"));
        let joined = r.rows()[0].0.concat(&renamed.rows()[0].0);
        assert!(Predicate::cols_eq("SSN", "R2.SSN")
            .eval(&concat, &joined)
            .unwrap());
        assert!(matches!(
            Predicate::cols_eq("SSN", "R.SSN").eval(&concat, &joined),
            Err(UrelError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn conjunct_splitting_round_trips() {
        let a = Predicate::col_eq("NAME", "Bill");
        let b = Predicate::col_eq("SSN", 7i64);
        let c = Predicate::between("SCORE", 0.0, 1.0); // itself an AND
        let p = a.clone().and(b.clone().and(c.clone()));
        let conjuncts = p.clone().into_conjuncts();
        // `between` contributes its own two comparisons: nested ANDs
        // flatten completely.
        assert_eq!(conjuncts.len(), 4);
        let rebuilt = Predicate::conjoin(conjuncts);
        let s = schema();
        let t = tuple();
        assert_eq!(rebuilt.eval(&s, &t).unwrap(), p.eval(&s, &t).unwrap());
        // OR/NOT subtrees are conjunction-opaque.
        let q = a.clone().or(b.clone()).and(c.clone().not());
        assert_eq!(q.into_conjuncts().len(), 2);
        // TRUE vanishes, FALSE absorbs.
        assert_eq!(Predicate::True.into_conjuncts().len(), 0);
        assert_eq!(Predicate::conjoin(vec![]), Predicate::True);
        assert_eq!(
            Predicate::conjoin(vec![a.clone(), Predicate::False, b.clone()]),
            Predicate::False
        );
        assert_eq!(Predicate::conjoin(vec![Predicate::True, a.clone()]), a);
    }

    #[test]
    fn referenced_columns_and_renaming() {
        let p = Predicate::cols_eq("A", "B")
            .and(Predicate::col_eq("A", 1i64))
            .or(Predicate::col_eq("C", 2i64).not());
        assert_eq!(p.referenced_columns(), vec!["A", "B", "C"]);
        let map: FxHashMap<String, String> = [("A", "X"), ("B", "Y"), ("C", "Z")]
            .into_iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let renamed = p.rename_columns(&map).unwrap();
        assert_eq!(renamed.referenced_columns(), vec!["X", "Y", "Z"]);
        // A reference outside the map blocks the rewrite entirely.
        let partial: FxHashMap<String, String> =
            [("A".to_string(), "X".to_string())].into_iter().collect();
        assert!(p.rename_columns(&partial).is_none());
        assert_eq!(
            Predicate::True.rename_columns(&FxHashMap::default()),
            Some(Predicate::True)
        );
    }

    #[test]
    fn simplify_folds_trivial_connectives() {
        let a = Predicate::col_eq("NAME", "Bill");
        assert_eq!(a.clone().and(Predicate::True).simplify(), a);
        assert_eq!(
            Predicate::True.and(Predicate::False).simplify(),
            Predicate::False
        );
        assert_eq!(a.clone().and(Predicate::False).simplify(), Predicate::False);
        assert_eq!(a.clone().or(Predicate::True).simplify(), Predicate::True);
        assert_eq!(Predicate::False.or(a.clone()).simplify(), a);
        assert_eq!(Predicate::True.not().simplify(), Predicate::False);
        assert_eq!(a.clone().not().not().simplify(), a);
        // Nested folding reaches through the tree.
        let nested = Predicate::True
            .and(a.clone())
            .or(Predicate::False)
            .not()
            .not();
        assert_eq!(nested.simplify(), a);
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::col_eq("NAME", "Bill").and(Predicate::between("SSN", 1i64, 9i64));
        let text = p.to_string();
        assert!(text.contains("NAME = 'Bill'"));
        assert!(text.contains("SSN >= 1"));
        assert!(text.contains("AND"));
    }
}
