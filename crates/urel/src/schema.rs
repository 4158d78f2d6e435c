//! Relation schemas: named, typed columns.

use std::fmt;

use crate::error::UrelError;
use crate::value::Value;
use crate::Result;

/// Type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// True if `value` is NULL or has this type.
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "STR",
            ColumnType::Bool => "BOOL",
        };
        write!(f, "{s}")
    }
}

/// A named, typed column of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within the schema, case-sensitive).
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
}

/// Schema of a U-relation: a relation name plus an ordered list of columns.
///
/// The ws-descriptor attached to every tuple is *not* part of the schema; it
/// plays the role of the `WSD` column of the paper and is carried alongside
/// the tuple by [`crate::URelation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    name: String,
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from `(column name, type)` pairs.
    pub fn new(name: &str, columns: &[(&str, ColumnType)]) -> Schema {
        Schema {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(|(n, t)| Column {
                    name: n.to_string(),
                    column_type: *t,
                })
                .collect(),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy of this schema under a different relation name.
    pub fn renamed(&self, name: &str) -> Schema {
        Schema {
            name: name.to_string(),
            columns: self.columns.clone(),
        }
    }

    /// The ordered columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns (arity).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::UnknownColumn`] if the column does not exist.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| UrelError::UnknownColumn {
                relation: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// True if a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }

    /// Builds the schema of the concatenation of `self` and `other`
    /// (used by joins and cross products). Columns of the right operand that
    /// clash with a left column are prefixed with the right relation name.
    pub fn concat(&self, other: &Schema, name: &str) -> Schema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            let column_name = if self.has_column(&c.name) {
                format!("{}.{}", other.name, c.name)
            } else {
                c.name.clone()
            };
            columns.push(Column {
                name: column_name,
                column_type: c.column_type,
            });
        }
        Schema {
            name: name.to_string(),
            columns,
        }
    }

    /// Builds the schema of a projection onto the named columns, in the
    /// given order.
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::UnknownColumn`] if one of the names is missing.
    pub fn project(&self, columns: &[&str], name: &str) -> Result<Schema> {
        let mut projected = Vec::with_capacity(columns.len());
        for &c in columns {
            let idx = self.column_index(c)?;
            #[expect(
                clippy::indexing_slicing,
                reason = "idx was just resolved by `column_index` on self"
            )]
            projected.push(self.columns[idx].clone());
        }
        Ok(Schema {
            name: name.to_string(),
            columns: projected,
        })
    }

    /// Checks that two schemas are union-compatible (same arity and column
    /// types, names may differ).
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::SchemaMismatch`] otherwise.
    pub fn check_union_compatible(&self, other: &Schema) -> Result<()> {
        let compatible = self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.column_type == b.column_type);
        if compatible {
            Ok(())
        } else {
            Err(UrelError::SchemaMismatch {
                left: self.name.clone(),
                right: other.name.clone(),
            })
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.name, c.column_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)])
    }

    #[test]
    fn basic_accessors() {
        let s = schema();
        assert_eq!(s.name(), "R");
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column_index("SSN").unwrap(), 0);
        assert_eq!(s.column_index("NAME").unwrap(), 1);
        assert!(s.has_column("SSN"));
        assert!(!s.has_column("ssn"));
        assert!(matches!(
            s.column_index("missing"),
            Err(UrelError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn column_types_admit_values() {
        assert!(ColumnType::Int.admits(&Value::Int(1)));
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(!ColumnType::Int.admits(&Value::str("x")));
        assert!(ColumnType::Str.admits(&Value::str("x")));
        assert!(ColumnType::Bool.admits(&Value::Bool(true)));
        assert!(ColumnType::Float.admits(&Value::Float(0.5)));
    }

    #[test]
    fn concat_prefixes_clashing_columns() {
        let s = schema();
        let t = Schema::new("S", &[("SSN", ColumnType::Int), ("CITY", ColumnType::Str)]);
        let joined = s.concat(&t, "RS");
        assert_eq!(joined.arity(), 4);
        assert_eq!(joined.columns()[2].name, "S.SSN");
        assert_eq!(joined.columns()[3].name, "CITY");
        assert_eq!(joined.name(), "RS");
    }

    #[test]
    fn project_reorders_columns() {
        let s = schema();
        let p = s.project(&["NAME", "SSN"], "P").unwrap();
        assert_eq!(p.columns()[0].name, "NAME");
        assert_eq!(p.columns()[1].name, "SSN");
        assert!(s.project(&["BAD"], "P").is_err());
    }

    #[test]
    fn union_compatibility() {
        let s = schema();
        let t = Schema::new("S", &[("A", ColumnType::Int), ("B", ColumnType::Str)]);
        assert!(s.check_union_compatible(&t).is_ok());
        let u = Schema::new("U", &[("A", ColumnType::Str), ("B", ColumnType::Str)]);
        assert!(matches!(
            s.check_union_compatible(&u),
            Err(UrelError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn renamed_and_display() {
        let s = schema().renamed("R2");
        assert_eq!(s.name(), "R2");
        assert_eq!(format!("{s}"), "R2(SSN: INT, NAME: STR)");
    }
}
