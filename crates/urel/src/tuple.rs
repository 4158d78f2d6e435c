//! Tuples: ordered lists of values.

use std::fmt;

use crate::value::Value;

/// A tuple of relational values, positionally matching a
/// [`crate::Schema`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from its values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    /// The empty (nullary) tuple, used by Boolean queries.
    pub fn nullary() -> Tuple {
        Tuple::default()
    }

    /// Number of values (arity).
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at position `index`, if any.
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Builds the concatenation of two tuples (used by joins), allocated
    /// once at its exact length.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("John")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), Some(&Value::Int(1)));
        assert_eq!(t.get(2), None);
        assert_eq!(t.values().len(), 2);
    }

    #[test]
    fn nullary_tuple() {
        let t = Tuple::nullary();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.to_string(), "()");
    }

    #[test]
    fn concat_keeps_both_value_lists_in_order() {
        let a = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        let b = Tuple::new(vec![Value::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(
            c.values(),
            &[Value::Int(1), Value::str("x"), Value::Bool(true)]
        );
    }

    #[test]
    fn display_renders_values() {
        let t = Tuple::new(vec![Value::Int(7), Value::str("Bill")]);
        assert_eq!(t.to_string(), "(7, Bill)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Tuple::new(vec![Value::Int(1), Value::Int(9)]);
        let b = Tuple::new(vec![Value::Int(2), Value::Int(0)]);
        assert!(a < b);
    }
}
