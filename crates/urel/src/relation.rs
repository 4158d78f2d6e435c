//! U-relations: relations whose tuples carry world-set descriptors.

use std::fmt;

use uprob_wsd::{Stamped, ValueIndex, WorldTable, WsDescriptor, WsSet};

use crate::error::UrelError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::Result;

/// A U-relation over a schema `Σ` and a world table `W`: a set of tuples
/// over `Σ`, each associated with a ws-descriptor over `W` (Section 2).
///
/// A tuple is present in the possible world identified by a total valuation
/// `f` iff `f` extends the tuple's descriptor. The same tuple value may occur
/// in several rows with different descriptors; the tuple is then present in
/// the union of the corresponding world-sets.
#[derive(Clone, Debug)]
pub struct URelation {
    schema: Schema,
    /// The rows under one content stamp: refreshed on every mutation,
    /// shared by (unmutated) clones. Equal stamps imply identical rows,
    /// which lets the delta conditioning path prove in O(1) that a
    /// memoized per-constraint violation ws-set is still valid for this
    /// relation.
    rows: Stamped<Vec<(Tuple, WsDescriptor)>>,
}

/// Row equality only: the stamp is an identity witness, not content, so two
/// independently built relations with the same rows still compare equal
/// (query outputs are compared against hand-built expectations this way).
impl PartialEq for URelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && *self.rows == *other.rows
    }
}

impl URelation {
    /// Creates an empty U-relation with the given schema.
    pub fn new(schema: Schema) -> URelation {
        URelation::from_rows(schema, Vec::new())
    }

    /// Creates a U-relation from rows built elsewhere, without validation
    /// (like [`URelation::push`]) and with a single content stamp for the
    /// whole batch.
    pub fn from_rows(schema: Schema, rows: Vec<(Tuple, WsDescriptor)>) -> URelation {
        URelation {
            schema,
            rows: Stamped::new(rows),
        }
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The content stamp of this relation: refreshed on every mutation and
    /// shared only with unmutated clones, so equal stamps imply identical
    /// rows. Used by violation-memo delta consumers to detect unchanged
    /// relations without comparing rows.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.rows.stamp()
    }

    /// Number of rows (tuple/descriptor pairs).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row without validation (arity/type checks are performed by
    /// [`URelation::try_insert`] or [`crate::ProbDb::insert_relation`]).
    pub fn push(&mut self, tuple: Tuple, descriptor: WsDescriptor) {
        self.rows.get_mut().push((tuple, descriptor));
    }

    /// Appends a row, validating it against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::TupleSchemaMismatch`] if the arity or a value
    /// type does not match the schema.
    pub fn try_insert(&mut self, tuple: Tuple, descriptor: WsDescriptor) -> Result<()> {
        self.validate_tuple(&tuple)?;
        self.rows.get_mut().push((tuple, descriptor));
        Ok(())
    }

    /// Checks a tuple against the schema.
    pub fn validate_tuple(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(UrelError::TupleSchemaMismatch {
                relation: self.schema.name().to_string(),
                detail: format!(
                    "arity {} does not match schema arity {}",
                    tuple.arity(),
                    self.schema.arity()
                ),
            });
        }
        for (column, value) in self.schema.columns().iter().zip(tuple.values()) {
            if !column.column_type.admits(value) {
                return Err(UrelError::TupleSchemaMismatch {
                    relation: self.schema.name().to_string(),
                    detail: format!(
                        "value {value} is not admissible for column {} of type {}",
                        column.name, column.column_type
                    ),
                });
            }
        }
        Ok(())
    }

    /// Iterates over `(tuple, descriptor)` rows.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &WsDescriptor)> {
        self.rows.iter().map(|(t, d)| (t, d))
    }

    /// Mutable access to the rows. Conservatively refreshes the content stamp:
    /// callers may mutate through the returned reference, so the old stamp
    /// can no longer witness identical rows.
    pub fn rows_mut(&mut self) -> &mut Vec<(Tuple, WsDescriptor)> {
        self.rows.get_mut()
    }

    /// Read-only access to the rows.
    pub fn rows(&self) -> &[(Tuple, WsDescriptor)] {
        &self.rows
    }

    /// The ws-set consisting of the descriptors of *all* rows.
    ///
    /// For the answer of a Boolean query this is exactly the ws-set whose
    /// probability is the query confidence (Section 7: "the projection of a
    /// query result to a nullary relation causes all the ws-sets to be
    /// unioned").
    pub fn answer_ws_set(&self) -> WsSet {
        self.rows.iter().map(|(_, d)| d.clone()).collect()
    }

    /// Groups rows by tuple value, returning each distinct tuple with the
    /// ws-set of the worlds in which it appears. Groups come in tuple order
    /// and each keeps its descriptors in row order.
    pub fn distinct_tuples(&self) -> Vec<(Tuple, WsSet)> {
        // A stable sort of row references keeps row order inside a group
        // and clones each distinct tuple once.
        let mut rows: Vec<&(Tuple, WsDescriptor)> = self.rows.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<(Tuple, WsSet)> = Vec::new();
        for (t, d) in rows {
            match groups.last_mut() {
                Some((group, set)) if group == t => set.push(d.clone()),
                _ => groups.push((t.clone(), WsSet::from_descriptors(vec![d.clone()]))),
            }
        }
        groups
    }

    /// Materialises the instance of this relation in the possible world
    /// identified by the total valuation `world`: the set of tuples whose
    /// descriptor is extended by `world` (duplicates removed).
    pub fn instantiate(&self, world: &[ValueIndex]) -> Vec<Tuple> {
        let mut tuples: Vec<Tuple> = self
            .rows
            .iter()
            .filter(|(_, d)| d.matches_world(world))
            .map(|(t, _)| t.clone())
            .collect();
        tuples.sort();
        tuples.dedup();
        tuples
    }

    /// Renders the relation with the descriptors shown as in Figure 2 of the
    /// paper.
    pub fn display<'a>(&'a self, table: &'a WorldTable) -> impl fmt::Display + 'a {
        URelationDisplay {
            relation: self,
            table,
        }
    }
}

struct URelationDisplay<'a> {
    relation: &'a URelation,
    table: &'a WorldTable,
}

impl fmt::Display for URelationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.relation.schema)?;
        for (tuple, descriptor) in self.relation.iter() {
            writeln!(f, "  {}  {}", descriptor.display(self.table), tuple)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::Value;
    use uprob_wsd::WorldTable;

    fn ssn_relation() -> (WorldTable, URelation) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
        let mut r = URelation::new(schema);
        r.push(
            Tuple::new(vec![Value::Int(1), Value::str("John")]),
            WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap(),
        );
        r.push(
            Tuple::new(vec![Value::Int(7), Value::str("John")]),
            WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap(),
        );
        r.push(
            Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
            WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap(),
        );
        r.push(
            Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
            WsDescriptor::from_pairs(&w, &[(b, 7)]).unwrap(),
        );
        (w, r)
    }

    #[test]
    fn push_and_iterate() {
        let (_, r) = ssn_relation();
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 4);
        assert_eq!(r.answer_ws_set().len(), 4);
    }

    #[test]
    fn from_rows_keeps_the_rows_and_takes_a_fresh_stamp() {
        let (_, r) = ssn_relation();
        let rebuilt = URelation::from_rows(r.schema().clone(), r.rows().to_vec());
        assert_eq!(rebuilt, r);
        assert_ne!(rebuilt.stamp(), r.stamp());
    }

    #[test]
    fn try_insert_validates_schema() {
        let (_, mut r) = ssn_relation();
        let ok = Tuple::new(vec![Value::Int(9), Value::str("Fred")]);
        assert!(r.try_insert(ok, WsDescriptor::empty()).is_ok());
        let wrong_arity = Tuple::new(vec![Value::Int(9)]);
        assert!(matches!(
            r.try_insert(wrong_arity, WsDescriptor::empty()),
            Err(UrelError::TupleSchemaMismatch { .. })
        ));
        let wrong_type = Tuple::new(vec![Value::str("9"), Value::str("Fred")]);
        assert!(r.try_insert(wrong_type, WsDescriptor::empty()).is_err());
        let with_null = Tuple::new(vec![Value::Null, Value::str("Fred")]);
        assert!(r.try_insert(with_null, WsDescriptor::empty()).is_ok());
    }

    #[test]
    fn instantiate_reproduces_figure_1_worlds() {
        let (w, r) = ssn_relation();
        // World {j -> 1, b -> 4} is R1 of Figure 1: {(1, John), (4, Bill)}.
        let world = vec![ValueIndex(0), ValueIndex(0)];
        let tuples = r.instantiate(&world);
        assert_eq!(tuples.len(), 2);
        assert!(tuples.contains(&Tuple::new(vec![Value::Int(1), Value::str("John")])));
        assert!(tuples.contains(&Tuple::new(vec![Value::Int(4), Value::str("Bill")])));
        // World {j -> 7, b -> 7} is R4: {(7, John), (7, Bill)}.
        let world4 = vec![ValueIndex(1), ValueIndex(1)];
        let tuples4 = r.instantiate(&world4);
        assert_eq!(tuples4.len(), 2);
        assert!(tuples4.contains(&Tuple::new(vec![Value::Int(7), Value::str("John")])));
        let _ = w;
    }

    #[test]
    fn tuple_ws_set_and_distinct_tuples() {
        let (w, mut r) = ssn_relation();
        // Add a second derivation of (7, Bill), e.g. from another source.
        let extra = WsDescriptor::empty();
        r.push(Tuple::new(vec![Value::Int(7), Value::str("Bill")]), extra);
        let t = Tuple::new(vec![Value::Int(7), Value::str("Bill")]);
        let ws: WsSet = r
            .iter()
            .filter(|(tuple, _)| *tuple == &t)
            .map(|(_, d)| d.clone())
            .collect();
        assert_eq!(ws.len(), 2);
        let distinct = r.distinct_tuples();
        assert_eq!(distinct.len(), 4);
        let entry = distinct.iter().find(|(tuple, _)| tuple == &t).unwrap();
        assert_eq!(entry.1.len(), 2);
        // Groups in tuple order, descriptors in row order.
        assert!(distinct.windows(2).all(|pair| pair[0].0 < pair[1].0));
        assert_eq!(entry.1, ws);
        let _ = w;
    }

    #[test]
    fn stamps_track_row_identity_but_not_equality() {
        let (_, r) = ssn_relation();
        let clone = r.clone();
        assert_eq!(r.stamp(), clone.stamp());
        let mut mutated = r.clone();
        mutated.push(
            Tuple::new(vec![Value::Int(9), Value::str("Fred")]),
            WsDescriptor::empty(),
        );
        assert_ne!(r.stamp(), mutated.stamp());
        // rows_mut conservatively refreshes even without an actual write.
        let mut touched = r.clone();
        let _ = touched.rows_mut();
        assert_ne!(r.stamp(), touched.stamp());
        // Equality ignores the stamp: independently built relations with the
        // same rows compare equal.
        let (_, twin) = ssn_relation();
        assert_ne!(r.stamp(), twin.stamp());
        assert_eq!(r, twin);
    }

    #[test]
    fn display_shows_descriptors_and_tuples() {
        let (w, r) = ssn_relation();
        let text = format!("{}", r.display(&w));
        assert!(text.contains("{j -> 1}  (1, John)"));
        assert!(text.contains("{b -> 7}  (7, Bill)"));
    }
}
