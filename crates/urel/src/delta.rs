//! Delta mutation on a snapshot: append/retract rows and append variables,
//! producing a new [`ProbDb`] without a full rebuild.
//!
//! The builder clones the base database once and stages all mutations on the
//! clone; [`DeltaBuilder::finish`] hands back the mutated database together
//! with a [`DeltaReport`] naming exactly which relations were touched and
//! which variables were added. The report is what the incremental layers
//! consume: the decomposition cache inherits entries disjoint from the
//! touched set, and delta conditioning re-derives violation ws-sets only for
//! constraints over touched relations.
//!
//! Deltas are **append-only on the world table**: existing variables keep
//! their [`VarId`]s, names, domains and distributions bit-for-bit, which is
//! the property that makes cross-snapshot cache inheritance sound (a cached
//! `P(ws-set)` depends only on the distributions of the variables the set
//! mentions).
//!
//! [`VarId`]: uprob_wsd::VarId

use uprob_wsd::{DomainValue, VarId, WorldTable, WsDescriptor};

use crate::database::ProbDb;
use crate::tuple::Tuple;
use crate::Result;

/// Summary of one applied delta: which relations changed and how.
#[derive(Clone, Debug, Default)]
pub struct DeltaReport {
    /// Names of relations that gained or lost rows, sorted and deduplicated.
    pub touched_relations: Vec<String>,
    /// Variables appended to the world table by this delta.
    pub added_variables: Vec<VarId>,
    /// Number of rows appended across all relations.
    pub appended_rows: usize,
    /// Number of rows retracted across all relations.
    pub retracted_rows: usize,
    /// Stamp of the world table after the delta (equal to the base stamp iff
    /// no variable was added).
    pub world_stamp: u64,
}

impl DeltaReport {
    /// True if the delta touched the named relation.
    pub fn touched(&self, relation: &str) -> bool {
        self.touched_relations.iter().any(|r| r == relation)
    }

    /// True if nothing changed (no rows, no variables).
    pub fn is_empty(&self) -> bool {
        self.touched_relations.is_empty() && self.added_variables.is_empty()
    }
}

/// Stages append/retract mutations against a snapshot of a [`ProbDb`].
///
/// Every mutation is validated eagerly against the staged state, so a
/// builder that never returned an error produces a database that passes
/// [`ProbDb::validate`]. The base database is untouched throughout.
#[derive(Clone, Debug)]
pub struct DeltaBuilder {
    db: ProbDb,
    touched: Vec<String>,
    added_variables: Vec<VarId>,
    appended_rows: usize,
    retracted_rows: usize,
}

impl DeltaBuilder {
    /// Starts a delta over a clone of `base`.
    pub fn new(base: &ProbDb) -> DeltaBuilder {
        DeltaBuilder {
            db: base.clone(),
            touched: Vec::new(),
            added_variables: Vec::new(),
            appended_rows: 0,
            retracted_rows: 0,
        }
    }

    /// The world table of the staged state (base variables plus any added by
    /// this delta) — use it to build descriptors for [`DeltaBuilder::append`].
    pub fn world_table(&self) -> &WorldTable {
        self.db.world_table()
    }

    /// Appends a fresh variable to the staged world table.
    ///
    /// # Errors
    ///
    /// Propagates world-table validation errors (duplicate name, bad
    /// distribution, …); the staged state is unchanged on error.
    pub fn add_variable(
        &mut self,
        name: &str,
        alternatives: &[(DomainValue, f64)],
    ) -> Result<VarId> {
        let id = self.db.world_table_mut().add_variable(name, alternatives)?;
        self.added_variables.push(id);
        Ok(id)
    }

    /// Appends a fresh Boolean variable (`1` with probability `p`).
    pub fn add_boolean(&mut self, name: &str, p: f64) -> Result<VarId> {
        let id = self.db.world_table_mut().add_boolean(name, p)?;
        self.added_variables.push(id);
        Ok(id)
    }

    /// Appends a row to `relation`, validating the tuple against the schema
    /// and the descriptor against the staged world table.
    ///
    /// # Errors
    ///
    /// Returns [`crate::UrelError::UnknownRelation`], a schema mismatch, or a
    /// descriptor-validation error; the staged state is unchanged on error.
    pub fn append(&mut self, relation: &str, tuple: Tuple, descriptor: WsDescriptor) -> Result<()> {
        self.db.validate_descriptor(&descriptor)?;
        let rel = self.db.relation_mut(relation)?;
        rel.try_insert(tuple, descriptor)?;
        self.touched.push(relation.to_string());
        self.appended_rows += 1;
        Ok(())
    }

    /// Retracts every row of `relation` whose tuple equals `tuple`,
    /// returning how many rows were removed. Retracting a tuple that is not
    /// present is a no-op (returns 0) and does not mark the relation
    /// touched.
    ///
    /// # Errors
    ///
    /// Returns [`crate::UrelError::UnknownRelation`] if the relation does not
    /// exist.
    pub fn retract(&mut self, relation: &str, tuple: &Tuple) -> Result<usize> {
        let rel = self.db.relation_mut(relation)?;
        let before = rel.len();
        if rel.iter().any(|(t, _)| t == tuple) {
            rel.rows_mut().retain(|(t, _)| t != tuple);
        }
        let removed = before - rel.len();
        if removed > 0 {
            self.touched.push(relation.to_string());
            self.retracted_rows += removed;
        }
        Ok(removed)
    }

    /// Finishes the delta, returning the mutated database and the report.
    pub fn finish(mut self) -> (ProbDb, DeltaReport) {
        self.touched.sort();
        self.touched.dedup();
        let report = DeltaReport {
            touched_relations: self.touched,
            added_variables: self.added_variables,
            appended_rows: self.appended_rows,
            retracted_rows: self.retracted_rows,
            world_stamp: self.db.world_table().stamp(),
        };
        (self.db, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::ssn_db;
    use crate::value::Value;

    #[test]
    fn append_and_retract_report_touched_relations() {
        let base = ssn_db();
        let base_world_stamp = base.world_table().stamp();
        let base_rel_stamp = base.relation("R").unwrap().stamp();

        let mut delta = DeltaBuilder::new(&base);
        let v = delta.add_boolean("fred", 0.5).unwrap();
        let d = WsDescriptor::from_pairs(delta.world_table(), &[(v, 1)]).unwrap();
        delta
            .append("R", Tuple::new(vec![Value::Int(9), Value::str("Fred")]), d)
            .unwrap();
        let removed = delta
            .retract("R", &Tuple::new(vec![Value::Int(1), Value::str("John")]))
            .unwrap();
        assert_eq!(removed, 1);
        // Retracting a missing tuple is a counted no-op.
        assert_eq!(
            delta
                .retract("R", &Tuple::new(vec![Value::Int(99), Value::str("??")]))
                .unwrap(),
            0
        );

        let (db, report) = delta.finish();
        assert_eq!(report.touched_relations, vec!["R".to_string()]);
        assert!(report.touched("R"));
        assert!(!report.touched("S"));
        assert_eq!(report.added_variables, vec![v]);
        assert_eq!(report.appended_rows, 1);
        assert_eq!(report.retracted_rows, 1);
        assert_eq!(report.world_stamp, db.world_table().stamp());
        assert_ne!(report.world_stamp, base_world_stamp);
        assert_ne!(db.relation("R").unwrap().stamp(), base_rel_stamp);
        assert_eq!(db.relation("R").unwrap().len(), 4);
        assert!(db.validate().is_ok());

        // The base is untouched and existing variables kept their ids.
        assert_eq!(base.relation("R").unwrap().len(), 4);
        assert_eq!(base.relation("R").unwrap().stamp(), base_rel_stamp);
        assert!(db.world_table().extends(base.world_table()));
    }

    #[test]
    fn empty_delta_preserves_stamps() {
        let base = ssn_db();
        let (db, report) = DeltaBuilder::new(&base).finish();
        assert!(report.is_empty());
        assert_eq!(report.world_stamp, base.world_table().stamp());
        assert_eq!(
            db.relation("R").unwrap().stamp(),
            base.relation("R").unwrap().stamp()
        );
    }

    #[test]
    fn invalid_mutations_are_rejected_eagerly() {
        let base = ssn_db();
        let mut delta = DeltaBuilder::new(&base);
        // Unknown relation.
        assert!(delta
            .append("S", Tuple::new(vec![Value::Int(1)]), WsDescriptor::empty())
            .is_err());
        // Schema mismatch.
        assert!(delta
            .append("R", Tuple::new(vec![Value::Int(1)]), WsDescriptor::empty())
            .is_err());
        // Descriptor over an unknown variable.
        let mut bogus = WsDescriptor::empty();
        bogus
            .assign(uprob_wsd::VarId(99), uprob_wsd::ValueIndex(0))
            .unwrap();
        assert!(delta
            .append(
                "R",
                Tuple::new(vec![Value::Int(9), Value::str("Fred")]),
                bogus
            )
            .is_err());
        // Duplicate variable name.
        assert!(delta.add_boolean("j", 0.5).is_err());
        let (db, report) = delta.finish();
        assert!(report.is_empty());
        assert!(db.validate().is_ok());
    }
}
