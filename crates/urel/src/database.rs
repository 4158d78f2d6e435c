//! Probabilistic databases: a world table plus a set of U-relations.

use std::collections::BTreeMap;
use std::fmt;

use uprob_wsd::{ValueIndex, WorldTable, WsDescriptor};

use crate::error::UrelError;
use crate::relation::URelation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::Result;

/// A probabilistic database over a set of schemas and a world table
/// (Section 2): it represents one deterministic database per possible world
/// of the world table.
#[derive(Clone, Debug, Default)]
pub struct ProbDb {
    world_table: WorldTable,
    relations: BTreeMap<String, URelation>,
}

/// A fully deterministic database: the instance of a [`ProbDb`] in one
/// possible world.
pub type WorldInstance = BTreeMap<String, Vec<Tuple>>;

impl ProbDb {
    /// Creates an empty probabilistic database (one world, no relations).
    pub fn new() -> ProbDb {
        ProbDb::default()
    }

    /// Creates a database that uses an existing world table.
    pub fn with_world_table(world_table: WorldTable) -> ProbDb {
        ProbDb {
            world_table,
            relations: BTreeMap::new(),
        }
    }

    /// The world table `W`.
    pub fn world_table(&self) -> &WorldTable {
        &self.world_table
    }

    /// Mutable access to the world table (used to register variables).
    pub fn world_table_mut(&mut self) -> &mut WorldTable {
        &mut self.world_table
    }

    /// Creates an empty [`URelation`] for the given schema after checking
    /// that the name is still free. The relation is *not* inserted; fill it
    /// and pass it to [`ProbDb::insert_relation`].
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::DuplicateRelation`] if a relation with this name
    /// already exists.
    pub fn create_relation(&self, schema: Schema) -> Result<URelation> {
        if self.relations.contains_key(schema.name()) {
            return Err(UrelError::DuplicateRelation {
                relation: schema.name().to_string(),
            });
        }
        Ok(URelation::new(schema))
    }

    /// Inserts a relation, validating every tuple against the schema and
    /// every descriptor against the world table.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken, a tuple does not match the
    /// schema, or a descriptor refers to an unknown variable/value.
    pub fn insert_relation(&mut self, relation: URelation) -> Result<()> {
        let name = relation.schema().name().to_string();
        if self.relations.contains_key(&name) {
            return Err(UrelError::DuplicateRelation { relation: name });
        }
        for (tuple, descriptor) in relation.iter() {
            relation.validate_tuple(tuple)?;
            self.validate_descriptor(descriptor)?;
        }
        self.relations.insert(name, relation);
        Ok(())
    }

    /// Inserts or replaces a relation without name-collision checks
    /// (used by conditioning to materialise posterior relations).
    pub fn replace_relation(&mut self, relation: URelation) {
        self.relations
            .insert(relation.schema().name().to_string(), relation);
    }

    /// Looks up a relation by name.
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::UnknownRelation`] if it does not exist.
    pub fn relation(&self, name: &str) -> Result<&URelation> {
        self.relations
            .get(name)
            .ok_or_else(|| UrelError::UnknownRelation {
                relation: name.to_string(),
            })
    }

    /// Mutable lookup of a relation by name.
    ///
    /// # Errors
    ///
    /// Returns [`UrelError::UnknownRelation`] if it does not exist.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut URelation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| UrelError::UnknownRelation {
                relation: name.to_string(),
            })
    }

    /// Iterates over all relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &URelation> {
        self.relations.values()
    }

    /// Names of all relations.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Validates a descriptor against the world table: every assignment must
    /// refer to a registered variable and an in-range value index.
    pub fn validate_descriptor(&self, descriptor: &WsDescriptor) -> Result<()> {
        for a in descriptor.iter() {
            let size = self.world_table.domain_size(a.var)?;
            if a.value.index() >= size {
                return Err(UrelError::Wsd(uprob_wsd::WsdError::UnknownValue {
                    var: a.var,
                    value: a.value.index() as i64,
                }));
            }
        }
        Ok(())
    }

    /// Checks the whole database: every tuple matches its schema and every
    /// descriptor is valid for the world table.
    pub fn validate(&self) -> Result<()> {
        for relation in self.relations.values() {
            for (tuple, descriptor) in relation.iter() {
                relation.validate_tuple(tuple)?;
                self.validate_descriptor(descriptor)?;
            }
        }
        Ok(())
    }

    /// Evaluates a logical query [`Plan`](crate::Plan) against this
    /// database: the plan is first rewritten by the rule-based optimizer
    /// ([`crate::optimize_plan`] — predicate/projection pushdown,
    /// select-product → join recognition, trivial-predicate and
    /// empty-relation pruning) and then run through the pipelined executor
    /// ([`crate::execute_plan`] — streaming operators, hash equi-joins).
    ///
    /// The result is row-for-row identical (same order, same descriptors)
    /// to the eager oracle `uprob_reference::urel::execute_plan`; the answer
    /// feeds directly into the `conf()` / constraint layer of `uprob-query`.
    ///
    /// # Errors
    ///
    /// Returns plan-validation errors (unknown relations/columns,
    /// predicate type errors, union incompatibility).
    pub fn query(&self, plan: &crate::Plan) -> Result<URelation> {
        let optimized = crate::optimize_plan(plan, self)?;
        crate::execute_plan(self, &optimized)
    }

    /// Runs a plan through the pipelined executor *without* optimizing it
    /// first (used to isolate optimizer effects in tests and benchmarks).
    ///
    /// # Errors
    ///
    /// Returns plan-validation errors.
    pub fn query_unoptimized(&self, plan: &crate::Plan) -> Result<URelation> {
        crate::execute_plan(self, plan)
    }

    /// Materialises the deterministic database of one possible world.
    pub fn instantiate_world(&self, world: &[ValueIndex]) -> WorldInstance {
        self.relations
            .iter()
            .map(|(name, rel)| (name.clone(), rel.instantiate(world)))
            .collect()
    }
}

impl fmt::Display for ProbDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.world_table)?;
        for relation in self.relations.values() {
            write!(f, "{}", relation.display(&self.world_table))?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::Value;

    /// Builds the SSN database of Figures 1/2 (shared with the plan-layer
    /// tests).
    pub(crate) fn ssn_db() -> ProbDb {
        let mut db = ProbDb::new();
        let j = db
            .world_table_mut()
            .add_variable("j", &[(1, 0.2), (7, 0.8)])
            .unwrap();
        let b = db
            .world_table_mut()
            .add_variable("b", &[(4, 0.3), (7, 0.7)])
            .unwrap();
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
        }
        db.insert_relation(r).unwrap();
        db
    }

    #[test]
    fn create_insert_and_lookup() {
        let db = ssn_db();
        assert_eq!(db.num_relations(), 1);
        assert_eq!(db.relation_names(), vec!["R".to_string()]);
        assert_eq!(db.relation("R").unwrap().len(), 4);
        assert!(matches!(
            db.relation("S"),
            Err(UrelError::UnknownRelation { .. })
        ));
        assert!(db.validate().is_ok());
    }

    #[test]
    fn duplicate_relation_is_rejected() {
        let mut db = ssn_db();
        let schema = Schema::new("R", &[("X", ColumnType::Int)]);
        assert!(matches!(
            db.create_relation(schema.clone()),
            Err(UrelError::DuplicateRelation { .. })
        ));
        let rel = URelation::new(schema);
        assert!(matches!(
            db.insert_relation(rel),
            Err(UrelError::DuplicateRelation { .. })
        ));
    }

    #[test]
    fn insert_validates_tuples_and_descriptors() {
        let mut db = ProbDb::new();
        let schema = Schema::new("S", &[("A", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        // Descriptor refers to a variable that is not in the world table.
        let mut bogus = WsDescriptor::empty();
        bogus
            .assign(uprob_wsd::VarId(0), uprob_wsd::ValueIndex(0))
            .unwrap();
        rel.push(Tuple::new(vec![Value::Int(1)]), bogus);
        assert!(db.insert_relation(rel).is_err());
    }

    #[test]
    fn replace_relation_overwrites_by_name() {
        let mut db = ssn_db();
        let schema = Schema::new("R", &[("X", ColumnType::Int)]);
        db.replace_relation(URelation::new(schema));
        assert_eq!(db.relation("R").unwrap().len(), 0);
        assert_eq!(db.num_relations(), 1);
    }

    #[test]
    fn display_renders_world_table_and_relations() {
        let db = ssn_db();
        let text = db.to_string();
        assert!(text.contains("Var"));
        assert!(text.contains("R(SSN: INT, NAME: STR)"));
    }
}
