//! World-set descriptors: functional partial assignments of variables.
//!
//! A [`WsDescriptor`] is a set of assignments `x -> i` with `i ∈ Dom_x` that
//! is *functional* (at most one value per variable). A total descriptor
//! identifies a single possible world; a partial descriptor denotes all
//! worlds obtained by extending it to a total valuation; the empty
//! descriptor denotes the set of all possible worlds (Section 2).

#![expect(
    clippy::indexing_slicing,
    reason = "every index is a binary_search hit or a two-pointer cursor bounded by its own `while i < len` guard"
)]

use std::fmt;

use crate::error::WsdError;
use crate::value::{Assignment, DomainValue, ValueIndex, VarId};
use crate::world_table::WorldTable;
use crate::Result;

/// A functional partial assignment of variables to domain-value indexes.
///
/// Internally the assignments are kept sorted by [`VarId`], which makes
/// consistency, mutual exclusion, independence and containment checks
/// linear-time merges (Section 3.1 observes that all these properties can be
/// checked at the syntactic level).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WsDescriptor {
    /// Sorted by variable id; at most one entry per variable.
    assignments: Vec<Assignment>,
}

impl WsDescriptor {
    /// The nullary descriptor `∅`, denoting the set of all possible worlds.
    pub fn empty() -> Self {
        WsDescriptor::default()
    }

    /// Builds a descriptor from `(variable, value-label)` pairs, resolving
    /// the labels against `table`.
    ///
    /// # Errors
    ///
    /// Fails if a variable or value is unknown, or if the same variable is
    /// assigned two different values.
    pub fn from_pairs(table: &WorldTable, pairs: &[(VarId, DomainValue)]) -> Result<Self> {
        let mut d = WsDescriptor::empty();
        for &(var, value) in pairs {
            let idx = table.value_index(var, value)?;
            d.assign(var, idx)?;
        }
        Ok(d)
    }

    /// Builds a descriptor directly from assignments (value *indexes*).
    ///
    /// # Errors
    ///
    /// Fails with [`WsdError::NotFunctional`] if a variable occurs twice with
    /// different values.
    pub fn from_assignments(assignments: impl IntoIterator<Item = Assignment>) -> Result<Self> {
        let mut d = WsDescriptor::empty();
        for a in assignments {
            d.assign(a.var, a.value)?;
        }
        Ok(d)
    }

    /// Wraps assignments that are already sorted by strictly ascending
    /// variable id, in linear time and without copying them.
    ///
    /// # Errors
    ///
    /// Fails with [`WsdError::NotFunctional`] on the first variable that
    /// does not come after its predecessor (a repeated variable, or input
    /// that was not sorted).
    pub fn from_sorted_assignments(assignments: Vec<Assignment>) -> Result<Self> {
        match assignments
            .windows(2)
            .find(|pair| pair[0].var >= pair[1].var)
        {
            Some(pair) => Err(WsdError::NotFunctional { var: pair[1].var }),
            None => Ok(WsDescriptor { assignments }),
        }
    }

    /// Adds (or confirms) the assignment `var -> value`.
    ///
    /// # Errors
    ///
    /// Fails with [`WsdError::NotFunctional`] if `var` is already assigned a
    /// different value.
    pub fn assign(&mut self, var: VarId, value: ValueIndex) -> Result<()> {
        match self.assignments.binary_search_by_key(&var, |a| a.var) {
            Ok(pos) => {
                if self.assignments[pos].value != value {
                    return Err(WsdError::NotFunctional { var });
                }
                Ok(())
            }
            Err(pos) => {
                self.assignments.insert(pos, Assignment::new(var, value));
                Ok(())
            }
        }
    }

    /// Returns a copy of this descriptor extended with `var -> value`.
    pub fn with(&self, var: VarId, value: ValueIndex) -> Result<Self> {
        let mut d = self.clone();
        d.assign(var, value)?;
        Ok(d)
    }

    /// The value assigned to `var`, if any.
    pub fn get(&self, var: VarId) -> Option<ValueIndex> {
        self.assignments
            .binary_search_by_key(&var, |a| a.var)
            .ok()
            .map(|pos| self.assignments[pos].value)
    }

    /// True if `var` is assigned by this descriptor.
    #[inline]
    pub fn defines(&self, var: VarId) -> bool {
        self.get(var).is_some()
    }

    /// Number of assignments.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True for the nullary descriptor `∅`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterates over the assignments in [`VarId`] order.
    pub fn iter(&self) -> impl Iterator<Item = Assignment> + '_ {
        self.assignments.iter().copied()
    }

    /// Iterates over the assigned variables in [`VarId`] order.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        self.assignments.iter().map(|a| a.var)
    }

    /// Two descriptors are *consistent* iff their union (as sets of
    /// assignments) is functional, i.e. they have a common extension into a
    /// total valuation.
    pub fn is_consistent_with(&self, other: &WsDescriptor) -> bool {
        first_clash(self, other, |a, b| a == b).is_none()
    }

    /// Two descriptors are *mutually exclusive* (mutex) iff they represent
    /// disjoint world-sets: syntactically, there is a variable with a
    /// different assignment in each of them (Section 3.1).
    pub fn is_mutex_with(&self, other: &WsDescriptor) -> bool {
        !self.is_consistent_with(other)
    }

    /// Two descriptors are *independent* iff they are defined on disjoint
    /// sets of variables (Section 3.1).
    pub fn is_independent_of(&self, other: &WsDescriptor) -> bool {
        first_clash(self, other, |_, _| false).is_none()
    }

    /// `self` is *contained* in `other` iff `ω(self) ⊆ ω(other)`:
    /// syntactically, `self` extends `other` (every assignment of `other`
    /// also appears in `self`).
    pub fn is_contained_in(&self, other: &WsDescriptor) -> bool {
        if other.assignments.len() > self.assignments.len() {
            return false;
        }
        other
            .assignments
            .iter()
            .all(|a| self.get(a.var) == Some(a.value))
    }

    /// Union of two consistent descriptors (the descriptor of the
    /// intersection of the two world-sets).
    ///
    /// The consistency check runs first, so an inconsistent pair allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Fails with [`WsdError::NotFunctional`] if the descriptors are
    /// inconsistent.
    pub fn union(&self, other: &WsDescriptor) -> Result<WsDescriptor> {
        if let Some(var) = first_clash(self, other, |a, b| a == b) {
            return Err(WsdError::NotFunctional { var });
        }
        let mut merged = Vec::with_capacity(self.assignments.len() + other.assignments.len());
        let (mut i, mut j) = (0, 0);
        while i < self.assignments.len() && j < other.assignments.len() {
            let a = self.assignments[i];
            let b = other.assignments[j];
            match a.var.cmp(&b.var) {
                std::cmp::Ordering::Less => {
                    merged.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.assignments[i..]);
        merged.extend_from_slice(&other.assignments[j..]);
        Ok(WsDescriptor {
            assignments: merged,
        })
    }

    /// The assignments of `other` that are not part of `self`
    /// (`other − self` as sets of assignments), used by the ws-set
    /// difference operation (Section 3.2).
    pub fn assignments_missing_from(&self, other: &WsDescriptor) -> Vec<Assignment> {
        other
            .assignments
            .iter()
            .copied()
            .filter(|a| self.get(a.var) != Some(a.value))
            .collect()
    }

    /// Removes the assignment of `var`, if present, returning whether it was
    /// removed.
    pub fn remove(&mut self, var: VarId) -> bool {
        match self.assignments.binary_search_by_key(&var, |a| a.var) {
            Ok(pos) => {
                self.assignments.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns a copy of this descriptor without the assignment of `var`.
    pub fn without(&self, var: VarId) -> WsDescriptor {
        let mut d = self.clone();
        d.remove(var);
        d
    }

    /// Probability of the world-set denoted by this descriptor:
    /// the product of the probabilities of its assignments
    /// (independence of the variables, Section 2).
    ///
    /// The empty descriptor has probability 1.
    ///
    /// # Panics
    ///
    /// Panics if an assignment refers to a variable or value that is not in
    /// `table`; descriptors must be built against the same world table they
    /// are evaluated on.
    pub fn probability(&self, table: &WorldTable) -> f64 {
        self.assignments
            .iter()
            .map(|a| {
                #[expect(
                    clippy::expect_used,
                    reason = "documented contract: descriptors are built against this table"
                )]
                table
                    .probability(a.var, a.value)
                    .expect("descriptor refers to a variable missing from the world table")
            })
            .product()
    }

    /// True if the total valuation `world` (one value index per variable in
    /// [`VarId`] order) extends this descriptor.
    pub fn matches_world(&self, world: &[ValueIndex]) -> bool {
        self.assignments
            .iter()
            .all(|a| world.get(a.var.index()) == Some(&a.value))
    }

    /// Renders the descriptor with variable names and value labels, e.g.
    /// `{j -> 1, b -> 4}`.
    pub fn display<'a>(&'a self, table: &'a WorldTable) -> impl fmt::Display + 'a {
        DescriptorDisplay {
            descriptor: self,
            table,
        }
    }
}

impl fmt::Debug for WsDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?} -> {:?}", a.var, a.value)?;
        }
        write!(f, "}}")
    }
}

struct DescriptorDisplay<'a> {
    descriptor: &'a WsDescriptor,
    table: &'a WorldTable,
}

impl fmt::Display for DescriptorDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.descriptor.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match (
                self.table.variable(a.var),
                self.table.value_label(a.var, a.value),
            ) {
                (Ok(info), Ok(label)) => write!(f, "{} -> {}", info.name, label)?,
                _ => write!(f, "{:?} -> {:?}", a.var, a.value)?,
            }
        }
        write!(f, "}}")
    }
}

/// Walks two sorted assignment lists; returns the first shared variable
/// whose two values fail `shared_ok`, if any.
fn first_clash<F>(a: &WsDescriptor, b: &WsDescriptor, shared_ok: F) -> Option<VarId>
where
    F: Fn(ValueIndex, ValueIndex) -> bool,
{
    let (mut i, mut j) = (0, 0);
    while i < a.assignments.len() && j < b.assignments.len() {
        let x = a.assignments[i];
        let y = b.assignments[j];
        match x.var.cmp(&y.var) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if !shared_ok(x.value, y.value) {
                    return Some(x.var);
                }
                i += 1;
                j += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// World table of Figure 2 extended as in Example 3.1.
    fn table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn example_3_1_mutex_containment_independence() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        let d4 = WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap();

        // (d1, d2) and (d2, d3) are mutex.
        assert!(d1.is_mutex_with(&d2));
        assert!(d2.is_mutex_with(&d3));
        // d3 is contained in d1.
        assert!(d3.is_contained_in(&d1));
        assert!(!d1.is_contained_in(&d3));
        // (d1, d4) and (d2, d4) are independent.
        assert!(d1.is_independent_of(&d4));
        assert!(d2.is_independent_of(&d4));
        // d3 shares variables with d1, hence not independent.
        assert!(!d3.is_independent_of(&d1));
    }

    #[test]
    fn empty_descriptor_denotes_all_worlds() {
        let (w, _, _) = table();
        let d = WsDescriptor::empty();
        assert!(d.is_empty());
        assert!((d.probability(&w) - 1.0).abs() < 1e-12);
        for (world, _) in w.enumerate_worlds() {
            assert!(d.matches_world(&world));
        }
    }

    #[test]
    fn probability_is_product_of_assignment_probabilities() {
        let (w, j, b) = table();
        let d = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
        assert!((d.probability(&w) - 0.8 * 0.3).abs() < 1e-12);
        // Probability equals the total weight of the matching worlds.
        let by_enumeration: f64 = w
            .enumerate_worlds()
            .filter(|(world, _)| d.matches_world(world))
            .map(|(_, p)| p)
            .sum();
        assert!((d.probability(&w) - by_enumeration).abs() < 1e-12);
    }

    #[test]
    fn assign_rejects_conflicts_and_accepts_repeats() {
        let (w, j, _) = table();
        let mut d = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let idx1 = w.value_index(j, 1).unwrap();
        let idx7 = w.value_index(j, 7).unwrap();
        assert!(d.assign(j, idx1).is_ok());
        assert!(matches!(
            d.assign(j, idx7),
            Err(WsdError::NotFunctional { .. })
        ));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn from_pairs_rejects_unknown_value() {
        let (w, j, _) = table();
        assert!(matches!(
            WsDescriptor::from_pairs(&w, &[(j, 99)]),
            Err(WsdError::UnknownValue { .. })
        ));
    }

    #[test]
    fn union_of_consistent_descriptors_is_merge() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d4 = WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap();
        let u = d1.union(&d4).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.is_contained_in(&d1));
        assert!(u.is_contained_in(&d4));

        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap();
        assert!(d1.union(&d2).is_err());
    }

    #[test]
    fn consistency_is_symmetric_and_matches_world_semantics() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        assert!(d1.is_consistent_with(&d3));
        assert!(d3.is_consistent_with(&d1));
        // Consistent iff the world-sets overlap.
        let overlap = w
            .enumerate_worlds()
            .any(|(world, _)| d1.matches_world(&world) && d3.matches_world(&world));
        assert!(overlap);
    }

    #[test]
    fn remove_and_without() {
        let (w, j, b) = table();
        let d = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        let without_j = d.without(j);
        assert!(!without_j.defines(j));
        assert!(without_j.defines(b));
        let mut removed = d.clone();
        assert!(removed.remove(b));
        assert!(!removed.remove(b));
        assert_eq!(removed.variables().collect::<Vec<_>>(), vec![j]);
    }

    #[test]
    fn from_sorted_assignments_accepts_only_strictly_ascending_variables() {
        let (w, j, b) = table();
        let d = WsDescriptor::from_pairs(&w, &[(b, 4), (j, 1)]).unwrap();
        let sorted: Vec<Assignment> = d.iter().collect();
        assert_eq!(
            WsDescriptor::from_sorted_assignments(sorted.clone()).unwrap(),
            d
        );
        assert_eq!(
            WsDescriptor::from_sorted_assignments(Vec::new()).unwrap(),
            WsDescriptor::empty()
        );
        let reversed: Vec<Assignment> = sorted.iter().rev().copied().collect();
        assert_eq!(
            WsDescriptor::from_sorted_assignments(reversed).unwrap_err(),
            WsdError::NotFunctional { var: j }
        );
        let repeated = vec![sorted[1], sorted[1]];
        assert_eq!(
            WsDescriptor::from_sorted_assignments(repeated).unwrap_err(),
            WsdError::NotFunctional { var: b }
        );
    }

    #[test]
    fn display_uses_names_and_labels() {
        let (w, j, b) = table();
        let d = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
        let text = format!("{}", d.display(&w));
        assert_eq!(text, "{j -> 7, b -> 4}");
        assert_eq!(format!("{:?}", WsDescriptor::empty()), "{}");
    }

    #[test]
    fn assignments_missing_from_lists_difference() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        let missing = d1.assignments_missing_from(&d3);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].var, b);
        assert!(d3.assignments_missing_from(&d1).is_empty());
    }
}
