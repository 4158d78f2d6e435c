//! World-set descriptors: functional partial assignments of variables.
//!
//! A [`WsDescriptor`] is a set of assignments `x -> i` with `i ∈ Dom_x` that
//! is *functional* (at most one value per variable). A total descriptor
//! identifies a single possible world; a partial descriptor denotes all
//! worlds obtained by extending it to a total valuation; the empty
//! descriptor denotes the set of all possible worlds (Section 2).
//!
//! The descriptors a workload builds are short (one to four assignments on
//! every benchmark read), so up to four are stored inline and cloning,
//! splitting or grouping such a descriptor does not allocate; longer ones
//! spill to a heap `Vec`. Equality, order and hashing are those of the
//! assignment slice whatever the storage, so the representation cannot
//! change a result (DESIGN.md, "Descriptor storage").

#![expect(
    clippy::indexing_slicing,
    reason = "every index is a binary_search hit, a two-pointer cursor bounded by its own `while i < len` guard, or a position at most the inline length"
)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use crate::error::WsdError;
use crate::value::{Assignment, DomainValue, ValueIndex, VarId};
use crate::world_table::WorldTable;
use crate::Result;

/// How many assignments a descriptor stores without a heap allocation.
const INLINE: usize = 4;

/// Fills the unused inline slots; never read through the slice.
const FILLER: Assignment = Assignment {
    var: VarId(0),
    value: ValueIndex(0),
};

/// A descriptor's assignments: inline while there are at most [`INLINE`] of
/// them, in a heap `Vec` otherwise (the representation is a function of the
/// length). Everything else sees the slice it derefs to.
#[derive(Clone)]
enum Assignments {
    /// The first `len` slots; the others hold [`FILLER`].
    Inline(u8, [Assignment; INLINE]),
    Spilled(Vec<Assignment>),
}

impl Assignments {
    /// `len` copies of [`FILLER`], to be overwritten through the slice.
    fn filled(len: usize) -> Self {
        if len <= INLINE {
            Assignments::Inline(len as u8, [FILLER; INLINE])
        } else {
            Assignments::Spilled(vec![FILLER; len])
        }
    }

    /// `head` followed by `tail`.
    fn concat(head: &[Assignment], tail: &[Assignment]) -> Self {
        let len = head.len() + tail.len();
        if len > INLINE {
            let mut spilled = Vec::with_capacity(len);
            spilled.extend_from_slice(head);
            spilled.extend_from_slice(tail);
            return Assignments::Spilled(spilled);
        }
        let mut items = [FILLER; INLINE];
        items[..head.len()].copy_from_slice(head);
        items[head.len()..len].copy_from_slice(tail);
        Assignments::Inline(len as u8, items)
    }

    /// Inserts `a` at `pos`. Past [`INLINE`] the assignments spill to a
    /// `Vec` with room for `2 * INLINE`, so a descriptor grown one
    /// assignment at a time allocates once on the way to that length.
    fn insert(&mut self, pos: usize, a: Assignment) {
        match self {
            Assignments::Inline(len, items) if usize::from(*len) < INLINE => {
                items.copy_within(pos..usize::from(*len), pos + 1);
                items[pos] = a;
                *len += 1;
            }
            Assignments::Inline(_, items) => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(items);
                spilled.insert(pos, a);
                *self = Assignments::Spilled(spilled);
            }
            Assignments::Spilled(v) => v.insert(pos, a),
        }
    }
}

impl Default for Assignments {
    fn default() -> Self {
        Assignments::filled(0)
    }
}

impl Deref for Assignments {
    type Target = [Assignment];

    #[inline]
    fn deref(&self) -> &[Assignment] {
        match self {
            Assignments::Inline(len, items) => &items[..usize::from(*len)],
            Assignments::Spilled(v) => v,
        }
    }
}

impl DerefMut for Assignments {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Assignment] {
        match self {
            Assignments::Inline(len, items) => &mut items[..usize::from(*len)],
            Assignments::Spilled(v) => v,
        }
    }
}

// Equality, order and hashing are the slice's, exactly as the derived `Vec`
// ones were: the filler slots never take part.
impl PartialEq for Assignments {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Assignments {}

impl PartialOrd for Assignments {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Assignments {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Assignments {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// A functional partial assignment of variables to domain-value indexes.
///
/// Internally the assignments are kept sorted by [`VarId`], which makes
/// consistency, mutual exclusion, independence and containment checks
/// linear-time merges (Section 3.1 observes that all these properties can be
/// checked at the syntactic level).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WsDescriptor {
    /// Sorted by variable id; at most one entry per variable.
    assignments: Assignments,
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
        let assignments = assignments.into_iter();
        // Too many to fit inline: one `Vec`, kept as it is when sorted.
        if assignments.size_hint().0 > INLINE {
            let all: Vec<Assignment> = assignments.collect();
            if all.windows(2).all(|pair| pair[0].var < pair[1].var) {
                return WsDescriptor::from_sorted_assignments(all);
            }
            return WsDescriptor::assign_each(all);
        }
        WsDescriptor::assign_each(assignments)
    }

    fn assign_each(assignments: impl IntoIterator<Item = Assignment>) -> Result<Self> {
        let mut d = WsDescriptor::empty();
        for a in assignments {
            d.assign(a.var, a.value)?;
        }
        Ok(d)
    }

    /// Wraps assignments that are already sorted by strictly ascending
    /// variable id, in linear time; a spilled descriptor keeps `assignments`
    /// without copying them.
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
            None if assignments.len() > INLINE => Ok(WsDescriptor {
                assignments: Assignments::Spilled(assignments),
            }),
            None => Ok(WsDescriptor {
                assignments: Assignments::concat(&assignments, &[]),
            }),
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
            Ok(pos) if self.assignments[pos].value != value => Err(WsdError::NotFunctional { var }),
            Ok(_) => Ok(()),
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
        value_of(&self.assignments, var)
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
        shared_variables(self, other, |a, b| a == b).is_ok()
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
        shared_variables(self, other, |_, _| false).is_ok()
    }

    /// `self` is *contained* in `other` iff `ω(self) ⊆ ω(other)`:
    /// syntactically, `self` extends `other` (every assignment of `other`
    /// also appears in `self`).
    pub fn is_contained_in(&self, other: &WsDescriptor) -> bool {
        let (mine, theirs) = (&*self.assignments, &*other.assignments);
        theirs.len() <= mine.len()
            && theirs
                .iter()
                .all(|a| value_of(mine, a.var) == Some(a.value))
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
        let shared = shared_variables(self, other, |a, b| a == b)
            .map_err(|var| WsdError::NotFunctional { var })?;
        let (a, b) = (&*self.assignments, &*other.assignments);
        let mut assignments = Assignments::filled(a.len() + b.len() - shared);
        let out = &mut *assignments;
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            out[k] = if y.var < x.var {
                j += 1;
                y
            } else {
                i += 1;
                j += usize::from(x.var == y.var);
                x
            };
            k += 1;
        }
        let (rest_a, rest_b) = (&a[i..], &b[j..]);
        out[k..k + rest_a.len()].copy_from_slice(rest_a);
        out[k + rest_a.len()..].copy_from_slice(rest_b);
        Ok(WsDescriptor { assignments })
    }

    /// The assignments of `other` that are not part of `self`
    /// (`other − self` as sets of assignments), used by the ws-set
    /// difference operation (Section 3.2).
    pub fn assignments_missing_from(&self, other: &WsDescriptor) -> Vec<Assignment> {
        let mine = &*self.assignments;
        other
            .assignments
            .iter()
            .copied()
            .filter(|a| value_of(mine, a.var) != Some(a.value))
            .collect()
    }

    /// Removes the assignment of `var`, if present, returning whether it was
    /// removed.
    pub fn remove(&mut self, var: VarId) -> bool {
        let found = self.defines(var);
        if found {
            *self = self.without(var);
        }
        found
    }

    /// Returns a copy of this descriptor without the assignment of `var`.
    pub fn without(&self, var: VarId) -> WsDescriptor {
        let a = &*self.assignments;
        match a.binary_search_by_key(&var, |a| a.var) {
            Ok(pos) => WsDescriptor {
                assignments: Assignments::concat(&a[..pos], &a[pos + 1..]),
            },
            Err(_) => self.clone(),
        }
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

/// The value `assignments` (sorted by variable) gives `var`, if any.
#[inline]
fn value_of(assignments: &[Assignment], var: VarId) -> Option<ValueIndex> {
    assignments
        .binary_search_by_key(&var, |a| a.var)
        .ok()
        .map(|pos| assignments[pos].value)
}

/// Walks two sorted assignment lists: the number of variables they share,
/// or the first shared variable whose two values fail `shared_ok`.
fn shared_variables<F>(
    a: &WsDescriptor,
    b: &WsDescriptor,
    shared_ok: F,
) -> std::result::Result<usize, VarId>
where
    F: Fn(ValueIndex, ValueIndex) -> bool,
{
    let (a, b) = (&*a.assignments, &*b.assignments);
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        match x.var.cmp(&y.var) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if !shared_ok(x.value, y.value) {
                    return Err(x.var);
                }
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    Ok(shared)
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
