//! ws-sets: sets of world-set descriptors and their set operations.
//!
//! A [`WsSet`] represents the union of the world-sets of its descriptors
//! (Section 2). This module implements the set operations of Section 3.2
//! (union, intersection, difference — Proposition 3.4), the mutex /
//! independence / equivalence notions lifted to ws-sets (Section 3.1), the
//! absorption-based normalisation used in Example 3.2, and the partition of
//! a ws-set into independent components (the building block of independent
//! partitioning in Section 4).

use std::collections::BTreeSet;

use crate::fast_hash::{FxHashMap, FxHashSet};
use std::fmt;

use crate::descriptor::WsDescriptor;
use crate::value::{ValueIndex, VarId};
use crate::world_table::WorldTable;

/// A set of world-set descriptors, denoting the union of their world-sets.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WsSet {
    descriptors: Vec<WsDescriptor>,
}

impl WsSet {
    /// The empty ws-set, denoting the empty world-set.
    pub fn empty() -> Self {
        WsSet::default()
    }

    /// The ws-set `{∅}` containing only the nullary descriptor, denoting the
    /// set of *all* possible worlds.
    pub fn universal() -> Self {
        WsSet {
            descriptors: vec![WsDescriptor::empty()],
        }
    }

    /// Builds a ws-set from descriptors (duplicates are kept; call
    /// [`WsSet::normalize`] to remove redundancy).
    pub fn from_descriptors(descriptors: Vec<WsDescriptor>) -> Self {
        WsSet { descriptors }
    }

    /// Adds a descriptor.
    pub fn push(&mut self, d: WsDescriptor) {
        self.descriptors.push(d);
    }

    /// Number of descriptors.
    #[inline]
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True if the set contains no descriptor (empty world-set).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// True if the set contains the nullary descriptor `∅` and therefore
    /// denotes the whole world-set.
    pub fn contains_universal(&self) -> bool {
        self.descriptors.iter().any(|d| d.is_empty())
    }

    /// Iterates over the descriptors.
    pub fn iter(&self) -> impl Iterator<Item = &WsDescriptor> {
        self.descriptors.iter()
    }

    /// Mutable iteration over the descriptors.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut WsDescriptor> {
        self.descriptors.iter_mut()
    }

    /// Read-only view of the descriptors.
    pub fn descriptors(&self) -> &[WsDescriptor] {
        &self.descriptors
    }

    /// The set of variables occurring in the descriptors.
    pub fn variables(&self) -> BTreeSet<VarId> {
        self.descriptors
            .iter()
            .flat_map(|d| d.variables())
            .collect()
    }

    /// `Union(S1, S2) := S1 ∪ S2` (Section 3.2).
    pub fn union(&self, other: &WsSet) -> WsSet {
        let mut descriptors = self.descriptors.clone();
        descriptors.extend(other.descriptors.iter().cloned());
        WsSet { descriptors }
    }

    /// `Intersect(S1, S2) := {d1 ∪ d2 | d1 ∈ S1, d2 ∈ S2, consistent}`
    /// (Section 3.2).
    pub fn intersect(&self, other: &WsSet) -> WsSet {
        let mut descriptors = Vec::new();
        for d1 in &self.descriptors {
            for d2 in &other.descriptors {
                if let Ok(u) = d1.union(d2) {
                    descriptors.push(u);
                }
            }
        }
        WsSet { descriptors }
    }

    /// `Diff(S1, S2)` — the inductive difference of Section 3.2.
    ///
    /// The result denotes `ω(S1) − ω(S2)`; the descriptors produced from a
    /// single descriptor of `S1` are pairwise mutually exclusive
    /// (Proposition 3.4).
    pub fn difference(&self, other: &WsSet, table: &WorldTable) -> WsSet {
        let mut result = Vec::new();
        for d in &self.descriptors {
            result.extend(diff_descriptor_set(d, &other.descriptors, table));
        }
        WsSet {
            descriptors: result,
        }
    }

    /// Removes exact duplicates and descriptors that are contained in another
    /// descriptor of the set (absorption, cf. Example 3.2 where
    /// `ω({d3, d4}) = ω({d4})` because `d3 ⊆ d4`).
    pub fn normalize(&mut self) {
        // Sort by length so that more general (shorter) descriptors come
        // first; a descriptor is dropped if some *other* kept descriptor
        // contains it.
        self.descriptors.sort_by_key(|d| d.len());
        self.descriptors.dedup();
        let mut kept: Vec<WsDescriptor> = Vec::with_capacity(self.descriptors.len());
        'outer: for d in self.descriptors.drain(..) {
            for k in &kept {
                if d.is_contained_in(k) {
                    continue 'outer;
                }
            }
            kept.push(d);
        }
        self.descriptors = kept;
    }

    /// Returns a normalised copy (see [`WsSet::normalize`]).
    pub fn normalized(&self) -> WsSet {
        let mut s = self.clone();
        s.normalize();
        s
    }

    /// Two ws-sets are mutex iff every pair of descriptors across them is
    /// mutex (Section 3.1).
    pub fn is_mutex_with(&self, other: &WsSet) -> bool {
        self.descriptors
            .iter()
            .all(|d1| other.descriptors.iter().all(|d2| d1.is_mutex_with(d2)))
    }

    /// Two ws-sets are independent iff every pair of descriptors across them
    /// is independent (Section 3.1).
    pub fn is_independent_of(&self, other: &WsSet) -> bool {
        self.descriptors
            .iter()
            .all(|d1| other.descriptors.iter().all(|d2| d1.is_independent_of(d2)))
    }

    /// True if the total valuation `world` belongs to the world-set of this
    /// ws-set.
    pub fn matches_world(&self, world: &[ValueIndex]) -> bool {
        self.descriptors.iter().any(|d| d.matches_world(world))
    }

    /// Enumerates `ω(S)` as a set of total valuations.
    ///
    /// Exponential in the number of variables of `table`; intended for tests
    /// and brute-force baselines only.
    pub fn enumerate_worlds(&self, table: &WorldTable) -> FxHashSet<Vec<ValueIndex>> {
        table
            .enumerate_worlds()
            .filter(|(world, _)| self.matches_world(world))
            .map(|(world, _)| world)
            .collect()
    }

    /// Probability of the represented world-set computed by brute-force world
    /// enumeration. Exponential; tests and baselines only.
    ///
    /// The world weights are accumulated with Neumaier compensated summation
    /// so the oracle stays trustworthy on instances with very many (or very
    /// skewed) worlds.
    pub fn probability_by_enumeration(&self, table: &WorldTable) -> f64 {
        crate::numeric::compensated_sum(
            table
                .enumerate_worlds()
                .filter(|(world, _)| self.matches_world(world))
                .map(|(_, p)| p),
        )
    }

    /// Two ws-sets are equivalent iff they represent the same world-set.
    /// Decided by enumeration; tests only.
    pub fn is_equivalent_by_enumeration(&self, other: &WsSet, table: &WorldTable) -> bool {
        self.enumerate_worlds(table) == other.enumerate_worlds(table)
    }

    /// Partitions the ws-set into *minimal independent* sub-sets: descriptors
    /// end up in the same partition iff they are connected through shared
    /// variables.
    ///
    /// This is the connected-components computation used by the independent
    /// partitioning rule of `ComputeTree` (Section 4.1/4.2). Descriptors with
    /// no variables (the nullary descriptor) are placed in the first
    /// partition.
    pub fn independent_partition(&self) -> Vec<WsSet> {
        match self.independent_split() {
            Some(parts) => parts,
            None if self.descriptors.is_empty() => Vec::new(),
            None => vec![self.clone()],
        }
    }

    /// The parts of [`WsSet::independent_partition`] when there are at
    /// least two of them, in the same order; `None` when the set is empty
    /// or connected, without copying it (the decomposition only needs to
    /// know that no ⊗ node applies).
    pub fn independent_split(&self) -> Option<Vec<WsSet>> {
        let n = self.descriptors.len();
        let mut uf = UnionFind::new(n);
        let mut components = n;
        // Map each variable to the first descriptor that mentions it and
        // union subsequent descriptors into that component.
        let mut first_owner: FxHashMap<VarId, usize> = FxHashMap::default();
        for (i, d) in self.descriptors.iter().enumerate() {
            for var in d.variables() {
                match first_owner.entry(var) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        components -= usize::from(uf.union(*e.get(), i));
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(i);
                    }
                }
            }
        }
        if components < 2 {
            return None;
        }
        // Group descriptors by component root, preserving first-seen order.
        let mut group_of_root: crate::fast_hash::FxHashMap<usize, usize> =
            crate::fast_hash::FxHashMap::default();
        let mut groups: Vec<WsSet> = Vec::new();
        for (i, d) in self.descriptors.iter().enumerate() {
            let root = uf.find(i);
            let index = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(WsSet::empty());
                groups.len() - 1
            });
            #[expect(
                clippy::indexing_slicing,
                reason = "index was just created by the or_insert_with push"
            )]
            groups[index].push(d.clone());
        }
        Some(groups)
    }

    /// Renders the ws-set with variable names and value labels.
    pub fn display<'a>(&'a self, table: &'a WorldTable) -> impl fmt::Display + 'a {
        WsSetDisplay { set: self, table }
    }
}

impl fmt::Debug for WsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.descriptors.iter()).finish()
    }
}

impl FromIterator<WsDescriptor> for WsSet {
    fn from_iter<T: IntoIterator<Item = WsDescriptor>>(iter: T) -> Self {
        WsSet {
            descriptors: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for WsSet {
    type Item = WsDescriptor;
    type IntoIter = std::vec::IntoIter<WsDescriptor>;

    fn into_iter(self) -> Self::IntoIter {
        self.descriptors.into_iter()
    }
}

impl<'a> IntoIterator for &'a WsSet {
    type Item = &'a WsDescriptor;
    type IntoIter = std::slice::Iter<'a, WsDescriptor>;

    fn into_iter(self) -> Self::IntoIter {
        self.descriptors.iter()
    }
}

struct WsSetDisplay<'a> {
    set: &'a WsSet,
    table: &'a WorldTable,
}

impl fmt::Display for WsSetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (i, d) in self.set.descriptors.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d.display(self.table))?;
        }
        write!(f, " }}")
    }
}

/// `Diff({d1}, S)` for a single descriptor: iteratively subtracts every
/// descriptor of `S` (Section 3.2, second and third equation).
pub fn diff_descriptor_set(
    d1: &WsDescriptor,
    subtrahends: &[WsDescriptor],
    table: &WorldTable,
) -> Vec<WsDescriptor> {
    match try_diff_descriptor_set(d1, subtrahends, table, |_| {
        Ok::<(), std::convert::Infallible>(())
    }) {
        Ok(result) => result,
        Err(infallible) => match infallible {},
    }
}

/// [`diff_descriptor_set`] with a per-subtrahend hook: after each
/// subtraction step, `on_step` receives the number of descriptors the
/// step generated and may abort the (potentially exponential) expansion
/// early by returning an error — used e.g. to enforce node budgets while
/// the difference grows.
///
/// # Errors
///
/// Propagates the first error returned by `on_step`.
pub fn try_diff_descriptor_set<E>(
    d1: &WsDescriptor,
    subtrahends: &[WsDescriptor],
    table: &WorldTable,
    mut on_step: impl FnMut(usize) -> std::result::Result<(), E>,
) -> std::result::Result<Vec<WsDescriptor>, E> {
    let mut current = vec![d1.clone()];
    for d2 in subtrahends {
        if current.is_empty() {
            break;
        }
        let mut next = Vec::with_capacity(current.len());
        for c in &current {
            next.extend(diff_single(c, d2, table));
        }
        on_step(next.len())?;
        current = next;
    }
    Ok(current)
}

/// `Diff({d1}, {d2})` for single descriptors (Section 3.2, first equation).
///
/// If the descriptors are inconsistent the result is `{d1}`. Otherwise, with
/// `d2 − d1 = {x1 -> w1, …, xk -> wk}`, the result contains, for every `i`
/// and every alternative `w'` of `x_i` different from `w_i`, the descriptor
/// `d1 ∪ {x1 -> w1, …, x_{i−1} -> w_{i−1}, x_i -> w'}`. The produced
/// descriptors are pairwise mutex and jointly denote `ω(d1) − ω(d2)`.
pub fn diff_single(d1: &WsDescriptor, d2: &WsDescriptor, table: &WorldTable) -> Vec<WsDescriptor> {
    if !d1.is_consistent_with(d2) {
        return vec![d1.clone()];
    }
    let missing = d1.assignments_missing_from(d2);
    let mut result = Vec::new();
    let mut prefix = d1.clone();
    for a in &missing {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: descriptors are built against this table"
        )]
        let domain_size = table
            .domain_size(a.var)
            .expect("descriptor variable missing from world table");
        for alt in 0..domain_size as u16 {
            if ValueIndex(alt) == a.value {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "a.var is missing from prefix by construction of `missing`"
            )]
            let d = prefix
                .with(a.var, ValueIndex(alt))
                .expect("prefix cannot already assign this variable");
            result.push(d);
        }
        #[expect(
            clippy::expect_used,
            reason = "same: a.var is unassigned in prefix until this step"
        )]
        prefix
            .assign(a.var, a.value)
            .expect("prefix cannot conflict with the subtracted assignment");
    }
    result
}

/// Minimal union-find used for independent partitioning.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        #[expect(
            clippy::indexing_slicing,
            reason = "union-find nodes are 0..n by construction; parents stay in range"
        )]
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the components of `a` and `b`; true if they were distinct.
    #[expect(clippy::indexing_slicing, reason = "same union-find range invariant")]
    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
        ra != rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VarId;

    fn table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    /// World table of Figure 3 (variables x, y, z, u, v).
    fn figure3() -> (WorldTable, [VarId; 5], WsSet) {
        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
            .unwrap();
        let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
        let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
        let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
        let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        (w, [x, y, z, u, v], s)
    }

    #[test]
    fn example_3_3_intersection_and_difference() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();

        let s1 = WsSet::from_descriptors(vec![d1.clone()]);
        let s2 = WsSet::from_descriptors(vec![d2.clone()]);
        let s3 = WsSet::from_descriptors(vec![d3.clone()]);

        // Intersect({d1},{d2}) = Intersect({d2},{d3}) = ∅.
        assert!(s1.intersect(&s2).is_empty());
        assert!(s2.intersect(&s3).is_empty());
        // Intersect({d1},{d3}) = {d3} because d3 is contained in d1.
        let i13 = s1.intersect(&s3);
        assert_eq!(i13.len(), 1);
        assert_eq!(i13.descriptors()[0], d3);
        // Diff({d2},{d1}) = Diff({d2},{d3}) = {d2} (mutex).
        assert_eq!(
            s2.difference(&s1, &w).descriptors(),
            std::slice::from_ref(&d2)
        );
        assert_eq!(
            s2.difference(&s3, &w).descriptors(),
            std::slice::from_ref(&d2)
        );
        // Diff({d1},{d3}) = {{j -> 1, b -> 7}}.
        let expected = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 7)]).unwrap();
        assert_eq!(s1.difference(&s3, &w).descriptors(), &[expected]);
        // Diff({d3},{d1}) = ∅ because d3 is contained in d1
        // (the paper's phrasing: nothing of d3 survives removing ω(d1)).
        assert!(s3.difference(&s1, &w).is_empty());
    }

    #[test]
    fn proposition_3_4_set_operations_are_correct() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(b, 7)]).unwrap();
        let s1 = WsSet::from_descriptors(vec![d1.clone(), d2.clone()]);
        let s2 = WsSet::from_descriptors(vec![d2.clone(), d3.clone()]);

        let union_worlds: FxHashSet<_> = s1
            .enumerate_worlds(&w)
            .union(&s2.enumerate_worlds(&w))
            .cloned()
            .collect();
        assert_eq!(s1.union(&s2).enumerate_worlds(&w), union_worlds);

        let inter_worlds: FxHashSet<_> = s1
            .enumerate_worlds(&w)
            .intersection(&s2.enumerate_worlds(&w))
            .cloned()
            .collect();
        assert_eq!(s1.intersect(&s2).enumerate_worlds(&w), inter_worlds);

        let diff_worlds: FxHashSet<_> = s1
            .enumerate_worlds(&w)
            .difference(&s2.enumerate_worlds(&w))
            .cloned()
            .collect();
        let diff = s1.difference(&s2, &w);
        assert_eq!(diff.enumerate_worlds(&w), diff_worlds);
    }

    #[test]
    fn diff_of_single_descriptor_is_pairwise_mutex() {
        let (w, [x, y, z, u, v], s) = figure3();
        let _ = (y, z, v);
        let d = WsDescriptor::from_pairs(&w, &[(x, 1), (u, 1)]).unwrap();
        let result = diff_descriptor_set(&d, s.descriptors(), &w);
        for (i, d1) in result.iter().enumerate() {
            assert!(result[i + 1..].iter().all(|d2| d1.is_mutex_with(d2)));
        }
    }

    #[test]
    fn universal_and_empty_sets() {
        let (w, _, _) = table();
        let all = WsSet::universal();
        assert!(all.contains_universal());
        assert_eq!(all.enumerate_worlds(&w).len(), 4);
        assert!((all.probability_by_enumeration(&w) - 1.0).abs() < 1e-12);

        let none = WsSet::empty();
        assert!(none.is_empty());
        assert_eq!(none.enumerate_worlds(&w).len(), 0);
        assert_eq!(none.probability_by_enumeration(&w), 0.0);
    }

    #[test]
    fn example_3_2_normalization_by_absorption() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        let d4 = WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap();

        // {d1} is mutex with {d2}; {d1,d2} is independent from {d4}.
        let s12 = WsSet::from_descriptors(vec![d1.clone(), d2.clone()]);
        assert!(WsSet::from_descriptors(vec![d1.clone()])
            .is_mutex_with(&WsSet::from_descriptors(vec![d2.clone()])));
        assert!(s12.is_independent_of(&WsSet::from_descriptors(vec![d4.clone()])));

        // {d3, d4} normalises to {d4} because d3 ⊆ d4, after which it is
        // independent from {d1, d2}.
        let s34 = WsSet::from_descriptors(vec![d3, d4.clone()]);
        let normalized = s34.normalized();
        assert_eq!(normalized.descriptors(), &[d4]);
        assert!(normalized.is_independent_of(&s12));
        assert!(s34.is_equivalent_by_enumeration(&normalized, &w));
    }

    #[test]
    fn normalize_removes_duplicates_and_keeps_semantics() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        let s = WsSet::from_descriptors(vec![d1.clone(), d1.clone(), d3]);
        let n = s.normalized();
        assert_eq!(n.len(), 1);
        assert!(s.is_equivalent_by_enumeration(&n, &w));
    }

    #[test]
    fn figure3_independent_partition() {
        let (_, _, s) = figure3();
        let parts = s.independent_partition();
        assert_eq!(parts.len(), 2);
        // S1 = first three descriptors (over x, y, z), S2 = last two (u, v).
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert!(sizes.contains(&3));
        assert!(sizes.contains(&2));
        assert!(parts[0].is_independent_of(&parts[1]));
        assert_eq!(s.independent_split(), Some(parts.clone()));
        // A connected part (and the empty set) does not split: no copy.
        assert_eq!(parts[0].independent_split(), None);
        assert_eq!(parts[0].independent_partition(), vec![parts[0].clone()]);
        assert_eq!(WsSet::empty().independent_split(), None);
        assert!(WsSet::empty().independent_partition().is_empty());
    }

    #[test]
    fn independent_partition_of_disconnected_booleans_is_fully_split() {
        let mut w = WorldTable::new();
        let vars: Vec<VarId> = (0..6)
            .map(|i| w.add_boolean(&format!("t{i}"), 0.5).unwrap())
            .collect();
        let s: WsSet = vars
            .iter()
            .map(|&v| WsDescriptor::from_pairs(&w, &[(v, 1)]).unwrap())
            .collect();
        let parts = s.independent_partition();
        assert_eq!(parts.len(), 6);
    }

    #[test]
    fn matches_world_and_variables() {
        let (_w, [x, y, _, u, _], s) = figure3();
        assert_eq!(s.variables().len(), 5);
        // World with x=1 is in the set regardless of the other variables.
        let world: Vec<ValueIndex> = vec![
            ValueIndex(0), // x -> 1
            ValueIndex(1),
            ValueIndex(1),
            ValueIndex(0),
            ValueIndex(1),
        ];
        assert!(s.matches_world(&world));
        // World with x=3, y=2, z=2, u=1, v=2 is not covered.
        let world2: Vec<ValueIndex> = vec![
            ValueIndex(2),
            ValueIndex(1),
            ValueIndex(1),
            ValueIndex(0),
            ValueIndex(1),
        ];
        assert!(!s.matches_world(&world2));
        let _ = (x, y, u);
    }

    #[test]
    fn display_and_debug_render() {
        let (w, j, _) = table();
        let s = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap()]);
        assert_eq!(format!("{}", s.display(&w)), "{ {j -> 1} }");
        assert!(format!("{s:?}").contains("x0"));
    }

    #[test]
    fn intersection_detects_cooccurrence() {
        // "Checking whether two tuples of a probabilistic relation can
        // co-occur in some worlds can be done by intersecting their
        // ws-descriptors" (Section 3.2).
        let (w, j, b) = table();
        let t1 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap()]);
        let t2 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap()]);
        let t3 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap()]);
        assert!(!t1.intersect(&t2).is_empty());
        assert!(t1.intersect(&t3).is_empty());
    }
}
