//! Hash-consing of world-set descriptors and canonical ws-set keys.
//!
//! The decomposition algorithms of the paper (Sections 4–6) repeatedly visit
//! the *same* sub-ws-sets: the tail `T` of a variable elimination recurs in
//! every branch, independent components reappear across branches, and the
//! distinct tuples of a query answer share rows. Memoizing those
//! sub-computations requires a cheap, canonical identity for ws-sets.
//!
//! A [`DescriptorInterner`] assigns each distinct [`WsDescriptor`] a dense
//! [`DescriptorId`] (`u32`). Descriptors are already kept in canonical
//! sorted-assignment form (sorted by [`VarId`](crate::VarId), at most one
//! value per variable), so structural equality coincides with semantic
//! equality of descriptors and hash-consing is sound. A ws-set is then
//! canonicalised into a [`CanonicalSetKey`]: the *sorted, deduplicated*
//! sequence of its descriptor ids. Two ws-sets receive the same key iff they
//! contain the same set of descriptors — a purely syntactic notion that is
//! sufficient for memoization (equal keys imply equal world-sets) and O(w)
//! to compute, with O(1) amortised equality/hashing on the `u32` ids.
//!
//! Absorption (dropping subsumed descriptors) is deliberately *not* applied
//! during canonicalisation: it would make key construction quadratic and is
//! unnecessary for soundness. Semantically equal but syntactically different
//! sets simply occupy separate cache entries. See `DESIGN.md` for the full
//! cache architecture.

use crate::descriptor::WsDescriptor;
use crate::fast_hash::FxHashMap;
use crate::ws_set::WsSet;

/// Dense identifier of an interned [`WsDescriptor`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DescriptorId(pub u32);

impl DescriptorId {
    /// The dense index of this descriptor in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Canonical identity of a ws-set: the sorted, deduplicated ids of its
/// descriptors under one [`DescriptorInterner`].
///
/// Keys are only meaningful relative to the interner that produced them;
/// mixing keys from different interners is a logic error (callers in this
/// workspace always pair one interner with one memo table).
///
/// The derived `Hash` of the boxed slice equals the hash of the borrowed
/// `[u32]` slice, so memo tables can be probed allocation-free with a
/// scratch id buffer through [`std::borrow::Borrow`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonicalSetKey(Box<[u32]>);

impl std::borrow::Borrow<[u32]> for CanonicalSetKey {
    fn borrow(&self) -> &[u32] {
        &self.0
    }
}

impl CanonicalSetKey {
    /// Builds a key from ids that are already sorted and deduplicated
    /// (the format produced by [`DescriptorInterner::canonical_ids`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields exactly 2 elements"
    )]
    pub fn from_sorted_ids(ids: &[u32]) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted+deduped"
        );
        CanonicalSetKey(ids.into())
    }

    /// Number of distinct descriptors in the canonicalised set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the canonicalised set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sorted descriptor ids of the key.
    pub fn ids(&self) -> impl Iterator<Item = DescriptorId> + '_ {
        self.0.iter().map(|&id| DescriptorId(id))
    }
}

/// A hash-consed store of [`WsDescriptor`]s.
///
/// Interning the same descriptor twice returns the same [`DescriptorId`];
/// ids are dense (0, 1, 2, …) in first-seen order, so they can index
/// auxiliary vectors directly.
#[derive(Clone, Debug, Default)]
pub struct DescriptorInterner {
    by_descriptor: FxHashMap<WsDescriptor, DescriptorId>,
    descriptors: Vec<WsDescriptor>,
}

impl DescriptorInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        DescriptorInterner::default()
    }

    /// Number of distinct descriptors interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True if nothing has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Interns a descriptor, returning its stable id.
    ///
    /// Descriptors are stored in canonical sorted-assignment form already,
    /// so structural equality is the right hash-consing equivalence.
    pub fn intern(&mut self, descriptor: &WsDescriptor) -> DescriptorId {
        if let Some(&id) = self.by_descriptor.get(descriptor) {
            return id;
        }
        let id = DescriptorId(
            #[expect(
                clippy::expect_used,
                reason = "2^32 interned descriptors exceeds addressable memory first"
            )]
            u32::try_from(self.descriptors.len()).expect("more than u32::MAX distinct descriptors"),
        );
        self.by_descriptor.insert(descriptor.clone(), id);
        self.descriptors.push(descriptor.clone());
        id
    }

    /// The descriptor behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: DescriptorId) -> &WsDescriptor {
        #[expect(
            clippy::indexing_slicing,
            reason = "documented panic contract: id must come from this interner"
        )]
        &self.descriptors[id.index()]
    }

    /// Canonicalises a ws-set into `out` (cleared first): interns every
    /// descriptor, sorts the ids and removes duplicates. The buffer form
    /// lets hot paths probe memo tables without allocating a key.
    pub fn canonical_ids(&mut self, set: &WsSet, out: &mut Vec<u32>) {
        out.clear();
        out.extend(set.iter().map(|d| self.intern(d).0));
        out.sort_unstable();
        out.dedup();
    }

    /// Canonicalises a ws-set into its memoization key: interns every
    /// descriptor, sorts the ids and removes duplicates.
    #[cfg(test)]
    fn canonical_key(&mut self, set: &WsSet) -> CanonicalSetKey {
        let mut ids = Vec::new();
        self.canonical_ids(set, &mut ids);
        CanonicalSetKey(ids.into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VarId;
    use crate::world_table::WorldTable;

    fn table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
        let mut interner = DescriptorInterner::new();
        let a = interner.intern(&d1);
        let b2 = interner.intern(&d2);
        let a_again = interner.intern(&d1);
        assert_eq!(a, a_again);
        assert_ne!(a, b2);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), &d1);
        assert_eq!(interner.resolve(b2), &d2);
        assert_eq!(a.index(), 0);
        assert_eq!(b2.index(), 1);
    }

    #[test]
    fn canonical_key_is_order_and_duplicate_insensitive() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap();
        let mut interner = DescriptorInterner::new();
        let forward =
            interner.canonical_key(&WsSet::from_descriptors(vec![d1.clone(), d2.clone()]));
        let backward =
            interner.canonical_key(&WsSet::from_descriptors(vec![d2.clone(), d1.clone()]));
        let with_duplicates = interner.canonical_key(&WsSet::from_descriptors(vec![
            d1.clone(),
            d2.clone(),
            d1.clone(),
            d2,
        ]));
        assert_eq!(forward, backward);
        assert_eq!(forward, with_duplicates);
        assert_eq!(forward.len(), 2);
        let singleton = interner.canonical_key(&WsSet::from_descriptors(vec![d1]));
        assert_ne!(forward, singleton);
    }

    #[test]
    fn canonical_keys_distinguish_different_sets() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        let mut interner = DescriptorInterner::new();
        let k1 = interner.canonical_key(&WsSet::from_descriptors(vec![d1.clone()]));
        let k3 = interner.canonical_key(&WsSet::from_descriptors(vec![d3.clone()]));
        let k13 = interner.canonical_key(&WsSet::from_descriptors(vec![d1, d3]));
        assert_ne!(k1, k3);
        assert_ne!(k1, k13);
        assert_ne!(k3, k13);
        let empty = interner.canonical_key(&WsSet::empty());
        assert!(empty.is_empty());
        assert_eq!(k13.ids().count(), 2);
    }
}
