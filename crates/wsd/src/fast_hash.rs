//! A fast, non-cryptographic hasher for memo tables and indexes.
//!
//! The decomposition cache hashes millions of tiny keys (sets of a few
//! descriptors of a few assignments each). The standard library's
//! SipHash is DoS-resistant but pays ~1–2ns per byte in setup-heavy rounds;
//! for trusted in-process keys a multiply-rotate hash (the design of
//! rustc's `FxHasher`) is several times faster and has more than adequate
//! distribution for these workloads. Not suitable for hashing
//! untrusted external input.

#![expect(
    clippy::disallowed_types,
    reason = "this module defines the sanctioned wrappers: std's tables with the RandomState hasher swapped for FxBuildHasher and iteration taken away"
)]

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate hasher in the style of rustc's `FxHasher`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn combine(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            #[expect(clippy::expect_used, reason = "chunks_exact(8) yields exactly 8 bytes")]
            self.combine(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            #[expect(
                clippy::indexing_slicing,
                reason = "remainder of chunks_exact(8) is < 8 bytes"
            )]
            word[..rest.len()].copy_from_slice(rest);
            self.combine(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.combine(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.combine(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.combine(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.combine(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.combine(n as u64);
    }
}

/// [`BuildHasher`] producing [`FxHasher`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A hash map keyed with [`FxHasher`] that cannot be iterated.
///
/// Hash order is an accident of the hasher and the insertion history, and a
/// result that depends on it is not reproducible. So the map offers lookups
/// and updates only, and the one way to walk it is in key order,
/// [`sorted_entries`](FxHashMap::sorted_entries). There is no `iter`,
/// `keys`, `values`, `drain` and no `IntoIterator`; each of these fails to
/// compile:
///
/// ```compile_fail,E0277
/// let map: uprob_wsd::FxHashMap<u32, u32> = uprob_wsd::FxHashMap::default();
/// for _ in &map {}
/// ```
///
/// ```compile_fail,E0599
/// let map: uprob_wsd::FxHashMap<u32, u32> = uprob_wsd::FxHashMap::default();
/// let _ = map.iter();
/// ```
#[derive(Clone, Debug)]
pub struct FxHashMap<K, V>(HashMap<K, V, FxBuildHasher>);

impl<K, V> Default for FxHashMap<K, V> {
    fn default() -> Self {
        FxHashMap(HashMap::default())
    }
}

impl<K: Eq + Hash, V> FxHashMap<K, V> {
    /// The value under `key`, if any.
    #[inline]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.get(key)
    }

    /// True if `key` has a value.
    #[inline]
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.contains_key(key)
    }

    /// Stores `value` under `key`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// The slot of `key`, for an insert-if-absent or an in-place update.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Removes and returns the value under `key`.
    #[inline]
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.remove(key)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every entry, in ascending key order: the map's only walk, so what a
    /// caller builds from it does not depend on hash order.
    pub fn sorted_entries(&self) -> Vec<(&K, &V)>
    where
        K: Ord,
    {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for FxHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        FxHashMap(HashMap::from_iter(iter))
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for FxHashMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

/// A hash set keyed with [`FxHasher`] that cannot be iterated, for the
/// reason [`FxHashMap`] gives; today's callers only deduplicate. This fails
/// to compile:
///
/// ```compile_fail,E0599
/// let set: uprob_wsd::FxHashSet<u32> = uprob_wsd::FxHashSet::default();
/// for _ in set.into_iter() {}
/// ```
pub struct FxHashSet<T>(HashSet<T, FxBuildHasher>);

impl<T> Default for FxHashSet<T> {
    fn default() -> Self {
        FxHashSet(HashSet::default())
    }
}

impl<T: Eq + Hash> FxHashSet<T> {
    /// Adds `value`; true if it was not present.
    #[inline]
    pub fn insert(&mut self, value: T) -> bool {
        self.0.insert(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `FxHasher` digest of one value.
    fn fx_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_eq!(
            fx_hash_one(&vec![1u32, 2, 3]),
            fx_hash_one(&vec![1u32, 2, 3])
        );
    }

    #[test]
    fn different_values_disperse() {
        // Not a rigorous avalanche test — just a guard against a degenerate
        // implementation collapsing everything into a few buckets.
        let mut buckets = [0usize; 16];
        for i in 0..4096u64 {
            buckets[(fx_hash_one(&i) % 16) as usize] += 1;
        }
        for &count in &buckets {
            assert!((150..=400).contains(&count), "skewed bucket: {count}");
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        map.insert("a".into(), 1);
        assert_eq!(map.get("a"), Some(&1));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(9));
        assert!(!set.insert(9), "9 is already present");
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        assert_ne!(fx_hash_one(&[1u8, 2, 3][..]), fx_hash_one(&[1u8, 2, 4][..]));
    }
}
