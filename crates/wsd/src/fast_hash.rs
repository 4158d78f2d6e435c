//! A fast, non-cryptographic hasher for interning and memo tables.
//!
//! The decomposition cache hashes millions of tiny keys (descriptors of a
//! few assignments, id slices of a few `u32`s). The standard library's
//! SipHash is DoS-resistant but pays ~1–2ns per byte in setup-heavy rounds;
//! for trusted in-process keys a multiply-rotate hash (the design of
//! rustc's `FxHasher`) is several times faster and has more than adequate
//! distribution for hash-consing workloads. Not suitable for hashing
//! untrusted external input.

#[expect(
    clippy::disallowed_types,
    reason = "this module defines the sanctioned aliases: std's tables with the RandomState hasher swapped for FxBuildHasher"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

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

/// A [`HashMap`] keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the sanctioned alias itself: FxBuildHasher replaces RandomState"
)]
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the sanctioned alias itself: FxBuildHasher replaces RandomState"
)]
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

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
        set.insert(9);
        assert!(set.contains(&9));
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        assert_ne!(fx_hash_one(&[1u8, 2, 3][..]), fx_hash_one(&[1u8, 2, 4][..]));
    }
}
