//! The shared decomposition cache: hash-consed ws-set memoization.
//!
//! Exact confidence computation decomposes ws-sets recursively, and the same
//! sub-ws-set recurs constantly: the tail `T` of a variable elimination is
//! revisited in nested contexts, independent components reappear across
//! branches, and the distinct tuples of one query answer share rows with
//! each other and with the answer-level Boolean query. A
//! `DecompositionCache` shard memoizes the probability of every canonical
//! sub-ws-set it sees, so each distinct sub-problem is solved once per
//! database instead of once per occurrence.
//!
//! Keys are built by the hash-consing machinery of `uprob-wsd`
//! ([`DescriptorInterner`] / [`CanonicalSetKey`]): descriptors are interned
//! to dense `u32` ids and a ws-set's key is the sorted, deduplicated id
//! sequence. Equal keys imply equal descriptor sets and therefore equal
//! world-sets, so a cached probability is always sound to reuse. The
//! canonicalisation is purely syntactic (no absorption), so semantically
//! equal but syntactically different sets occupy separate entries — a space
//! trade-off, never a correctness one.
//!
//! # Thread safety
//!
//! [`SharedDecompositionCache`] wraps the cache in a [`Mutex`] so that the
//! batch confidence workers of `uprob-query` (spawned with
//! `std::thread::scope`) can share one cache by reference. Every lookup and
//! insert takes the lock for the duration of one hash-map operation only;
//! probabilities of a ws-set are deterministic, so two workers racing to
//! insert the same key write the same value (the second insert is a no-op)
//! and no worker can observe a wrong entry. The lock is intentionally
//! coarse: correctness first, sharding later (see `DESIGN.md`).
//!
//! Shard access is **poison-tolerant**: a worker that panics while holding
//! a shard lock (contained by the serving layer) must not
//! take every later request down with it. Recovering the guard is sound
//! here because every critical section is one hash-map/interner operation
//! that either completes or leaves the map untouched — `lookup` only reads
//! (its scratch buffer is left valid by `mem::take`), and `insert` is a
//! single first-write-wins entry insertion — and memoized values are pure
//! functions of their keys, so a recovered shard can never serve a wrong
//! probability.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use uprob_wsd::fast_hash::FxHasher;
use uprob_wsd::{
    CanonicalSetKey, DescriptorInterner, FxHashMap, VarId, WorldTable, WsDescriptor, WsSet,
};

use crate::stats::DecompositionStats;

/// Ws-sets larger than this are decomposed without consulting the cache.
///
/// Canonicalising a set costs one hash per descriptor; for the very large
/// outer sets of a decomposition (which almost never recur — reuse lives in
/// the small independent components and elimination tails) that overhead
/// exceeds the expected savings. Sub-sets at or below this size are where
/// sharing actually happens, and their keys are cheap.
pub const MAX_CACHED_SET_LEN: usize = 64;

/// A pending cache entry: the canonical key of a missed set together with
/// the shard that produced it (keys are only meaningful within one shard's
/// interner).
#[derive(Debug)]
pub(crate) struct PendingEntry {
    shard: usize,
    key: CanonicalSetKey,
}

/// Outcome of a cache lookup: either a memoized probability, or the
/// pending entry under which the caller should insert its result.
#[derive(Debug)]
enum CacheLookup {
    /// The set was solved before; reuse this probability.
    Hit(f64),
    /// The set is new; compute it and call
    /// [`SharedDecompositionCache::insert`] with this pending entry.
    Miss(PendingEntry),
}

/// Aggregate counters of one cache (across all runs that shared it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that missed (and were subsequently computed and inserted).
    pub misses: u64,
    /// Number of memoized ws-set probabilities.
    pub entries: u64,
    /// Number of distinct descriptors interned.
    pub interned_descriptors: u64,
    /// Entries carried forward from a predecessor cache by
    /// [`SharedDecompositionCache::inherit_from`].
    pub inherited_entries: u64,
    /// Hits answered from an inherited (rather than locally computed)
    /// entry.
    pub inherited_hits: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 if none were made).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One memoized probability together with its provenance: locally computed
/// or carried forward from a predecessor cache.
#[derive(Clone, Copy, Debug, PartialEq)]
struct MemoEntry {
    probability: f64,
    inherited: bool,
}

/// The single-threaded core of one cache shard: an interner plus the
/// probability memo table and hit/miss counters.
#[derive(Debug, Default)]
struct DecompositionCache {
    interner: DescriptorInterner,
    probabilities: FxHashMap<CanonicalSetKey, MemoEntry>,
    /// Reusable id buffer so hit lookups allocate nothing.
    scratch: Vec<u32>,
    hits: u64,
    misses: u64,
    inherited_entries: u64,
    inherited_hits: u64,
}

impl DecompositionCache {
    /// Looks up the probability of `set`, counting the hit or miss.
    fn lookup(&mut self, set: &WsSet) -> Result<f64, CanonicalSetKey> {
        let mut ids = std::mem::take(&mut self.scratch);
        self.interner.canonical_ids(set, &mut ids);
        // Probe through Borrow<[u32]> — no key allocation on the hit path.
        let result = match self.probabilities.get(ids.as_slice()) {
            Some(&entry) => {
                self.hits += 1;
                if entry.inherited {
                    self.inherited_hits += 1;
                }
                Ok(entry.probability)
            }
            None => {
                self.misses += 1;
                Err(CanonicalSetKey::from_sorted_ids(&ids))
            }
        };
        self.scratch = ids;
        result
    }

    /// Memoizes the probability of the set behind `key`. The first write
    /// wins; concurrent writers always carry the same value.
    fn insert(&mut self, key: CanonicalSetKey, probability: f64) {
        if let Entry::Vacant(slot) = self.probabilities.entry(key) {
            slot.insert(MemoEntry {
                probability,
                inherited: false,
            });
        }
    }

    /// Non-counting presence probe (tests and diagnostics): the memoized
    /// probability of `set`, if present, without perturbing the hit/miss
    /// counters.
    fn probe(&mut self, set: &WsSet) -> Option<f64> {
        let mut ids = std::mem::take(&mut self.scratch);
        self.interner.canonical_ids(set, &mut ids);
        let result = self
            .probabilities
            .get(ids.as_slice())
            .map(|e| e.probability);
        self.scratch = ids;
        result
    }

    /// Memoizes an entry carried forward from a predecessor cache. Private
    /// to the inheritance path: the only route here is
    /// [`SharedDecompositionCache::inherit_from`], which performs the
    /// descriptor-disjointness/eligibility check.
    fn insert_inherited_set(&mut self, set: &WsSet, probability: f64) {
        let mut ids = std::mem::take(&mut self.scratch);
        self.interner.canonical_ids(set, &mut ids);
        if let Entry::Vacant(slot) = self
            .probabilities
            .entry(CanonicalSetKey::from_sorted_ids(&ids))
        {
            slot.insert(MemoEntry {
                probability,
                inherited: true,
            });
            self.inherited_entries += 1;
        }
        self.scratch = ids;
    }

    /// Resolves every memoized entry back to its descriptor list (keys are
    /// interner-local, so export must happen inside the owning shard).
    fn export_entries(&self) -> Vec<(Vec<WsDescriptor>, f64)> {
        self.probabilities
            .iter()
            .map(|(key, entry)| {
                let descriptors = key
                    .ids()
                    .map(|id| self.interner.resolve(id).clone())
                    .collect();
                (descriptors, entry.probability)
            })
            .collect()
    }

    /// Current counters.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.probabilities.len() as u64,
            interned_descriptors: self.interner.len() as u64,
            inherited_entries: self.inherited_entries,
            inherited_hits: self.inherited_hits,
        }
    }
}

/// Number of independently locked shards. Sixteen keeps contention low for
/// the worker counts of commodity machines while staying cheap to
/// aggregate.
const SHARDS: usize = 16;

/// A sharded decomposition cache shareable by reference between scoped
/// worker threads (see the module docs for the locking contract).
///
/// A set is routed to its shard by an order-independent digest of its
/// descriptors, so permutations of the same set always meet in the same
/// shard; each shard owns an independent interner and memo table.
#[derive(Debug)]
pub struct SharedDecompositionCache {
    shards: Vec<Mutex<DecompositionCache>>,
    /// Stamp of the world table this cache is bound to (0 = not yet bound).
    /// Cached probabilities are only valid for one (unmutated) table, so
    /// the first cached run binds the cache and later runs with a
    /// different table are rejected instead of silently returning stale
    /// probabilities.
    bound_table: std::sync::atomic::AtomicU64,
}

impl Default for SharedDecompositionCache {
    fn default() -> Self {
        SharedDecompositionCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            bound_table: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl SharedDecompositionCache {
    /// Creates an empty shared cache.
    pub fn new() -> Self {
        SharedDecompositionCache::default()
    }

    /// Binds this cache to `table` on first use and rejects reuse with any
    /// other table (world-table stamps are shared only by unmutated
    /// clones, so equal stamps imply identical contents).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CacheTableMismatch`] if the cache is
    /// already bound to a different world table.
    pub fn bind_table(&self, table: &uprob_wsd::WorldTable) -> crate::Result<()> {
        use std::sync::atomic::Ordering;
        let stamp = table.stamp();
        match self
            .bound_table
            .compare_exchange(0, stamp, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ok(()),
            Err(bound) if bound == stamp => Ok(()),
            Err(bound) => Err(crate::CoreError::CacheTableMismatch {
                bound,
                given: stamp,
            }),
        }
    }

    /// True if `set` is worth memoizing: at least two descriptors (smaller
    /// sets are cheaper to solve than to canonicalise), no nullary
    /// descriptor (those short-circuit to probability 1), and within
    /// [`MAX_CACHED_SET_LEN`].
    fn is_cacheable(set: &WsSet) -> bool {
        (2..=MAX_CACHED_SET_LEN).contains(&set.len()) && !set.contains_universal()
    }

    /// The shard responsible for `set`: an order-independent and
    /// duplicate-insensitive combination of per-descriptor digests, so
    /// every descriptor list with the same canonical form (sorted,
    /// deduplicated — what `DescriptorInterner::canonical_ids` produces)
    /// routes to the same shard. Duplicate insensitivity matters beyond a
    /// missed reuse: [`Self::inherit_from`] re-inserts entries from their
    /// deduplicated canonical keys, so a duplicate-sensitive digest would
    /// route an inherited entry away from the raw sets that hit it before
    /// the publish.
    fn shard_of(&self, set: &WsSet) -> usize {
        let mut hashes: Vec<u64> = set
            .iter()
            .map(|descriptor| {
                let mut hasher = FxHasher::default();
                descriptor.hash(&mut hasher);
                hasher.finish() | 1
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        let digest = hashes.into_iter().fold(0u64, u64::wrapping_add);
        (digest % SHARDS as u64) as usize
    }

    /// Locks one shard, recovering from poisoning (see the module docs for
    /// why recovery is sound here: every critical section is a single
    /// atomic-in-effect map operation over deterministic values).
    fn shard_guard(shard: &Mutex<DecompositionCache>) -> MutexGuard<'_, DecompositionCache> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the probability of `set`, counting the hit or miss.
    fn lookup(&self, set: &WsSet) -> CacheLookup {
        let shard = self.shard_of(set);
        #[expect(clippy::indexing_slicing, reason = "shard_of masks into 0..SHARDS")]
        match Self::shard_guard(&self.shards[shard]).lookup(set) {
            Ok(p) => CacheLookup::Hit(p),
            Err(key) => CacheLookup::Miss(PendingEntry { shard, key }),
        }
    }

    /// The memo probe every fold speaks. `Ok(p)`: `set` was solved before
    /// (counted on the run's `cache_hits`). `Err(pending)`: compute it —
    /// `Some(entry)` is a counted miss whose result goes to
    /// [`Self::insert`]; `None` means there is nothing to publish (no
    /// cache, or a set outside the cacheable band: trivial sets are cheaper
    /// to solve directly and huge sets rarely recur).
    pub(crate) fn probe_memo(
        cache: Option<&Self>,
        set: &WsSet,
        stats: &mut DecompositionStats,
    ) -> Result<f64, Option<PendingEntry>> {
        let Some(shared) = cache.filter(|_| Self::is_cacheable(set)) else {
            return Err(None);
        };
        match shared.lookup(set) {
            CacheLookup::Hit(probability) => {
                stats.cache_hits += 1;
                Ok(probability)
            }
            CacheLookup::Miss(entry) => {
                stats.cache_misses += 1;
                Err(Some(entry))
            }
        }
    }

    /// Memoizes the probability of the set behind `pending`.
    pub(crate) fn insert(&self, pending: PendingEntry, probability: f64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "pending.shard was produced by shard_of"
        )]
        Self::shard_guard(&self.shards[pending.shard]).insert(pending.key, probability);
    }

    /// Non-counting presence probe (tests and diagnostics).
    pub fn probe(&self, set: &WsSet) -> Option<f64> {
        let shard = self.shard_of(set);
        #[expect(clippy::indexing_slicing, reason = "shard_of masks into 0..SHARDS")]
        Self::shard_guard(&self.shards[shard]).probe(set)
    }

    /// Carries forward every entry of `old` whose descriptors survive the
    /// prior → posterior transition described by `remap`, binding this
    /// cache to `new_table`.
    ///
    /// An entry is inherited iff **every** variable mentioned by **every**
    /// of its descriptors (i) is absent from `touched` (the variables the
    /// conditioning pass eliminated — their assignments changed meaning
    /// under the posterior measure), (ii) is present in `remap`, and
    /// (iii) maps to a variable of `new_table` with a bit-identical domain
    /// and distribution. Entries failing any leg are dropped — the
    /// conservative direction. This is sound because a memoized
    /// `P(ws-set)` is a pure function of the mentioned variables'
    /// distributions (all unmentioned variables marginalise to one), and
    /// the remap produced by conditioning/simplification is monotone (it
    /// preserves relative [`VarId`] order, hence descriptor assignment
    /// order and the whole decomposition recursion), so the inherited
    /// probability is bit-for-bit what recomputation on `new_table` would
    /// produce.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::CacheTableMismatch`] if `old` is bound to a
    /// table other than `old_table`, or this cache is already bound to a
    /// table other than `new_table`.
    pub fn inherit_from(
        &self,
        old: &SharedDecompositionCache,
        old_table: &WorldTable,
        new_table: &WorldTable,
        remap: &FxHashMap<VarId, VarId>,
        touched: &[VarId],
    ) -> crate::Result<InheritOutcome> {
        use std::sync::atomic::Ordering;
        let old_bound = old.bound_table.load(Ordering::Acquire);
        if old_bound == 0 {
            // The predecessor cache was never used: nothing to inherit,
            // but the new cache still gets bound so later runs are checked.
            self.bind_table(new_table)?;
            return Ok(InheritOutcome::default());
        }
        if old_bound != old_table.stamp() {
            return Err(crate::CoreError::CacheTableMismatch {
                bound: old_bound,
                given: old_table.stamp(),
            });
        }
        self.bind_table(new_table)?;

        // Per-variable eligibility, memoized across entries: Some(new) if
        // the variable survives with an identical distribution, None if any
        // entry mentioning it must be dropped.
        let mut eligible: FxHashMap<VarId, Option<VarId>> = FxHashMap::default();
        let mut resolve = |var: VarId| -> Option<VarId> {
            *eligible.entry(var).or_insert_with(|| {
                if touched.contains(&var) {
                    return None;
                }
                let new_var = *remap.get(&var)?;
                let old_info = old_table.variable(var).ok()?;
                let new_info = new_table.variable(new_var).ok()?;
                let same = old_info.values == new_info.values
                    && old_info.probabilities.len() == new_info.probabilities.len()
                    && old_info
                        .probabilities
                        .iter()
                        .zip(&new_info.probabilities)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                same.then_some(new_var)
            })
        };

        let mut outcome = InheritOutcome::default();
        for shard in &old.shards {
            let exported = Self::shard_guard(shard).export_entries();
            'entry: for (descriptors, probability) in exported {
                let mut remapped = Vec::with_capacity(descriptors.len());
                for descriptor in &descriptors {
                    let mut rebuilt = WsDescriptor::empty();
                    for a in descriptor.iter() {
                        let Some(new_var) = resolve(a.var) else {
                            outcome.dropped += 1;
                            continue 'entry;
                        };
                        #[expect(
                            clippy::expect_used,
                            reason = "the remap is injective, so remapping preserves functionality"
                        )]
                        rebuilt
                            .assign(new_var, a.value)
                            .expect("injective remap of a functional descriptor");
                    }
                    remapped.push(rebuilt);
                }
                let set = WsSet::from_descriptors(remapped);
                let target = self.shard_of(&set);
                #[expect(clippy::indexing_slicing, reason = "shard_of masks into 0..SHARDS")]
                Self::shard_guard(&self.shards[target]).insert_inherited_set(&set, probability);
                outcome.inherited += 1;
            }
        }
        Ok(outcome)
    }

    /// Aggregate counters across all shards and every run that used this
    /// cache.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let stats = Self::shard_guard(shard).stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.entries += stats.entries;
            total.interned_descriptors += stats.interned_descriptors;
            total.inherited_entries += stats.inherited_entries;
            total.inherited_hits += stats.inherited_hits;
        }
        total
    }
}

/// Result of one [`SharedDecompositionCache::inherit_from`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InheritOutcome {
    /// Entries carried forward into the new cache.
    pub inherited: u64,
    /// Entries dropped because a mentioned variable was touched, unmapped
    /// or re-distributed.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_wsd::{WorldTable, WsDescriptor};

    fn two_sets() -> (WorldTable, WsSet, WsSet) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap();
        let s12 = WsSet::from_descriptors(vec![d1.clone(), d2.clone()]);
        let s21 = WsSet::from_descriptors(vec![d2, d1]);
        (w, s12, s21)
    }

    #[test]
    fn miss_then_hit_through_canonicalisation() {
        let (_, s12, s21) = two_sets();
        let cache = SharedDecompositionCache::new();
        let CacheLookup::Miss(key) = cache.lookup(&s12) else {
            panic!("first lookup must miss");
        };
        cache.insert(key, 0.44);
        // The permuted set canonicalises to the same key.
        match cache.lookup(&s21) {
            CacheLookup::Hit(p) => assert_eq!(p, 0.44),
            CacheLookup::Miss(_) => panic!("permuted set must hit"),
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.interned_descriptors, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_descriptors_route_to_the_same_shard() {
        // A raw list with a repeated descriptor canonicalises to the same
        // key as its deduplicated form, so it must also meet it in the
        // same shard — otherwise the duplicated probe misses an entry the
        // deduplicated set inserted (and inherited entries, re-inserted
        // from deduplicated canonical keys, would dodge raw probes).
        let (_, s12, _) = two_sets();
        let mut duplicated = s12.clone();
        duplicated.push(s12.descriptors()[0].clone());
        let cache = SharedDecompositionCache::new();
        let CacheLookup::Miss(key) = cache.lookup(&s12) else {
            panic!("first lookup must miss");
        };
        cache.insert(key, 0.44);
        match cache.lookup(&duplicated) {
            CacheLookup::Hit(p) => assert_eq!(p, 0.44),
            CacheLookup::Miss(_) => panic!("duplicated set must hit the deduplicated entry"),
        }
        assert_eq!(cache.probe(&duplicated), Some(0.44));
    }

    #[test]
    fn first_insert_wins() {
        let (_, s12, _) = two_sets();
        let mut cache = DecompositionCache::default();
        let Err(key) = cache.lookup(&s12) else {
            panic!("first lookup must miss");
        };
        cache.insert(key.clone(), 0.44);
        cache.insert(key, 0.99);
        assert_eq!(cache.lookup(&s12), Ok(0.44));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn shared_cache_is_usable_from_scoped_threads() {
        let (_, s12, s21) = two_sets();
        let cache = SharedDecompositionCache::new();
        std::thread::scope(|scope| {
            for set in [&s12, &s21, &s12, &s21] {
                scope.spawn(|| {
                    if let CacheLookup::Miss(key) = cache.lookup(set) {
                        cache.insert(key, 0.44);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(stats.entries, 1);
        match cache.lookup(&s21) {
            CacheLookup::Hit(p) => assert_eq!(p, 0.44),
            CacheLookup::Miss(_) => panic!("must hit after the threads ran"),
        }
    }

    #[test]
    fn cache_rejects_reuse_across_world_tables() {
        use crate::confidence::confidence_with_cache;
        use crate::decompose::DecompositionOptions;
        let (w, s12, _) = two_sets();
        let cache = SharedDecompositionCache::new();
        let options = DecompositionOptions::indve_minlog();
        confidence_with_cache(&s12, &w, &options, Some(&cache)).unwrap();
        // Same (unmutated) clone: fine.
        confidence_with_cache(&s12, &w.clone(), &options, Some(&cache)).unwrap();
        // A different database — even with identical contents — is refused
        // instead of silently serving the first database's probabilities.
        let (other, other_set, _) = two_sets();
        let err = confidence_with_cache(&other_set, &other, &options, Some(&cache)).unwrap_err();
        assert!(matches!(err, crate::CoreError::CacheTableMismatch { .. }));
        // A mutated copy of the original table is refused as well.
        let mut mutated = w.clone();
        mutated.add_boolean("extra", 0.5).unwrap();
        let err = confidence_with_cache(&s12, &mutated, &options, Some(&cache)).unwrap_err();
        assert!(matches!(err, crate::CoreError::CacheTableMismatch { .. }));
    }

    #[test]
    fn poisoned_shard_recovers_for_later_requests() {
        let (_, s12, s21) = two_sets();
        let cache = SharedDecompositionCache::new();
        let CacheLookup::Miss(key) = cache.lookup(&s12) else {
            panic!("first lookup must miss");
        };
        cache.insert(key, 0.44);
        // Poison the shard holding the entry: a thread panics while its
        // guard is live (what an injected worker panic does at worst).
        let shard = cache.shard_of(&s12);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.shards[shard].lock().unwrap();
                    panic!("poison the shard");
                })
                .join()
        });
        assert!(poisoner.is_err(), "the poisoning thread must panic");
        assert!(cache.shards[shard].is_poisoned());
        // Lookup, insert and stats all recover instead of propagating.
        match cache.lookup(&s21) {
            CacheLookup::Hit(p) => assert_eq!(p, 0.44),
            CacheLookup::Miss(_) => panic!("the memoized entry must survive the poisoning"),
        }
        let CacheLookup::Miss(extra) = cache.lookup(&WsSet::from_descriptors(vec![
            s12.iter().next().unwrap().clone(),
            s12.iter().next().unwrap().clone(),
        ])) else {
            panic!("an unseen set must miss");
        };
        cache.insert(extra, 0.2);
        let stats = cache.stats();
        assert!(stats.hits >= 1 && stats.entries >= 1);
    }

    #[test]
    fn empty_cache_stats_are_zero() {
        let cache = SharedDecompositionCache::new();
        let stats = cache.stats();
        assert_eq!(stats, CacheStats::default());
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_without_lookups_is_zero_not_nan() {
        // The zero-lookup guard: 0/0 must read as 0.0, never NaN.
        let stats = CacheStats::default();
        assert_eq!(stats.hits + stats.misses, 0);
        let rate = stats.hit_rate();
        assert!(!rate.is_nan());
        assert_eq!(rate, 0.0);
        // And with lookups the ratio is the plain fraction.
        let some = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((some.hit_rate() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn inherit_carries_disjoint_entries_and_drops_touched_ones() {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        let c = w.add_boolean("c", 0.5).unwrap();
        let dj = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let db_ = WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap();
        let dc = WsDescriptor::from_pairs(&w, &[(c, 1)]).unwrap();
        let over_bc = WsSet::from_descriptors(vec![db_.clone(), dc.clone()]);
        let over_jb = WsSet::from_descriptors(vec![dj.clone(), db_.clone()]);

        let old = SharedDecompositionCache::new();
        old.bind_table(&w).unwrap();
        for (set, p) in [(&over_bc, 0.65), (&over_jb, 0.44)] {
            let CacheLookup::Miss(pending) = old.lookup(set) else {
                panic!("fresh set must miss");
            };
            old.insert(pending, p);
        }

        // Simulate conditioning that eliminated j: b and c survive,
        // renumbered down by one (monotone remap), identical distributions.
        let (new_table, remap) = w.retain_variables(|var, _| var != j);
        let touched = vec![j];
        let fresh = SharedDecompositionCache::new();
        let outcome = fresh
            .inherit_from(&old, &w, &new_table, &remap, &touched)
            .unwrap();
        assert_eq!(
            outcome,
            InheritOutcome {
                inherited: 1,
                dropped: 1,
            }
        );

        // The surviving entry answers under the *new* variable ids…
        let nb = remap[&b];
        let nc = remap[&c];
        let d_nb = {
            let mut d = WsDescriptor::empty();
            d.assign(nb, uprob_wsd::ValueIndex(0)).unwrap();
            d
        };
        let d_nc = {
            let mut d = WsDescriptor::empty();
            d.assign(nc, uprob_wsd::ValueIndex(0)).unwrap();
            d
        };
        let remapped_bc = WsSet::from_descriptors(vec![d_nb, d_nc]);
        assert_eq!(fresh.probe(&remapped_bc), Some(0.65));
        match fresh.lookup(&remapped_bc) {
            CacheLookup::Hit(p) => assert_eq!(p, 0.65),
            CacheLookup::Miss(_) => panic!("inherited entry must hit"),
        }
        let stats = fresh.stats();
        assert_eq!(stats.inherited_entries, 1);
        assert_eq!(stats.inherited_hits, 1);
        assert_eq!(stats.entries, 1);

        // The touched entry is gone: nothing in the new cache mentions j's
        // descriptors.
        let d_touch = {
            let mut d = WsDescriptor::empty();
            d.assign(nb, uprob_wsd::ValueIndex(0)).unwrap();
            d
        };
        let gone = WsSet::from_descriptors(vec![d_touch]);
        assert_eq!(fresh.probe(&gone), None);

        // The new cache is bound to the new table: reuse with the old one
        // is rejected.
        assert!(fresh.bind_table(&new_table).is_ok());
        assert!(matches!(
            fresh.bind_table(&w),
            Err(crate::CoreError::CacheTableMismatch { .. })
        ));
    }

    #[test]
    fn inherit_from_unused_cache_binds_without_entries() {
        let (w, _, _) = {
            let mut w = WorldTable::new();
            let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
            let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
            (w, j, b)
        };
        let old = SharedDecompositionCache::new();
        let remap: FxHashMap<VarId, VarId> = w.variable_ids().map(|v| (v, v)).collect();
        let fresh = SharedDecompositionCache::new();
        let outcome = fresh.inherit_from(&old, &w, &w, &remap, &[]).unwrap();
        assert_eq!(outcome, InheritOutcome::default());
        // Bound to the (new) table nonetheless.
        assert!(fresh.bind_table(&w).is_ok());
    }

    #[test]
    fn identity_inherit_preserves_every_entry_bit_for_bit() {
        // The delta-publish case: append-only growth, identity remap,
        // nothing touched — every entry survives verbatim.
        let (w, s12, _) = two_sets();
        let old = SharedDecompositionCache::new();
        old.bind_table(&w).unwrap();
        let CacheLookup::Miss(pending) = old.lookup(&s12) else {
            panic!("must miss");
        };
        old.insert(pending, 0.44);
        let mut grown = w.clone();
        grown.add_boolean("extra", 0.5).unwrap();
        let remap: FxHashMap<VarId, VarId> = w.variable_ids().map(|v| (v, v)).collect();
        let fresh = SharedDecompositionCache::new();
        let outcome = fresh.inherit_from(&old, &w, &grown, &remap, &[]).unwrap();
        assert_eq!(outcome.inherited, 1);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(fresh.probe(&s12).map(f64::to_bits), Some(0.44f64.to_bits()));
    }
}
