//! ws-descriptor elimination (WE), Section 6.
//!
//! An alternative exact probability computation that does not build a
//! ws-tree: descriptors are eliminated one by one using the ws-set
//! difference operation, exploiting that the difference preserves the mutex
//! property (Lemma 6.2). The probability of a ws-set `{d_1, …, d_n}` is
//!
//! ```text
//! Pw(S) = Pw({d_2, …, d_n}) + Σ_{d ∈ Diff({d_1}, {d_2, …, d_n})} P(d)
//! ```
//!
//! i.e. the probability of the rest plus the probability of the worlds of
//! `d_1` that no later descriptor covers. The descriptors of the difference
//! are generated and summed on the fly (they are pairwise mutex and need not
//! be stored), exactly as described at the end of Section 6.

use std::sync::atomic::AtomicU64;

use uprob_approx::fan_out_indexed;
use uprob_wsd::ws_set::{diff_descriptor_set, try_diff_descriptor_set};
use uprob_wsd::{NeumaierSum, WorldTable, WsDescriptor, WsSet};

use crate::cache::SharedDecompositionCache;
use crate::decompose::charge_shared_nodes;
use crate::parallel::ParallelOptions;
use crate::stats::{Confidence, DecompositionStats};
use crate::Result;

/// Computes the exact probability of `set` by ws-descriptor elimination:
/// the paper-level form of [`confidence_by_elimination_parallel`] — one
/// worker, no node budget, no cache.
///
/// The `stats` of the returned [`Confidence`] reuse the decomposition
/// counters: `branches` counts the mutex descriptors generated by the
/// differences and `variable_eliminations` the number of eliminated input
/// descriptors.
pub fn confidence_by_elimination(set: &WsSet, table: &WorldTable) -> Result<Confidence> {
    confidence_by_elimination_parallel(set, table, None, None, &ParallelOptions::sequential())
}

/// The general WE entry point: [`confidence_by_elimination`] with the same
/// `node_budget` semantics as the decomposition-based algorithms, an
/// optional shared cache, and the per-descriptor eliminations fanned out
/// over `parallel.workers()` worker threads.
///
/// The budget charges one node per eliminated input descriptor and one per
/// descriptor generated while expanding the differences (including
/// intermediate ones), so a WE run aborts with
/// [`crate::CoreError::BudgetExceeded`] *during* the exponential expansion instead
/// of returning late or wrong — mirroring how `Exact` decomposition charges
/// every visited node. All workers charge one shared counter, so the abort
/// triggers at the same total work no matter how many workers split it. The
/// cache memoizes the probability of the whole set (WE has no recursive
/// sub-set structure to share), which lets repeated tuples and answer-level
/// queries reuse each other's work.
///
/// The eliminations of different input descriptors are independent (each
/// one differences its descriptor against the *later* ones only), so
/// workers steal descriptor indices off a shared pool; the per-descriptor
/// partial sums come back in index order and feed one compensated outer
/// sum, making the result **bit-identical** for every worker count (one
/// worker, or a set below the scheduling grain, runs the same loop inline).
///
/// # Errors
///
/// Returns [`crate::CoreError::BudgetExceeded`] if `node_budget` is set and
/// exhausted, and [`crate::CoreError::CacheTableMismatch`] if `cache` was first
/// used with a different world table.
pub fn confidence_by_elimination_parallel(
    set: &WsSet,
    table: &WorldTable,
    node_budget: Option<u64>,
    cache: Option<&SharedDecompositionCache>,
    parallel: &ParallelOptions,
) -> Result<Confidence> {
    if let Some(shared) = cache {
        shared.bind_table(table)?;
    }
    let mut stats = DecompositionStats::default();
    let pending = match SharedDecompositionCache::probe_memo(cache, set, &mut stats) {
        Ok(probability) => return Ok(Confidence { probability, stats }),
        Err(pending) => pending,
    };
    let descriptors = set.descriptors();
    let workers = if set.len() < parallel.grain().max(2) {
        1
    } else {
        parallel.workers()
    };
    let nodes = AtomicU64::new(0);
    let partials = fan_out_indexed(descriptors.len(), workers, |index| {
        eliminate_descriptor(index, descriptors, table, &nodes, node_budget)
    });
    let mut total = NeumaierSum::new();
    for partial in partials {
        let (value, branches) = partial?;
        stats.variable_eliminations += 1;
        stats.branches += branches;
        total.add(value);
    }
    let probability = total.value();
    if let (Some(shared), Some(entry)) = (cache, pending) {
        shared.insert(entry, probability);
    }
    Ok(Confidence { probability, stats })
}

/// Eliminates input descriptor `index`: the worlds of `descriptors[index]`
/// not covered by any *later* descriptor (Corollary 6.4), expanded
/// subtrahend by subtrahend so the node budget is enforced while the
/// difference grows. The produced descriptors are pairwise mutex, so their
/// probabilities add up into one compensated partial (returned together
/// with the number of generated mutex descriptors); they are discarded
/// right away.
fn eliminate_descriptor(
    index: usize,
    descriptors: &[WsDescriptor],
    table: &WorldTable,
    nodes: &AtomicU64,
    budget: Option<u64>,
) -> Result<(f64, u64)> {
    charge_shared_nodes(nodes, 1, budget)?;
    let remainder = try_diff_descriptor_set(
        #[expect(
            clippy::indexing_slicing,
            reason = "recursion bound: index < descriptors.len() checked by the caller"
        )]
        &descriptors[index],
        #[expect(clippy::indexing_slicing, reason = "same bound")]
        &descriptors[index + 1..],
        table,
        |generated| charge_shared_nodes(nodes, generated as u64, budget),
    )?;
    let mut partial = NeumaierSum::new();
    for d in &remainder {
        partial.add(d.probability(table));
    }
    Ok((partial.value(), remainder.len() as u64))
}

/// Builds the equivalent pairwise-mutex ws-set of Corollary 6.4:
/// `⋃_{i<n} ({d_i} − {d_{i+1}, …, d_n}) ∪ {d_n}`.
///
/// The probability of the result can be computed in linear time by summing
/// descriptor probabilities; the result can however be exponentially larger
/// than the input. Exposed mainly for tests and for the ws-set examples.
pub fn mutex_equivalent(set: &WsSet, table: &WorldTable) -> WsSet {
    let descriptors = set.descriptors();
    let mut out = WsSet::empty();
    for (index, descriptor) in descriptors.iter().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "index comes from enumerate() over the same slice"
        )]
        for d in diff_descriptor_set(descriptor, &descriptors[index + 1..], table) {
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SharedDecompositionCache;
    use uprob_wsd::{VarId, WsDescriptor};

    /// The general entry point on one worker.
    fn sequential_we(
        set: &WsSet,
        table: &WorldTable,
        node_budget: Option<u64>,
        cache: Option<&SharedDecompositionCache>,
    ) -> Result<Confidence> {
        confidence_by_elimination_parallel(
            set,
            table,
            node_budget,
            cache,
            &ParallelOptions::sequential(),
        )
    }

    fn ssn_table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn example_6_1_probability_is_one() {
        // S = {d1, d2, d3} with d1 = {j->1}, d2 = {j->7}, d3 = {j->1,b->4}
        // covers all worlds: Pw(S) = P(d2) + P(d1) = 1.
        let (w, j, b) = ssn_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(j, 7)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap(),
        ]);
        let result = confidence_by_elimination(&set, &w).unwrap();
        assert!((result.probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure3_set_probability_matches() {
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
        let result = confidence_by_elimination(&s, &w).unwrap();
        assert!((result.probability - 0.7578).abs() < 1e-12);
        assert!(result.stats.branches > 0);
    }

    #[test]
    fn corollary_6_4_mutex_equivalent_set() {
        let (w, j, b) = ssn_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(b, 4)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(j, 7), (b, 7)]).unwrap(),
        ]);
        let mutex = mutex_equivalent(&set, &w);
        assert!(mutex.is_pairwise_mutex());
        assert!(mutex.is_equivalent_by_enumeration(&set, &w));
        // Linear-time probability of a mutex set: sum of descriptor
        // probabilities.
        let linear: f64 = mutex.iter().map(|d| d.probability(&w)).sum();
        assert!((linear - set.probability_by_enumeration(&w)).abs() < 1e-12);
    }

    #[test]
    fn elimination_matches_brute_force_on_random_sets() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let mut w = WorldTable::new();
            let num_vars = rng.random_range(2..=5usize);
            let vars: Vec<VarId> = (0..num_vars)
                .map(|i| {
                    w.add_uniform(&format!("v{i}"), rng.random_range(2..=3usize))
                        .unwrap()
                })
                .collect();
            let mut set = WsSet::empty();
            for _ in 0..rng.random_range(0..=6usize) {
                let mut d = WsDescriptor::empty();
                for _ in 0..rng.random_range(0..=num_vars) {
                    let var = vars[rng.random_range(0..num_vars)];
                    let domain = w.domain_size(var).unwrap();
                    let _ = d.assign(
                        var,
                        uprob_wsd::ValueIndex(rng.random_range(0..domain) as u16),
                    );
                }
                set.push(d);
            }
            let expected = set.probability_by_enumeration(&w);
            let got = confidence_by_elimination(&set, &w).unwrap().probability;
            assert!(
                (got - expected).abs() < 1e-9,
                "WE computed {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn empty_and_universal_sets() {
        let (w, _, _) = ssn_table();
        assert_eq!(
            confidence_by_elimination(&WsSet::empty(), &w)
                .unwrap()
                .probability,
            0.0
        );
        assert!(
            (confidence_by_elimination(&WsSet::universal(), &w)
                .unwrap()
                .probability
                - 1.0)
                .abs()
                < 1e-12
        );
    }

    /// Builds a single-variable world table whose distribution is
    /// adversarial for naive `f64` accumulation: a 0.5 head, `tiny_count`
    /// half-ulp alternatives that naive summation absorbs without a trace,
    /// and a balancing tail so the exact total is exactly 1.0.
    fn drift_table(tiny_count: usize) -> (WorldTable, VarId) {
        let tiny = 2f64.powi(-54); // half an ulp of 0.5: absorbed by naive +=
        let mut alternatives: Vec<(i64, f64)> = vec![(0, 0.5)];
        alternatives.extend((0..tiny_count).map(|i| (1 + i as i64, tiny)));
        alternatives.push((1 + tiny_count as i64, 0.5 - tiny_count as f64 * tiny));
        let mut w = WorldTable::new();
        let x = w.add_variable("x", &alternatives).unwrap();
        (w, x)
    }

    #[test]
    fn compensated_summation_survives_many_descriptor_drift() {
        // Regression for the naive `total += p` accumulation: the remainder
        // of the nullary descriptor against {x -> last} enumerates the other
        // 29999 alternatives in order — a 0.5 head followed by 29998 terms
        // of 2^-54 that a naive sum absorbs entirely, drifting ~1.66e-12
        // below the exact probability of 1.0.
        let tiny_count = 29_998;
        let (w, x) = drift_table(tiny_count);
        let last_label = 1 + tiny_count as i64;
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::empty(),
            WsDescriptor::from_pairs(&w, &[(x, last_label)]).unwrap(),
        ]);

        // What the pre-fix code computed: a naive fold over the same mutex
        // remainder probabilities, in the same order.
        let mut naive = 0.0;
        for (index, descriptor) in set.descriptors().iter().enumerate() {
            for d in diff_descriptor_set(descriptor, &set.descriptors()[index + 1..], &w) {
                naive += d.probability(&w);
            }
        }
        assert!(
            (naive - 1.0).abs() > 1e-12,
            "instance no longer triggers naive drift: {:e}",
            (naive - 1.0).abs()
        );

        let fixed = confidence_by_elimination(&set, &w).unwrap();
        assert!(
            (fixed.probability - 1.0).abs() < 1e-13,
            "compensated WE drifted: {:e}",
            (fixed.probability - 1.0).abs()
        );
        // The (compensated) brute-force oracle agrees.
        let brute = set.probability_by_enumeration(&w);
        assert!((fixed.probability - brute).abs() < 1e-13);
        assert!(fixed.stats.branches >= tiny_count as u64);
    }

    #[test]
    fn node_budget_aborts_the_difference_expansion() {
        // Independence-rich s=2 instance: the difference of the first
        // descriptor against the m later (variable-disjoint) descriptors
        // doubles at every step, so WE generates ~2^m mutex descriptors.
        // The budget must abort *during* that expansion.
        let mut w = WorldTable::new();
        let mut descriptors = Vec::new();
        for i in 0..12 {
            let x = w.add_boolean(&format!("x{i}"), 0.5).unwrap();
            let y = w.add_boolean(&format!("y{i}"), 0.5).unwrap();
            descriptors.push(WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap());
        }
        let set = WsSet::from_descriptors(descriptors);
        let err = sequential_we(&set, &w, Some(100), None).unwrap_err();
        assert_eq!(err, crate::CoreError::BudgetExceeded { budget: 100 });
        // Without a budget the same instance still finishes and is exact.
        let unbudgeted = confidence_by_elimination(&set, &w).unwrap();
        let exact = 1.0 - 0.75f64.powi(12);
        assert!((unbudgeted.probability - exact).abs() < 1e-12);
    }

    #[test]
    fn parallel_elimination_is_bit_identical_to_sequential() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..20 {
            let mut w = WorldTable::new();
            let num_vars = rng.random_range(3..=6usize);
            let vars: Vec<VarId> = (0..num_vars)
                .map(|i| {
                    w.add_uniform(&format!("v{i}"), rng.random_range(2..=3usize))
                        .unwrap()
                })
                .collect();
            let mut set = WsSet::empty();
            for _ in 0..rng.random_range(2..=8usize) {
                let mut d = WsDescriptor::empty();
                for _ in 0..rng.random_range(0..=num_vars) {
                    let var = vars[rng.random_range(0..num_vars)];
                    let domain = w.domain_size(var).unwrap();
                    let _ = d.assign(
                        var,
                        uprob_wsd::ValueIndex(rng.random_range(0..domain) as u16),
                    );
                }
                set.push(d);
            }
            let sequential = confidence_by_elimination(&set, &w).unwrap();
            for workers in [2, 4, 8] {
                let parallel = ParallelOptions::new(workers).with_grain(2);
                let got =
                    confidence_by_elimination_parallel(&set, &w, None, None, &parallel).unwrap();
                assert_eq!(
                    got.probability.to_bits(),
                    sequential.probability.to_bits(),
                    "case {case}, {workers} workers"
                );
                assert_eq!(got.stats, sequential.stats, "case {case}");
            }
        }
    }

    #[test]
    fn parallel_elimination_budget_aborts_like_sequential() {
        // The same independence-rich instance as the sequential budget test:
        // the difference expansion doubles per step, so a small budget must
        // abort for every worker count.
        let mut w = WorldTable::new();
        let mut descriptors = Vec::new();
        for i in 0..12 {
            let x = w.add_boolean(&format!("x{i}"), 0.5).unwrap();
            let y = w.add_boolean(&format!("y{i}"), 0.5).unwrap();
            descriptors.push(WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap());
        }
        let set = WsSet::from_descriptors(descriptors);
        let sequential = confidence_by_elimination(&set, &w).unwrap();
        for workers in [2, 4] {
            let parallel = ParallelOptions::new(workers).with_grain(2);
            let err = confidence_by_elimination_parallel(&set, &w, Some(100), None, &parallel)
                .unwrap_err();
            assert_eq!(err, crate::CoreError::BudgetExceeded { budget: 100 });
            let got = confidence_by_elimination_parallel(&set, &w, None, None, &parallel).unwrap();
            assert_eq!(got.probability.to_bits(), sequential.probability.to_bits());
        }
    }

    #[test]
    fn parallel_elimination_consults_and_populates_the_shared_cache() {
        let (w, j, b) = ssn_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap(),
        ]);
        let cache = SharedDecompositionCache::new();
        let parallel = ParallelOptions::new(4).with_grain(2);
        let cold =
            confidence_by_elimination_parallel(&set, &w, None, Some(&cache), &parallel).unwrap();
        assert_eq!(cold.stats.cache_misses, 1);
        assert!((cold.probability - 0.44).abs() < 1e-12);
        // Warm runs — sequential or parallel — answer from the cache.
        let warm = sequential_we(&set, &w, None, Some(&cache)).unwrap();
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.probability.to_bits(), cold.probability.to_bits());
        let warm_parallel =
            confidence_by_elimination_parallel(&set, &w, None, Some(&cache), &parallel).unwrap();
        assert_eq!(warm_parallel.stats.cache_hits, 1);
        assert_eq!(
            warm_parallel.probability.to_bits(),
            cold.probability.to_bits()
        );
    }

    #[test]
    fn elimination_consults_and_populates_the_shared_cache() {
        let (w, j, b) = ssn_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap(),
        ]);
        let cache = SharedDecompositionCache::new();
        let cold = sequential_we(&set, &w, None, Some(&cache)).unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses, 1);
        let warm = sequential_we(&set, &w, None, Some(&cache)).unwrap();
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.probability, cold.probability);
        assert!((warm.probability - 0.44).abs() < 1e-12);
        // A warm cache even rescues a budget too small for a cold run.
        let rescued = sequential_we(&set, &w, Some(1), Some(&cache)).unwrap();
        assert_eq!(rescued.probability, cold.probability);
    }
}
