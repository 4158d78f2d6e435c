//! Exact confidence (probability) computation for ws-sets (Section 4.3).
//!
//! The probability of a ws-tree is defined by structural recursion
//! (Figure 7):
//!
//! * `P(⊗ S_1 … S_k) = 1 − Π_i (1 − P(S_i))` — the children are
//!   independent, so the probability of their union follows from inclusion
//!   of independent events;
//! * `P(⊕_i (x → i : S_i)) = Σ_i P({x → i}) · P(S_i)` — the branches are
//!   mutually exclusive;
//! * `P(∅) = 1`, `P(⊥) = 0`.
//!
//! [`confidence`] composes this recursion with the decomposition of
//! [`crate::decompose`] without materialising the ws-tree (the
//! `ComputeTree ∘ P` composition of the paper); [`tree_probability`]
//! evaluates an already-materialised tree. The test oracle for both is
//! [`WsSet::probability_by_enumeration`], which enumerates the possible
//! worlds.

use uprob_wsd::{NeumaierSum, WorldTable, WsSet};

use crate::cache::SharedDecompositionCache;
use crate::decompose::{for_each_choice_term, Decomposer, DecompositionOptions, DecompositionStep};
use crate::stats::Confidence;
use crate::wstree::WsTree;
use crate::Result;

/// Computes the exact probability of the world-set denoted by `set`,
/// folding Figure 7 over the Davis–Putnam-style decomposition. This is the
/// paper-level form of [`crate::confidence_parallel`]: one worker, no cache.
///
/// # Errors
///
/// Returns [`crate::CoreError::BudgetExceeded`] if `options.node_budget` is
/// set and exhausted.
pub fn confidence(
    set: &WsSet,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<Confidence> {
    confidence_with_cache(set, table, options, None)
}

/// The sequential fold behind [`confidence`] and the one-worker case of
/// [`crate::confidence_parallel`]: consults and populates the optional
/// shared decomposition cache — every sub-ws-set with at least two
/// descriptors is canonicalised and memoized, so identical sub-problems,
/// within one run or across runs sharing the cache, are solved once. A
/// cache hit returns without charging decomposition nodes, so the budget
/// bounds the *new* work of a run.
pub(crate) fn confidence_with_cache(
    set: &WsSet,
    table: &WorldTable,
    options: &DecompositionOptions,
    cache: Option<&SharedDecompositionCache>,
) -> Result<Confidence> {
    if let Some(shared) = cache {
        shared.bind_table(table)?;
    }
    let mut decomposer = Decomposer::new(table, *options);
    let probability = confidence_rec(set, &mut decomposer, 1, cache)?;
    Ok(Confidence {
        probability,
        stats: decomposer.stats,
    })
}

pub(crate) fn confidence_rec(
    set: &WsSet,
    decomposer: &mut Decomposer<'_>,
    depth: u64,
    cache: Option<&SharedDecompositionCache>,
) -> Result<f64> {
    // A singleton is never memoized (the cache keys sets of two or more).
    if let [descriptor] = set.descriptors() {
        return decomposer.descriptor_probability(descriptor, depth);
    }
    let pending = match SharedDecompositionCache::probe_memo(cache, set, &mut decomposer.stats) {
        Ok(probability) => return Ok(probability),
        Err(pending) => pending,
    };
    let probability = match decomposer.step(set, depth)? {
        DecompositionStep::Empty => 0.0,
        DecompositionStep::Universal => 1.0,
        DecompositionStep::Partition(parts) => {
            let mut complement = 1.0;
            for part in &parts {
                let p = confidence_rec(part, decomposer, depth + 1, cache)?;
                complement *= 1.0 - p;
            }
            1.0 - complement
        }
        DecompositionStep::Eliminate {
            var,
            branches,
            missing_values,
            tail,
        } => {
            let mut total = NeumaierSum::new();
            for_each_choice_term(
                decomposer.table(),
                var,
                branches,
                &missing_values,
                tail,
                |weight, child| {
                    total.add(weight * confidence_rec(&child, decomposer, depth + 1, cache)?);
                    Ok(())
                },
            )?;
            total.value()
        }
    };
    if let (Some(shared), Some(entry)) = (cache, pending) {
        shared.insert(entry, probability);
    }
    Ok(probability)
}

/// Evaluates the probability of a materialised ws-tree (Figure 7).
///
/// # Panics
///
/// Panics if the tree refers to variables or values missing from `table`;
/// validate the tree first if its provenance is untrusted.
pub fn tree_probability(tree: &WsTree, table: &WorldTable) -> f64 {
    match tree {
        WsTree::Bottom => 0.0,
        WsTree::Leaf => 1.0,
        WsTree::Independent(children) => {
            let complement: f64 = children
                .iter()
                .map(|c| 1.0 - tree_probability(c, table))
                .product();
            1.0 - complement
        }
        WsTree::Choice { var, branches } => branches
            .iter()
            .map(|(value, child)| {
                #[expect(
                    clippy::expect_used,
                    reason = "tree nodes are built from this table's domains"
                )]
                let weight = table
                    .probability(*var, *value)
                    .expect("tree value must be in the variable domain");
                weight * tree_probability(child, table)
            })
            .collect::<NeumaierSum>()
            .value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::build_tree;
    use crate::error::CoreError;
    use crate::heuristics::VariableHeuristic;
    use uprob_wsd::{VarId, WsDescriptor};

    /// The fold as it stood before closed-form leaves, kept as the oracle
    /// for them and for the run-table `choose_variable`: `confidence_rec`
    /// verbatim, over a walk that takes every node — singletons included —
    /// through one `ComputeTree` step and chooses each variable from
    /// `BTreeMap` occurrence tables.
    mod step_walk {
        use std::collections::BTreeMap;

        use uprob_wsd::{NeumaierSum, ValueIndex, VarId, WorldTable, WsSet};

        use crate::cache::SharedDecompositionCache;
        use crate::decompose::{
            eliminate_variable, for_each_choice_term, DecompositionMethod, DecompositionOptions,
            DecompositionStep,
        };
        use crate::error::CoreError;
        use crate::heuristics::VariableHeuristic;
        use crate::stats::{Confidence, DecompositionStats};
        use crate::Result;

        pub(super) struct Decomposer<'a> {
            table: &'a WorldTable,
            options: DecompositionOptions,
            stats: DecompositionStats,
            nodes: u64,
        }

        impl<'a> Decomposer<'a> {
            fn table(&self) -> &'a WorldTable {
                self.table
            }

            fn step(&mut self, set: &WsSet, depth: u64) -> Result<DecompositionStep> {
                self.nodes += 1;
                if let Some(budget) = self.options.node_budget {
                    if self.nodes > budget {
                        return Err(CoreError::BudgetExceeded { budget });
                    }
                }
                self.stats.max_depth = self.stats.max_depth.max(depth);
                if set.is_empty() {
                    self.stats.bottoms += 1;
                    return Ok(DecompositionStep::Empty);
                }
                if set.contains_universal() {
                    self.stats.leaves += 1;
                    return Ok(DecompositionStep::Universal);
                }
                if self.options.method == DecompositionMethod::IndVe {
                    let parts = set.independent_partition();
                    if parts.len() > 1 {
                        self.stats.independent_nodes += 1;
                        return Ok(DecompositionStep::Partition(parts));
                    }
                }
                let var = choose_variable(set, self.table, self.options.heuristic)
                    .expect("a non-empty, non-universal ws-set mentions at least one variable");
                self.stats.choice_nodes += 1;
                self.stats.variable_eliminations += 1;
                let (branches, missing_values, tail) = eliminate_variable(set, var, self.table)?;
                self.stats.branches += branches.len() as u64;
                Ok(DecompositionStep::Eliminate {
                    var,
                    branches,
                    missing_values,
                    tail,
                })
            }
        }

        pub(super) fn confidence(
            set: &WsSet,
            table: &WorldTable,
            options: &DecompositionOptions,
            cache: Option<&SharedDecompositionCache>,
        ) -> Result<Confidence> {
            if let Some(shared) = cache {
                shared.bind_table(table)?;
            }
            let mut decomposer = Decomposer {
                table,
                options: *options,
                stats: DecompositionStats::default(),
                nodes: 0,
            };
            let probability = confidence_rec(set, &mut decomposer, 1, cache)?;
            Ok(Confidence {
                probability,
                stats: decomposer.stats,
            })
        }

        fn confidence_rec(
            set: &WsSet,
            decomposer: &mut Decomposer<'_>,
            depth: u64,
            cache: Option<&SharedDecompositionCache>,
        ) -> Result<f64> {
            let pending =
                match SharedDecompositionCache::probe_memo(cache, set, &mut decomposer.stats) {
                    Ok(probability) => return Ok(probability),
                    Err(pending) => pending,
                };
            let probability = match decomposer.step(set, depth)? {
                DecompositionStep::Empty => 0.0,
                DecompositionStep::Universal => 1.0,
                DecompositionStep::Partition(parts) => {
                    let mut complement = 1.0;
                    for part in &parts {
                        let p = confidence_rec(part, decomposer, depth + 1, cache)?;
                        complement *= 1.0 - p;
                    }
                    1.0 - complement
                }
                DecompositionStep::Eliminate {
                    var,
                    branches,
                    missing_values,
                    tail,
                } => {
                    let mut total = NeumaierSum::new();
                    for_each_choice_term(
                        decomposer.table(),
                        var,
                        branches,
                        &missing_values,
                        tail,
                        |weight, child| {
                            total.add(
                                weight * confidence_rec(&child, decomposer, depth + 1, cache)?,
                            );
                            Ok(())
                        },
                    )?;
                    total.value()
                }
            };
            if let (Some(shared), Some(entry)) = (cache, pending) {
                shared.insert(entry, probability);
            }
            Ok(probability)
        }

        struct VariableOccurrence {
            var: VarId,
            value_counts: BTreeMap<ValueIndex, usize>,
            occurrences: usize,
        }

        fn collect_occurrences(set: &WsSet) -> Vec<VariableOccurrence> {
            let mut map: BTreeMap<VarId, VariableOccurrence> = BTreeMap::new();
            for descriptor in set.iter() {
                for assignment in descriptor.iter() {
                    let entry = map
                        .entry(assignment.var)
                        .or_insert_with(|| VariableOccurrence {
                            var: assignment.var,
                            value_counts: BTreeMap::new(),
                            occurrences: 0,
                        });
                    *entry.value_counts.entry(assignment.value).or_insert(0) += 1;
                    entry.occurrences += 1;
                }
            }
            map.into_values().collect()
        }

        fn minlog_estimate(
            occurrence: &VariableOccurrence,
            set_size: usize,
            domain_size: usize,
        ) -> f64 {
            let tail = (set_size - occurrence.occurrences) as f64;
            let missing_assignment = occurrence.value_counts.len() < domain_size;
            let mut estimate = if missing_assignment { tail } else { 0.0 };
            for &count in occurrence.value_counts.values() {
                let s_j = count as f64 + tail;
                estimate += (1.0 + (s_j - estimate).exp2()).log2();
            }
            estimate
        }

        fn minmax_estimate(occurrence: &VariableOccurrence, set_size: usize) -> f64 {
            let tail = set_size - occurrence.occurrences;
            occurrence
                .value_counts
                .values()
                .map(|&count| (count + tail) as f64)
                .fold(0.0, f64::max)
        }

        fn choose_variable(
            set: &WsSet,
            table: &WorldTable,
            heuristic: VariableHeuristic,
        ) -> Option<VarId> {
            let occurrences = collect_occurrences(set);
            if occurrences.is_empty() {
                return None;
            }
            let set_size = set.len();
            match heuristic {
                VariableHeuristic::FirstVariable => occurrences.first().map(|o| o.var),
                VariableHeuristic::MostFrequent => occurrences
                    .iter()
                    .max_by_key(|o| (o.occurrences, std::cmp::Reverse(o.var)))
                    .map(|o| o.var),
                VariableHeuristic::MinMax => {
                    select_min(&occurrences, |o| minmax_estimate(o, set_size))
                }
                VariableHeuristic::MinLog => select_min(&occurrences, |o| {
                    let domain = table.domain_size(o.var).unwrap_or(usize::MAX);
                    minlog_estimate(o, set_size, domain)
                }),
            }
        }

        fn select_min(
            occurrences: &[VariableOccurrence],
            mut score: impl FnMut(&VariableOccurrence) -> f64,
        ) -> Option<VarId> {
            let mut best: Option<(f64, VarId)> = None;
            for o in occurrences {
                let s = score(o);
                let better = match best {
                    None => true,
                    Some((current, _)) => s < current,
                };
                if better {
                    best = Some((s, o.var));
                }
            }
            best.map(|(_, var)| var)
        }
    }

    /// The world table and ws-set S of Figure 3 (P(S) = 0.7578).
    fn figure3() -> (WorldTable, WsSet) {
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
        (w, s)
    }

    #[test]
    fn example_4_7_probability_is_0_7578() {
        let (w, s) = figure3();
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
            DecompositionOptions::ve_minlog(),
        ] {
            let result = confidence(&s, &w, &options).unwrap();
            assert!(
                (result.probability - 0.7578).abs() < 1e-12,
                "{options:?} computed {}",
                result.probability
            );
        }
        assert!((s.probability_by_enumeration(&w) - 0.7578).abs() < 1e-12);
    }

    #[test]
    fn tree_probability_matches_streaming_confidence() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let (tree, _) = build_tree(&s, &w, &options).unwrap();
        let from_tree = tree_probability(&tree, &w);
        let streamed = confidence(&s, &w, &options).unwrap().probability;
        assert!((from_tree - streamed).abs() < 1e-12);
        assert!((from_tree - 0.7578).abs() < 1e-12);
    }

    #[test]
    fn empty_and_universal_probabilities() {
        let (w, _) = figure3();
        let options = DecompositionOptions::default();
        assert_eq!(
            confidence(&WsSet::empty(), &w, &options)
                .unwrap()
                .probability,
            0.0
        );
        assert_eq!(
            confidence(&WsSet::universal(), &w, &options)
                .unwrap()
                .probability,
            1.0
        );
    }

    #[test]
    fn ssn_example_confidence_of_fd_worlds_is_0_44() {
        // Example 5.1: the worlds on which SSN -> NAME holds have total
        // probability .2 + .8 * .3 = .44.
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap(),
        ]);
        let c = confidence(&s, &w, &DecompositionOptions::indve_minlog()).unwrap();
        assert!((c.probability - 0.44).abs() < 1e-12);
    }

    #[test]
    fn all_heuristics_agree_with_brute_force_on_random_sets() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..30 {
            let mut w = WorldTable::new();
            let num_vars = rng.random_range(2..=5usize);
            let vars: Vec<VarId> = (0..num_vars)
                .map(|i| {
                    let domain = rng.random_range(2..=3usize);
                    w.add_uniform(&format!("v{i}"), domain).unwrap()
                })
                .collect();
            let num_descriptors = rng.random_range(1..=6usize);
            let mut set = WsSet::empty();
            for _ in 0..num_descriptors {
                let mut d = WsDescriptor::empty();
                let width = rng.random_range(0..=num_vars);
                for _ in 0..width {
                    let var = vars[rng.random_range(0..num_vars)];
                    let domain = w.domain_size(var).unwrap();
                    let value = rng.random_range(0..domain);
                    let _ = d.assign(var, uprob_wsd::ValueIndex(value as u16));
                }
                set.push(d);
            }
            let expected = set.probability_by_enumeration(&w);
            for heuristic in VariableHeuristic::ALL {
                for method in [
                    crate::decompose::DecompositionMethod::IndVe,
                    crate::decompose::DecompositionMethod::VeOnly,
                ] {
                    let options = DecompositionOptions {
                        method,
                        heuristic,
                        node_budget: None,
                    };
                    let got = confidence(&set, &w, &options).unwrap().probability;
                    assert!(
                        (got - expected).abs() < 1e-9,
                        "case {case}: {method:?}/{heuristic:?} computed {got}, expected {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_reflect_the_decomposition_work() {
        let (w, s) = figure3();
        let result = confidence(&s, &w, &DecompositionOptions::indve_minlog()).unwrap();
        assert!(result.stats.independent_nodes >= 1);
        assert!(result.stats.choice_nodes >= 2);
        assert!(result.stats.leaves >= 2);
        assert!(result.stats.max_depth >= 2);
    }

    #[test]
    fn budget_is_enforced() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog().with_budget(1);
        assert!(confidence(&s, &w, &options).is_err());
    }

    #[test]
    fn choice_fold_survives_many_branch_drift() {
        // Regression for the naive `total +=` over ⊕-branch contributions:
        // one variable with a 0.5 head, 29998 half-ulp alternatives (each
        // absorbed without a trace by a naive sum) and a balancing tail.
        // The singleton cover {x -> v | v} has probability exactly 1.0.
        let tiny = 2f64.powi(-54);
        let tiny_count = 29_998usize;
        let mut alternatives: Vec<(i64, f64)> = vec![(0, 0.5)];
        alternatives.extend((0..tiny_count).map(|i| (1 + i as i64, tiny)));
        alternatives.push((1 + tiny_count as i64, 0.5 - tiny_count as f64 * tiny));
        let mut w = WorldTable::new();
        let x = w.add_variable("x", &alternatives).unwrap();
        let set: WsSet = (0..alternatives.len())
            .map(|v| {
                WsDescriptor::from_assignments([uprob_wsd::value::Assignment::new(
                    x,
                    uprob_wsd::ValueIndex(v as u16),
                )])
                .unwrap()
            })
            .collect();

        // The drift the naive fold produced: weights summed in branch order.
        let mut naive = 0.0;
        for (_, p) in &alternatives {
            naive += p;
        }
        assert!(
            (naive - 1.0).abs() > 1e-12,
            "instance no longer triggers naive drift: {:e}",
            (naive - 1.0).abs()
        );

        let result = confidence(&set, &w, &DecompositionOptions::ve_minlog()).unwrap();
        assert!(
            (result.probability - 1.0).abs() < 1e-13,
            "compensated ⊕-fold drifted: {:e}",
            (result.probability - 1.0).abs()
        );
    }

    #[test]
    fn cached_confidence_matches_uncached_and_reports_reuse() {
        use crate::cache::SharedDecompositionCache;
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let cache = SharedDecompositionCache::new();
        let cold = confidence_with_cache(&s, &w, &options, Some(&cache)).unwrap();
        let plain = confidence(&s, &w, &options).unwrap();
        assert!((cold.probability - plain.probability).abs() < 1e-12);
        assert_eq!(cold.stats.cache_hits, 0);
        assert!(cold.stats.cache_misses > 0);
        // A second run over the same set is answered entirely from the cache.
        let warm = confidence_with_cache(&s, &w, &options, Some(&cache)).unwrap();
        assert_eq!(warm.probability, cold.probability);
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(
            warm.stats.total_nodes(),
            0,
            "no decomposition work on a full hit"
        );
        let stats = cache.stats();
        assert!(stats.hits >= 1);
        assert!(stats.entries >= 1);
    }

    #[test]
    fn cached_confidence_agrees_with_brute_force_on_random_sets() {
        use crate::cache::SharedDecompositionCache;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // One cache shared across every set of one "database": overlapping
        // sub-sets across cases must never change any probability.
        let mut rng = StdRng::seed_from_u64(23);
        let mut w = WorldTable::new();
        let vars: Vec<VarId> = (0..5)
            .map(|i| w.add_uniform(&format!("v{i}"), 2 + (i % 2)).unwrap())
            .collect();
        let cache = SharedDecompositionCache::new();
        for case in 0..40 {
            let mut set = WsSet::empty();
            for _ in 0..rng.random_range(1..=6usize) {
                let mut d = WsDescriptor::empty();
                for _ in 0..rng.random_range(0..=4usize) {
                    let var = vars[rng.random_range(0..vars.len())];
                    let domain = w.domain_size(var).unwrap();
                    let _ = d.assign(
                        var,
                        uprob_wsd::ValueIndex(rng.random_range(0..domain) as u16),
                    );
                }
                set.push(d);
            }
            let expected = set.probability_by_enumeration(&w);
            for options in [
                DecompositionOptions::indve_minlog(),
                DecompositionOptions::ve_minlog(),
            ] {
                let got = confidence_with_cache(&set, &w, &options, Some(&cache))
                    .unwrap()
                    .probability;
                assert!(
                    (got - expected).abs() < 1e-9,
                    "case {case}: cached {options:?} computed {got}, expected {expected}"
                );
            }
        }
        assert!(
            cache.stats().hits > 0,
            "repeated sub-sets must hit the cache"
        );
    }

    #[test]
    fn descriptors_foreign_to_the_world_table_are_an_error() {
        use crate::conditioning::{condition, ConditioningOptions};
        use crate::parallel::{confidence_parallel, ParallelOptions};
        use uprob_wsd::value::Assignment;
        use uprob_wsd::{ValueIndex, WsdError};
        // `{x7 -> 0, x -> 1}, {x7 -> 1}`, `{x7 -> 1}` and `{x -> 5}, {x -> 0}`
        // over a table whose one variable `x` has two values.
        let mut w = WorldTable::new();
        let x = w.add_uniform("x", 2).unwrap();
        let x7 = VarId(7);
        let set = |descriptors: &[&[(VarId, u16)]]| -> WsSet {
            descriptors
                .iter()
                .map(|pairs| {
                    WsDescriptor::from_assignments(
                        pairs
                            .iter()
                            .map(|&(v, i)| Assignment::new(v, ValueIndex(i))),
                    )
                    .unwrap()
                })
                .collect()
        };
        let unknown_variable = CoreError::Wsd(WsdError::UnknownVariable { var: x7 });
        let unknown_value = CoreError::Wsd(WsdError::UnknownValue { var: x, value: 5 });
        let cases = [
            (
                set(&[&[(x7, 0), (x, 1)], &[(x7, 1)]]),
                unknown_variable.clone(),
            ),
            (set(&[&[(x7, 1)]]), unknown_variable),
            (set(&[&[(x, 5)], &[(x, 0)]]), unknown_value),
        ];
        let db = uprob_urel::ProbDb::with_world_table(w.clone());
        for (set, expected) in cases {
            let options = ConditioningOptions::default();
            assert_eq!(
                condition(&db, &set, &options).unwrap_err(),
                expected,
                "{set:?}, condition"
            );
            assert_eq!(
                crate::reference::condition(&db, &set, &options, crate::DecompositionMethod::IndVe)
                    .unwrap_err(),
                expected,
                "{set:?}, Figure 8"
            );
            for heuristic in VariableHeuristic::ALL {
                for options in [
                    DecompositionOptions::indve_minlog(),
                    DecompositionOptions::ve_minlog(),
                ] {
                    let options = DecompositionOptions {
                        heuristic,
                        ..options
                    };
                    assert_eq!(
                        confidence(&set, &w, &options).unwrap_err(),
                        expected,
                        "{set:?} {options:?}"
                    );
                    let parallel = ParallelOptions::new(2).with_grain(0);
                    assert_eq!(
                        confidence_parallel(&set, &w, &options, &parallel, None).unwrap_err(),
                        expected,
                        "{set:?} {options:?}, parallel"
                    );
                }
            }
        }
    }

    /// A seeded instance over what the closed form must get right:
    /// zero-weight alternatives, single-alternative variables, the empty
    /// descriptor and, in one case in four, a 16-assignment descriptor that
    /// shares one variable with the short ones.
    fn walk_instance(rng: &mut rand::rngs::StdRng) -> (WorldTable, WsSet) {
        use rand::RngExt;
        use uprob_wsd::ValueIndex;
        let mut w = WorldTable::new();
        let short_vars = rng.random_range(3..=7usize);
        let long = rng.random_bool(0.25);
        let vars: Vec<VarId> = (0..short_vars + if long { 15 } else { 0 })
            .map(|i| {
                let mut weights: Vec<f64> = (0..rng.random_range(1..=3usize))
                    .map(|_| rng.random_range(1..=9u32) as f64)
                    .collect();
                if weights.len() > 1 && rng.random_bool(0.3) {
                    weights[0] = 0.0;
                }
                let total: f64 = weights.iter().sum();
                let alternatives: Vec<(i64, f64)> = (0..)
                    .zip(weights.iter().map(|weight| weight / total))
                    .collect();
                w.add_variable(&format!("v{i}"), &alternatives).unwrap()
            })
            .collect();
        let mut set = WsSet::empty();
        for _ in 0..rng.random_range(1..=5usize) {
            let mut d = WsDescriptor::empty();
            for _ in 0..rng.random_range(0..=3usize) {
                let var = vars[rng.random_range(0..short_vars)];
                let value = rng.random_range(0..w.domain_size(var).unwrap());
                let _ = d.assign(var, ValueIndex(value as u16));
            }
            set.push(d);
        }
        if long {
            let mut d = WsDescriptor::empty();
            for &var in &vars[short_vars - 1..] {
                let value = rng.random_range(0..w.domain_size(var).unwrap());
                d.assign(var, ValueIndex(value as u16)).unwrap();
            }
            set.push(d);
        }
        (w, set)
    }

    /// Equal probability bits (and, when asked, equal counters), or the
    /// same error.
    fn assert_same_outcome(
        got: &Result<Confidence>,
        expected: &Result<Confidence>,
        compare_stats: bool,
        context: &str,
    ) {
        match (got, expected) {
            (Ok(got), Ok(expected)) => {
                assert_eq!(
                    got.probability.to_bits(),
                    expected.probability.to_bits(),
                    "{context}: {} vs {}",
                    got.probability,
                    expected.probability
                );
                if compare_stats {
                    assert_eq!(got.stats, expected.stats, "{context}");
                }
            }
            (Err(got), Err(expected)) => assert_eq!(got, expected, "{context}"),
            _ => panic!("{context}: {got:?} vs {expected:?}"),
        }
    }

    /// `set` under `options` through the closed-form fold — sequential
    /// with and without a cache, and parallel — against the step walk, at
    /// every budget from "aborts at the root" to "finishes".
    fn assert_matches_step_walk(
        set: &WsSet,
        w: &WorldTable,
        options: DecompositionOptions,
        case: usize,
    ) {
        use crate::cache::SharedDecompositionCache;
        use crate::parallel::{confidence_parallel, ParallelOptions};
        let unbounded = step_walk::confidence(set, w, &options, None);
        let nodes = unbounded.as_ref().unwrap().stats.total_nodes();
        for budget in (0..=nodes + 1).map(Some).chain([None]) {
            let options = DecompositionOptions {
                node_budget: budget,
                ..options
            };
            let context = format!("case {case}, {options:?}, {set:?}");
            for cached in [false, true] {
                let fresh_cache = || cached.then(SharedDecompositionCache::new);
                assert_same_outcome(
                    &confidence_with_cache(set, w, &options, fresh_cache().as_ref()),
                    &step_walk::confidence(set, w, &options, fresh_cache().as_ref()),
                    true,
                    &format!("{context}, cached {cached}"),
                );
            }
            let expected = step_walk::confidence(set, w, &options, None);
            for workers in [1, 2, 4] {
                for grain in [0, 2] {
                    let parallel = ParallelOptions::new(workers).with_grain(grain);
                    assert_same_outcome(
                        &confidence_parallel(set, w, &options, &parallel, None),
                        &expected,
                        true,
                        &format!("{context}, {workers} workers, grain {grain}"),
                    );
                }
            }
        }
        // With a cache, parallel workers may race to the same sub-set, so
        // only the bits are pinned.
        let parallel = ParallelOptions::new(2).with_grain(0);
        let cache = SharedDecompositionCache::new();
        assert_same_outcome(
            &confidence_parallel(set, w, &options, &parallel, Some(&cache)),
            &unbounded,
            false,
            &format!("case {case}, {options:?}, cached parallel"),
        );
    }

    #[test]
    fn closed_form_leaves_match_the_step_walk() {
        use crate::decompose::DecompositionMethod;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2008);
        for case in 0..40 {
            let (w, whole) = walk_instance(&mut rng);
            // Each descriptor on its own too: there the closed form is the
            // whole answer, so no bit of it can be rounded away.
            let singletons = whole
                .iter()
                .map(|d| WsSet::from_descriptors(vec![d.clone()]));
            for set in std::iter::once(whole.clone()).chain(singletons) {
                for heuristic in VariableHeuristic::ALL {
                    for method in [DecompositionMethod::IndVe, DecompositionMethod::VeOnly] {
                        let options = DecompositionOptions {
                            method,
                            heuristic,
                            node_budget: None,
                        };
                        assert_matches_step_walk(&set, &w, options, case);
                    }
                }
            }
        }
    }
}
