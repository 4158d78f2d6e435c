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

use uprob_wsd::ws_set::try_diff_descriptor_set;
use uprob_wsd::{NeumaierSum, WorldTable, WsSet};

use crate::decompose::within_budget;
use crate::stats::{Confidence, DecompositionStats};
use crate::Result;

/// Computes the exact probability of `set` by ws-descriptor elimination.
///
/// Each descriptor is differenced against the *later* ones only
/// (Corollary 6.4), expanded subtrahend by subtrahend; the generated
/// descriptors are pairwise mutex, so their probabilities add up into one
/// compensated partial per input descriptor, and the partials feed one
/// compensated outer sum in descriptor order.
///
/// `node_budget` has the same semantics as for the decomposition-based
/// algorithms: one node per eliminated input descriptor and one per
/// descriptor generated while expanding the differences (including
/// intermediate ones), so a WE run aborts *during* the exponential
/// expansion instead of returning late or wrong.
///
/// The `stats` of the returned [`Confidence`] reuse the decomposition
/// counters: `branches` counts the mutex descriptors generated by the
/// differences and `variable_eliminations` the number of eliminated input
/// descriptors.
///
/// # Errors
///
/// Returns [`crate::CoreError::BudgetExceeded`] if `node_budget` is set and
/// exhausted.
pub fn confidence_by_elimination(
    set: &WsSet,
    table: &WorldTable,
    node_budget: Option<u64>,
) -> Result<Confidence> {
    let mut stats = DecompositionStats::default();
    let mut nodes = 0u64;
    let mut charge = |amount: u64| {
        nodes = nodes.saturating_add(amount);
        within_budget(nodes, node_budget)
    };
    let mut total = NeumaierSum::new();
    let mut rest = set.descriptors();
    while let Some((descriptor, later)) = rest.split_first() {
        charge(1)?;
        let remainder = try_diff_descriptor_set(descriptor, later, table, |generated| {
            charge(generated as u64)
        })?;
        let mut partial = NeumaierSum::new();
        for d in &remainder {
            partial.add(d.probability(table));
        }
        stats.variable_eliminations += 1;
        stats.branches += remainder.len() as u64;
        total.add(partial.value());
        rest = later;
    }
    Ok(Confidence {
        probability: total.value(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_reference::worlds::SetWorlds;
    use uprob_wsd::ws_set::diff_descriptor_set;
    use uprob_wsd::{VarId, WsDescriptor};

    /// The entry point the pin test below calls: a named seam, so the pin
    /// runs unchanged against any signature of WE.
    fn we_with_budget(
        set: &WsSet,
        table: &WorldTable,
        node_budget: Option<u64>,
    ) -> Result<Confidence> {
        confidence_by_elimination(set, table, node_budget)
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
        let result = confidence_by_elimination(&set, &w, None).unwrap();
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
        let result = confidence_by_elimination(&s, &w, None).unwrap();
        assert!((result.probability - 0.7578).abs() < 1e-12);
        assert!(result.stats.branches > 0);
    }

    /// Builds the equivalent pairwise-mutex ws-set of Corollary 6.4:
    /// `⋃_{i<n} ({d_i} − {d_{i+1}, …, d_n}) ∪ {d_n}`. Its probability is the
    /// plain sum of its descriptors' probabilities, but it can be
    /// exponentially larger than the input.
    fn mutex_equivalent(set: &WsSet, table: &WorldTable) -> WsSet {
        let descriptors = set.descriptors();
        let mut out = WsSet::empty();
        for (index, descriptor) in descriptors.iter().enumerate() {
            for d in diff_descriptor_set(descriptor, &descriptors[index + 1..], table) {
                out.push(d);
            }
        }
        out
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
        for (i, d1) in mutex.iter().enumerate() {
            assert!(mutex.iter().skip(i + 1).all(|d2| d1.is_mutex_with(d2)));
        }
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
            let got = confidence_by_elimination(&set, &w, None)
                .unwrap()
                .probability;
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
            confidence_by_elimination(&WsSet::empty(), &w, None)
                .unwrap()
                .probability,
            0.0
        );
        assert!(
            (confidence_by_elimination(&WsSet::universal(), &w, None)
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

        let fixed = confidence_by_elimination(&set, &w, None).unwrap();
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
        let err = confidence_by_elimination(&set, &w, Some(100)).unwrap_err();
        assert_eq!(err, crate::CoreError::BudgetExceeded { budget: 100 });
        // Without a budget the same instance still finishes and is exact.
        let unbudgeted = confidence_by_elimination(&set, &w, None).unwrap();
        let exact = 1.0 - 0.75f64.powi(12);
        assert!((unbudgeted.probability - exact).abs() < 1e-12);
    }

    /// WE's answers pinned bit for bit, with their counters: Figure 3's
    /// set, the bench runner's test instance (`HardInstance` n=12, r=2,
    /// s=2, w=20, seed 5), and the smallest node budget under which the
    /// 12-pair instance of `node_budget_aborts_the_difference_expansion`
    /// completes.
    #[test]
    fn pinned_bits_stats_and_budget_threshold() {
        let counters = |branches, variable_eliminations| DecompositionStats {
            branches,
            variable_eliminations,
            ..DecompositionStats::default()
        };

        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
            .unwrap();
        let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
        let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
        let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
        let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
        let figure3 = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        let got = we_with_budget(&figure3, &w, None).unwrap();
        assert_eq!(got.probability.to_bits(), 0x3fe8_3fe5_c91d_14e4);
        assert_eq!(got.stats, counters(5, 5));

        let hard = uprob_datagen::HardInstance::generate(uprob_datagen::HardInstanceConfig {
            num_variables: 12,
            alternatives: 2,
            descriptor_length: 2,
            num_descriptors: 20,
            seed: 5,
        });
        let got = we_with_budget(&hard.ws_set, &hard.world_table, None).unwrap();
        assert_eq!(got.probability.to_bits(), 0x3fef_ac00_0000_0000);
        assert_eq!(got.stats, counters(61, 20));

        let mut w = WorldTable::new();
        let mut pairs = Vec::new();
        for i in 0..12 {
            let x = w.add_boolean(&format!("x{i}"), 0.5).unwrap();
            let y = w.add_boolean(&format!("y{i}"), 0.5).unwrap();
            pairs.push(WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap());
        }
        let pairs = WsSet::from_descriptors(pairs);
        let threshold = 8178;
        let got = we_with_budget(&pairs, &w, Some(threshold)).unwrap();
        assert_eq!(got.probability.to_bits(), 0x3fee_fc81_e000_0000);
        assert_eq!(got.stats, counters(4095, 12));
        assert_eq!(
            we_with_budget(&pairs, &w, Some(threshold - 1)).unwrap_err(),
            crate::CoreError::BudgetExceeded {
                budget: threshold - 1
            }
        );
    }
}
