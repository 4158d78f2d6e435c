//! Property-based tests for ws-set operations (Proposition 3.4 and the
//! structural properties of Section 3) against brute-force world
//! enumeration on randomly generated small world tables.

use proptest::prelude::*;
use uprob_reference::worlds::{SetWorlds, TableWorlds};
use uprob_wsd::{ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

/// A compact recipe for a random world table plus ws-sets over it.
#[derive(Debug, Clone)]
struct Scenario {
    /// Domain size per variable (2..=3), at most 5 variables.
    domains: Vec<u8>,
    /// Each descriptor is a list of (variable index, value index) pairs.
    set_a: Vec<Vec<(u8, u8)>>,
    set_b: Vec<Vec<(u8, u8)>>,
}

fn descriptor_strategy(num_vars: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..num_vars as u8, 0..3u8), 0..=num_vars)
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (2usize..=5).prop_flat_map(|num_vars| {
        (
            prop::collection::vec(2u8..=3, num_vars),
            prop::collection::vec(descriptor_strategy(num_vars), 0..=5),
            prop::collection::vec(descriptor_strategy(num_vars), 0..=5),
        )
            .prop_map(|(domains, set_a, set_b)| Scenario {
                domains,
                set_a,
                set_b,
            })
    })
}

/// Materialises the scenario: builds the world table and the two ws-sets.
/// Descriptor entries that would make a descriptor non-functional are
/// skipped (first assignment of a variable wins), and value indexes are
/// wrapped into the domain.
fn build(scenario: &Scenario) -> (WorldTable, WsSet, WsSet) {
    let mut table = WorldTable::new();
    let vars: Vec<VarId> = scenario
        .domains
        .iter()
        .enumerate()
        .map(|(i, &size)| table.add_uniform(&format!("v{i}"), size as usize).unwrap())
        .collect();
    let build_set = |raw: &[Vec<(u8, u8)>]| -> WsSet {
        raw.iter()
            .map(|pairs| {
                let mut d = WsDescriptor::empty();
                for &(var_idx, val) in pairs {
                    let var = vars[var_idx as usize];
                    let domain = scenario.domains[var_idx as usize] as u16;
                    let value = ValueIndex(val as u16 % domain);
                    // First assignment of a variable wins.
                    let _ = d.assign(var, value);
                }
                d
            })
            .collect()
    };
    (
        table,
        build_set(&scenario.set_a),
        build_set(&scenario.set_b),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ω(Union(S1,S2)) = ω(S1) ∪ ω(S2).
    #[test]
    fn union_matches_enumeration(scenario in scenario_strategy()) {
        let (table, a, b) = build(&scenario);
        let expected: std::collections::BTreeSet<_> = a
            .enumerate_worlds(&table)
            .union(&b.enumerate_worlds(&table))
            .cloned()
            .collect();
        prop_assert_eq!(a.union(&b).enumerate_worlds(&table), expected);
    }

    /// ω(Intersect(S1,S2)) = ω(S1) ∩ ω(S2).
    #[test]
    fn intersect_matches_enumeration(scenario in scenario_strategy()) {
        let (table, a, b) = build(&scenario);
        let expected: std::collections::BTreeSet<_> = a
            .enumerate_worlds(&table)
            .intersection(&b.enumerate_worlds(&table))
            .cloned()
            .collect();
        prop_assert_eq!(a.intersect(&b).enumerate_worlds(&table), expected);
    }

    /// ω(Diff(S1,S2)) = ω(S1) − ω(S2).
    #[test]
    fn difference_matches_enumeration(scenario in scenario_strategy()) {
        let (table, a, b) = build(&scenario);
        let expected: std::collections::BTreeSet<_> = a
            .enumerate_worlds(&table)
            .difference(&b.enumerate_worlds(&table))
            .cloned()
            .collect();
        prop_assert_eq!(a.difference(&b, &table).enumerate_worlds(&table), expected);
    }

    /// The descriptors obtained by subtracting a ws-set from a single
    /// descriptor are pairwise mutually exclusive (Proposition 3.4).
    #[test]
    fn difference_of_single_descriptor_is_pairwise_mutex(scenario in scenario_strategy()) {
        let (table, a, b) = build(&scenario);
        for d in a.iter() {
            let single = WsSet::from_descriptors(vec![d.clone()]);
            let diff = single.difference(&b, &table);
            for (i, d1) in diff.iter().enumerate() {
                prop_assert!(diff.iter().skip(i + 1).all(|d2| d1.is_mutex_with(d2)));
            }
        }
    }

    /// Normalisation (dedup + absorption) preserves the world-set.
    #[test]
    fn normalization_preserves_semantics(scenario in scenario_strategy()) {
        let (table, a, _) = build(&scenario);
        let n = a.normalized();
        prop_assert!(n.is_equivalent_by_enumeration(&a, &table));
        prop_assert!(n.len() <= a.len());
    }

    /// Absorption under adversarial redundancy: the input set is inflated
    /// with exact duplicates and strictly subsumed extensions of its own
    /// descriptors, interleaved in an arbitrary order. Normalisation must
    /// (1) preserve the world-set (checked by enumeration), (2) be
    /// idempotent, and (3) leave no descriptor contained in another.
    #[test]
    fn normalization_absorbs_duplicates_and_subsumed_descriptors(
        (scenario, extension_seeds, interleave) in (
            scenario_strategy(),
            prop::collection::vec((0usize..64, 0u8..8, 0u8..3), 0..=6),
            0usize..4,
        )
    ) {
        let (table, a, _) = build(&scenario);
        if a.is_empty() {
            return Ok(());
        }
        let base: Vec<WsDescriptor> = a.iter().cloned().collect();
        // Redundant descriptors: duplicates of base descriptors plus
        // extensions (every extension of d is contained in d and must be
        // absorbed whenever d itself is kept).
        let mut redundant = Vec::new();
        for &(pick, var_idx, val) in &extension_seeds {
            let d = &base[pick % base.len()];
            redundant.push(d.clone());
            let var_idx = (var_idx as usize) % scenario.domains.len();
            let domain = scenario.domains[var_idx] as u16;
            let mut extended = d.clone();
            // Ignore conflicts: the first assignment of a variable wins.
            let _ = extended.assign(
                VarId(var_idx as u32),
                ValueIndex(val as u16 % domain),
            );
            redundant.push(extended);
        }
        // Interleave the redundancy in different positions relative to the
        // base descriptors so absorption order is exercised both ways.
        let mut inflated: Vec<WsDescriptor> = Vec::new();
        match interleave {
            0 => {
                inflated.extend(base.iter().cloned());
                inflated.extend(redundant.iter().cloned());
            }
            1 => {
                inflated.extend(redundant.iter().cloned());
                inflated.extend(base.iter().cloned());
            }
            2 => {
                let mut r = redundant.iter();
                for d in &base {
                    if let Some(x) = r.next() {
                        inflated.push(x.clone());
                    }
                    inflated.push(d.clone());
                }
                inflated.extend(r.cloned());
            }
            _ => {
                inflated.extend(base.iter().rev().cloned());
                inflated.extend(redundant.iter().rev().cloned());
            }
        }
        let inflated = WsSet::from_descriptors(inflated);
        let normalized = inflated.normalized();
        // (1) same world-set as both the inflated and the original set.
        prop_assert!(normalized.is_equivalent_by_enumeration(&inflated, &table));
        prop_assert!(normalized.is_equivalent_by_enumeration(&a, &table));
        // (2) idempotent: a second normalisation changes nothing.
        prop_assert_eq!(&normalized.normalized(), &normalized);
        // (3) irredundant: no descriptor contained in a different one, no
        // exact duplicates.
        let descriptors = normalized.descriptors();
        for (i, d1) in descriptors.iter().enumerate() {
            for (j, d2) in descriptors.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !d1.is_contained_in(d2),
                        "descriptor {i} is absorbed by {j} but survived"
                    );
                }
            }
        }
        // The result is never larger than the un-inflated original after
        // its own normalisation.
        prop_assert_eq!(normalized.len(), a.normalized().len());
    }

    /// Independent partitioning: parts are pairwise independent and their
    /// union is the original set.
    #[test]
    fn independent_partition_is_sound(scenario in scenario_strategy()) {
        let (table, a, _) = build(&scenario);
        let parts = a.independent_partition();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, a.len());
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                prop_assert!(p.is_independent_of(q));
            }
        }
        // Re-assembling the parts yields the same world-set.
        let mut reunion = WsSet::empty();
        for p in &parts {
            reunion = reunion.union(p);
        }
        prop_assert!(reunion.is_equivalent_by_enumeration(&a, &table));
    }

    /// Descriptor probability equals the total weight of its worlds.
    #[test]
    fn descriptor_probability_matches_enumeration(scenario in scenario_strategy()) {
        let (table, a, _) = build(&scenario);
        for d in a.iter() {
            let exact = d.probability(&table);
            let brute: f64 = table
                .enumerate_worlds()
                .filter(|(world, _)| d.matches_world(world))
                .map(|(_, p)| p)
                .sum();
            prop_assert!((exact - brute).abs() < 1e-9);
        }
    }

    /// Syntactic mutex / independence / containment agree with their
    /// semantic definitions on the represented world-sets.
    #[test]
    fn syntactic_properties_match_semantics(scenario in scenario_strategy()) {
        let (table, a, b) = build(&scenario);
        for d1 in a.iter() {
            for d2 in b.iter() {
                let w1 = WsSet::from_descriptors(vec![d1.clone()]).enumerate_worlds(&table);
                let w2 = WsSet::from_descriptors(vec![d2.clone()]).enumerate_worlds(&table);
                if d1.is_mutex_with(d2) {
                    prop_assert!(w1.is_disjoint(&w2));
                } else {
                    prop_assert!(!w1.is_disjoint(&w2));
                }
                if d1.is_contained_in(d2) {
                    prop_assert!(w1.is_subset(&w2));
                }
            }
        }
    }
}
