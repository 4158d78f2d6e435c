//! `uprob_wsd`'s ws-set operations (Section 3) against the world-sets
//! they denote, enumerated by [`crate::worlds`].

mod tests {
    use std::collections::BTreeSet;

    use crate::worlds::SetWorlds;
    use uprob_wsd::{VarId, WorldTable, WsDescriptor, WsSet};

    fn table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn proposition_3_4_set_operations_are_correct() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d2 = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(b, 7)]).unwrap();
        let s1 = WsSet::from_descriptors(vec![d1.clone(), d2.clone()]);
        let s2 = WsSet::from_descriptors(vec![d2.clone(), d3.clone()]);

        let union_worlds: BTreeSet<_> = s1
            .enumerate_worlds(&w)
            .union(&s2.enumerate_worlds(&w))
            .cloned()
            .collect();
        assert_eq!(s1.union(&s2).enumerate_worlds(&w), union_worlds);

        let inter_worlds: BTreeSet<_> = s1
            .enumerate_worlds(&w)
            .intersection(&s2.enumerate_worlds(&w))
            .cloned()
            .collect();
        assert_eq!(s1.intersect(&s2).enumerate_worlds(&w), inter_worlds);

        let diff_worlds: BTreeSet<_> = s1
            .enumerate_worlds(&w)
            .difference(&s2.enumerate_worlds(&w))
            .cloned()
            .collect();
        let diff = s1.difference(&s2, &w);
        assert_eq!(diff.enumerate_worlds(&w), diff_worlds);
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
}
