//! `uprob_wsd`'s ws-descriptors against the worlds they match, enumerated
//! by [`crate::worlds`].

mod tests {
    use crate::worlds::TableWorlds;
    use uprob_wsd::{VarId, WorldTable, WsDescriptor};

    /// World table of Figure 2 extended as in Example 3.1.
    fn table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn empty_descriptor_denotes_all_worlds() {
        let (w, _, _) = table();
        let d = WsDescriptor::empty();
        assert!(d.is_empty());
        assert!((d.probability(&w) - 1.0).abs() < 1e-12);
        for (world, _) in w.enumerate_worlds() {
            assert!(d.matches_world(&world));
        }
    }

    #[test]
    fn probability_is_product_of_assignment_probabilities() {
        let (w, j, b) = table();
        let d = WsDescriptor::from_pairs(&w, &[(j, 7), (b, 4)]).unwrap();
        assert!((d.probability(&w) - 0.8 * 0.3).abs() < 1e-12);
        // Probability equals the total weight of the matching worlds.
        let by_enumeration: f64 = w
            .enumerate_worlds()
            .filter(|(world, _)| d.matches_world(world))
            .map(|(_, p)| p)
            .sum();
        assert!((d.probability(&w) - by_enumeration).abs() < 1e-12);
    }

    #[test]
    fn consistency_is_symmetric_and_matches_world_semantics() {
        let (w, j, b) = table();
        let d1 = WsDescriptor::from_pairs(&w, &[(j, 1)]).unwrap();
        let d3 = WsDescriptor::from_pairs(&w, &[(j, 1), (b, 4)]).unwrap();
        assert!(d1.is_consistent_with(&d3));
        assert!(d3.is_consistent_with(&d1));
        // Consistent iff the world-sets overlap.
        let overlap = w
            .enumerate_worlds()
            .any(|(world, _)| d1.matches_world(&world) && d3.matches_world(&world));
        assert!(overlap);
    }
}
