//! `uprob_wsd`'s world table against its possible worlds, enumerated by
//! [`crate::worlds`].

mod tests {
    use crate::worlds::TableWorlds;
    use uprob_wsd::{ValueIndex, VarId, WorldTable};

    fn ssn_table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn world_count_and_probabilities() {
        let (w, _, _) = ssn_table();
        assert_eq!(w.world_count(), Some(4));
        assert!((w.log2_world_count() - 2.0).abs() < 1e-12);
        let worlds: Vec<_> = w.enumerate_worlds().collect();
        assert_eq!(worlds.len(), 4);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // World {j -> 7, b -> 7} has probability .8 * .7 = .56 (Example 2.1).
        let p = w.world_probability(&[ValueIndex(1), ValueIndex(1)]);
        assert!((p - 0.56).abs() < 1e-12);
    }

    #[test]
    fn empty_table_has_one_world() {
        let w = WorldTable::new();
        assert!(w.is_empty());
        assert_eq!(w.world_count(), Some(1));
        let worlds: Vec<_> = w.enumerate_worlds().collect();
        assert_eq!(worlds.len(), 1);
        assert!((worlds[0].1 - 1.0).abs() < 1e-12);
    }
}
