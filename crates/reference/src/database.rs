//! `uprob_urel`'s world instantiation over the possible worlds,
//! enumerated by [`crate::worlds`].

mod tests {
    use crate::fixtures::ssn_db;
    use crate::worlds::TableWorlds;

    #[test]
    fn world_instances_match_figure_1() {
        let db = ssn_db();
        let instances: Vec<_> = db
            .world_table()
            .enumerate_worlds()
            .map(|(world, p)| {
                let instance = db.instantiate_world(&world);
                (world, p, instance)
            })
            .collect();
        assert_eq!(instances.len(), 4);
        let total: f64 = instances.iter().map(|(_, p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Probabilities of the four worlds of Figure 1: .06, .24, .14, .56.
        let mut probs: Vec<f64> = instances.iter().map(|(_, p, _)| *p).collect();
        probs.sort_by(f64::total_cmp);
        let expected = [0.06, 0.14, 0.24, 0.56];
        for (p, e) in probs.iter().zip(expected) {
            assert!((p - e).abs() < 1e-12);
        }
        // Every world contains exactly two tuples in R.
        for (_, _, instance) in &instances {
            assert_eq!(instance["R"].len(), 2);
        }
    }
}
