//! `uprob_core`'s [`build_tree`] against the ws-tree semantics of
//! [`crate::wstree`]: every decomposition method yields a valid tree that
//! denotes the input ws-set.

mod tests {
    use crate::wstree::{validate, ws_set};
    use uprob_core::{build_tree, DecompositionOptions, VariableHeuristic};
    use uprob_wsd::{VarId, WorldTable, WsDescriptor, WsSet};

    /// The world table and ws-set S of Figure 3.
    fn figure3() -> (WorldTable, [VarId; 5], WsSet) {
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
        (w, [x, y, z, u, v], s)
    }

    #[test]
    fn build_tree_produces_a_valid_equivalent_tree() {
        let (w, _, s) = figure3();
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
            DecompositionOptions::ve_minlog(),
            DecompositionOptions {
                heuristic: VariableHeuristic::FirstVariable,
                ..Default::default()
            },
        ] {
            let (tree, stats) = build_tree(&s, &w, &options).unwrap();
            assert!(validate(&tree, &w).is_ok(), "invalid tree for {options:?}");
            assert!(
                ws_set(&tree).is_equivalent_by_enumeration(&s, &w),
                "tree does not represent S for {options:?}"
            );
            assert!(stats.total_nodes() > 0);
        }
    }

    #[test]
    fn missing_assignments_with_nonempty_tail_keep_semantics() {
        // S over x (domain 3) where only x -> 1 occurs, plus an independent
        // descriptor over y that forms the tail when eliminating x.
        let mut w = WorldTable::new();
        let x = w.add_uniform("x", 3).unwrap();
        let y = w.add_uniform("y", 2).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 0), (y, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(y, 1)]).unwrap(),
        ]);
        // Force VE so the tail/missing-value logic is exercised.
        let (tree, _) = build_tree(&s, &w, &DecompositionOptions::ve_minlog()).unwrap();
        assert!(validate(&tree, &w).is_ok());
        assert!(ws_set(&tree).is_equivalent_by_enumeration(&s, &w));
    }
}
