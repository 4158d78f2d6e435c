//! The semantics of a ws-tree (Section 4), the oracle `uprob_core`'s
//! [`build_tree`](uprob_core::build_tree) is tested against: the ws-set a
//! tree denotes ([`ws_set`]) and the structural constraints of
//! Definition 4.1 ([`validate`]).

use std::collections::BTreeSet;

use uprob_core::WsTree;
use uprob_wsd::{VarId, WorldTable, WsDescriptor, WsSet};

/// The ws-set of all root-to-leaf path annotations of `tree`.
///
/// # Panics
///
/// Panics if a path assigns a variable twice, which [`validate`] rejects.
pub fn ws_set(tree: &WsTree) -> WsSet {
    let mut out = WsSet::empty();
    collect_paths(tree, &WsDescriptor::empty(), &mut out);
    out
}

fn collect_paths(tree: &WsTree, prefix: &WsDescriptor, out: &mut WsSet) {
    match tree {
        WsTree::Bottom => {}
        WsTree::Leaf => out.push(prefix.clone()),
        WsTree::Independent(children) => {
            for child in children {
                collect_paths(child, prefix, out);
            }
        }
        WsTree::Choice { var, branches } => {
            for (value, child) in branches {
                let path = prefix
                    .with(*var, *value)
                    .expect("ws-tree paths assign each variable at most once");
                collect_paths(child, &path, out);
            }
        }
    }
}

/// Checks the three structural constraints of Definition 4.1:
///
/// 1. a variable occurs at most once on each root-to-leaf path,
/// 2. the outgoing edges of a ⊕ node carry pairwise distinct assignments
///    of its variable, all within the variable's domain,
/// 3. the children of a ⊗ node use pairwise disjoint variable sets.
pub fn validate(tree: &WsTree, table: &WorldTable) -> Result<(), String> {
    validate_rec(tree, table, &mut BTreeSet::new())
}

fn validate_rec(
    tree: &WsTree,
    table: &WorldTable,
    on_path: &mut BTreeSet<VarId>,
) -> Result<(), String> {
    match tree {
        WsTree::Bottom | WsTree::Leaf => Ok(()),
        WsTree::Independent(children) => {
            let mut seen: BTreeSet<VarId> = BTreeSet::new();
            for child in children {
                let child_vars = child.variables();
                if !seen.is_disjoint(&child_vars) {
                    return Err("children of a ⊗ node share variables".to_string());
                }
                seen.extend(child_vars.iter().copied());
                validate_rec(child, table, on_path)?;
            }
            Ok(())
        }
        WsTree::Choice { var, branches } => {
            if on_path.contains(var) {
                return Err(format!("variable {var} occurs twice on a path"));
            }
            let domain = table
                .domain_size(*var)
                .map_err(|e| format!("unknown variable {var}: {e}"))?;
            let mut values = BTreeSet::new();
            for (value, _) in branches {
                if value.index() >= domain {
                    return Err(format!("value {value} out of range for variable {var}"));
                }
                if !values.insert(*value) {
                    return Err(format!(
                        "two edges of a ⊕ node carry the same assignment of {var}"
                    ));
                }
            }
            on_path.insert(*var);
            for (_, child) in branches {
                validate_rec(child, table, on_path)?;
            }
            on_path.remove(var);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{validate, ws_set};
    use uprob_core::WsTree;
    use uprob_wsd::{ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

    /// Builds the world table of Figure 3 and the ws-tree R shown there.
    fn figure3() -> (WorldTable, [VarId; 5], WsTree) {
        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
            .unwrap();
        let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
        let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
        let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
        let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
        // Left subtree: ⊕ x with x->1: ∅ and x->2: ⊗(⊕ y(1:∅), ⊕ z(1:∅)).
        let left = WsTree::Choice {
            var: x,
            branches: vec![
                (ValueIndex(0), WsTree::Leaf),
                (
                    ValueIndex(1),
                    WsTree::Independent(vec![
                        WsTree::Choice {
                            var: y,
                            branches: vec![(ValueIndex(0), WsTree::Leaf)],
                        },
                        WsTree::Choice {
                            var: z,
                            branches: vec![(ValueIndex(0), WsTree::Leaf)],
                        },
                    ]),
                ),
            ],
        };
        // Right subtree: ⊕ u with u->1: ⊕ v(1:∅) and u->2: ∅.
        let right = WsTree::Choice {
            var: u,
            branches: vec![
                (
                    ValueIndex(0),
                    WsTree::Choice {
                        var: v,
                        branches: vec![(ValueIndex(0), WsTree::Leaf)],
                    },
                ),
                (ValueIndex(1), WsTree::Leaf),
            ],
        };
        let tree = WsTree::Independent(vec![left, right]);
        (w, [x, y, z, u, v], tree)
    }

    #[test]
    fn figure3_tree_is_valid_and_has_expected_shape() {
        let (w, _, tree) = figure3();
        assert!(validate(&tree, &w).is_ok());
        let shape = tree.shape();
        assert_eq!(shape.independent_nodes, 2);
        assert_eq!(shape.choice_nodes, 5);
        assert_eq!(shape.leaves, 5);
        assert_eq!(shape.bottoms, 0);
        assert_eq!(shape.total_nodes(), 12);
        assert_eq!(shape.height, 5);
        assert_eq!(tree.variables().len(), 5);
    }

    #[test]
    fn figure3_tree_represents_the_ws_set_s() {
        let (w, [x, y, z, u, v], tree) = figure3();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        let paths = ws_set(&tree);
        assert_eq!(paths.len(), 5);
        assert!(paths.is_equivalent_by_enumeration(&s, &w));
    }

    #[test]
    fn validation_rejects_malformed_trees() {
        let (w, [x, y, ..], _) = figure3();
        // Same variable twice on a path.
        let bad_path = WsTree::Choice {
            var: x,
            branches: vec![(
                ValueIndex(0),
                WsTree::Choice {
                    var: x,
                    branches: vec![(ValueIndex(1), WsTree::Leaf)],
                },
            )],
        };
        assert!(validate(&bad_path, &w).is_err());
        // Duplicate edge annotation.
        let bad_edges = WsTree::Choice {
            var: x,
            branches: vec![(ValueIndex(0), WsTree::Leaf), (ValueIndex(0), WsTree::Leaf)],
        };
        assert!(validate(&bad_edges, &w).is_err());
        // ⊗ children sharing a variable.
        let shared = WsTree::Independent(vec![
            WsTree::Choice {
                var: y,
                branches: vec![(ValueIndex(0), WsTree::Leaf)],
            },
            WsTree::Choice {
                var: y,
                branches: vec![(ValueIndex(1), WsTree::Leaf)],
            },
        ]);
        assert!(validate(&shared, &w).is_err());
        // Out-of-domain value.
        let out_of_range = WsTree::Choice {
            var: y,
            branches: vec![(ValueIndex(9), WsTree::Leaf)],
        };
        assert!(validate(&out_of_range, &w).is_err());
    }

    #[test]
    fn bottom_and_leaf_semantics() {
        let (w, _, _) = figure3();
        assert!(ws_set(&WsTree::Bottom).is_empty());
        let leaf = ws_set(&WsTree::Leaf);
        assert!(leaf.contains_universal());
        assert!((leaf.probability_by_enumeration(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_node_markers() {
        let (w, _, tree) = figure3();
        let text = format!("{}", tree.display(&w));
        assert!(text.contains("⊗"));
        assert!(text.contains("⊕ x"));
        assert!(text.contains("x -> 2:"));
        assert!(text.contains("∅"));
    }
}
