//! World-set trees (Section 4, Definition 4.1) and their semantics.
//!
//! A ws-tree makes the structure of a ws-set explicit: ⊗ nodes combine
//! **independent** children (their variable sets are disjoint), ⊕ nodes
//! branch on the **mutually exclusive** assignments of one variable, and
//! leaves hold the nullary descriptor `∅`. The product never builds one:
//! `uprob_core::confidence` and `uprob_core::condition` fold over the
//! decomposition of Figure 4 without materialising it (the `ComputeTree ∘ P`
//! composition of Section 4.3). This module keeps the tree as the paper
//! defines it: the ws-set a tree denotes ([`ws_set`]), the structural
//! constraints of Definition 4.1 ([`validate`], over the [`variables`] of
//! each subtree) and Figure 7 evaluated on the materialised tree
//! ([`probability`]), which the confidence fold must agree with.

use std::collections::BTreeSet;

use uprob_wsd::{NeumaierSum, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

/// A world-set tree.
#[derive(Clone, Debug, PartialEq)]
pub enum WsTree {
    /// `⊥`: the empty world-set (probability 0).
    Bottom,
    /// `∅` leaf: the whole world-set in the current context (probability 1).
    Leaf,
    /// `⊗` node: children over pairwise disjoint variable sets; the
    /// represented world-set is the union of the children's world-sets.
    Independent(Vec<WsTree>),
    /// `⊕` node: branches on the alternative assignments of `var`; each
    /// outgoing edge is annotated with a different assignment.
    Choice {
        /// The variable this node eliminates.
        var: VarId,
        /// `(value, subtree)` pairs; values are pairwise distinct.
        branches: Vec<(ValueIndex, WsTree)>,
    },
}

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

/// The probability of a materialised ws-tree, by Figure 7's structural
/// recursion: `1 − Π (1 − pᵢ)` at a ⊗, `Σ P({x → i}) · pᵢ` at a ⊕.
///
/// # Panics
///
/// Panics if the tree refers to variables or values missing from `table`,
/// which [`validate`] rejects.
pub fn probability(tree: &WsTree, table: &WorldTable) -> f64 {
    match tree {
        WsTree::Bottom => 0.0,
        WsTree::Leaf => 1.0,
        WsTree::Independent(children) => {
            let complement: f64 = children
                .iter()
                .map(|c| 1.0 - probability(c, table))
                .product();
            1.0 - complement
        }
        WsTree::Choice { var, branches } => branches
            .iter()
            .map(|(value, child)| {
                let weight = table
                    .probability(*var, *value)
                    .expect("tree value must be in the variable domain");
                weight * probability(child, table)
            })
            .collect::<NeumaierSum>()
            .value(),
    }
}

/// The set of variables occurring in `tree`.
pub fn variables(tree: &WsTree) -> BTreeSet<VarId> {
    let mut vars = BTreeSet::new();
    collect_variables(tree, &mut vars);
    vars
}

fn collect_variables(tree: &WsTree, vars: &mut BTreeSet<VarId>) {
    match tree {
        WsTree::Bottom | WsTree::Leaf => {}
        WsTree::Independent(children) => {
            for child in children {
                collect_variables(child, vars);
            }
        }
        WsTree::Choice { var, branches } => {
            vars.insert(*var);
            for (_, child) in branches {
                collect_variables(child, vars);
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
                let child_vars = variables(child);
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
    use super::{probability, validate, variables, ws_set, WsTree};
    use crate::worlds::SetWorlds;
    use uprob_core::{confidence, DecompositionOptions};
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
        assert_eq!(variables(&tree).len(), 5);
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
    fn tree_probability_matches_streaming_confidence() {
        let (w, [x, y, z, u, v], tree) = figure3();
        assert!((probability(&tree, &w) - 0.7578).abs() < 1e-12);
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        let from_tree = probability(&tree, &w);
        let streamed = confidence(&s, &w, &DecompositionOptions::indve_minlog())
            .unwrap()
            .probability;
        assert!((from_tree - streamed).abs() < 1e-12);
        assert!((from_tree - 0.7578).abs() < 1e-12);
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
}
