//! World-set trees (Section 4, Definition 4.1).
//!
//! A ws-tree makes the structure of a ws-set explicit: ⊗ nodes combine
//! **independent** children (their variable sets are disjoint), ⊕ nodes
//! branch on the **mutually exclusive** assignments of one variable, and
//! leaves hold the nullary descriptor `∅`. The world-set represented by a
//! ws-tree is the ws-set collecting the edge annotations of every
//! root-to-leaf path.

use std::collections::BTreeSet;
use std::fmt;

use uprob_wsd::{ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

/// A world-set tree.
#[derive(Clone, Debug, PartialEq)]
pub enum WsTree {
    /// `⊥`: the empty world-set (probability 0). Produced when a branch of
    /// the decomposition reaches an empty ws-set.
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

/// Size and shape statistics of a materialised ws-tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of ⊗ nodes.
    pub independent_nodes: u64,
    /// Number of ⊕ nodes.
    pub choice_nodes: u64,
    /// Number of `∅` leaves.
    pub leaves: u64,
    /// Number of `⊥` nodes.
    pub bottoms: u64,
    /// Number of edges out of ⊕ nodes.
    pub edges: u64,
    /// Height of the tree (a single leaf has height 1).
    pub height: u64,
}

impl TreeShape {
    /// Total number of nodes.
    pub fn total_nodes(&self) -> u64 {
        self.independent_nodes + self.choice_nodes + self.leaves + self.bottoms
    }
}

impl WsTree {
    /// True if this tree denotes the empty world-set everywhere.
    pub fn is_bottom(&self) -> bool {
        matches!(self, WsTree::Bottom)
    }

    /// The ws-set of all root-to-leaf path annotations (the semantics of the
    /// tree, Section 4).
    pub fn to_ws_set(&self) -> WsSet {
        let mut out = WsSet::empty();
        let mut prefix = WsDescriptor::empty();
        self.collect_paths(&mut prefix, &mut out);
        out
    }

    fn collect_paths(&self, prefix: &mut WsDescriptor, out: &mut WsSet) {
        match self {
            WsTree::Bottom => {}
            WsTree::Leaf => out.push(prefix.clone()),
            WsTree::Independent(children) => {
                for child in children {
                    child.collect_paths(prefix, out);
                }
            }
            WsTree::Choice { var, branches } => {
                for (value, child) in branches {
                    let saved = prefix.clone();
                    #[expect(
                        clippy::expect_used,
                        reason = "decomposition strips var from every subtree before recursing"
                    )]
                    prefix
                        .assign(*var, *value)
                        .expect("ws-tree paths assign each variable at most once");
                    child.collect_paths(prefix, out);
                    *prefix = saved;
                }
            }
        }
    }

    /// The set of variables occurring in the tree.
    pub fn variables(&self) -> BTreeSet<VarId> {
        let mut vars = BTreeSet::new();
        self.collect_variables(&mut vars);
        vars
    }

    fn collect_variables(&self, vars: &mut BTreeSet<VarId>) {
        match self {
            WsTree::Bottom | WsTree::Leaf => {}
            WsTree::Independent(children) => {
                for child in children {
                    child.collect_variables(vars);
                }
            }
            WsTree::Choice { var, branches } => {
                vars.insert(*var);
                for (_, child) in branches {
                    child.collect_variables(vars);
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
    pub fn validate(&self, table: &WorldTable) -> Result<(), String> {
        let mut on_path = BTreeSet::new();
        self.validate_rec(table, &mut on_path)
    }

    fn validate_rec(
        &self,
        table: &WorldTable,
        on_path: &mut BTreeSet<VarId>,
    ) -> Result<(), String> {
        match self {
            WsTree::Bottom | WsTree::Leaf => Ok(()),
            WsTree::Independent(children) => {
                let mut seen: BTreeSet<VarId> = BTreeSet::new();
                for child in children {
                    let child_vars = child.variables();
                    if !seen.is_disjoint(&child_vars) {
                        return Err("children of a ⊗ node share variables".to_string());
                    }
                    seen.extend(child_vars.iter().copied());
                    child.validate_rec(table, on_path)?;
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
                    child.validate_rec(table, on_path)?;
                }
                on_path.remove(var);
                Ok(())
            }
        }
    }

    /// Shape statistics (node counts, height).
    pub fn shape(&self) -> TreeShape {
        let mut shape = TreeShape::default();
        let height = self.shape_rec(&mut shape);
        shape.height = height;
        shape
    }

    fn shape_rec(&self, shape: &mut TreeShape) -> u64 {
        match self {
            WsTree::Bottom => {
                shape.bottoms += 1;
                1
            }
            WsTree::Leaf => {
                shape.leaves += 1;
                1
            }
            WsTree::Independent(children) => {
                shape.independent_nodes += 1;
                1 + children
                    .iter()
                    .map(|c| c.shape_rec(shape))
                    .max()
                    .unwrap_or(0)
            }
            WsTree::Choice { branches, .. } => {
                shape.choice_nodes += 1;
                shape.edges += branches.len() as u64;
                1 + branches
                    .iter()
                    .map(|(_, c)| c.shape_rec(shape))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// Renders the tree with indentation, variable names and value labels.
    pub fn display<'a>(&'a self, table: &'a WorldTable) -> impl fmt::Display + 'a {
        TreeDisplay { tree: self, table }
    }
}

struct TreeDisplay<'a> {
    tree: &'a WsTree,
    table: &'a WorldTable,
}

impl fmt::Display for TreeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(
            tree: &WsTree,
            table: &WorldTable,
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match tree {
                WsTree::Bottom => writeln!(f, "{pad}⊥"),
                WsTree::Leaf => writeln!(f, "{pad}∅"),
                WsTree::Independent(children) => {
                    writeln!(f, "{pad}⊗")?;
                    for child in children {
                        go(child, table, indent + 1, f)?;
                    }
                    Ok(())
                }
                WsTree::Choice { var, branches } => {
                    let name = table
                        .variable(*var)
                        .map(|v| v.name.clone())
                        .unwrap_or_else(|_| format!("{var}"));
                    writeln!(f, "{pad}⊕ {name}")?;
                    for (value, child) in branches {
                        let label = table
                            .value_label(*var, *value)
                            .map(|l| l.to_string())
                            .unwrap_or_else(|_| format!("{value}"));
                        writeln!(f, "{pad}  {name} -> {label}:")?;
                        go(child, table, indent + 2, f)?;
                    }
                    Ok(())
                }
            }
        }
        go(self.tree, self.table, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(tree.validate(&w).is_ok());
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
        let paths = tree.to_ws_set();
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
        assert!(bad_path.validate(&w).is_err());
        // Duplicate edge annotation.
        let bad_edges = WsTree::Choice {
            var: x,
            branches: vec![(ValueIndex(0), WsTree::Leaf), (ValueIndex(0), WsTree::Leaf)],
        };
        assert!(bad_edges.validate(&w).is_err());
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
        assert!(shared.validate(&w).is_err());
        // Out-of-domain value.
        let out_of_range = WsTree::Choice {
            var: y,
            branches: vec![(ValueIndex(9), WsTree::Leaf)],
        };
        assert!(out_of_range.validate(&w).is_err());
    }

    #[test]
    fn bottom_and_leaf_semantics() {
        let (w, _, _) = figure3();
        assert!(WsTree::Bottom.to_ws_set().is_empty());
        assert!(WsTree::Bottom.is_bottom());
        let leaf = WsTree::Leaf.to_ws_set();
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
