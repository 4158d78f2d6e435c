//! World-set trees (Section 4, Definition 4.1).
//!
//! A ws-tree makes the structure of a ws-set explicit: ⊗ nodes combine
//! **independent** children (their variable sets are disjoint), ⊕ nodes
//! branch on the **mutually exclusive** assignments of one variable, and
//! leaves hold the nullary descriptor `∅`. The world-set represented by a
//! ws-tree is the ws-set collecting the edge annotations of every
//! root-to-leaf path. That semantics and the structural constraints of
//! Definition 4.1 are the oracles `uprob_reference::wstree` checks
//! [`build_tree`](crate::build_tree) against.

use std::collections::BTreeSet;
use std::fmt;

use uprob_wsd::{ValueIndex, VarId, WorldTable};

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
