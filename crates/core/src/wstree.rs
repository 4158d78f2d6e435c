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

impl WsTree {
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
                        .map(|v| v.name.to_string())
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
