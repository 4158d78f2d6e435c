//! The structural analyses: rules that reason across function boundaries
//! on the intra-crate call graph.
//!
//! Each analysis receives a [`CrateView`] — every in-scope file of one
//! crate, its parsed item scopes, and the call graph over them — and
//! appends findings through the same `emit` gate the lexical rules use
//! (test regions and allow pragmas apply identically). They run before
//! the pragma meta-rule so that a pragma suppressing only a structural
//! finding still counts as used.
//!
//! Shared soundness limits (see DESIGN.md): analysis is intra-crate
//! only, trait dispatch and non-`self` method receivers are unresolved,
//! so cross-crate and dynamic call chains are invisible. Every analysis
//! is written so a missing edge can only hide a finding, never invent
//! one.

pub mod lock_order;
pub mod taint;

use crate::ast::FileAst;
use crate::callgraph::CallGraph;
use crate::check::Finding;
use crate::config::LintConfig;
use crate::source::SourceFile;

/// Everything the structural analyses see of one crate.
pub struct CrateView<'a> {
    /// Every in-scope file of the crate.
    pub files: &'a [SourceFile],
    /// Parsed item scopes, parallel to `files`.
    pub asts: &'a [FileAst],
    /// The call graph over all items.
    pub graph: &'a CallGraph,
    /// The lint policy.
    pub config: &'a LintConfig,
}

impl CrateView<'_> {
    /// The file and item behind a call-graph node.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from the call graph's own node vector; files/asts are parallel vectors built from the same enumeration"
    )]
    pub fn item(&self, node: usize) -> (&SourceFile, &crate::ast::FnItem) {
        let (fi, ii) = self.graph.nodes[node];
        (&self.files[fi], &self.asts[fi].fns[ii])
    }

    /// Display path `a` → `b` → `c` for a chain of nodes.
    pub fn path_display(&self, nodes: &[usize]) -> String {
        nodes
            .iter()
            .map(|&n| format!("`{}`", self.graph.qual(self.asts, n)))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Runs every structural analysis over one crate.
pub fn run(view: &CrateView<'_>, findings: &mut Vec<Finding>) {
    taint::check(view, findings);
    lock_order::check(view, findings);
}
