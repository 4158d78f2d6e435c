//! Stamp-refresh v2: the delegation fixpoint on the real call graph.
//!
//! The invariant (PR 2, DESIGN.md): equal stamps imply identical
//! contents, so every `&mut self` method of a stamp-carrying type must
//! refresh the `stamp` field — directly, or through something it calls.
//! The v1 lexical rule only resolved `self.method(..)` delegation inside
//! one file; this version computes "refreshes" as a fixpoint over the
//! crate call graph, so delegation through free functions, associated
//! functions and cross-file helpers is credited too, and the remaining
//! findings are real.

#![expect(
    clippy::indexing_slicing,
    reason = "every index is a call-graph node id bounded by graph.nodes.len(), and body spans come from the lexer over the same text"
)]

use std::collections::BTreeSet;

use crate::check::{contains_word, emit, Finding};
use crate::config::Family;

use super::CrateView;

/// Flags `&mut self` methods of stamped types that neither mention
/// `stamp` in their body nor transitively call anything that does.
pub fn check(view: &CrateView<'_>, findings: &mut Vec<Finding>) {
    let stamped: BTreeSet<&str> = view
        .asts
        .iter()
        .flat_map(|a| a.stamped_types.iter().map(String::as_str))
        .collect();
    if stamped.is_empty() {
        return;
    }
    let graph = view.graph;
    // Base facts: the body mentions the word `stamp`.
    let mut refreshes: Vec<bool> = (0..graph.nodes.len())
        .map(|n| {
            let (file, item) = view.item(n);
            item.body
                .map(|(s, e)| contains_word(&file.text[s..e], "stamp"))
                .unwrap_or(false)
        })
        .collect();
    // Fixpoint: calling a refreshing function refreshes.
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            if refreshes[n] {
                continue;
            }
            if graph.calls[n].iter().any(|c| refreshes[c.callee]) {
                refreshes[n] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (n, refreshed) in refreshes.iter().enumerate() {
        let (file, item) = view.item(n);
        let is_stamped_mutator = item.is_mut_self
            && item.body.is_some()
            && item
                .self_type
                .as_deref()
                .is_some_and(|t| stamped.contains(t));
        if !is_stamped_mutator || *refreshed {
            continue;
        }
        if !view
            .config
            .families(&file.rel_path)
            .any(|f| f == Family::Determinism)
        {
            continue;
        }
        emit(
            file,
            findings,
            "stamp-refresh",
            item.decl_offset,
            format!(
                "`&mut self` method `{}` on a stamped type never refreshes `stamp`",
                item.name
            ),
            "refresh the stamp (directly or via any callee that does), or allow(stamp-refresh) with why contents are unchanged",
        );
    }
}
