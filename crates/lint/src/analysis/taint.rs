//! Determinism taint: nondeterminism sources inside the bit-identity
//! cone.
//!
//! The headline contract pins served, parallel, delta-conditioned
//! confidences bit-identical to the sequential fold. The *sinks* are the
//! functions transitively reachable from the bit-identity surfaces —
//! `confidence_parallel`, every `assert_all*`, and `ProbDbService`'s
//! `conf*` methods. The *sources* are the classic nondeterminism
//! injectors: iteration over hash-ordered containers, thread spawns
//! (completion order), and environment reads. A source sitting inside
//! any sink function is reported with the full call path from the
//! surface, so the reviewer sees exactly which contract it threatens.
//!
//! Hash-iteration sites already allowed for det-hash-iter (order
//! provably cannot leak) are respected here too — one argued exemption
//! should not need restating per rule.

#![expect(
    clippy::indexing_slicing,
    reason = "indices are call-graph node ids bounded by graph.nodes.len(); string slices split at word-occurrence offsets inside the same text"
)]

use crate::check::{emit, hash_iteration_sites, word_occurrences, Finding};
use crate::config::Family;

use super::CrateView;

const HINT: &str = "make the site deterministic (sorted iteration, indexed merge, stamped input), \
     or allow(det-taint) with why the nondeterminism cannot reach the result bits";

/// One nondeterminism source site.
struct Source {
    /// Byte offset in the file.
    offset: usize,
    /// What kind of nondeterminism it injects.
    what: String,
}

/// Flags nondeterminism sources inside functions reachable from the
/// bit-identity surfaces, with the call path from the surface.
pub fn check(view: &CrateView<'_>, findings: &mut Vec<Finding>) {
    let graph = view.graph;
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| {
            let (_, item) = view.item(n);
            item.name == "confidence_parallel"
                || item.name.starts_with("assert_all")
                || (item.self_type.as_deref() == Some("ProbDbService")
                    && item.name.starts_with("conf"))
        })
        .collect();
    if roots.is_empty() {
        return;
    }
    let (in_cone, parents) = graph.reach_with_parents(&roots);
    // Source sites per file, computed once.
    let file_sources: Vec<Vec<Source>> = view.files.iter().map(collect_sources).collect();
    for (n, reachable) in in_cone.iter().enumerate() {
        if !reachable {
            continue;
        }
        let (file, item) = view.item(n);
        let Some((body_start, body_end)) = item.body else {
            continue;
        };
        if !view
            .config
            .families(&file.rel_path)
            .any(|f| f == Family::Determinism)
        {
            continue;
        }
        let (fi, _) = graph.nodes[n];
        for source in &file_sources[fi] {
            if !(body_start..body_end).contains(&source.offset) {
                continue;
            }
            // Attribute to the innermost fn: a source inside a nested fn
            // is reported on that fn's node, not every enclosing one.
            if graph.innermost(view.asts, fi, source.offset) != Some(n) {
                continue;
            }
            // An argued det-hash-iter exemption covers the taint view of
            // the same site.
            if file.allowed("det-hash-iter", source.offset) {
                continue;
            }
            let path = graph.path_to(&parents, n);
            emit(
                file,
                findings,
                "det-taint",
                source.offset,
                format!(
                    "{} inside `{}`, reachable from bit-identity surface {}",
                    source.what,
                    item.name,
                    view.path_display(&path)
                ),
                HINT,
            );
        }
    }
}

/// Collects the nondeterminism source sites of one file.
fn collect_sources(file: &crate::source::SourceFile) -> Vec<Source> {
    let text = &file.text;
    let mut sources: Vec<Source> = hash_iteration_sites(file)
        .into_iter()
        .map(|(offset, name)| Source {
            offset,
            what: format!("iteration over hash-ordered `{name}`"),
        })
        .collect();
    // Thread spawns: completion order is scheduler-dependent. Both the
    // free `thread::spawn` and the scoped `scope.spawn(..)` forms count.
    for offset in word_occurrences(text, "spawn") {
        let method_form = offset > 0 && text.as_bytes()[offset - 1] == b'.';
        let path_form = text[..offset].ends_with("thread::");
        let called = text[offset + "spawn".len()..].starts_with('(');
        if (method_form || path_form) && called {
            sources.push(Source {
                offset,
                what: "thread spawn (completion order is nondeterministic)".to_string(),
            });
        }
    }
    // Environment reads: `env::var*` — unstamped ambient input.
    for offset in word_occurrences(text, "env") {
        if text[offset..].starts_with("env::var") {
            sources.push(Source {
                offset,
                what: "environment read (`env::var`)".to_string(),
            });
        }
    }
    sources.sort_by_key(|s| s.offset);
    sources
}
