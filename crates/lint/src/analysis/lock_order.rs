//! Lock-order analysis on the call graph.
//!
//! Builds the crate-wide *acquisition graph*: an edge A → B means some
//! function acquires lock B while a guard on lock A is still live —
//! directly in the same body (a path of zero calls) or through any chain
//! of intra-crate calls. Guard lifetimes are modeled lexically (`let`
//! guard to end of block, temporary to end of statement with the Rust
//! 2021 scrutinee extension); lock identity comes from the per-file
//! manifests in the lint config, with `.lock()`, and RwLock's `.read()` /
//! `.write()` (empty-argument calls only, which distinguishes them from
//! `io::Read`/`io::Write`), all counting as acquisitions. A receiver the
//! file's manifest does not list is `lock-undeclared`.
//!
//! `lock-order-graph` findings: every edge that runs *backward* through a
//! declared manifest order, or re-acquires the held lock, is reported at
//! the inner acquisition (zero calls) or at the call made under the
//! guard, with the call path down to the acquiring function. Pairs of
//! locks from different manifests that are mutually reachable form a
//! cycle no declared order rules out; those are reported once per pair.

#![expect(
    clippy::indexing_slicing,
    reason = "every index is a call-graph node id or call index bounded by the vectors built over graph.nodes; offsets come from scans of the same text"
)]

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::check::{emit, ident_ending_at, method_calls, next_nonspace, prev_nonspace, Finding};
use crate::config::{Family, LockManifest};
use crate::source::SourceFile;

use super::CrateView;

/// One lock acquisition site with its modeled guard lifetime.
#[derive(Debug)]
pub struct Acquisition {
    /// Lock name resolved against the manifest.
    pub name: String,
    /// Byte offset of the `.lock`/`.read`/`.write` call's dot.
    pub offset: usize,
    /// Offset past which the guard is provably dropped.
    pub scope_end: usize,
    /// Whether the guard is a named `let` binding (block-scoped).
    pub named_guard: bool,
}

/// How a function's summary came to contain a lock.
#[derive(Clone)]
enum Step {
    /// Acquired directly in this function's body.
    Direct,
    /// Acquired by the callee node.
    Via(usize),
}

/// One acquisition-graph edge's provenance.
struct EdgeInfo {
    /// Node holding the outer lock when the inner acquisition happens.
    holder: usize,
    /// Anchor offset in the holder's file: the inner acquisition itself,
    /// or the call made under the guard.
    anchor: usize,
    /// Call chain from the holder's callee down to the acquiring node
    /// (empty when the holder acquires the inner lock itself).
    chain: Vec<usize>,
}

/// Checks the crate's acquisition graph against the declared manifests.
pub fn check(view: &CrateView<'_>, findings: &mut Vec<Finding>) {
    let graph = view.graph;
    let direct = direct_acquisitions(view, findings);
    if direct.iter().all(Vec::is_empty) {
        return;
    }
    // Transitive lock summaries: which locks can a call to node n take?
    let mut summary: Vec<BTreeMap<String, Step>> = direct
        .iter()
        .map(|acqs| {
            acqs.iter()
                .map(|a| (a.name.clone(), Step::Direct))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            for ci in 0..graph.calls[n].len() {
                let callee = graph.calls[n][ci].callee;
                let inherited: Vec<String> = summary[callee].keys().cloned().collect();
                for lock in inherited {
                    if let Entry::Vacant(slot) = summary[n].entry(lock) {
                        slot.insert(Step::Via(callee));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Acquisition-graph edges, every site with its provenance.
    let mut edges: BTreeMap<(String, String), Vec<EdgeInfo>> = BTreeMap::new();
    for (n, acqs) in direct.iter().enumerate() {
        for outer in acqs {
            let held = |offset: usize| offset > outer.offset && offset < outer.scope_end;
            for inner in acqs.iter().filter(|a| held(a.offset)) {
                edges
                    .entry((outer.name.clone(), inner.name.clone()))
                    .or_default()
                    .push(EdgeInfo {
                        holder: n,
                        anchor: inner.offset,
                        chain: Vec::new(),
                    });
            }
            for call in graph.calls[n].iter().filter(|c| held(c.offset)) {
                for lock in summary[call.callee].keys() {
                    edges
                        .entry((outer.name.clone(), lock.clone()))
                        .or_default()
                        .push(EdgeInfo {
                            holder: n,
                            anchor: call.offset,
                            chain: resolve_chain(&summary, call.callee, lock),
                        });
                }
            }
        }
    }
    let shared_manifest = |outer: &str, inner: &str| {
        view.config
            .lock_manifests
            .iter()
            .find(|m| m.order.contains(&outer) && m.order.contains(&inner))
    };
    // Backward and re-entrant edges within one declared order.
    for ((outer, inner), infos) in &edges {
        let Some(manifest) = shared_manifest(outer, inner) else {
            continue;
        };
        let what = if outer == inner {
            format!("`{inner}` re-acquired while already held (self-deadlock with std Mutex)")
        } else if position(manifest.order, inner) < position(manifest.order, outer) {
            format!(
                "`{inner}` acquired while `{outer}` is held, violating the declared order {:?}",
                manifest.order
            )
        } else {
            continue;
        };
        for info in infos {
            report(view, findings, info, format!("{what}{}", via(view, info)));
        }
    }
    // Cross-manifest cycles: mutually reachable lock pairs no single
    // declared order constrains.
    let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (outer, inner) in edges.keys() {
        adjacency.entry(outer).or_default().insert(inner);
    }
    let mut reported: BTreeSet<(&str, &str)> = BTreeSet::new();
    for ((outer, inner), infos) in &edges {
        if shared_manifest(outer, inner).is_some() || !reaches(&adjacency, inner, outer) {
            continue;
        }
        let key = (outer.min(inner).as_str(), outer.max(inner).as_str());
        let (true, Some(info)) = (reported.insert(key), infos.first()) else {
            continue;
        };
        report(
            view,
            findings,
            info,
            format!(
                "lock acquisition cycle between `{outer}` and `{inner}` (no shared declared order constrains them); `{inner}` taken under `{outer}`{}",
                via(view, info)
            ),
        );
    }
}

/// Emits one lock-order-graph finding anchored in the holder's file.
fn report(view: &CrateView<'_>, findings: &mut Vec<Finding>, info: &EdgeInfo, message: String) {
    let (file, _) = view.item(info.holder);
    emit(
        file,
        findings,
        "lock-order-graph",
        info.anchor,
        message,
        "acquire locks in declared order along every call path, or drop the outer guard first",
    );
}

/// The `; call path a → b` message suffix of an edge that crosses calls.
fn via(view: &CrateView<'_>, info: &EdgeInfo) -> String {
    if info.chain.is_empty() {
        return String::new();
    }
    let mut nodes = vec![info.holder];
    nodes.extend(&info.chain);
    format!("; call path {}", view.path_display(&nodes))
}

/// The callee chain from `node` down to the function that directly
/// acquires `lock`, per the summary provenance.
fn resolve_chain(summary: &[BTreeMap<String, Step>], node: usize, lock: &str) -> Vec<usize> {
    let mut chain = vec![node];
    let mut cur = node;
    while let Some(Step::Via(next)) = summary[cur].get(lock) {
        if chain.contains(next) {
            break; // recursive cycle in the call graph: chain is complete enough
        }
        chain.push(*next);
        cur = *next;
    }
    chain
}

/// Index of `lock` in a declared order (present by construction).
fn position(order: &[&str], lock: &str) -> usize {
    order.iter().position(|&n| n == lock).unwrap_or(usize::MAX)
}

/// Whether `from` reaches `to` in the lock adjacency graph.
fn reaches(adjacency: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if !seen.insert(cur) {
            continue;
        }
        if let Some(nexts) = adjacency.get(cur) {
            stack.extend(nexts.iter().copied());
        }
    }
    false
}

/// Every acquisition of the crate's lock-family files, attributed to its
/// innermost function.
fn direct_acquisitions(view: &CrateView<'_>, findings: &mut Vec<Finding>) -> Vec<Vec<Acquisition>> {
    let graph = view.graph;
    let mut direct: Vec<Vec<Acquisition>> = (0..graph.nodes.len()).map(|_| Vec::new()).collect();
    for (fi, file) in view.files.iter().enumerate() {
        if !view
            .config
            .families(&file.rel_path)
            .any(|f| f == Family::Locks)
        {
            continue;
        }
        let manifest = view.config.lock_manifest(&file.rel_path);
        for acquisition in collect_acquisitions(file, manifest, findings) {
            if let Some(node) = graph.innermost(view.asts, fi, acquisition.offset) {
                direct[node].push(acquisition);
            }
        }
    }
    direct
}

/// Extracts every acquisition site of the file in source order —
/// `.lock()` everywhere, RwLock `.read()` / `.write()` in files that
/// declare an order — resolving names against the manifest (a receiver it
/// does not list is reported as `lock-undeclared`) and modeling guard
/// scopes.
pub fn collect_acquisitions(
    file: &SourceFile,
    manifest: Option<&LockManifest>,
    findings: &mut Vec<Finding>,
) -> Vec<Acquisition> {
    let text = &file.text;
    let blocks = brace_pairs(text.as_bytes());
    let mut out = Vec::new();
    for (method, rwlock) in [(".lock", false), (".read", true), (".write", true)] {
        for offset in method_calls(text, &method[1..]) {
            if file.in_test_code(offset) {
                continue;
            }
            // `.read(buf)` etc. is an io trait, not a lock; without a
            // manifest there is nothing to tell an RwLock field by.
            if rwlock && (manifest.is_none() || !text[offset..].starts_with(&format!("{method}()")))
            {
                continue;
            }
            let Some(raw) = receiver_name(text, offset) else {
                continue;
            };
            let Some(name) = manifest.and_then(|m| declared_name(m, &raw)) else {
                let kind = if rwlock { "RwLock" } else { "lock" };
                let (message, hint) = match manifest {
                    Some(m) => (
                        format!(
                            "{kind} `{raw}` is not in the declared order {:?} for this file",
                            m.order
                        ),
                        "add the lock to this file's order in crates/lint/src/config.rs",
                    ),
                    None => (
                        format!("{kind} `{raw}` in a file with no declared lock order"),
                        "declare this file's lock-acquisition order in crates/lint/src/config.rs",
                    ),
                };
                emit(file, findings, "lock-undeclared", offset, message, hint);
                continue;
            };
            let (scope_end, named_guard) = guard_scope(text, offset, method, &blocks);
            out.push(Acquisition {
                name,
                offset,
                scope_end,
                named_guard,
            });
        }
    }
    out.sort_by_key(|a| a.offset);
    out
}

/// The manifest's name for a receiver: the receiver itself, or its plural
/// (iteration elements follow the `shard` → `shards` convention).
fn declared_name(manifest: &LockManifest, raw: &str) -> Option<String> {
    [raw.to_string(), format!("{raw}s")]
        .into_iter()
        .find(|name| manifest.order.contains(&name.as_str()))
}

/// The field/binding name the acquisition at `call` is invoked on,
/// skipping one trailing index chain (`shards[i].lock()` resolves to
/// `shards`).
fn receiver_name(text: &str, call: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut end = call; // points at the `.` of `.lock(`
    if let Some((pos, b)) = prev_nonspace(text, end) {
        if b == b']' {
            // skip the [...] chain
            let mut depth = 0i32;
            let mut i = pos;
            loop {
                match bytes[i] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            end = i;
                            break;
                        }
                    }
                    _ => {}
                }
                i = i.checked_sub(1)?;
            }
        } else {
            end = pos + 1;
        }
    }
    ident_ending_at(text, end).map(str::to_string)
}

/// All `{`..`}` pairs of the file.
fn brace_pairs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut pairs = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'{' {
            stack.push(i);
        } else if b == b'}' {
            if let Some(open) = stack.pop() {
                pairs.push((open, i));
            }
        }
    }
    pairs
}

/// Skips a balanced `(..)` group starting at `open`; returns the offset
/// just past the closer.
fn skip_parens(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'(' {
            depth += 1;
        } else if b == b')' {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    bytes.len()
}

/// Models the guard scope of the `method` (`.lock`, `.read`, `.write`)
/// call at `call`, returning `(scope end, named guard)`:
///
/// * a `let guard = ..lock()[.expect(..) | .unwrap_or_else(..)];` binding
///   lives to the end of its enclosing block;
/// * any other use is a temporary living to the end of its statement — and
///   when the statement flows into a block before reaching `;` (if-let /
///   while-let / match scrutinees), to the end of that block (the Rust
///   2021 temporary-scope extension).
fn guard_scope(text: &str, call: usize, method: &str, blocks: &[(usize, usize)]) -> (usize, bool) {
    let bytes = text.as_bytes();
    // Where does the lock expression's chain end? Skip `.expect(..)`,
    // `.unwrap()` and the poison-tolerant `.unwrap_or_else(..)`, which
    // forward the guard.
    let mut i = skip_parens(bytes, call + method.len());
    loop {
        // rustfmt splits long chains across lines: skip whitespace before
        // testing for the next chained call.
        let next = next_nonspace(text, i).map_or(i, |(pos, _)| pos);
        if text[next..].starts_with(".expect(") {
            i = skip_parens(bytes, next + ".expect".len());
        } else if text[next..].starts_with(".unwrap(") {
            i = skip_parens(bytes, next + ".unwrap".len());
        } else if text[next..].starts_with(".unwrap_or_else(") {
            i = skip_parens(bytes, next + ".unwrap_or_else".len());
        } else {
            i = next;
            break;
        }
    }
    let chain_consumed = bytes.get(i) == Some(&b'.');
    // Statement head: is this a `let` guard?
    let stmt_start = (0..call)
        .rev()
        .find(|&p| matches!(bytes[p], b';' | b'{' | b'}'))
        .map_or(0, |p| p + 1);
    let head = text[stmt_start..call].trim_start();
    let is_let = head.starts_with("let ") || head.starts_with("let\n");
    if is_let && !chain_consumed {
        // Named guard: lives to the end of the enclosing block.
        let enclosing = blocks
            .iter()
            .filter(|&&(open, close)| open < call && call < close)
            .map(|&(open, close)| (close - open, close))
            .min();
        return (enclosing.map_or(bytes.len(), |(_, close)| close), true);
    }
    // Temporary: to the `;` ending the statement, or — when a block opens
    // first — to the end of that block (scrutinee extension).
    let mut depth = 0i32;
    let mut j = i;
    while j < bytes.len() {
        match bytes[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth <= 0 => return (j, false),
            b'{' if depth <= 0 => {
                let close = blocks
                    .iter()
                    .find(|&&(open, _)| open == j)
                    .map_or(bytes.len(), |&(_, close)| close);
                return (close, false);
            }
            _ => {}
        }
        j += 1;
    }
    (bytes.len(), false)
}
