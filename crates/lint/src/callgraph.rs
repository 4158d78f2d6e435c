//! The intra-crate call graph over item-level scopes.
//!
//! Nodes are the `fn` items of every file in one crate; edges are call
//! sites resolved conservatively from the token stream:
//!
//! * `self.method(..)` — resolved against the caller's self type;
//! * `Type::method(..)` / `Self::method(..)` — resolved through the
//!   file's use map to an impl of that type anywhere in the crate;
//! * `module::free_fn(..)` (lowercase qualifier) and bare `free_fn(..)`
//!   — resolved to free functions by name, preferring same-file
//!   candidates.
//!
//! Soundness limits, by design (documented in DESIGN.md): the graph is
//! intra-crate only, method calls on non-`self` receivers and trait
//! dispatch are not resolved, and `name::<T>(..)` turbofish calls are
//! missed. The analyses built on top treat missing edges as "callee does
//! nothing", so they under-approximate through those holes rather than
//! producing noise.

#![expect(
    clippy::indexing_slicing,
    reason = "indices come from enumerate()/position() scans and the node-numbering arithmetic below, all bounded by the vectors they index"
)]

use std::collections::BTreeMap;

use crate::ast::FileAst;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One resolved call site.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Callee node index.
    pub callee: usize,
    /// Byte offset of the callee name in the caller's file.
    pub offset: usize,
}

/// The call graph of one crate.
#[derive(Debug)]
pub struct CallGraph {
    /// Node → (file index, fn-item index), file-major order.
    pub nodes: Vec<(usize, usize)>,
    /// Outgoing call sites per node.
    pub calls: Vec<Vec<CallSite>>,
    /// First node index of each file.
    starts: Vec<usize>,
}

/// Bare identifiers that look like calls but are control keywords.
const CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "as", "in", "move", "let",
];

impl CallGraph {
    /// Builds the graph for one crate's files and their parsed scopes.
    pub fn build(files: &[SourceFile], asts: &[FileAst]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut starts = Vec::with_capacity(files.len());
        for (fi, ast) in asts.iter().enumerate() {
            starts.push(nodes.len());
            for ii in 0..ast.fns.len() {
                nodes.push((fi, ii));
            }
        }
        // Resolution indices over the whole crate.
        let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (node, &(fi, ii)) in nodes.iter().enumerate() {
            let item = &asts[fi].fns[ii];
            match &item.self_type {
                Some(t) => methods.entry((t, &item.name)).or_default().push(node),
                None => free.entry(&item.name).or_default().push(node),
            }
        }
        let mut graph = CallGraph {
            calls: vec![Vec::new(); nodes.len()],
            nodes,
            starts,
        };
        for (fi, (file, ast)) in files.iter().zip(asts).enumerate() {
            for (name_tok, shape) in call_sites(file) {
                let Some(caller) = graph.innermost(asts, fi, name_tok.start) else {
                    continue; // call outside any fn body (const init, ...)
                };
                let name = name_tok.text(&file.text);
                let caller_self = asts[graph.nodes[caller].0].fns[graph.nodes[caller].1]
                    .self_type
                    .clone();
                let callees: Vec<usize> = match shape {
                    CallShape::SelfMethod => caller_self
                        .as_deref()
                        .and_then(|t| methods.get(&(t, name)))
                        .cloned()
                        .unwrap_or_default(),
                    CallShape::Qualified(seg) => {
                        let seg = if seg == "Self" {
                            caller_self.clone().unwrap_or(seg)
                        } else {
                            ast.resolve_segment(&seg).to_string()
                        };
                        match methods.get(&(seg.as_str(), name)) {
                            Some(found) => found.clone(),
                            // A lowercase qualifier is a module path: fall
                            // back to crate-wide free-fn resolution.
                            None if seg.starts_with(|c: char| c.is_ascii_lowercase()) => {
                                prefer_same_file(&graph, free.get(name), fi)
                            }
                            None => Vec::new(),
                        }
                    }
                    CallShape::Bare => prefer_same_file(&graph, free.get(name), fi),
                };
                for callee in callees {
                    if callee != caller {
                        graph.calls[caller].push(CallSite {
                            callee,
                            offset: name_tok.start,
                        });
                    }
                }
            }
        }
        graph
    }

    /// The node whose body most tightly encloses `offset` in file `fi`.
    pub fn innermost(&self, asts: &[FileAst], fi: usize, offset: usize) -> Option<usize> {
        let ast = &asts[fi];
        let mut best: Option<(usize, usize)> = None; // (span length, node)
        for (ii, item) in ast.fns.iter().enumerate() {
            if let Some((start, end)) = item.body {
                if (start..end).contains(&offset) {
                    let len = end - start;
                    if best.is_none_or(|(blen, _)| len < blen) {
                        best = Some((len, self.starts[fi] + ii));
                    }
                }
            }
        }
        best.map(|(_, node)| node)
    }

    /// The qualified name of a node.
    pub fn qual<'a>(&self, asts: &'a [FileAst], node: usize) -> &'a str {
        let (fi, ii) = self.nodes[node];
        &asts[fi].fns[ii].qual
    }

    /// Forward BFS from `roots`: for every node, whether it is reachable,
    /// and the predecessor on one shortest path (None for roots).
    pub fn reach_with_parents(&self, roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut seen = vec![false; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(n) = queue.pop_front() {
            for call in &self.calls[n] {
                if !seen[call.callee] {
                    seen[call.callee] = true;
                    parent[call.callee] = Some(n);
                    queue.push_back(call.callee);
                }
            }
        }
        (seen, parent)
    }

    /// The path root → .. → `node` implied by BFS parents, as node ids.
    pub fn path_to(&self, parents: &[Option<usize>], node: usize) -> Vec<usize> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = parents[cur] {
            path.push(p);
            cur = p;
            if path.len() > self.nodes.len() {
                break; // defensive: parents always form a forest
            }
        }
        path.reverse();
        path
    }
}

/// Restricts free-fn candidates to the caller's file when possible.
fn prefer_same_file(graph: &CallGraph, candidates: Option<&Vec<usize>>, fi: usize) -> Vec<usize> {
    let Some(all) = candidates else {
        return Vec::new();
    };
    let local: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&n| graph.nodes[n].0 == fi)
        .collect();
    if local.is_empty() {
        all.clone()
    } else {
        local
    }
}

/// The shape of a call site.
enum CallShape {
    /// `self.name(`
    SelfMethod,
    /// `Seg::name(`
    Qualified(String),
    /// `name(` with no receiver/path
    Bare,
}

/// Scans a file's code tokens for call-looking sites: an identifier token
/// directly followed by `(`.
fn call_sites(file: &SourceFile) -> Vec<(Token, CallShape)> {
    let src = &file.text;
    let code: Vec<Token> = file
        .tokens
        .iter()
        .filter(|t| !t.is_trivia())
        .copied()
        .collect();
    let text = |i: usize| code.get(i).map_or("", |t: &Token| t.text(src));
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident || text(i + 1) != "(" {
            continue;
        }
        let name = code[i].text(src);
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let shape = if i >= 1 && text(i - 1) == "." {
            if i >= 2 && code[i - 2].kind == TokenKind::Ident && text(i - 2) == "self" {
                CallShape::SelfMethod
            } else {
                continue; // method on a non-self receiver: unresolved by design
            }
        } else if i >= 3 && text(i - 1) == ":" && text(i - 2) == ":" {
            if code[i - 3].kind == TokenKind::Ident {
                CallShape::Qualified(text(i - 3).to_string())
            } else {
                continue; // `::<` turbofish or `::{`: not a resolvable path head
            }
        } else if i >= 1 && text(i - 1) == "fn" {
            continue; // the declaration itself
        } else {
            CallShape::Bare
        };
        out.push((code[i], shape));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_items;

    fn crate_of(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<FileAst>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect();
        let asts: Vec<FileAst> = files.iter().map(parse_items).collect();
        let graph = CallGraph::build(&files, &asts);
        (files, asts, graph)
    }

    fn edges<'a>(graph: &CallGraph, asts: &'a [FileAst]) -> Vec<(&'a str, &'a str)> {
        let mut out = Vec::new();
        for (n, calls) in graph.calls.iter().enumerate() {
            for call in calls {
                out.push((graph.qual(asts, n), graph.qual(asts, call.callee)));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn self_method_and_free_fn_calls_resolve() {
        let (_, asts, graph) = crate_of(&[(
            "a.rs",
            "\
struct S;
impl S {
    fn a(&self) { self.b(); helper(); }
    fn b(&self) {}
}
fn helper() { leaf(); }
fn leaf() {}
",
        )]);
        assert_eq!(
            edges(&graph, &asts),
            [("S::a", "S::b"), ("S::a", "helper"), ("helper", "leaf")]
        );
    }

    #[test]
    fn qualified_calls_resolve_through_use_aliases_across_files() {
        let (_, asts, graph) = crate_of(&[
            (
                "a.rs",
                "\
use crate::b::{Shard as Sh, touch};
fn caller() { Sh::new(); touch(); crate::b::touch(); }
",
            ),
            (
                "b.rs",
                "\
pub struct Shard;
impl Shard { pub fn new() -> Shard { Shard } }
pub fn touch() {}
",
            ),
        ]);
        assert_eq!(
            edges(&graph, &asts),
            [("caller", "Shard::new"), ("caller", "touch")]
        );
    }

    #[test]
    fn non_self_receivers_are_not_resolved() {
        let (_, asts, graph) = crate_of(&[(
            "a.rs",
            "\
struct S;
impl S { fn close(&self) {} }
fn caller(s: &S) { s.close(); }
",
        )]);
        assert!(edges(&graph, &asts).is_empty());
    }

    #[test]
    fn nested_fn_call_sites_belong_to_the_nested_fn() {
        let (_, asts, graph) = crate_of(&[(
            "a.rs",
            "\
fn outer() {
    fn inner() { leaf(); }
    inner();
}
fn leaf() {}
",
        )]);
        assert_eq!(
            edges(&graph, &asts),
            [("inner", "leaf"), ("outer", "inner")]
        );
    }

    #[test]
    fn reachability_and_paths() {
        let (_, asts, graph) = crate_of(&[(
            "a.rs",
            "\
fn root() { mid(); }
fn mid() { leaf(); }
fn leaf() {}
fn stranded() {}
",
        )]);
        let root = (0..graph.nodes.len())
            .find(|&n| graph.qual(&asts, n) == "root")
            .unwrap();
        let leaf = (0..graph.nodes.len())
            .find(|&n| graph.qual(&asts, n) == "leaf")
            .unwrap();
        let stranded = (0..graph.nodes.len())
            .find(|&n| graph.qual(&asts, n) == "stranded")
            .unwrap();
        let (seen, parents) = graph.reach_with_parents(&[root]);
        assert!(seen[leaf]);
        assert!(!seen[stranded]);
        let path: Vec<&str> = graph
            .path_to(&parents, leaf)
            .into_iter()
            .map(|n| graph.qual(&asts, n))
            .collect();
        assert_eq!(path, ["root", "mid", "leaf"]);
    }

    #[test]
    fn same_name_free_fns_prefer_the_callers_file() {
        let (_, asts, graph) = crate_of(&[
            ("a.rs", "fn go() { helper(); }\nfn helper() {}\n"),
            ("b.rs", "fn helper() {}\n"),
        ]);
        let es = edges(&graph, &asts);
        assert_eq!(es, [("go", "helper")]);
        // The resolved helper is the one in a.rs.
        let go = (0..graph.nodes.len())
            .find(|&n| graph.qual(&asts, n) == "go")
            .unwrap();
        let callee = graph.calls[go][0].callee;
        assert_eq!(graph.nodes[callee].0, 0);
    }
}
