//! A lightweight item-level parser: per-file scopes for the structural
//! analyses.
//!
//! This is deliberately not a full Rust parser. It walks the sanitized
//! token stream of one file and recovers exactly the shapes the analyses
//! need: `fn` items with their body spans, the self type of the
//! `impl`/`trait` block each method sits in, and `use` declarations as an
//! alias → path map. Everything else (expressions, generics, patterns) is
//! skipped by brace/paren matching over tokens — which the lexer
//! guarantees can never be confused by strings, comments or lifetimes.

#![expect(
    clippy::indexing_slicing,
    reason = "every index derives from enumerate()/position() scans over the token vector being indexed, guarded by the loop bounds"
)]

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The bare function/method name.
    pub name: String,
    /// `Type::name` for methods (impl or trait block), `name` for free fns.
    pub qual: String,
    /// The self type of the enclosing impl/trait block, if any.
    pub self_type: Option<String>,
    /// Byte offset of the `fn` keyword (diagnostic anchor).
    pub decl_offset: usize,
    /// Interior byte span of the body block (between the braces),
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// The item-level scope of one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Every `fn` item, outermost first, nested fns included.
    pub fns: Vec<FnItem>,
    /// `use` aliases: last-segment-or-`as`-alias → full path.
    pub uses: Vec<(String, String)>,
}

impl FileAst {
    /// Resolves a single path segment through the use map: `Alias` maps to
    /// the last segment of its imported path (`use a::b::Real as Alias`
    /// resolves `Alias` to `Real`; plain imports resolve to themselves).
    pub fn resolve_segment<'a>(&'a self, segment: &'a str) -> &'a str {
        for (alias, path) in &self.uses {
            if alias == segment {
                return path.rsplit("::").next().unwrap_or(path);
            }
        }
        segment
    }
}

/// Context of one brace scope during the item walk.
#[derive(Debug, Clone)]
enum Ctx {
    /// An impl or trait block with the given self type.
    SelfScope(String),
    /// Any other brace (fn body, expression block, mod, struct, ...).
    Other,
}

/// Parses the item-level scope of a sanitized file.
pub fn parse_items(file: &SourceFile) -> FileAst {
    let src = &file.text;
    let code: Vec<Token> = file
        .tokens
        .iter()
        .filter(|t| !t.is_trivia())
        .copied()
        .collect();
    let mut ast = FileAst::default();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Ctx> = None;
    let mut i = 0usize;
    while i < code.len() {
        let tok = code[i];
        let text = tok.text(src);
        match (tok.kind, text) {
            (TokenKind::Punct, "{") => {
                stack.push(pending.take().unwrap_or(Ctx::Other));
                i += 1;
            }
            (TokenKind::Punct, "}") => {
                stack.pop();
                pending = None;
                i += 1;
            }
            (TokenKind::Ident, "impl") => {
                let (self_type, brace) = parse_impl_header(src, &code, i + 1);
                pending = self_type.map(Ctx::SelfScope);
                i = brace;
            }
            (TokenKind::Ident, "trait") => {
                // `trait Name [: bounds] {` — methods get Name as self type.
                let name = code
                    .get(i + 1)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text(src).to_string());
                pending = name.map(Ctx::SelfScope);
                i += 1;
            }
            (TokenKind::Ident, "fn") => {
                i = parse_fn(src, &code, i, &stack, &mut ast.fns);
            }
            (TokenKind::Ident, "use") => {
                i = parse_use(src, &code, i + 1, &mut ast.uses);
            }
            _ => i += 1,
        }
    }
    ast
}

/// Parses an impl header starting after the `impl` keyword. Returns the
/// self type (the last top-level path segment of the implemented type,
/// i.e. what follows `for` in a trait impl) and the index of the opening
/// brace token.
fn parse_impl_header(src: &str, code: &[Token], from: usize) -> (Option<String>, usize) {
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut i = from;
    while i < code.len() {
        let tok = code[i];
        let text = tok.text(src);
        match (tok.kind, text) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => {
                // Not part of an arrow `->`.
                let arrow = i > 0
                    && code[i - 1].kind == TokenKind::Punct
                    && code[i - 1].text(src) == "-"
                    && code[i - 1].end == tok.start;
                if !arrow {
                    angle -= 1;
                }
            }
            (TokenKind::Punct, "{") if angle <= 0 => return (last_ident, i),
            (TokenKind::Ident, "for") if angle <= 0 => last_ident = None,
            (TokenKind::Ident, "where") if angle <= 0 => {
                // The self type is settled; skip to the brace.
                let brace = (i..code.len())
                    .find(|&j| code[j].kind == TokenKind::Punct && code[j].text(src) == "{")
                    .unwrap_or(code.len());
                return (last_ident, brace);
            }
            (TokenKind::Ident, ident) if angle <= 0 && ident != "dyn" && ident != "mut" => {
                last_ident = Some(ident.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    (last_ident, code.len())
}

/// Parses a `fn` item whose `fn` keyword sits at token index `at`.
/// Records the item (unless this is a bare fn-pointer type) and returns
/// the index to resume scanning from — just past the signature, so the
/// walk descends into the body and finds nested items.
fn parse_fn(src: &str, code: &[Token], at: usize, stack: &[Ctx], out: &mut Vec<FnItem>) -> usize {
    let Some(name_tok) = code.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return at + 1; // `fn(` — a fn-pointer type, not an item
    };
    let name = name_tok.text(src).to_string();
    // Skip generics to the parameter list.
    let mut i = at + 2;
    let mut angle = 0i32;
    while i < code.len() {
        let text = code[i].text(src);
        match text {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" if angle <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    let Some(close) = matching_punct(src, code, i, "(", ")") else {
        return at + 1;
    };
    // Find the body opener or the declaration-terminating `;` at depth 0.
    let mut j = close + 1;
    let mut depth = 0i32;
    let mut body = None;
    while j < code.len() {
        let text = code[j].text(src);
        match text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => {
                let close_brace = matching_punct(src, code, j, "{", "}");
                let open_off = code[j].end;
                let close_off = close_brace.map_or(src.len(), |c| code[c].start);
                body = Some((open_off, close_off));
                break;
            }
            ";" if depth <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let self_type = match stack.last() {
        Some(Ctx::SelfScope(t)) => Some(t.clone()),
        _ => None,
    };
    let qual = match &self_type {
        Some(t) => format!("{t}::{name}"),
        None => name.clone(),
    };
    out.push(FnItem {
        name,
        qual,
        self_type,
        decl_offset: code[at].start,
        body,
    });
    // Resume just past the signature: the body brace (if any) is pushed as
    // Ctx::Other by the main walk, and nested fns are discovered inside.
    j
}

/// Index of the token matching the opener at `open` (`(`/`)`, `{`/`}`).
fn matching_punct(
    src: &str,
    code: &[Token],
    open: usize,
    opener: &str,
    closer: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in code.iter().enumerate().skip(open) {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        let text = tok.text(src);
        if text == opener {
            depth += 1;
        } else if text == closer {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Parses a `use` declaration starting after the `use` keyword; returns
/// the index just past the terminating `;`.
fn parse_use(src: &str, code: &[Token], from: usize, out: &mut Vec<(String, String)>) -> usize {
    let end = (from..code.len())
        .find(|&j| code[j].kind == TokenKind::Punct && code[j].text(src) == ";")
        .unwrap_or(code.len());
    let span: Vec<&str> = code[from..end].iter().map(|t| t.text(src)).collect();
    parse_use_tree(&span, "", out);
    end + 1
}

/// Recursively expands one use tree (token texts, no trivia) under the
/// accumulated path `prefix`, pushing alias → path pairs.
fn parse_use_tree(toks: &[&str], prefix: &str, out: &mut Vec<(String, String)>) {
    let mut path = prefix.to_string();
    let mut last_segment = String::new();
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i] {
            ":" => {} // path separator halves
            "{" => {
                // Split the group body on top-level commas and recurse.
                let mut depth = 1i32;
                let mut j = i + 1;
                let mut item_start = j;
                while j < toks.len() {
                    match toks[j] {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                if item_start < j {
                                    parse_use_tree(&toks[item_start..j], &path, out);
                                }
                                return;
                            }
                        }
                        "," if depth == 1 => {
                            if item_start < j {
                                parse_use_tree(&toks[item_start..j], &path, out);
                            }
                            item_start = j + 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return;
            }
            "as" => {
                // `path as Alias`
                if let Some(&alias) = toks.get(i + 1) {
                    out.push((alias.to_string(), path.clone()));
                }
                return;
            }
            "*" => return, // glob: nothing to map
            "self" => {
                // `{self, ...}`: the group prefix itself.
                if !last_segment.is_empty() || !path.is_empty() {
                    let seg = path.rsplit("::").next().unwrap_or("").to_string();
                    if !seg.is_empty() {
                        out.push((seg, path.clone()));
                    }
                }
                return;
            }
            seg => {
                if !path.is_empty() {
                    path.push_str("::");
                }
                path.push_str(seg);
                last_segment = seg.to_string();
            }
        }
        i += 1;
    }
    if !last_segment.is_empty() {
        out.push((last_segment, path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ast_of(src: &str) -> FileAst {
        parse_items(&SourceFile::parse("f.rs", src))
    }

    #[test]
    fn free_and_impl_fns_are_classified() {
        let src = "\
fn free(a: u32) -> u32 { a }
struct S { count: u64 }
impl S {
    fn get(&self) -> u64 { self.count }
    fn bump(&mut self) { self.count += 1; }
    fn mk() -> S { S { count: 0 } }
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"\") }
}
";
        let ast = ast_of(src);
        let quals: Vec<&str> = ast.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["free", "S::get", "S::bump", "S::mk", "S::fmt"]);
        assert!(ast.fns[0].self_type.is_none());
        assert!(ast.fns[1..]
            .iter()
            .all(|f| f.self_type.as_deref() == Some("S")));
    }

    #[test]
    fn nested_fns_are_recorded_with_their_own_bodies() {
        let src = "\
fn outer() {
    fn inner(x: u32) -> u32 { x }
    inner(1);
}
";
        let ast = ast_of(src);
        assert_eq!(ast.fns.len(), 2);
        let outer = &ast.fns[0];
        let inner = &ast.fns[1];
        assert_eq!(outer.qual, "outer");
        assert_eq!(inner.qual, "inner");
        assert!(inner.self_type.is_none(), "nested fn is not a method");
        let (ob, oe) = outer.body.unwrap();
        let (ib, ie) = inner.body.unwrap();
        assert!(ob < ib && ie < oe, "inner body nests inside outer body");
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let src = "\
impl<T: Clone> Wrapper<T> {
    fn map<U, F: Fn(&T) -> U>(&self, f: F) -> Vec<U>
    where
        U: Send,
    {
        self.items.iter().map(|x| f(x)).collect()
    }
}
";
        let ast = ast_of(src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].qual, "Wrapper::map");
        assert!(ast.fns[0].body.is_some());
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let src = "\
trait Fold {
    fn unit(&self) -> f64;
    fn fold(&self, xs: &[f64]) -> f64 { xs.iter().copied().fold(self.unit(), |a, b| a + b) }
}
";
        let ast = ast_of(src);
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].qual, "Fold::unit");
        assert!(ast.fns[0].body.is_none(), "bodyless trait method");
        assert!(ast.fns[1].body.is_some(), "default trait method has a body");
    }

    #[test]
    fn use_maps_cover_groups_aliases_and_self() {
        let src = "\
use std::collections::{BTreeMap, HashMap as Map};
use crate::cache::{self, Shard};
use crate::engine::Engine;
";
        let ast = ast_of(src);
        let get = |alias: &str| {
            ast.uses
                .iter()
                .find(|(a, _)| a == alias)
                .map(|(_, p)| p.as_str())
        };
        assert_eq!(get("BTreeMap"), Some("std::collections::BTreeMap"));
        assert_eq!(get("Map"), Some("std::collections::HashMap"));
        assert_eq!(get("Shard"), Some("crate::cache::Shard"));
        assert_eq!(get("cache"), Some("crate::cache"));
        assert_eq!(get("Engine"), Some("crate::engine::Engine"));
        assert_eq!(ast.resolve_segment("Map"), "HashMap");
        assert_eq!(ast.resolve_segment("Unknown"), "Unknown");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn takes(f: fn(u32) -> u32) -> u32 { f(1) }";
        let ast = ast_of(src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "takes");
    }
}
