//! Source model for the lint pass, built on the hand-written lexer.
//!
//! Each file is lexed (`crate::lexer`) and then *sanitized* from the
//! token stream: comment tokens and the interiors of string/char literals
//! are replaced by spaces, byte for byte, so the sanitized text has
//! exactly the raw text's length, line structure and token positions —
//! and every rule can match code patterns by position without ever being
//! fooled by a string literal or a doc comment. Because the delimiters
//! come from real tokens (not scans), raw strings, nested block comments
//! and the lifetime/char ambiguity are handled exactly.
//!
//! Allow pragmas are recognised **only inside plain (non-doc) comment
//! tokens**: a pragma spelled inside a string literal is code, and one
//! inside a doc comment is documentation — neither suppresses anything.
//! A doc-comment pragma that *looks* live (well-formed, every rule
//! registered) is reported by the `lint-pragma` meta-rule so it cannot
//! silently rot. `#[cfg(test)]` / `#[test]` regions are bracketed so
//! rules can skip test code.

#![expect(
    clippy::indexing_slicing,
    reason = "every index and slice offset in this file derives from a scan over the very buffer being indexed; the sanitizer's byte-for-byte contract keeps raw and sanitized offsets interchangeable"
)]

use std::cell::Cell;

use crate::lexer::{lex, Token, TokenKind};

/// A lint-allow pragma extracted from a comment token.
///
/// Grammar (inside any plain `//` or `/* */` comment):
///
/// ```text
/// uprob-lint: allow(rule-a, rule-b) -- <reason>
/// uprob-lint: allow-file(rule-a) -- <reason>
/// ```
///
/// A plain `allow` guards the line it shares with code, or — when the
/// comment stands on its own line — the next line that contains code.
/// `allow-file` guards the whole file. The reason after ` -- ` is
/// mandatory; a missing or empty reason is itself a finding, as is a rule
/// id that no registered rule carries and a pragma that suppresses
/// nothing.
#[derive(Debug)]
pub struct Pragma {
    /// 1-based line of the comment itself.
    pub line: usize,
    /// 1-based line the pragma guards (`None` for file-level pragmas).
    pub target_line: Option<usize>,
    /// Rule ids listed inside `allow(...)`.
    pub rules: Vec<String>,
    /// The justification after ` -- ` (empty when missing).
    pub reason: String,
    /// Whether this is an `allow-file` pragma.
    pub file_level: bool,
    /// Set once any listed rule is actually suppressed by this pragma.
    pub used: Cell<bool>,
    /// Whether the pragma text parsed as well-formed.
    pub well_formed: bool,
}

/// One analysed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub rel_path: String,
    /// Sanitized text: comments and literal contents blanked, same length
    /// and line structure as the raw file.
    pub text: String,
    /// The token stream the sanitized text was derived from (spans are
    /// valid in both the raw and the sanitized text).
    pub tokens: Vec<Token>,
    /// Byte offset of the start of each (1-based) line.
    line_starts: Vec<usize>,
    /// Allow pragmas harvested from plain comment tokens.
    pub pragmas: Vec<Pragma>,
    /// 1-based lines of doc-comment pragmas that parse as live pragmas
    /// (well-formed, all rules registered) but are inert by position.
    pub inert_doc_pragmas: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items or `#[test]` functions.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and sanitizes `raw`, then computes pragmas, line table and
    /// test regions.
    pub fn parse(rel_path: &str, raw: &str) -> SourceFile {
        let tokens = lex(raw);
        let (text, comments) = sanitize(raw, &tokens);
        let line_starts = index_lines(&text);
        let mut file = SourceFile {
            rel_path: rel_path.to_string(),
            text,
            tokens,
            line_starts,
            pragmas: Vec::new(),
            inert_doc_pragmas: Vec::new(),
            test_regions: Vec::new(),
        };
        for comment in &comments {
            if comment.doc {
                file.inert_doc_pragmas
                    .extend(live_doc_pragma_lines(comment));
            } else if let Some(pragma) = parse_pragma(comment, &file) {
                file.pragmas.push(pragma);
            }
        }
        file.test_regions = find_test_regions(&file.text);
        file
    }

    /// 1-based (line, column) of a byte offset.
    pub fn position(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.position(offset).0
    }

    /// Byte range of a 1-based line (start inclusive, end exclusive).
    pub fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.text.len());
        (start, end)
    }

    /// Whether the offset falls inside a `#[cfg(test)]` / `#[test]` region.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| (start..end).contains(&offset))
    }

    /// Whether `rule` is allowed at `offset` by a pragma; marks the pragma
    /// used. Malformed pragmas never suppress anything.
    pub fn allowed(&self, rule: &str, offset: usize) -> bool {
        let line = self.line_of(offset);
        for pragma in &self.pragmas {
            if !pragma.well_formed || pragma.reason.is_empty() {
                continue;
            }
            if !pragma.rules.iter().any(|r| r == rule) {
                continue;
            }
            if pragma.file_level || pragma.target_line == Some(line) {
                pragma.used.set(true);
                return true;
            }
        }
        false
    }

    /// The first line (1-based) at or after `line` that contains code in
    /// the sanitized text, if any.
    fn next_code_line(&self, line: usize) -> Option<usize> {
        (line..=self.line_starts.len()).find(|&candidate| {
            let (start, end) = self.line_span(candidate);
            !self.text[start..end].trim().is_empty()
        })
    }
}

/// A comment captured during sanitization (content without delimiters).
struct Comment {
    /// 1-based line the comment starts on.
    line: usize,
    /// Whether any code precedes the comment on its first line.
    trailing: bool,
    /// Whether this is a doc comment (`///`, `//!`, `/**`, `/*!`).
    doc: bool,
    /// The comment text (delimiters stripped).
    content: String,
}

/// Builds the sanitized text from the token stream: comments fully
/// blanked, literal interiors blanked with delimiters kept, everything
/// else copied verbatim. Returns the sanitized text (same byte length as
/// `raw`) and the captured comments.
fn sanitize(raw: &str, tokens: &[Token]) -> (String, Vec<Comment>) {
    let mut out = Vec::with_capacity(raw.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_had_code = false;

    // Pushes a byte span as blanks, newlines preserved.
    fn blank(out: &mut Vec<u8>, text: &str) {
        for &b in text.as_bytes() {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    }

    for token in tokens {
        let text = token.text(raw);
        match token.kind {
            TokenKind::Whitespace => out.extend_from_slice(text.as_bytes()),
            TokenKind::LineComment { doc } => {
                comments.push(Comment {
                    line,
                    trailing: line_had_code,
                    doc,
                    content: text
                        .strip_prefix("//")
                        .map(|t| if doc { t.get(1..).unwrap_or("") } else { t })
                        .unwrap_or("")
                        .to_string(),
                });
                blank(&mut out, text);
            }
            TokenKind::BlockComment { doc, terminated } => {
                let inner = text.strip_prefix("/*").unwrap_or(text);
                let inner = if terminated {
                    inner.strip_suffix("*/").unwrap_or(inner)
                } else {
                    inner
                };
                let inner = if doc {
                    inner.get(1..).unwrap_or("")
                } else {
                    inner
                };
                comments.push(Comment {
                    line,
                    trailing: line_had_code,
                    doc,
                    content: inner.to_string(),
                });
                blank(&mut out, text);
            }
            TokenKind::Str { terminated } => {
                // Keep the prefix up to and including the opening quote and
                // (when present) the closing quote; blank the interior.
                let open = text.find('"').map_or(text.len(), |p| p + 1);
                out.extend_from_slice(&text.as_bytes()[..open]);
                let close = if terminated {
                    text.len() - 1
                } else {
                    text.len()
                };
                blank(&mut out, &text[open..close]);
                if terminated {
                    out.push(b'"');
                }
                line_had_code = true;
            }
            TokenKind::RawStr { hashes, terminated } => {
                let open = text.find('"').map_or(text.len(), |p| p + 1);
                out.extend_from_slice(&text.as_bytes()[..open]);
                let close = if terminated {
                    text.len() - (1 + hashes)
                } else {
                    text.len()
                };
                blank(&mut out, &text[open..close.max(open)]);
                if terminated {
                    out.extend_from_slice(&text.as_bytes()[close.max(open)..]);
                }
                line_had_code = true;
            }
            TokenKind::Char => {
                let open = text.find('\'').map_or(text.len(), |p| p + 1);
                out.extend_from_slice(&text.as_bytes()[..open]);
                let terminated = text.len() > open && text.ends_with('\'');
                let close = if terminated {
                    text.len() - 1
                } else {
                    text.len()
                };
                blank(&mut out, &text[open..close.max(open)]);
                if terminated {
                    out.push(b'\'');
                }
                line_had_code = true;
            }
            TokenKind::Ident | TokenKind::Lifetime | TokenKind::Number | TokenKind::Punct => {
                out.extend_from_slice(text.as_bytes());
                line_had_code = true;
            }
        }
        // Advance the line counter and reset the had-code flag per line.
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        if newlines > 0 {
            line += newlines;
            line_had_code = false;
            if token.kind != TokenKind::Whitespace && !text.ends_with('\n') && !token.is_comment() {
                // A multi-line literal continues as code on its last line.
                line_had_code = true;
            }
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "blanking only ever replaces whole characters with ASCII spaces, and delimiters are copied from the original UTF-8 text"
    )]
    let text = String::from_utf8(out).expect("sanitizer preserves UTF-8 structure");
    (text, comments)
}

fn index_lines(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Parses a `uprob-lint:` pragma out of one plain comment, if present.
fn parse_pragma(comment: &Comment, file: &SourceFile) -> Option<Pragma> {
    let (file_level, rules, reason, well_formed) = parse_pragma_text(&comment.content)?;
    let target_line = if file_level {
        None
    } else if comment.trailing {
        Some(comment.line)
    } else {
        file.next_code_line(comment.line + 1)
    };
    Some(Pragma {
        line: comment.line,
        target_line,
        rules,
        reason,
        file_level,
        used: Cell::new(false),
        well_formed,
    })
}

/// The pragma grammar, shared between live-comment parsing and inert
/// doc-comment detection: `(file_level, rules, reason, well_formed)`.
fn parse_pragma_text(content: &str) -> Option<(bool, Vec<String>, String, bool)> {
    let content = content.trim();
    let rest = content.strip_prefix("uprob-lint:")?.trim_start();
    let (file_level, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow") {
        (false, r)
    } else {
        return Some((false, Vec::new(), String::new(), false));
    };
    let rest = rest.trim_start();
    let mut well_formed = true;
    let (rules, tail) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
        Some((inside, tail)) => {
            let rules: Vec<String> = inside
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                well_formed = false;
            }
            (rules, tail)
        }
        None => {
            well_formed = false;
            (Vec::new(), rest)
        }
    };
    let reason = match tail.trim_start().strip_prefix("--") {
        Some(r) => r.trim().to_string(),
        None => String::new(),
    };
    Some((file_level, rules, reason, well_formed))
}

/// For a doc comment: the 1-based lines of content lines that parse as a
/// live pragma (well-formed, nonempty reason, every rule registered).
/// Those are inert by position and must be surfaced, not silently
/// ignored; doc prose *mentioning* the grammar (unregistered example ids)
/// stays unreported.
fn live_doc_pragma_lines(comment: &Comment) -> Vec<usize> {
    let mut lines = Vec::new();
    for (i, content_line) in comment.content.lines().enumerate() {
        // Multi-line block docs often prefix lines with `*`.
        let content_line = content_line.trim_start().trim_start_matches('*');
        if let Some((_, rules, reason, well_formed)) = parse_pragma_text(content_line) {
            if well_formed
                && !reason.is_empty()
                && !rules.is_empty()
                && rules.iter().all(|r| crate::rules::is_registered(r))
            {
                lines.push(comment.line + i);
            }
        }
    }
    lines
}

/// Finds the byte ranges of test-only code: any item annotated
/// `#[cfg(test)]` (or any `cfg` list mentioning `test`) and any
/// `#[test]`-annotated function, covering attribute through closing brace.
fn find_test_regions(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        if bytes.get(j) == Some(&b'!') {
            // Inner attribute: applies to the enclosing item; out of scope.
            i = j + 1;
            continue;
        }
        if bytes.get(j) != Some(&b'[') {
            i += 1;
            continue;
        }
        let Some(attr_end) = matching(bytes, j, b'[', b']') else {
            break;
        };
        let attr = &text[j + 1..attr_end];
        let is_test_attr = attr.trim() == "test"
            || (attr.trim_start().starts_with("cfg") && mentions_word(attr, "test"));
        j = attr_end + 1;
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip further attributes and find the item's opening brace (or a
        // terminating semicolon for brace-less items).
        let mut k = j;
        loop {
            while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
            if bytes.get(k) == Some(&b'#') && bytes.get(k + 1) == Some(&b'[') {
                match matching(bytes, k + 1, b'[', b']') {
                    Some(end) => k = end + 1,
                    None => break,
                }
                continue;
            }
            break;
        }
        let mut depth_paren = 0i32;
        let mut body_open = None;
        while k < bytes.len() {
            match bytes[k] {
                b'(' | b'<' => depth_paren += 1,
                b')' | b'>' => depth_paren -= 1,
                b'{' if depth_paren <= 0 => {
                    body_open = Some(k);
                    break;
                }
                b';' if depth_paren <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        match body_open.and_then(|open| matching(bytes, open, b'{', b'}')) {
            Some(close) => {
                regions.push((attr_start, close + 1));
                i = close + 1;
            }
            None => i = k + 1,
        }
    }
    regions
}

/// Offset of the brace/bracket matching the opener at `open`.
fn matching(bytes: &[u8], open: usize, opener: u8, closer: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == opener {
            depth += 1;
        } else if b == closer {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// True when `word` occurs in `text` with identifier boundaries.
fn mentions_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True for bytes that can continue an identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_blanks_comments_and_strings_preserving_offsets() {
        let raw = "let x = \"a.unwrap()\"; // c.unwrap()\nlet y = 'z';";
        let file = SourceFile::parse("f.rs", raw);
        assert_eq!(file.text.len(), raw.len());
        assert!(!file.text.contains("unwrap"));
        assert!(file.text.contains("let y"));
        // The char literal body is blanked, the quotes remain.
        assert!(file.text.contains("' '"));
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let raw = "fn f<'a>(s: &'a str) { let r = r#\"x.unwrap()\"#; let c = 'q'; }";
        let file = SourceFile::parse("f.rs", raw);
        assert!(!file.text.contains("unwrap"));
        assert!(file.text.contains("<'a>"));
        assert!(file.text.contains("&'a str"));
    }

    #[test]
    fn pragmas_bind_to_their_line_or_the_next() {
        let raw = "\
let a = 1; // uprob-lint: allow(num-raw-accum) -- same line
// uprob-lint: allow(det-taint) -- next line
let b = 2;
// uprob-lint: allow-file(det-hash-iter) -- whole file
";
        let file = SourceFile::parse("f.rs", raw);
        assert_eq!(file.pragmas.len(), 3);
        assert_eq!(file.pragmas[0].target_line, Some(1));
        assert_eq!(file.pragmas[1].target_line, Some(3));
        assert!(file.pragmas[2].file_level);
        assert!(file.allowed("num-raw-accum", 0));
        let (line3, _) = file.line_span(3);
        assert!(file.allowed("det-taint", line3));
        assert!(file.allowed("det-hash-iter", line3));
        assert!(!file.allowed("lock-order-graph", line3));
    }

    #[test]
    fn pragma_without_reason_is_malformed_and_suppresses_nothing() {
        let raw = "let a = 1; // uprob-lint: allow(num-raw-accum)\n";
        let file = SourceFile::parse("f.rs", raw);
        assert_eq!(file.pragmas.len(), 1);
        assert!(file.pragmas[0].reason.is_empty());
        assert!(!file.allowed("num-raw-accum", 0));
    }

    #[test]
    fn pragma_inside_a_string_literal_is_inert() {
        let raw =
            "let s = \"uprob-lint: allow(num-raw-accum) -- smuggled\";\nlet x = opt.unwrap();\n";
        let file = SourceFile::parse("f.rs", raw);
        assert!(file.pragmas.is_empty());
        assert!(!file.allowed("num-raw-accum", 0));
        let line2 = file.line_span(2).0;
        assert!(!file.allowed("num-raw-accum", line2));
    }

    #[test]
    fn pragma_inside_a_doc_comment_is_inert_and_reported() {
        let raw = "\
/// uprob-lint: allow(num-raw-accum) -- smuggled via doc
fn f() {}
";
        let file = SourceFile::parse("f.rs", raw);
        assert!(file.pragmas.is_empty());
        assert!(!file.allowed("num-raw-accum", 0));
        assert_eq!(file.inert_doc_pragmas, vec![1]);
    }

    #[test]
    fn doc_prose_with_unregistered_example_ids_is_not_reported() {
        let raw = "\
/// uprob-lint: allow(rule-a, rule-b) -- <reason>
fn f() {}
";
        let file = SourceFile::parse("f.rs", raw);
        assert!(file.inert_doc_pragmas.is_empty());
    }

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let raw = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
#[test]
fn standalone() { body(); }
fn live_again() {}
";
        let file = SourceFile::parse("f.rs", raw);
        let helper = raw.find("helper").unwrap();
        let body = raw.find("body").unwrap();
        let live = raw.find("live_again").unwrap();
        assert!(file.in_test_code(helper));
        assert!(file.in_test_code(body));
        assert!(!file.in_test_code(live));
        assert!(!file.in_test_code(0));
    }

    #[test]
    fn cfg_all_test_counts_as_test_region() {
        let raw = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn inner() {} }\nfn out() {}";
        let file = SourceFile::parse("f.rs", raw);
        assert!(file.in_test_code(raw.find("inner").unwrap()));
        assert!(!file.in_test_code(raw.find("out").unwrap()));
    }

    #[test]
    fn positions_are_one_based() {
        let file = SourceFile::parse("f.rs", "ab\ncd\n");
        assert_eq!(file.position(0), (1, 1));
        assert_eq!(file.position(3), (2, 1));
        assert_eq!(file.position(4), (2, 2));
    }

    #[test]
    fn block_comment_pragma_still_works() {
        let raw = "let a = x.unwrap(); /* uprob-lint: allow(num-raw-accum) -- block form */\n";
        let file = SourceFile::parse("f.rs", raw);
        assert_eq!(file.pragmas.len(), 1);
        assert!(file.allowed("num-raw-accum", 0));
    }
}
