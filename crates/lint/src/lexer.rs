//! A hand-written Rust lexer: the foundation of the structural pass.
//!
//! The lexer is *total*: every byte of the input lands in exactly one
//! token, in order, so the concatenation of token texts reproduces the
//! source byte for byte (the round-trip contract, enforced by a proptest
//! in `tests/lexer_roundtrip.rs`). Downstream layers rely on that: the
//! sanitizer blanks literal/comment interiors by token span, the item
//! parser walks code tokens by span, and every diagnostic offset is a
//! byte offset into the original file.
//!
//! The gnarly corners are handled for real rather than heuristically:
//! nested block comments (`/* /* */ */`), raw and raw-byte strings with
//! arbitrary hash fences (`r#".."#`, `br##".."##`), byte strings and byte
//! chars (`b"..."`, `b'\''`), and the lifetime-versus-char-literal
//! ambiguity (`'a` vs `'a'`). Multi-byte UTF-8 sequences are treated as
//! identifier-continuation bytes, so a token boundary can never split a
//! character.

#![expect(
    clippy::indexing_slicing,
    reason = "every index derives from the scan position over the very buffer being indexed and is bounds-checked by the loop conditions"
)]

/// The classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace bytes.
    Whitespace,
    /// `// ...` to end of line. `doc` marks `///` and `//!` forms
    /// (`////...` is a plain comment, matching rustc).
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`).
        doc: bool,
    },
    /// `/* ... */`, nesting-aware. `doc` marks `/**` and `/*!` (but not
    /// `/**/` or `/***`).
    BlockComment {
        /// Whether this is a doc comment (`/**` or `/*!`).
        doc: bool,
        /// Whether the closing `*/` was found before end of input.
        terminated: bool,
    },
    /// An identifier or keyword (the lexer does not distinguish them).
    Ident,
    /// A lifetime such as `'a` (leading quote included, no closing quote).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `'\''`, `b'q'`.
    Char,
    /// A string or byte-string literal: `"..."`, `b"..."`.
    Str {
        /// Whether the closing quote was found before end of input.
        terminated: bool,
    },
    /// A raw or raw-byte string literal: `r"..."`, `r#"..."#`, `br".."`.
    RawStr {
        /// Number of `#` fence characters.
        hashes: usize,
        /// Whether the closing fence was found before end of input.
        terminated: bool,
    },
    /// A numeric literal (integer or float, suffixes included).
    Number,
    /// A single punctuation byte (the parser groups multi-byte operators
    /// itself where it cares).
    Punct,
}

/// One token: a classified byte span of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The classification.
    pub kind: TokenKind,
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Token {
    /// The token's text within `src` (the string it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// Whether this token is a comment of any kind.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
        )
    }

    /// Whether this token is trivia (whitespace or comment).
    pub fn is_trivia(&self) -> bool {
        self.kind == TokenKind::Whitespace || self.is_comment()
    }
}

/// True for bytes that can continue an identifier. Multi-byte UTF-8
/// sequences (`>= 0x80`) count, so token boundaries never split a char.
fn ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// True for bytes that can start an identifier.
fn ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// Lexes `src` into a total, in-order token stream.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        let kind = if b.is_ascii_whitespace() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            TokenKind::Whitespace
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            // `///x` is doc, `////` is not; `//!` is doc.
            let doc = match bytes.get(i + 2) {
                Some(b'/') => bytes.get(i + 3) != Some(&b'/'),
                Some(b'!') => true,
                _ => false,
            };
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            TokenKind::LineComment { doc }
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let doc = match bytes.get(i + 2) {
                Some(b'*') => !matches!(bytes.get(i + 3), Some(b'/') | Some(b'*')),
                Some(b'!') => true,
                _ => false,
            };
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokenKind::BlockComment {
                doc,
                terminated: depth == 0,
            }
        } else if let Some((kind, end)) = raw_string_at(bytes, i) {
            i = end;
            kind
        } else if (b == b'b' && bytes.get(i + 1) == Some(&b'"'))
            || (b == b'b' && bytes.get(i + 1) == Some(&b'\'') && !prev_is_ident(bytes, i))
        {
            // Byte string `b"..."` or byte char `b'x'`.
            if bytes[i + 1] == b'"' {
                i += 1; // onto the quote
                let (terminated, end) = scan_quoted(bytes, i, b'"');
                i = end;
                TokenKind::Str { terminated }
            } else {
                i += 1;
                let (_, end) = scan_quoted(bytes, i, b'\'');
                i = end;
                TokenKind::Char
            }
        } else if ident_start(b) {
            while i < bytes.len() && ident_continue(bytes[i]) {
                i += 1;
            }
            TokenKind::Ident
        } else if b == b'"' {
            let (terminated, end) = scan_quoted(bytes, i, b'"');
            i = end;
            TokenKind::Str { terminated }
        } else if b == b'\'' {
            if lifetime_at(bytes, i) {
                i += 1; // quote
                while i < bytes.len() && ident_continue(bytes[i]) {
                    i += 1;
                }
                TokenKind::Lifetime
            } else {
                let (_, end) = scan_quoted(bytes, i, b'\'');
                i = end;
                TokenKind::Char
            }
        } else if b.is_ascii_digit() {
            i = scan_number(bytes, i);
            TokenKind::Number
        } else {
            i += 1;
            TokenKind::Punct
        };
        tokens.push(Token {
            kind,
            start,
            end: i,
        });
    }
    tokens
}

/// Whether the byte before `i` continues an identifier (so `i` cannot
/// start a literal prefix like `b'..'` — it is the tail of a name).
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && ident_continue(bytes[i - 1])
}

/// Scans a quoted literal whose opening delimiter sits at `open`.
/// Returns (terminated, end offset past the closing delimiter).
fn scan_quoted(bytes: &[u8], open: usize, close: u8) -> (bool, usize) {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b if b == close => return (true, i + 1),
            // An unterminated char literal never runs past the line: `'a,`
            // must lex the comma as punctuation, not swallow the rest of
            // the file hunting for a quote.
            b'\n' if close == b'\'' => return (false, i),
            _ => i += 1,
        }
    }
    (false, bytes.len())
}

/// Recognizes `r"`, `r#"`, `br"`, `br#"` etc. at `i`; returns the token
/// kind and end offset when present.
fn raw_string_at(bytes: &[u8], i: usize) -> Option<(TokenKind, usize)> {
    if prev_is_ident(bytes, i) {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some((
                    TokenKind::RawStr {
                        hashes,
                        terminated: true,
                    },
                    k,
                ));
            }
        }
        j += 1;
    }
    Some((
        TokenKind::RawStr {
            hashes,
            terminated: false,
        },
        bytes.len(),
    ))
}

/// True when the quote at `i` opens a lifetime rather than a char literal:
/// `'ident` not closed by a quote right after the identifier run.
fn lifetime_at(bytes: &[u8], i: usize) -> bool {
    let Some(&first) = bytes.get(i + 1) else {
        return true; // a lone trailing quote: treat as (empty) lifetime
    };
    if first == b'\\' || !ident_start(first) {
        return false;
    }
    let mut j = i + 2;
    while j < bytes.len() && ident_continue(bytes[j]) {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

/// Scans a numeric literal starting at the digit at `i`: integer part
/// (any radix prefix rides along as ident-continue bytes), one optional
/// fraction (only when a digit follows the dot, so `1..2` and `x.0.1`
/// stay ranges/field chains), and exponent signs after `e`/`E` in
/// decimal-looking literals.
fn scan_number(bytes: &[u8], mut i: usize) -> usize {
    let hex = bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X'));
    // A number directly after `.` is a tuple index (`x.0.1`): two
    // separate integer tokens, never a float with a fraction part.
    let tuple_index = i > 0 && bytes.get(i - 1) == Some(&b'.');
    i += 1;
    loop {
        while i < bytes.len() && ident_continue(bytes[i]) {
            // `1e-3`: consume the sign when it follows an exponent `e`.
            if !hex
                && (bytes[i] == b'e' || bytes[i] == b'E')
                && matches!(bytes.get(i + 1), Some(b'+') | Some(b'-'))
                && matches!(bytes.get(i + 2), Some(d) if d.is_ascii_digit())
            {
                i += 2;
            }
            i += 1;
        }
        // One fraction part: a dot followed by a digit.
        if !tuple_index
            && i < bytes.len()
            && bytes[i] == b'.'
            && matches!(bytes.get(i + 1), Some(d) if d.is_ascii_digit())
            && bytes.get(i.wrapping_sub(1)) != Some(&b'.')
        {
            i += 1;
            continue;
        }
        return i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn roundtrip(src: &str) {
        let tokens = lex(src);
        let mut rebuilt = String::new();
        let mut cursor = 0usize;
        for t in &tokens {
            assert_eq!(t.start, cursor, "gap before token {t:?} in {src:?}");
            assert!(t.end > t.start, "empty token {t:?} in {src:?}");
            rebuilt.push_str(t.text(src));
            cursor = t.end;
        }
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn nested_block_comments_terminate_at_the_matching_close() {
        let src = "a /* x /* y */ z */ b";
        let toks = kinds(src);
        assert!(toks.iter().any(|(k, t)| matches!(
            k,
            TokenKind::BlockComment {
                terminated: true,
                ..
            }
        ) && t == "/* x /* y */ z */"));
        roundtrip(src);
    }

    #[test]
    fn raw_strings_with_fences_swallow_quotes_and_comments() {
        let src = r####"let s = r#"has " and // not a comment"# ;"####;
        let toks = kinds(src);
        assert!(toks.iter().any(|(k, _)| matches!(
            k,
            TokenKind::RawStr {
                hashes: 1,
                terminated: true
            }
        )));
        assert!(!toks
            .iter()
            .any(|(k, _)| matches!(k, TokenKind::LineComment { .. })));
        roundtrip(src);
    }

    #[test]
    fn byte_char_with_escaped_quote_lexes_as_one_char_token() {
        let src = r"let q = b'\''; let r = '\\';";
        let toks = kinds(src);
        let chars: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(chars, [r"b'\''", r"'\\'"]);
        roundtrip(src);
    }

    #[test]
    fn lifetimes_are_not_char_literals_and_vice_versa() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let d = 'static_thing; }";
        let toks = kinds(src);
        let lifetimes: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(lifetimes, ["'a", "'a", "'static_thing"]);
        let chars: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(chars, ["'a'"]);
        roundtrip(src);
    }

    #[test]
    fn doc_comments_are_distinguished_from_plain_comments() {
        let src =
            "/// doc\n//! inner doc\n//// not doc\n// plain\n/** blockdoc */\n/*! inner */\n/**/\n";
        let docs: Vec<bool> = lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::LineComment { doc } => Some(doc),
                TokenKind::BlockComment { doc, .. } => Some(doc),
                _ => None,
            })
            .collect();
        assert_eq!(docs, [true, true, false, false, true, true, false]);
        roundtrip(src);
    }

    #[test]
    fn numbers_cover_floats_exponents_and_suffixes_but_not_ranges() {
        let src = "let a = 1.5e-3f64; let b = 0..10; let c = 0xFFu8; let d = x.0.1;";
        let nums: Vec<String> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text(src).to_string())
            .collect();
        assert_eq!(nums, ["1.5e-3f64", "0", "10", "0xFFu8", "0", "1"]);
        roundtrip(src);
    }

    #[test]
    fn unterminated_literals_do_not_swallow_the_file() {
        // An unterminated char stops at the newline; the next line lexes.
        let src = "let a = 'x\nlet b = 2;";
        let toks = kinds(src);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "b"));
        roundtrip(src);
        roundtrip("let s = \"never closed");
        roundtrip("let r = r#\"never closed");
        roundtrip("/* never closed");
    }

    #[test]
    fn identifier_tails_are_not_literal_prefixes() {
        // `hair` ends in `r`, `grab` ends in `b`: neither starts a raw
        // string or byte literal.
        let src = "let hair = 1; let grab = 2; let s = r\"raw\";";
        let toks = kinds(src);
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| matches!(k, TokenKind::RawStr { .. }))
                .count(),
            1
        );
        roundtrip(src);
    }

    #[test]
    fn multibyte_utf8_never_splits() {
        let src = "let café = \"ünïcode\"; // naïve\n";
        roundtrip(src);
        for t in lex(src) {
            assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
        }
    }
}
