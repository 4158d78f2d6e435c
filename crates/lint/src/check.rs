//! The lexical rule implementations: pattern analyses over sanitized
//! sources.
//!
//! Every analysis here is deliberately lexical — single-file, position
//! based, anchored on the sanitized text the lexer-backed sanitizer
//! produces (so matches can never come from comments or string
//! literals). The cross-function analyses (lock-order-graph,
//! lock-undeclared, det-taint) live in `crate::analysis` on top of the
//! call graph; this module keeps the shared low-level helpers they
//! borrow. Test regions are excluded up front, and each heuristic errs on the side of
//! flagging — the inline allow pragma (with a mandatory reason) is the
//! designed pressure valve, and `lint-pragma` keeps the allowlist honest
//! by flagging entries that have gone stale.

#![expect(
    clippy::indexing_slicing,
    reason = "every index and slice offset in this file derives from enumerate()/find()/memchr-style scans over the very buffer being indexed, clamped with min()/saturating_sub at the boundaries"
)]

use crate::config::{Family, LintConfig};
use crate::rules::is_registered;
use crate::source::{is_ident_byte, SourceFile};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Registered rule id.
    pub rule: &'static str,
    /// Human message.
    pub message: String,
    /// Fix hint.
    pub hint: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    hint: {}",
            self.file, self.line, self.col, self.rule, self.message, self.hint
        )
    }
}

/// Runs every configured lexical family over one file. The structural
/// analyses and the pragma meta-rule are layered on by
/// [`crate::check_sources`], which owns the ordering (pragma `used`
/// flags must account for structural suppressions too).
pub(crate) fn check_file_lexical(
    file: &SourceFile,
    config: &LintConfig,
    findings: &mut Vec<Finding>,
) {
    for family in config.families(&file.rel_path) {
        match family {
            Family::Determinism => check_hash_iteration(file, findings),
            Family::Numeric => check_numeric(file, findings),
            // The lock rules need the call graph: `analysis::lock_order`.
            Family::Locks => {}
        }
    }
}

/// Emits a finding unless the site is test code or allowed by a pragma.
pub(crate) fn emit(
    file: &SourceFile,
    findings: &mut Vec<Finding>,
    rule: &'static str,
    offset: usize,
    message: String,
    hint: &'static str,
) {
    if file.in_test_code(offset) || file.allowed(rule, offset) {
        return;
    }
    let (line, col) = file.position(offset);
    findings.push(Finding {
        file: file.rel_path.clone(),
        line,
        col,
        rule,
        message,
        hint,
    });
}

// ---------------------------------------------------------------------------
// Generic lexical helpers
// ---------------------------------------------------------------------------

/// Offsets of word-boundary occurrences of `word`.
pub(crate) fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// Offsets of `.method(` call sites (method matched exactly).
pub(crate) fn method_calls(text: &str, method: &str) -> Vec<usize> {
    let pattern = format!(".{method}(");
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(&pattern) {
        out.push(from + pos);
        from = from + pos + 1;
    }
    out
}

/// The identifier ending at byte `end` (exclusive), if any.
pub(crate) fn ident_ending_at(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    (start < end && !bytes[start].is_ascii_digit()).then(|| &text[start..end])
}

/// Last non-whitespace byte strictly before `offset`.
pub(crate) fn prev_nonspace(text: &str, offset: usize) -> Option<(usize, u8)> {
    let bytes = text.as_bytes();
    (0..offset)
        .rev()
        .map(|i| (i, bytes[i]))
        .find(|&(_, b)| !b.is_ascii_whitespace())
}

/// First non-whitespace byte at or after `offset`.
pub(crate) fn next_nonspace(text: &str, offset: usize) -> Option<(usize, u8)> {
    let bytes = text.as_bytes();
    (offset..bytes.len())
        .map(|i| (i, bytes[i]))
        .find(|&(_, b)| !b.is_ascii_whitespace())
}

/// The statement snippet around `offset`: from the previous `;`/`{`/`}` to
/// the next `;` or `{` (whichever comes first), used for canonicalization
/// and type-context checks.
fn statement_around(text: &str, offset: usize) -> &str {
    let bytes = text.as_bytes();
    let start = (0..offset)
        .rev()
        .find(|&i| matches!(bytes[i], b';' | b'{' | b'}'))
        .map_or(0, |i| i + 1);
    let mut depth = 0i32;
    let mut end = text.len();
    for (i, &b) in bytes.iter().enumerate().skip(offset) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' | b'{' if depth <= 0 => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    &text[start..end]
}

// ---------------------------------------------------------------------------
// Determinism family
// ---------------------------------------------------------------------------

const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
];
const CANONICALIZERS: [&str; 11] = [
    ".sort",
    "BTree",
    ".len()",
    ".count()",
    ".any(",
    ".all(",
    ".contains",
    ".is_empty()",
    ".min(",
    ".max(",
    ".fold(0,",
];
fn check_hash_iteration(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (offset, name) in hash_iteration_sites(file) {
        emit(
            file,
            findings,
            "det-hash-iter",
            offset,
            format!("iteration over hash-ordered `{name}`"),
            "use a BTree container, sort before use, or allow(det-hash-iter) with why order cannot leak",
        );
    }
}

/// The `(offset, binding name)` of every non-canonicalized hash-table
/// iteration in the file — shared between the lexical det-hash-iter rule
/// and the structural determinism-taint analysis.
pub(crate) fn hash_iteration_sites(file: &SourceFile) -> Vec<(usize, String)> {
    let names = hash_typed_names(file);
    let mut sites = Vec::new();
    let text = &file.text;
    for name in &names {
        for offset in word_occurrences(text, name) {
            let after = offset + name.len();
            // Method-call iteration: `name.iter()`, `name.drain(..)`, ...
            let is_method_iter = text[after..].starts_with('.')
                && ITER_METHODS.iter().chain(["drain"].iter()).any(|m| {
                    let call = format!(".{m}(");
                    text[after..].starts_with(&call)
                });
            // `for pat in &name {` / `for pat in name {`
            let is_for_iter = {
                let followed_by_block = matches!(next_nonspace(text, after), Some((_, b'{')));
                followed_by_block && preceded_by_in(text, offset)
            };
            if !(is_method_iter || is_for_iter) {
                continue;
            }
            if CANONICALIZERS
                .iter()
                .any(|c| statement_around(text, offset).contains(c))
            {
                continue;
            }
            sites.push((offset, name.clone()));
        }
    }
    sites
}

/// True when the identifier at `offset` is preceded (over `&`/`mut`) by the
/// keyword `in`.
fn preceded_by_in(text: &str, offset: usize) -> bool {
    let bytes = text.as_bytes();
    let mut i = offset;
    loop {
        let Some((pos, b)) = prev_nonspace(text, i) else {
            return false;
        };
        match b {
            b'&' => i = pos,
            // `mut` between `in` and the iterated name
            b't' if pos >= 2 && &bytes[pos - 2..=pos] == b"mut" => i = pos - 2,
            b'n' => {
                return pos >= 1
                    && bytes[pos - 1] == b'i'
                    && (pos < 2 || !is_ident_byte(bytes[pos - 2]));
            }
            _ => return false,
        }
    }
}

/// Identifiers declared (let binding, field or parameter) with a hash-table
/// type anywhere in the file's non-test code.
fn hash_typed_names(file: &SourceFile) -> Vec<String> {
    let text = &file.text;
    let bytes = text.as_bytes();
    let mut names = Vec::new();
    // `name: ...HashMap<...` declarations (fields, params, typed lets).
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' || file.in_test_code(i) {
            continue;
        }
        if bytes.get(i + 1) == Some(&b':') || (i > 0 && bytes[i - 1] == b':') {
            continue; // path separator
        }
        let Some((end, prev)) = prev_nonspace(text, i) else {
            continue;
        };
        if !is_ident_byte(prev) {
            continue;
        }
        let Some(name) = ident_ending_at(text, end + 1) else {
            continue;
        };
        // A type annotation ends at the statement/body, at `=`, or — for
        // fn parameters — at the next parameter or the closing paren, so
        // a hash-typed *return type* never taints a parameter's name.
        let look = &text[i + 1..(i + 80).min(text.len())];
        let type_head: &str = look
            .split([';', '=', '{', '(', ')', ','])
            .next()
            .unwrap_or("");
        if HASH_TYPES.iter().any(|t| contains_word(type_head, t)) {
            names.push(name.to_string());
        }
    }
    // `let [mut] name = <hash constructor>` initializer declarations.
    for offset in word_occurrences(text, "let") {
        if file.in_test_code(offset) {
            continue;
        }
        let Some((name, after_name)) = let_binding_name(text, offset) else {
            continue;
        };
        let init: &str = text[after_name..(after_name + 120).min(text.len())]
            .split(';')
            .next()
            .unwrap_or("");
        if HASH_TYPES.iter().any(|t| contains_word(init, t)) {
            names.push(name.to_string());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// True when `word` occurs with identifier boundaries.
pub(crate) fn contains_word(text: &str, word: &str) -> bool {
    !word_occurrences(text, word).is_empty()
}

/// For a `let` keyword at `offset`: the bound identifier (skipping `mut`)
/// and the offset just past it. `None` for pattern bindings.
fn let_binding_name(text: &str, offset: usize) -> Option<(&str, usize)> {
    let bytes = text.as_bytes();
    let mut i = offset + 3;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if text[i..].starts_with("mut") && !is_ident_byte(*bytes.get(i + 3)?) {
        i += 3;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
    }
    let start = i;
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    (i > start && !bytes[start].is_ascii_digit()).then(|| (&text[start..i], i))
}

// ---------------------------------------------------------------------------
// Numeric family
// ---------------------------------------------------------------------------

fn check_numeric(file: &SourceFile, findings: &mut Vec<Finding>) {
    let text = &file.text;
    // Bare typed sums.
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(".sum::<f64>()") {
        let offset = from + pos;
        emit(
            file,
            findings,
            "num-raw-accum",
            offset,
            "raw `.sum::<f64>()` outside uprob_wsd::numeric".to_string(),
            "fold through NeumaierSum, or allow(num-raw-accum) with why this sum is exempt",
        );
        from = offset + 1;
    }
    // Untyped sums whose statement is visibly f64-typed.
    for offset in method_calls(text, "sum") {
        if text[offset..].starts_with(".sum::<") {
            continue; // handled above (or a non-f64 turbofish)
        }
        let statement = statement_around(text, offset);
        if contains_word(statement, "f64") {
            emit(
                file,
                findings,
                "num-raw-accum",
                offset,
                "raw f64 `.sum()` outside uprob_wsd::numeric".to_string(),
                "fold through NeumaierSum, or allow(num-raw-accum) with why this sum is exempt",
            );
        }
    }
    // `name += ...` on float-initialized locals.
    for name in float_locals(file) {
        for offset in word_occurrences(text, &name) {
            let after = offset + name.len();
            if matches!(next_nonspace(text, after), Some((pos, b'+')) if file.text.as_bytes().get(pos + 1) == Some(&b'='))
            {
                emit(
                    file,
                    findings,
                    "num-raw-accum",
                    offset,
                    format!("raw f64 accumulation `{name} += ..` outside uprob_wsd::numeric"),
                    "fold through NeumaierSum, or allow(num-raw-accum) with why this sum is exempt",
                );
            }
        }
    }
}

/// Names of locals bound with a float type or float-literal initializer.
/// Test-region bindings are ignored: a test fixture must not reclassify a
/// like-named product local.
fn float_locals(file: &SourceFile) -> Vec<String> {
    let text = &file.text;
    let mut names = Vec::new();
    for offset in word_occurrences(text, "let") {
        if file.in_test_code(offset) {
            continue;
        }
        let Some((name, after_name)) = let_binding_name(text, offset) else {
            continue;
        };
        let tail: &str = text[after_name..(after_name + 160).min(text.len())]
            .split(';')
            .next()
            .unwrap_or("");
        let is_float =
            contains_word(tail, "f64") || contains_word(tail, "f32") || has_float_literal(tail);
        if is_float {
            names.push(name.to_string());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// True when the snippet contains a `<digits>.<digits>` literal.
fn has_float_literal(text: &str) -> bool {
    let bytes = text.as_bytes();
    bytes.windows(3).enumerate().any(|(i, w)| {
        w[0].is_ascii_digit()
            && w[1] == b'.'
            && w[2].is_ascii_digit()
            // exclude tuple-index-ish `x.0.1` chains: require a non-ident,
            // non-dot byte before the first digit's run start
            && {
                let mut start = i;
                while start > 0 && bytes[start - 1].is_ascii_digit() {
                    start -= 1;
                }
                start == 0 || (!is_ident_byte(bytes[start - 1]) && bytes[start - 1] != b'.')
            }
    })
}

// ---------------------------------------------------------------------------
// Pragma meta-rule
// ---------------------------------------------------------------------------

pub(crate) fn check_pragmas(file: &SourceFile, findings: &mut Vec<Finding>) {
    // A live-looking pragma inside a doc comment suppresses nothing: the
    // sanitizer only harvests pragmas from plain comment tokens. Surface
    // it rather than letting it silently rot.
    for &line in &file.inert_doc_pragmas {
        findings.push(Finding {
            file: file.rel_path.clone(),
            line,
            col: 1,
            rule: "lint-pragma",
            message:
                "allow pragma inside a doc comment is inert — pragmas only work in plain comments"
                    .to_string(),
            hint: "move it to a plain `//` comment on the guarded line, or reword the doc text",
        });
    }
    for pragma in &file.pragmas {
        let (line, col) = (pragma.line, 1);
        let mut report = |message: String| {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line,
                col,
                rule: "lint-pragma",
                message,
                hint: "format: // uprob-lint: allow(<rule>[, <rule>]) -- <reason>",
            });
        };
        if !pragma.well_formed {
            report("malformed uprob-lint pragma".to_string());
            continue;
        }
        if pragma.reason.is_empty() {
            report("allow pragma without a `-- <reason>` justification".to_string());
            continue;
        }
        let mut bad_rule = false;
        for rule in &pragma.rules {
            if !is_registered(rule) {
                report(format!("allow pragma names unregistered rule `{rule}`"));
                bad_rule = true;
            }
        }
        if !bad_rule && !pragma.used.get() {
            report(format!(
                "allow pragma for {:?} suppresses nothing — delete it",
                pragma.rules
            ));
        }
    }
}
