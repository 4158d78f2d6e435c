//! The live tree keeps both halves of the invariant contract switched on.
//!
//! `uprob-lint`'s own half — the workspace is clean under its seven rules
//! — is `tests::live_workspace_is_clean` in `src/lib.rs`. This file pins
//! the clippy half: every crate `uprob-lint` treats as product code, and
//! the linter itself, carries the crate-root gate line that turns the
//! per-site lints on (DESIGN.md "Invariants as lints"). Dropping the gate
//! from one crate fails tier-1 here; dropping a lint from the gate, or an
//! entry from `clippy.toml`, fails `cargo clippy -- -D warnings` through
//! `src/clippy_contract.rs`.
//!
//! It also pins the one-implementation-per-operator rule: the oracles live
//! in `reference.rs` modules, and no product code imports them back.

use std::path::Path;

use uprob_lint::{find_workspace_root, workspace_sources, LintConfig, SourceFile};

/// The gate, as written in every gated `lib.rs` (rustfmt breaks it over
/// several lines; the comparison ignores whitespace).
const GATE: &str = "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, \
    clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, \
    clippy::indexing_slicing, clippy::disallowed_types, clippy::disallowed_methods, \
    clippy::allow_attributes_without_reason))]";

fn without_whitespace(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

#[test]
fn every_gated_crate_root_carries_the_clippy_gate() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let config = LintConfig::default();
    let gate = without_whitespace(GATE);
    for prefix in config.product_prefixes.iter().chain(&["crates/lint/src/"]) {
        let lib = root.join(prefix).join("lib.rs");
        let text = std::fs::read_to_string(&lib)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", lib.display()));
        assert!(
            without_whitespace(&text).contains(&gate),
            "{} does not carry the clippy gate line:\n{GATE}",
            lib.display()
        );
    }
}

/// The reference implementations (`uprob_urel::reference`,
/// `uprob_query::reference`) are for tests, differential harnesses and
/// `crates/bench` only: outside the `reference.rs` files themselves, the
/// non-test code of every product source file — the facade prelude
/// included — names no `reference::` path. Comments and doc links are
/// skipped (the sanitized text has them blanked).
#[test]
fn product_code_never_imports_a_reference_implementation() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let config = LintConfig::default();
    let mut offenders = Vec::new();
    for rel_path in workspace_sources(&root, &config).expect("workspace walk") {
        let product = config
            .product_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p));
        if !product || rel_path.ends_with("/reference.rs") {
            continue;
        }
        let raw = std::fs::read_to_string(root.join(&rel_path)).expect("readable source");
        let file = SourceFile::parse(&rel_path, &raw);
        for (offset, _) in file.text.match_indices("reference::") {
            let continues_an_identifier = file.text[..offset]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !continues_an_identifier && !file.in_test_code(offset) {
                offenders.push(format!("{rel_path}:{}", file.line_of(offset)));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "product code names a `reference::` path (oracles are for tests and benches only): {offenders:?}"
    );
}
