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
//! in `uprob-reference`, and no product crate depends on it.

use std::path::Path;

use uprob_lint::{find_workspace_root, LintConfig};

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

/// The oracle crate, which depends on the product crates.
const ORACLE: &str = "uprob-reference";

/// Whether a manifest table lists dependencies a package is built with:
/// `[dependencies]`, `[build-dependencies]`, their `target.*` forms and
/// their dotted one-dependency forms — not `[dev-dependencies]`, and not
/// the `[workspace.dependencies]` declarations.
fn is_normal_dependency_table(header: &str) -> bool {
    !header.starts_with("workspace.")
        && header
            .split('.')
            .any(|key| key == "dependencies" || key == "build-dependencies")
}

/// The headers of the tables of `manifest` that mention `name`, in order.
fn tables_naming(manifest: &str, name: &str) -> Vec<String> {
    let mut header = String::new();
    let mut found: Vec<String> = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if let Some(table) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            header = table.trim().to_string();
        }
        if line.contains(name) && found.last() != Some(&header) {
            found.push(header.clone());
        }
    }
    found
}

/// The oracles live in `uprob-reference`, which depends on the product
/// crates, so product code cannot import one: a product crate naming it is
/// a dependency cycle Cargo rejects. The facade is the one product package
/// that could name it without a cycle, so no product manifest — the
/// facade's included — may list it among the dependencies its library is
/// built with. Dev-dependencies may: that is how the facade's tests and
/// examples reach the oracles.
#[test]
fn product_code_never_imports_a_reference_implementation() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
    };
    // Renaming the oracle crate would make the check below vacuous.
    let oracle = read(&root.join("crates/reference/Cargo.toml"));
    assert!(
        oracle
            .lines()
            .any(|l| l.trim() == format!("name = \"{ORACLE}\"")),
        "crates/reference is no longer `{ORACLE}`"
    );
    let mut offenders = Vec::new();
    for prefix in LintConfig::default().product_prefixes {
        let package = prefix
            .strip_suffix("src/")
            .expect("product prefixes are `<package>/src/`");
        let manifest = root.join(package).join("Cargo.toml");
        let tables = tables_naming(&read(&manifest), ORACLE);
        if package.is_empty() {
            assert!(
                tables.iter().any(|t| t == "dev-dependencies"),
                "the facade's tests reach the oracles as a dev-dependency: {tables:?}"
            );
        }
        offenders.extend(
            tables
                .into_iter()
                .filter(|t| is_normal_dependency_table(t))
                .map(|t| format!("{}: [{t}]", manifest.display())),
        );
    }
    assert!(
        offenders.is_empty(),
        "a product manifest depends on `{ORACLE}` (oracles are for tests and benches only): {offenders:?}"
    );
}
