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
