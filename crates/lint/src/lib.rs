//! uprob-lint: the workspace's invariant-enforcing static-analysis pass.
//!
//! The paper reproduction rests on contracts no type system checks for
//! us: determinism (parallel ≡ sequential bit-for-bit, results a pure
//! function of the database), the Neumaier numeric policy, panic hygiene
//! in library code, and deadlock-free lock ordering in the cache and the
//! serving layer. The ones a single expression can violate —
//! a panic, an unchecked index, a std hasher, a clock read — are stock
//! clippy lints, switched on by the gate line at the top of each gated
//! crate's `lib.rs` (this one included) with the workspace `clippy.toml`.
//! This crate enforces the rest, the invariants that span functions or
//! that clippy has no notion of (the Neumaier policy, declared lock
//! orders, the bit-identity cone), with a hand-written lexer
//! ([`lexer`]), an item-level parser ([`ast`]), an intra-crate call graph
//! ([`callgraph`]) and both lexical per-file rules ([`check`]) and
//! structural cross-function analyses ([`analysis`]) — zero external
//! dependencies, so the checks run in CI on the same pinned stable
//! toolchain as the build.
//!
//! Run as `cargo run -p uprob-lint -- check`; see `--explain <rule>` for
//! any diagnostic, and `crates/lint/fixtures/` for the per-rule corpus
//! the linter is itself tested against.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason
    )
)]

pub mod analysis;
pub mod ast;
pub mod callgraph;
pub mod check;
#[cfg(clippy)]
mod clippy_contract;
pub mod config;
pub mod lexer;
pub mod rules;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

pub use check::Finding;
pub use config::LintConfig;
pub use source::SourceFile;

/// Lints one group of files that share a call graph (one crate), in
/// both the lexical and structural passes, returning findings sorted by
/// (file, line, col).
///
/// Order matters internally: the structural analyses run before the
/// pragma meta-rule so a pragma that only suppresses a structural
/// finding still counts as used.
pub fn check_sources(files: &[SourceFile], config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        check::check_file_lexical(file, config, &mut findings);
    }
    let asts: Vec<ast::FileAst> = files.iter().map(ast::parse_items).collect();
    let graph = callgraph::CallGraph::build(files, &asts);
    let view = analysis::CrateView {
        files,
        asts: &asts,
        graph: &graph,
        config,
    };
    analysis::run(&view, &mut findings);
    for file in files {
        check::check_pragmas(file, &mut findings);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    findings
}

/// Lints a single file as its own one-file crate (fixture harness and
/// spot checks; the workspace entry point is [`check_workspace`]).
pub fn check_file(file: &SourceFile, config: &LintConfig) -> Vec<Finding> {
    check_sources(std::slice::from_ref(file), config)
}

/// Lints every in-scope file under `root` (a workspace checkout),
/// grouping files per crate so the structural analyses see whole call
/// graphs, returning findings sorted by (file, line, col).
pub fn check_workspace(root: &Path, config: &LintConfig) -> io::Result<Vec<Finding>> {
    let mut groups: Vec<(String, Vec<SourceFile>)> = Vec::new();
    for rel_path in workspace_sources(root, config)? {
        let text = std::fs::read_to_string(root.join(&rel_path))?;
        let file = SourceFile::parse(&rel_path, &text);
        let key = crate_of(&rel_path);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, files)) => files.push(file),
            None => groups.push((key, vec![file])),
        }
    }
    let mut findings = Vec::new();
    for (_, files) in &groups {
        findings.extend(check_sources(files, config));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    Ok(findings)
}

/// The crate a workspace-relative path belongs to: `crates/<name>` or
/// the facade crate at the root `src/`.
fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return format!("crates/{name}");
        }
    }
    "facade".to_string()
}

/// The sorted workspace-relative paths of every file the config scans.
/// Directory pruning comes from the config's `exclude_dirs`, never from
/// hardcoded paths.
pub fn workspace_sources(root: &Path, config: &LintConfig) -> io::Result<Vec<String>> {
    let mut paths = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let dir = root.join(&rel_dir);
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(name.as_ref())
            } else {
                rel_dir.join(name.as_ref())
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if entry.file_type()?.is_dir() {
                if config.exclude_dirs.contains(&name.as_ref()) {
                    continue;
                }
                stack.push(rel);
            } else if config.scans(&rel_str) {
                paths.push(rel_str);
            }
        }
    }
    paths.sort();
    Ok(paths)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
    }

    #[test]
    fn workspace_walk_finds_product_sources_and_skips_vendor() {
        let config = LintConfig::default();
        let sources = workspace_sources(&root(), &config).expect("walk");
        assert!(sources.iter().any(|p| p == "crates/core/src/parallel.rs"));
        assert!(sources.iter().any(|p| p == "src/lib.rs"));
        assert!(!sources.iter().any(|p| p.starts_with("vendor/")));
        assert!(!sources.iter().any(|p| p.starts_with("tests/")));
        assert!(!sources.iter().any(|p| p.contains("fixtures")));
        assert!(!sources.iter().any(|p| p.starts_with("crates/datagen/")));
        assert!(!sources.iter().any(|p| p.starts_with("crates/lint/")));
    }

    #[test]
    fn crate_grouping_keys_on_the_crates_directory() {
        assert_eq!(crate_of("crates/core/src/parallel.rs"), "crates/core");
        assert_eq!(crate_of("crates/query/src/service.rs"), "crates/query");
        assert_eq!(crate_of("src/lib.rs"), "facade");
    }

    /// The workspace itself must be lint-clean: this is the same gate CI
    /// runs via `cargo run -p uprob-lint -- check`, kept as a test so
    /// plain `cargo test` catches regressions without the extra step.
    #[test]
    fn live_workspace_is_clean() {
        let config = LintConfig::default();
        let findings = check_workspace(&root(), &config).expect("lint run");
        assert!(
            findings.is_empty(),
            "workspace has {} unallowed lint finding(s):\n{}",
            findings.len(),
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
