//! The lint policy: which rule families apply where, and the declared
//! lock-acquisition orders.
//!
//! Scope decisions are part of the contract and therefore live in code,
//! not in a config file someone can quietly edit out of CI:
//!
//! * **Product crates** (`uprob-wsd`, `uprob-urel`, `uprob-core`,
//!   `uprob-approx`, `uprob-query`, the facade `src/`) get every family —
//!   their determinism, numeric and panic behaviour is what the paper
//!   contracts guard.
//! * **`uprob-datagen` and `uprob-bench`** are test/benchmark
//!   infrastructure: they construct fixtures and panic loudly on broken
//!   recipes by design, and the bench runner must read the wall clock.
//!   No families apply.
//! * **`uprob-lint` itself** gets the panic family (dogfood): the linter
//!   must not crash on the workspace it gates. Its `fixtures/` corpus is
//!   excluded wholesale — fixtures are deliberate violations.
//! * `vendor/`, `target/`, `tests/`, `benches/` and `examples/` are out
//!   of scope everywhere. Unlike the rule scope, these *exclusions* live
//!   in the checked-in `uprob-lint.toml` at the workspace root (so CI
//!   and local runs agree, and the list is reviewable without a rebuild)
//!   with the defaults below as fallback when no file is present.

/// Rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// det-hash-iter, det-default-hasher, det-ambient-source.
    Determinism,
    /// num-raw-accum.
    Numeric,
    /// panic-unwrap, panic-expect, panic-macro, panic-index.
    Panic,
    /// lock-order, lock-undeclared.
    Locks,
}

/// Declared total lock-acquisition order for one file.
#[derive(Debug)]
pub struct LockManifest {
    /// Workspace-relative path of the file the order applies to.
    pub file: &'static str,
    /// Lock field names, outermost-acquirable first: a lock may only be
    /// taken while locks strictly earlier in this list are held.
    pub order: &'static [&'static str],
}

/// The lint policy for one workspace.
#[derive(Debug)]
pub struct LintConfig {
    /// Path prefixes of crates receiving the determinism/numeric/panic
    /// families.
    pub product_prefixes: &'static [&'static str],
    /// Path prefixes receiving only the panic family.
    pub panic_only_prefixes: &'static [&'static str],
    /// Files exempt from the numeric family (the policy implementation).
    pub numeric_exempt: &'static [&'static str],
    /// Declared lock orders.
    pub lock_manifests: &'static [LockManifest],
    /// Directory names pruned during the workspace walk.
    pub exclude_dirs: Vec<String>,
    /// Workspace-relative path prefixes out of scope.
    pub exclude_prefixes: Vec<String>,
    /// Path segments marking out-of-scope files anywhere in the tree.
    pub exclude_segments: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            product_prefixes: &[
                "crates/wsd/src/",
                "crates/urel/src/",
                "crates/core/src/",
                "crates/approx/src/",
                "crates/query/src/",
                "src/",
            ],
            panic_only_prefixes: &["crates/lint/src/"],
            numeric_exempt: &["crates/wsd/src/numeric.rs"],
            lock_manifests: &[
                LockManifest {
                    file: "crates/core/src/parallel.rs",
                    order: &["queues", "arena", "root", "error"],
                },
                LockManifest {
                    file: "crates/core/src/cache.rs",
                    order: &["shards"],
                },
                LockManifest {
                    file: "crates/query/src/service.rs",
                    order: &["writer", "prior", "plans", "inflight", "slot", "current"],
                },
            ],
            exclude_dirs: to_owned(&[".git", "target", "vendor", "fixtures", "node_modules"]),
            exclude_prefixes: to_owned(&[
                "vendor/",
                "target/",
                "tests/",
                "examples/",
                "crates/lint/fixtures/",
            ]),
            exclude_segments: to_owned(&["/tests/", "/benches/", "/examples/", "/bin/"]),
        }
    }
}

fn to_owned(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl LintConfig {
    /// The config for a workspace checkout: defaults with the exclusion
    /// lists overridden by `uprob-lint.toml` at `root` when present.
    pub fn load(root: &std::path::Path) -> Self {
        let mut config = LintConfig::default();
        if let Ok(text) = std::fs::read_to_string(root.join("uprob-lint.toml")) {
            config.apply_toml(&text);
        }
        config
    }

    /// Applies the `[scope]` keys of an `uprob-lint.toml` text. The
    /// format is deliberately tiny: single-line string arrays,
    /// full-line `#` comments, one `[scope]` table. Unknown keys are
    /// ignored so the file can grow without lockstep releases.
    pub fn apply_toml(&mut self, text: &str) {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let items = parse_string_array(value.trim());
            match key.trim() {
                "exclude-dirs" => self.exclude_dirs = items,
                "exclude-prefixes" => self.exclude_prefixes = items,
                "exclude-segments" => self.exclude_segments = items,
                _ => {}
            }
        }
    }

    /// Whether a workspace-relative path is scanned at all.
    pub fn scans(&self, rel_path: &str) -> bool {
        if !rel_path.ends_with(".rs") {
            return false;
        }
        if self
            .exclude_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
        {
            return false;
        }
        if self
            .exclude_segments
            .iter()
            .any(|s| rel_path.contains(s.as_str()))
        {
            return false;
        }
        self.families(rel_path).next().is_some() || self.lock_manifest(rel_path).is_some()
    }

    /// The families applying to a workspace-relative path.
    pub fn families(&self, rel_path: &str) -> impl Iterator<Item = Family> + '_ {
        let product = self
            .product_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p));
        let panic_only = self
            .panic_only_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p));
        let numeric = product && !self.numeric_exempt.contains(&rel_path);
        [
            (product, Family::Determinism),
            (numeric, Family::Numeric),
            (product || panic_only, Family::Panic),
            (product, Family::Locks),
        ]
        .into_iter()
        .filter_map(|(on, family)| on.then_some(family))
    }

    /// The declared lock order for a file, if any.
    pub fn lock_manifest(&self, rel_path: &str) -> Option<&LockManifest> {
        self.lock_manifests.iter().find(|m| m.file == rel_path)
    }
}

/// Parses a single-line TOML string array: `["a", "b"]`.
fn parse_string_array(value: &str) -> Vec<String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .unwrap_or("");
    inner
        .split(',')
        .filter_map(|item| {
            let item = item.trim();
            item.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_crates_get_all_families() {
        let config = LintConfig::default();
        let families: Vec<Family> = config.families("crates/core/src/parallel.rs").collect();
        assert_eq!(
            families,
            vec![
                Family::Determinism,
                Family::Numeric,
                Family::Panic,
                Family::Locks
            ]
        );
    }

    #[test]
    fn numeric_policy_module_is_numeric_exempt_but_not_otherwise() {
        let config = LintConfig::default();
        let families: Vec<Family> = config.families("crates/wsd/src/numeric.rs").collect();
        assert!(families.contains(&Family::Determinism));
        assert!(!families.contains(&Family::Numeric));
        assert!(families.contains(&Family::Panic));
    }

    #[test]
    fn infra_crates_and_vendored_code_are_out_of_scope() {
        let config = LintConfig::default();
        assert!(!config.scans("crates/datagen/src/tpch.rs"));
        assert!(!config.scans("crates/bench/src/runner.rs"));
        assert!(!config.scans("vendor/rand/src/lib.rs"));
        assert!(!config.scans("tests/workspace_smoke.rs"));
        assert!(!config.scans("examples/quickstart.rs"));
        assert!(!config.scans("crates/lint/fixtures/panic-unwrap/bad_basic.rs"));
        assert!(!config.scans("crates/core/src/parallel.md"));
        assert!(config.scans("crates/core/src/parallel.rs"));
        assert!(config.scans("src/lib.rs"));
        assert!(config.scans("crates/lint/src/main.rs"));
    }

    #[test]
    fn lint_crate_is_panic_only() {
        let config = LintConfig::default();
        let families: Vec<Family> = config.families("crates/lint/src/lib.rs").collect();
        assert_eq!(families, vec![Family::Panic]);
    }

    #[test]
    fn toml_scope_overrides_the_exclusion_lists() {
        let mut config = LintConfig::default();
        config.apply_toml(
            "# comment\n[scope]\nexclude-dirs = [\".git\", \"generated\"]\n\
             exclude-prefixes = [\"gen/\"]\nunknown-key = [\"x\"]\n",
        );
        assert_eq!(
            config.exclude_dirs,
            [".git".to_string(), "generated".to_string()]
        );
        assert_eq!(config.exclude_prefixes, ["gen/".to_string()]);
        // Untouched key keeps its default.
        assert!(config.exclude_segments.iter().any(|s| s == "/tests/"));
        assert!(!config.scans("gen/lib.rs"));
    }

    #[test]
    fn lock_manifests_cover_the_scheduler_and_the_cache() {
        let config = LintConfig::default();
        let scheduler = config.lock_manifest("crates/core/src/parallel.rs").unwrap();
        assert_eq!(scheduler.order, ["queues", "arena", "root", "error"]);
        assert!(config.lock_manifest("crates/core/src/cache.rs").is_some());
        assert!(config.lock_manifest("crates/core/src/engine.rs").is_none());
        let service = config.lock_manifest("crates/query/src/service.rs").unwrap();
        assert_eq!(
            service.order,
            ["writer", "prior", "plans", "inflight", "slot", "current"]
        );
    }
}
