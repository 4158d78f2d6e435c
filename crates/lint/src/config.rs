//! The lint policy: which rule families apply where, and the declared
//! lock-acquisition orders.
//!
//! Scope decisions are part of the contract and therefore live in code,
//! not in a config file someone can quietly edit out of CI:
//!
//! * **Product crates** (`uprob-wsd`, `uprob-urel`, `uprob-core`,
//!   `uprob-approx`, `uprob-query`, the facade `src/`) get every family —
//!   their determinism, numeric and locking behaviour is what the paper
//!   contracts guard. The same crates (and this one) carry the clippy
//!   gate line in their `lib.rs` for the per-site invariants clippy can
//!   check: panics, indexing, std hashers, ambient clocks.
//! * **`uprob-datagen`, `uprob-reference` and `uprob-bench`** are
//!   test/benchmark infrastructure: they construct fixtures, oracles that
//!   panic loudly on broken invariants by design, and the bench runner
//!   must read the wall clock. No families apply.
//! * `vendor/`, `target/`, `tests/`, `benches/`, `examples/` and the
//!   `fixtures/` corpus of deliberate violations are out of scope
//!   everywhere.

/// Rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// det-hash-iter, det-taint, stamp-refresh.
    Determinism,
    /// num-raw-accum.
    Numeric,
    /// lock-order-graph, lock-undeclared.
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
    /// Path prefixes of the product crates: every family applies.
    pub product_prefixes: &'static [&'static str],
    /// Files exempt from the numeric family (the policy implementation).
    pub numeric_exempt: &'static [&'static str],
    /// Declared lock orders.
    pub lock_manifests: &'static [LockManifest],
    /// Directory names pruned during the workspace walk.
    pub exclude_dirs: &'static [&'static str],
    /// Workspace-relative path prefixes out of scope.
    pub exclude_prefixes: &'static [&'static str],
    /// Path segments marking out-of-scope files anywhere in the tree.
    pub exclude_segments: &'static [&'static str],
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
            exclude_dirs: &[".git", "target", "vendor", "fixtures", "node_modules"],
            exclude_prefixes: &[
                "vendor/",
                "target/",
                "tests/",
                "examples/",
                "crates/lint/fixtures/",
            ],
            exclude_segments: &["/tests/", "/benches/", "/examples/", "/bin/"],
        }
    }
}

impl LintConfig {
    /// Whether a workspace-relative path is scanned at all.
    pub fn scans(&self, rel_path: &str) -> bool {
        if !rel_path.ends_with(".rs") {
            return false;
        }
        if self
            .exclude_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p))
            || self.exclude_segments.iter().any(|s| rel_path.contains(s))
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
        let numeric = product && !self.numeric_exempt.contains(&rel_path);
        [
            (product, Family::Determinism),
            (numeric, Family::Numeric),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_crates_get_all_families() {
        let config = LintConfig::default();
        let families: Vec<Family> = config.families("crates/core/src/parallel.rs").collect();
        assert_eq!(
            families,
            vec![Family::Determinism, Family::Numeric, Family::Locks]
        );
    }

    #[test]
    fn numeric_policy_module_is_numeric_exempt_but_not_otherwise() {
        let config = LintConfig::default();
        let families: Vec<Family> = config.families("crates/wsd/src/numeric.rs").collect();
        assert!(families.contains(&Family::Determinism));
        assert!(!families.contains(&Family::Numeric));
        assert!(families.contains(&Family::Locks));
    }

    #[test]
    fn infra_crates_and_vendored_code_are_out_of_scope() {
        let config = LintConfig::default();
        assert!(!config.scans("crates/datagen/src/tpch.rs"));
        assert!(!config.scans("crates/bench/src/runner.rs"));
        assert!(!config.scans("crates/reference/src/urel.rs"));
        assert!(!config.scans("vendor/rand/src/lib.rs"));
        assert!(!config.scans("tests/workspace_smoke.rs"));
        assert!(!config.scans("examples/quickstart.rs"));
        assert!(!config.scans("crates/lint/fixtures/det-taint/bad.rs"));
        // The linter itself is gated by clippy alone (crate-root gate line).
        assert!(!config.scans("crates/lint/src/main.rs"));
        assert!(!config.scans("crates/core/src/parallel.md"));
        assert!(config.scans("crates/core/src/parallel.rs"));
        assert!(config.scans("src/lib.rs"));
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
