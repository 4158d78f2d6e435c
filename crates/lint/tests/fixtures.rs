//! The lint corpus: every rule has a `bad.rs` fixture whose violations are
//! pinned line-by-line with `//~ <rule>` markers (`//~v <rule>` pins the
//! following line), and a `good.rs` fixture that must come out clean. The
//! fixtures are checked under a *virtual* product path so every family
//! applies; lock fixtures borrow the serving layer's path so its default
//! lock manifest governs them.
//!
//! A second set of tests runs the actual `uprob-lint` binary against
//! throwaway mini-workspaces to pin the exit-code contract: nonzero on a
//! workspace seeded with a bad fixture, zero on one seeded with a good
//! fixture.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use uprob_lint::{check_file, LintConfig, SourceFile};

/// The virtual workspace-relative path a fixture is checked under. Lock
/// fixtures reuse the serving layer's path so its declared order applies.
fn virtual_path(rule: &str) -> &'static str {
    match rule {
        "lock-undeclared" | "lock-order-graph" => "crates/query/src/service.rs",
        _ => "crates/core/src/fixture.rs",
    }
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn read_fixture(rule: &str, which: &str) -> String {
    let path = fixtures_dir().join(rule).join(format!("{which}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Extracts the `(line, rule)` expectations from `//~` / `//~v` markers.
/// Multiple markers on one line pin multiple findings on that line.
fn expectations(raw: &str) -> BTreeMap<(usize, String), usize> {
    let mut expected: BTreeMap<(usize, String), usize> = BTreeMap::new();
    for (index, line) in raw.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("//~") {
            let marker = &rest[at + 3..];
            let (target, ids) = match marker.strip_prefix('v') {
                Some(ids) => (index + 2, ids), // next line, 1-based
                None => (index + 1, marker),
            };
            let id = ids
                .split_whitespace()
                .next()
                .expect("marker names a rule")
                .to_string();
            *expected.entry((target, id)).or_default() += 1;
            rest = &rest[at + 3 + 1..];
        }
    }
    expected
}

fn findings_by_line(rule: &str, raw: &str) -> BTreeMap<(usize, String), usize> {
    let file = SourceFile::parse(virtual_path(rule), raw);
    let config = LintConfig::default();
    let mut got: BTreeMap<(usize, String), usize> = BTreeMap::new();
    for finding in check_file(&file, &config) {
        *got.entry((finding.line, finding.rule.to_string()))
            .or_default() += 1;
    }
    got
}

#[test]
fn every_rule_has_a_fixture_pair() {
    for rule in uprob_lint::rules::RULES {
        for which in ["bad", "good"] {
            let path = fixtures_dir().join(rule.id).join(format!("{which}.rs"));
            assert!(path.is_file(), "missing fixture {}", path.display());
        }
    }
}

#[test]
fn bad_fixtures_are_flagged_at_exactly_the_marked_lines() {
    for rule in uprob_lint::rules::RULES {
        let raw = read_fixture(rule.id, "bad");
        let expected = expectations(&raw);
        assert!(
            expected.keys().any(|(_, id)| id == rule.id),
            "{}: bad fixture must mark at least one `{}` finding",
            rule.id,
            rule.id
        );
        let got = findings_by_line(rule.id, &raw);
        assert_eq!(
            got, expected,
            "{}: findings (left) diverge from //~ markers (right)",
            rule.id
        );
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for rule in uprob_lint::rules::RULES {
        let raw = read_fixture(rule.id, "good");
        let got = findings_by_line(rule.id, &raw);
        assert!(
            got.is_empty(),
            "{}: good fixture should be clean, got {got:?}",
            rule.id
        );
    }
}

#[test]
fn explain_covers_every_rule() {
    for rule in uprob_lint::rules::RULES {
        assert!(
            !rule.explanation.trim().is_empty(),
            "{}: empty explanation",
            rule.id
        );
        let resolved = uprob_lint::rules::rule(rule.id).expect("rule resolvable by id");
        assert_eq!(resolved.id, rule.id);
    }
}

// ---------------------------------------------------------------------------
// Exit-code contract of the binary, on throwaway mini-workspaces.
// ---------------------------------------------------------------------------

/// Materializes a one-file mini-workspace whose single product file is the
/// given fixture, and returns its root.
fn mini_workspace(tag: &str, rule: &str, which: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("uprob-lint-corpus-{tag}-{rule}"));
    let _ = std::fs::remove_dir_all(&root);
    let file = root.join(virtual_path(rule));
    std::fs::create_dir_all(file.parent().expect("virtual path has a parent"))
        .expect("create mini workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n")
        .expect("write workspace manifest");
    std::fs::write(&file, read_fixture(rule, which)).expect("write fixture");
    root
}

fn run_check(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_uprob-lint"))
        .args(["--root", &root.display().to_string(), "check"])
        .output()
        .expect("run uprob-lint")
}

#[test]
fn check_exits_nonzero_on_each_bad_fixture() {
    for rule in uprob_lint::rules::RULES {
        let root = mini_workspace("bad", rule.id, "bad");
        let output = run_check(&root);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{}: expected exit 1 on the bad fixture; stdout:\n{}",
            rule.id,
            String::from_utf8_lossy(&output.stdout)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(&format!("[{}]", rule.id)),
            "{}: diagnostics must name the rule; got:\n{stdout}",
            rule.id
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn check_exits_zero_on_each_good_fixture() {
    for rule in uprob_lint::rules::RULES {
        let root = mini_workspace("good", rule.id, "good");
        let output = run_check(&root);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{}: expected exit 0 on the good fixture; stdout:\n{}\nstderr:\n{}",
            rule.id,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
