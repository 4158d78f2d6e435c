//! Workspace invariants that neither the types nor clippy can hold, checked
//! over the source tree (DESIGN.md "Invariants as types and clippy"):
//!
//! * every product crate root carries the clippy gate line, so the per-site
//!   lints and the `clippy.toml` lists apply to it;
//! * no product crate depends on the oracles of `uprob-reference`;
//! * no product code accumulates a float with a raw `+=`, except the sites
//!   on [`RAW_SUMS`], each with its reason;
//! * the standing counts of ROADMAP.md — product `pub fn`s, clippy
//!   exemptions and product lines of code — stay at or under [`CEILINGS`].

use std::path::{Path, PathBuf};

/// The product crates, by package directory relative to the workspace root
/// (`""` is the facade). Their non-test library code is what the paper's
/// contracts cover.
const PRODUCT_CRATES: &[&str] = &[
    "",
    "crates/wsd",
    "crates/urel",
    "crates/core",
    "crates/approx",
    "crates/query",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

/// The gate, as written in every gated `lib.rs` (rustfmt breaks it over
/// several lines; the comparison ignores whitespace).
const GATE: &str = "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, \
    clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, \
    clippy::indexing_slicing, clippy::disallowed_types, clippy::disallowed_methods, \
    clippy::allow_attributes_without_reason))]";

fn without_whitespace(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Dropping the gate from one crate would switch its clippy half off
/// silently; dropping a lint from the gate, or an entry from `clippy.toml`,
/// fails `cargo clippy -- -D warnings` through `src/clippy_contract.rs`.
#[test]
fn every_gated_crate_root_carries_the_clippy_gate() {
    let gate = without_whitespace(GATE);
    for package in PRODUCT_CRATES {
        let lib = root().join(package).join("src/lib.rs");
        assert!(
            without_whitespace(&read(&lib)).contains(&gate),
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
    // Renaming the oracle crate would make the check below vacuous.
    let oracle = read(&root().join("crates/reference/Cargo.toml"));
    assert!(
        oracle
            .lines()
            .any(|l| l.trim() == format!("name = \"{ORACLE}\"")),
        "crates/reference is no longer `{ORACLE}`"
    );
    let mut offenders = Vec::new();
    for package in PRODUCT_CRATES {
        let manifest = root().join(package).join("Cargo.toml");
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

/// The module that implements summation, and so may accumulate raw.
const NUMERIC_POLICY: &str = "crates/wsd/src/numeric.rs";

/// The raw float accumulations product code keeps: (file, binding, reason).
/// An entry that no longer matches anything fails like an unfulfilled
/// `#[expect]`, so the list only shrinks to what is still justified.
const RAW_SUMS: &[(&str, &str, &str)] = &[
    (
        "crates/approx/src/dagum.rs",
        "sum",
        "stopping-rule tally: the AA algorithm compares the raw running sum against its threshold; bits are pinned by the seeded statistical suites",
    ),
    (
        "crates/approx/src/sampler.rs",
        "acc",
        "CDF prefix sums: bits are pinned by the seeded statistical suites, and per-variable domains are tiny",
    ),
    (
        "crates/approx/src/sampler.rs",
        "total_weight",
        "proposal-weight tally: bits are pinned by the seeded statistical suites; Monte-Carlo error dominates rounding",
    ),
    (
        "crates/core/src/heuristics.rs",
        "estimate",
        "Figure 6 log-sum-exp recurrence, not a plain sum: each step rescales the accumulator",
    ),
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `code` with every `//` comment blanked, so a comment neither binds nor
/// accumulates.
fn without_line_comments(code: &str) -> String {
    code.lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// True if `text` holds a `<digits>.<digits>` literal; a tuple index chain
/// such as `x.0.1` does not start with a digit.
fn has_float_literal(text: &str) -> bool {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .filter(|token| token.starts_with(|c: char| c.is_ascii_digit()))
        .any(|token| {
            token
                .as_bytes()
                .windows(3)
                .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
        })
}

/// The locals of `code` bound with a float type or a float-literal
/// initializer: `let [mut] name[: T] = …;` where the rest of the statement
/// names `f64` / `f32` or holds a float literal.
fn float_locals(code: &str) -> Vec<&str> {
    let mut names: Vec<&str> = code
        .match_indices("let ")
        .filter(|&(at, _)| at == 0 || !is_ident_byte(code.as_bytes()[at - 1]))
        .filter_map(|(at, _)| {
            let rest = code[at + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let len = rest.bytes().take_while(|&b| is_ident_byte(b)).count();
            let (name, tail) = rest.split_at(len);
            let statement = tail.split(';').next().unwrap_or("");
            let typed = statement
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .any(|word| word == "f64" || word == "f32");
            (!name.is_empty() && (typed || has_float_literal(statement))).then_some(name)
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// The float locals of `code` that some statement accumulates with
/// `name += …` (a field, `x.name += …`, is not a local).
fn raw_accumulations(code: &str) -> Vec<&str> {
    float_locals(code)
        .into_iter()
        .filter(|name| {
            code.match_indices(name).any(|(at, _)| {
                let before = code[..at].bytes().next_back();
                let after = code[at + name.len()..].trim_start();
                !before.is_some_and(|b| is_ident_byte(b) || b == b'.') && after.starts_with("+=")
            })
        })
        .collect()
}

/// Every `.rs` file under `dir`, sorted.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            found.extend(sources(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            found.push(path);
        }
    }
    found.sort();
    found
}

/// `text` up to its first `mod tests`: the non-test library code of a
/// product source.
fn library_part(text: &str) -> &str {
    text.find("mod tests").map_or(text, |at| &text[..at])
}

/// The numeric policy: floats are summed through `uprob_wsd::NeumaierSum`.
/// `.sum()` is a `clippy.toml` disallowed method; this is the `+=` half.
/// Each product source is cut at its first `mod tests`, and the policy
/// module itself is exempt.
#[test]
fn float_accumulation_is_compensated_outside_the_allowlist() {
    let mut found: Vec<(String, String)> = Vec::new();
    for package in PRODUCT_CRATES {
        for path in sources(&root().join(package).join("src")) {
            let file = path
                .strip_prefix(root())
                .expect("under the workspace root")
                .to_string_lossy()
                .replace('\\', "/");
            if file == NUMERIC_POLICY {
                continue;
            }
            let text = read(&path);
            let code = without_line_comments(library_part(&text));
            found.extend(
                raw_accumulations(&code)
                    .into_iter()
                    .map(|name| (file.clone(), name.to_string())),
            );
        }
    }
    let allowed = |file: &str, name: &str| RAW_SUMS.iter().any(|&(f, n, _)| f == file && n == name);
    let unlisted: Vec<_> = found.iter().filter(|(f, n)| !allowed(f, n)).collect();
    assert!(
        unlisted.is_empty(),
        "raw float `+=` outside {NUMERIC_POLICY}: fold through NeumaierSum, or add (file, binding, reason) to RAW_SUMS: {unlisted:?}"
    );
    let stale: Vec<_> = RAW_SUMS
        .iter()
        .filter(|&&(f, n, _)| !found.iter().any(|(ff, nn)| ff == f && nn == n))
        .collect();
    assert!(
        stale.is_empty(),
        "RAW_SUMS entries that no longer match a raw accumulation: {stale:?}"
    );
}

#[test]
fn the_accumulation_scan_sees_what_it_must() {
    let code = "let mut total = 0.0;\nfor x in xs { total += x; }\n\
                let mut n = 0usize;\nn += 1;\n\
                let mut weight: f64 = start;\nself.weight += 1.0;\n\
                let t = x.0.1;\nt += 1;";
    assert_eq!(float_locals(code), ["total", "weight"]);
    assert_eq!(raw_accumulations(code), ["total"]);
}

/// The standing counts of ROADMAP.md, measured by [`standing_counts`].
#[derive(Debug)]
struct Counts {
    /// `pub fn` items of non-test product code.
    pub_fns: usize,
    /// `#[expect(clippy::..)]` exemptions of non-test product code.
    expects: usize,
    /// Non-blank, non-comment lines of non-test product code.
    loc: usize,
}

/// The committed ceilings. Raising one is an explicit edit here with its
/// reason in CHANGES.md, as for [`RAW_SUMS`]; lowering one after a cut
/// keeps the next change honest.
const CEILINGS: Counts = Counts {
    pub_fns: 332,
    expects: 51,
    loc: 7962,
};

/// The module files declared in `code` (the source at `path`) that are never
/// built into the library: `mod name;` under `#[cfg(test)]` or
/// `#[cfg(clippy)]`.
fn gated_modules(path: &Path, code: &str) -> Vec<PathBuf> {
    let lines: Vec<&str> = code.lines().map(str::trim).collect();
    lines
        .windows(2)
        .filter(|pair| pair[0] == "#[cfg(test)]" || pair[0] == "#[cfg(clippy)]")
        .filter_map(|pair| {
            let name = pair[1]
                .trim_start_matches("pub ")
                .trim_start_matches("pub(crate) ")
                .strip_prefix("mod ")?
                .strip_suffix(';')?;
            Some(path.with_file_name(format!("{name}.rs")))
        })
        .collect()
}

/// Counts every product source's library part (cut at its first
/// `mod tests`), leaving out the files only tests or clippy compile
/// (`uprob-core`'s `reference.rs`, the facade's `clippy_contract.rs`).
fn standing_counts() -> Counts {
    let files: Vec<(PathBuf, String)> = PRODUCT_CRATES
        .iter()
        .flat_map(|package| sources(&root().join(package).join("src")))
        .map(|path| {
            let text = read(&path);
            (path, text)
        })
        .collect();
    let gated: Vec<PathBuf> = files
        .iter()
        .flat_map(|(path, text)| gated_modules(path, text))
        .collect();
    let mut counts = Counts {
        pub_fns: 0,
        expects: 0,
        loc: 0,
    };
    for (_, text) in files.iter().filter(|(path, _)| !gated.contains(path)) {
        let library = library_part(text);
        let code = without_line_comments(library);
        counts.pub_fns += code.matches("pub fn ").count();
        counts.expects += without_whitespace(&code)
            .matches("[expect(clippy::")
            .count();
        counts.loc += library
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with("//"))
            .count();
    }
    counts
}

/// ROADMAP.md's standing counts do not go up.
#[test]
fn standing_counts_do_not_go_up() {
    let counts = standing_counts();
    println!("{counts:?}");
    let over: Vec<String> = [
        ("product `pub fn`", counts.pub_fns, CEILINGS.pub_fns),
        ("clippy exemptions", counts.expects, CEILINGS.expects),
        ("product LoC", counts.loc, CEILINGS.loc),
    ]
    .into_iter()
    .filter(|&(_, count, ceiling)| count > ceiling)
    .map(|(what, count, ceiling)| format!("{what}: {count} > {ceiling}"))
    .collect();
    assert!(
        over.is_empty(),
        "standing counts went up (raise a CEILINGS entry only with its reason in CHANGES.md): {over:?}"
    );
}
