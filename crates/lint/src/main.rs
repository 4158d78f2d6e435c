//! The `uprob-lint` CLI.
//!
//! ```text
//! uprob-lint check [--root PATH]     lint the workspace; nonzero exit on findings
//! uprob-lint rules [--ids]           list registered rules (ids only with --ids)
//! uprob-lint explain <rule>          print the invariant behind a rule
//! uprob-lint locks [--root PATH]     report lock sites against declared orders
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use uprob_lint::analysis::lock_order::collect_acquisitions;
use uprob_lint::{check_workspace, find_workspace_root, rules, LintConfig, SourceFile};

fn main() -> ExitCode {
    let mut command = None;
    let mut operand = None;
    let mut root_flag = None;
    let mut ids_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root_flag = args.next(),
            "--ids" => ids_only = true,
            "--explain" => {
                command = Some("explain".to_string());
                operand = args.next();
            }
            _ if command.is_none() => command = Some(arg),
            _ if operand.is_none() => operand = Some(arg),
            _ => {
                eprintln!("unexpected argument `{arg}`");
                return ExitCode::from(2);
            }
        }
    }
    match command.as_deref() {
        Some("check") => run_check(root_flag),
        Some("rules") => run_rules(ids_only),
        Some("explain") => run_explain(operand.as_deref()),
        Some("locks") => run_locks(root_flag),
        Some(other) => {
            eprintln!("unknown subcommand `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: uprob-lint <check|rules [--ids]|explain <rule>|locks> [--root PATH]");
}

fn resolve_root(root_flag: Option<String>) -> Option<PathBuf> {
    match root_flag {
        Some(path) => Some(PathBuf::from(path)),
        None => {
            let cwd = std::env::current_dir().ok()?;
            find_workspace_root(&cwd)
        }
    }
}

fn run_check(root_flag: Option<String>) -> ExitCode {
    let Some(root) = resolve_root(root_flag) else {
        eprintln!("could not locate a workspace root (pass --root)");
        return ExitCode::from(2);
    };
    let findings = match check_workspace(&root, &LintConfig::default()) {
        Ok(findings) => findings,
        Err(error) => {
            eprintln!("uprob-lint: io error: {error}");
            return ExitCode::from(2);
        }
    };
    if findings.is_empty() {
        println!("uprob-lint: workspace clean ({} rules)", rules::RULES.len());
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "\nuprob-lint: {} finding(s); run `uprob-lint explain <rule>` for the invariant",
        findings.len()
    );
    ExitCode::FAILURE
}

fn run_rules(ids_only: bool) -> ExitCode {
    for rule in rules::RULES {
        if ids_only {
            println!("{}", rule.id);
        } else {
            println!("{:<20} [{}] {}", rule.id, rule.family, rule.summary);
        }
    }
    ExitCode::SUCCESS
}

fn run_explain(operand: Option<&str>) -> ExitCode {
    let Some(id) = operand else {
        eprintln!("usage: uprob-lint explain <rule>");
        return ExitCode::from(2);
    };
    match rules::rule(id) {
        Some(rule) => {
            println!(
                "{} [{}]\n{}\n\n{}",
                rule.id, rule.family, rule.summary, rule.explanation
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{id}`; `uprob-lint rules` lists registered rules");
            ExitCode::from(2)
        }
    }
}

fn run_locks(root_flag: Option<String>) -> ExitCode {
    let Some(root) = resolve_root(root_flag) else {
        eprintln!("could not locate a workspace root (pass --root)");
        return ExitCode::from(2);
    };
    for manifest in LintConfig::default().lock_manifests {
        println!("{}: declared order {:?}", manifest.file, manifest.order);
        let path = root.join(manifest.file);
        let Ok(text) = std::fs::read_to_string(&path) else {
            println!("  (file missing)");
            continue;
        };
        let file = SourceFile::parse(manifest.file, &text);
        let mut scratch = Vec::new();
        let acquisitions = collect_acquisitions(&file, Some(manifest), &mut scratch);
        for acq in &acquisitions {
            let (line, col) = file.position(acq.offset);
            let kind = if acq.named_guard {
                "let-guard"
            } else {
                "temporary"
            };
            let (end_line, _) = file.position(acq.scope_end.min(text.len().saturating_sub(1)));
            println!(
                "  {line}:{col} {} ({kind}, held to line {end_line})",
                acq.name
            );
        }
    }
    ExitCode::SUCCESS
}
