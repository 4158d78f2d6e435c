//! The experiment driver: regenerates the tables/figures of Section 7.
//!
//! ```text
//! cargo run --release -p uprob-bench --bin experiments -- [--exp NAME] [--paper] [--csv]
//! ```
//!
//! `NAME` is one of `fig10`, `fig11a`, `fig11b`, `fig12`, `fig13`,
//! `ablation`, `conditioning` or `all` (default). `--paper` switches from
//! the quick instance sizes to sizes close to the paper's (slower). `--csv`
//! additionally prints each table as CSV for post-processing.

use std::env;
use std::process::ExitCode;

use uprob_bench::runner::with_large_stack;
use uprob_bench::{
    ablation_conditioning, ablation_decomposition, fig10, fig11a, fig11b, fig12, fig13,
    ExperimentScale, ResultTable,
};

/// One sweep: builds its workloads at a scale and times them.
type Experiment = fn(ExperimentScale) -> ResultTable;

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 7] = [
    ("fig10", fig10),
    ("fig11a", fig11a),
    ("fig11b", fig11b),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablation", ablation_decomposition),
    ("conditioning", ablation_conditioning),
];

fn main() -> ExitCode {
    let mut experiment = "all".to_string();
    let mut scale = ExperimentScale::Quick;
    let mut csv = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exp" => {
                experiment = args.next().unwrap_or_else(|| {
                    eprintln!("--exp requires a value");
                    std::process::exit(2);
                });
            }
            "--paper" => scale = ExperimentScale::Paper,
            "--quick" => scale = ExperimentScale::Quick,
            "--csv" => csv = true,
            "--help" | "-h" => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                println!(
                    "usage: experiments [--exp {}|all] [--paper] [--csv]",
                    names.join("|")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| experiment == "all" || experiment == *name)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {experiment}");
        return ExitCode::from(2);
    }
    for &(_, run) in selected {
        let table = with_large_stack(move || run(scale));
        println!("{table}");
        if csv {
            println!("{}", table.to_csv());
        }
    }
    ExitCode::SUCCESS
}
