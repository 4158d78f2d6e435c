//! The hybrid exact→approximate confidence engine on the "hard instance"
//! workload: an answer whose tuples straddle the feasibility wall.
//!
//! ```text
//! cargo run --release --example hybrid_confidence
//! ```
//!
//! The example builds two #P-hard datagen instances — one in the feasible
//! region (12 variables), one in the hard region (100 variables, 1500
//! descriptors) — and runs `conf()` through the three strategies of the
//! engine. On the feasible instance `Hybrid` reproduces `Exact` bit for
//! bit; on the hard one `Exact` aborts with `BudgetExceeded` while
//! `Hybrid` transparently degrades to Karp–Luby sampling under the Dagum
//! et al. optimal stopping rule, reporting the (ε, δ) it guarantees.

use std::time::Instant;

use uprob::prelude::*;
use uprob_datagen::{HardInstance, HardInstanceConfig};

fn report_line(label: &str, report: &ConfidenceReport, elapsed: std::time::Duration) {
    let path = match report.path {
        ResolvedPath::Exact => "exact path".to_string(),
        ResolvedPath::Sampled { fell_back: true } => "sampling (fallback)".to_string(),
        ResolvedPath::Sampled { fell_back: false } => "sampling".to_string(),
    };
    let detail = match &report.sampling {
        Some(s) => format!(
            "{} iterations, guarantees ({}, {})",
            s.iterations, s.epsilon, s.delta
        ),
        None => format!("{} decomposition nodes", report.stats.total_nodes()),
    };
    println!(
        "  {label:<12} p = {:<22} via {path:<20} [{detail}] in {elapsed:?}",
        report.probability
    );
}

fn main() {
    const BUDGET: u64 = 20_000;
    let strategies = [
        ConfidenceStrategy::Exact,
        ConfidenceStrategy::hybrid(BUDGET, 0.05, 0.01),
        ConfidenceStrategy::approximate(0.05, 0.01),
    ];
    let feasible = HardInstance::generate(HardInstanceConfig {
        num_variables: 12,
        alternatives: 4,
        descriptor_length: 4,
        num_descriptors: 24,
        seed: 100,
    });
    let hard = HardInstance::generate(HardInstanceConfig {
        num_variables: 100,
        alternatives: 4,
        descriptor_length: 4,
        num_descriptors: 1_500,
        seed: 11,
    });

    for (name, instance) in [
        ("feasible (n=12, w=24)", &feasible),
        ("hard (n=100, w=1500)", &hard),
    ] {
        println!("{name}:");
        for strategy in &strategies {
            // The exact strategy runs under the same budget, playing the
            // role of the paper's per-run timeout.
            let options = match strategy {
                ConfidenceStrategy::Exact => {
                    DecompositionOptions::indve_minlog().with_budget(BUDGET)
                }
                _ => DecompositionOptions::indve_minlog(),
            };
            let start = Instant::now();
            match estimate_confidence(
                &instance.ws_set,
                &instance.world_table,
                &options,
                strategy,
                None,
            ) {
                Ok(report) => report_line(strategy.name(), &report, start.elapsed()),
                Err(e) => println!(
                    "  {:<12} aborted: {e} (in {:?})",
                    strategy.name(),
                    start.elapsed()
                ),
            }
        }
    }

    // The same wall, seen from the batch conf() path: the hard answer
    // grouped into four tuples completes through the hybrid batch even
    // though every tuple's exact attempt aborts.
    let schema = Schema::new("H", &[("ID", ColumnType::Int)]);
    let mut relation = URelation::new(schema);
    for (i, d) in hard.ws_set.iter().enumerate() {
        relation.push(Tuple::new(vec![Value::Int((i % 4) as i64)]), d.clone());
    }
    let start = Instant::now();
    let batch = answer_confidences_with_strategy(
        &relation,
        &hard.world_table,
        &DecompositionOptions::indve_minlog(),
        &ConfidenceStrategy::hybrid(BUDGET, 0.1, 0.05),
        &ParallelOptions::auto(),
    )
    .expect("the hybrid batch completes where exact aborts");
    println!(
        "hybrid batch over the hard answer: {} tuples ({} sampled, {} total iterations) in {:?}",
        batch.tuples.len(),
        batch.sampled_tuples(),
        batch.sampling_iterations(),
        start.elapsed()
    );
    for (tuple, report) in &batch.tuples {
        println!("  tuple {tuple:?}: conf = {}", report.probability);
    }
    assert_eq!(batch.sampled_tuples(), batch.tuples.len());
}
