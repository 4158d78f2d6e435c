//! Confidence computation on probabilistic TPC-H (the Figure 10 workload).
//!
//! Generates a tuple-independent probabilistic TPC-H database, evaluates the
//! paper's Boolean queries Q1 (customer ⋈ orders ⋈ lineitem) and Q2
//! (a selection on lineitem), and computes the confidence of each answer
//! ws-set with every algorithm in the library: INDVE (minlog and minmax),
//! VE, ws-descriptor elimination, and the Karp–Luby approximation.
//!
//! Run with `cargo run --release --example tpch_confidence` (release mode
//! recommended; the default instance is deliberately modest).

use std::time::Instant;

use uprob::datagen::{q1_answer, q2_answer, TpchConfig, TpchDatabase};
use uprob::prelude::*;

fn main() {
    // A scaled-down instance so the example finishes in seconds even in
    // debug builds; crank `row_scale` up (e.g. 1.0) to approach the paper's
    // absolute sizes.
    let config = TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(2008);
    let started = Instant::now();
    let data = TpchDatabase::generate(config);
    println!(
        "generated probabilistic TPC-H: {} customers, {} orders, {} lineitems, {} Boolean variables ({:.1?})",
        data.db.relation("customer").expect("customer exists").len(),
        data.db.relation("orders").expect("orders exists").len(),
        data.db.relation("lineitem").expect("lineitem exists").len(),
        data.input_variables(),
        started.elapsed(),
    );

    for (name, answer) in [("Q1", q1_answer(&data)), ("Q2", q2_answer(&data))] {
        println!("\n== {name} ==");
        println!(
            "answer ws-set: {} descriptors over {} input variables",
            answer.ws_set_size(),
            answer.input_variables
        );

        let table = data.db.world_table();
        let report = |label: &str, value: f64, elapsed: std::time::Duration| {
            println!("  {label:<22} {value:.6}   ({elapsed:.1?})");
        };

        let t = Instant::now();
        let indve = confidence(&answer.ws_set, table, &DecompositionOptions::indve_minlog())
            .expect("INDVE succeeds");
        report("INDVE(minlog)", indve.probability, t.elapsed());

        let t = Instant::now();
        let minmax = confidence(&answer.ws_set, table, &DecompositionOptions::indve_minmax())
            .expect("INDVE succeeds");
        report("INDVE(minmax)", minmax.probability, t.elapsed());

        // Without independent partitioning, plain VE degrades badly on the
        // join query Q1 (the finding of Figure 11(b)); run it under a node
        // budget so the example always terminates quickly.
        let t = Instant::now();
        let ve_options = DecompositionOptions::ve_minlog().with_budget(200_000);
        match confidence(&answer.ws_set, table, &ve_options) {
            Ok(ve) => {
                report("VE(minlog)", ve.probability, t.elapsed());
                assert!((ve.probability - indve.probability).abs() < 1e-9);
            }
            Err(uprob::core::CoreError::BudgetExceeded { budget }) => {
                println!(
                    "  {:<22} aborted: exceeded the {budget}-node budget ({:.1?}) — \
                     independence partitioning is essential here",
                    "VE(minlog)",
                    t.elapsed()
                );
            }
            Err(e) => panic!("VE failed: {e}"),
        }

        // Descriptor elimination is exponential on Q1-like inputs; keep it
        // to the selection query where descriptors are independent.
        if name == "Q2" {
            let t = Instant::now();
            let we = confidence_by_elimination(&answer.ws_set, table, None).expect("WE succeeds");
            report("WE", we.probability, t.elapsed());
        }

        let t = Instant::now();
        let kl = karp_luby_epsilon_delta(
            &answer.ws_set,
            table,
            &ApproximationOptions::default()
                .with_epsilon(0.1)
                .with_delta(0.01),
            available_workers(),
        )
        .expect("Karp-Luby succeeds");
        report("KL(eps=.1)", kl.estimate, t.elapsed());
        println!("  KL iterations: {}", kl.iterations);

        let agreement = (indve.probability - minmax.probability).abs();
        println!("  exact methods agree within {agreement:.2e}");
        println!(
            "  decomposition: {} nodes, {} ⊗, {} ⊕, depth {}",
            indve.stats.total_nodes(),
            indve.stats.independent_nodes,
            indve.stats.choice_nodes,
            indve.stats.max_depth
        );
    }
}
