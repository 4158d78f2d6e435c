//! # uprob-bench — the experiment harness of Section 7
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation: workload construction, timed runs of each algorithm
//! (INDVE/VE with both heuristics, WE, Karp–Luby with the classic and the
//! optimal iteration rule), and plain-text result tables. The `experiments`
//! binary drives full sweeps; the Criterion benches under `benches/` reuse
//! the same builders with smaller instances for quick regression tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod parallel;
pub mod runner;
pub mod table;

pub use experiments::{
    ablation_conditioning, ablation_decomposition, fig10, fig11a, fig11b, fig12, fig13,
    ingest_load, orders_lineitem_join_plan, parallel_scaling, planned_vs_eager, serve_load,
    ExperimentScale,
};
pub use parallel::{available_cores, ParallelWorkload, ParallelWorkloadConfig};
pub use runner::{run_algorithm, Algorithm, RunOutcome};
pub use table::ResultTable;
