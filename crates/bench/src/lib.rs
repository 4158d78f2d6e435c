//! # uprob-bench — the experiment harness of Section 7
//!
//! Shared machinery for regenerating the tables and figures of the paper's
//! evaluation (Fig. 10–13 and two ablations): workload construction, timed
//! runs of each algorithm (INDVE/VE with both heuristics, WE, Karp–Luby
//! with the classic and the optimal iteration rule), and plain-text result
//! tables. The `experiments` binary drives the sweeps. Serving, ingest, planned execution
//! and parallel folding are measured by the repository benchmark
//! (`perfbench/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod table;

pub use experiments::{
    ablation_conditioning, ablation_decomposition, fig10, fig11a, fig11b, fig12, fig13,
    ExperimentScale,
};
pub use runner::{run_algorithm, Algorithm, RunOutcome};
pub use table::ResultTable;
