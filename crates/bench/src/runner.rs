//! Timed, budgeted runs of every confidence-computation algorithm.

use std::time::{Duration, Instant};

use uprob_approx::{karp_luby_epsilon_delta, optimal_monte_carlo, ApproximationOptions};
use uprob_core::{
    available_workers, confidence, confidence_by_elimination, CoreError, DecompositionOptions,
    VariableHeuristic,
};
use uprob_wsd::{WorldTable, WsSet};

/// The algorithms compared in Section 7.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// Independent partitioning + variable elimination with a heuristic.
    IndVe(VariableHeuristic),
    /// Variable elimination only (minlog heuristic).
    Ve,
    /// ws-descriptor elimination (Section 6).
    We,
    /// Karp–Luby with the classic `4·m·ln(2/δ)/ε²` iteration count.
    KarpLuby {
        /// Relative error bound ε.
        epsilon: f64,
    },
    /// Karp–Luby with the Dagum et al. optimal stopping rule.
    OptimalKarpLuby {
        /// Relative error bound ε.
        epsilon: f64,
    },
}

impl Algorithm {
    /// Short name used in result tables (mirrors the labels of the plots).
    pub fn name(&self) -> String {
        match self {
            Algorithm::IndVe(h) => format!("indve({})", h.name()),
            Algorithm::Ve => "ve".to_string(),
            Algorithm::We => "we".to_string(),
            Algorithm::KarpLuby { epsilon } => format!("kl(e{epsilon})"),
            Algorithm::OptimalKarpLuby { epsilon } => format!("kl-opt(e{epsilon})"),
        }
    }
}

/// The outcome of one timed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunOutcome {
    /// The algorithm finished with this probability estimate.
    Finished {
        /// The computed (or estimated) confidence.
        probability: f64,
        /// Wall-clock time.
        elapsed: Duration,
    },
    /// The node budget was exhausted (the harness's stand-in for the paper's
    /// per-run timeouts).
    BudgetExceeded {
        /// Wall-clock time until the budget fired.
        elapsed: Duration,
    },
}

impl RunOutcome {
    /// The elapsed wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        match self {
            RunOutcome::Finished { elapsed, .. } | RunOutcome::BudgetExceeded { elapsed } => {
                *elapsed
            }
        }
    }

    /// The probability, if the run finished.
    pub fn probability(&self) -> Option<f64> {
        match self {
            RunOutcome::Finished { probability, .. } => Some(*probability),
            RunOutcome::BudgetExceeded { .. } => None,
        }
    }

    /// Renders the elapsed time in seconds, annotating budget-exceeded runs.
    pub fn render_time(&self) -> String {
        match self {
            RunOutcome::Finished { elapsed, .. } => format!("{:.4}", elapsed.as_secs_f64()),
            RunOutcome::BudgetExceeded { elapsed } => {
                format!(">{:.4} (budget)", elapsed.as_secs_f64())
            }
        }
    }
}

/// Runs one algorithm on one ws-set, with an optional node budget for the
/// exact methods.
///
/// # Panics
///
/// Panics on unexpected internal errors (invalid ε/δ, unknown variables);
/// the harness always constructs valid inputs.
pub fn run_algorithm(
    algorithm: Algorithm,
    set: &WsSet,
    table: &WorldTable,
    node_budget: Option<u64>,
) -> RunOutcome {
    let start = Instant::now();
    let finish = |probability: f64, start: Instant| RunOutcome::Finished {
        probability,
        elapsed: start.elapsed(),
    };
    match algorithm {
        Algorithm::IndVe(heuristic) => {
            let options = DecompositionOptions {
                heuristic,
                node_budget,
                ..DecompositionOptions::indve_minlog()
            };
            match confidence(set, table, &options) {
                Ok(result) => finish(result.probability, start),
                Err(CoreError::BudgetExceeded { .. }) => RunOutcome::BudgetExceeded {
                    elapsed: start.elapsed(),
                },
                Err(e) => panic!("INDVE failed: {e}"),
            }
        }
        Algorithm::Ve => {
            let options = DecompositionOptions {
                node_budget,
                ..DecompositionOptions::ve_minlog()
            };
            match confidence(set, table, &options) {
                Ok(result) => finish(result.probability, start),
                Err(CoreError::BudgetExceeded { .. }) => RunOutcome::BudgetExceeded {
                    elapsed: start.elapsed(),
                },
                Err(e) => panic!("VE failed: {e}"),
            }
        }
        Algorithm::We => match confidence_by_elimination(set, table, node_budget) {
            Ok(result) => finish(result.probability, start),
            Err(CoreError::BudgetExceeded { .. }) => RunOutcome::BudgetExceeded {
                elapsed: start.elapsed(),
            },
            Err(e) => panic!("WE failed: {e}"),
        },
        Algorithm::KarpLuby { epsilon } => {
            let options = ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(0.01);
            let result = karp_luby_epsilon_delta(set, table, &options, available_workers())
                .expect("valid parameters");
            finish(result.estimate, start)
        }
        Algorithm::OptimalKarpLuby { epsilon } => {
            let options = ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(0.01);
            let result = optimal_monte_carlo(set, table, &options, available_workers())
                .expect("valid parameters");
            finish(result.estimate, start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_datagen::{HardInstance, HardInstanceConfig};

    fn small_instance() -> HardInstance {
        HardInstance::generate(HardInstanceConfig {
            num_variables: 12,
            alternatives: 2,
            descriptor_length: 2,
            num_descriptors: 20,
            seed: 5,
        })
    }

    #[test]
    fn all_algorithms_roughly_agree_on_a_small_instance() {
        let instance = small_instance();
        let exact = run_algorithm(
            Algorithm::IndVe(VariableHeuristic::MinLog),
            &instance.ws_set,
            &instance.world_table,
            None,
        );
        let exact_p = exact.probability().unwrap();
        for algorithm in [
            Algorithm::IndVe(VariableHeuristic::MinMax),
            Algorithm::Ve,
            Algorithm::We,
            Algorithm::KarpLuby { epsilon: 0.05 },
            Algorithm::OptimalKarpLuby { epsilon: 0.05 },
        ] {
            let outcome = run_algorithm(algorithm, &instance.ws_set, &instance.world_table, None);
            let p = outcome.probability().unwrap();
            let tolerance = match algorithm {
                Algorithm::KarpLuby { .. } | Algorithm::OptimalKarpLuby { .. } => 0.05,
                _ => 1e-9,
            };
            assert!(
                (p - exact_p).abs() <= tolerance,
                "{}: {p} vs {exact_p}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn budgets_surface_as_budget_exceeded() {
        let instance = small_instance();
        for algorithm in [Algorithm::Ve, Algorithm::We] {
            let outcome =
                run_algorithm(algorithm, &instance.ws_set, &instance.world_table, Some(1));
            assert!(
                matches!(outcome, RunOutcome::BudgetExceeded { .. }),
                "{} must honor the node budget",
                algorithm.name()
            );
            assert!(outcome.probability().is_none());
            assert!(outcome.render_time().contains("budget"));
        }
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(Algorithm::Ve.name(), "ve");
        assert_eq!(
            Algorithm::IndVe(VariableHeuristic::MinLog).name(),
            "indve(minlog)"
        );
        assert_eq!(Algorithm::KarpLuby { epsilon: 0.1 }.name(), "kl(e0.1)");
    }
}
