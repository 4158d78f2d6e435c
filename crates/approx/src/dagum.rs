//! The optimal Monte-Carlo estimation of Dagum, Karp, Luby & Ross
//! ("An Optimal Algorithm for Monte Carlo Estimation", SIAM J. Comput. 2000).
//!
//! The paper's experiments use this technique to determine a small
//! sufficient number of Karp–Luby iterations (within a constant factor of
//! optimal) instead of the worst-case `4·m·ln(2/δ)/ε²` bound: statistics are
//! first collected by running the simulation a small number of times, and
//! the final number of iterations is derived from the observed mean and
//! variance. We implement the full AA algorithm: the stopping-rule phase,
//! the variance-estimation phase, and the final estimation phase.

use uprob_wsd::{NeumaierSum, WorldTable, WsSet};

use crate::karp_luby::KarpLuby;
use crate::parallel::stream_sum;
use crate::{ApproximationOptions, Result};

/// Result of the optimal Monte-Carlo estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoppingRuleResult {
    /// The (scaled) probability estimate.
    pub estimate: f64,
    /// Iterations used by the stopping-rule phase.
    pub stopping_iterations: u64,
    /// Iterations used by the variance and estimation phases.
    pub refinement_iterations: u64,
}

impl StoppingRuleResult {
    /// Total number of Monte-Carlo iterations.
    pub fn total_iterations(&self) -> u64 {
        self.stopping_iterations + self.refinement_iterations
    }
}

/// λ = e − 2, the constant of the zero-one estimator theorem.
const LAMBDA: f64 = std::f64::consts::E - 2.0;

/// Disjoint RNG-stream bases for the three phases, so no stream index is
/// ever shared between phases (or with a caller using small bases).
const PHASE1_STREAM: u64 = 1 << 40;
const PHASE2_STREAM_BASE: u64 = 2 << 40;
const PHASE3_STREAM_BASE: u64 = 3 << 40;

/// Runs the AA algorithm on the Karp–Luby estimator variable `Z ∈ [0, 1]`
/// (whose expectation is `confidence / M`), returning the confidence
/// estimate `M · μ̂`.
///
/// # Errors
///
/// Fails if ε or δ are invalid or the set refers to unknown variables.
pub fn optimal_monte_carlo(
    set: &WsSet,
    table: &WorldTable,
    options: &ApproximationOptions,
    workers: usize,
) -> Result<StoppingRuleResult> {
    options.validate()?;
    let estimator = KarpLuby::new(set, table)?;
    if set.contains_universal() {
        return Ok(StoppingRuleResult {
            estimate: 1.0,
            stopping_iterations: 0,
            refinement_iterations: 0,
        });
    }
    optimal_monte_carlo_prepared(&estimator, options, workers)
}

/// [`optimal_monte_carlo`] once the set's [`KarpLuby`] estimator
/// (descriptor weights + sampling tables) is built. Every estimate prepares
/// its own estimator; the unit tests call this directly to run one
/// estimator under several seeds and worker counts.
///
/// The adaptive stopping-rule phase runs sequentially on the RNG of a
/// reserved stream; the variance and final-estimation phases (which have
/// fixed iteration counts) are fanned out over up to `workers` sampling
/// threads with per-stream deterministic RNGs, so the result depends only
/// on `options.seed` — never on the worker count.
///
/// # Errors
///
/// Fails if ε or δ are invalid.
fn optimal_monte_carlo_prepared(
    estimator: &KarpLuby,
    options: &ApproximationOptions,
    workers: usize,
) -> Result<StoppingRuleResult> {
    options.validate()?;
    if let Some(p) = estimator.degenerate(1) {
        return Ok(StoppingRuleResult {
            estimate: p,
            stopping_iterations: 0,
            refinement_iterations: 0,
        });
    }
    let mut rng = options.rng_for_stream(PHASE1_STREAM);
    let mut world = estimator.scratch();
    // The AA algorithm works with accuracy ε' = min(1/2, sqrt(ε)) in its
    // first phase and δ/3 per phase.
    let epsilon = options.epsilon;
    let delta = options.delta / 3.0;
    let epsilon1 = (epsilon.sqrt()).min(0.5);

    // Phase 1: stopping rule with accuracy (ε₁, δ/3) — gives a coarse μ̂.
    // Inherently sequential (stop as soon as the running sum crosses υ₁).
    let upsilon = 4.0 * LAMBDA * (2.0 / delta).ln() / (epsilon * epsilon);
    let upsilon1 =
        1.0 + (1.0 + epsilon1) * 4.0 * LAMBDA * (2.0 / delta).ln() / (epsilon1 * epsilon1);
    let mut sum = 0.0;
    let mut n1 = 0u64;
    while sum < upsilon1 {
        sum += estimator.sample(&mut rng, &mut world);
        n1 += 1;
    }
    let mu_hat = upsilon1 / n1 as f64;

    // Phase 2: estimate the variance ρ̂ from pairs of samples, in parallel
    // over deterministic streams (each iteration draws one pair).
    let n2 = (upsilon * epsilon1 / mu_hat).ceil().max(1.0) as u64;
    let variance_sum = stream_sum(
        n2,
        workers,
        |stream| options.rng_for_stream(PHASE2_STREAM_BASE + stream),
        |rng, count| {
            let mut world = estimator.scratch();
            let mut local = NeumaierSum::new();
            for _ in 0..count {
                let a = estimator.sample(rng, &mut world);
                let b = estimator.sample(rng, &mut world);
                local.add((a - b) * (a - b) / 2.0);
            }
            local.value()
        },
    );
    let rho_hat = (variance_sum / n2 as f64).max(epsilon * mu_hat);

    // Phase 3: final estimate with the optimal number of samples, again in
    // parallel over deterministic streams.
    let n3 = (upsilon * rho_hat / (mu_hat * mu_hat)).ceil().max(1.0) as u64;
    let final_sum = estimator.sample_sum_streams(n3, options, PHASE3_STREAM_BASE, workers);
    let mu_final = final_sum / n3 as f64;
    Ok(StoppingRuleResult {
        estimate: (estimator.total_weight() * mu_final).min(1.0),
        stopping_iterations: n1,
        refinement_iterations: 2 * n2 + n3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_wsd::{VarId, WsDescriptor};

    fn independent_booleans(n: usize, p: f64) -> (WorldTable, Vec<VarId>, WsSet) {
        let mut w = WorldTable::new();
        let vars: Vec<VarId> = (0..n)
            .map(|i| w.add_boolean(&format!("t{i}"), p).unwrap())
            .collect();
        let set: WsSet = vars
            .iter()
            .map(|&v| WsDescriptor::from_pairs(&w, &[(v, 1)]).unwrap())
            .collect();
        (w, vars, set)
    }

    #[test]
    fn optimal_estimation_is_accurate() {
        let (w, _, set) = independent_booleans(8, 0.2);
        let exact = 1.0 - 0.8f64.powi(8);
        let options = ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.05)
            .with_seed(3);
        let result = optimal_monte_carlo(&set, &w, &options, 1).unwrap();
        assert!(
            (result.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "estimate {} vs exact {exact}",
            result.estimate
        );
        assert!(result.total_iterations() > 0);
    }

    #[test]
    fn optimal_stopping_beats_the_worst_case_bound() {
        // The point of the Dagum et al. technique in the paper's experiments
        // is to pick a number of iterations much smaller than the classic
        // worst-case bound 4·m·ln(2/δ)/ε² while keeping the (ε, δ)
        // guarantee. Check that on a near-certain union the adaptive run
        // stays well below that bound and remains accurate.
        let options = ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.05)
            .with_seed(11);
        let (w_many, _, set_many) = independent_booleans(64, 0.5);
        let estimator = KarpLuby::new(&set_many, &w_many).unwrap();
        let worst_case = estimator.iteration_bound(options.epsilon, options.delta);
        let near_certain = optimal_monte_carlo(&set_many, &w_many, &options, 2).unwrap();
        assert!(near_certain.estimate > 0.99);
        assert!(
            near_certain.total_iterations() < worst_case / 2,
            "adaptive {} vs worst case {worst_case}",
            near_certain.total_iterations()
        );
        // A rare union is also handled accurately.
        let (w_rare, _, set_rare) = independent_booleans(2, 0.01);
        let rare = optimal_monte_carlo(&set_rare, &w_rare, &options, 2).unwrap();
        assert!(rare.estimate < 0.05);
    }

    #[test]
    fn degenerate_sets_short_circuit() {
        let (w, _, _) = independent_booleans(2, 0.5);
        let options = ApproximationOptions::default();
        let empty = optimal_monte_carlo(&WsSet::empty(), &w, &options, 1).unwrap();
        assert_eq!(empty.estimate, 0.0);
        assert_eq!(empty.total_iterations(), 0);
        let all = optimal_monte_carlo(&WsSet::universal(), &w, &options, 1).unwrap();
        assert_eq!(all.estimate, 1.0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (w, _, set) = independent_booleans(2, 0.5);
        let options = ApproximationOptions::default().with_delta(1.5);
        assert!(optimal_monte_carlo(&set, &w, &options, 1).is_err());
        let estimator = KarpLuby::new(&set, &w).unwrap();
        assert!(optimal_monte_carlo_prepared(&estimator, &options, 1).is_err());
    }

    #[test]
    fn prepared_estimator_is_reusable_and_worker_count_independent() {
        let (w, _, set) = independent_booleans(8, 0.2);
        let exact = 1.0 - 0.8f64.powi(8);
        let estimator = KarpLuby::new(&set, &w).unwrap();
        let base = ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.05)
            .with_seed(41);
        let reference = optimal_monte_carlo_prepared(&estimator, &base, 1).unwrap();
        assert!(
            (reference.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "estimate {} vs exact {exact}",
            reference.estimate
        );
        for workers in [2usize, 8] {
            let got = optimal_monte_carlo_prepared(&estimator, &base, workers).unwrap();
            assert_eq!(
                got.estimate.to_bits(),
                reference.estimate.to_bits(),
                "workers {workers}"
            );
            assert_eq!(got.total_iterations(), reference.total_iterations());
        }
        // Reusing the estimator with a fresh seed is a fresh, but still
        // deterministic, run.
        let reseeded = optimal_monte_carlo_prepared(&estimator, &base.with_seed(99), 2).unwrap();
        let reseeded_again =
            optimal_monte_carlo_prepared(&estimator, &base.with_seed(99), 2).unwrap();
        assert_eq!(reseeded, reseeded_again);
        assert!((reseeded.estimate - exact).abs() <= 0.05 * exact + 0.01);
    }
}
