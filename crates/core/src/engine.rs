//! The unified confidence engine: exact, approximate and hybrid strategies.
//!
//! The paper pairs the exact ws-tree decomposition (Sections 4–6) with
//! Karp–Luby sampling under the Dagum–Karp–Luby–Ross optimal stopping rule
//! (Section 7) for instances where exact computation is infeasible. This
//! module makes that pairing a first-class, explicit choice:
//!
//! * [`ConfidenceStrategy::Exact`] — the decomposition fold of
//!   [`mod@crate::confidence`], with whatever budget the caller configured;
//! * [`ConfidenceStrategy::Approximate`] — Karp–Luby sampling with the
//!   optimal stopping rule, never touching the exact path;
//! * [`ConfidenceStrategy::Hybrid`] — run the (cached) exact decomposition
//!   under a node budget and, on [`crate::CoreError::BudgetExceeded`],
//!   transparently fall back to sampling.
//!
//! The **fallback contract**: on instances the exact path completes within
//! budget, `Hybrid` returns the exact path's bit-identical probability (no
//! spurious fallback, [`ResolvedPath::Exact`]); on instances it aborts,
//! `Hybrid` returns a sampled estimate with the requested (ε, δ) guarantee
//! and reports it as [`ResolvedPath::Sampled`] with `fell_back: true`.
//! Errors other than the exhausted budget are never masked by sampling.
//!
//! Conditioned confidence `P(Q | C) = P(Q ∧ C) / P(C)` is supported under
//! every strategy (exactly as a ratio of two decomposition folds, via
//! [`uprob_approx::conditioned`] when sampling), so constraint assertion and
//! batch tuple confidence work on instances where exact conditioning blows
//! up — see `uprob-query`.

use uprob_approx::{conditioned_monte_carlo, optimal_monte_carlo, ApproximationOptions};
use uprob_wsd::{WorldTable, WsSet};

use crate::cache::SharedDecompositionCache;
use crate::decompose::DecompositionOptions;
use crate::error::CoreError;
use crate::parallel::{confidence_parallel, ParallelOptions};
use crate::stats::{Confidence, DecompositionStats};
use crate::Result;

/// How a confidence value should be computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfidenceStrategy {
    /// Exact decomposition only; an exhausted node budget is an error.
    Exact,
    /// Karp–Luby sampling with the Dagum et al. optimal stopping rule at
    /// the given (ε, δ); the exact path is never attempted.
    Approximate(ApproximationOptions),
    /// Exact decomposition under `budget` nodes, falling back to sampling
    /// at `approx`'s (ε, δ) when the budget is exhausted.
    Hybrid {
        /// Node budget for the exact attempt (the same unit as
        /// [`DecompositionOptions::node_budget`]).
        budget: u64,
        /// Parameters of the sampling fallback.
        approx: ApproximationOptions,
    },
}

impl ConfidenceStrategy {
    /// An approximate strategy with the given (ε, δ) and default seed.
    pub fn approximate(epsilon: f64, delta: f64) -> Self {
        ConfidenceStrategy::Approximate(
            ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(delta),
        )
    }

    /// A hybrid strategy with the given exact-node budget and sampling
    /// (ε, δ), with the default seed.
    pub fn hybrid(budget: u64, epsilon: f64, delta: f64) -> Self {
        ConfidenceStrategy::Hybrid {
            budget,
            approx: ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(delta),
        }
    }

    /// Short name used in reports and benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            ConfidenceStrategy::Exact => "exact",
            ConfidenceStrategy::Approximate(_) => "approximate",
            ConfidenceStrategy::Hybrid { .. } => "hybrid",
        }
    }

    /// The sampling options, if this strategy can sample.
    pub fn approx_options(&self) -> Option<&ApproximationOptions> {
        match self {
            ConfidenceStrategy::Exact => None,
            ConfidenceStrategy::Approximate(a) => Some(a),
            ConfidenceStrategy::Hybrid { approx, .. } => Some(approx),
        }
    }

    /// Returns a copy with the sampling seed replaced (no-op for `Exact`).
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            ConfidenceStrategy::Exact => ConfidenceStrategy::Exact,
            ConfidenceStrategy::Approximate(a) => {
                ConfidenceStrategy::Approximate(a.with_seed(seed))
            }
            ConfidenceStrategy::Hybrid { budget, approx } => ConfidenceStrategy::Hybrid {
                budget,
                approx: approx.with_seed(seed),
            },
        }
    }

    /// Derives the strategy for the `stream`-th unit of a batch: the
    /// sampling seed is re-derived through
    /// [`ApproximationOptions::stream_seed`], so every tuple of a batch
    /// samples from its own deterministic RNG stream regardless of which
    /// worker thread runs it.
    pub fn for_stream(self, stream: u64) -> Self {
        match self.approx_options() {
            Some(a) => {
                let seed = a.stream_seed(stream);
                self.with_seed(seed)
            }
            None => self,
        }
    }
}

/// Which computation actually produced a reported probability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedPath {
    /// The exact decomposition fold completed (within budget, if any).
    Exact,
    /// Karp–Luby/Dagum sampling produced the value.
    Sampled {
        /// True if sampling was the *fallback* of a hybrid run whose exact
        /// attempt exhausted its budget; false if the strategy was
        /// approximate from the start.
        fell_back: bool,
    },
}

impl ResolvedPath {
    /// True if the value came out of the sampling path.
    pub fn is_sampled(&self) -> bool {
        matches!(self, ResolvedPath::Sampled { .. })
    }
}

/// Sampling metadata of a [`ConfidenceReport`], the Monte-Carlo counterpart
/// of [`DecompositionStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingStats {
    /// Total Monte-Carlo iterations across all phases (and both
    /// sub-estimates, for a conditioned run).
    pub iterations: u64,
    /// The relative error bound ε the run guarantees.
    pub epsilon: f64,
    /// The failure probability δ of that guarantee.
    pub delta: f64,
}

/// The result of a strategy-driven confidence computation: the probability
/// plus how it was obtained and what it cost.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfidenceReport {
    /// The computed (or estimated) probability.
    pub probability: f64,
    /// The strategy that was requested (its short [`ConfidenceStrategy::name`]).
    pub strategy: &'static str,
    /// Which path produced the value.
    pub path: ResolvedPath,
    /// Exact-path decomposition counters (zeroed when the exact path was
    /// never attempted; the counters of an *aborted* attempt are not
    /// recoverable and contribute zero after a fallback, but exact folds
    /// that did complete — e.g. the exact denominator of a partially
    /// fallen-back conditioned ratio — are counted).
    pub stats: DecompositionStats,
    /// Sampling metadata, present iff the value was sampled.
    pub sampling: Option<SamplingStats>,
}

impl ConfidenceReport {
    fn exact(strategy: &ConfidenceStrategy, run: Confidence) -> Self {
        ConfidenceReport {
            probability: run.probability,
            strategy: strategy.name(),
            path: ResolvedPath::Exact,
            stats: run.stats,
            sampling: None,
        }
    }

    fn sampled(
        strategy: &ConfidenceStrategy,
        probability: f64,
        iterations: u64,
        approx: &ApproximationOptions,
        fell_back: bool,
    ) -> Self {
        ConfidenceReport {
            probability,
            strategy: strategy.name(),
            path: ResolvedPath::Sampled { fell_back },
            stats: DecompositionStats::default(),
            sampling: Some(SamplingStats {
                iterations,
                epsilon: approx.epsilon,
                delta: approx.delta,
            }),
        }
    }
}

/// Computes the confidence of `set` under the given strategy.
///
/// A shared decomposition cache benefits the exact path of `Exact` and
/// `Hybrid` runs exactly as in [`confidence_parallel`]; the sampling path
/// does not consult it.
///
/// # Errors
///
/// * `Exact`: any error of the exact fold, including
///   [`CoreError::BudgetExceeded`];
/// * `Approximate` / `Hybrid`: invalid (ε, δ) or unknown variables, as
///   [`CoreError::Approx`]. An exhausted hybrid budget is *not* an error —
///   it triggers the sampling fallback.
pub fn estimate_confidence(
    set: &WsSet,
    table: &WorldTable,
    decomposition: &DecompositionOptions,
    strategy: &ConfidenceStrategy,
    cache: Option<&SharedDecompositionCache>,
) -> Result<ConfidenceReport> {
    estimate_confidence_with_options(
        set,
        table,
        decomposition,
        strategy,
        cache,
        &ParallelOptions::sequential(),
    )
}

/// [`estimate_confidence`] with the exact path running on
/// `parallel.workers()` worker threads
/// ([`confidence_parallel`]) and the sampling streams of an `Approximate`
/// run or a `Hybrid` fallback fanned out over the same number of threads
/// — `parallel` is the one worker knob, and
/// [`ParallelOptions::sequential`] spawns no thread on either path. The
/// sampled estimate is stream-partitioned and therefore has the same bits
/// at every worker count.
///
/// The parallel exact fold is bit-identical to the sequential one, so the
/// strategy semantics are unchanged; under `Hybrid`, the node budget is
/// charged against one counter shared by all workers, so the
/// fallback-vs-exact choice triggers at the same **total** work for every
/// worker count (exactly so without a cache; with a shared cache, hit
/// timing can shift where the charges fall, just as sequential warm runs
/// differ from cold ones).
///
/// # Errors
///
/// As [`estimate_confidence`].
pub fn estimate_confidence_with_options(
    set: &WsSet,
    table: &WorldTable,
    decomposition: &DecompositionOptions,
    strategy: &ConfidenceStrategy,
    cache: Option<&SharedDecompositionCache>,
    parallel: &ParallelOptions,
) -> Result<ConfidenceReport> {
    match exact_attempt(set, table, decomposition, strategy, cache, parallel)? {
        ExactAttempt::Completed(run) => Ok(ConfidenceReport::exact(strategy, run)),
        ExactAttempt::Sample { approx, fell_back } => {
            let run = optimal_monte_carlo(set, table, approx, parallel.workers())?;
            Ok(ConfidenceReport::sampled(
                strategy,
                run.estimate,
                run.total_iterations(),
                approx,
                fell_back,
            ))
        }
    }
}

/// What the exact leg of a strategy came to, short of an error.
enum ExactAttempt<'s> {
    /// The decomposition fold completed (within budget, if any).
    Completed(Confidence),
    /// There is no exact value, so the caller samples with `approx`: the
    /// strategy never tries the exact path (`fell_back: false`) or a hybrid
    /// run exhausted its node budget (`fell_back: true`).
    Sample {
        approx: &'s ApproximationOptions,
        fell_back: bool,
    },
}

/// Runs the exact fold `strategy` prescribes for `set`: none for
/// `Approximate`, and `Exact` is `Hybrid` without a fallback. Only an
/// exhausted budget can fall back; every other error — and a budget abort
/// with nothing to fall back to — propagates.
fn exact_attempt<'s>(
    set: &WsSet,
    table: &WorldTable,
    decomposition: &DecompositionOptions,
    strategy: &'s ConfidenceStrategy,
    cache: Option<&SharedDecompositionCache>,
    parallel: &ParallelOptions,
) -> Result<ExactAttempt<'s>> {
    let (options, fallback) = match strategy {
        ConfidenceStrategy::Approximate(approx) => {
            return Ok(ExactAttempt::Sample {
                approx,
                fell_back: false,
            })
        }
        ConfidenceStrategy::Exact => (*decomposition, None),
        ConfidenceStrategy::Hybrid { budget, approx } => {
            (decomposition.with_budget(*budget), Some(approx))
        }
    };
    match (
        confidence_parallel(set, table, &options, parallel, cache),
        fallback,
    ) {
        (Ok(run), _) => Ok(ExactAttempt::Completed(run)),
        (Err(CoreError::BudgetExceeded { .. }), Some(approx)) => Ok(ExactAttempt::Sample {
            approx,
            fell_back: true,
        }),
        (Err(other), _) => Err(other),
    }
}

/// Computes the conditioned confidence `P(query | condition)` under the
/// given strategy, **without materialising the conditioned database**: the
/// exact path evaluates the ratio of two decomposition folds
/// (`P(Intersect(Q, C)) / P(C)`), the sampling path runs
/// [`conditioned_monte_carlo`] with its composed (ε, δ) guarantee. Both
/// exact folds of the ratio — and the sampling streams of a fallback — run
/// on `parallel.workers()` worker threads; the parallel folds are
/// bit-identical to the sequential ones (see
/// [`estimate_confidence_with_options`] for the budget accounting).
///
/// Under `Hybrid`, *each* of the two exact folds runs under the node
/// budget. If only the joint fold aborts, the already-computed **exact**
/// denominator `P(C)` is kept and just the numerator is sampled (at the
/// full (ε, δ) — the ratio inherits the numerator's relative error, so no
/// tightening is needed); if the condition fold itself aborts, the whole
/// ratio falls back to [`conditioned_monte_carlo`].
///
/// # Errors
///
/// * [`CoreError::EmptyCondition`] if the exact path finds `P(C) = 0`
///   (the sampling path reports the analogous
///   [`uprob_approx::ApproxError::ImpossibleCondition`] as
///   [`CoreError::Approx`]);
/// * otherwise as [`estimate_confidence`].
pub fn estimate_conditioned_confidence_with_options(
    query: &WsSet,
    condition: &WsSet,
    table: &WorldTable,
    decomposition: &DecompositionOptions,
    strategy: &ConfidenceStrategy,
    cache: Option<&SharedDecompositionCache>,
    parallel: &ParallelOptions,
) -> Result<ConfidenceReport> {
    let attempt = |set: &WsSet| exact_attempt(set, table, decomposition, strategy, cache, parallel);
    let condition_run = match attempt(condition)? {
        ExactAttempt::Completed(run) => run,
        ExactAttempt::Sample { approx, fell_back } => {
            // No exact P(C) — never attempted, or the condition itself is
            // past the wall: sample the whole ratio.
            let run = conditioned_monte_carlo(query, condition, table, approx, parallel.workers())?;
            return Ok(ConfidenceReport::sampled(
                strategy,
                run.estimate,
                run.total_iterations(),
                approx,
                fell_back,
            ));
        }
    };
    // NaN is treated like zero: a zero-probability condition is the typed
    // error, never a NaN/Inf posterior.
    if condition_run.probability <= 0.0 || condition_run.probability.is_nan() {
        return Err(CoreError::EmptyCondition);
    }
    let joint_set = query.intersect(condition).normalized();
    match attempt(&joint_set)? {
        ExactAttempt::Completed(joint_run) => {
            let mut stats = condition_run.stats;
            stats.absorb(&joint_run.stats);
            let probability = (joint_run.probability / condition_run.probability).min(1.0);
            Ok(ConfidenceReport::exact(
                strategy,
                Confidence { probability, stats },
            ))
        }
        ExactAttempt::Sample { approx, fell_back } => {
            // Keep the exact denominator; only the numerator is estimated.
            // The ratio's relative error is exactly the numerator's, so the
            // full (ε, δ) applies unchanged.
            let joint_run = optimal_monte_carlo(&joint_set, table, approx, parallel.workers())?;
            let mut report = ConfidenceReport::sampled(
                strategy,
                (joint_run.estimate / condition_run.probability).min(1.0),
                joint_run.total_iterations(),
                approx,
                fell_back,
            );
            report.stats = condition_run.stats;
            Ok(report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_reference::worlds::SetWorlds;
    use uprob_wsd::WsDescriptor;

    /// The world table and ws-set S of Figure 3 (P(S) = 0.7578).
    fn figure3() -> (WorldTable, WsSet) {
        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
            .unwrap();
        let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
        let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
        let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
        let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        (w, s)
    }

    fn independent_pairs(n: usize) -> (WorldTable, WsSet) {
        // n variable-disjoint pairs: the budget-hostile shape of the
        // conditioning tests (exact cost grows quickly, sampling is easy).
        let mut w = WorldTable::new();
        let mut set = WsSet::empty();
        for i in 0..n {
            let x = w.add_boolean(&format!("x{i}"), 0.5).unwrap();
            let y = w.add_boolean(&format!("y{i}"), 0.5).unwrap();
            set.push(WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap());
        }
        (w, set)
    }

    #[test]
    fn hybrid_on_feasible_instances_is_bit_identical_to_exact() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let exact =
            estimate_confidence(&s, &w, &options, &ConfidenceStrategy::Exact, None).unwrap();
        let hybrid = estimate_confidence(
            &s,
            &w,
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
            None,
        )
        .unwrap();
        assert_eq!(exact.path, ResolvedPath::Exact);
        assert_eq!(hybrid.path, ResolvedPath::Exact, "no spurious fallback");
        assert_eq!(
            hybrid.probability.to_bits(),
            exact.probability.to_bits(),
            "hybrid must reproduce the exact result bit for bit"
        );
        assert!((exact.probability - 0.7578).abs() < 1e-12);
        assert!(hybrid.sampling.is_none());
        assert_eq!(hybrid.strategy, "hybrid");
    }

    #[test]
    fn hybrid_falls_back_to_sampling_when_the_budget_is_exhausted() {
        let (w, s) = independent_pairs(10);
        let exact_p = 1.0 - 0.75f64.powi(10);
        let options = DecompositionOptions::ve_minlog();
        // Exact aborts under this budget…
        let strategy = ConfidenceStrategy::Hybrid {
            budget: 5,
            approx: ApproximationOptions::default()
                .with_epsilon(0.05)
                .with_delta(0.05)
                .with_seed(13),
        };
        assert!(matches!(
            estimate_confidence(
                &s,
                &w,
                &options.with_budget(5),
                &ConfidenceStrategy::Exact,
                None
            ),
            Err(CoreError::BudgetExceeded { .. })
        ));
        // …but the hybrid run completes via sampling within ε.
        let report = estimate_confidence(&s, &w, &options, &strategy, None).unwrap();
        assert_eq!(report.path, ResolvedPath::Sampled { fell_back: true });
        let sampling = report.sampling.expect("sampling metadata present");
        assert!(sampling.iterations > 0);
        assert_eq!(sampling.epsilon, 0.05);
        assert!(
            (report.probability - exact_p).abs() <= 0.05 * exact_p + 0.01,
            "estimate {} vs exact {exact_p}",
            report.probability
        );
    }

    #[test]
    fn approximate_strategy_never_runs_the_exact_path() {
        let (w, s) = figure3();
        let strategy = ConfidenceStrategy::Approximate(
            ApproximationOptions::default()
                .with_epsilon(0.05)
                .with_delta(0.05)
                .with_seed(21),
        );
        let report =
            estimate_confidence(&s, &w, &DecompositionOptions::default(), &strategy, None).unwrap();
        assert_eq!(report.path, ResolvedPath::Sampled { fell_back: false });
        assert_eq!(report.stats, DecompositionStats::default());
        assert!((report.probability - 0.7578).abs() <= 0.05 * 0.7578 + 0.01);
    }

    #[test]
    fn conditioned_confidence_matches_brute_force_on_all_strategies() {
        let (w, s) = figure3();
        // Condition: u -> 1 (probability 0.7).
        let u = w.variable_by_name("u").unwrap();
        let c = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(u, 1)]).unwrap()]);
        let joint = s.intersect(&c).normalized();
        let expected = joint.probability_by_enumeration(&w) / c.probability_by_enumeration(&w);
        let options = DecompositionOptions::indve_minlog();
        let exact = estimate_conditioned_confidence_with_options(
            &s,
            &c,
            &w,
            &options,
            &ConfidenceStrategy::Exact,
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert!((exact.probability - expected).abs() < 1e-12);
        assert!(exact.stats.total_nodes() > 0);
        let hybrid = estimate_conditioned_confidence_with_options(
            &s,
            &c,
            &w,
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert_eq!(hybrid.probability.to_bits(), exact.probability.to_bits());
        assert_eq!(hybrid.path, ResolvedPath::Exact);
        let sampled = estimate_conditioned_confidence_with_options(
            &s,
            &c,
            &w,
            &options,
            &ConfidenceStrategy::Approximate(
                ApproximationOptions::default()
                    .with_epsilon(0.05)
                    .with_delta(0.05)
                    .with_seed(31),
            ),
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert!(
            (sampled.probability - expected).abs() <= 0.05 * expected + 0.01,
            "sampled {} vs exact {expected}",
            sampled.probability
        );
    }

    #[test]
    fn conditioned_hybrid_falls_back_on_budget_abort() {
        let (w, s) = independent_pairs(10);
        // Condition on the first pair's x variable.
        let x0 = w.variable_by_name("x0").unwrap();
        let c = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(x0, 1)]).unwrap()]);
        let joint = s.intersect(&c).normalized();
        let expected = joint.probability_by_enumeration(&w) / 0.5;
        let strategy = ConfidenceStrategy::Hybrid {
            budget: 5,
            approx: ApproximationOptions::default()
                .with_epsilon(0.05)
                .with_delta(0.05)
                .with_seed(17),
        };
        let report = estimate_conditioned_confidence_with_options(
            &s,
            &c,
            &w,
            &DecompositionOptions::ve_minlog(),
            &strategy,
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert_eq!(report.path, ResolvedPath::Sampled { fell_back: true });
        assert!(
            (report.probability - expected).abs() <= 0.05 * expected + 0.015,
            "estimate {} vs exact {expected}",
            report.probability
        );
    }

    #[test]
    fn empty_conditions_are_errors_on_both_paths() {
        let (w, s) = figure3();
        let options = DecompositionOptions::default();
        let exact = estimate_conditioned_confidence_with_options(
            &s,
            &WsSet::empty(),
            &w,
            &options,
            &ConfidenceStrategy::Exact,
            None,
            &ParallelOptions::sequential(),
        );
        assert_eq!(exact.unwrap_err(), CoreError::EmptyCondition);
        let sampled = estimate_conditioned_confidence_with_options(
            &s,
            &WsSet::empty(),
            &w,
            &options,
            &ConfidenceStrategy::approximate(0.1, 0.05),
            None,
            &ParallelOptions::sequential(),
        );
        assert_eq!(
            sampled.unwrap_err(),
            CoreError::Approx(uprob_approx::ApproxError::ImpossibleCondition)
        );
    }

    #[test]
    fn strategy_helpers_and_stream_derivation() {
        let strategy = ConfidenceStrategy::hybrid(100, 0.1, 0.05);
        assert_eq!(strategy.name(), "hybrid");
        let a = strategy.approx_options().unwrap();
        assert_eq!(a.epsilon, 0.1);
        let s1 = strategy.for_stream(1);
        let s2 = strategy.for_stream(2);
        assert_ne!(
            s1.approx_options().unwrap().seed,
            s2.approx_options().unwrap().seed,
            "streams must sample independently"
        );
        assert_eq!(
            s1.approx_options().unwrap().seed,
            strategy.for_stream(1).approx_options().unwrap().seed,
            "stream derivation is deterministic"
        );
        assert_eq!(
            ConfidenceStrategy::Exact.for_stream(5),
            ConfidenceStrategy::Exact
        );
        assert!(ResolvedPath::Sampled { fell_back: true }.is_sampled());
        assert!(!ResolvedPath::Exact.is_sampled());
    }

    #[test]
    fn hybrid_fallback_choice_is_pinned_across_worker_counts() {
        // Regression for the budget accounting: `BudgetExceeded` must
        // trigger at the same total work regardless of the worker count
        // (one shared atomic counter, not per-worker budgets). Without a
        // cache the decomposition tree is a pure function of the instance,
        // so for every worker count the same instance must land on the
        // same side of the budget wall — and the exact-side probability
        // must be bit-identical.
        let (w, s) = independent_pairs(10);
        let exact_cost = estimate_confidence(
            &s,
            &w,
            &DecompositionOptions::ve_minlog(),
            &ConfidenceStrategy::Exact,
            None,
        )
        .unwrap()
        .stats
        .total_nodes();
        // One budget comfortably above the full cost, one comfortably below.
        let ample = ConfidenceStrategy::Hybrid {
            budget: exact_cost * 4,
            approx: ApproximationOptions::default().with_seed(41),
        };
        // ε is tight enough that every sampling phase spans several RNG
        // streams, so the worker count really partitions the fallback.
        let tight = ConfidenceStrategy::Hybrid {
            budget: exact_cost / 4,
            approx: ApproximationOptions::default()
                .with_epsilon(0.02)
                .with_seed(41),
        };
        let sequential_fallback = estimate_confidence_with_options(
            &s,
            &w,
            &DecompositionOptions::ve_minlog(),
            &tight,
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        let sampled = sequential_fallback.sampling.expect("fallback samples");
        assert!(sampled.iterations > 4 * uprob_approx::parallel::STREAM_CHUNK);
        let reference = estimate_confidence_with_options(
            &s,
            &w,
            &DecompositionOptions::ve_minlog(),
            &ample,
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert_eq!(reference.path, ResolvedPath::Exact);
        for workers in [1, 2, 4, 8] {
            let parallel = ParallelOptions::new(workers).with_grain(2);
            let exact_side = estimate_confidence_with_options(
                &s,
                &w,
                &DecompositionOptions::ve_minlog(),
                &ample,
                None,
                &parallel,
            )
            .unwrap();
            assert_eq!(
                exact_side.path,
                ResolvedPath::Exact,
                "{workers} workers: ample budget must stay exact"
            );
            assert_eq!(
                exact_side.probability.to_bits(),
                reference.probability.to_bits(),
                "{workers} workers: exact-side probability must be bit-identical"
            );
            let fallback_side = estimate_confidence_with_options(
                &s,
                &w,
                &DecompositionOptions::ve_minlog(),
                &tight,
                None,
                &parallel,
            )
            .unwrap();
            assert_eq!(
                fallback_side.path,
                ResolvedPath::Sampled { fell_back: true },
                "{workers} workers: tight budget must fall back"
            );
            assert_eq!(
                fallback_side.probability.to_bits(),
                sequential_fallback.probability.to_bits(),
                "{workers} workers: the stream-partitioned fallback has the same bits"
            );
            assert_eq!(fallback_side.sampling, sequential_fallback.sampling);
        }
    }

    #[test]
    fn conditioned_confidence_with_options_is_bit_identical_across_workers() {
        let (w, s) = figure3();
        let u = w.variable_by_name("u").unwrap();
        let c = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(u, 1)]).unwrap()]);
        let options = DecompositionOptions::indve_minlog();
        let reference = estimate_conditioned_confidence_with_options(
            &s,
            &c,
            &w,
            &options,
            &ConfidenceStrategy::Exact,
            None,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        for workers in [2, 4, 8] {
            let parallel = ParallelOptions::new(workers).with_grain(2);
            let got = estimate_conditioned_confidence_with_options(
                &s,
                &c,
                &w,
                &options,
                &ConfidenceStrategy::Exact,
                None,
                &parallel,
            )
            .unwrap();
            assert_eq!(
                got.probability.to_bits(),
                reference.probability.to_bits(),
                "{workers} workers"
            );
            assert_eq!(got.stats, reference.stats);
        }
        // A conditioned Hybrid run past the budget wall samples the ratio
        // on `parallel.workers()` threads — same bits at every count.
        let (w, s) = independent_pairs(10);
        let c = WsSet::from_descriptors(s.descriptors()[..5].to_vec());
        let strategy = ConfidenceStrategy::Hybrid {
            budget: 5,
            approx: ApproximationOptions::default().with_seed(43),
        };
        let fallback = |parallel: &ParallelOptions| {
            estimate_conditioned_confidence_with_options(
                &s, &c, &w, &options, &strategy, None, parallel,
            )
            .unwrap()
        };
        let reference = fallback(&ParallelOptions::sequential());
        assert_eq!(reference.path, ResolvedPath::Sampled { fell_back: true });
        for workers in [1, 2, 4, 8] {
            let got = fallback(&ParallelOptions::new(workers).with_grain(2));
            assert_eq!(got, reference, "{workers} workers");
        }
    }

    #[test]
    fn hybrid_exact_attempt_benefits_from_a_shared_cache() {
        use crate::cache::SharedDecompositionCache;
        let (w, s) = figure3();
        let cache = SharedDecompositionCache::new();
        let strategy = ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01);
        let options = DecompositionOptions::indve_minlog();
        let cold = estimate_confidence(&s, &w, &options, &strategy, Some(&cache)).unwrap();
        let warm = estimate_confidence(&s, &w, &options, &strategy, Some(&cache)).unwrap();
        assert_eq!(warm.probability, cold.probability);
        assert!(warm.stats.cache_hits >= 1);
        assert_eq!(warm.stats.total_nodes(), 0, "full hit: no new work");
    }
}
