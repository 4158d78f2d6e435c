//! Differential confidence harness: on randomly generated small
//! world-tables and ws-sets (`uprob_datagen::random`), **every** confidence
//! algorithm must agree with the brute-force world-enumeration oracle —
//! the (cached and uncached) decomposition fold under all heuristics,
//! ws-descriptor elimination (WE), and the Karp–Luby estimator within its
//! sampling tolerance — with the parallel fold and parallel
//! WE additionally pinned **bit-identical** to their sequential forms
//! under the worker count the CI matrix routes through `UPROB_WORKERS`. Conditioned confidence `P(Q | C)` is cross-checked
//! the same way between the exact ratio, the engine strategies and the
//! Monte-Carlo conditioned estimator.
//!
//! All randomness is driven by the (deterministic, pinned-seed) vendored
//! proptest runner; a failing case prints the full `SmallInstanceRecipe`,
//! which reproduces the instance exactly via `recipe.build()`.

use proptest::prelude::*;
use uprob::prelude::*;
use uprob_datagen::arb_small_recipe;
use uprob_reference::worlds::SetWorlds;

/// Karp–Luby iterations for the fixed-iteration differential check.
const KL_ITERATIONS: u64 = 40_000;

/// A generous deviation bound for the fixed-iteration Karp–Luby check:
/// the per-sample variable `M · Z` has standard deviation at most
/// `sqrt(p · (M − p))`, so six standard errors of the mean plus a small
/// absolute floor keeps the (deterministic, seeded) runs stable while
/// still catching systematic estimator bugs.
fn kl_tolerance(expected: f64, total_weight: f64) -> f64 {
    6.0 * (expected.max(1e-3) * total_weight.max(1e-3) / KL_ITERATIONS as f64).sqrt() + 2e-3
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Brute force, the decomposition fold (all methods/heuristics, cached
    /// and uncached), WE and Karp–Luby agree on `P(Q)`.
    #[test]
    fn all_confidence_methods_agree(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        let expected = instance.query.probability_by_enumeration(&instance.table);

        // The exact decomposition folds.
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
            DecompositionOptions::ve_minlog(),
        ] {
            let got = confidence(&instance.query, &instance.table, &options)
                .unwrap()
                .probability;
            prop_assert!(
                (got - expected).abs() < 1e-9,
                "{options:?}: fold {got} vs brute force {expected}"
            );
        }

        // The cached fold: cold and warm runs through one shared cache.
        let cache = SharedDecompositionCache::new();
        for run in 0..2 {
            let got = confidence_parallel(
                &instance.query,
                &instance.table,
                &DecompositionOptions::indve_minlog(),
                &ParallelOptions::sequential(),
                Some(&cache),
            )
            .unwrap()
            .probability;
            prop_assert!(
                (got - expected).abs() < 1e-9,
                "cached fold (run {run}) {got} vs brute force {expected}"
            );
        }

        // The parallel fold under the worker count the CI
        // determinism matrix routes through `UPROB_WORKERS` (the available
        // parallelism when unset): **bit-identical** to the sequential
        // fold, not merely within tolerance. The tiny grain forces the
        // top split onto these small instances.
        let parallel = ParallelOptions::from_env()
            .expect("CI sets a well-formed UPROB_WORKERS")
            .with_grain(2);
        let sequential = confidence(
            &instance.query,
            &instance.table,
            &DecompositionOptions::indve_minlog(),
        )
        .unwrap()
        .probability;
        let fold = confidence_parallel(
            &instance.query,
            &instance.table,
            &DecompositionOptions::indve_minlog(),
            &parallel,
            None,
        )
        .unwrap()
        .probability;
        prop_assert!(
            fold.to_bits() == sequential.to_bits(),
            "parallel fold {} vs sequential {} at {} workers",
            fold,
            sequential,
            parallel.workers()
        );

        // Ws-descriptor elimination.
        let we = confidence_by_elimination(&instance.query, &instance.table, None)
            .unwrap()
            .probability;
        prop_assert!(
            (we - expected).abs() < 1e-9,
            "WE {we} vs brute force {expected}"
        );

        // Karp–Luby with fixed iterations over parallel deterministic
        // streams (seeded from the recipe, so every case has its own but
        // reproducible randomness).
        let estimator = KarpLuby::new(&instance.query, &instance.table).unwrap();
        let options = ApproximationOptions::default().with_seed(recipe.probability_seed);
        let estimate = estimator.estimate_fixed_parallel(KL_ITERATIONS, &options, parallel.workers());
        let tolerance = kl_tolerance(expected, estimator.total_weight());
        prop_assert!(
            (estimate - expected).abs() < tolerance,
            "Karp-Luby {estimate} vs brute force {expected} (tolerance {tolerance})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact conditioned ratio, the engine strategies and the
    /// Monte-Carlo conditioned estimator agree on `P(Q | C)`.
    #[test]
    fn conditioned_confidence_methods_agree(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        let p_condition = instance.condition.probability_by_enumeration(&instance.table);
        if p_condition < 0.05 {
            // Conditioning on a near-impossible world-set: the posterior is
            // ill-conditioned and the adaptive estimator's iteration count
            // explodes; the rare-condition regime is covered by the
            // statistical suite's fixtures.
            return Ok(());
        }
        let joint = instance.query.intersect(&instance.condition).normalized();
        let expected =
            joint.probability_by_enumeration(&instance.table) / p_condition;

        // Exact engine path.
        let exact = estimate_conditioned_confidence_with_options(
            &instance.query,
            &instance.condition,
            &instance.table,
            &DecompositionOptions::indve_minlog(),
            &ConfidenceStrategy::Exact,
            None, &ParallelOptions::sequential(),
        )
        .unwrap();
        prop_assert!(
            (exact.probability - expected).abs() < 1e-9,
            "exact conditioned {} vs brute force {expected}",
            exact.probability
        );

        // Hybrid with an ample budget must be the exact value, bit for bit.
        let hybrid = estimate_conditioned_confidence_with_options(
            &instance.query,
            &instance.condition,
            &instance.table,
            &DecompositionOptions::indve_minlog(),
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.05),
            None, &ParallelOptions::sequential(),
        )
        .unwrap();
        prop_assert!(hybrid.probability.to_bits() == exact.probability.to_bits());
        prop_assert!(hybrid.path == ResolvedPath::Exact);

        // The engine's parallel conditioned path under the CI matrix worker
        // count (`UPROB_WORKERS`): the exact bits again.
        let parallel = ParallelOptions::from_env()
            .expect("CI sets a well-formed UPROB_WORKERS")
            .with_grain(2);
        let parallel_exact = estimate_conditioned_confidence_with_options(
            &instance.query,
            &instance.condition,
            &instance.table,
            &DecompositionOptions::indve_minlog(),
            &ConfidenceStrategy::Exact,
            None,
            &parallel,
        )
        .unwrap();
        prop_assert!(
            parallel_exact.probability.to_bits() == exact.probability.to_bits(),
            "parallel conditioned {} vs sequential {} at {} workers",
            parallel_exact.probability,
            exact.probability,
            parallel.workers()
        );

        // The Monte-Carlo conditioned estimator within its (ε, δ) band
        // (plus a small absolute floor for near-zero posteriors).
        let epsilon = 0.2;
        let sampled = conditioned_monte_carlo(
            &instance.query,
            &instance.condition,
            &instance.table,
            &ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(0.05)
                .with_seed(recipe.probability_seed ^ 0xD1FF),
                parallel.workers(),
        )
        .unwrap();
        prop_assert!(
            (sampled.estimate - expected).abs() <= epsilon * expected + 0.02,
            "conditioned Monte-Carlo {} vs brute force {expected}",
            sampled.estimate
        );
    }
}
