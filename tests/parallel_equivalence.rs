//! Parallel-equivalence harness: the **bit-identity contract** of the
//! parallel decomposition (the top of the ws-tree split on the calling
//! thread, its subtrees run as indexed jobs), property-tested over the
//! same random instance recipes as the differential suites.
//!
//! For every generated instance and every worker count, the parallel paths
//! must reproduce the sequential results **bit for bit** — not merely
//! within a tolerance:
//!
//! 1. `confidence_parallel` vs the sequential fold (with and without a
//!    shared cache, and stats-identical without one);
//! 2. ws-descriptor elimination run concurrently on worker threads vs one
//!    call on the calling thread;
//! 3. conditioned confidence through the engine's `_with_options` path;
//! 4. the general `assert_all_delta` (fresh memo) vs `assert_all`
//!    (confidence and full posterior database);
//! 5. the `conf()` batch surface: `tuple_confidences`,
//!    `answer_confidences_with_options(..).tuples` and
//!    `uprob_reference::query::tuple_confidences` agree bit for bit, and
//!    `answer_confidences_with_strategy` reproduces its one-worker bits at
//!    workers {1, 2, 4, 8} on a wide and on a narrow answer, so both arms
//!    of the placement rule run;
//! 6. the ⊕-term rule (zero-weight alternative skipped, missing-value
//!    tail last) on a deterministic instance: bits *and* counters at
//!    workers {1, 2, 4, 8}, cache off and on.
//!
//! All randomness is driven by the (deterministic, pinned-seed) vendored
//! proptest runner; a failing case prints the full recipe **and** the
//! worker count, which reproduce the instance exactly. The CI
//! `parallel-determinism` matrix additionally routes `UPROB_WORKERS`
//! through [`ParallelOptions::from_env`], so every matrix leg re-checks
//! its own worker count here.

use proptest::prelude::*;
use uprob::core::fan_out_indexed;
use uprob::datagen::{arb_constraint_case, arb_small_recipe, HardInstance, HardInstanceConfig};
use uprob::prelude::*;
use uprob::query::QueryError;

/// Worker counts exercised per case: fixed fan-outs plus whatever
/// `UPROB_WORKERS` requests (the CI matrix routes 1/2/4/8 through the
/// env var, so each leg re-checks its own count).
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![2, 3, 8];
    let env = ParallelOptions::from_env()
        .expect("CI sets a well-formed UPROB_WORKERS")
        .workers();
    if env > 1 && !counts.contains(&env) {
        counts.push(env);
    }
    counts
}

/// A tiny grain forces the top split onto these deliberately small
/// instances instead of the sequential small-set shortcut.
fn parallel_options(workers: usize) -> ParallelOptions {
    ParallelOptions::new(workers).with_grain(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The parallel fold is bit-identical to the sequential fold — and,
    /// without a cache, walks the identical virtual tree (same stats).
    #[test]
    fn parallel_confidence_is_bit_identical(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
            DecompositionOptions::ve_minlog(),
        ] {
            let sequential = confidence(&instance.query, &instance.table, &options).unwrap();
            for workers in worker_counts() {
                let parallel = parallel_options(workers);
                let got = confidence_parallel(
                    &instance.query,
                    &instance.table,
                    &options,
                    &parallel,
                    None,
                )
                .unwrap();
                prop_assert_eq!(
                    got.probability.to_bits(),
                    sequential.probability.to_bits(),
                    "{:?}, workers {}: parallel {} vs sequential {} on {:?}",
                    &options,
                    workers,
                    got.probability,
                    sequential.probability,
                    &recipe
                );
                prop_assert_eq!(&got.stats, &sequential.stats);

                let cache = SharedDecompositionCache::new();
                let cached = confidence_parallel(
                    &instance.query,
                    &instance.table,
                    &options,
                    &parallel,
                    Some(&cache),
                )
                .unwrap();
                prop_assert_eq!(
                    cached.probability.to_bits(),
                    sequential.probability.to_bits(),
                    "{:?}, workers {} (cached): on {:?}",
                    &options,
                    workers,
                    &recipe
                );
                // The cache the parallel run populated serves a sequential
                // rerun the same bits.
                let warm = confidence_parallel(
                    &instance.query,
                    &instance.table,
                    &options,
                    &ParallelOptions::sequential(),
                    Some(&cache),
                )
                .unwrap();
                prop_assert_eq!(warm.probability.to_bits(), sequential.probability.to_bits());
            }
        }
    }

    /// Ws-descriptor elimination run concurrently on worker threads is
    /// bit-identical to one call on the calling thread, stats included: WE
    /// keeps no state between or across calls.
    #[test]
    fn parallel_elimination_is_bit_identical(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        let sequential =
            confidence_by_elimination(&instance.query, &instance.table, None).unwrap();
        for workers in worker_counts() {
            let concurrent = fan_out_indexed(workers, workers, |_| {
                confidence_by_elimination(&instance.query, &instance.table, None)
            });
            for got in concurrent {
                let got = got.unwrap();
                prop_assert_eq!(
                    got.probability.to_bits(),
                    sequential.probability.to_bits(),
                    "WE, workers {}: concurrent {} vs calling thread {} on {:?}",
                    workers,
                    got.probability,
                    sequential.probability,
                    &recipe
                );
                prop_assert_eq!(&got.stats, &sequential.stats);
            }
        }
    }

    /// Conditioned confidence through the engine's `_with_options` path is
    /// bit-identical to the sequential engine under the `Exact` strategy.
    #[test]
    fn parallel_conditioned_confidence_is_bit_identical(recipe in arb_small_recipe()) {
        let instance = recipe.build();
        let decomposition = DecompositionOptions::indve_minlog();
        let sequential = estimate_conditioned_confidence(
            &instance.query,
            &instance.condition,
            &instance.table,
            &decomposition,
            &ConfidenceStrategy::Exact,
            None,
        );
        for workers in worker_counts() {
            let parallel = parallel_options(workers);
            let got = estimate_conditioned_confidence_with_options(
                &instance.query,
                &instance.condition,
                &instance.table,
                &decomposition,
                &ConfidenceStrategy::Exact,
                None,
                &parallel,
            );
            match (&sequential, &got) {
                (Ok(expected), Ok(report)) => {
                    prop_assert_eq!(
                        report.probability.to_bits(),
                        expected.probability.to_bits(),
                        "conditioned, workers {}: parallel {} vs sequential {} on {:?}",
                        workers,
                        report.probability,
                        expected.probability,
                        &recipe
                    );
                }
                (Err(_), Err(_)) => {} // Same rejection (e.g. empty condition).
                (expected, report) => {
                    return Err(TestCaseError::fail(format!(
                        "workers {workers}: sequential {expected:?} vs parallel \
                         {report:?} on {recipe:?}"
                    )));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `assert_all_delta` with a fresh memo produces the same verdict, the
    /// same confidence bits and the same posterior database as
    /// `assert_all`, for every worker count.
    #[test]
    fn parallel_assert_all_is_bit_identical(case in arb_constraint_case()) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        let options = ConditioningOptions::default();
        let sequential = assert_all(&db, &constraints, &options);
        for workers in worker_counts() {
            let parallel = parallel_options(workers);
            let got = assert_all_delta(
                &db,
                &constraints,
                &options,
                &parallel,
                &mut ViolationMemo::new(),
            );
            match (&sequential, &got) {
                (
                    Err(QueryError::UnsatisfiableConstraint { .. }),
                    Err(QueryError::UnsatisfiableConstraint { .. }),
                ) => {}
                (Ok(expected), Ok(conditioned)) => {
                    prop_assert_eq!(
                        conditioned.confidence.to_bits(),
                        expected.confidence.to_bits(),
                        "assert_all, workers {}: parallel {} vs sequential {} on {:?}",
                        workers,
                        conditioned.confidence,
                        expected.confidence,
                        &case
                    );
                    // The posterior databases are identical, relation by
                    // relation.
                    let names = expected.db.relation_names();
                    prop_assert_eq!(&conditioned.db.relation_names(), &names);
                    for name in &names {
                        prop_assert_eq!(
                            conditioned.db.relation(name).unwrap().rows(),
                            expected.db.relation(name).unwrap().rows(),
                            "posterior relation {} diverges at workers {} on {:?}",
                            name,
                            workers,
                            &case
                        );
                    }
                }
                (expected, got) => {
                    return Err(TestCaseError::fail(format!(
                        "workers {workers}: verdicts diverge, sequential \
                         {expected:?} vs parallel {got:?} on {case:?}"
                    )));
                }
            }
        }
    }
}

/// The ⊕-term rule on one deterministic instance that mixes its special
/// cases: `x -> 1` occurs in the set but has probability zero (no term),
/// `x -> 4` never occurs and `T = {d4, d5}` is non-empty (the tail term,
/// last). The top split and the fold take their terms from the same list,
/// so bits and — where no memo hit can reorder the work — counters agree
/// at every worker count, cache off and on.
#[test]
fn zero_weight_and_missing_value_terms_are_bit_identical_across_workers() {
    let mut w = WorldTable::new();
    let x = w
        .add_variable("x", &[(1, 0.0), (2, 0.3), (3, 0.3), (4, 0.4)])
        .unwrap();
    let [y, z, p, q, r] = ["y", "z", "p", "q", "r"].map(|name| w.add_uniform(name, 2).unwrap());
    let descriptor = |pairs: &[(VarId, DomainValue)]| WsDescriptor::from_pairs(&w, pairs).unwrap();
    let set = WsSet::from_descriptors(vec![
        descriptor(&[(x, 1), (r, 0)]),
        descriptor(&[(x, 2), (p, 0)]),
        descriptor(&[(x, 3), (q, 0)]),
        descriptor(&[(y, 0), (z, 0)]),
        descriptor(&[(y, 1), (z, 1)]),
    ]);
    // VE in id order eliminates x at the root, over the non-empty tail.
    let ve_in_id_order = DecompositionOptions {
        heuristic: VariableHeuristic::FirstVariable,
        ..DecompositionOptions::ve_minlog()
    };
    for options in [ve_in_id_order, DecompositionOptions::indve_minlog()] {
        let plain = confidence(&set, &w, &options).unwrap();
        let sequential = ParallelOptions::sequential();
        let cached = SharedDecompositionCache::new();
        let memoized = confidence_parallel(&set, &w, &options, &sequential, Some(&cached)).unwrap();
        assert_eq!(memoized.probability.to_bits(), plain.probability.to_bits());
        // No sub-set of this instance recurs, so even a shared cache
        // leaves every run walking the same tree.
        assert_eq!(memoized.stats.cache_hits, 0, "{options:?}");
        for workers in [1, 2, 4, 8] {
            let parallel = parallel_options(workers);
            let got = confidence_parallel(&set, &w, &options, &parallel, None).unwrap();
            assert_eq!(got.probability.to_bits(), plain.probability.to_bits());
            assert_eq!(got.stats, plain.stats, "{options:?}, workers {workers}");
            let cache = SharedDecompositionCache::new();
            let got = confidence_parallel(&set, &w, &options, &parallel, Some(&cache)).unwrap();
            assert_eq!(got.probability.to_bits(), plain.probability.to_bits());
            assert_eq!(
                got.stats, memoized.stats,
                "{options:?}, workers {workers}, cached"
            );
        }
    }
    // 0.3 · P({p -> 1} ∪ T) + 0.3 · P({q -> 1} ∪ T) + 0.4 · P(T), P(T) = 0.5.
    let expected = 0.3 * 0.75 + 0.3 * 0.75 + 0.4 * 0.5;
    let got = confidence(&set, &w, &ve_in_id_order).unwrap();
    assert!((got.probability - expected).abs() < 1e-12);
    assert!((got.probability - set.probability_by_enumeration(&w)).abs() < 1e-12);
}

/// Wraps a hard instance's ws-set into a U-relation whose distinct tuples
/// partition the descriptors into `groups` answer tuples.
fn grouped_relation(instance: &HardInstance, groups: usize) -> URelation {
    let schema = Schema::new("H", &[("ID", ColumnType::Int)]);
    let mut relation = URelation::new(schema);
    for (i, d) in instance.ws_set.iter().enumerate() {
        relation.push(Tuple::new(vec![Value::Int((i % groups) as i64)]), d.clone());
    }
    relation
}

/// The `conf()` batch surface on one wide answer (16 tuples: at least two
/// per worker at every tested count, so the tuples are fanned out) and one
/// narrow answer (3 tuples: fewer than two per worker from 2 workers on, so
/// the folds parallelize inside): the paper-level short form, the general
/// batch and the sequential reference agree bit for bit, and the strategy
/// batch reproduces its one-worker bits — exact and sampled — at every
/// worker count.
#[test]
fn conf_batch_surface_is_bit_identical_on_wide_and_narrow_answers() {
    let instance = HardInstance::generate(HardInstanceConfig {
        num_variables: 24,
        alternatives: 2,
        descriptor_length: 2,
        num_descriptors: 64,
        seed: 0xC0FF,
    });
    let table = &instance.world_table;
    let options = DecompositionOptions::indve_minlog();
    let strategies = [
        ConfidenceStrategy::Exact,
        ConfidenceStrategy::approximate(0.1, 0.05).with_seed(31),
        ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.05).with_seed(31),
    ];
    for groups in [16, 3] {
        let answer = grouped_relation(&instance, groups);
        let reference =
            uprob_reference::query::tuple_confidences(&answer, table, &options).unwrap();
        assert_eq!(reference.len(), groups);
        let reference_boolean = boolean_confidence(&answer, table, &options).unwrap();
        let short = tuple_confidences(&answer, table, &options).unwrap();
        assert_eq!(short.len(), reference.len());
        for ((t1, p1), (t2, p2)) in reference.iter().zip(&short) {
            assert_eq!(t1, t2);
            assert_eq!(
                p1.to_bits(),
                p2.to_bits(),
                "tuple_confidences, {groups} tuples"
            );
        }
        let one_worker: Vec<StrategyAnswerConfidences> = strategies
            .iter()
            .map(|strategy| {
                answer_confidences_with_strategy(
                    &answer,
                    table,
                    &options,
                    strategy,
                    &ParallelOptions::sequential(),
                )
                .unwrap()
            })
            .collect();
        // The exact strategy batch is the exact batch.
        for ((_, p), (_, report)) in reference.iter().zip(&one_worker[0].tuples) {
            assert_eq!(p.to_bits(), report.probability.to_bits());
        }
        for workers in [1, 2, 4, 8] {
            let parallel = parallel_options(workers);
            let batch = answer_confidences_with_options(
                &answer,
                table,
                &options,
                &parallel,
                &SharedDecompositionCache::new(),
            )
            .unwrap();
            assert_eq!(batch.tuples.len(), reference.len());
            for ((t1, p1), (t2, p2)) in reference.iter().zip(&batch.tuples) {
                assert_eq!(t1, t2);
                assert_eq!(
                    p1.to_bits(),
                    p2.to_bits(),
                    "{groups} tuples, workers {workers}, tuple {t1:?}"
                );
            }
            assert_eq!(batch.boolean.to_bits(), reference_boolean.to_bits());
            for (strategy, expected) in strategies.iter().zip(&one_worker) {
                let got =
                    answer_confidences_with_strategy(&answer, table, &options, strategy, &parallel)
                        .unwrap();
                assert_eq!(got.tuples.len(), expected.tuples.len());
                for ((t1, r1), (t2, r2)) in expected.tuples.iter().zip(&got.tuples) {
                    assert_eq!(t1, t2);
                    assert_eq!(r1.path, r2.path, "{strategy:?}, workers {workers}");
                    assert_eq!(
                        r1.probability.to_bits(),
                        r2.probability.to_bits(),
                        "{strategy:?}, {groups} tuples, workers {workers}, tuple {t1:?}"
                    );
                }
                assert_eq!(
                    expected.boolean.probability.to_bits(),
                    got.boolean.probability.to_bits(),
                    "{strategy:?}, {groups} tuples, workers {workers}"
                );
            }
        }
    }
}
