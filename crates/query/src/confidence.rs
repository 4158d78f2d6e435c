//! The `conf()` aggregate: tuple confidence values on query results.
//!
//! The confidence of a tuple `t` in the result of a query is the combined
//! probability weight of all possible worlds in which `t` is in the result.
//! On a U-relational query answer this is the probability of the ws-set
//! collecting the descriptors of all rows carrying `t`, computed exactly
//! with the decomposition algorithms of `uprob-core` — or, under an explicit
//! [`ConfidenceStrategy`], estimated by sampling where the exact fold is
//! out of reach.
//!
//! All distinct tuples of one answer are computed as a **batch**, and every
//! batch — the exact one, the strategy one and the virtual posterior's of
//! [`crate::EstimatedAssertion`] — is one body: a single
//! [`SharedDecompositionCache`] is shared by every tuple (and by the
//! answer-level Boolean confidence), so sub-ws-sets that recur across
//! tuples — or between a tuple and the answer's independent components —
//! are solved once; the workers of a [`ParallelOptions`] are placed by one
//! rule (wide answers fan the tuples out, narrow answers parallelize inside
//! each decomposition); and each tuple samples from its own seed stream.
//! The exact batch is that body at [`ConfidenceStrategy::Exact`]. See
//! `DESIGN.md` ("Entry points") for the surface, the cache architecture and
//! the thread-safety contract.

use uprob_core::stats::DecompositionStats;
use uprob_core::{
    confidence as exact_confidence, estimate_conditioned_confidence_with_options,
    estimate_confidence_with_options, fan_out_indexed, ConfidenceReport, ConfidenceStrategy,
    DecompositionOptions, ParallelOptions, SharedDecompositionCache,
};
use uprob_urel::{Plan, ProbDb, Tuple, URelation};
use uprob_wsd::{WorldTable, WsSet};

use crate::Result;

/// The batch result of the `conf()` aggregates over one query answer: `P`
/// is `f64` for the exact batch and [`ConfidenceReport`] for the strategy
/// batch, whose reports record whether the exact path or the sampling
/// fallback produced each value.
#[derive(Clone, Debug)]
pub struct AnswerConfidences<P = f64> {
    /// The distinct tuples of the answer with their confidences, in
    /// deterministic (sorted-tuple) order.
    pub tuples: Vec<(Tuple, P)>,
    /// The Boolean confidence of the answer (probability that the answer is
    /// non-empty), computed through the same cache.
    pub boolean: P,
    /// Aggregated decomposition counters of all per-tuple runs and the
    /// Boolean run, including the cache hit/miss counters.
    pub stats: DecompositionStats,
}

impl AnswerConfidences<ConfidenceReport> {
    /// Number of tuples whose exact attempt exhausted its budget and fell
    /// back to sampling (always 0 for the `Exact` strategy; equal to the
    /// tuple count for `Approximate`).
    pub fn sampled_tuples(&self) -> usize {
        self.tuples
            .iter()
            .filter(|(_, r)| r.path.is_sampled())
            .count()
    }

    /// Total Monte-Carlo iterations across all sampled tuples and the
    /// Boolean run.
    pub fn sampling_iterations(&self) -> u64 {
        self.tuples
            .iter()
            .map(|(_, r)| r.sampling.map_or(0, |s| s.iterations))
            .fold(0, u64::saturating_add)
            + self.boolean.sampling.map_or(0, |s| s.iterations)
    }
}

/// What a batch keeps of one report, and the report's counters.
type Keep<P> = fn(ConfidenceReport) -> (P, DecompositionStats);

/// The exact batch keeps the probability.
fn probability(report: ConfidenceReport) -> (f64, DecompositionStats) {
    (report.probability, report.stats)
}

/// The strategy batches keep the whole report.
pub(crate) fn whole_report(report: ConfidenceReport) -> (ConfidenceReport, DecompositionStats) {
    let stats = report.stats.clone();
    (report, stats)
}

/// What every value of one `conf()` batch is computed with: the world
/// table, the decomposition options, the strategy and the decomposition
/// cache all runs of the batch share — and, for a virtual posterior, the
/// condition `C` that turns each value into `P(· | C)`.
pub(crate) struct Batch<'a> {
    pub(crate) table: &'a WorldTable,
    pub(crate) options: &'a DecompositionOptions,
    pub(crate) strategy: &'a ConfidenceStrategy,
    pub(crate) cache: &'a SharedDecompositionCache,
    pub(crate) condition: Option<&'a WsSet>,
}

impl<'a> Batch<'a> {
    /// The exact batch on `cache`.
    fn exact(
        table: &'a WorldTable,
        options: &'a DecompositionOptions,
        cache: &'a SharedDecompositionCache,
    ) -> Self {
        Batch {
            table,
            options,
            strategy: &ConfidenceStrategy::Exact,
            cache,
            condition: None,
        }
    }

    /// The engine call behind every value of a batch, and the only place
    /// the **seed-stream rule** lives: tuple `index` samples from stream
    /// `index + 1`, the answer-level Boolean run (`tuple: None`) from
    /// stream 0, so no sampled estimate depends on the worker count or the
    /// scheduling order.
    fn confidence(
        &self,
        set: &WsSet,
        tuple: Option<usize>,
        parallel: &ParallelOptions,
    ) -> uprob_core::Result<ConfidenceReport> {
        let strategy = self
            .strategy
            .for_stream(tuple.map_or(0, |index| index as u64 + 1));
        let cache = Some(self.cache);
        match self.condition {
            None => estimate_confidence_with_options(
                set,
                self.table,
                self.options,
                &strategy,
                cache,
                parallel,
            ),
            Some(condition) => estimate_conditioned_confidence_with_options(
                set,
                condition,
                self.table,
                self.options,
                &strategy,
                cache,
                parallel,
            ),
        }
    }

    /// The Boolean confidence of `answer` (the probability that it is
    /// non-empty).
    pub(crate) fn boolean(
        &self,
        answer: &URelation,
        parallel: &ParallelOptions,
    ) -> Result<ConfidenceReport> {
        Ok(self.confidence(&answer.answer_ws_set(), None, parallel)?)
    }

    /// The one `conf()` batch body — every distinct tuple of `answer`, in
    /// sorted-tuple order, with the counters of all runs — and the only
    /// place the worker **placement rule** lives: a *wide* batch (at least
    /// two tuples per worker) fans the tuples out over the workers and
    /// runs each on one thread — parallelism inside a tuple would only add
    /// scheduling overhead when the batch already saturates the pool; a
    /// *narrow* batch runs the tuples in order and hands each the full
    /// `parallel` policy, so a handful of hard tuples still uses every
    /// core. Bit-identity across worker counts is then exactly the
    /// bit-identity of the individual engine calls.
    ///
    /// Each report is cut down by `keep` as soon as its run ends (the
    /// exact batch keeps only the probability), so a wide answer never
    /// holds a full report per tuple.
    pub(crate) fn tuples<P: Send>(
        &self,
        answer: &URelation,
        parallel: &ParallelOptions,
        keep: Keep<P>,
    ) -> Result<(Vec<(Tuple, P)>, DecompositionStats)> {
        let groups = answer.distinct_tuples();
        let (outer, inner) = if groups.len() >= 2 * parallel.workers() {
            (parallel.workers(), ParallelOptions::sequential())
        } else {
            (1, *parallel)
        };
        let runs = fan_out_indexed(groups.len(), outer, |index| {
            #[expect(
                clippy::indexing_slicing,
                reason = "fan_out_indexed yields indices below groups.len()"
            )]
            Ok(keep(self.confidence(
                &groups[index].1,
                Some(index),
                &inner,
            )?))
        })
        .into_iter()
        .collect::<uprob_core::Result<Vec<_>>>()?;
        let mut stats = DecompositionStats::default();
        let tuples = groups
            .into_iter()
            .zip(runs)
            .map(|((tuple, _), (value, run))| {
                stats.absorb(&run);
                (tuple, value)
            })
            .collect();
        Ok((tuples, stats))
    }

    /// [`Batch::tuples`] plus the Boolean run, which goes last so it finds
    /// the tuples' components in the cache.
    fn answer<P: Send>(
        &self,
        answer: &URelation,
        parallel: &ParallelOptions,
        keep: Keep<P>,
    ) -> Result<AnswerConfidences<P>> {
        let (tuples, mut stats) = self.tuples(answer, parallel, keep)?;
        let (boolean, run) = keep(self.boolean(answer, parallel)?);
        stats.absorb(&run);
        Ok(AnswerConfidences {
            tuples,
            boolean,
            stats,
        })
    }
}

/// The exact `conf()` batch — `select ..., conf() from Q group by ...`
/// **and** `select conf() from Q` in one call: every distinct tuple of the
/// answer plus the answer-level Boolean confidence, computed through the
/// caller-held `cache` on the workers of `parallel`. It is the batch body
/// of [`answer_confidences_with_strategy`] at [`ConfidenceStrategy::Exact`].
///
/// `cache` is the "solved once per database" knob: hold one
/// [`SharedDecompositionCache`] next to a database and pass it to every
/// query over it, and any sub-ws-set ever decomposed — by a previous query,
/// a previous tuple, or the answer-level Boolean pass — is never solved
/// again (pass `&SharedDecompositionCache::new()` for a one-off batch). The
/// cache is tied to one immutable world table: conditioning produces a
/// *new* database and therefore requires a fresh (or inherited) cache; see
/// `DESIGN.md` for the invalidation contract.
///
/// `parallel` places the workers: wide answers (at least two tuples per
/// worker) fan the tuples out, narrow answers parallelize inside each
/// decomposition. Every probability is **bit-identical** to the sequential
/// per-tuple fold (`uprob_reference::query::tuple_confidences`) at every worker
/// count, under either placement, with a cold or a warm cache; only the
/// aggregated cache hit/miss counters may differ, since scheduling decides
/// which run warms the cache for which.
///
/// # Errors
///
/// Propagates decomposition errors (e.g. an exhausted node budget).
pub fn answer_confidences_with_options(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
    parallel: &ParallelOptions,
    cache: &SharedDecompositionCache,
) -> Result<AnswerConfidences> {
    Batch::exact(table, options, cache).answer(answer, parallel, probability)
}

/// `select ..., conf() from <plan> group by ...` in one call: evaluates
/// `plan` with [`ProbDb::query`] (rule-based optimization + pipelined
/// hash-join execution) and runs [`answer_confidences_with_options`] over
/// the answer — same `parallel` placement, same caller-held per-database
/// `cache` (repeated or overlapping planned queries over one database reuse
/// every decomposition any of them solved), same bit-identity contract.
/// Because the pipelined executor emits rows in the same order as the
/// eager reference, the confidences of a planned answer are bit-identical
/// to the eager path's.
///
/// # Errors
///
/// Propagates plan-validation errors and decomposition errors.
pub fn planned_answer_confidences_with_options(
    db: &ProbDb,
    plan: &Plan,
    options: &DecompositionOptions,
    parallel: &ParallelOptions,
    cache: &SharedDecompositionCache,
) -> Result<AnswerConfidences> {
    answer_confidences_with_options(&db.query(plan)?, db.world_table(), options, parallel, cache)
}

/// The `conf()` batch under an explicit [`ConfidenceStrategy`]: with
/// `Hybrid`, every tuple first runs the cached exact decomposition under
/// the strategy's node budget and, on a budget abort, transparently falls
/// back to Karp–Luby/Dagum sampling — so the batch completes on answers
/// where exact computation blows up for *some* (or all) tuples. The tuples
/// share one batch-local decomposition cache and `parallel` places the
/// workers exactly as in [`answer_confidences_with_options`].
///
/// Sampling seeds are derived per tuple index through deterministic RNG
/// streams (`index + 1`; stream 0 is the answer-level Boolean run), so a
/// tuple's *sampled estimate* never depends on the worker count or
/// scheduling order, exact values are bit-identical by the
/// parallel-decomposition contract, and under `Exact` or `Approximate` the
/// whole batch is **bit-identical** at every worker count. Under `Hybrid`
/// one caveat applies: cache hits are not charged against the node budget
/// — so *which side of the wall* a borderline tuple lands on can depend on
/// which sibling warmed the cache first (more warmth can only move tuples
/// from sampled to exact). Either way every value honours the fallback
/// contract — exact, or sampled with the requested (ε, δ) — and the
/// per-tuple [`ConfidenceReport`] says which.
///
/// # Errors
///
/// Propagates exact-path errors (for `Exact`, including the exhausted
/// budget) and sampling errors (invalid ε/δ, unknown variables).
pub fn answer_confidences_with_strategy(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
    strategy: &ConfidenceStrategy,
    parallel: &ParallelOptions,
) -> Result<AnswerConfidences<ConfidenceReport>> {
    Batch {
        table,
        options,
        strategy,
        cache: &SharedDecompositionCache::new(),
        condition: None,
    }
    .answer(answer, parallel, whole_report)
}

/// `select ..., conf() from Q group by ...`: the distinct tuples of a query
/// answer together with their exact confidence values — the paper-level
/// short form of [`answer_confidences_with_options`] (a batch-local cache,
/// one worker per available CPU) that skips the answer-level Boolean fold.
/// Bit-identical to the sequential per-tuple fold
/// (`uprob_reference::query::tuple_confidences`).
///
/// # Errors
///
/// Propagates decomposition errors (e.g. an exhausted node budget).
pub fn tuple_confidences(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<Vec<(Tuple, f64)>> {
    let (tuples, _) = Batch::exact(table, options, &SharedDecompositionCache::new()).tuples(
        answer,
        &ParallelOptions::auto(),
        probability,
    )?;
    Ok(tuples)
}

/// `select conf() from Q`: the confidence of a Boolean query, i.e. the
/// probability that the answer is non-empty.
///
/// # Errors
///
/// Propagates decomposition errors.
pub fn boolean_confidence(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<f64> {
    let ws_set = answer.answer_ws_set();
    Ok(exact_confidence(&ws_set, table, options)?.probability)
}

/// `select * from Q where conf() = 1`: the tuples that appear in the answer
/// in **every** possible world (the "certain answers" query of the
/// introduction, which Monte-Carlo approximation handles badly).
///
/// # Errors
///
/// Propagates decomposition errors.
pub fn certain_tuples(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<Vec<Tuple>> {
    const TOLERANCE: f64 = 1e-9;
    Ok(tuple_confidences(answer, table, options)?
        .into_iter()
        .filter(|(_, p)| (*p - 1.0).abs() <= TOLERANCE)
        .map(|(t, _)| t)
        .collect())
}

/// `select * from Q where conf() > 0`: the tuples that appear in the answer
/// in at least one possible world, with their confidences.
///
/// # Errors
///
/// Propagates decomposition errors.
pub fn possible_tuples(
    answer: &URelation,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<Vec<(Tuple, f64)>> {
    Ok(tuple_confidences(answer, table, options)?
        .into_iter()
        .filter(|(_, p)| *p > 0.0)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_urel::{ColumnType, Predicate, Schema, Value};
    use uprob_wsd::WsDescriptor;

    /// The exact batch over a fresh cache at the given worker count.
    fn exact_batch(answer: &URelation, db: &ProbDb, workers: usize) -> AnswerConfidences {
        answer_confidences_with_options(
            answer,
            db.world_table(),
            &DecompositionOptions::default(),
            &ParallelOptions::new(workers),
            &SharedDecompositionCache::new(),
        )
        .unwrap()
    }

    /// The SSN database of Figure 2.
    fn ssn_db() -> ProbDb {
        let mut db = ProbDb::new();
        let j = db
            .world_table_mut()
            .add_variable("j", &[(1, 0.2), (7, 0.8)])
            .unwrap();
        let b = db
            .world_table_mut()
            .add_variable("b", &[(4, 0.3), (7, 0.7)])
            .unwrap();
        let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Int(1), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 4)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 7)]).unwrap(),
            );
        }
        db.insert_relation(r).unwrap();
        db
    }

    #[test]
    fn introduction_query_bill_confidences() {
        // select SSN, conf(SSN) from R where NAME = 'Bill';
        let db = ssn_db();
        let ssns = db
            .query(
                &Plan::scan("R")
                    .select(Predicate::col_eq("NAME", "Bill"))
                    .project(&["SSN"]),
            )
            .unwrap();
        let answers =
            tuple_confidences(&ssns, db.world_table(), &DecompositionOptions::default()).unwrap();
        assert_eq!(answers.len(), 2);
        let p4 = answers
            .iter()
            .find(|(t, _)| t.get(0) == Some(&Value::Int(4)))
            .unwrap()
            .1;
        let p7 = answers
            .iter()
            .find(|(t, _)| t.get(0) == Some(&Value::Int(7)))
            .unwrap()
            .1;
        assert!((p4 - 0.3).abs() < 1e-12);
        assert!((p7 - 0.7).abs() < 1e-12);
    }

    #[test]
    fn duplicate_tuples_merge_their_world_sets() {
        // Projecting to NAME makes John appear twice (SSN 1 and 7); the
        // confidence of (John) is the probability of the union, which is 1.
        let db = ssn_db();
        let names = db.query(&Plan::scan("R").project(&["NAME"])).unwrap();
        let answers =
            tuple_confidences(&names, db.world_table(), &DecompositionOptions::default()).unwrap();
        assert_eq!(answers.len(), 2);
        for (_, p) in &answers {
            assert!((p - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn boolean_confidence_of_the_fd_violation_query() {
        // Example 2.3: the violation query holds exactly on the world
        // {j -> 7, b -> 7}, i.e. with probability .56.
        let db = ssn_db();
        let phi = Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
            uprob_urel::Expr::col("NAME"),
            uprob_urel::Comparison::Ne,
            uprob_urel::Expr::col("R2.NAME"),
        ));
        let violations = db
            .query(&Plan::scan("R").join_on(Plan::scan("R").rename("R2"), phi))
            .unwrap();
        let p = boolean_confidence(
            &violations,
            db.world_table(),
            &DecompositionOptions::default(),
        )
        .unwrap();
        assert!((p - 0.56).abs() < 1e-12);
    }

    #[test]
    fn certain_and_possible_tuples() {
        let db = ssn_db();
        let names = db.query(&Plan::scan("R").project(&["NAME"])).unwrap();
        let options = DecompositionOptions::default();
        let certain = certain_tuples(&names, db.world_table(), &options).unwrap();
        assert_eq!(certain.len(), 2);
        let ssns = db.query(&Plan::scan("R").project(&["SSN"])).unwrap();
        let certain_ssns = certain_tuples(&ssns, db.world_table(), &options).unwrap();
        // No single SSN value is certain before conditioning.
        assert!(certain_ssns.is_empty());
        let possible = possible_tuples(&ssns, db.world_table(), &options).unwrap();
        assert_eq!(possible.len(), 3);
        let total: f64 = possible.iter().map(|(_, p)| p).sum();
        assert!(total > 1.0, "SSN marginals overlap across worlds");
    }

    #[test]
    fn answer_confidences_reports_cache_reuse_for_overlapping_tuples() {
        // Projecting to NAME groups each person's two rows; the answer-level
        // Boolean set then decomposes into exactly those per-person
        // components, which the batch already memoized — the stats must show
        // the reuse.
        let db = ssn_db();
        let names = db.query(&Plan::scan("R").project(&["NAME"])).unwrap();
        let full = exact_batch(&names, &db, 2);
        assert_eq!(full.tuples.len(), 2);
        for (_, p) in &full.tuples {
            assert!((p - 1.0).abs() < 1e-12);
        }
        assert!((full.boolean - 1.0).abs() < 1e-12);
        assert!(
            full.stats.cache_hits > 0,
            "boolean pass must reuse the per-tuple components: {:?}",
            full.stats
        );
        assert!(full.stats.cache_hit_rate() > 0.0);
    }

    #[test]
    fn strategy_batch_exact_and_hybrid_agree_bit_for_bit() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let names = db.query(&Plan::scan("R").project(&["NAME"])).unwrap();
        let exact = answer_confidences_with_strategy(
            &names,
            db.world_table(),
            &options,
            &ConfidenceStrategy::Exact,
            &ParallelOptions::new(2),
        )
        .unwrap();
        let hybrid = answer_confidences_with_strategy(
            &names,
            db.world_table(),
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
            &ParallelOptions::new(2),
        )
        .unwrap();
        assert_eq!(exact.tuples.len(), hybrid.tuples.len());
        assert_eq!(hybrid.sampled_tuples(), 0, "no spurious fallback");
        assert_eq!(hybrid.sampling_iterations(), 0);
        for ((t1, r1), (t2, r2)) in exact.tuples.iter().zip(&hybrid.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(r1.probability.to_bits(), r2.probability.to_bits());
        }
        assert_eq!(
            exact.boolean.probability.to_bits(),
            hybrid.boolean.probability.to_bits()
        );
        // And both match the plain batch path.
        let plain = exact_batch(&names, &db, 2);
        for ((t1, p1), (t2, r2)) in plain.tuples.iter().zip(&exact.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), r2.probability.to_bits());
        }
    }

    #[test]
    fn strategy_batch_approximate_lands_near_exact() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let ssns = db.query(&Plan::scan("R").project(&["SSN"])).unwrap();
        let exact = exact_batch(&ssns, &db, 1);
        let approx = answer_confidences_with_strategy(
            &ssns,
            db.world_table(),
            &options,
            &ConfidenceStrategy::approximate(0.05, 0.05).with_seed(19),
            &ParallelOptions::new(2),
        )
        .unwrap();
        assert_eq!(approx.sampled_tuples(), approx.tuples.len());
        assert!(approx.sampling_iterations() > 0);
        for ((t1, p1), (t2, r2)) in exact.tuples.iter().zip(&approx.tuples) {
            assert_eq!(t1, t2);
            assert!(
                (p1 - r2.probability).abs() <= 0.05 * p1 + 0.01,
                "tuple {t1:?}: exact {p1}, sampled {}",
                r2.probability
            );
        }
        assert!((approx.boolean.probability - exact.boolean).abs() <= 0.05 + 0.01);
    }

    #[test]
    fn strategy_batch_is_deterministic_across_worker_counts() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let ssns = db.query(&Plan::scan("R").project(&["SSN"])).unwrap();
        let strategy = ConfidenceStrategy::approximate(0.1, 0.05).with_seed(23);
        let reference = answer_confidences_with_strategy(
            &ssns,
            db.world_table(),
            &options,
            &strategy,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        for parallel in [
            ParallelOptions::new(2),
            ParallelOptions::new(8),
            ParallelOptions::auto(),
        ] {
            let got = answer_confidences_with_strategy(
                &ssns,
                db.world_table(),
                &options,
                &strategy,
                &parallel,
            )
            .unwrap();
            for ((t1, r1), (t2, r2)) in reference.tuples.iter().zip(&got.tuples) {
                assert_eq!(t1, t2);
                assert_eq!(
                    r1.probability.to_bits(),
                    r2.probability.to_bits(),
                    "{parallel:?}, tuple {t1:?}"
                );
            }
        }
    }

    #[test]
    fn batch_with_options_is_bit_identical_across_worker_counts() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        for projection in [&["SSN"][..], &["NAME"][..], &["SSN", "NAME"][..]] {
            let answer = db.query(&Plan::scan("R").project(projection)).unwrap();
            let reference = exact_batch(&answer, &db, 1);
            // A tiny grain forces the top split onto these small sets; both
            // the wide (tuple fan-out) and narrow (parallel decomposition)
            // régimes must reproduce the reference bits.
            for workers in [1, 2, 4, 8] {
                let parallel = ParallelOptions::new(workers).with_grain(2);
                let got = answer_confidences_with_options(
                    &answer,
                    db.world_table(),
                    &options,
                    &parallel,
                    &SharedDecompositionCache::new(),
                )
                .unwrap();
                assert_eq!(reference.tuples.len(), got.tuples.len());
                for ((t1, p1), (t2, p2)) in reference.tuples.iter().zip(&got.tuples) {
                    assert_eq!(t1, t2, "workers {workers}");
                    assert_eq!(
                        p1.to_bits(),
                        p2.to_bits(),
                        "workers {workers}, tuple {t1:?}"
                    );
                }
                assert_eq!(
                    reference.boolean.to_bits(),
                    got.boolean.to_bits(),
                    "workers {workers}"
                );
            }
        }
    }

    #[test]
    fn strategy_batch_with_options_is_bit_identical_across_worker_counts() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let ssns = db.query(&Plan::scan("R").project(&["SSN"])).unwrap();
        for strategy in [
            ConfidenceStrategy::Exact,
            ConfidenceStrategy::approximate(0.1, 0.05).with_seed(23),
            ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01).with_seed(23),
        ] {
            let reference = answer_confidences_with_strategy(
                &ssns,
                db.world_table(),
                &options,
                &strategy,
                &ParallelOptions::sequential(),
            )
            .unwrap();
            for workers in [1, 2, 8] {
                let parallel = ParallelOptions::new(workers).with_grain(2);
                let got = answer_confidences_with_strategy(
                    &ssns,
                    db.world_table(),
                    &options,
                    &strategy,
                    &parallel,
                )
                .unwrap();
                for ((t1, r1), (t2, r2)) in reference.tuples.iter().zip(&got.tuples) {
                    assert_eq!(t1, t2);
                    assert_eq!(
                        r1.probability.to_bits(),
                        r2.probability.to_bits(),
                        "workers {workers}, tuple {t1:?}"
                    );
                }
                assert_eq!(
                    reference.boolean.probability.to_bits(),
                    got.boolean.probability.to_bits(),
                    "workers {workers}"
                );
            }
        }
    }

    #[test]
    fn empty_answers_have_no_confidences() {
        let db = ssn_db();
        let none = db
            .query(&Plan::scan("R").select(Predicate::col_eq("NAME", "Nobody")))
            .unwrap();
        let options = DecompositionOptions::default();
        assert!(tuple_confidences(&none, db.world_table(), &options)
            .unwrap()
            .is_empty());
        assert_eq!(
            boolean_confidence(&none, db.world_table(), &options).unwrap(),
            0.0
        );
    }

    #[test]
    fn planned_conf_is_bit_identical_to_the_eager_answer() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        let plan = Plan::scan("R")
            .select(Predicate::col_eq("NAME", "Bill"))
            .project(&["SSN"]);
        let sequential = ParallelOptions::sequential();
        let planned = planned_answer_confidences_with_options(
            &db,
            &plan,
            &options,
            &sequential,
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        // The same plan run without the optimizer.
        let eager_answer = db.query_unoptimized(&plan).unwrap();
        let eager = answer_confidences_with_options(
            &eager_answer,
            db.world_table(),
            &options,
            &sequential,
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        assert_eq!(planned.tuples.len(), eager.tuples.len());
        for ((t1, p1), (t2, p2)) in planned.tuples.iter().zip(&eager.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
        assert_eq!(planned.boolean.to_bits(), eager.boolean.to_bits());
        assert!((planned.tuples[0].1 - 0.3).abs() < 1e-12);
        assert!((planned.tuples[1].1 - 0.7).abs() < 1e-12);
    }

    #[test]
    fn planned_strategies_and_boolean_confidence() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        // Example 2.3: the FD-violation self-join has confidence .56.
        let violation = Plan::scan("R")
            .join_on(
                Plan::scan("R").rename("R2"),
                Predicate::cols_eq("SSN", "R2.SSN").and(Predicate::cmp(
                    uprob_urel::Expr::col("NAME"),
                    uprob_urel::Comparison::Ne,
                    uprob_urel::Expr::col("R2.NAME"),
                )),
            )
            .project(&[]);
        let p =
            boolean_confidence(&db.query(&violation).unwrap(), db.world_table(), &options).unwrap();
        assert!((p - 0.56).abs() < 1e-12);

        let names = Plan::scan("R").project(&["NAME"]);
        let answer = db.query(&names).unwrap();
        let exact = answer_confidences_with_strategy(
            &answer,
            db.world_table(),
            &options,
            &ConfidenceStrategy::Exact,
            &ParallelOptions::sequential(),
        )
        .unwrap();
        let hybrid = answer_confidences_with_strategy(
            &answer,
            db.world_table(),
            &options,
            &ConfidenceStrategy::hybrid(1_000_000, 0.1, 0.01),
            &ParallelOptions::sequential(),
        )
        .unwrap();
        assert_eq!(hybrid.sampled_tuples(), 0);
        for ((t1, r1), (t2, r2)) in exact.tuples.iter().zip(&hybrid.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(r1.probability.to_bits(), r2.probability.to_bits());
        }
        // A cache shared across two planned queries reports reuse.
        let cache = SharedDecompositionCache::new();
        let sequential = ParallelOptions::sequential();
        let first =
            planned_answer_confidences_with_options(&db, &names, &options, &sequential, &cache)
                .unwrap();
        let second =
            planned_answer_confidences_with_options(&db, &names, &options, &sequential, &cache)
                .unwrap();
        assert_eq!(first.tuples, second.tuples);
        assert!(second.stats.cache_hits > 0, "warm run must hit the cache");
    }

    #[test]
    fn planned_errors_propagate() {
        let db = ssn_db();
        let bad = Plan::scan("NOPE");
        assert!(matches!(
            planned_answer_confidences_with_options(
                &db,
                &bad,
                &DecompositionOptions::default(),
                &ParallelOptions::sequential(),
                &SharedDecompositionCache::new(),
            ),
            Err(crate::QueryError::Urel(_))
        ));
    }
}
