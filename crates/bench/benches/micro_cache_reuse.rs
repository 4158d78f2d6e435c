//! Micro-benchmark of the shared decomposition cache and the batch
//! confidence path: the per-tuple `conf()` workload of the TPC-H Q1 answer
//! (Figure 10), computed sequentially without a cache versus batched over
//! one shared cache (single-threaded, to isolate memoization) versus the
//! full parallel batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_core::{
    confidence_parallel, DecompositionOptions, ParallelOptions, SharedDecompositionCache,
};
use uprob_datagen::{q1_answer_relation, TpchConfig, TpchDatabase};
use uprob_query::{answer_confidences_with_options, boolean_confidence};
use uprob_reference::query::tuple_confidences as tuple_confidences_sequential;

fn bench_cache_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_cache_reuse");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let options = DecompositionOptions::indve_minlog();
    let sequential = ParallelOptions::sequential();
    for scale in [0.01, 0.05] {
        let data = TpchDatabase::generate(
            TpchConfig::scale(scale)
                .with_row_scale(0.05)
                .with_seed(2008),
        );
        let table = data.db.world_table();
        let relation = q1_answer_relation(&data);
        // Per-tuple conf() plus the answer-level Boolean confidence, the
        // shape of the introduction's data-cleaning queries.
        group.bench_with_input(
            BenchmarkId::new("q1_conf_sequential", scale),
            &relation,
            |b, relation| {
                b.iter(|| {
                    let tuples =
                        tuple_confidences_sequential(black_box(relation), table, &options).unwrap();
                    let boolean = boolean_confidence(relation, table, &options).unwrap();
                    (tuples, boolean)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("q1_conf_batch_1thread", scale),
            &relation,
            |b, relation| {
                b.iter(|| {
                    answer_confidences_with_options(
                        black_box(relation),
                        table,
                        &options,
                        &sequential,
                        &SharedDecompositionCache::new(),
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("q1_conf_batch_parallel", scale),
            &relation,
            |b, relation| {
                b.iter(|| {
                    answer_confidences_with_options(
                        black_box(relation),
                        table,
                        &options,
                        &ParallelOptions::auto(),
                        &SharedDecompositionCache::new(),
                    )
                    .unwrap()
                })
            },
        );
        // The per-database cache: the first query pays for the memo table,
        // every following query over the same database rides it (the
        // repeated-query loops of the paper's data-cleaning scenario).
        let db_cache = SharedDecompositionCache::new();
        answer_confidences_with_options(&relation, table, &options, &sequential, &db_cache)
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("q1_conf_warm_db_cache", scale),
            &relation,
            |b, relation| {
                b.iter(|| {
                    answer_confidences_with_options(
                        black_box(relation),
                        table,
                        &options,
                        &sequential,
                        &db_cache,
                    )
                    .unwrap()
                })
            },
        );
        // Pure memoization: re-solving the whole answer ws-set against a
        // warm cache costs only the component lookups.
        let answer_set = relation.answer_ws_set();
        let cache = SharedDecompositionCache::new();
        confidence_parallel(&answer_set, table, &options, &sequential, Some(&cache)).unwrap();
        group.bench_with_input(
            BenchmarkId::new("warm_boolean_confidence", scale),
            &answer_set,
            |b, set| {
                b.iter(|| {
                    confidence_parallel(black_box(set), table, &options, &sequential, Some(&cache))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cache_reuse);
criterion_main!(benches);
