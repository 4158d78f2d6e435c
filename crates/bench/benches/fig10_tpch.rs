//! Figure 10: INDVE(minlog) confidence computation on the answers of the
//! TPC-H queries Q1 and Q2, across scale factors, plus the per-tuple
//! `conf()` workload through the shared-cache batch path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_core::{confidence, DecompositionOptions, ParallelOptions, SharedDecompositionCache};
use uprob_datagen::{
    q1_answer, q1_answer_relation, q2_answer, q2_answer_relation, TpchConfig, TpchDatabase,
};
use uprob_query::answer_confidences_with_options;

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_tpch");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for scale in [0.01, 0.05] {
        let data = TpchDatabase::generate(
            TpchConfig::scale(scale)
                .with_row_scale(0.03)
                .with_seed(2008),
        );
        let table = data.db.world_table();
        let q1 = q1_answer(&data);
        let q2 = q2_answer(&data);
        group.bench_with_input(
            BenchmarkId::new("q1_indve_minlog", scale),
            &q1,
            |b, answer| {
                b.iter(|| {
                    confidence(
                        black_box(&answer.ws_set),
                        table,
                        &DecompositionOptions::indve_minlog(),
                    )
                    .unwrap()
                    .probability
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("q2_indve_minlog", scale),
            &q2,
            |b, answer| {
                b.iter(|| {
                    confidence(
                        black_box(&answer.ws_set),
                        table,
                        &DecompositionOptions::indve_minlog(),
                    )
                    .unwrap()
                    .probability
                })
            },
        );
        // The same queries as per-tuple conf() workloads through the batch
        // path (shared decomposition cache + scoped worker threads).
        for (name, relation) in [
            ("q1_batch_conf", q1_answer_relation(&data)),
            ("q2_batch_conf", q2_answer_relation(&data)),
        ] {
            group.bench_with_input(BenchmarkId::new(name, scale), &relation, |b, relation| {
                b.iter(|| {
                    answer_confidences_with_options(
                        black_box(relation),
                        table,
                        &DecompositionOptions::indve_minlog(),
                        &ParallelOptions::auto(),
                        &SharedDecompositionCache::new(),
                    )
                    .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
