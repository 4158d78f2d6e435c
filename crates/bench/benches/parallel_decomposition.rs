//! Micro-benchmark of the parallel exact fold (the top of the ws-tree
//! split on the calling thread, its subtrees run as indexed jobs): the
//! block-parallel hard workload (variable-disjoint hard blocks, so the
//! root ⊗-partition fans out across workers) decomposed at 1, 2 and 4
//! workers, plus the TPC-H Q1 boolean answer of Figure 10. Worker count 1
//! is the sequential fold itself (`confidence_parallel` delegates), so the
//! per-worker series directly reads off the scaling curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_bench::{ParallelWorkload, ParallelWorkloadConfig};
use uprob_core::{confidence_parallel, DecompositionOptions, ParallelOptions};
use uprob_datagen::{q1_answer_relation, TpchConfig, TpchDatabase};

fn bench_parallel_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_decomposition");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let options = DecompositionOptions::indve_minlog();

    let workload = ParallelWorkload::generate(ParallelWorkloadConfig {
        blocks: 6,
        vars_per_block: 20,
        descriptors_per_block: 20,
        ..Default::default()
    });
    for workers in [1usize, 2, 4] {
        let parallel = ParallelOptions::new(workers);
        group.bench_with_input(
            BenchmarkId::new("hard_blocks", workers),
            &parallel,
            |b, parallel| {
                b.iter(|| {
                    confidence_parallel(
                        black_box(&workload.ws_set),
                        &workload.world_table,
                        &options,
                        parallel,
                        None,
                    )
                    .unwrap()
                })
            },
        );
    }

    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(2008));
    let q1_boolean = q1_answer_relation(&data).answer_ws_set();
    for workers in [1usize, 4] {
        let parallel = ParallelOptions::new(workers);
        group.bench_with_input(
            BenchmarkId::new("tpch_q1_boolean", workers),
            &parallel,
            |b, parallel| {
                b.iter(|| {
                    confidence_parallel(
                        black_box(&q1_boolean),
                        data.db.world_table(),
                        &options,
                        parallel,
                        None,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_decomposition);
criterion_main!(benches);
