//! Planned vs. eager execution on the TPC-H-shaped equi-join: the eager
//! nested-loop oracle (`uprob_reference::urel::execute_plan`), the
//! pipelined hash join on the pre-pushed plan (`query_unoptimized`), and
//! the full unoptimized Q1 product chain through the optimizer + pipelined
//! executor (`query`). Reports the ratio; regressions of the product path
//! are gated by the repo benchmark (`perfbench/`, `tpch_conf_cold`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_bench::orders_lineitem_join_plan;
use uprob_datagen::{q1_plan, TpchConfig, TpchDatabase};
use uprob_reference::urel as reference;

fn bench_planned_vs_eager(c: &mut Criterion) {
    let mut group = c.benchmark_group("planned_vs_eager");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for row_scale in [0.02, 0.1] {
        let data = TpchDatabase::generate(
            TpchConfig::scale(0.01)
                .with_row_scale(row_scale)
                .with_seed(2008),
        );
        let join = orders_lineitem_join_plan();
        // Sanity: the two join paths agree before we time them.
        assert_eq!(
            reference::execute_plan(&data.db, &join).unwrap().rows(),
            data.db.query_unoptimized(&join).unwrap().rows(),
        );
        group.bench_with_input(
            BenchmarkId::new("eager_nested_loop_join", row_scale),
            &data,
            |b, data| b.iter(|| reference::execute_plan(&data.db, black_box(&join)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("pipelined_hash_join", row_scale),
            &data,
            |b, data| b.iter(|| data.db.query_unoptimized(black_box(&join)).unwrap()),
        );
        // The full Q1 plan in its unoptimized product-chain form: rule
        // firing + pipelined hash joins, per query.
        let q1 = q1_plan();
        group.bench_with_input(
            BenchmarkId::new("optimized_q1_chain", row_scale),
            &data,
            |b, data| b.iter(|| data.db.query(black_box(&q1)).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_planned_vs_eager);
criterion_main!(benches);
