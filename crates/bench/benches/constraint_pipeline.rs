//! The constraint pipeline: single-pass `assert_all` vs the sequential
//! `assert_constraint` fold on the FK/denial workload fixture, plus the
//! violation-compilation paths (planned hash self-join vs the eager
//! quadratic pair loop) in isolation.
//!
//! Reports the ratios; regressions of the product path are gated by the
//! repo benchmark (`perfbench/`, `condition_assert`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_core::ConditioningOptions;
use uprob_datagen::{ConstraintWorkload, ConstraintWorkloadConfig};
use uprob_query::{assert_all, assert_constraint, Constraint};
use uprob_reference::query as reference;
use uprob_urel::ProbDb;

fn sequential_asserts(db: &ProbDb, constraints: &[Constraint], options: &ConditioningOptions) {
    let mut current = db.clone();
    for constraint in constraints {
        current = assert_constraint(&current, constraint, options)
            .expect("fixture constraints are satisfiable")
            .db;
    }
    black_box(current);
}

fn bench_constraint_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("constraint_pipeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let options = ConditioningOptions::default();
    for people in [24usize, 48] {
        let workload = ConstraintWorkload::generate(ConstraintWorkloadConfig {
            departments: 6,
            people,
            ..Default::default()
        });
        group.bench_with_input(
            BenchmarkId::new("assert_all_single_pass", people),
            &workload,
            |b, w| {
                b.iter(|| {
                    black_box(
                        assert_all(&w.db, &w.constraints, &options)
                            .unwrap()
                            .confidence,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_asserts", people),
            &workload,
            |b, w| b.iter(|| sequential_asserts(&w.db, &w.constraints, &options)),
        );
    }
    // Violation compilation in isolation: the planned hash self-join vs
    // the eager quadratic pair loop on the key constraint, at a scale
    // where conditioning would dwarf both.
    let workload = ConstraintWorkload::generate(ConstraintWorkloadConfig {
        departments: 6,
        people: 2_000,
        ..Default::default()
    });
    let key = &workload.constraints[0];
    group.bench_with_input(
        BenchmarkId::new("violation_planned_hash_join", 2_000),
        &workload,
        |b, w| b.iter(|| black_box(key.violation_ws_set(&w.db).unwrap().len())),
    );
    group.bench_with_input(
        BenchmarkId::new("violation_eager_pair_loop", 2_000),
        &workload,
        |b, w| b.iter(|| black_box(reference::violation_ws_set(key, &w.db).unwrap().len())),
    );
    group.finish();
}

criterion_group!(benches, bench_constraint_pipeline);
criterion_main!(benches);
