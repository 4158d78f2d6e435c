//! Figure 11(b): many variables, few ws-descriptors (s = 2) — the case
//! where independent partitioning pays off. INDVE against the Karp–Luby
//! estimator; plain VE is omitted here because it exceeds any reasonable
//! per-iteration time without independence partitioning (the finding the
//! figure reports).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_approx::{optimal_monte_carlo, ApproximationOptions};
use uprob_core::{available_workers, confidence, DecompositionOptions};
use uprob_datagen::{HardInstance, HardInstanceConfig};

fn bench_fig11b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11b_many_variables");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for w in [100usize, 500, 2_000] {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables: 20_000,
            alternatives: 4,
            descriptor_length: 2,
            num_descriptors: w,
            seed: 13,
        });
        group.bench_with_input(BenchmarkId::new("indve_minlog", w), &instance, |b, inst| {
            b.iter(|| {
                confidence(
                    black_box(&inst.ws_set),
                    &inst.world_table,
                    &DecompositionOptions::indve_minlog(),
                )
                .unwrap()
                .probability
            })
        });
        group.bench_with_input(BenchmarkId::new("kl_opt_e0.1", w), &instance, |b, inst| {
            b.iter(|| {
                optimal_monte_carlo(
                    black_box(&inst.ws_set),
                    &inst.world_table,
                    &ApproximationOptions::default().with_epsilon(0.1),
                    available_workers(),
                )
                .unwrap()
                .estimate
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig11b);
criterion_main!(benches);
