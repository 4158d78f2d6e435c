//! Figure 11(a): few variables (100), many ws-descriptors — VE and INDVE
//! against the Karp–Luby estimator (adaptive stopping, to keep the bench
//! fast) as the ws-set grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_approx::{optimal_monte_carlo, ApproximationOptions};
use uprob_core::{
    available_workers, confidence, estimate_confidence, ConfidenceStrategy, DecompositionOptions,
};
use uprob_datagen::{HardInstance, HardInstanceConfig};

fn bench_fig11a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11a_many_descriptors");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for w in [1_000usize, 2_000, 5_000] {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables: 100,
            alternatives: 4,
            descriptor_length: 4,
            num_descriptors: w,
            seed: 11,
        });
        // The exact methods are run under a node budget so the bench's
        // per-iteration time stays bounded even in the hard region; the
        // budget plays the role of the paper's per-run timeout.
        group.bench_with_input(BenchmarkId::new("ve_minlog", w), &instance, |b, inst| {
            b.iter(|| {
                confidence(
                    black_box(&inst.ws_set),
                    &inst.world_table,
                    &DecompositionOptions::ve_minlog().with_budget(1_000_000),
                )
                .map(|c| c.probability)
                .unwrap_or(f64::NAN)
            })
        });
        group.bench_with_input(BenchmarkId::new("indve_minlog", w), &instance, |b, inst| {
            b.iter(|| {
                confidence(
                    black_box(&inst.ws_set),
                    &inst.world_table,
                    &DecompositionOptions::indve_minlog().with_budget(1_000_000),
                )
                .map(|c| c.probability)
                .unwrap_or(f64::NAN)
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
        // The hybrid engine on the same sweep: pays the budgeted exact
        // attempt, then falls back to the adaptive estimator above.
        group.bench_with_input(
            BenchmarkId::new("hybrid_b100k_e0.1", w),
            &instance,
            |b, inst| {
                b.iter(|| {
                    estimate_confidence(
                        black_box(&inst.ws_set),
                        &inst.world_table,
                        &DecompositionOptions::indve_minlog(),
                        &ConfidenceStrategy::hybrid(100_000, 0.1, 0.01),
                        None,
                    )
                    .unwrap()
                    .probability
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig11a);
criterion_main!(benches);
