//! Ablation: the value of the two decomposition rules and of the variable
//! ordering — INDVE(minlog), INDVE with the naive first-variable ordering,
//! VE-only and ws-descriptor elimination on an independence-rich workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use uprob_core::{confidence, confidence_by_elimination, DecompositionOptions, VariableHeuristic};
use uprob_datagen::{HardInstance, HardInstanceConfig};

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_decomposition");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for w in [16usize, 50, 200, 800] {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables: (w * 4).max(16),
            alternatives: 2,
            descriptor_length: 2,
            num_descriptors: w,
            seed: 19,
        });
        // Plain VE is budget-capped (it is exponential without independence
        // partitioning on this workload) and WE is only run on the smallest
        // size (its difference expansion is exponential, Section 6).
        let configurations = [
            ("indve_minlog", DecompositionOptions::indve_minlog()),
            (
                "indve_firstvar",
                DecompositionOptions {
                    heuristic: VariableHeuristic::FirstVariable,
                    ..DecompositionOptions::indve_minlog()
                },
            ),
            (
                "ve_minlog_capped",
                DecompositionOptions::ve_minlog().with_budget(100_000),
            ),
        ];
        for (label, options) in configurations {
            group.bench_with_input(BenchmarkId::new(label, w), &instance, |b, inst| {
                b.iter(|| {
                    confidence(black_box(&inst.ws_set), &inst.world_table, &options)
                        .map(|c| c.probability)
                        .unwrap_or(f64::NAN)
                })
            });
        }
        if w <= 16 {
            group.bench_with_input(BenchmarkId::new("we", w), &instance, |b, inst| {
                b.iter(|| {
                    confidence_by_elimination(black_box(&inst.ws_set), &inst.world_table, None)
                        .unwrap()
                        .probability
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
