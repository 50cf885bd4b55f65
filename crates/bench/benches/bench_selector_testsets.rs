//! E4/E5 — (k, n)-selector test sets (Theorem 2.4): construction cost and
//! verification cost against pruned selection networks, swept over k.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sortnet_network::builders::selection::pruned_selector;
use sortnet_network::lanes::Backend;
use sortnet_testsets::selector;
use sortnet_testsets::verify::{try_verify_on, Property, Strategy};

fn bench_selector_testset_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_selector_testset_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let n = 14;
    for k in [1usize, 3, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| selector::binary_testset(black_box(n), k))
        });
    }
    group.finish();
}

fn bench_selector_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_selector_verification");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let n = 12;
    let backend = Backend::active();
    for k in [2usize, 4, 6] {
        let net = pruned_selector(n, k);
        for (label, strategy) in [
            ("binary_testset", Strategy::MinimalBinary),
            ("permutation_testset", Strategy::Permutation),
        ] {
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, &k| {
                b.iter(|| {
                    let property = Property::Selector { k };
                    try_verify_on(black_box(&net), property, strategy, backend).unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_selector_network_construction(c: &mut Criterion) {
    // Ablation: pruned selectors vs full sorters (DESIGN.md §6).
    let mut group = c.benchmark_group("e4_pruned_selector_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for k in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| pruned_selector(black_box(16), k))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_selector_testset_construction,
    bench_selector_verification,
    bench_selector_network_construction
);
criterion_main!(benches);
