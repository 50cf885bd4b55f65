//! E6 — (n/2, n/2)-merging test sets (Theorem 2.5): the quadratic 0/1 set
//! (n²/4) against the linear permutation set (n/2) on Batcher's odd–even
//! merger.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sortnet_network::builders::batcher::half_half_merger;
use sortnet_network::lanes::Backend;
use sortnet_testsets::merging;
use sortnet_testsets::verify::{try_verify_on, Property, Strategy};

fn bench_merger_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_merger_verification");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let backend = Backend::active();
    for n in [8usize, 16, 32] {
        let merger = half_half_merger(n);
        for (label, strategy) in [
            ("binary_n2_over_4", Strategy::MinimalBinary),
            ("permutation_n_over_2", Strategy::Permutation),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    try_verify_on(black_box(&merger), Property::Merger, strategy, backend).unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_merging_testset_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_merging_testset_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [16usize, 32, 48] {
        group.bench_with_input(BenchmarkId::new("binary", n), &n, |b, &n| {
            b.iter(|| merging::binary_testset(black_box(n)))
        });
        group.bench_with_input(BenchmarkId::new("permutation", n), &n, |b, &n| {
            b.iter(|| merging::permutation_testset(black_box(n)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_merger_verification,
    bench_merging_testset_construction
);
criterion_main!(benches);
