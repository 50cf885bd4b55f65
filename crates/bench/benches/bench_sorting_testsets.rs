//! E1/E2 — cost of *constructing* the minimum sorting test sets
//! (Theorem 2.2): the 0/1 set of all unsorted strings and the permutation
//! set built from B(n, ⌊n/2⌋) via symmetric chains.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sortnet_testsets::criteria::is_permutation_testset;
use sortnet_testsets::sorting;
use sortnet_testsets::verify::Property;

fn bench_binary_testset_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_binary_testset_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| sorting::binary_testset(black_box(n)))
        });
    }
    group.finish();
}

fn bench_permutation_testset_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_permutation_testset_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 10, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| sorting::permutation_testset(black_box(n)))
        });
    }
    group.finish();
}

fn bench_testset_validity_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_testset_validity_check");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 10] {
        let ts = sorting::permutation_testset(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| is_permutation_testset(black_box(&ts), n, Property::Sorter))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_binary_testset_construction,
    bench_permutation_testset_construction,
    bench_testset_validity_check
);
criterion_main!(benches);
