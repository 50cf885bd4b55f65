//! Substrate ablation: scalar vs bit-parallel evaluation of the exhaustive
//! 2^n zero–one sweep, the bit-parallel sweep both as the block loop over
//! the exhaustive source on the calling thread and as
//! `bitparallel::find_unsorted_input` (which fans out over scoped threads
//! from 22 lines on, so the n = 22 rows time the fan-out against the
//! calling thread), and raw network application throughput.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sortnet_combinat::BitString;
use sortnet_network::bitparallel::{count_unsorted_outputs, find_unsorted_input};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::builders::bubble::bubble_sort_network;
use sortnet_network::lanes::{self, Backend, Check, RangeSource, DEFAULT_WIDTH};
use sortnet_network::BudgetMeter;

fn bench_exhaustive_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_exhaustive_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let backend = Backend::active();
    for n in [12usize, 16, 20, 22] {
        let net = odd_even_merge_sort(n);
        group.throughput(Throughput::Elements(1u64 << n));
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, &n| {
            b.iter(|| {
                BitString::all(n)
                    .filter(|s| !net.apply_bits(s).is_sorted())
                    .count()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("bitparallel_sequential", n),
            &n,
            |b, &n| {
                b.iter(|| {
                    lanes::sweep_find::<DEFAULT_WIDTH, BitString, _>(
                        RangeSource::exhaustive(n),
                        &Check::Sorted(black_box(&net)),
                        backend,
                        &mut BudgetMeter::unlimited(),
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("bitparallel_unlimited", n), &n, |b, _| {
            b.iter(|| find_unsorted_input(black_box(&net), backend))
        });
    }
    group.finish();
}

fn bench_failure_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_failure_counting");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [12usize, 16, 22] {
        let nearly = bubble_sort_network(n).without_comparator(0);
        group.bench_with_input(
            BenchmarkId::new("count_unsorted_unlimited", n),
            &n,
            |b, _| b.iter(|| count_unsorted_outputs(black_box(&nearly), Backend::active())),
        );
    }
    group.finish();
}

fn bench_single_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_single_application");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for n in [16usize, 64] {
        let net = odd_even_merge_sort(n);
        let input: Vec<u32> = (0..n as u32).rev().collect();
        group.bench_with_input(BenchmarkId::new("apply_vec_u32", n), &n, |b, _| {
            b.iter(|| net.apply_vec(black_box(&input)))
        });
        if n <= 32 {
            let bits = BitString::from_word(0xAAAA_AAAA, n.min(32));
            group.bench_with_input(BenchmarkId::new("apply_bits", n), &n, |b, _| {
                b.iter(|| net.apply_bits(black_box(&bits)))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exhaustive_sweep,
    bench_failure_counting,
    bench_single_application
);
criterion_main!(benches);
