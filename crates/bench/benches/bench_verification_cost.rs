//! E9 — wall-clock cost of deciding "is this network a sorter?" with the
//! three strategies whose test counts the paper bounds: exhaustive 2^n,
//! the minimal 0/1 test set (2^n − n − 1), and the optimal permutation test
//! set (C(n, ⌊n/2⌋) − 1).
//!
//! The paper's point (§2, Yao's observation) is that permutation test sets
//! are asymptotically smaller; this bench shows the corresponding wall-clock
//! ordering on real sorters and near-sorters.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::builders::transposition::odd_even_transposition;
use sortnet_network::lanes::Backend;
use sortnet_network::Network;
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};

/// Sorting verification of `net` by `strategy` on the detected backend.
fn sorter_report(net: &Network, strategy: Strategy) -> Report {
    try_verify_on(net, Property::Sorter, strategy, Backend::active()).unwrap()
}

fn bench_sorter_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_sorter_verification");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 12, 16] {
        let sorter = odd_even_merge_sort(n);
        for (label, strategy) in [
            ("exhaustive_2^n", Strategy::Exhaustive),
            ("minimal_binary", Strategy::MinimalBinary),
            ("permutation", Strategy::Permutation),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| sorter_report(black_box(&sorter), strategy))
            });
        }
    }
    group.finish();
}

fn bench_rejecting_a_non_sorter(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_non_sorter_rejection");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 12] {
        // One round short of sorting: a "nearly correct" network, the hard
        // case for randomised testing and the motivating case for test sets.
        let almost = odd_even_transposition(n, n - 1);
        for (label, strategy) in [
            ("exhaustive_2^n", Strategy::Exhaustive),
            ("minimal_binary", Strategy::MinimalBinary),
            ("permutation", Strategy::Permutation),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| sorter_report(black_box(&almost), strategy))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sorter_verification,
    bench_rejecting_a_non_sorter
);
criterion_main!(benches);
