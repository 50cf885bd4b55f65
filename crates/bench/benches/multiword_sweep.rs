//! `multiword_sweep` — the first perf datapoints past the 64-line wall.
//!
//! The `multiword_sweep` group times the packed (`ChannelVec`) engine on
//! Batcher sorters at n ∈ {65, 96, 128} (one line over the word seam,
//! mid-word, exactly two full words): the stuck-line detection matrix
//! against the n + 1 sorted strings at W ∈ {1, 4}, the full stuck-line
//! coverage report, and the certified augmentation search over an explicit
//! candidate pool (matrix streaming + exact set cover, starting from a
//! precomputed missed-fault list — redundancy sweeps are exhaustive `2^n`
//! and stay out of multi-word benches).  The `monomorphised_baseline`
//! group pins the n = 64 single-word cost two ways — `P = BitString` and
//! `P = ChannelVec` with one channel word — so an overhead in the
//! word-generic layer shows up as a ratio between adjacent records.
//! Every matrix here is the matrix driver over a `SliceSource`, so it
//! includes the echo of the swept vectors.  Matrix benches are annotated with
//! the universe size (`elements` in the JSON) for per-fault throughput.
//! The criterion shim writes `target/bench-summaries/multiword_sweep.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sortnet_combinat::{BitString, ChannelPack, ChannelVec};
use sortnet_faults::bitsim::{detection_matrix_from_source_packed_on, DetectionMatrix};
use sortnet_faults::coverage::try_coverage_of_universe_packed_with;
use sortnet_faults::universe::{FaultUniverse, MultiFault, StandardUniverse, TestVector};
use sortnet_faults::{FaultSimEngine, RedundancyMode};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, LaneWidth, SliceSource};
use sortnet_network::Network;
use sortnet_testsets::augment::{try_augmentation_for_missed_packed, CandidatePool, SearchOptions};

/// The faults × tests matrix of an explicit test list on the active
/// backend.
fn matrix<const W: usize, P: TestVector>(
    net: &Network,
    faults: &[MultiFault],
    tests: &[P],
) -> DetectionMatrix {
    let source = SliceSource::new(net.lines(), tests);
    detection_matrix_from_source_packed_on::<W, P, _>(net, faults, source, Backend::active()).0
}

/// The n + 1 sorted zero–one strings `0^n, 0^(n-1)1, …, 1^n` in the
/// universal multi-word packing.
fn sorted_strings(n: usize) -> Vec<ChannelVec> {
    (0..=n)
        .map(|ones| ChannelVec::sorted_of(n - ones, ones))
        .collect()
}

fn bench_multiword_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiword_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [65usize, 96, 128] {
        let net = odd_even_merge_sort(n);
        let tests = sorted_strings(n);
        let faults: Vec<MultiFault> = StandardUniverse::StuckLine.iter(&net).collect();
        group.throughput(Throughput::Elements(faults.len() as u64));
        for (label, width) in [
            ("matrix_stuck_line_w1", 1usize),
            ("matrix_stuck_line_w4", 4),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| match width {
                    1 => matrix::<1, ChannelVec>(
                        black_box(&net),
                        black_box(&faults),
                        black_box(&tests),
                    ),
                    _ => matrix::<4, ChannelVec>(
                        black_box(&net),
                        black_box(&faults),
                        black_box(&tests),
                    ),
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("coverage_stuck_line_w4", n), &n, |b, _| {
            b.iter(|| {
                try_coverage_of_universe_packed_with(
                    black_box(&net),
                    &StandardUniverse::StuckLine,
                    black_box(&tests),
                    RedundancyMode::Skip,
                    FaultSimEngine::BitParallelWide(LaneWidth::W4),
                )
                .unwrap()
            })
        });
    }

    // Certified augmentation search on the 96-line acceptance workload:
    // the missed-fault list is precomputed (no redundancy sweep — that
    // would be an exhaustive 2^96 pass), so the bench times the streamed
    // candidates × missed matrix plus the exact set-cover search.
    let n = 96usize;
    let net = odd_even_merge_sort(n);
    let base = sorted_strings(n);
    let report = try_coverage_of_universe_packed_with(
        &net,
        &StandardUniverse::StuckLine,
        &base,
        RedundancyMode::Skip,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
    )
    .unwrap();
    let pool = CandidatePool::Explicit(vec![
        ChannelVec::zeros(n),
        ChannelVec::ones(n),
        ChannelVec::from_fn(n, |i| i % 2 == 0),
        ChannelVec::from_fn(n, |i| i < 48),
    ]);
    group.throughput(Throughput::Elements(report.missed_faults.len() as u64));
    group.bench_with_input(BenchmarkId::new("augment_search", n), &n, |b, _| {
        b.iter(|| {
            try_augmentation_for_missed_packed(
                black_box(&net),
                black_box(&report.missed_faults),
                &pool,
                &SearchOptions::default(),
            )
        })
    });
    group.finish();
}

fn bench_monomorphised_baseline(c: &mut Criterion) {
    // The n = 64 single-word workload two ways: `packed_bitstring` is the
    // monomorphised fast path the n ≤ 64 benches rely on, and
    // `packed_channelvec` pays the one-channel-word `Vec<u64>` layout.
    let mut group = c.benchmark_group("monomorphised_baseline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 64usize;
    let net = odd_even_merge_sort(n);
    let faults: Vec<MultiFault> = StandardUniverse::StuckLine.iter(&net).collect();
    let bit_tests: Vec<BitString> = (0..=n)
        .map(|ones| BitString::sorted_of(n - ones, ones))
        .collect();
    let channel_tests: Vec<ChannelVec> = bit_tests
        .iter()
        .map(|&t| ChannelVec::from_bitstring(t))
        .collect();
    group.throughput(Throughput::Elements(faults.len() as u64));
    group.bench_with_input(BenchmarkId::new("packed_bitstring_w4", n), &n, |b, _| {
        b.iter(|| {
            matrix::<4, BitString>(black_box(&net), black_box(&faults), black_box(&bit_tests))
        })
    });
    group.bench_with_input(BenchmarkId::new("packed_channelvec_w4", n), &n, |b, _| {
        b.iter(|| {
            matrix::<4, ChannelVec>(
                black_box(&net),
                black_box(&faults),
                black_box(&channel_tests),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_multiword_sweep, bench_monomorphised_baseline);
criterion_main!(benches);
