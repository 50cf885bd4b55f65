//! E10 — fault-simulation throughput: running the paper's minimal test set
//! and random samples against the single-fault universe of Batcher sorters.
//!
//! The `engine_comparison` group races the scalar engine (one fault × one
//! test per call) against the bit-parallel engine (64 tests per pass with
//! shared-prefix forking) on the same workload — Batcher's merge-exchange
//! sorter with the Theorem 2.2 minimal 0/1 test set (`2^n − n − 1` tests) —
//! at n ∈ {8, 16}.  The `lane_width_sweep` group races lane widths
//! W ∈ {1, 2, 4, 8, 16} on the same coverage workload and on the plain
//! exhaustive `2^n` sorter sweep at n ∈ {16, 20} — the W sweet-spot study.
//! The `simd_backend` group races the lane-ops backends (scalar, and
//! AVX2 where the CPU has it) on the exhaustive sweep
//! and on the two-level pair-universe redundancy sweep; `universe_sweep`
//! covers the multi-fault universes with per-fault throughput annotations
//! (`elements` = universe size in the JSON) so universes of different
//! sizes are comparable; `augmentation_search` times the certified
//! minimal-augmentation pipeline (coverage + streamed candidate matrix +
//! exact set cover) on the stuck-line universes.  The criterion shim
//! writes the measurements to
//! `target/bench-summaries/bench_fault_coverage.json` for the `BENCH_*`
//! perf trajectory.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sortnet_combinat::BitString;
use sortnet_faults::universe::{FaultUniverse, SingleComparator};
use sortnet_faults::{
    redundant_faults_multi_on, try_coverage_of_universe_packed_with, CoverageReport,
    FaultSimEngine, MultiFault, RedundancyMode, StandardUniverse,
};
use sortnet_network::bitparallel::find_unsorted_input;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, LaneWidth, Sweep};
use sortnet_network::random::NetworkSampler;
use sortnet_network::{Network, SweepBudget};
use sortnet_testsets::augment::{
    try_minimum_augmentation_packed, CandidatePool, SearchOptions, SuggestAugmentation,
};
use sortnet_testsets::sorting;

/// The single-comparator coverage grade the E10 groups time.
fn single_comparator_grade(
    net: &Network,
    tests: &[BitString],
    mode: RedundancyMode,
    engine: FaultSimEngine,
) -> CoverageReport {
    try_coverage_of_universe_packed_with(net, &SingleComparator, tests, mode, engine)
        .expect("the E10 grades are admissible")
}

/// An exhaustive sweep at `width` on `backend`, pinned to the calling
/// thread by a block cap that never trips.
fn sequential(width: LaneWidth, backend: Backend) -> Sweep {
    Sweep {
        backend,
        width,
        budget: SweepBudget::unlimited().with_max_blocks(u64::MAX),
    }
}

fn bench_fault_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_fault_coverage");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [8usize, 10] {
        let net = odd_even_merge_sort(n);
        let minimal = sorting::binary_testset(n);
        let mut sampler = NetworkSampler::new(1);
        let random: Vec<BitString> = (0..minimal.len())
            .map(|_| sampler.random_input(n))
            .collect();
        group.bench_with_input(BenchmarkId::new("minimal_testset", n), &n, |b, _| {
            b.iter(|| {
                single_comparator_grade(
                    black_box(&net),
                    black_box(&minimal),
                    RedundancyMode::Skip,
                    FaultSimEngine::default(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("random_same_budget", n), &n, |b, _| {
            b.iter(|| {
                single_comparator_grade(
                    black_box(&net),
                    black_box(&random),
                    RedundancyMode::Skip,
                    FaultSimEngine::default(),
                )
            })
        });
    }
    group.finish();
}

fn bench_engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_comparison");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for n in [8usize, 16] {
        let net = odd_even_merge_sort(n);
        let minimal = sorting::binary_testset(n);
        for (label, engine) in [
            ("scalar", FaultSimEngine::Scalar),
            (
                "bitparallel",
                FaultSimEngine::BitParallelWide(LaneWidth::W4),
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    single_comparator_grade(
                        black_box(&net),
                        black_box(&minimal),
                        RedundancyMode::Exhaustive,
                        engine,
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_engine_comparison_no_redundancy(c: &mut Criterion) {
    // Pure simulation throughput: no redundancy sweeps, so the comparison
    // isolates the 64-lane + shared-prefix win on the detection scan itself.
    let mut group = c.benchmark_group("engine_comparison_no_redundancy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for n in [8usize, 16] {
        let net = odd_even_merge_sort(n);
        let minimal = sorting::binary_testset(n);
        for (label, engine) in [
            ("scalar", FaultSimEngine::Scalar),
            (
                "bitparallel",
                FaultSimEngine::BitParallelWide(LaneWidth::W4),
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    single_comparator_grade(
                        black_box(&net),
                        black_box(&minimal),
                        RedundancyMode::Skip,
                        engine,
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_lane_width_sweep(c: &mut Criterion) {
    // The W sweet-spot study: the same workloads at lane widths
    // W ∈ {1, 2, 4, 8, 16}.  `coverage` runs the Theorem 2.2 minimal test
    // set against the full single-fault universe (with redundancy sweeps
    // for missed faults); `verify_exhaustive` is the plain `2^n` zero–one
    // sorter sweep.  Sequential hints so the comparison isolates the lane
    // width from thread-pool effects; the runtime-detected backend (AVX2
    // here where available) applies to every width equally.
    let mut group = c.benchmark_group("lane_width_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let n = 16usize;
    let net = odd_even_merge_sort(n);
    let minimal = sorting::binary_testset(n);
    for (label, width) in [
        ("coverage_w1", LaneWidth::W1),
        ("coverage_w2", LaneWidth::W2),
        ("coverage_w4", LaneWidth::W4),
        ("coverage_w8", LaneWidth::W8),
        ("coverage_w16", LaneWidth::W16),
    ] {
        let engine = FaultSimEngine::BitParallelWide(width);
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| {
                single_comparator_grade(
                    black_box(&net),
                    black_box(&minimal),
                    RedundancyMode::Exhaustive,
                    engine,
                )
            })
        });
    }

    for vn in [16usize, 20] {
        let vnet = odd_even_merge_sort(vn);
        for width in LaneWidth::ALL {
            let sweep = sequential(width, Backend::active());
            let label = format!("verify_exhaustive_w{}", width.words());
            group.bench_with_input(BenchmarkId::new(label, vn), &vn, |b, _| {
                b.iter(|| find_unsorted_input(black_box(&vnet), &sweep))
            });
        }
    }
    group.finish();
}

fn bench_simd_backend(c: &mut Criterion) {
    // The lane-ops backends head to head, on the CPU's runnable set (the
    // scalar reference everywhere; AVX2 on x86_64 CPUs that have it).
    // Two workloads: the n = 20 exhaustive zero–one sweep at W ∈ {4, 8}
    // (pure comparator throughput) and the two-level pairs(stuck-line)
    // batch redundancy sweep on Batcher n = 8 (fork-heavy).
    let mut group = c.benchmark_group("simd_backend");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let vnet = odd_even_merge_sort(20);
    let net8 = odd_even_merge_sort(8);
    let stuck_pairs: Vec<MultiFault> = StandardUniverse::StuckLinePairs.iter(&net8).collect();
    // The verify benches run before any throughput annotation is set: the
    // shim's throughput is sticky group state, and only the pair sweeps
    // below are per-fault workloads.
    for backend in Backend::runnable() {
        group.bench_with_input(
            BenchmarkId::new(format!("verify_n20_w4_{}", backend.name()), 20),
            &backend,
            |b, &backend| {
                let sweep = sequential(LaneWidth::W4, backend);
                b.iter(|| find_unsorted_input(black_box(&vnet), &sweep))
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("verify_n20_w8_{}", backend.name()), 20),
            &backend,
            |b, &backend| {
                let sweep = sequential(LaneWidth::W8, backend);
                b.iter(|| find_unsorted_input(black_box(&vnet), &sweep))
            },
        );
    }
    group.throughput(Throughput::Elements(stuck_pairs.len() as u64));
    for backend in Backend::runnable() {
        group.bench_with_input(
            BenchmarkId::new(format!("pairs_redundancy_n8_{}", backend.name()), 8),
            &backend,
            |b, &backend| {
                b.iter(|| {
                    redundant_faults_multi_on::<4>(
                        black_box(&net8),
                        black_box(&stuck_pairs),
                        backend,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_universe_sweep(c: &mut Criterion) {
    // Multi-fault universes on the bit-parallel engine: the stuck-line
    // universe (linear in the network) and the quadratic pair universes,
    // all with the Theorem 2.2 minimal test set and redundancy
    // classification via the shared-prefix batch sweep.  Each benchmark is
    // annotated with its universe size (`elements` in the JSON), so the
    // JSON consumer can normalise to per-fault throughput — universes
    // differ by two orders of magnitude, and per-run times are not
    // comparable across them.
    let mut group = c.benchmark_group("universe_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let n = 8usize;
    let net = odd_even_merge_sort(n);
    let minimal = sorting::binary_testset(n);
    for universe in StandardUniverse::ALL {
        let label = match universe {
            StandardUniverse::SingleComparator => "single",
            StandardUniverse::StuckLine => "stuck_line",
            StandardUniverse::SingleComparatorPairs => "single_pairs",
            StandardUniverse::StuckLinePairs => "stuck_line_pairs",
        };
        group.throughput(Throughput::Elements(universe.len(&net) as u64));
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| {
                try_coverage_of_universe_packed_with(
                    black_box(&net),
                    &universe,
                    black_box(&minimal),
                    RedundancyMode::Exhaustive,
                    FaultSimEngine::BitParallelWide(LaneWidth::W4),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_augmentation_search(c: &mut Criterion) {
    // The minimal-augmentation pipeline on the PR acceptance workloads:
    // Batcher n = 8 with the Theorem 2.2 minimal set, stuck-line and
    // pairs(stuck-line) universes, exhaustive 2^n candidate pool.
    // `end_to_end` includes the coverage + redundancy run; `search_only`
    // starts from a prebuilt coverage report (the streamed candidate
    // matrix + certified set-cover search), annotated with the number of
    // missed faults the cover spans (`elements` in the JSON).
    let mut group = c.benchmark_group("augmentation_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 8usize;
    let net = odd_even_merge_sort(n);
    let minimal = sorting::binary_testset(n);
    let workloads = [
        ("stuck_line", StandardUniverse::StuckLine),
        ("stuck_line_pairs", StandardUniverse::StuckLinePairs),
    ];
    // The unannotated end-to-end benches run before any throughput is set
    // (the shim's throughput is sticky group state).
    for (label, universe) in workloads {
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_end_to_end"), n),
            &universe,
            |b, universe| {
                b.iter(|| {
                    try_minimum_augmentation_packed(
                        black_box(&net),
                        universe,
                        black_box(&minimal),
                        &CandidatePool::Exhaustive,
                        &SearchOptions::default(),
                    )
                    .unwrap()
                })
            },
        );
    }
    for (label, universe) in workloads {
        let report = try_coverage_of_universe_packed_with(
            &net,
            &universe,
            &minimal,
            RedundancyMode::Exhaustive,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        )
        .unwrap();
        group.throughput(Throughput::Elements(report.missed_faults.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_search_only"), n),
            &report,
            |b, report| {
                b.iter(|| {
                    report
                        .try_suggest_augmentation(
                            black_box(&net),
                            &CandidatePool::<BitString>::Exhaustive,
                            &SearchOptions::default(),
                        )
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_coverage,
    bench_engine_comparison,
    bench_engine_comparison_no_redundancy,
    bench_lane_width_sweep,
    bench_simd_backend,
    bench_universe_sweep,
    bench_augmentation_search
);
criterion_main!(benches);
