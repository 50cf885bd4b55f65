//! `packed_families` — the cost of the structured-family layer past the
//! 64-line wall.
//!
//! The `family_fill` group times three ways of getting each
//! [`PackedFamily`] at n ∈ {96, 128} (mid-word and exactly two channel
//! words); `elements` in the JSON is the family size:
//!
//! * `block_fill_*`: [`FamilySource`]'s direct range-mask fill at W = 4,
//!   drained back into vectors by per-bit extraction;
//! * `scalar_collect_*`: the per-index materialisation
//!   ([`PackedFamily::collect`]) with no block fill at all;
//! * `collect_then_fill_*`: that collect followed by an [`IterSource`]
//!   drain at W = 4, i.e. what a sweep over a collected family pays for
//!   its blocks (the word-transposed fill).
//!
//! The `relative_redundancy` group times the n = 96 acceptance
//! workload: a stuck-line coverage report over the Batcher sorter with
//! redundancy graded [`RedundancyMode::Skip`] versus
//! [`RedundancyMode::RelativeTo`] the sorted strings — the increment is
//! the per-missed-fault family sweep, the thing that replaces the
//! inadmissible exhaustive `2^96` redundancy pass.
//!
//! The criterion shim writes `target/bench-summaries/packed_families.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sortnet_combinat::ChannelVec;
use sortnet_faults::coverage::{try_coverage_of_universe_packed_with, RedundancyMode};
use sortnet_faults::universe::StandardUniverse;
use sortnet_faults::FaultSimEngine;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{
    collect_packed, BlockSource, FamilySource, IterSource, LaneWidth, PackedFamily, WideBlock,
};

fn bench_family_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("family_fill");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [96usize, 128] {
        for family in [
            PackedFamily::SortedStrings,
            PackedFamily::WeightAtMost(2),
            PackedFamily::SingleRuns,
            PackedFamily::NecessityWitnesses,
        ] {
            group.throughput(Throughput::Elements(family.len(n)));
            group.bench_with_input(
                BenchmarkId::new(format!("block_fill_{family}_w4"), n),
                &n,
                |b, &n| {
                    b.iter(|| {
                        collect_packed::<4, ChannelVec, _>(FamilySource::<ChannelVec>::new(
                            black_box(family),
                            n,
                        ))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("scalar_collect_{family}"), n),
                &n,
                |b, &n| b.iter(|| black_box(family).collect::<ChannelVec>(n)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("collect_then_fill_{family}"), n),
                &n,
                |b, &n| {
                    b.iter(|| {
                        let vectors = black_box(family).collect::<ChannelVec>(n);
                        let mut source = IterSource::new(n, vectors);
                        let mut block = WideBlock::<4>::zeroed(n);
                        let mut filled = 0u32;
                        while BlockSource::<4>::next_block(&mut source, &mut block) {
                            filled += black_box(&block).count();
                        }
                        filled
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_relative_redundancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("relative_redundancy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 96usize;
    let net = odd_even_merge_sort(n);
    let tests: Vec<ChannelVec> = PackedFamily::SortedStrings.collect(n);
    for (label, mode) in [
        ("skip", RedundancyMode::Skip),
        (
            "relative_sorted_strings",
            RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| {
                try_coverage_of_universe_packed_with(
                    black_box(&net),
                    &StandardUniverse::StuckLine,
                    black_box(&tests),
                    mode,
                    FaultSimEngine::BitParallelWide(LaneWidth::W4),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_family_fill, bench_relative_redundancy);
criterion_main!(benches);
