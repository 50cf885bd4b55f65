//! Differential oracle harness: every [`FaultUniverse`] × every
//! [`FaultSimEngine`] × every lane-ops backend must agree bit for bit.
//!
//! For each universe (single-comparator, stuck-line, and the two pair
//! universes) on bubble and Batcher sorters up to `n = 8`:
//!
//! * the detection matrix is identical at lane widths
//!   `W ∈ {1, 2, 4, 8, 16}`, on every runnable [`Backend`] (scalar, and
//!   AVX2 where the CPU has it), and equals the
//!   scalar lesion-timeline simulator cell by cell;
//! * the early-exit first-detection sweep equals the scalar per-fault scan;
//! * redundant-fault classification agrees between the scalar exhaustive
//!   sweep, the per-fault bit-parallel re-run path, and the shared-prefix
//!   batch sweep (the ROADMAP prefix-fork fix) — on every backend;
//! * full coverage reports are `==` across all engines;
//! * the **two-level pair fork** (checkpoint after the shared first
//!   lesion) is bit-identical to the single-fork reference that evaluates
//!   every fault's full lesion timeline from the block start
//!   ([`multi_faulty_run_block`]), pinned by a proptest over random
//!   networks and random pair subsets.
//!
//! The `n = 8` Batcher rows double as pins for the stuck-line and
//! fault-pair results the PR's acceptance criteria name.

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_faults::bitsim::{
    detection_matrix_from_source_packed_on, first_detections_multi_packed_on,
    is_fault_redundant_wide, multi_faulty_run_block, redundant_faults_multi_on, DetectionMatrix,
};
use sortnet_faults::coverage::{
    coverage_of_universe_budgeted_packed_with, FaultSimEngine, RedundancyMode,
};
use sortnet_faults::universe::{
    is_multi_fault_redundant, multi_detects, multi_first_detection_index, FaultUniverse,
    MultiFault, StandardUniverse,
};
use sortnet_faults::SweepBudget;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::builders::bubble::bubble_sort_network;
use sortnet_network::lanes::{Backend, LaneWidth, SliceSource, WideBlock};
use sortnet_network::{Comparator, Network};
use sortnet_testsets::sorting;

/// The matrix of an explicit test list on `backend`.
fn matrix_on<const W: usize>(
    net: &Network,
    faults: &[MultiFault],
    tests: &[BitString],
    backend: Backend,
) -> DetectionMatrix {
    let source = SliceSource::new(net.lines(), tests);
    detection_matrix_from_source_packed_on::<W, BitString, _>(net, faults, source, backend).0
}

/// The runnable backends, round-robin: each case of a deterministic table
/// takes the next one, so every backend runs a share of every table.
fn backend_cycle() -> impl Iterator<Item = Backend> {
    Backend::runnable().into_iter().cycle()
}

/// The networks the differential suite sweeps.
fn networks(n: usize) -> Vec<(&'static str, Network)> {
    vec![
        ("batcher", odd_even_merge_sort(n)),
        ("bubble", bubble_sort_network(n)),
    ]
}

#[test]
fn detection_matrices_are_width_independent_and_match_the_scalar_oracle() {
    let mut backends = backend_cycle();
    for n in [4usize, 6] {
        let tests = sorting::binary_testset(n);
        for (label, net) in networks(n) {
            for universe in StandardUniverse::ALL {
                let backend = backends.next().unwrap();
                let case = format!("{label} n={n} {} {}", universe.name(), backend.name());
                let faults: Vec<MultiFault> = universe.iter(&net).collect();
                let w1 = matrix_on::<1>(&net, &faults, &tests, backend);
                let w2 = matrix_on::<2>(&net, &faults, &tests, backend);
                let w4 = matrix_on::<4>(&net, &faults, &tests, backend);
                assert_eq!(w1, w2, "{case}");
                assert_eq!(w1, w4, "{case}");
                for (f, fault) in faults.iter().enumerate() {
                    for (t, test) in tests.iter().enumerate() {
                        assert_eq!(
                            w1.is_detected_by(f, t),
                            multi_detects(&net, fault, test),
                            "{case} fault {fault} test {test}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn detection_matrices_are_backend_independent_across_all_widths() {
    // The SIMD acceptance matrix: backend × universe × W ∈ {1, 2, 4, 8, 16}
    // must all equal the scalar-backend W = 1 matrix (which in turn equals
    // the PR 1 single-word engine — pinned by
    // `detection_matrices_are_width_independent_and_match_the_scalar_oracle`
    // via the scalar oracle).
    for n in [4usize, 6] {
        let tests = sorting::binary_testset(n);
        for (label, net) in networks(n) {
            for universe in StandardUniverse::ALL {
                let faults: Vec<MultiFault> = universe.iter(&net).collect();
                let reference = matrix_on::<1>(&net, &faults, &tests, Backend::Scalar);
                for backend in Backend::runnable() {
                    let check = |matrix: DetectionMatrix, w: usize| {
                        assert_eq!(
                            matrix,
                            reference,
                            "{label} n={n} {} backend={} W={w}",
                            universe.name(),
                            backend.name()
                        );
                    };
                    check(matrix_on::<1>(&net, &faults, &tests, backend), 1);
                    check(matrix_on::<2>(&net, &faults, &tests, backend), 2);
                    check(matrix_on::<4>(&net, &faults, &tests, backend), 4);
                    check(matrix_on::<8>(&net, &faults, &tests, backend), 8);
                    check(matrix_on::<16>(&net, &faults, &tests, backend), 16);
                }
            }
        }
    }
}

#[test]
fn batch_redundancy_is_backend_independent() {
    for n in [4usize, 6] {
        for (label, net) in networks(n) {
            for universe in StandardUniverse::ALL {
                let faults: Vec<MultiFault> = universe.iter(&net).collect();
                let reference = redundant_faults_multi_on::<1>(&net, &faults, Backend::Scalar);
                for backend in Backend::runnable() {
                    assert_eq!(
                        redundant_faults_multi_on::<4>(&net, &faults, backend),
                        reference,
                        "{label} n={n} {} backend={}",
                        universe.name(),
                        backend.name()
                    );
                    assert_eq!(
                        redundant_faults_multi_on::<16>(&net, &faults, backend),
                        reference,
                        "{label} n={n} {} backend={} W=16",
                        universe.name(),
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn first_detections_match_the_scalar_scan_in_every_universe() {
    let mut backends = backend_cycle();
    for n in [4usize, 6, 8] {
        let tests = sorting::binary_testset(n);
        for (label, net) in networks(n) {
            for universe in StandardUniverse::ALL {
                let backend = backends.next().unwrap();
                let case = format!("{label} n={n} {} {}", universe.name(), backend.name());
                let faults: Vec<MultiFault> = universe.iter(&net).collect();
                let w1 = first_detections_multi_packed_on::<1, BitString>(
                    &net, &faults, &tests, backend,
                );
                let w2 = first_detections_multi_packed_on::<2, BitString>(
                    &net, &faults, &tests, backend,
                );
                let w4 = first_detections_multi_packed_on::<4, BitString>(
                    &net, &faults, &tests, backend,
                );
                assert_eq!(w1, w2, "{case}");
                assert_eq!(w1, w4, "{case}");
                for (f, fault) in faults.iter().enumerate() {
                    assert_eq!(
                        w1[f],
                        multi_first_detection_index(&net, fault, &tests),
                        "{case} fault {fault}"
                    );
                }
            }
        }
    }
}

#[test]
fn redundancy_classification_agrees_across_all_three_paths() {
    // Scalar exhaustive sweep vs the shared-prefix batch sweep vs the
    // per-fault re-run path the batch sweep replaced (the ROADMAP
    // prefix-fork fix regression pin), on every universe.
    let mut backends = backend_cycle();
    for n in [4usize, 6] {
        for (label, net) in networks(n) {
            for universe in StandardUniverse::ALL {
                let backend = backends.next().unwrap();
                let case = format!("{label} n={n} {} {}", universe.name(), backend.name());
                let faults: Vec<MultiFault> = universe.iter(&net).collect();
                let batch = redundant_faults_multi_on::<4>(&net, &faults, backend);
                let batch_w1 = redundant_faults_multi_on::<1>(&net, &faults, backend);
                assert_eq!(batch, batch_w1, "{case}");
                for (i, fault) in faults.iter().enumerate() {
                    assert_eq!(
                        batch[i],
                        is_multi_fault_redundant(&net, fault),
                        "{case} fault {fault}"
                    );
                    assert_eq!(
                        batch[i],
                        is_fault_redundant_wide::<4>(&net, fault, backend),
                        "{case} per-fault path fault {fault}"
                    );
                }
            }
        }
    }
}

#[test]
fn coverage_reports_are_identical_across_every_engine() {
    let engines = [
        FaultSimEngine::Scalar,
        FaultSimEngine::BitParallelWide(LaneWidth::W1),
        FaultSimEngine::BitParallelWide(LaneWidth::W2),
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
        FaultSimEngine::BitParallelWide(LaneWidth::W8),
        FaultSimEngine::BitParallelWide(LaneWidth::W16),
    ];
    // Five bit-parallel engines per case against a cycle of the runnable
    // backends: over the table every engine meets every backend.
    let mut backends = backend_cycle();
    for n in [4usize, 6, 8] {
        let tests = sorting::binary_testset(n);
        for (label, net) in networks(n) {
            for universe in StandardUniverse::ALL {
                let grade = |engine, backend| {
                    coverage_of_universe_budgeted_packed_with(
                        &net,
                        &universe,
                        &tests,
                        RedundancyMode::Exhaustive,
                        engine,
                        backend,
                        &SweepBudget::unlimited(),
                    )
                    .unwrap()
                    .into_value()
                };
                let reference = grade(engines[0], Backend::Scalar);
                for &engine in &engines[1..] {
                    let backend = backends.next().unwrap();
                    assert_eq!(
                        grade(engine, backend),
                        reference,
                        "{label} n={n} {} engine {engine:?} backend {}",
                        universe.name(),
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn batcher_n8_universe_results_are_pinned() {
    // Acceptance pin: the stuck-line and fault-pair universes on Batcher's
    // 8-line merge-exchange sorter with the Theorem 2.2 minimal 0/1 test
    // set.  These concrete numbers are what experiment E10 prints; any
    // engine or universe change that shifts them must be deliberate.
    let net = odd_even_merge_sort(8);
    let tests = sorting::binary_testset(8);
    assert_eq!(net.size(), 19);
    assert_eq!(tests.len(), 247);

    let expected: [(StandardUniverse, usize, usize, usize, usize); 4] = [
        // (universe, total, detected, missed, undetectable)
        (StandardUniverse::SingleComparator, 85, 85, 0, 0),
        (StandardUniverse::StuckLine, 92, 54, 8, 30),
        (StandardUniverse::SingleComparatorPairs, 3419, 3419, 0, 0),
        (StandardUniverse::StuckLinePairs, 4140, 3367, 118, 655),
    ];
    for ((universe, total, detected, missed, undetectable), backend) in
        expected.into_iter().zip(backend_cycle())
    {
        let report = coverage_of_universe_budgeted_packed_with(
            &net,
            &universe,
            &tests,
            RedundancyMode::Exhaustive,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
            backend,
            &SweepBudget::unlimited(),
        )
        .unwrap()
        .into_value();
        let case = format!("{} {}", universe.name(), backend.name());
        assert_eq!(report.total_faults, total, "{case}");
        assert_eq!(report.detected, detected, "{case}");
        assert_eq!(report.missed, missed, "{case}");
        assert_eq!(report.redundant_faults, undetectable, "{case}");
    }
}

/// Strategy: a random standard network on 7 lines with up to `max_size`
/// comparators.
fn arb_network(max_size: usize) -> impl Strategy<Value = Network> {
    prop::collection::vec((0usize..7, 0usize..7), 1..=max_size).prop_map(|pairs| {
        let mut comparators: Vec<Comparator> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Comparator::new(a, b))
            .collect();
        if comparators.is_empty() {
            comparators.push(Comparator::new(0, 1));
        }
        Network::from_comparators(7, comparators)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two-level pair fork is bit-identical to the single-fork path:
    /// for a random network and a random test batch, every fault of the
    /// pair universe gets — cell for cell — the detections that evaluating
    /// its full lesion timeline from the block start
    /// ([`multi_faulty_run_block`], the degenerate fork-at-0 reference the
    /// PR 3 single-fork engine was pinned against) produces.
    #[test]
    fn two_level_pair_fork_matches_the_single_fork_reference(
        net in arb_network(9),
        test_words in prop::collection::vec(0u64..(1u64 << 7), 1..=150),
    ) {
        let tests: Vec<BitString> = test_words
            .into_iter()
            .map(|w| BitString::from_word(w, 7))
            .collect();
        // Pairs (quadratic — subsample to keep the scalar reference cheap)
        // plus every single fault, so the sweep mixes group sizes.
        let pairs: Vec<MultiFault> = StandardUniverse::SingleComparatorPairs.iter(&net).collect();
        let mut faults: Vec<MultiFault> = pairs
            .iter()
            .step_by((pairs.len() / 300).max(1))
            .copied()
            .collect();
        faults.extend(StandardUniverse::SingleComparator.iter(&net));
        for backend in Backend::runnable() {
            let matrix = matrix_on::<2>(&net, &faults, &tests, backend);
            let capacity = WideBlock::<2>::capacity() as usize;
            for (f, fault) in faults.iter().enumerate() {
                for (block_idx, chunk) in tests.chunks(capacity).enumerate() {
                    let mut block = WideBlock::<2>::from_strings(7, chunk);
                    multi_faulty_run_block(&net, fault, &mut block, Backend::Scalar);
                    let masks = block.unsorted_masks_with(Backend::Scalar);
                    for (j, _) in chunk.iter().enumerate() {
                        let expected = (masks[j / 64] >> (j % 64)) & 1 == 1;
                        prop_assert_eq!(
                            matrix.is_detected_by(f, block_idx * capacity + j),
                            expected,
                            "fault {} test {} backend {}",
                            fault,
                            block_idx * capacity + j,
                            backend.name()
                        );
                    }
                }
            }
            // The batch redundancy sweep (also two-level) agrees with the
            // scalar exhaustive verdicts on a subsample.
            let redundant = redundant_faults_multi_on::<2>(&net, &faults, backend);
            for (f, fault) in faults.iter().enumerate().step_by(37) {
                prop_assert_eq!(
                    redundant[f],
                    is_multi_fault_redundant(&net, fault),
                    "fault {} backend {}",
                    fault,
                    backend.name()
                );
            }
        }
    }
}
