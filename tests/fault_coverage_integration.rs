//! Integration test for the §1 VLSI-testing motivation (experiment E10):
//! the paper's minimal sorting test set achieves full single-fault coverage
//! on classical sorters, while small random samples do not.

use sortnet_combinat::BitString;
use sortnet_faults::simulate::apply_fault;
use sortnet_faults::universe::{
    is_multi_fault_redundant, multi_detects, multi_faulty_apply, multi_first_detection_index,
    FaultUniverse, MultiFault, SingleComparator,
};
use sortnet_faults::{
    enumerate_faults, try_coverage_of_universe_packed_with, Fault, FaultKind, FaultSimEngine,
    RedundancyMode,
};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::builders::bubble::bubble_sort_network;
use sortnet_network::properties::is_sorter;
use sortnet_network::random::NetworkSampler;
use sortnet_testsets::sorting;

#[test]
fn minimal_testset_catches_every_fault_that_breaks_sorting_of_unsorted_inputs() {
    // The paper's test set contains every *unsorted* string, so it detects
    // every fault whose faulty network mis-handles some unsorted input.
    // "Active" faults (e.g. a stuck-swapping comparator) can additionally
    // corrupt *sorted* inputs — something impossible for genuine standard
    // networks — and those few faults need the n + 1 sorted strings as extra
    // tests.  Adding them restores full coverage.
    for (label, net) in [
        ("batcher", odd_even_merge_sort(7)),
        ("bubble", bubble_sort_network(7)),
    ] {
        let unsorted_tests = sorting::binary_testset(7);
        let all_inputs: Vec<BitString> = BitString::all(7).collect();

        let with_unsorted_only = try_coverage_of_universe_packed_with(
            &net,
            &SingleComparator,
            &unsorted_tests,
            RedundancyMode::Exhaustive,
            FaultSimEngine::default(),
        )
        .unwrap();
        let with_everything = try_coverage_of_universe_packed_with(
            &net,
            &SingleComparator,
            &all_inputs,
            RedundancyMode::Exhaustive,
            FaultSimEngine::default(),
        )
        .unwrap();

        // The complete input set misses nothing.
        assert_eq!(with_everything.missed, 0, "{label}: {with_everything:?}");
        // The paper's test set misses at most the sorted-input-only faults,
        // and detects everything the complete set detects apart from those.
        assert!(with_unsorted_only.detected > 0, "{label}");
        let sorted_only_faults = with_everything.detected - with_unsorted_only.detected;
        assert_eq!(
            with_unsorted_only.missed, sorted_only_faults,
            "{label}: every miss must be a sorted-input-only (active) fault"
        );
        assert_eq!(
            with_unsorted_only.detected
                + with_unsorted_only.redundant_faults
                + with_unsorted_only.missed,
            with_unsorted_only.total_faults,
            "{label}"
        );
    }
}

#[test]
fn small_random_samples_are_strictly_weaker() {
    let net = odd_even_merge_sort(8);
    let minimal = sorting::binary_testset(8);
    let mut sampler = NetworkSampler::new(0xFA17);
    let random8: Vec<BitString> = (0..8).map(|_| sampler.random_input(8)).collect();

    let full = try_coverage_of_universe_packed_with(
        &net,
        &SingleComparator,
        &minimal,
        RedundancyMode::Exhaustive,
        FaultSimEngine::default(),
    )
    .unwrap();
    let sampled = try_coverage_of_universe_packed_with(
        &net,
        &SingleComparator,
        &random8,
        RedundancyMode::Exhaustive,
        FaultSimEngine::default(),
    )
    .unwrap();
    assert_eq!(full.missed, 0);
    assert!(sampled.detected < full.detected || sampled.missed > 0);
}

#[test]
fn fault_detection_is_consistent_with_the_faulty_simulator() {
    let net = odd_even_merge_sort(6);
    let tests = sorting::binary_testset(6);
    for fault in enumerate_faults(&net) {
        let lesioned = MultiFault::from(fault);
        let detected_by_some = tests.iter().any(|t| multi_detects(&net, &lesioned, t));
        let redundant = is_multi_fault_redundant(&net, &lesioned);
        // Where the faulty network can be built, it is the independent
        // reference for both verdicts.
        if let Some(materialised) = apply_fault(&net, &fault) {
            assert_eq!(redundant, is_sorter(&materialised), "fault {fault:?}");
            assert_eq!(
                detected_by_some,
                tests
                    .iter()
                    .any(|t| !materialised.apply_bits(t).is_sorted()),
                "fault {fault:?}"
            );
        }
        assert!(
            detected_by_some || redundant,
            "fault {fault:?} is neither detected nor redundant"
        );
        if redundant {
            // A redundant fault, by definition, cannot be detected by any test.
            assert!(
                !detected_by_some,
                "fault {fault:?} marked redundant yet detected"
            );
        }
    }
}

#[test]
fn legacy_single_fault_coverage_is_the_single_comparator_universe() {
    // The single-comparator universe enumerates exactly the legacy
    // `enumerate_faults` list, in order, and its report follows fault for
    // fault from the scalar simulator run on each fault's one-lesion form.
    let net = odd_even_merge_sort(7);
    let tests = sorting::binary_testset(7);
    let report = try_coverage_of_universe_packed_with(
        &net,
        &SingleComparator,
        &tests,
        RedundancyMode::Exhaustive,
        FaultSimEngine::default(),
    )
    .unwrap();
    let faults = enumerate_faults(&net);
    assert_eq!(report.total_faults, faults.len());
    assert_eq!(report.total_faults, SingleComparator.len(&net));
    let universe: Vec<MultiFault> = SingleComparator.iter(&net).collect();
    let legacy: Vec<MultiFault> = faults.iter().copied().map(MultiFault::from).collect();
    assert_eq!(universe, legacy);
    let firsts: Vec<Option<usize>> = legacy
        .iter()
        .map(|fault| multi_first_detection_index(&net, fault, &tests))
        .collect();
    let undetectable: Vec<MultiFault> = legacy
        .iter()
        .zip(&firsts)
        .filter(|(fault, first)| first.is_none() && is_multi_fault_redundant(&net, fault))
        .map(|(fault, _)| *fault)
        .collect();
    assert_eq!(report.detected, firsts.iter().flatten().count());
    assert_eq!(report.undetectable_faults, undetectable);
    assert_eq!(
        report.max_first_detection,
        firsts.iter().flatten().max().map_or(0, |i| i + 1)
    );
}

#[test]
fn stuck_swap_faults_can_corrupt_sorted_inputs_too() {
    // This is exactly why hardware test generation needs more than the
    // paper's sorting test set when the fault model allows "active" faults:
    // a stuck-swapping comparator can mis-sort an already sorted input.
    let net = odd_even_merge_sort(6);
    let mut found = false;
    for idx in 0..net.size() {
        let fault = MultiFault::from(Fault {
            comparator: idx,
            kind: FaultKind::StuckSwap,
        });
        for s in BitString::all(6).filter(BitString::is_sorted) {
            if !multi_faulty_apply(&net, &fault, &s).is_sorted() {
                found = true;
            }
        }
    }
    assert!(found, "no StuckSwap fault ever corrupted a sorted input");
}
