//! Integration test for the paper's "a minimal test set detects every
//! *detectable* fault" claim on a fault class the Theorem 2.2 sets were
//! **not** constructed for: stuck-at-0/1 wire segments on Batcher's
//! merge-exchange sorters (`n ∈ {4, 8}`).
//!
//! The coverage report must *name* exactly the undetectable faults — the
//! report's `undetectable_faults` list is checked fault-for-fault against a
//! brute-force scan over all `2^n` inputs — and every detectable fault the
//! minimal set misses must be one that only *sorted* inputs can catch
//! (stuck segments, unlike genuine comparator faults, can corrupt inputs
//! that are already sorted, and the Theorem 2.2 set deliberately contains
//! no sorted strings).

use std::collections::BTreeSet;

use sortnet_combinat::BitString;
use sortnet_faults::universe::{multi_detects, FaultUniverse, MultiFault, StuckLine};
use sortnet_faults::{try_coverage_of_universe_packed_with, FaultSimEngine, RedundancyMode};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::LaneWidth;
use sortnet_testsets::sorting;

/// Brute-force partition of the stuck-line universe by scalar simulation
/// over all `2^n` inputs: (undetectable, detectable-by-unsorted-only,
/// detectable-only-by-sorted).
fn brute_force_partition(
    n: usize,
) -> (
    Vec<MultiFault>,
    Vec<MultiFault>,
    Vec<MultiFault>,
    sortnet_network::Network,
) {
    let net = odd_even_merge_sort(n);
    let inputs: Vec<BitString> = BitString::all(n).collect();
    let mut undetectable = Vec::new();
    let mut by_unsorted = Vec::new();
    let mut sorted_only = Vec::new();
    for fault in StuckLine.iter(&net) {
        let detecting: Vec<&BitString> = inputs
            .iter()
            .filter(|t| multi_detects(&net, &fault, *t))
            .collect();
        if detecting.is_empty() {
            undetectable.push(fault);
        } else if detecting.iter().any(|t| !t.is_sorted()) {
            by_unsorted.push(fault);
        } else {
            sorted_only.push(fault);
        }
    }
    (undetectable, by_unsorted, sorted_only, net)
}

#[test]
fn coverage_report_names_exactly_the_undetectable_stuck_line_faults() {
    for n in [4usize, 8] {
        let (undetectable, by_unsorted, sorted_only, net) = brute_force_partition(n);
        let minimal = sorting::binary_testset(n);
        for engine in [
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
            FaultSimEngine::Scalar,
        ] {
            let report = try_coverage_of_universe_packed_with(
                &net,
                &StuckLine,
                &minimal,
                RedundancyMode::Exhaustive,
                engine,
            )
            .unwrap();

            // The report names exactly the brute-force undetectable faults
            // — same faults, nothing extra, nothing missing.
            let reported: BTreeSet<String> = report
                .undetectable_faults
                .iter()
                .map(ToString::to_string)
                .collect();
            let expected: BTreeSet<String> = undetectable.iter().map(ToString::to_string).collect();
            assert_eq!(reported, expected, "n={n} engine {engine:?}");
            assert_eq!(report.redundant_faults, undetectable.len());

            // Every fault detectable by some unsorted input is caught (the
            // minimal set contains every unsorted string), and the misses
            // are exactly the sorted-input-only faults.
            let missed: BTreeSet<String> = report
                .missed_faults
                .iter()
                .map(ToString::to_string)
                .collect();
            let expected_missed: BTreeSet<String> =
                sorted_only.iter().map(ToString::to_string).collect();
            assert_eq!(missed, expected_missed, "n={n} engine {engine:?}");
            assert_eq!(report.detected, by_unsorted.len(), "n={n}");
        }
    }
}

#[test]
fn theorem_2_2_completeness_verdict_on_stuck_lines_is_pinned() {
    // The concrete verdict the differential harness established: the
    // Theorem 2.2 minimal 0/1 set is NOT complete for the stuck-line
    // universe on Batcher sorters — 6 detectable faults at n = 4 and 8 at
    // n = 8 are catchable only by *sorted* inputs — while appending the
    // n + 1 sorted strings restores completeness.
    let expected: [(usize, usize, usize, usize); 2] = [
        // (n, total faults, undetectable, missed by the minimal set)
        (4, 2 * (4 + 2 * 5), 14, 6),
        (8, 2 * (8 + 2 * 19), 30, 8),
    ];
    for (n, total, undetectable, missed) in expected {
        let net = odd_even_merge_sort(n);
        let minimal = sorting::binary_testset(n);
        let report = try_coverage_of_universe_packed_with(
            &net,
            &StuckLine,
            &minimal,
            RedundancyMode::Exhaustive,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        )
        .unwrap();
        assert_eq!(report.total_faults, total, "n={n}");
        assert_eq!(report.redundant_faults, undetectable, "n={n}");
        assert_eq!(report.missed, missed, "n={n}");

        // Appending the n + 1 sorted strings (the inputs the paper's set
        // deliberately omits) restores full coverage of the detectable
        // stuck-line faults.
        let mut with_sorted = minimal.clone();
        with_sorted.extend(BitString::all(n).filter(BitString::is_sorted));
        let full = try_coverage_of_universe_packed_with(
            &net,
            &StuckLine,
            &with_sorted,
            RedundancyMode::Exhaustive,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        )
        .unwrap();
        assert_eq!(full.missed, 0, "n={n}: sorted inputs must close the gap");
        assert_eq!(full.redundant_faults, undetectable, "n={n}");
        assert_eq!(full.detected, total - undetectable, "n={n}");
    }
}

#[test]
fn every_stuck_input_segment_is_reported_undetectable() {
    // The structurally obvious subclass: forcing an *input* line of a
    // correct sorter still yields a sorted output, so all 2n input-segment
    // faults must appear in the report's undetectable list.
    let n = 8;
    let net = odd_even_merge_sort(n);
    let minimal = sorting::binary_testset(n);
    let report = try_coverage_of_universe_packed_with(
        &net,
        &StuckLine,
        &minimal,
        RedundancyMode::Exhaustive,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
    )
    .unwrap();
    let names: BTreeSet<String> = report
        .undetectable_faults
        .iter()
        .map(ToString::to_string)
        .collect();
    for line in 0..n {
        for value in [0u8, 1] {
            let name = format!("stuck-{value}@l{}.cut0", line + 1);
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
    }
}
