//! Integration tests for the minimal test-set augmentation search
//! (`sortnet_testsets::augment`).
//!
//! The exact search claims a *certified minimum*; these tests hold it to
//! that claim with an independent brute force (no subset of candidates one
//! smaller covers the missed faults, checked by scalar re-simulation), on
//! small Batcher sorters across all four standard universes and on the
//! Batcher n = 8 stuck-line/pairs workloads PR 3 left open.  The PR 3
//! finding — "the n + 1 sorted strings restore completeness" — enters as
//! an upper bound the exact search must meet or beat.

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_faults::universe::{
    multi_detects, FaultUniverse, MultiFault, StandardUniverse, StuckLine,
};
use sortnet_faults::{try_coverage_of_universe_packed_with, FaultSimEngine, RedundancyMode};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::LaneWidth;
use sortnet_network::{Comparator, Network};
use sortnet_testsets::augment::{
    try_minimum_augmentation_packed, AugmentationReport, CandidatePool, SearchOptions,
    SuggestAugmentation,
};
use sortnet_testsets::sorting;

/// The unbudgeted end-to-end search over `pool`, which must complete.
fn minimum(
    network: &Network,
    universe: &dyn FaultUniverse,
    base: &[BitString],
    pool: &CandidatePool<BitString>,
) -> AugmentationReport<BitString> {
    let budgeted =
        try_minimum_augmentation_packed(network, universe, base, pool, &SearchOptions::default())
            .unwrap();
    assert!(budgeted.is_complete());
    budgeted.into_value()
}

/// `true` when every missed fault is caught by some chosen vector
/// (scalar re-simulation, independent of the matrix pipeline).
fn covers_all(network: &Network, missed: &[MultiFault], chosen: &[BitString]) -> bool {
    missed.iter().all(|fault| {
        chosen
            .iter()
            .any(|test| multi_detects(network, fault, test))
    })
}

/// Brute force: does *some* `k`-subset of `candidates` cover every missed
/// fault?  Exponential in `k`, so callers pass only the useful candidates.
fn exists_cover(
    network: &Network,
    missed: &[MultiFault],
    candidates: &[BitString],
    k: usize,
    start: usize,
    chosen: &mut Vec<BitString>,
) -> bool {
    if chosen.len() == k {
        return covers_all(network, missed, chosen);
    }
    for i in start..candidates.len() {
        chosen.push(candidates[i]);
        if exists_cover(network, missed, candidates, k, i + 1, chosen) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// The candidates that detect at least one missed fault — the only ones a
/// minimal cover can contain, which keeps the brute force tractable.
fn useful_candidates(network: &Network, missed: &[MultiFault]) -> Vec<BitString> {
    BitString::all(network.lines())
        .filter(|t| missed.iter().any(|f| multi_detects(network, f, t)))
        .collect()
}

/// Asserts the full contract of a certified report against brute force.
fn assert_certified_minimum(
    network: &Network,
    base: &[BitString],
    universe: &dyn FaultUniverse,
    report: &AugmentationReport<BitString>,
) {
    assert!(report.certified, "no node budget was set");
    assert!(
        report.greedy.len() >= report.minimum.len(),
        "greedy >= exact"
    );
    assert!(report.minimum.len() >= report.lower_bound, "exact >= bound");
    assert!(
        report.lower_bound >= report.witness_faults.len(),
        "bound >= witness certificate"
    );
    // The augmentation really completes the coverage...
    let full = try_coverage_of_universe_packed_with(
        network,
        universe,
        &report.augmented(base),
        RedundancyMode::Exhaustive,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
    )
    .unwrap();
    assert!(
        full.is_complete(),
        "augmented set must be complete: {full:?}"
    );
    // ...and nothing smaller can (the certification claim, checked
    // independently).
    assert!(covers_all(network, &report.missed_faults, &report.minimum));
    if !report.minimum.is_empty() {
        let useful = useful_candidates(network, &report.missed_faults);
        assert!(
            !exists_cover(
                network,
                &report.missed_faults,
                &useful,
                report.minimum.len() - 1,
                0,
                &mut Vec::new(),
            ),
            "a smaller augmentation exists; {} is not minimal",
            report.minimum.len()
        );
    }
}

#[test]
fn exact_augmentations_are_brute_force_minimal_on_small_batcher_sorters() {
    for n in 3..=6usize {
        let net = odd_even_merge_sort(n);
        let base = sorting::binary_testset(n);
        for universe in StandardUniverse::ALL {
            let report = minimum(&net, &universe, &base, &CandidatePool::Exhaustive);
            assert_certified_minimum(&net, &base, &universe, &report);
            // Completeness landscape (pinned by the probe that built this
            // test): the single-comparator universe is complete from n = 4
            // but misses one fault at n = 3 — a comparator fault only a
            // *sorted* input catches exists even in the paper's own fault
            // model at tiny n — its pairs universe is complete throughout,
            // and the stuck-line families are incomplete at every n here.
            match universe {
                StandardUniverse::SingleComparator => {
                    assert_eq!(
                        report.is_already_complete(),
                        n >= 4,
                        "n={n} {}",
                        universe.name()
                    );
                }
                StandardUniverse::SingleComparatorPairs => {
                    assert!(report.is_already_complete(), "n={n} {}", universe.name());
                }
                StandardUniverse::StuckLine | StandardUniverse::StuckLinePairs => {
                    assert!(
                        !report.is_already_complete(),
                        "n={n} {}: stuck faults need sorted inputs",
                        universe.name()
                    );
                }
            }
        }
    }
}

#[test]
fn batcher_8_stuck_line_minimum_is_certified_and_beats_the_pr3_upper_bound() {
    let n = 8;
    let net = odd_even_merge_sort(n);
    let base = sorting::binary_testset(n);

    // The PR 3 finding as an upper bound: the n + 1 sorted strings restore
    // completeness, so the optimum over that pool is well-defined and at
    // most n + 1 — and the exact search over all 2^n vectors must meet or
    // beat it.
    let over_sorted = minimum(&net, &StuckLine, &base, &CandidatePool::SortedStrings);
    assert_certified_minimum(&net, &base, &StuckLine, &over_sorted);
    assert_eq!(over_sorted.missed_faults.len(), 8, "the PR 3 pin");
    assert!(over_sorted.minimum.len() <= n + 1);

    let exact = minimum(&net, &StuckLine, &base, &CandidatePool::Exhaustive);
    assert_certified_minimum(&net, &base, &StuckLine, &exact);
    assert!(exact.minimum.len() <= over_sorted.minimum.len());
    // The base set already contains every unsorted string, so only sorted
    // vectors can catch a missed fault: the two pools share their optimum.
    assert_eq!(exact.minimum.len(), over_sorted.minimum.len());
    assert!(exact.minimum.iter().all(BitString::is_sorted));

    // The headline answer to the ROADMAP's open question: the provably
    // smallest augmentation is TWO vectors — the all-zeros and all-ones
    // strings — not the n + 1 sorted strings PR 3 appended.  The witness
    // certificate (two missed faults no single vector co-covers) makes the
    // greedy cover optimal with zero search nodes.
    assert_eq!(exact.minimum.len(), 2);
    assert_eq!(exact.lower_bound, 2);
    assert_eq!(exact.witness_faults.len(), 2);
    assert_eq!(exact.search_nodes, 0, "greedy met the bound");
    let mut chosen = exact.minimum.clone();
    chosen.sort();
    assert_eq!(chosen, vec![BitString::zeros(n), BitString::ones(n)]);
}

/// Bert Dobbelaere's proven size-optimal sorting networks for n = 4
/// (5 comparators, depth 3) and n = 8 (19 comparators, depth 6), written
/// out independently of the workspace's builders.
fn dobbelaere(n: usize) -> Network {
    let pairs: &[(usize, usize)] = match n {
        4 => &[(0, 2), (1, 3), (0, 1), (2, 3), (1, 2)],
        8 => &[
            (0, 2),
            (1, 3),
            (4, 6),
            (5, 7),
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
            (0, 1),
            (2, 3),
            (4, 5),
            (6, 7),
            (2, 4),
            (3, 5),
            (1, 4),
            (3, 6),
            (1, 2),
            (3, 4),
            (5, 6),
        ],
        _ => panic!("no Dobbelaere fixture for n = {n}"),
    };
    Network::from_pairs(n, pairs)
}

#[test]
fn optimal_sorters_need_exactly_the_constant_strings_for_stuck_lines() {
    // The Batcher n = 8 answer above, {0ⁿ, 1ⁿ}, holds on networks built
    // independently of Batcher's construction too: the proven
    // size-optimal sorters for n ∈ {4, 8}.
    for n in [4usize, 8] {
        let net = dobbelaere(n);
        let base = sorting::binary_testset(n);
        let exact = minimum(&net, &StuckLine, &base, &CandidatePool::Exhaustive);
        assert_certified_minimum(&net, &base, &StuckLine, &exact);
        let mut chosen = exact.minimum.clone();
        chosen.sort();
        assert_eq!(
            chosen,
            vec![BitString::zeros(n), BitString::ones(n)],
            "n = {n}"
        );
    }
}

#[test]
fn batcher_8_stuck_line_pairs_minimum_is_certified() {
    let n = 8;
    let net = odd_even_merge_sort(n);
    let base = sorting::binary_testset(n);
    let report = minimum(
        &net,
        &StandardUniverse::StuckLinePairs,
        &base,
        &CandidatePool::Exhaustive,
    );
    assert_eq!(report.missed_faults.len(), 118, "the PR 3 pin");
    assert!(
        report.minimum.len() <= n + 1,
        "the sorted strings are an upper bound"
    );
    assert_certified_minimum(&net, &base, &StandardUniverse::StuckLinePairs, &report);
    // Same certified optimum as the single-lesion universe: the all-zeros
    // and all-ones vectors close all 118 missed pairs.
    assert_eq!(report.minimum.len(), 2);
    assert_eq!(report.lower_bound, 2);
    let mut chosen = report.minimum.clone();
    chosen.sort();
    assert_eq!(chosen, vec![BitString::zeros(n), BitString::ones(n)]);
}

#[test]
fn suggest_augmentation_consumes_a_prebuilt_coverage_report() {
    let net = odd_even_merge_sort(6);
    let base = sorting::binary_testset(6);
    let coverage = try_coverage_of_universe_packed_with(
        &net,
        &StuckLine,
        &base,
        RedundancyMode::Exhaustive,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
    )
    .unwrap();
    let report = coverage
        .try_suggest_augmentation(&net, &CandidatePool::Exhaustive, &SearchOptions::default())
        .unwrap()
        .into_value();
    assert_eq!(report.missed_faults, coverage.missed_faults);
    assert_certified_minimum(&net, &base, &StuckLine, &report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// greedy >= exact >= lower bound on random networks and base sets,
    /// and the exact augmentation really completes the coverage.
    #[test]
    fn bounds_are_ordered_on_random_networks(
        pairs in prop::collection::vec((0usize..6, 0usize..6), 1..=14),
        base_words in prop::collection::vec(0u64..(1u64 << 6), 0..=12),
    ) {
        let comparators: Vec<Comparator> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Comparator::new(a, b))
            .collect();
        prop_assume!(!comparators.is_empty());
        let net = Network::from_comparators(6, comparators);
        let base: Vec<BitString> = base_words
            .into_iter()
            .map(|w| BitString::from_word(w, 6))
            .collect();
        let report = minimum(&net, &StuckLine, &base, &CandidatePool::Exhaustive);
        prop_assert!(report.certified);
        prop_assert!(report.greedy.len() >= report.minimum.len());
        prop_assert!(report.minimum.len() >= report.lower_bound);
        prop_assert!(report.lower_bound >= report.witness_faults.len());
        let full = try_coverage_of_universe_packed_with(&net, &StuckLine, &report.augmented(&base), RedundancyMode::Exhaustive, FaultSimEngine::BitParallelWide(LaneWidth::W4)).unwrap();
        prop_assert!(full.is_complete());
    }
}
