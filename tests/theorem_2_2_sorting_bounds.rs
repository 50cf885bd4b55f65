//! Integration test for Theorem 2.2: the minimum test sets for the sorting
//! property, both alphabets, checked end-to-end against the exhaustive
//! oracles of `sortnet-network`.

use sortnet_combinat::binomial::{sorting_testset_size_binary, sorting_testset_size_permutation};
use sortnet_combinat::BitString;
use sortnet_network::bitparallel::failing_inputs_from;
use sortnet_network::builders::batcher::{odd_even_merge_sort, odd_even_merge_sort_recursive};
use sortnet_network::builders::bubble::bubble_sort_network;
use sortnet_network::lanes::Backend;
use sortnet_network::properties::is_sorter;
use sortnet_network::random::NetworkSampler;
use sortnet_network::Network;
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};
use sortnet_testsets::{adversary, sorting};

/// `property` verified with `strategy` on the detected lane-ops backend.
fn verify(net: &Network, property: Property, strategy: Strategy) -> Report {
    try_verify_on(net, property, strategy, Backend::active()).unwrap()
}

#[test]
fn testset_sizes_match_the_paper_formulas() {
    for n in 2..=12usize {
        assert_eq!(
            sorting::binary_testset(n).len() as u128,
            sorting_testset_size_binary(n as u64),
            "0/1 test set size for n = {n}"
        );
    }
    for n in 2..=10usize {
        assert_eq!(
            sorting::permutation_testset(n).len() as u128,
            sorting_testset_size_permutation(n as u64),
            "permutation test set size for n = {n}"
        );
    }
}

#[test]
fn testset_verdicts_agree_with_the_exhaustive_oracle_on_many_networks() {
    let mut sampler = NetworkSampler::new(0xC0FFEE);
    for n in 4..=8usize {
        let mut candidates = vec![
            odd_even_merge_sort(n),
            odd_even_merge_sort_recursive(n),
            bubble_sort_network(n),
            bubble_sort_network(n).without_comparator(n / 2),
            sortnet_network::Network::empty(n),
        ];
        for _ in 0..12 {
            candidates.push(sampler.network(n, 3 * n));
        }
        for net in candidates {
            let oracle = is_sorter(&net);
            assert_eq!(
                verify(&net, Property::Sorter, Strategy::MinimalBinary).passed,
                oracle,
                "binary, {net}"
            );
            assert_eq!(
                verify(&net, Property::Sorter, Strategy::Permutation).passed,
                oracle,
                "permutation, {net}"
            );
        }
    }
}

#[test]
fn every_string_of_the_binary_testset_is_necessary() {
    // Lemma 2.1 end-to-end: for each σ, the adversary passes every other
    // test yet the exhaustive oracle rejects it.
    let n = 7;
    let full = sorting::binary_testset(n);
    for sigma in BitString::all_unsorted(n) {
        let h = adversary::adversary(&sigma);
        assert!(!is_sorter(&h));
        let remaining: Vec<BitString> = full.iter().copied().filter(|t| *t != sigma).collect();
        assert!(
            failing_inputs_from(&h, &remaining).unwrap().is_empty(),
            "H_σ for σ = {sigma} must pass the test set with σ removed"
        );
    }
}

#[test]
fn permutation_testset_cannot_be_smaller() {
    // Lower-bound argument of Theorem 2.2(ii): the weight-⌊n/2⌋ unsorted
    // strings must all be covered and no permutation covers two of them, so
    // the constructed set is optimal.
    for n in [4usize, 6, 8] {
        let witnesses = sorting::permutation_lower_bound_witnesses(n);
        let testset = sorting::permutation_testset(n);
        assert_eq!(witnesses.len(), testset.len());
        for w in &witnesses {
            assert!(
                testset.iter().any(|p| p.covers(w)),
                "witness {w} uncovered for n = {n}"
            );
        }
        for p in &testset {
            let covered = witnesses.iter().filter(|w| p.covers(w)).count();
            assert!(
                covered <= 1,
                "a permutation covers two witnesses for n = {n}"
            );
        }
    }
}

#[test]
fn zero_one_principle_bridges_the_two_alphabets() {
    // A network passes the permutation test set iff it passes the 0/1 test
    // set — validated on sorters and corrupted sorters.
    for n in 4..=7usize {
        let base = odd_even_merge_sort(n);
        for idx in 0..base.size() {
            let mutated = base.without_comparator(idx);
            assert_eq!(
                verify(&mutated, Property::Sorter, Strategy::MinimalBinary).passed,
                verify(&mutated, Property::Sorter, Strategy::Permutation).passed,
                "n = {n}, dropped comparator {idx}"
            );
        }
    }
}
