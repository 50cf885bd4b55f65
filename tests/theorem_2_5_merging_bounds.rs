//! Integration test for Theorem 2.5: merging test sets against the
//! exhaustive merger oracle, for Batcher's odd–even merger and corrupted
//! variants.

use sortnet_combinat::binomial::{merging_testset_size_binary, merging_testset_size_permutation};
use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};
use sortnet_network::properties::{is_merger, is_merger_by_permutations};
use sortnet_network::random::NetworkSampler;
use sortnet_testsets::criteria::is_permutation_testset;
use sortnet_testsets::merging;
use sortnet_testsets::verify::{Property, Strategy};

mod support;
use support::verify;

#[test]
fn testset_sizes_match_the_paper_formulas() {
    for n in (2..=20usize).step_by(2) {
        assert_eq!(
            merging::binary_testset(n).len() as u128,
            merging_testset_size_binary(n as u64)
        );
        assert_eq!(
            merging::permutation_testset(n).len() as u128,
            merging_testset_size_permutation(n as u64)
        );
    }
}

#[test]
fn verifier_verdicts_agree_with_both_exhaustive_oracles() {
    let mut sampler = NetworkSampler::new(31337);
    for n in (4..=10usize).step_by(2) {
        let mut candidates = vec![
            half_half_merger(n),
            odd_even_merge_sort(n),
            sortnet_network::Network::empty(n),
        ];
        let base = half_half_merger(n);
        for idx in 0..base.size() {
            candidates.push(base.without_comparator(idx));
        }
        for _ in 0..8 {
            candidates.push(sampler.network(n, n));
        }
        for net in candidates {
            let oracle = is_merger(&net);
            assert_eq!(
                oracle,
                is_merger_by_permutations(&net),
                "oracles disagree on {net}"
            );
            assert_eq!(
                verify(&net, Property::Merger, Strategy::MinimalBinary).passed,
                oracle,
                "binary, {net}"
            );
            assert_eq!(
                verify(&net, Property::Merger, Strategy::Permutation).passed,
                oracle,
                "permutation, {net}"
            );
        }
    }
}

#[test]
fn dropping_any_comparator_from_batchers_merger_is_caught_by_both_testsets() {
    for n in [8usize, 12] {
        let merger = half_half_merger(n);
        for idx in 0..merger.size() {
            let broken = merger.without_comparator(idx);
            assert!(
                !verify(&broken, Property::Merger, Strategy::MinimalBinary).passed,
                "n = {n}: dropping comparator {idx} went unnoticed (0/1 tests)"
            );
            assert!(
                !verify(&broken, Property::Merger, Strategy::Permutation).passed,
                "n = {n}: dropping comparator {idx} went unnoticed (n/2 permutations)"
            );
        }
    }
}

#[test]
fn the_n_over_2_permutations_are_legal_merge_inputs_and_cover_everything() {
    for n in (2..=14usize).step_by(2) {
        assert!(is_permutation_testset(
            &merging::permutation_testset(n),
            n,
            Property::Merger
        ));
    }
}

#[test]
fn lower_bound_witnesses_force_the_permutation_testset_size() {
    for n in (4..=12usize).step_by(2) {
        let witnesses = merging::permutation_lower_bound_witnesses(n);
        assert_eq!(witnesses.len(), n / 2);
        let weights: std::collections::HashSet<usize> =
            witnesses.iter().map(|w| w.count_ones()).collect();
        assert_eq!(weights.len(), 1, "all witnesses share one weight");
    }
}
