//! Integration test for Lemma 2.3 / Theorem 2.4: selector test sets of both
//! alphabets against the exhaustive selector oracle.

use sortnet_combinat::binomial::{selector_testset_size_binary, selector_testset_size_permutation};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::builders::selection::{chain_selector, pruned_selector};
use sortnet_network::properties::is_selector;
use sortnet_network::random::NetworkSampler;
use sortnet_testsets::selector;
use sortnet_testsets::verify::{Property, Strategy};

mod support;
use support::verify;

#[test]
fn testset_sizes_match_the_paper_formulas() {
    for n in 2..=11usize {
        for k in 0..=n {
            assert_eq!(
                selector::binary_testset(n, k).len() as u128,
                selector_testset_size_binary(n as u64, k as u64),
                "binary, n = {n}, k = {k}"
            );
        }
    }
    for n in 2..=9usize {
        for k in 1..=n {
            assert_eq!(
                selector::permutation_testset(n, k).len() as u128,
                selector_testset_size_permutation(n as u64, k as u64),
                "permutation, n = {n}, k = {k}"
            );
        }
    }
}

#[test]
fn verifier_verdicts_agree_with_the_exhaustive_oracle() {
    let mut sampler = NetworkSampler::new(0xBEEF);
    for n in 4..=7usize {
        for k in 1..=n {
            let mut candidates = vec![
                odd_even_merge_sort(n),
                pruned_selector(n, k),
                chain_selector(n, k),
                chain_selector(n, k.saturating_sub(1)),
            ];
            for _ in 0..6 {
                candidates.push(sampler.network(n, 2 * n));
            }
            for net in candidates {
                let oracle = is_selector(&net, k);
                assert_eq!(
                    verify(&net, Property::Selector { k }, Strategy::MinimalBinary).passed,
                    oracle,
                    "binary verdict, n = {n}, k = {k}, {net}"
                );
                assert_eq!(
                    verify(&net, Property::Selector { k }, Strategy::Permutation).passed,
                    oracle,
                    "permutation verdict, n = {n}, k = {k}, {net}"
                );
            }
        }
    }
}

#[test]
fn selector_testsets_nest_with_k_and_saturate_at_sorting() {
    for n in 3..=9usize {
        let mut previous = 0usize;
        for k in 0..=n {
            let size = selector::binary_testset(n, k).len();
            assert!(size >= previous, "T_k^n must grow with k");
            previous = size;
        }
        assert_eq!(
            selector::binary_testset(n, n).len(),
            sortnet_testsets::sorting::binary_testset(n).len()
        );
    }
}

#[test]
fn pruned_selectors_pass_with_far_fewer_tests_than_exhaustive() {
    let n = 12;
    for k in [1usize, 2, 3] {
        let net = pruned_selector(n, k);
        let verdict = verify(&net, Property::Selector { k }, Strategy::MinimalBinary);
        assert!(verdict.passed);
        assert!(
            (verdict.tests_run as u64) < (1u64 << n) / 8,
            "k = {k}: {} tests is not a saving over 2^{n}",
            verdict.tests_run
        );
    }
}
