//! Integration test for Theorem 2.2: the minimum test sets for the sorting
//! property, both alphabets, checked end-to-end against the exhaustive
//! oracles of `sortnet-network`.

use sortnet_combinat::binomial::{sorting_testset_size_binary, sorting_testset_size_permutation};
use sortnet_combinat::BitString;
use sortnet_faults::universe::{is_multi_fault_redundant, MultiFault};
use sortnet_faults::{Fault, FaultKind};
use sortnet_network::builders::batcher::{odd_even_merge_sort, odd_even_merge_sort_recursive};
use sortnet_network::builders::bubble::bubble_sort_network;
use sortnet_network::lanes::Backend;
use sortnet_network::properties::is_sorter;
use sortnet_network::random::NetworkSampler;
use sortnet_network::Network;
use sortnet_testsets::verify::{try_spot_check_sorter_packed_on, Property, Strategy};
use sortnet_testsets::{adversary, sorting};

mod support;
use support::verify;

/// Bert Dobbelaere's best-known sorting networks, layer by layer: 5
/// comparators in depth 3 for n = 4, 19 in depth 6 for n = 8 (both proven
/// size-optimal), and 60 in depth 10 for n = 16 (best known, not proven
/// optimal).  Written out independently of every builder in the workspace.
fn dobbelaere(n: usize) -> Network {
    let layers: &[&[(usize, usize)]] = match n {
        4 => &[&[(0, 2), (1, 3)], &[(0, 1), (2, 3)], &[(1, 2)]],
        8 => &[
            &[(0, 2), (1, 3), (4, 6), (5, 7)],
            &[(0, 4), (1, 5), (2, 6), (3, 7)],
            &[(0, 1), (2, 3), (4, 5), (6, 7)],
            &[(2, 4), (3, 5)],
            &[(1, 4), (3, 6)],
            &[(1, 2), (3, 4), (5, 6)],
        ],
        16 => &[
            &[
                (0, 13),
                (1, 12),
                (2, 15),
                (3, 14),
                (4, 8),
                (5, 6),
                (7, 11),
                (9, 10),
            ],
            &[
                (0, 5),
                (1, 7),
                (2, 9),
                (3, 4),
                (6, 13),
                (8, 14),
                (10, 15),
                (11, 12),
            ],
            &[
                (0, 1),
                (2, 3),
                (4, 5),
                (6, 8),
                (7, 9),
                (10, 11),
                (12, 13),
                (14, 15),
            ],
            &[
                (0, 2),
                (1, 3),
                (4, 10),
                (5, 11),
                (6, 7),
                (8, 9),
                (12, 14),
                (13, 15),
            ],
            &[(1, 2), (3, 12), (4, 6), (5, 7), (8, 10), (9, 11), (13, 14)],
            &[(1, 4), (2, 6), (5, 8), (7, 10), (9, 13), (11, 14)],
            &[(2, 4), (3, 6), (9, 12), (11, 13)],
            &[(3, 5), (6, 8), (7, 9), (10, 12)],
            &[(3, 4), (5, 6), (7, 8), (9, 10), (11, 12)],
            &[(6, 7), (8, 9)],
        ],
        _ => panic!("no Dobbelaere fixture for n = {n}"),
    };
    let pairs: Vec<(usize, usize)> = layers
        .iter()
        .flat_map(|layer| layer.iter().copied())
        .collect();
    Network::from_pairs(n, &pairs)
}

/// The fixture and each of its single-comparator deletions.
fn dobbelaere_and_deletions(n: usize) -> Vec<Network> {
    let net = dobbelaere(n);
    let deletions = (0..net.size()).map(|idx| net.without_comparator(idx));
    std::iter::once(net.clone()).chain(deletions).collect()
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
        if n == 4 || n == 8 {
            candidates.extend(dobbelaere_and_deletions(n));
        }
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
fn dobbelaere_fixtures_sort_and_every_comparator_is_necessary() {
    // n ∈ {4, 8}: the proven size-optimal networks sort, and deleting any
    // one comparator breaks them, so no stuck-pass fault (a deleted
    // comparator) is redundant; their verifies are candidates of the
    // oracle test above.  n = 16: the network sorts, every deletion breaks
    // it, and both of the paper's sets say so — facts about this network,
    // not implied by a theorem.
    for n in [4usize, 8, 16] {
        let nets = dobbelaere_and_deletions(n);
        let (net, deletions) = nets.split_first().unwrap();
        assert_eq!(
            (net.size(), net.depth()),
            match n {
                4 => (5, 3),
                8 => (19, 6),
                _ => (60, 10),
            }
        );
        assert!(is_sorter(net), "n = {n}");
        for (idx, deleted) in deletions.iter().enumerate() {
            assert!(
                !is_sorter(deleted),
                "n = {n}, comparator {idx} is redundant"
            );
            if n <= 8 {
                let stuck_pass = MultiFault::from(Fault {
                    comparator: idx,
                    kind: FaultKind::StuckPass,
                });
                assert!(
                    !is_multi_fault_redundant(net, &stuck_pass),
                    "n = {n}, comparator {idx}"
                );
            }
        }
    }
    for (i, candidate) in dobbelaere_and_deletions(16).iter().enumerate() {
        for strategy in [Strategy::MinimalBinary, Strategy::Permutation] {
            assert_eq!(
                verify(candidate, Property::Sorter, strategy).passed,
                i == 0,
                "n = 16, candidate {i}, {strategy:?}"
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
    let backends = Backend::runnable();
    for (i, sigma) in BitString::all_unsorted(n).enumerate() {
        let h = adversary::adversary(&sigma);
        assert!(!is_sorter(&h));
        let remaining: Vec<BitString> = full.iter().copied().filter(|t| *t != sigma).collect();
        let backend = backends[i % backends.len()];
        assert!(
            try_spot_check_sorter_packed_on(&h, &remaining, backend)
                .unwrap()
                .witness
                .is_none(),
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
            let covered = witnesses.iter().filter(|&w| p.covers(w)).count();
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
