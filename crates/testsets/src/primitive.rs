//! §3 of the paper — test sets for restricted network classes.
//!
//! The concluding section proposes studying *height-k* networks and recalls
//! de Bruijn's result for the height-1 ("primitive") case: **a primitive
//! network is a sorter iff it sorts the reverse permutation**, so the
//! minimum test set for primitive sorters has size exactly 1.  This module
//! packages that single-input test, its 0/1 counterpart, and an empirical
//! probe of the open question the paper poses for height-2 networks.

use sortnet_combinat::{BitString, Permutation};
use sortnet_network::primitive::{for_each_network, sorts_reverse_permutation};
use sortnet_network::properties::is_sorter;
use sortnet_network::Network;

/// The single-permutation test set for primitive (height-1) networks: the
/// reverse permutation `(n, n−1, …, 1)`.
#[must_use]
pub fn primitive_permutation_testset(n: usize) -> Vec<Permutation> {
    vec![Permutation::reverse(n)]
}

/// Decides whether a **primitive** network is a sorter using the single
/// reverse-permutation test (de Bruijn's criterion).
///
/// # Panics
/// Panics if the network is not primitive — the criterion is only valid for
/// height-1 networks (the paper's Fig. 1 network sorts the reverse
/// permutation without being a sorter).
#[must_use]
pub fn verify_primitive_sorter(network: &Network) -> bool {
    assert!(
        network.is_primitive(),
        "the single-test criterion only applies to height-1 networks"
    );
    sorts_reverse_permutation(network)
}

/// The cover of the reverse permutation: the `n + 1` binary strings
/// `1^t 0^{n−t}` reversed — i.e. `0^{n-t}`-prefixed… concretely the strings
/// whose ones occupy the first `t` positions.  For primitive networks these
/// `n − 1` unsorted strings among them form a 0/1 test set of size `n − 1`.
#[must_use]
pub fn primitive_binary_testset(n: usize) -> Vec<BitString> {
    Permutation::reverse(n)
        .cover::<BitString>()
        .into_iter()
        .filter(|s| !s.is_sorted())
        .collect()
}

/// Empirical probe of the paper's open question for height-2 networks: over
/// all height-≤2 networks on `n` lines with exactly `size` comparators,
/// returns the smallest number `m` such that some set of `m` binary strings
/// distinguishes sorters from non-sorters within that class.
///
/// This is a finite-class analogue only (the open question asks for all
/// sizes), but it demonstrates that height-2 networks genuinely need more
/// than one test.
///
/// # Panics
/// Panics if the enumeration would be too large (`n > 5` or `size > 6`).
#[must_use]
pub fn height2_min_testset_within_class(n: usize, size: usize) -> usize {
    assert!(
        n <= 5 && size <= 6,
        "height-2 enumeration refused for n={n}, size={size}"
    );
    let universe: Vec<BitString> = BitString::all_unsorted(n).collect();
    // Failure masks of all non-sorters in the class.
    let mut signatures: Vec<u64> = Vec::new();
    for_each_network(n, 2, size, |net| {
        if !is_sorter(net) {
            let mut mask = 0u64;
            for (i, s) in universe.iter().enumerate() {
                if !net.apply_bits(s).is_sorted() {
                    mask |= 1 << i;
                }
            }
            signatures.push(mask);
        }
    });
    signatures.sort_unstable();
    signatures.dedup();
    crate::hitting::minimum_hitting_set_size(&signatures, universe.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_network::builders::bubble::bubble_sort_network;
    use sortnet_network::builders::transposition::odd_even_transposition;

    #[test]
    fn single_test_decides_primitive_sorters_exhaustively() {
        // All height-1 networks with up to 5 comparators on 4 lines.
        for size in 0..=5usize {
            for_each_network(4, 1, size, |net| {
                assert_eq!(verify_primitive_sorter(net), is_sorter(net), "{net}");
            });
        }
    }

    #[test]
    fn testset_size_is_one() {
        for n in 2..=10usize {
            assert_eq!(primitive_permutation_testset(n).len(), 1);
        }
    }

    #[test]
    fn primitive_binary_testset_has_n_minus_1_strings_and_works() {
        for n in 2..=7usize {
            let ts = primitive_binary_testset(n);
            assert_eq!(ts.len(), n - 1);
            // The binary cover test is equivalent to the permutation test for
            // every network (refined zero-one principle), in particular for
            // primitive ones.
            for rounds in 0..=n {
                let net = odd_even_transposition(n, rounds);
                let by_perm = verify_primitive_sorter(&net);
                let by_bits = ts.iter().all(|s| net.apply_bits(s).is_sorted());
                assert_eq!(by_perm, by_bits);
            }
        }
    }

    #[test]
    fn bubble_and_brick_sorters_pass_the_single_test() {
        for n in 2..=8usize {
            assert!(verify_primitive_sorter(&bubble_sort_network(n)));
            assert!(verify_primitive_sorter(&odd_even_transposition(n, n)));
        }
    }

    #[test]
    #[should_panic(expected = "height-1")]
    fn rejects_non_primitive_networks() {
        let fig1 = Network::from_pairs(4, &[(0, 2), (1, 3), (0, 1), (2, 3)]);
        let _ = verify_primitive_sorter(&fig1);
    }

    #[test]
    fn height2_networks_need_more_than_one_test() {
        // The open question of §3, probed within a small finite class.
        let m = height2_min_testset_within_class(4, 4);
        assert!(m > 1, "height-2 class resolved by {m} test(s)");
    }
}
