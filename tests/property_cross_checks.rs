//! Property-based cross-checks (proptest) spanning the workspace:
//! randomised networks, strings and permutations exercising the invariants
//! the paper's proofs rely on.

use proptest::prelude::*;

use sortnet_combinat::{BitString, Permutation};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::{Comparator, Network};
use sortnet_testsets::adversary;
use sortnet_testsets::cover::covering_permutation;
use sortnet_testsets::zero_one;

/// Strategy: a random standard network on `n` lines with up to `max_size`
/// comparators.
fn arb_network(n: usize, max_size: usize) -> impl Strategy<Value = Network> {
    prop::collection::vec((0..n, 0..n), 0..=max_size).prop_map(move |pairs| {
        let comparators = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Comparator::new(a, b))
            .collect();
        Network::from_comparators(n, comparators)
    })
}

/// Strategy: a random 0/1 string of length `n`.
fn arb_bitstring(n: usize) -> impl Strategy<Value = BitString> {
    (0u64..(1u64 << n)).prop_map(move |w| BitString::from_word(w, n))
}

/// Strategy: a random permutation of `0..n`, generated by ranking random
/// sort keys (shrinks towards the identity).
fn arb_permutation(n: usize) -> impl Strategy<Value = Permutation> {
    prop::collection::vec(any::<u64>(), n).prop_map(move |keys| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let mut values = vec![0u8; n];
        for (rank, &position) in order.iter().enumerate() {
            values[position] = rank as u8;
        }
        Permutation::from_values(&values).expect("ranking yields a permutation")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Monotonicity (the key lemma inside Theorem 2.4): if σ ≤ τ pointwise
    /// then H(σ) ≤ H(τ) pointwise, for every network H.
    #[test]
    fn networks_are_monotone_on_the_domination_order(
        net in arb_network(8, 24),
        a in arb_bitstring(8),
        b in arb_bitstring(8),
    ) {
        let lo = BitString::from_word(a.word() & b.word(), 8);
        let hi = BitString::from_word(a.word() | b.word(), 8);
        prop_assert!(lo.dominated_by(&hi));
        let out_lo = net.apply_bits(&lo);
        let out_hi = net.apply_bits(&hi);
        prop_assert!(out_lo.dominated_by(&out_hi));
    }

    /// Standard networks never unsort a sorted input, and always preserve
    /// the number of ones.
    #[test]
    fn standard_networks_preserve_sortedness_and_weight(
        net in arb_network(9, 27),
        s in arb_bitstring(9),
    ) {
        let out = net.apply_bits(&s);
        prop_assert_eq!(out.count_ones(), s.count_ones());
        if s.is_sorted() {
            prop_assert!(out.is_sorted());
        }
    }

    /// Thresholding commutes with network evaluation (the refined zero–one
    /// principle used by the cover argument): H(threshold_t(p)) =
    /// threshold_t(H(p)).
    #[test]
    fn thresholding_commutes_with_evaluation(
        net in arb_network(7, 21),
        p in arb_permutation(7),
        t in 0usize..=7,
    ) {
        let out_perm = net.apply_permutation(&p);
        let lhs = net.apply_bits(&p.cover_at(t));
        let rhs = out_perm.cover_at(t);
        prop_assert_eq!(lhs, rhs);
    }

    /// The per-permutation refinement: a network sorts p iff it sorts every
    /// string in p's cover.
    #[test]
    fn refined_zero_one_principle(net in arb_network(7, 18), p in arb_permutation(7)) {
        prop_assert_eq!(
            zero_one::sorts_permutation(&net, &p),
            zero_one::sorts_cover(&net, &p)
        );
    }

    /// The flip symmetry used throughout Lemma 2.1:
    /// flip(H)(flip(σ)) = flip(H(σ)).
    #[test]
    fn flip_symmetry(net in arb_network(8, 20), s in arb_bitstring(8)) {
        let lhs = net.flip().apply_bits(&s.flip());
        let rhs = net.apply_bits(&s).flip();
        prop_assert_eq!(lhs, rhs);
        prop_assert!(net.flip().is_standard());
    }

    /// Lemma 2.1 on random unsorted strings of length 10: the adversary
    /// fails on σ, sorts a random other input, and has the canonical
    /// failure output.
    #[test]
    fn adversary_contract_on_random_strings(
        s in arb_bitstring(10),
        probe in arb_bitstring(10),
    ) {
        prop_assume!(!s.is_sorted());
        let h = adversary::adversary(&s);
        prop_assert!(h.is_standard());
        prop_assert!(!h.apply_bits(&s).is_sorted());
        if probe != s {
            prop_assert!(h.apply_bits(&probe).is_sorted());
        }
        let z = s.count_zeros();
        let out = h.apply_bits(&s);
        prop_assert!(out.get(z - 1) && !out.get(z));
    }

    /// Every string is covered by the permutation `covering_permutation`
    /// builds for it, and covers have exactly one string per weight.
    #[test]
    fn covering_permutation_contract(s in arb_bitstring(9)) {
        let p = covering_permutation(&s);
        prop_assert!(p.covers(&s));
        let same_weight = p
            .cover::<BitString>()
            .into_iter()
            .filter(|c| c.count_ones() == s.count_ones())
            .count();
        prop_assert_eq!(same_weight, 1);
    }

    /// Layer decomposition preserves semantics: replaying the layers in
    /// order equals the original network on every input.
    #[test]
    fn layering_preserves_semantics(net in arb_network(8, 24), s in arb_bitstring(8)) {
        let mut relayered = Network::empty(8);
        for layer in net.layers() {
            for c in layer {
                relayered.push(c);
            }
        }
        prop_assert_eq!(relayered.apply_bits(&s), net.apply_bits(&s));
    }

    /// Standardisation (Knuth ex. 5.3.4-16) keeps sorters sorters; checked
    /// here on Batcher networks composed with a random standard suffix
    /// (still a sorter), and on arbitrary random networks it never *loses*
    /// the sorting property.
    #[test]
    fn standardisation_never_destroys_the_sorting_property(net in arb_network(6, 12)) {
        let composed = odd_even_merge_sort(6).then(&net);
        prop_assert!(sortnet_network::properties::is_sorter(&composed));
        prop_assert!(sortnet_network::properties::is_sorter(&composed.standardised()));
    }
}
