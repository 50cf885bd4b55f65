//! Property-based tests for the combinatorics substrate.

use proptest::prelude::*;

use sortnet_combinat::chains::chain_of;
use sortnet_combinat::subsets::Subset;
use sortnet_combinat::{binomial_u128, BitString, Permutation};

fn arb_bitstring(n: usize) -> impl Strategy<Value = BitString> {
    (0u64..(1u64 << n)).prop_map(move |w| BitString::from_word(w, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitstring_flip_and_reverse_complement_agree(s in arb_bitstring(12)) {
        prop_assert_eq!(s.flip(), s.reversed().complement());
        prop_assert_eq!(s.flip().flip(), s);
        prop_assert_eq!(s.count_ones() + s.count_zeros(), s.len());
    }

    #[test]
    fn bitstring_sorted_iff_no_one_before_zero(s in arb_bitstring(12)) {
        let bits = s.to_vec();
        let naive = bits.windows(2).all(|w| w[0] <= w[1]);
        prop_assert_eq!(s.is_sorted(), naive);
        prop_assert!(s.sorted().is_sorted());
    }

    #[test]
    fn slice_concat_roundtrip(s in arb_bitstring(14), cut in 0usize..=14) {
        let left = s.slice(0, cut);
        let right = s.slice(cut, 14);
        prop_assert_eq!(left.concat(&right), s);
    }

    #[test]
    fn domination_is_consistent_with_bitwise_and(a in arb_bitstring(10), b in arb_bitstring(10)) {
        let meet = BitString::from_word(a.word() & b.word(), 10);
        prop_assert!(meet.dominated_by(&a));
        prop_assert!(meet.dominated_by(&b));
        if a.dominated_by(&b) && b.dominated_by(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn subset_rank_unrank_roundtrip(mask in 0u64..(1u64 << 12)) {
        let s = Subset::from_mask(mask, 12);
        let rank = s.colex_rank();
        prop_assert!(rank < binomial_u128(12, s.len() as u64));
        prop_assert_eq!(Subset::from_colex_rank(12, s.len(), rank), s);
    }

    #[test]
    fn chains_contain_their_seed_and_are_symmetric(mask in 0u64..(1u64 << 11)) {
        let s = Subset::from_mask(mask, 11);
        let chain = chain_of(&s);
        prop_assert!(chain.members().contains(&s));
        prop_assert_eq!(chain.min().len() + chain.max().len(), 11);
        for w in chain.members().windows(2) {
            prop_assert!(w[0].is_subset_of(&w[1]));
            prop_assert_eq!(w[0].len() + 1, w[1].len());
        }
    }

    #[test]
    fn permutation_rank_roundtrip(rank in 0u128..5040) {
        let p = Permutation::from_lex_rank(7, rank);
        prop_assert_eq!(p.lex_rank(), rank);
        prop_assert!(p.compose(&p.inverse()).is_identity());
    }

    #[test]
    fn cover_has_one_string_per_weight(rank in 0u128..5040) {
        let p = Permutation::from_lex_rank(7, rank);
        let cover: Vec<BitString> = p.cover();
        prop_assert_eq!(cover.len(), 8);
        for (t, s) in cover.iter().enumerate() {
            prop_assert_eq!(s.count_ones(), t);
            prop_assert!(p.covers(s));
        }
    }
}
