//! Theorem 2.2 — minimum test sets for the **sorting** property.
//!
//! * 0/1 inputs: the minimum test set is the set of all non-sorted strings;
//!   its size is exactly `2^n − n − 1`.
//! * permutation inputs: the minimum test set has size `C(n, ⌊n/2⌋) − 1`;
//!   an optimal one is built from the `B(n, ⌊n/2⌋)` family
//!   ([`crate::bnk::permutation_testset`]).
//!
//! This module provides the test sets themselves, the lower-bound
//! witnesses and the closed forms; the exact criteria for *being* a test
//! set are [`criteria`] at [`Property::Sorter`](crate::verify::Property::Sorter),
//! and verification is [`crate::verify::try_verify_on`].

use sortnet_combinat::binomial::{sorting_testset_size_binary, sorting_testset_size_permutation};
use sortnet_combinat::bitstrings::is_sorted_word;
use sortnet_combinat::{BitString, Permutation};
use sortnet_network::lanes::{self, WordSource, DEFAULT_WIDTH};
use sortnet_network::Network;

use crate::adversary;
use crate::bnk;
use crate::criteria;

/// The minimum 0/1 test set for sorting, as a streaming block source: every
/// non-sorted string of length `n` (Theorem 2.2(i)), in increasing word
/// order.  The words `0..2^n` minus the `n + 1` sorted ones go straight
/// into the lanes' word transpose ([`WordSource`]).
///
/// # Panics
/// Panics if `n ≥ 26`.
#[must_use]
pub fn binary_source(n: usize) -> WordSource<impl Iterator<Item = u64>> {
    assert!(
        n <= criteria::MAX_ENUMERATED_LINES,
        "enumerating 2^{n} strings refused"
    );
    WordSource::new(n, (0..1u64 << n).filter(move |&w| !is_sorted_word(w, n)))
}

/// The minimum 0/1 test set for sorting, materialised: `2^n − n − 1`
/// strings.  A thin adapter draining [`binary_source`]; sweeps should
/// prefer the source directly.
///
/// # Panics
/// Panics if `n ≥ 26`.
#[must_use]
pub fn binary_testset(n: usize) -> Vec<BitString> {
    lanes::collect_packed::<DEFAULT_WIDTH, BitString, _>(binary_source(n))
}

/// An optimal permutation test set for sorting: `C(n, ⌊n/2⌋) − 1`
/// permutations (Theorem 2.2(ii)).
#[must_use]
pub fn permutation_testset(n: usize) -> Vec<Permutation> {
    bnk::permutation_testset(n, n / 2)
}

/// The paper's lower-bound witness family for permutation test sets
/// (Theorem 2.2(ii)): the strings of weight `⌊n/2⌋` other than the sorted
/// one.  No permutation covers two of them, and each must be covered, so any
/// permutation test set has at least `C(n, ⌊n/2⌋) − 1` members.
#[must_use]
pub fn permutation_lower_bound_witnesses(n: usize) -> Vec<BitString> {
    BitString::all_with_weight(n, n - n / 2)
        .filter(|s| !s.is_sorted())
        .collect()
}

/// The Theorem 2.2 closed forms, bundled for the experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortingBounds {
    /// Input length.
    pub n: u64,
    /// `2^n − n − 1`.
    pub binary: u128,
    /// `C(n, ⌊n/2⌋) − 1`.
    pub permutation: u128,
    /// `n!`, the naive permutation-exhaustive count.
    pub exhaustive_permutations: u128,
}

/// Computes the Theorem 2.2 closed forms for a given `n`.
#[must_use]
pub fn bounds(n: u64) -> SortingBounds {
    SortingBounds {
        n,
        binary: sorting_testset_size_binary(n),
        permutation: sorting_testset_size_permutation(n),
        exhaustive_permutations: sortnet_combinat::factorial(n),
    }
}

/// Demonstrates the necessity half of Theorem 2.2(i) constructively: for the
/// given non-sorted σ, returns the adversary network that would slip through
/// any test set omitting σ.
#[must_use]
pub fn necessity_witness(sigma: &BitString) -> Network {
    adversary::adversary(sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verified, Property, Strategy};
    use sortnet_combinat::binomial;
    use sortnet_network::bitparallel::failing_inputs_from;
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::builders::transposition::odd_even_transposition;

    #[test]
    fn binary_testset_has_the_theorem_2_2_size() {
        for n in 1..=12usize {
            assert_eq!(
                binary_testset(n).len() as u128,
                sortnet_combinat::binomial::sorting_testset_size_binary(n as u64)
            );
        }
    }

    #[test]
    fn permutation_testset_has_the_theorem_2_2_size() {
        for n in 2..=9usize {
            assert_eq!(
                permutation_testset(n).len() as u64,
                binomial(n as u64, (n / 2) as u64) - 1
            );
        }
    }

    #[test]
    fn both_testsets_satisfy_their_exact_criteria() {
        for n in 2..=9usize {
            assert!(criteria::is_binary_testset(
                &binary_testset(n),
                n,
                Property::Sorter
            ));
            assert!(criteria::is_permutation_testset(
                &permutation_testset(n),
                n,
                Property::Sorter
            ));
        }
    }

    #[test]
    fn dropping_any_string_invalidates_the_binary_testset() {
        let n = 6;
        let full = binary_testset(n);
        for omit in 0..full.len() {
            let mut reduced = full.clone();
            let sigma = reduced.remove(omit);
            assert!(!criteria::is_binary_testset(&reduced, n, Property::Sorter));
            // And here is the adversary that would slip through:
            let h = necessity_witness(&sigma);
            let verdict_on_reduced = failing_inputs_from(&h, &reduced).unwrap();
            assert!(
                verdict_on_reduced.is_empty(),
                "H_σ must pass the reduced set"
            );
            assert!(
                !verified(&h, Property::Sorter, Strategy::MinimalBinary).passed,
                "H_σ is not a sorter"
            );
        }
    }

    #[test]
    fn verifiers_agree_with_the_exhaustive_oracle() {
        for n in 2..=7usize {
            let good = odd_even_merge_sort(n);
            assert!(verified(&good, Property::Sorter, Strategy::MinimalBinary).passed);
            assert!(verified(&good, Property::Sorter, Strategy::Permutation).passed);
            for rounds in 0..n {
                let bad = odd_even_transposition(n, rounds);
                let oracle = sortnet_network::properties::is_sorter(&bad);
                assert_eq!(
                    verified(&bad, Property::Sorter, Strategy::MinimalBinary).passed,
                    oracle,
                    "n={n} rounds={rounds}"
                );
                assert_eq!(
                    verified(&bad, Property::Sorter, Strategy::Permutation).passed,
                    oracle,
                    "n={n} rounds={rounds}"
                );
            }
        }
    }

    #[test]
    fn failed_verification_returns_a_genuine_witness() {
        let bad = Network::empty(6);
        let v = verified(&bad, Property::Sorter, Strategy::MinimalBinary);
        assert!(!v.passed);
        let w = v.witness.unwrap();
        assert!(!bad.apply_bits(&w).is_sorted());

        let vp = verified(&bad, Property::Sorter, Strategy::Permutation);
        assert!(!vp.passed);
        let wp = vp.witness.unwrap();
        assert!(!bad.apply_bits(&wp).is_sorted());
    }

    #[test]
    fn permutation_verifier_uses_far_fewer_tests() {
        for n in 4..=9usize {
            let b = verified(
                &odd_even_merge_sort(n),
                Property::Sorter,
                Strategy::MinimalBinary,
            )
            .tests_run;
            let p = verified(
                &odd_even_merge_sort(n),
                Property::Sorter,
                Strategy::Permutation,
            )
            .tests_run;
            assert!(p < b, "n = {n}: {p} permutation tests vs {b} binary tests");
        }
    }

    #[test]
    fn lower_bound_witnesses_have_equal_weight_and_count() {
        for n in (2..=10usize).step_by(2) {
            let w = permutation_lower_bound_witnesses(n);
            assert_eq!(w.len() as u64, binomial(n as u64, (n / 2) as u64) - 1);
            assert!(w
                .iter()
                .all(|s| s.count_ones() == n - n / 2 && !s.is_sorted()));
            // No permutation covers two strings of the same weight, so any
            // permutation test set needs at least |w| members.
            for p in Permutation::all(n.min(6)) {
                let covered = w.iter().filter(|s| p.covers(s)).count();
                assert!(covered <= 1);
            }
        }
    }

    #[test]
    fn packed_families_tie_back_to_the_paper_objects() {
        use sortnet_combinat::{ChannelPack, ChannelVec};
        use sortnet_network::lanes::PackedFamily;
        // Below the wall each witness is a genuine Lemma 2.1 necessity
        // case: its adversary network fails on it and nothing else.
        let n = 8;
        let witnesses: Vec<BitString> = PackedFamily::NecessityWitnesses.collect(n);
        assert_eq!(witnesses.len(), n - 1);
        for sigma in &witnesses {
            assert!(!sigma.is_sorted());
            let h = necessity_witness(sigma);
            assert!(crate::adversary::fails_exactly_on(&h, sigma), "σ = {sigma}");
        }
        // Past the wall the families keep their closed-form shapes.
        let n = 96;
        let sorted: Vec<ChannelVec> = PackedFamily::SortedStrings.collect(n);
        assert_eq!(sorted.len(), n + 1);
        assert!(sorted.iter().all(ChannelPack::is_sorted));
        let wide: Vec<ChannelVec> = PackedFamily::NecessityWitnesses.collect(n);
        assert_eq!(wide.len(), n - 1);
        assert!(wide.iter().all(|s| !s.is_sorted() && s.len() == n));
        // And each wide witness has a covering permutation that the
        // packed cover criterion recognises.
        for sigma in &wide {
            let p = crate::cover::covering_permutation_packed(sigma);
            assert!(p.covers_packed(sigma));
        }
    }

    #[test]
    fn bounds_struct_matches_direct_formulas() {
        let b = bounds(10);
        assert_eq!(b.binary, 1013);
        assert_eq!(b.permutation, 251);
        assert_eq!(b.exhaustive_permutations, 3_628_800);
    }
}
