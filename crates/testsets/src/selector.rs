//! Lemma 2.3 and Theorem 2.4 — minimum test sets for the
//! **(k, n)-selector** property.
//!
//! A network is a `(k, n)`-selector when, for every input, output line `i`
//! carries the `i`-th smallest input value for all `i ≤ k`.  The paper shows
//! that the minimum 0/1 test set is
//! `T_k^n = { σ : |σ|₀ ≤ k and σ not sorted }`, of size
//! `Σ_{i=0}^{k} C(n, i) − k − 1`, and that the minimum permutation test set
//! has size `C(n, min(⌊n/2⌋, k)) − 1`.
//!
//! The exact criteria for *being* a test set are [`criteria`] at
//! [`Property::Selector`](crate::verify::Property::Selector), and
//! verification is [`crate::verify::try_verify_on`].

use sortnet_combinat::binomial::{selector_testset_size_binary, selector_testset_size_permutation};
use sortnet_combinat::bitstrings::{is_sorted_word, weight_words};
use sortnet_combinat::{BitString, Permutation};
use sortnet_network::lanes::{self, WordSource, DEFAULT_WIDTH};

use crate::bnk;
use crate::criteria;

/// The minimum 0/1 test set `T_k^n` for the `(k, n)`-selector property, as
/// a streaming block source: every non-sorted string with at most `k` zeros
/// (Theorem 2.4(i)), weight class by weight class (no zeros first), each
/// class in increasing word order, generated as words for the lanes' word
/// transpose ([`WordSource`]).
///
/// # Panics
/// Panics if `k > n` or `n ≥ 26`.
#[must_use]
pub fn binary_source(n: usize, k: usize) -> WordSource<impl Iterator<Item = u64>> {
    assert!(k <= n, "k = {k} exceeds n = {n}");
    assert!(
        n <= criteria::MAX_ENUMERATED_LINES,
        "enumerating 2^{n} strings refused"
    );
    let words = (0..=k)
        .flat_map(move |zeros| weight_words(n, n - zeros))
        .filter(move |&w| !is_sorted_word(w, n));
    WordSource::new(n, words)
}

/// The minimum 0/1 test set `T_k^n`, materialised.  A thin adapter draining
/// [`binary_source`]; sweeps should prefer the source directly.
///
/// # Panics
/// Panics if `k > n` or `n ≥ 26`.
#[must_use]
pub fn binary_testset(n: usize, k: usize) -> Vec<BitString> {
    lanes::collect_packed::<DEFAULT_WIDTH, BitString, _>(binary_source(n, k))
}

/// An optimal permutation test set for the `(k, n)`-selector property, of
/// size `C(n, min(⌊n/2⌋, k)) − 1` (Theorem 2.4(ii)).
#[must_use]
pub fn permutation_testset(n: usize, k: usize) -> Vec<Permutation> {
    bnk::permutation_testset(n, k)
}

/// The Theorem 2.4 closed forms for the experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectorBounds {
    /// Input length.
    pub n: u64,
    /// Selection rank.
    pub k: u64,
    /// `Σ_{i≤k} C(n,i) − k − 1`.
    pub binary: u128,
    /// `C(n, min(⌊n/2⌋, k)) − 1`.
    pub permutation: u128,
}

/// Computes the Theorem 2.4 closed forms.
#[must_use]
pub fn bounds(n: u64, k: u64) -> SelectorBounds {
    SelectorBounds {
        n,
        k,
        binary: selector_testset_size_binary(n, k),
        permutation: selector_testset_size_permutation(n, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verified, Property, Strategy};
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::builders::selection::{chain_selector, pruned_selector};
    use sortnet_network::properties::{is_selector, selects_correctly};
    use sortnet_network::Network;

    #[test]
    fn binary_testset_size_matches_theorem_2_4() {
        for n in 1..=10usize {
            for k in 0..=n {
                assert_eq!(
                    binary_testset(n, k).len() as u128,
                    selector_testset_size_binary(n as u64, k as u64),
                    "n = {n}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn permutation_testset_size_matches_theorem_2_4() {
        for n in 2..=9usize {
            for k in 1..=n {
                assert_eq!(
                    permutation_testset(n, k).len() as u128,
                    selector_testset_size_permutation(n as u64, k as u64),
                    "n = {n}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn with_k_equal_n_the_selector_testset_is_the_sorting_testset() {
        for n in 2..=8usize {
            let sel: std::collections::BTreeSet<_> = binary_testset(n, n).into_iter().collect();
            let sort: std::collections::BTreeSet<_> =
                crate::sorting::binary_testset(n).into_iter().collect();
            assert_eq!(sel, sort);
        }
    }

    #[test]
    fn both_testsets_satisfy_their_exact_criteria() {
        for n in 2..=8usize {
            for k in 1..=n {
                assert!(criteria::is_binary_testset(
                    &binary_testset(n, k),
                    n,
                    Property::Selector { k }
                ));
                assert!(criteria::is_permutation_testset(
                    &permutation_testset(n, k),
                    n,
                    Property::Selector { k }
                ));
            }
        }
    }

    #[test]
    fn dropping_any_string_invalidates_the_binary_testset() {
        let (n, k) = (6, 2);
        let full = binary_testset(n, k);
        for omit in 0..full.len() {
            let mut reduced = full.clone();
            let sigma = reduced.remove(omit);
            assert!(!criteria::is_binary_testset(
                &reduced,
                n,
                Property::Selector { k }
            ));
            // Lemma 2.3: the adversary for σ mis-selects only σ.
            let h = crate::adversary::adversary(&sigma);
            assert!(!is_selector(&h, k), "H_σ must not be a (k,n)-selector");
            for t in &reduced {
                let out = h.apply_bits(t);
                assert!(
                    selects_correctly(t, &out, k),
                    "H_σ must pass all other tests"
                );
            }
        }
    }

    #[test]
    fn verifiers_agree_with_the_exhaustive_oracle() {
        for n in 3..=7usize {
            for k in 1..=n {
                let candidates = vec![
                    odd_even_merge_sort(n),
                    pruned_selector(n, k),
                    chain_selector(n, k),
                    chain_selector(n, k.saturating_sub(1)),
                    Network::empty(n),
                ];
                for net in candidates {
                    let oracle = is_selector(&net, k);
                    assert_eq!(
                        verified(&net, Property::Selector { k }, Strategy::MinimalBinary).passed,
                        oracle,
                        "binary verifier disagrees for n={n} k={k} net={net}"
                    );
                    assert_eq!(
                        verified(&net, Property::Selector { k }, Strategy::Permutation).passed,
                        oracle,
                        "permutation verifier disagrees for n={n} k={k} net={net}"
                    );
                }
            }
        }
    }

    #[test]
    fn selector_witnesses_are_genuine() {
        let net = Network::empty(5);
        let v = verified(&net, Property::Selector { k: 2 }, Strategy::MinimalBinary);
        assert!(!v.passed);
        let w = v.witness.unwrap();
        assert!(!selects_correctly(&w, &net.apply_bits(&w), 2));
    }

    #[test]
    fn bounds_struct_matches_direct_formulas() {
        let b = bounds(6, 2);
        assert_eq!(b.binary, 1 + 6 + 15 - 2 - 1);
        assert_eq!(b.permutation, 14);
    }
}
