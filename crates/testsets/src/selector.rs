//! Lemma 2.3 and Theorem 2.4 — minimum test sets for the
//! **(k, n)-selector** property.
//!
//! A network is a `(k, n)`-selector when, for every input, output line `i`
//! carries the `i`-th smallest input value for all `i ≤ k`.  The paper shows
//! that the minimum 0/1 test set is
//! `T_k^n = { σ : |σ|₀ ≤ k and σ not sorted }`, of size
//! `Σ_{i=0}^{k} C(n, i) − k − 1`, and that the minimum permutation test set
//! has size `C(n, min(⌊n/2⌋, k)) − 1`.

use sortnet_combinat::binomial::{selector_testset_size_binary, selector_testset_size_permutation};
use sortnet_combinat::bitstrings::{is_sorted_word, weight_words};
use sortnet_combinat::{BitString, Permutation};
use sortnet_network::lanes::{self, Backend, BlockSource, WideBlock, WordSource, DEFAULT_WIDTH};
use sortnet_network::{BudgetMeter, Network};

use crate::bnk;
use crate::criteria;
use crate::verify::Property;

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

/// Exact criterion: a set of binary strings is a test set for the
/// `(k, n)`-selector property **iff** it contains every string of `T_k^n`
/// (necessity by Lemma 2.3, sufficiency by the monotonicity argument of
/// Theorem 2.4).  Delegates to the shared [`criteria`] helper.
#[must_use]
pub fn is_binary_testset(candidate: &[BitString], n: usize, k: usize) -> bool {
    criteria::is_binary_testset(candidate, n, Property::Selector { k })
}

/// Exact criterion for permutations: the cover of the candidate set must
/// contain every string of `T_k^n`.  Delegates to the shared [`criteria`]
/// helper.
#[must_use]
pub fn is_permutation_testset(candidate: &[Permutation], n: usize, k: usize) -> bool {
    criteria::is_permutation_testset(candidate, n, Property::Selector { k })
}

/// Verdict of a selector verification run.
pub type SelectorVerdict = crate::sorting::Verdict;

/// Decides whether `network` is a `(k, n)`-selector using the minimum 0/1
/// test set `T_k^n`, streamed through transposed blocks
/// ([`binary_source`]).  Sound and complete.
#[must_use]
pub fn verify_selector_binary(network: &Network, k: usize) -> SelectorVerdict {
    verify_selector_binary_on(network, k, Backend::active())
}

/// [`verify_selector_binary`] pinned to an explicit lane-ops [`Backend`]
/// (the plain form uses the runtime-detected one).
///
/// # Panics
/// Panics if `k > n` or `n ≥ 26`.
#[must_use]
pub fn verify_selector_binary_on(network: &Network, k: usize, backend: Backend) -> SelectorVerdict {
    let n = network.lines();
    let tests_run = selector_testset_size_binary(n as u64, k as u64) as usize;
    sweep_selected(network, k, binary_source(n, k), tests_run, backend)
}

/// Decides whether `network` is a `(k, n)`-selector using the optimal
/// permutation test set.  A permutation is `(k, n)`-selected correctly when
/// the first `k` output lines hold the values `0..k` in order.
#[must_use]
pub fn verify_selector_permutations(network: &Network, k: usize) -> SelectorVerdict {
    verify_selector_permutations_on(network, k, Backend::active())
}

/// [`verify_selector_permutations`] pinned to an explicit lane-ops
/// [`Backend`].
///
/// The first `k` outputs of a permutation are `0..k` iff, at every
/// threshold, the first `k` outputs match the sorted string, so the sweep
/// runs the cover words of the test set ([`bnk::permutation_testset`]), as
/// the sorter verifier does.  `tests_run` counts permutations, and the
/// witness is the first mis-selected threshold string of the first failing
/// permutation.
///
/// # Panics
/// Panics if `n > 20`.
#[must_use]
pub fn verify_selector_permutations_on(
    network: &Network,
    k: usize,
    backend: Backend,
) -> SelectorVerdict {
    let n = network.lines();
    let tests_run = selector_testset_size_permutation(n as u64, k as u64) as usize;
    let source = WordSource::new(n, bnk::cover_words(n, k));
    sweep_selected(network, k, source, tests_run, backend)
}

/// Sweeps `source` through `network` and reports the first input whose
/// first `k` outputs differ from a known-good reference sorter's on the
/// same block — the block-parallel form of
/// [`selects_correctly`](sortnet_network::properties::selects_correctly).
fn sweep_selected(
    network: &Network,
    k: usize,
    source: impl BlockSource<DEFAULT_WIDTH>,
    tests_run: usize,
    backend: Backend,
) -> SelectorVerdict {
    let n = network.lines();
    let reference = sortnet_network::builders::batcher::odd_even_merge_sort(n);
    let mut out = WideBlock::<DEFAULT_WIDTH>::zeroed(n);
    let mut sorted = WideBlock::<DEFAULT_WIDTH>::zeroed(n);
    let outcome = lanes::sweep_find::<DEFAULT_WIDTH, BitString, _>(
        source,
        &mut BudgetMeter::unlimited(),
        |block| {
            out.copy_from(block);
            out.run_with(backend, network);
            sorted.copy_from(block);
            sorted.run_with(backend, &reference);
            lanes::selector_violation_masks(&out, &sorted, k, backend)
        },
    );
    SelectorVerdict {
        passed: outcome.witness.is_none(),
        tests_run,
        witness: outcome.witness,
    }
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
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::builders::selection::{chain_selector, pruned_selector};
    use sortnet_network::properties::{is_selector, selects_correctly};

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
                assert!(is_binary_testset(&binary_testset(n, k), n, k));
                assert!(is_permutation_testset(&permutation_testset(n, k), n, k));
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
            assert!(!is_binary_testset(&reduced, n, k));
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
                        verify_selector_binary(&net, k).passed,
                        oracle,
                        "binary verifier disagrees for n={n} k={k} net={net}"
                    );
                    assert_eq!(
                        verify_selector_permutations(&net, k).passed,
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
        let v = verify_selector_binary(&net, 2);
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
