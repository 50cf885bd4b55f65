//! Theorem 2.5 — minimum test sets for the **(n/2, n/2)-merging** property.
//!
//! A network on an even number of lines is an `(n/2, n/2)`-merging network
//! when it sorts every input whose two halves are individually sorted.  The
//! paper shows:
//!
//! * 0/1 inputs: the minimum test set is
//!   `T = { σ₁σ₂ : |σ₁| = |σ₂| = n/2, σ₁ and σ₂ sorted, σ₁σ₂ not sorted }`,
//!   of size exactly `n²/4`;
//! * permutation inputs: `n/2` permutations suffice and are necessary — the
//!   permutations `τ_i = (1 … i, i+1+n/2 … n, i+1, … , i+n/2)` for
//!   `0 ≤ i < n/2`, whose covers sweep all the binary merge inputs of the
//!   form `0^i 1^{n/2−i} 0^j 1^{n/2−j}`.

use sortnet_combinat::binomial::{merging_testset_size_binary, merging_testset_size_permutation};
use sortnet_combinat::bitstrings::{is_sorted_word, low_mask};
use sortnet_combinat::{BitString, Permutation};
use sortnet_network::lanes::{self, Backend, WordSource, DEFAULT_WIDTH};
use sortnet_network::Network;

use crate::cover::CoverWords;
use crate::criteria;
use crate::sorting::sweep_sorted;
use crate::verify::Property;

/// The minimum 0/1 test set for `(n/2, n/2)`-merging, as a streaming block
/// source: all concatenations of two sorted halves that are not already
/// sorted (Theorem 2.5(i)), in the `(z₁, z₂)` order of
/// [`BitString::all_half_sorted`], generated as words for the lanes' word
/// transpose ([`WordSource`]).
///
/// # Panics
/// Panics if `n` is odd or `n > 64`.
#[must_use]
pub fn binary_source(n: usize) -> WordSource<impl Iterator<Item = u64>> {
    let half = even_half(n);
    let sorted_half = move |zeros: usize| low_mask(half) ^ low_mask(zeros);
    let words = (0..=half)
        .flat_map(move |z1| (0..=half).map(move |z2| sorted_half(z1) | sorted_half(z2) << half))
        .filter(move |&w| !is_sorted_word(w, n));
    WordSource::new(n, words)
}

/// `n / 2`, for the even `n` merging is defined on.
fn even_half(n: usize) -> usize {
    assert!(
        n.is_multiple_of(2),
        "merging networks need an even number of lines"
    );
    n / 2
}

/// The minimum 0/1 test set for `(n/2, n/2)`-merging, materialised:
/// `n²/4` strings.  A thin adapter draining [`binary_source`]; sweeps
/// should prefer the source directly.
///
/// # Panics
/// Panics if `n` is odd.
#[must_use]
pub fn binary_testset(n: usize) -> Vec<BitString> {
    lanes::collect_packed::<DEFAULT_WIDTH, BitString, _>(binary_source(n))
}

/// The optimal permutation test set for merging: the `n/2` permutations
/// `τ_i` of Theorem 2.5(ii).
///
/// `τ_i` places the values `1..=i` on the first `i` lines, the values
/// `i+1+n/2..=n` on the remaining lines of the first half, and the values
/// `i+1..=i+n/2` on the second half — so both halves are increasing and the
/// thresholdings are exactly the strings `0^i 1^{n/2−i} 0^j 1^{n/2−j}`.
///
/// # Panics
/// Panics if `n` is odd.
#[must_use]
pub fn permutation_testset(n: usize) -> Vec<Permutation> {
    let half = even_half(n);
    let mut out = Vec::new();
    for i in 0..half {
        let mut one_based: Vec<u8> = Vec::with_capacity(n);
        one_based.extend(1..=i as u8);
        one_based.extend((i + 1 + half) as u8..=n as u8);
        one_based.extend((i + 1) as u8..=(i + half) as u8);
        out.push(Permutation::from_one_based(&one_based).expect("τ_i is a permutation"));
    }
    out
}

/// The lower-bound witness family `T′` of Theorem 2.5(ii): the merge inputs
/// `0^i 1^{n/2−i} 0^{n/2−i} 1^i` for `0 ≤ i < n/2`.  All have weight `n/2`,
/// so no permutation covers two of them, and each must be covered.
#[must_use]
pub fn permutation_lower_bound_witnesses(n: usize) -> Vec<BitString> {
    let half = even_half(n);
    (0..half)
        .map(|i| BitString::sorted_with(i, half - i).concat(&BitString::sorted_with(half - i, i)))
        .collect()
}

/// Exact criterion: a set of binary strings is a test set for merging **iff**
/// it contains every element of [`binary_testset`] (necessity by Lemma 2.1
/// restricted to merge inputs, sufficiency by definition of merging).
/// Delegates to the shared [`criteria`] helper.
#[must_use]
pub fn is_binary_testset(candidate: &[BitString], n: usize) -> bool {
    criteria::is_binary_testset(candidate, n, Property::Merger)
}

/// Exact criterion for permutations: every string of the binary test set
/// must be covered by some candidate permutation *whose halves are sorted*
/// (only such permutations are legal merge inputs).  Delegates to the
/// shared [`criteria`] helper.
#[must_use]
pub fn is_permutation_testset(candidate: &[Permutation], n: usize) -> bool {
    criteria::is_permutation_testset(candidate, n, Property::Merger)
}

/// Verdict of a merging verification run.
pub type MergerVerdict = crate::sorting::Verdict;

/// Decides whether `network` is an `(n/2, n/2)`-merging network using the
/// minimum 0/1 test set, streamed through transposed blocks
/// ([`binary_source`]).  Sound and complete.
#[must_use]
pub fn verify_merger_binary(network: &Network) -> MergerVerdict {
    verify_merger_binary_on(network, Backend::active())
}

/// [`verify_merger_binary`] pinned to an explicit lane-ops [`Backend`]
/// (the plain form uses the runtime-detected one).
///
/// # Panics
/// Panics if `n` is odd.
#[must_use]
pub fn verify_merger_binary_on(network: &Network, backend: Backend) -> MergerVerdict {
    let n = network.lines();
    let tests_run = merging_testset_size_binary(n as u64) as usize;
    sweep_sorted(network, binary_source(n), tests_run, backend)
}

/// Decides whether `network` is an `(n/2, n/2)`-merging network using the
/// `n/2` permutations of Theorem 2.5(ii).  Sound and complete.
#[must_use]
pub fn verify_merger_permutations(network: &Network) -> MergerVerdict {
    verify_merger_permutations_on(network, Backend::active())
}

/// [`verify_merger_permutations`] pinned to an explicit lane-ops
/// [`Backend`].  As for sorting, each `τ_i` is swept as its threshold
/// strings `t = 1..n−1` (the constant ones cannot fail): `tests_run`
/// counts permutations, and the witness is the first failing threshold
/// string of the first failing `τ_i`.
///
/// # Panics
/// Panics if `n` is odd.
#[must_use]
pub fn verify_merger_permutations_on(network: &Network, backend: Backend) -> MergerVerdict {
    let n = network.lines();
    let half = even_half(n);
    // τ_i's lines by decreasing value: the top half's lines i..half, then
    // the bottom half, then the lines 0..i (values n−1 down to 0).
    let covers = (0..half).flat_map(move |i| {
        CoverWords::new([
            low_mask(half) ^ low_mask(i),
            low_mask(n) ^ low_mask(half),
            low_mask(i),
        ])
    });
    let tests_run = merging_testset_size_permutation(n as u64) as usize;
    sweep_sorted(network, WordSource::new(n, covers), tests_run, backend)
}

/// The Theorem 2.5 closed forms for the experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergingBounds {
    /// Input length (even).
    pub n: u64,
    /// `n²/4`.
    pub binary: u128,
    /// `n/2`.
    pub permutation: u128,
}

/// Computes the Theorem 2.5 closed forms.
#[must_use]
pub fn bounds(n: u64) -> MergingBounds {
    MergingBounds {
        n,
        binary: merging_testset_size_binary(n),
        permutation: merging_testset_size_permutation(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};
    use sortnet_network::properties::is_merger;

    #[test]
    fn binary_testset_size_is_n_squared_over_4() {
        for n in (2..=16usize).step_by(2) {
            assert_eq!(
                binary_testset(n).len() as u128,
                merging_testset_size_binary(n as u64)
            );
        }
    }

    #[test]
    fn permutation_testset_size_is_n_over_2() {
        for n in (2..=16usize).step_by(2) {
            let ts = permutation_testset(n);
            assert_eq!(ts.len() as u128, merging_testset_size_permutation(n as u64));
            // Every τ_i is a legal merge input: both halves increasing.
            let half = n / 2;
            for p in &ts {
                assert!(p.values()[..half].windows(2).all(|w| w[0] < w[1]));
                assert!(p.values()[half..].windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn tau_permutations_cover_all_binary_merge_tests() {
        for n in (2..=12usize).step_by(2) {
            assert!(
                is_permutation_testset(&permutation_testset(n), n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn binary_testset_satisfies_its_criterion_and_is_tight() {
        for n in (2..=10usize).step_by(2) {
            let full = binary_testset(n);
            assert!(is_binary_testset(&full, n));
            let mut reduced = full.clone();
            reduced.pop();
            assert!(!is_binary_testset(&reduced, n));
        }
    }

    #[test]
    fn lower_bound_witnesses_all_have_weight_half_n() {
        for n in (2..=14usize).step_by(2) {
            let w = permutation_lower_bound_witnesses(n);
            assert_eq!(w.len(), n / 2);
            for s in &w {
                assert_eq!(s.count_ones(), n / 2);
                assert!(!s.is_sorted());
                // Each is a legal merge input.
                assert!(s.slice(0, n / 2).is_sorted() && s.slice(n / 2, n).is_sorted());
            }
            // They are pairwise distinct.
            let distinct: std::collections::HashSet<_> = w.iter().map(BitString::word).collect();
            assert_eq!(distinct.len(), n / 2);
        }
    }

    #[test]
    fn verifiers_agree_with_the_exhaustive_oracle() {
        for n in (2..=10usize).step_by(2) {
            let candidates = vec![
                half_half_merger(n),
                odd_even_merge_sort(n),
                Network::empty(n),
                Network::from_pairs(n, &[(0, n - 1)]),
            ];
            for net in candidates {
                let oracle = is_merger(&net);
                assert_eq!(
                    verify_merger_binary(&net).passed,
                    oracle,
                    "binary, n={n}, {net}"
                );
                assert_eq!(
                    verify_merger_permutations(&net).passed,
                    oracle,
                    "permutation, n={n}, {net}"
                );
            }
        }
    }

    #[test]
    fn merger_witnesses_are_genuine_merge_inputs() {
        let net = Network::empty(8);
        let v = verify_merger_binary(&net);
        assert!(!v.passed);
        let w = v.witness.unwrap();
        assert!(w.slice(0, 4).is_sorted() && w.slice(4, 8).is_sorted());
        assert!(!net.apply_bits(&w).is_sorted());
    }

    #[test]
    fn permutation_testset_is_dramatically_smaller() {
        for n in (4..=16usize).step_by(2) {
            assert!(permutation_testset(n).len() < binary_testset(n).len());
        }
    }

    #[test]
    fn bounds_struct_matches_direct_formulas() {
        let b = bounds(8);
        assert_eq!(b.binary, 16);
        assert_eq!(b.permutation, 4);
    }
}
