//! Theorem 2.2 — minimum test sets for the **sorting** property.
//!
//! * 0/1 inputs: the minimum test set is the set of all non-sorted strings;
//!   its size is exactly `2^n − n − 1`.
//! * permutation inputs: the minimum test set has size `C(n, ⌊n/2⌋) − 1`;
//!   an optimal one is built from the `B(n, ⌊n/2⌋)` family
//!   ([`crate::bnk::permutation_testset`]).
//!
//! This module provides the test sets themselves, the exact
//! necessary-and-sufficient criteria for *being* a test set (via Lemma 2.1),
//! and test-set–driven verification of candidate networks.

use sortnet_combinat::{BitString, ChannelPack, Permutation};
use sortnet_network::lanes::{self, Backend, IterSource, PackedFamily, DEFAULT_WIDTH};
use sortnet_network::{BudgetMeter, Network};

use crate::adversary;
use crate::bnk;
use crate::criteria;
use crate::verify::Property;

/// The minimum 0/1 test set for sorting, as a streaming block source: every
/// non-sorted string of length `n` (Theorem 2.2(i)).  The strings are
/// iterator items, packed into transposed `W × 64`-vector blocks by the
/// 64×64 word transpose of [`IterSource`].
///
/// # Panics
/// Panics if `n ≥ 26`.
#[must_use]
pub fn binary_source(n: usize) -> IterSource<Box<dyn Iterator<Item = BitString>>> {
    IterSource::new(n, criteria::required_strings(Property::Sorter, n))
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

/// Exact criterion (necessity by Lemma 2.1, sufficiency by the zero–one
/// principle): a set of binary strings is a test set for sorting **iff** it
/// contains every non-sorted string of length `n`.  Delegates to the shared
/// [`criteria`] helper.
#[must_use]
pub fn is_binary_testset(candidate: &[BitString], n: usize) -> bool {
    criteria::is_binary_testset(candidate, n, Property::Sorter)
}

/// Exact criterion for permutations: a set of permutations is a test set for
/// sorting **iff** its cover contains every non-sorted string (necessity by
/// Lemma 2.1; sufficiency by the refined zero–one principle).  Delegates to
/// the shared [`criteria`] helper.
#[must_use]
pub fn is_permutation_testset(candidate: &[Permutation], n: usize) -> bool {
    criteria::is_permutation_testset(candidate, n, Property::Sorter)
}

/// Verdict of a test-set–driven verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// `true` when the network passed every test.
    pub passed: bool,
    /// Number of test inputs evaluated.
    pub tests_run: usize,
    /// A failing input, if one was found (as a binary string, possibly the
    /// thresholding of a failing permutation).
    pub witness: Option<BitString>,
}

/// Decides whether `network` is a sorter using the minimum 0/1 test set,
/// streamed through transposed blocks ([`binary_source`]) — the test
/// vectors are never materialised.
///
/// Sound and complete: the test set contains every non-sorted string, so a
/// pass certifies the sorting property by the zero–one principle; a failure
/// returns a concrete witness (the first failing test in enumeration
/// order).
#[must_use]
pub fn verify_sorter_binary(network: &Network) -> Verdict {
    verify_sorter_binary_on(network, Backend::active())
}

/// [`verify_sorter_binary`] pinned to an explicit lane-ops [`Backend`]
/// (the plain form uses the runtime-detected one).
#[must_use]
pub fn verify_sorter_binary_on(network: &Network, backend: Backend) -> Verdict {
    let n = network.lines();
    let outcome = lanes::sweep_network::<DEFAULT_WIDTH, BitString, _>(
        binary_source(n),
        network,
        backend,
        &mut BudgetMeter::unlimited(),
    )
    .expect("the minimal test set has the network's line count");
    Verdict {
        passed: outcome.witness.is_none(),
        tests_run: sortnet_combinat::binomial::sorting_testset_size_binary(n as u64) as usize,
        witness: outcome.witness,
    }
}

/// Decides whether `network` is a sorter using the optimal permutation test
/// set (Theorem 2.2(ii)).  Sound and complete for standard networks.
#[must_use]
pub fn verify_sorter_permutations(network: &Network) -> Verdict {
    let n = network.lines();
    let tests = permutation_testset(n);
    let tests_run = tests.len();
    for p in &tests {
        let out = network.apply_permutation(p);
        if !out.is_identity() {
            // Report the lowest threshold of the cover that is not sorted,
            // as a binary witness comparable with the 0/1 verifier.
            let witness = p
                .cover()
                .into_iter()
                .find(|s| !network.apply_bits(s).is_sorted());
            return Verdict {
                passed: false,
                tests_run,
                witness,
            };
        }
    }
    Verdict {
        passed: true,
        tests_run,
        witness: None,
    }
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
        binary: sortnet_combinat::binomial::sorting_testset_size_binary(n),
        permutation: sortnet_combinat::binomial::sorting_testset_size_permutation(n),
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

/// The `n + 1` sorted strings `0^{n−t} 1^t` in any vector packing —
/// [`PackedFamily::SortedStrings`] materialised.  These are exactly the
/// strings Theorem 2.2's minimal 0/1 test set *omits*, and the family the
/// stuck-line experiments append to restore fault-coverage completeness;
/// they enumerate past the 64-line wall (streamed form:
/// [`sortnet_network::lanes::FamilySource`]).
#[must_use]
pub fn sorted_strings_packed<P: ChannelPack>(n: usize) -> Vec<P> {
    PackedFamily::SortedStrings.collect(n)
}

/// The `n − 1` single-descent strings `0^{z−1}·10·1^{n−z−1}` in any
/// vector packing — [`PackedFamily::NecessityWitnesses`] materialised.
///
/// Each is the minimal non-sorted string exposing one adjacent inversion:
/// the string the Lemma 2.1 adversary of [`necessity_witness`] fails on
/// when built for it.  Below the wall these are a (strict) subset of the
/// full required family of [`binary_testset`]; past the wall they are the
/// enumerable necessity core.
#[must_use]
pub fn necessity_witnesses_packed<P: ChannelPack>(n: usize) -> Vec<P> {
    PackedFamily::NecessityWitnesses.collect(n)
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert!(is_binary_testset(&binary_testset(n), n));
            assert!(is_permutation_testset(&permutation_testset(n), n));
        }
    }

    #[test]
    fn dropping_any_string_invalidates_the_binary_testset() {
        let n = 6;
        let full = binary_testset(n);
        for omit in 0..full.len() {
            let mut reduced = full.clone();
            let sigma = reduced.remove(omit);
            assert!(!is_binary_testset(&reduced, n));
            // And here is the adversary that would slip through:
            let h = necessity_witness(&sigma);
            let verdict_on_reduced = failing_inputs_from(&h, &reduced).unwrap();
            assert!(
                verdict_on_reduced.is_empty(),
                "H_σ must pass the reduced set"
            );
            assert!(!verify_sorter_binary(&h).passed, "H_σ is not a sorter");
        }
    }

    #[test]
    fn verifiers_agree_with_the_exhaustive_oracle() {
        for n in 2..=7usize {
            let good = odd_even_merge_sort(n);
            assert!(verify_sorter_binary(&good).passed);
            assert!(verify_sorter_permutations(&good).passed);
            for rounds in 0..n {
                let bad = odd_even_transposition(n, rounds);
                let oracle = sortnet_network::properties::is_sorter(&bad);
                assert_eq!(
                    verify_sorter_binary(&bad).passed,
                    oracle,
                    "n={n} rounds={rounds}"
                );
                assert_eq!(
                    verify_sorter_permutations(&bad).passed,
                    oracle,
                    "n={n} rounds={rounds}"
                );
            }
        }
    }

    #[test]
    fn failed_verification_returns_a_genuine_witness() {
        let bad = Network::empty(6);
        let v = verify_sorter_binary(&bad);
        assert!(!v.passed);
        let w = v.witness.unwrap();
        assert!(!bad.apply_bits(&w).is_sorted());

        let vp = verify_sorter_permutations(&bad);
        assert!(!vp.passed);
        let wp = vp.witness.unwrap();
        assert!(!bad.apply_bits(&wp).is_sorted());
    }

    #[test]
    fn permutation_verifier_uses_far_fewer_tests() {
        for n in 4..=9usize {
            let b = verify_sorter_binary(&odd_even_merge_sort(n)).tests_run;
            let p = verify_sorter_permutations(&odd_even_merge_sort(n)).tests_run;
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
        use sortnet_combinat::ChannelVec;
        // Below the wall each witness is a genuine Lemma 2.1 necessity
        // case: its adversary network fails on it and nothing else.
        let n = 8;
        let witnesses: Vec<BitString> = necessity_witnesses_packed(n);
        assert_eq!(witnesses.len(), n - 1);
        for sigma in &witnesses {
            assert!(!sigma.is_sorted());
            let h = necessity_witness(sigma);
            assert!(crate::adversary::fails_exactly_on(&h, sigma), "σ = {sigma}");
        }
        // Past the wall the families keep their closed-form shapes.
        let n = 96;
        let sorted: Vec<ChannelVec> = sorted_strings_packed(n);
        assert_eq!(sorted.len(), n + 1);
        assert!(sorted.iter().all(ChannelPack::is_sorted));
        let wide: Vec<ChannelVec> = necessity_witnesses_packed(n);
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
