//! Brute-force minimum-test-set search (experiments E1/E2 at very small n).
//!
//! The theorems give exact values by an adversary argument.  As an
//! independent, construction-free check, this module *searches* for the
//! smallest test set over a finite adversary pool: enumerate candidate
//! networks, keep the ones that are not sorters, record which inputs expose
//! each of them, and solve the resulting minimum hitting-set / set-cover
//! problem exactly.  If the adversary pool contains (networks equivalent to)
//! the Lemma 2.1 networks, the optimum of the finite problem equals the
//! paper's bound; with a weaker pool it can only be smaller — so matching
//! the bound is meaningful evidence.
//!
//! Both searches are solved by the certified set-cover engine in
//! [`crate::augment`] (greedy upper bound + branch and bound with
//! hitting-set/counting lower bounds), which generalises the original
//! single-`u64` solvers here to arbitrary universe widths.

use std::collections::BTreeSet;

use sortnet_combinat::{BitString, Permutation};
use sortnet_network::{Comparator, Network};

use crate::adversary;
use crate::augment;

/// The failure signature of a non-sorter: the set of unsorted test inputs
/// that expose it, as a bitmask over `universe` (the list of all unsorted
/// strings of length `n`, in enumeration order).
fn failure_mask(network: &Network, universe: &[BitString]) -> u64 {
    let mut mask = 0u64;
    for (idx, s) in universe.iter().enumerate() {
        if !network.apply_bits(s).is_sorted() {
            mask |= 1 << idx;
        }
    }
    mask
}

/// Enumerates every standard network on `n` lines with at most `max_size`
/// comparators, plus the Lemma 2.1 adversaries, and returns the set of
/// distinct failure signatures of the non-sorters among them.
///
/// # Panics
/// Panics if the universe of unsorted strings exceeds 64 (i.e. `n > 6`), or
/// if the enumeration would exceed ~20 million networks.
#[must_use]
pub fn failure_signatures(n: usize, max_size: usize) -> Vec<u64> {
    let universe: Vec<BitString> = BitString::all_unsorted(n).collect();
    assert!(
        universe.len() <= 64,
        "failure masks use u64; n = {n} has {} unsorted strings",
        universe.len()
    );
    let alphabet: Vec<Comparator> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| Comparator::new(a, b)))
        .collect();
    let total: u64 = (0..=max_size as u32)
        .map(|s| (alphabet.len() as u64).pow(s))
        .sum();
    assert!(total <= 20_000_000, "enumerating {total} networks refused");

    let mut signatures: BTreeSet<u64> = (0..=max_size)
        .flat_map(|size| NetworkCounter::new(alphabet.clone(), n, size))
        .map(|net| failure_mask(&net, &universe))
        .filter(|&m| m != 0)
        .collect();

    // Always include the Lemma 2.1 adversaries themselves so the finite
    // problem is at least as hard as the paper's argument requires.
    for sigma in &universe {
        let h = adversary::adversary(sigma);
        signatures.insert(failure_mask(&h, &universe));
    }
    signatures.into_iter().collect()
}

/// Iterator over all networks of a fixed size over a fixed comparator
/// alphabet (mixed-radix counter).
struct NetworkCounter {
    alphabet: Vec<Comparator>,
    lines: usize,
    digits: Vec<usize>,
    size: usize,
    done: bool,
}

impl NetworkCounter {
    fn new(alphabet: Vec<Comparator>, lines: usize, size: usize) -> Self {
        Self {
            alphabet,
            lines,
            digits: vec![0; size],
            size,
            done: false,
        }
    }
}

impl Iterator for NetworkCounter {
    type Item = Network;

    fn next(&mut self) -> Option<Network> {
        if self.done {
            return None;
        }
        let net = Network::from_comparators(
            self.lines,
            self.digits.iter().map(|&d| self.alphabet[d]).collect(),
        );
        // Increment the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == self.size {
                self.done = true;
                break;
            }
            self.digits[i] += 1;
            if self.digits[i] < self.alphabet.len() {
                break;
            }
            self.digits[i] = 0;
            i += 1;
        }
        Some(net)
    }
}

/// Exact minimum hitting set: the smallest number of unsorted test strings
/// needed so that every failure signature contains at least one of them.
///
/// Hitting set is set cover with the roles transposed — the signatures are
/// the elements to cover, and string `i` covers every signature containing
/// `i` — so this delegates to the certified set-cover engine in
/// [`crate::augment`] (greedy upper bound, hitting-set/counting lower
/// bounds, branch and bound), which generalises the old single-`u64`
/// search to arbitrary universe widths.  Forced elements (singleton
/// signatures) need no special casing: the solver's fewest-candidates
/// branching resolves them first.
///
/// # Panics
/// Panics if `universe_size > 64`, or if some signature has no member
/// below `universe_size` (such a signature cannot be hit at all, and the
/// old search silently returned a meaningless count for it).
#[must_use]
pub fn minimum_hitting_set_size(signatures: &[u64], universe_size: usize) -> usize {
    assert!(universe_size <= 64, "signatures are single u64 masks");
    let words = signatures.len().div_ceil(64).max(1);
    let sets: Vec<Vec<u64>> = (0..universe_size)
        .map(|i| {
            let mut mask = vec![0u64; words];
            for (j, &signature) in signatures.iter().enumerate() {
                if signature & (1u64 << i) != 0 {
                    mask[j / 64] |= 1u64 << (j % 64);
                }
            }
            mask
        })
        .collect();
    let solution = augment::SetCoverInstance::new(signatures.len(), sets).solve(None);
    assert!(
        solution.uncoverable.is_empty(),
        "a failure signature contains no universe member and cannot be hit"
    );
    debug_assert!(solution.certified, "no node budget was set");
    solution.minimum.len()
}

/// Exact minimum *permutation* test set size for sorting at small `n`,
/// found by set cover: choose the fewest permutations whose covers include
/// every unsorted string.  Solved by the same certified set-cover engine
/// as [`minimum_hitting_set_size`] (elements = unsorted strings, sets =
/// permutation covers), replacing the old breadth-first search over
/// `2^(2^n − n − 1)` reachable masks.
///
/// # Panics
/// Panics if `n > 5` (the branch-and-bound is exact but untamed beyond
/// the sizes the paper's tables need).
#[must_use]
pub fn minimum_permutation_testset_size(n: usize) -> usize {
    assert!(n <= 5, "exact set cover refused beyond n = 5");
    let universe: Vec<BitString> = BitString::all_unsorted(n).collect();
    let covers: Vec<Vec<u64>> = Permutation::all(n)
        .map(|p| {
            let mut mask = vec![0u64; universe.len().div_ceil(64).max(1)];
            for (i, s) in universe.iter().enumerate() {
                if p.covers(s) {
                    mask[i / 64] |= 1u64 << (i % 64);
                }
            }
            mask
        })
        .filter(|m| m.iter().any(|&w| w != 0))
        .collect();
    let solution = augment::SetCoverInstance::new(universe.len(), covers).solve(None);
    assert!(
        solution.uncoverable.is_empty(),
        "every unsorted string is covered by some permutation"
    );
    solution.minimum.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_combinat::binomial::{
        sorting_testset_size_binary, sorting_testset_size_permutation,
    };

    #[test]
    fn exhaustive_search_confirms_theorem_2_2_i_for_n_3() {
        let signatures = failure_signatures(3, 4);
        let minimum = minimum_hitting_set_size(&signatures, 4);
        assert_eq!(minimum as u128, sorting_testset_size_binary(3));
    }

    #[test]
    fn exhaustive_search_confirms_theorem_2_2_i_for_n_4() {
        let signatures = failure_signatures(4, 4);
        let minimum = minimum_hitting_set_size(&signatures, 11);
        assert_eq!(minimum as u128, sorting_testset_size_binary(4));
    }

    #[test]
    fn set_cover_confirms_theorem_2_2_ii_for_small_n() {
        for n in 2..=4usize {
            assert_eq!(
                minimum_permutation_testset_size(n) as u128,
                sorting_testset_size_permutation(n as u64),
                "n = {n}"
            );
        }
    }

    #[test]
    fn adversary_signatures_are_singletons() {
        // Each Lemma 2.1 network is exposed by exactly one test input, which
        // is what forces the hitting set to contain everything.
        let universe: Vec<BitString> = BitString::all_unsorted(5).collect();
        for (i, sigma) in universe.iter().enumerate() {
            let h = adversary::adversary(sigma);
            assert_eq!(failure_mask(&h, &universe), 1 << i);
        }
    }

    #[test]
    fn hitting_set_solver_handles_non_forced_instances() {
        // {a,b}, {b,c}, {a,c}: optimum is 2.
        let signatures = vec![0b011, 0b110, 0b101];
        assert_eq!(minimum_hitting_set_size(&signatures, 3), 2);
        // Adding a singleton forces that element and reduces the rest.
        let signatures = vec![0b011, 0b110, 0b101, 0b001];
        assert_eq!(minimum_hitting_set_size(&signatures, 3), 2);
    }

    #[test]
    fn network_counter_enumerates_the_expected_number() {
        let alphabet: Vec<Comparator> = vec![Comparator::new(0, 1), Comparator::new(1, 2)];
        let nets: Vec<Network> = NetworkCounter::new(alphabet, 3, 3).collect();
        assert_eq!(nets.len(), 8);
    }
}
