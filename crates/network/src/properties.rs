//! Exhaustive decision procedures for the three properties studied by the
//! paper: *sorter*, *(k, n)-selector* and *(n/2, n/2)-merging network*.
//!
//! These are the "ground truth" oracles the test-set machinery in
//! `sortnet-testsets` is benchmarked against: they sweep all `2^n` binary
//! inputs (justified by the zero–one principle and its refinements), so they
//! are exponential but exact.

use sortnet_combinat::bitstrings::half_sorted_words;
use sortnet_combinat::{BitString, Permutation};

use crate::bitparallel;
use crate::budget::{BudgetMeter, Budgeted};
use crate::error::EngineError;
use crate::lanes::{self, Check, Sweep, WordSource, DEFAULT_WIDTH};
use crate::network::Network;

/// `true` when an unbudgeted sweep found no violating input; a typed
/// refusal panics with its text.
fn passes(witness: Result<Option<BitString>, EngineError>) -> bool {
    witness.unwrap_or_else(|e| panic!("{e}")).is_none()
}

/// `true` iff the network sorts every input (checked over all `2^n` binary
/// vectors by [`bitparallel::find_unsorted_input`]; the zero–one principle
/// extends the conclusion to arbitrary inputs).
///
/// # Panics
/// Panics if `n ≥ 32`.
#[must_use]
pub fn is_sorter(network: &Network) -> bool {
    passes(bitparallel::find_unsorted_input(network, &Sweep::default()).map(Budgeted::into_value))
}

/// Exhaustively checks the sorter property by enumerating all `n!`
/// permutations instead of 0/1 vectors.  Only feasible for small `n`; used
/// in tests to validate the zero–one principle itself.
///
/// # Panics
/// Panics if `n > 10`.
#[must_use]
pub fn is_sorter_by_permutations(network: &Network) -> bool {
    let n = network.lines();
    assert!(n <= 10, "n! enumeration refused for n = {n}");
    Permutation::all(n).all(|p| network.apply_permutation(&p).is_identity())
}

/// `true` iff the first `k` outputs of the network always carry the `k`
/// smallest input values (the paper's `(k, n)`-selector), checked over all
/// `2^n` binary inputs.
///
/// For a 0/1 input `σ`, output `i` (0-based, `i < k`) must equal the `i`-th
/// smallest bit of `σ`, i.e. outputs `0..|σ|₀` must be 0 and outputs
/// `|σ|₀..k` must be 1.  The sweep runs [`DEFAULT_WIDTH`]` × 64` vectors
/// per pass through [`bitparallel::find_selector_violation`].
///
/// # Panics
/// Panics if `k > n` or `n ≥ 32`.
#[must_use]
pub fn is_selector(network: &Network, k: usize) -> bool {
    let sweep = bitparallel::find_selector_violation(network, k, &Sweep::default());
    passes(sweep.map(Budgeted::into_value))
}

/// `true` iff `output` carries the correct `k` smallest bits of `input` on
/// its first `k` lines.
#[must_use]
pub fn selects_correctly(input: &BitString, output: &BitString, k: usize) -> bool {
    let zeros = input.count_zeros();
    (0..k).all(|i| output.get(i) == (i >= zeros))
}

/// `true` iff the network merges every pair of sorted halves (the paper's
/// `(n/2, n/2)`-merging network), checked over all pairs of sorted binary
/// half-inputs, streamed as packed words through the lanes' word transpose
/// ([`half_sorted_words`] → [`WordSource`]) into the sorted [`Check`].
///
/// # Panics
/// Panics if `n` is odd.
#[must_use]
pub fn is_merger(network: &Network) -> bool {
    let n = network.lines();
    let outcome = lanes::sweep_find::<DEFAULT_WIDTH, BitString, _>(
        WordSource::new(n, half_sorted_words(n)),
        &Check::Sorted(network),
        Sweep::default().backend,
        &mut BudgetMeter::unlimited(),
    );
    passes(outcome.map(|outcome| outcome.witness))
}

/// Exhaustive merger check over *permutation* merge inputs: every
/// permutation whose two halves are each increasing must be sorted.  Used in
/// tests to validate the 0/1 merger oracle.
///
/// # Panics
/// Panics if `n` is odd or `n > 16`.
#[must_use]
pub fn is_merger_by_permutations(network: &Network) -> bool {
    let n = network.lines();
    assert!(
        n.is_multiple_of(2),
        "merging networks need an even number of lines"
    );
    assert!(n <= 16, "C(n, n/2) enumeration refused for n = {n}");
    let half = n / 2;
    // Choose which values go to the first half; each half is then sorted.
    sortnet_combinat::subsets::Subset::all_with_len(n, half).all(|s| {
        let mut first: Vec<u8> = s.elements().iter().map(|&e| e as u8).collect();
        let mut second: Vec<u8> = s.complement().elements().iter().map(|&e| e as u8).collect();
        first.sort_unstable();
        second.sort_unstable();
        first.extend_from_slice(&second);
        let p = Permutation::from_values(&first).expect("valid permutation");
        network.apply_permutation(&p).is_identity()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::batcher::odd_even_merge_sort;
    use crate::builders::bubble::bubble_sort_network;

    #[test]
    fn batcher_is_a_sorter_and_fig1_is_not() {
        for n in 1..=9 {
            assert!(is_sorter(&odd_even_merge_sort(n)), "n = {n}");
        }
        let fig1 = Network::from_pairs(4, &[(0, 2), (1, 3), (0, 1), (2, 3)]);
        assert!(!is_sorter(&fig1));
    }

    #[test]
    fn zero_one_principle_agrees_with_permutation_enumeration() {
        for n in 2..=6 {
            let sorter = odd_even_merge_sort(n);
            assert_eq!(is_sorter(&sorter), is_sorter_by_permutations(&sorter));
            let bubble = bubble_sort_network(n);
            let truncated = Network::from_comparators(
                n,
                bubble.comparators()[..bubble.size().saturating_sub(1)].to_vec(),
            );
            assert_eq!(is_sorter(&truncated), is_sorter_by_permutations(&truncated));
        }
    }

    #[test]
    fn every_sorter_is_a_selector_and_a_merger() {
        for n in [4usize, 6, 8] {
            let sorter = odd_even_merge_sort(n);
            for k in 0..=n {
                assert!(is_selector(&sorter, k), "n = {n}, k = {k}");
            }
            assert!(is_merger(&sorter));
        }
    }

    #[test]
    fn empty_network_is_a_trivial_selector_only_for_k_zero() {
        let empty = Network::empty(5);
        assert!(is_selector(&empty, 0));
        assert!(!is_selector(&empty, 1));
        assert!(!is_sorter(&empty));
    }

    #[test]
    fn merger_oracle_agrees_with_permutation_merger_oracle() {
        for n in [2usize, 4, 6] {
            let sorter = odd_even_merge_sort(n);
            assert_eq!(is_merger(&sorter), is_merger_by_permutations(&sorter));
            let empty = Network::empty(n);
            assert_eq!(is_merger(&empty), is_merger_by_permutations(&empty));
            let fig1like = Network::from_pairs(n, &[(0, n - 1)]);
            assert_eq!(is_merger(&fig1like), is_merger_by_permutations(&fig1like));
        }
    }

    #[test]
    fn bitparallel_selector_sweep_matches_the_scalar_definition() {
        use crate::random::NetworkSampler;
        let mut sampler = NetworkSampler::new(99);
        for _ in 0..20 {
            let net = sampler.network(6, 7);
            for k in 0..=6 {
                let scalar =
                    BitString::all(6).all(|s| selects_correctly(&s, &net.apply_bits(&s), k));
                assert_eq!(is_selector(&net, k), scalar, "net {net} k={k}");
            }
        }
    }

    #[test]
    fn selects_correctly_examples() {
        let input = BitString::parse("0110").unwrap();
        // sorted(input) = 0011: first two outputs must be 0,0.
        assert!(selects_correctly(
            &input,
            &BitString::parse("0011").unwrap(),
            4
        ));
        assert!(selects_correctly(
            &input,
            &BitString::parse("0010").unwrap(),
            2
        ));
        assert!(!selects_correctly(
            &input,
            &BitString::parse("0100").unwrap(),
            2
        ));
    }
}
