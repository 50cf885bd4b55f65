//! The zero–one principle and its per-input refinement.
//!
//! * **Zero–one principle (Knuth)**: if a network sorts all `2^n` binary
//!   sequences, it sorts every sequence of arbitrary values.
//! * **Refinement (Floyd / Knuth, used implicitly by the paper's cover
//!   argument)**: a network sorts a *specific* permutation π iff it sorts
//!   every binary string in the cover of π (the thresholdings of π).
//!
//! These two facts are what let the paper translate freely between the 0/1
//! alphabet and the permutation alphabet, and they are the correctness basis
//! for every verifier in this crate.

use sortnet_combinat::{BitString, Permutation};
use sortnet_network::Network;

/// `true` iff the network sorts the permutation π.
#[must_use]
pub fn sorts_permutation(network: &Network, pi: &Permutation) -> bool {
    network.apply_permutation(pi).is_identity()
}

/// `true` iff the network sorts the binary string σ.
#[must_use]
pub fn sorts_binary(network: &Network, sigma: &BitString) -> bool {
    network.apply_bits(sigma).is_sorted()
}

/// The refined zero–one principle for a single permutation: the network
/// sorts π iff it sorts every string in the cover of π.
///
/// This function evaluates the right-hand side (the cover sweep); use it
/// together with [`sorts_permutation`] to validate the principle, or as a
/// cheaper surrogate when the cover is already materialised.
#[must_use]
pub fn sorts_cover(network: &Network, pi: &Permutation) -> bool {
    pi.cover::<BitString>()
        .iter()
        .all(|s| sorts_binary(network, s))
}

/// Checks the zero–one principle itself by brute force for one network:
/// "sorts all 0/1 inputs" and "sorts all permutations" must agree.
/// Exponential and factorial respectively, so only for validation at small
/// `n`.
///
/// # Panics
/// Panics if `n > 8`.
#[must_use]
pub fn zero_one_principle_holds_for(network: &Network) -> bool {
    let n = network.lines();
    assert!(n <= 8, "factorial sweep refused for n = {n}");
    let by_bits = BitString::all(n).all(|s| sorts_binary(network, &s));
    let by_perms = Permutation::all(n).all(|p| sorts_permutation(network, &p));
    by_bits == by_perms
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::builders::transposition::odd_even_transposition;
    use sortnet_network::random::NetworkSampler;

    #[test]
    fn principle_holds_for_structured_networks() {
        for n in 2..=6usize {
            assert!(zero_one_principle_holds_for(&odd_even_merge_sort(n)));
            assert!(zero_one_principle_holds_for(&Network::empty(n)));
            for rounds in 0..=n {
                assert!(zero_one_principle_holds_for(&odd_even_transposition(
                    n, rounds
                )));
            }
        }
    }

    #[test]
    fn principle_holds_for_random_networks() {
        let mut sampler = NetworkSampler::new(2024);
        for _ in 0..40 {
            let net = sampler.network(6, 9);
            assert!(zero_one_principle_holds_for(&net), "{net}");
        }
    }

    #[test]
    fn refined_principle_per_permutation() {
        // sorts_permutation(π) == sorts_cover(π) for every network and π.
        let mut sampler = NetworkSampler::new(7);
        let mut nets = vec![odd_even_merge_sort(5), Network::empty(5)];
        for _ in 0..10 {
            nets.push(sampler.network(5, 6));
        }
        for net in &nets {
            for p in Permutation::all(5) {
                assert_eq!(
                    sorts_permutation(net, &p),
                    sorts_cover(net, &p),
                    "network {net}, permutation {p}"
                );
            }
        }
    }

    #[test]
    fn sorted_binary_inputs_are_always_sorted_by_standard_networks() {
        let mut sampler = NetworkSampler::new(99);
        for _ in 0..20 {
            let net = sampler.network(7, 12);
            for s in BitString::all(7).filter(BitString::is_sorted) {
                assert!(sorts_binary(&net, &s));
            }
        }
    }
}
