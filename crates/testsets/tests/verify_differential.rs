//! Differential pin of the word-fed verifiers.
//!
//! Every verification sweeps packed words through the lanes: the
//! exhaustive sets as word ranges and the half-sorted word generator, the
//! minimal 0/1 sets from word generators, and a permutation test set as
//! the threshold strings of its permutations.  This suite checks every
//! `Report` (verdict, `tests_run` and witness) of all nine property ×
//! strategy cells against three references kept only here:
//!
//! * exhaustive: the first input the network handles wrongly, scanned
//!   scalar-style over `0..2ⁿ` (sorting, selection) or over the
//!   half-sorted strings in `(z₁, z₂)` order (merging);
//! * permutations: the per-permutation scalar loops (apply the network to
//!   each permutation of the materialised test set; on the first one not
//!   handled, report the first failing threshold string of its cover);
//! * minimal binary: an `IterSource` over the boxed `BitString` family of
//!   `criteria::required_strings`, swept on the same backend.
//!
//! It covers `n = 2..=12`, every selector `k`, and Batcher's sorter, the
//! sorter minus each comparator, the empty network and seeded random
//! networks with standard and reversed (`Comparator::directed`)
//! comparators, on every runnable backend.

use sortnet_combinat::binomial::{
    merging_testset_size_binary, selector_testset_size_binary, sorting_testset_size_binary,
};
use sortnet_combinat::bitstrings::half_sorted_words;
use sortnet_combinat::{BitString, Permutation};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{self, Backend, IterSource, WideBlock, DEFAULT_WIDTH};
use sortnet_network::properties::selects_correctly;
use sortnet_network::random::NetworkSampler;
use sortnet_network::{BudgetMeter, Comparator, Network};
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};
use sortnet_testsets::{bnk, criteria, merging};

/// `true` when `network` handles threshold input `s` correctly for
/// `property` (sorts it, or selects its first `k` outputs).
fn handles(network: &Network, property: Property, s: &BitString) -> bool {
    let out = network.apply_bits(s);
    match property {
        Property::Selector { k } => selects_correctly(s, &out, k),
        Property::Sorter | Property::Merger => out.is_sorted(),
    }
}

/// The half-sorted strings `0^{z₁} 1^{half−z₁} · 0^{z₂} 1^{half−z₂}` in
/// `(z₁, z₂)` order, `z₂` fastest, built string by string.
fn scalar_half_sorted(n: usize) -> Vec<BitString> {
    let half = n / 2;
    let mut out = Vec::new();
    for z1 in 0..=half {
        for z2 in 0..=half {
            let low = BitString::sorted_with(z1, half - z1);
            out.push(low.concat(&BitString::sorted_with(z2, half - z2)));
        }
    }
    out
}

/// The scalar exhaustive verifier: the first input of `0..2ⁿ` (sorting,
/// selection) or of [`scalar_half_sorted`] (merging) the network handles
/// wrongly, over `2ⁿ` or `(n/2 + 1)²` tests.
fn scalar_exhaustive_report(network: &Network, property: Property) -> Report {
    let n = network.lines();
    let inputs: Vec<BitString> = match property {
        Property::Merger => scalar_half_sorted(n),
        Property::Sorter | Property::Selector { .. } => BitString::all(n).collect(),
    };
    let witness = inputs
        .iter()
        .copied()
        .find(|s| !handles(network, property, s));
    Report {
        property,
        strategy: Strategy::Exhaustive,
        passed: witness.is_none(),
        tests_run: inputs.len(),
        witness,
    }
}

/// The scalar permutation verifier: each permutation of `tests` is run
/// through the network; the first one whose output is wrong yields the
/// first wrong threshold string of its cover.
fn scalar_permutation_report(
    network: &Network,
    property: Property,
    tests: &[Permutation],
) -> Report {
    let mut witness = None;
    for p in tests {
        let out = network.apply_permutation(p);
        let ok = match property {
            Property::Selector { k } => (0..k).all(|i| usize::from(out.get(i)) == i),
            Property::Sorter | Property::Merger => out.is_identity(),
        };
        if !ok {
            witness = p
                .cover()
                .into_iter()
                .find(|s| !handles(network, property, s));
            assert!(
                witness.is_some(),
                "a wrong permutation has a wrong threshold"
            );
            break;
        }
    }
    Report {
        property,
        strategy: Strategy::Permutation,
        passed: witness.is_none(),
        tests_run: tests.len(),
        witness,
    }
}

/// The boxed-iterator minimal-binary verifier: `required_strings` packed
/// by `IterSource` and swept on `backend`.
fn iter_source_report(network: &Network, property: Property, backend: Backend) -> Report {
    let n = network.lines();
    let source = IterSource::new(n, criteria::required_strings(property, n));
    let (witness, tests_run) = match property {
        Property::Sorter | Property::Merger => {
            let outcome = lanes::sweep_network::<DEFAULT_WIDTH, BitString, _>(
                source,
                network,
                backend,
                &mut BudgetMeter::unlimited(),
            )
            .unwrap();
            let size = if property == Property::Sorter {
                sorting_testset_size_binary(n as u64)
            } else {
                merging_testset_size_binary(n as u64)
            };
            (outcome.witness, size as usize)
        }
        Property::Selector { k } => {
            let reference = odd_even_merge_sort(n);
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
            let size = selector_testset_size_binary(n as u64, k as u64);
            (outcome.witness, size as usize)
        }
    };
    Report {
        property,
        strategy: Strategy::MinimalBinary,
        passed: witness.is_none(),
        tests_run,
        witness,
    }
}

/// Batcher's sorter, the sorter minus each comparator, the empty network
/// and seeded random networks, half of whose comparators are reversed.
fn networks(n: usize) -> Vec<Network> {
    let batcher = odd_even_merge_sort(n);
    let mut nets: Vec<Network> = (0..batcher.size())
        .map(|i| batcher.without_comparator(i))
        .collect();
    nets.push(batcher);
    nets.push(Network::empty(n));
    let mut sampler = NetworkSampler::new(0x5EED_0000 + n as u64);
    for size in [n, 3 * n, 6 * n] {
        nets.push(sampler.network(n, size));
        let mut directed = Network::empty(n);
        for (i, c) in sampler.network(n, size).comparators().iter().enumerate() {
            directed.push(if i % 2 == 0 {
                Comparator::directed(c.max_line(), c.min_line())
            } else {
                *c
            });
        }
        nets.push(directed);
    }
    nets
}

fn properties(n: usize) -> Vec<Property> {
    let mut out = vec![Property::Sorter];
    out.extend((0..=n).map(|k| Property::Selector { k }));
    if n.is_multiple_of(2) {
        out.push(Property::Merger);
    }
    out
}

#[test]
fn word_fed_reports_equal_the_scalar_and_boxed_references() {
    let backends = Backend::runnable();
    for n in 2..=12usize {
        // The merger's exhaustive stream is the half-sorted word
        // generator; pin it word for word, so that even an input no
        // network can fail (the first, all-one string) is neither dropped
        // nor moved.
        if n.is_multiple_of(2) {
            let words: Vec<BitString> = half_sorted_words(n)
                .map(|w| BitString::from_word(w, n))
                .collect();
            assert_eq!(words, scalar_half_sorted(n), "n={n}");
        }
        let nets = networks(n);
        for property in properties(n) {
            let perms = match property {
                Property::Sorter => bnk::permutation_testset(n, n / 2),
                Property::Selector { k } => bnk::permutation_testset(n, k),
                Property::Merger => merging::permutation_testset(n),
            };
            for net in &nets {
                let exhaustive = scalar_exhaustive_report(net, property);
                let expected = scalar_permutation_report(net, property, &perms);
                for &backend in &backends {
                    let got = try_verify_on(net, property, Strategy::Exhaustive, backend).unwrap();
                    assert_eq!(got, exhaustive, "n={n} {property:?} {backend:?} {net}");
                    let got = try_verify_on(net, property, Strategy::Permutation, backend).unwrap();
                    assert_eq!(got, expected, "n={n} {property:?} {backend:?} {net}");
                    let got =
                        try_verify_on(net, property, Strategy::MinimalBinary, backend).unwrap();
                    let expected = iter_source_report(net, property, backend);
                    assert_eq!(got, expected, "n={n} {property:?} {backend:?} {net}");
                }
            }
        }
    }
}
