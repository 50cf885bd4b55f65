//! Property-based tests for the comparator-network substrate.

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_network::bitparallel::count_unsorted_outputs;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, WideBlock};
use sortnet_network::{Comparator, Network};

fn arb_network(n: usize, max_size: usize) -> impl Strategy<Value = Network> {
    prop::collection::vec((0..n, 0..n), 0..=max_size).prop_map(move |pairs| {
        let comparators = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Comparator::new(a, b))
            .collect();
        Network::from_comparators(n, comparators)
    })
}

fn arb_bitstring(n: usize) -> impl Strategy<Value = BitString> {
    (0u64..(1u64 << n)).prop_map(move |w| BitString::from_word(w, n))
}

/// Strategy: one of the backends this CPU runs, so every case names the
/// backend it checks.
fn arb_backend() -> impl Strategy<Value = Backend> {
    let backends = Backend::runnable();
    (0..backends.len()).prop_map(move |i| backends[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The packed 0/1 evaluator agrees with evaluating the same input as a
    /// plain slice of integers.
    #[test]
    fn apply_bits_matches_apply_slice(net in arb_network(10, 30), s in arb_bitstring(10)) {
        let via_bits = net.apply_bits(&s).to_vec();
        let via_slice = net.apply_vec(&s.to_vec());
        prop_assert_eq!(via_bits, via_slice);
    }

    /// The 64-lane bit-parallel evaluator agrees with the scalar evaluator
    /// on every lane.
    #[test]
    fn bitblock_matches_scalar(
        net in arb_network(9, 24),
        start in 0u64..((1u64 << 9) - 64),
        backend in arb_backend(),
    ) {
        let mut block = WideBlock::<1>::from_range(9, start, 64);
        block.run_with(backend, &net);
        let mask = block.unsorted_masks_with(backend)[0];
        for j in 0..64u32 {
            let input = BitString::from_word(start + u64::from(j), 9);
            let scalar = net.apply_bits(&input);
            prop_assert_eq!(block.extract::<BitString>(j), scalar, "{}", backend.name());
            prop_assert_eq!((mask >> j) & 1 == 1, !scalar.is_sorted(), "{}", backend.name());
        }
    }

    /// Outputs of a comparator network are always a permutation of inputs
    /// (checked on integer slices), and prepending or appending a full
    /// sorter makes any network sort.
    #[test]
    fn composition_with_a_sorter_sorts(net in arb_network(8, 20), s in arb_bitstring(8)) {
        let composed = net.then(&odd_even_merge_sort(8));
        prop_assert!(composed.apply_bits(&s).is_sorted());
        let mut values: Vec<u8> = s.to_vec();
        let out = net.apply_vec(&values);
        values.sort_unstable();
        let mut out_sorted = out.clone();
        out_sorted.sort_unstable();
        prop_assert_eq!(out_sorted, values);
    }

    /// The greedy layering never places two comparators sharing a line in
    /// the same layer, and the bit-parallel count of unsorted outputs
    /// matches a scalar count over every input.
    #[test]
    fn layers_are_conflict_free_and_counters_agree(
        net in arb_network(8, 24),
        backend in arb_backend(),
    ) {
        for layer in net.layers() {
            for (i, a) in layer.iter().enumerate() {
                for b in &layer[i + 1..] {
                    prop_assert!(!a.conflicts_with(b));
                }
            }
        }
        let scalar = BitString::all(8)
            .filter(|s| !net.apply_bits(s).is_sorted())
            .count() as u64;
        prop_assert_eq!(
            count_unsorted_outputs(&net, backend),
            Ok(scalar),
            "{}", backend.name()
        );
    }

    /// Compact-notation round trip.
    #[test]
    fn compact_notation_roundtrip(net in arb_network(9, 18)) {
        let parsed = Network::parse_compact(9, &net.to_compact_string()).unwrap();
        prop_assert_eq!(parsed, net);
    }

    /// Standardisation is idempotent and preserves size.
    #[test]
    fn standardisation_is_idempotent(net in arb_network(8, 20)) {
        let std1 = net.standardised();
        prop_assert!(std1.is_standard());
        prop_assert_eq!(std1.size(), net.size());
        prop_assert_eq!(std1.standardised(), std1.clone());
    }
}
