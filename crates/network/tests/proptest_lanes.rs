//! Property-based cross-check: width-generic [`WideBlock`] sweeps and the
//! three exhaustive operations must agree exactly with scalar evaluation
//! on random networks, for every lane width and backend, and the streaming
//! block sources must reproduce their families bit for bit.

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_network::bitparallel::{
    count_unsorted_outputs, find_selector_violation, find_unsorted_input,
};
use sortnet_network::lanes::{
    self, Backend, BlockSource, IterSource, LaneWidth, RangeSource, Sweep, WideBlock,
};
use sortnet_network::properties::selects_correctly;
use sortnet_network::{Budgeted, Comparator, Network, SweepBudget};

const N: usize = 9;

/// Strategy: a random standard network on [`N`] lines with up to
/// `max_size` comparators.
fn arb_network(max_size: usize) -> impl Strategy<Value = Network> {
    prop::collection::vec((0..N, 0..N), 1..=max_size).prop_map(|pairs| {
        let mut comparators: Vec<Comparator> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Comparator::new(a, b))
            .collect();
        if comparators.is_empty() {
            comparators.push(Comparator::new(0, 1));
        }
        Network::from_comparators(N, comparators)
    })
}

/// Strategy: a batch of random test vectors on [`N`] lines, long enough to
/// span multiple words of every width under test.
fn arb_tests() -> impl Strategy<Value = Vec<BitString>> {
    prop::collection::vec(0u64..(1u64 << N), 1..=300).prop_map(|words| {
        words
            .into_iter()
            .map(|w| BitString::from_word(w, N))
            .collect()
    })
}

/// Runs `tests` through `net` in `W`-wide blocks, on every runnable
/// lane-ops backend, and checks every output and every unsorted-mask bit
/// against the scalar evaluator.
fn check_width<const W: usize>(net: &Network, tests: &[BitString]) {
    for backend in Backend::runnable() {
        for chunk in tests.chunks(WideBlock::<W>::capacity() as usize) {
            let mut block = WideBlock::<W>::from_strings(N, chunk);
            block.run_with(backend, net);
            let masks = block.unsorted_masks_with(backend);
            for (j, input) in chunk.iter().enumerate() {
                let scalar = net.apply_bits(input);
                assert_eq!(
                    block.extract(j as u32),
                    scalar,
                    "W={W} backend={} input {input} output mismatch",
                    backend.name()
                );
                assert_eq!(
                    (masks[j / 64] >> (j % 64)) & 1 == 1,
                    !scalar.is_sorted(),
                    "W={W} backend={} input {input} mask mismatch",
                    backend.name()
                );
            }
        }
    }
}

/// Checks the three exhaustive operations under `sweep` against scalar
/// [`Network::apply_bits`] over the inputs the sweep commits: all `2^N`
/// when unbudgeted, the first `max_blocks × W × 64` (in word order) when
/// capped.  A witness inside the committed prefix completes the sweep; a
/// cap short of the whole sweep otherwise leaves it partial.
fn check_exhaustive(net: &Network, k: usize, sweep: &Sweep) {
    let total = 1u64 << N;
    let per_block = u64::from(sweep.width.vectors_per_block());
    let blocks = total.div_ceil(per_block);
    let capped = sweep.budget.max_blocks.is_some_and(|max| max < blocks);
    let committed = sweep
        .budget
        .max_blocks
        .map_or(total, |max| (max.saturating_mul(per_block)).min(total));
    let prefix = || BitString::all(N).take(committed as usize);
    let label = format!(
        "{} {:?} k={k} {:?}",
        sweep.backend.name(),
        sweep.width,
        sweep.budget.max_blocks
    );
    // (complete, value) of a first-violation search whose scalar answer
    // over the committed prefix is `first`.
    let expected = |first: Option<BitString>| (first.is_some() || !capped, first);
    let observed =
        |outcome: Budgeted<Option<BitString>>| (outcome.is_complete(), outcome.into_value());

    let first_unsorted = prefix().find(|s| !net.apply_bits(s).is_sorted());
    assert_eq!(
        observed(find_unsorted_input(net, sweep).unwrap()),
        expected(first_unsorted),
        "find {label}"
    );

    // k = 0 asks nothing of the outputs, so it is decided without a sweep.
    let misselected = prefix().find(|s| !selects_correctly(s, &net.apply_bits(s), k));
    assert_eq!(
        observed(find_selector_violation(net, k, sweep).unwrap()),
        if k == 0 {
            (true, None)
        } else {
            expected(misselected)
        },
        "selector {label}"
    );

    let count = count_unsorted_outputs(net, sweep).unwrap();
    assert_eq!(count.is_complete(), !capped, "count {label}");
    let unsorted = prefix().filter(|s| !net.apply_bits(s).is_sorted()).count() as u64;
    assert_eq!(count.into_value(), unsorted, "count {label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `WideBlock<W>` sweeps for W ∈ {1, 2, 4, 8, 16} — on every runnable
    /// lane-ops backend — agree exactly with scalar evaluation on random
    /// networks and random test batches.
    #[test]
    fn wide_blocks_agree_with_scalar_evaluation(
        net in arb_network(14),
        tests in arb_tests(),
    ) {
        check_width::<1>(&net, &tests);
        check_width::<2>(&net, &tests);
        check_width::<4>(&net, &tests);
        check_width::<8>(&net, &tests);
        check_width::<16>(&net, &tests);
    }

    /// The three exhaustive operations — first unsorted input, unsorted
    /// count, first selector violation — match the scalar definition on
    /// every runnable backend (scalar, portable, AVX2 where available) at
    /// every lane width, both on the unlimited path and on the metered
    /// sequential one.
    #[test]
    fn exhaustive_sweeps_are_backend_independent(net in arb_network(14), k in 0..=N) {
        for backend in Backend::runnable() {
            for width in LaneWidth::ALL {
                for budget in [SweepBudget::unlimited(), SweepBudget::unlimited().with_max_blocks(u64::MAX)] {
                    check_exhaustive(&net, k, &Sweep { backend, width, budget });
                }
            }
        }
    }

    /// Under a capped block budget every width and backend commits an
    /// exact prefix: the partial answers are the scalar answers over the
    /// first `max_blocks × W × 64` inputs.
    #[test]
    fn exhaustive_sweeps_are_width_independent(net in arb_network(14), k in 0..=N, max_blocks in 0u64..9) {
        for backend in Backend::runnable() {
            for width in LaneWidth::ALL {
                let budget = SweepBudget::unlimited().with_max_blocks(max_blocks);
                check_exhaustive(&net, k, &Sweep { backend, width, budget });
            }
        }
    }

    /// `RangeSource` yields bit-for-bit the same vector sequence as the
    /// scalar enumeration, at every width.
    #[test]
    fn range_source_matches_scalar_enumeration(n in 1usize..11) {
        let expected: Vec<BitString> = BitString::all(n).collect();
        prop_assert_eq!(
            lanes::collect_packed::<1, BitString, _>(RangeSource::exhaustive(n)),
            expected.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<2, BitString, _>(RangeSource::exhaustive(n)),
            expected.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<4, BitString, _>(RangeSource::exhaustive(n)),
            expected
        );
    }

    /// `IterSource` is faithful to an arbitrary underlying iterator:
    /// streaming through blocks of any width loses, duplicates and reorders
    /// nothing.
    #[test]
    fn iter_source_round_trips_random_batches(tests in arb_tests()) {
        prop_assert_eq!(
            lanes::collect_packed::<1, BitString, _>(IterSource::new(N, tests.clone())),
            tests.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<4, BitString, _>(IterSource::new(N, tests.clone())),
            tests.clone()
        );
        // Block counts respect the width's capacity.
        let mut source: IterSource<_> = IterSource::new(N, tests.clone());
        let mut block = WideBlock::<2>::zeroed(N);
        let mut total = 0u64;
        while BlockSource::<2>::next_block(&mut source, &mut block) {
            prop_assert!(block.count() >= 1);
            prop_assert!(block.count() <= WideBlock::<2>::capacity());
            total += u64::from(block.count());
        }
        prop_assert_eq!(total, tests.len() as u64);
    }
}
