//! Property-based cross-check: width-generic [`WideBlock`] sweeps, the
//! three exhaustive operations and the metered exhaustive block loop must
//! agree exactly with scalar evaluation on random networks, for every
//! lane width and backend, and the streaming block sources must reproduce
//! their families bit for bit.

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_network::bitparallel::{
    count_unsorted_outputs, find_selector_violation, find_unsorted_input,
};
use sortnet_network::lanes::{
    self, Backend, BlockSource, Check, IterSource, RangeSource, WideBlock,
};
use sortnet_network::properties::selects_correctly;
use sortnet_network::{BudgetMeter, Comparator, Network, SweepBudget};

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
                    block.extract::<BitString>(j as u32),
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

/// Checks the three exhaustive operations on `backend` against scalar
/// [`Network::apply_bits`] over all `2^N` inputs.
fn check_exhaustive(net: &Network, k: usize, backend: Backend) {
    let label = format!("{} k={k}", backend.name());
    let first_unsorted = BitString::all(N).find(|s| !net.apply_bits(s).is_sorted());
    assert_eq!(
        find_unsorted_input(net, backend),
        Ok(first_unsorted),
        "find {label}"
    );
    let misselected = BitString::all(N).find(|s| !selects_correctly(s, &net.apply_bits(s), k));
    assert_eq!(
        find_selector_violation(net, k, backend),
        Ok(misselected),
        "selector {label}"
    );
    let unsorted = BitString::all(N)
        .filter(|s| !net.apply_bits(s).is_sorted())
        .count() as u64;
    assert_eq!(
        count_unsorted_outputs(net, backend),
        Ok(unsorted),
        "count {label}"
    );
}

/// Checks the metered block loop over [`RangeSource::exhaustive`] at
/// width `W` on `backend`, capped at `max_blocks` blocks, against scalar
/// [`Network::apply_bits`] over the inputs it commits: the first
/// `max_blocks × W × 64` in word order.  A witness inside the committed
/// prefix completes the sweep, and the sweep has run every vector up to
/// the end of the witness's block; a cap short of the whole sweep
/// otherwise leaves it partial, having run exactly the prefix.
fn check_exhaustive_prefix<const W: usize>(
    net: &Network,
    k: usize,
    backend: Backend,
    max_blocks: u64,
) {
    let (total, per_block) = (1u64 << N, u64::from(WideBlock::<W>::capacity()));
    let capped = max_blocks < total.div_ceil(per_block);
    let committed = max_blocks.saturating_mul(per_block).min(total);
    let budget = SweepBudget::unlimited().with_max_blocks(max_blocks);
    let label = format!("{} W={W} k={k} max_blocks={max_blocks}", backend.name());
    let sorted = |s: &BitString| net.apply_bits(s).is_sorted();
    let selects = |s: &BitString| selects_correctly(s, &net.apply_bits(s), k);
    for (check, handles) in [
        (Check::Sorted(net), &sorted as &dyn Fn(&BitString) -> bool),
        (Check::selected(net, k), &selects),
    ] {
        let mut meter = BudgetMeter::new(&budget);
        let outcome = lanes::sweep_find::<W, BitString, _>(
            RangeSource::exhaustive(N),
            &check,
            backend,
            &mut meter,
        )
        .unwrap();
        let outcome = meter.finish(outcome);
        let first = BitString::all(N)
            .take(committed as usize)
            .enumerate()
            .find(|(_, s)| !handles(s));
        let run = first
            .as_ref()
            .map_or(committed, |&(j, _)| (j as u64 / per_block + 1) * per_block);
        assert_eq!(
            outcome.is_complete(),
            first.is_some() || !capped,
            "complete {check:?} {label}"
        );
        let outcome = outcome.into_value();
        assert_eq!(
            outcome.witness,
            first.map(|(_, s)| s),
            "witness {check:?} {label}"
        );
        assert_eq!(outcome.tests_run, run.min(total), "run {check:?} {label}");
    }
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
    /// every runnable backend (scalar, and AVX2 where available).
    #[test]
    fn exhaustive_sweeps_are_backend_independent(net in arb_network(14), k in 0..=N) {
        for backend in Backend::runnable() {
            check_exhaustive(&net, k, backend);
        }
    }

    /// Under a capped block budget the block loop over the exhaustive
    /// source commits an exact prefix at every width and backend: the
    /// partial answers are the scalar answers over the first
    /// `max_blocks × W × 64` inputs.
    #[test]
    fn exhaustive_sweeps_are_width_independent(net in arb_network(14), k in 0..=N, max_blocks in 0u64..9) {
        for backend in Backend::runnable() {
            check_exhaustive_prefix::<1>(&net, k, backend, max_blocks);
            check_exhaustive_prefix::<4>(&net, k, backend, max_blocks);
            check_exhaustive_prefix::<16>(&net, k, backend, max_blocks);
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
