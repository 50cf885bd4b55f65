//! A unified, test-set-driven verification front end.
//!
//! The decision problems of the paper's introduction — "is this network a
//! sorter / a (k, n)-selector / a merging network?" — are answered here by
//! three interchangeable strategies whose costs are exactly the quantities
//! the theorems bound:
//!
//! | strategy | #tests for sorting | #tests for (k,n)-selection | #tests for merging |
//! |---|---|---|---|
//! | [`Strategy::Exhaustive`] | `2^n` | `2^n` | `(n/2+1)²` |
//! | [`Strategy::MinimalBinary`] | `2^n − n − 1` | `Σ_{i≤k}C(n,i) − k − 1` | `n²/4` |
//! | [`Strategy::Permutation`] | `C(n,⌊n/2⌋) − 1` | `C(n,min(k,⌊n/2⌋)) − 1` | `n/2` |
//!
//! All three are sound and complete for standard networks; the experiment
//! harness (E9) measures their relative cost.

use serde::{Deserialize, Serialize};

use sortnet_combinat::{channel_words, BitString, ChannelPack};
use sortnet_network::bitparallel;
use sortnet_network::error::{self, EngineError};
use sortnet_network::lanes::{self, Backend, SliceSource, Sweep, SweepOutcome, DEFAULT_WIDTH};
use sortnet_network::properties;
use sortnet_network::{BudgetMeter, Network};

use crate::{merging, selector, sorting};

/// Which property to verify.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Property {
    /// Full sorting (Theorem 2.2).
    Sorter,
    /// `(k, n)`-selection (Theorem 2.4).
    Selector {
        /// Number of leading outputs that must be correct.
        k: usize,
    },
    /// `(n/2, n/2)`-merging (Theorem 2.5).
    Merger,
}

/// Which family of test inputs to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Strategy {
    /// All `2^n` binary inputs (the zero–one principle baseline).
    Exhaustive,
    /// The paper's minimum 0/1 test set for the property.
    #[default]
    MinimalBinary,
    /// The paper's optimal permutation test set for the property.
    Permutation,
}

/// Outcome of a verification run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// The property that was checked.
    pub property: Property,
    /// The strategy that was used.
    pub strategy: Strategy,
    /// `true` when the network has the property.
    pub passed: bool,
    /// Number of test inputs evaluated (the quantity the paper bounds).
    pub tests_run: usize,
    /// A binary input witnessing failure, when `passed` is false.
    pub witness: Option<BitString>,
}

/// Verifies `property` for `network` with the chosen `strategy`, on the
/// runtime-detected lane-ops backend ([`Backend::active`]).
///
/// Checked up front: more than 64 lines is
/// [`EngineError::OversizedNetwork`], the [`Strategy::Exhaustive`] `2^n`
/// sweep is refused for `n ≥ 32` ([`EngineError::SweepTooLarge`] — use a
/// minimal test set instead), and a selector `k > n` is
/// [`EngineError::IndexOutOfRange`].  Merger shape constraints (even
/// `n`, power-of-two layouts in some builders) stay panicking: they are
/// construction-time contracts of the specific test-set generators, not
/// sweep-capacity limits — see `docs/ERRORS.md`.
///
/// # Errors
/// As listed above.
pub fn try_verify(
    network: &Network,
    property: Property,
    strategy: Strategy,
) -> Result<Report, EngineError> {
    try_verify_on(network, property, strategy, Backend::active())
}

/// [`try_verify`] pinned to an explicit lane-ops [`Backend`].
///
/// The backend reaches every 0/1 sweep (exhaustive and minimal-binary for
/// all three properties); the permutation strategies evaluate scalar
/// permutations, so the backend does not apply to them.  Every backend
/// produces an identical [`Report`].
///
/// # Errors
/// As for [`try_verify`].
pub fn try_verify_on(
    network: &Network,
    property: Property,
    strategy: Strategy,
    backend: Backend,
) -> Result<Report, EngineError> {
    let n = network.lines();
    error::ensure_word_packable(n)?;
    if strategy == Strategy::Exhaustive && !matches!(property, Property::Merger) {
        error::ensure_sweepable(n)?;
    }
    if let Property::Selector { k } = property {
        if k > n {
            return Err(EngineError::IndexOutOfRange {
                what: "selector k",
                index: k,
                limit: n + 1,
            });
        }
    }
    let sweep = Sweep {
        backend,
        ..Sweep::default()
    };
    let (passed, tests_run, witness) = match (property, strategy) {
        (Property::Sorter, Strategy::Exhaustive) => {
            let witness = bitparallel::find_unsorted_input(network, &sweep)?.into_value();
            (witness.is_none(), 1usize << n, witness)
        }
        (Property::Sorter, Strategy::MinimalBinary) => {
            let v = sorting::verify_sorter_binary_on(network, backend);
            (v.passed, v.tests_run, v.witness)
        }
        (Property::Sorter, Strategy::Permutation) => {
            let v = sorting::verify_sorter_permutations(network);
            (v.passed, v.tests_run, v.witness)
        }
        (Property::Selector { k }, Strategy::Exhaustive) => {
            // Bit-parallel block sweep; its witness is the lowest failing
            // word, matching what a scalar scan would report first.
            let witness = bitparallel::find_selector_violation(network, k, &sweep)?.into_value();
            (witness.is_none(), 1usize << n, witness)
        }
        (Property::Selector { k }, Strategy::MinimalBinary) => {
            let v = selector::verify_selector_binary_on(network, k, backend);
            (v.passed, v.tests_run, v.witness)
        }
        (Property::Selector { k }, Strategy::Permutation) => {
            let v = selector::verify_selector_permutations(network, k);
            (v.passed, v.tests_run, v.witness)
        }
        (Property::Merger, Strategy::Exhaustive) => {
            // One streamed block sweep over all (half+1)² merge inputs —
            // verdict and witness in the same pass, nothing materialised.
            let witness = properties::find_merger_violation(network, backend);
            let half = n / 2;
            (witness.is_none(), (half + 1) * (half + 1), witness)
        }
        (Property::Merger, Strategy::MinimalBinary) => {
            let v = merging::verify_merger_binary_on(network, backend);
            (v.passed, v.tests_run, v.witness)
        }
        (Property::Merger, Strategy::Permutation) => {
            let v = merging::verify_merger_permutations(network);
            (v.passed, v.tests_run, v.witness)
        }
    };
    Ok(Report {
        property,
        strategy,
        passed,
        tests_run,
        witness,
    })
}

/// Spot-checks the sorting property over an explicitly supplied packed
/// 0/1 test family — the `n > 64` verification entry.
///
/// The paper's complete test sets only fit under the 64-line wall; past
/// it the exhaustive and minimal-binary families (`2^n` and
/// `2^n − n − 1` tests) are out of reach, and verification degrades to
/// *spot-checking*: sound for rejection (a returned witness is a genuine
/// unsorted output — the zero–one principle still applies to each test)
/// but not complete.  The sweep runs on the multi-word channel-lane
/// engine, so any `n` up to the
/// [channel-line cap](sortnet_network::error::max_channel_lines) is
/// admitted; with `P = BitString` it spot-checks `n ≤ 64` networks with
/// the identical engine.
///
/// # Errors
/// [`EngineError::OversizedNetwork`] past the channel-line cap, and
/// [`EngineError::InputLengthMismatch`] for a test of the wrong length.
pub fn try_spot_check_sorter_packed_on<P: ChannelPack>(
    network: &Network,
    tests: &[P],
    backend: Backend,
) -> Result<SweepOutcome<P>, EngineError> {
    let n = network.lines();
    error::ensure_channel_packable(n, channel_words(n))?;
    for test in tests {
        if test.len() != n {
            return Err(EngineError::InputLengthMismatch {
                expected: n,
                actual: test.len(),
            });
        }
    }
    lanes::sweep_network::<DEFAULT_WIDTH, P, _>(
        SliceSource::new(n, tests),
        network,
        backend,
        &mut BudgetMeter::unlimited(),
    )
}

/// [`try_spot_check_sorter_packed_on`] on [`Backend::active`].
///
/// # Errors
/// As for [`try_spot_check_sorter_packed_on`].
pub fn try_spot_check_sorter_packed<P: ChannelPack>(
    network: &Network,
    tests: &[P],
) -> Result<SweepOutcome<P>, EngineError> {
    try_spot_check_sorter_packed_on(network, tests, Backend::active())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};
    use sortnet_network::builders::selection::pruned_selector;
    use sortnet_network::random::NetworkSampler;

    /// A well-formed verification, unwrapped.
    fn verify(network: &Network, property: Property, strategy: Strategy) -> Report {
        try_verify(network, property, strategy).unwrap()
    }

    const STRATEGIES: [Strategy; 3] = [
        Strategy::Exhaustive,
        Strategy::MinimalBinary,
        Strategy::Permutation,
    ];

    #[test]
    fn all_strategies_agree_on_structured_networks() {
        let n = 8;
        let sorter = odd_even_merge_sort(n);
        let merger = half_half_merger(n);
        let selector3 = pruned_selector(n, 3);
        for strategy in STRATEGIES {
            assert!(verify(&sorter, Property::Sorter, strategy).passed);
            assert!(verify(&sorter, Property::Merger, strategy).passed);
            assert!(verify(&sorter, Property::Selector { k: 3 }, strategy).passed);
            assert!(verify(&merger, Property::Merger, strategy).passed);
            assert!(!verify(&merger, Property::Sorter, strategy).passed);
            assert!(verify(&selector3, Property::Selector { k: 3 }, strategy).passed);
            assert!(!verify(&selector3, Property::Sorter, strategy).passed);
        }
    }

    #[test]
    fn all_strategies_agree_on_random_networks() {
        let mut sampler = NetworkSampler::new(17);
        for _ in 0..10 {
            let net = sampler.network(6, 8);
            for property in [
                Property::Sorter,
                Property::Selector { k: 2 },
                Property::Merger,
            ] {
                let verdicts: Vec<bool> = STRATEGIES
                    .iter()
                    .map(|&s| verify(&net, property, s).passed)
                    .collect();
                assert!(
                    verdicts.windows(2).all(|w| w[0] == w[1]),
                    "strategies disagree on {net} for {property:?}: {verdicts:?}"
                );
            }
        }
    }

    #[test]
    fn tests_run_matches_the_paper_bounds() {
        let n = 8u64;
        let net = odd_even_merge_sort(n as usize);
        assert_eq!(
            verify(&net, Property::Sorter, Strategy::MinimalBinary).tests_run as u128,
            sortnet_combinat::binomial::sorting_testset_size_binary(n)
        );
        assert_eq!(
            verify(&net, Property::Sorter, Strategy::Permutation).tests_run as u128,
            sortnet_combinat::binomial::sorting_testset_size_permutation(n)
        );
        assert_eq!(
            verify(&net, Property::Selector { k: 2 }, Strategy::MinimalBinary).tests_run as u128,
            sortnet_combinat::binomial::selector_testset_size_binary(n, 2)
        );
        assert_eq!(
            verify(&net, Property::Merger, Strategy::MinimalBinary).tests_run as u128,
            sortnet_combinat::binomial::merging_testset_size_binary(n)
        );
        assert_eq!(
            verify(&net, Property::Merger, Strategy::Permutation).tests_run as u128,
            sortnet_combinat::binomial::merging_testset_size_permutation(n)
        );
    }

    #[test]
    fn witnesses_are_reported_and_genuine() {
        let bad = Network::empty(6);
        for strategy in STRATEGIES {
            let report = verify(&bad, Property::Sorter, strategy);
            assert!(!report.passed);
            let w = report.witness.expect("failure must carry a witness");
            assert!(!bad.apply_bits(&w).is_sorted());
        }
    }

    #[test]
    fn try_verify_agrees_with_verify_on_well_formed_inputs() {
        // Every runnable backend produces the report of the active one.
        let net = odd_even_merge_sort(8);
        for strategy in STRATEGIES {
            for property in [
                Property::Sorter,
                Property::Selector { k: 3 },
                Property::Merger,
            ] {
                let active = try_verify(&net, property, strategy).unwrap();
                for backend in Backend::runnable() {
                    assert_eq!(
                        try_verify_on(&net, property, strategy, backend).unwrap(),
                        active,
                        "{backend:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn try_verify_refuses_unrunnable_parameters_with_typed_errors() {
        let wide = Network::empty(33);
        assert_eq!(
            try_verify(&wide, Property::Sorter, Strategy::Exhaustive).unwrap_err(),
            EngineError::SweepTooLarge { lines: 33 }
        );
        assert_eq!(
            try_verify(&wide, Property::Selector { k: 2 }, Strategy::Exhaustive).unwrap_err(),
            EngineError::SweepTooLarge { lines: 33 }
        );
        let net = odd_even_merge_sort(8);
        assert_eq!(
            try_verify(&net, Property::Selector { k: 9 }, Strategy::MinimalBinary).unwrap_err(),
            EngineError::IndexOutOfRange {
                what: "selector k",
                index: 9,
                limit: 9,
            }
        );
    }

    #[test]
    fn packed_spot_check_crosses_the_64_line_wall() {
        use sortnet_combinat::ChannelVec;
        use sortnet_network::lanes::WideBlock;
        let n = 96usize;
        let sorter = odd_even_merge_sort(n);
        let tests: Vec<ChannelVec> = vec![
            ChannelVec::from_fn(n, |i| i % 2 == 1),
            ChannelVec::from_fn(n, |i| i == 0 || i == 65),
            ChannelVec::from_fn(n, |i| i < 70),
            ChannelVec::ones(n),
        ];
        let outcome = try_spot_check_sorter_packed(&sorter, &tests).unwrap();
        assert_eq!(outcome.tests_run, tests.len() as u64);
        assert!(outcome.witness.is_none(), "{:?}", outcome.witness);
        // A single comparator over 96 lines is nowhere near a sorter; the
        // witness must be genuine (its fault-free output is unsorted).
        let broken = Network::from_pairs(n, &[(0, 1)]);
        let outcome = try_spot_check_sorter_packed(&broken, &tests).unwrap();
        let witness = outcome.witness.expect("a non-sorter must yield a witness");
        let mut block = WideBlock::<1>::from_strings(n, std::slice::from_ref(&witness));
        block.run_with(Backend::active(), &broken);
        assert!(!block.extract_packed::<ChannelVec>(0).is_sorted());
        // Guards: wrong-length tests and over-cap networks refuse cleanly.
        assert_eq!(
            try_spot_check_sorter_packed(&sorter, &[ChannelVec::zeros(65)]).unwrap_err(),
            EngineError::InputLengthMismatch {
                expected: 96,
                actual: 65
            }
        );
    }
}
