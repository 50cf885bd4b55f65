//! The one test-set-driven verifier, [`try_verify_on`].
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
//! Each cell of this table is a stream of packed 0/1 words and the closed
//! form above, asked one of the two [`Check`]s: "every output sorted"
//! (sorting and merging) or "the first `k` outputs match a reference
//! sorter's" (selection).  The exhaustive sorting and selection cells run
//! [`bitparallel`]'s range sweeps; every other cell streams its source
//! through [`lanes::sweep_find`].  The minimal 0/1 cells stream
//! [`sorting::binary_source`], [`selector::binary_source`] and
//! [`merging::binary_source`].  A permutation cell streams the threshold
//! strings of its test set's permutations: a network handles a
//! permutation iff it handles every threshold string of its cover
//! (thresholding commutes with every comparator), so `tests_run` counts
//! permutations and the witness is the first failing threshold string of
//! the first failing permutation.
//!
//! All three strategies are sound and complete for standard networks; the
//! experiment harness (E9) measures their relative cost.

use serde::{Deserialize, Serialize};

use sortnet_combinat::binomial::{
    merging_testset_size_binary, merging_testset_size_permutation, selector_testset_size_binary,
    selector_testset_size_permutation, sorting_testset_size_binary,
    sorting_testset_size_permutation,
};
use sortnet_combinat::bitstrings::half_sorted_words;
use sortnet_combinat::{BitString, ChannelPack, ChannelVec};
use sortnet_network::bitparallel;
use sortnet_network::error::{self, EngineError};
use sortnet_network::lanes::{
    self, Backend, BlockSource, Check, SliceSource, Sweep, SweepOutcome, WordSource, DEFAULT_WIDTH,
};
use sortnet_network::{BudgetMeter, Network};

use crate::{bnk, criteria, merging, selector, sorting};

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

/// Verifies `property` for `network` with the chosen `strategy` on the
/// lane-ops `backend`.  Every backend produces an identical [`Report`].
///
/// Checked up front: more than 64 lines is
/// [`EngineError::OversizedNetwork`], the [`Strategy::Exhaustive`] `2^n`
/// sweep is refused for `n ≥ 32` ([`EngineError::SweepTooLarge`] — use a
/// minimal test set instead), a selector `k > n` is
/// [`EngineError::IndexOutOfRange`], and a merger on an odd `n` is
/// [`EngineError::OddMerger`].  The sorting and selection test sets are
/// enumerated only so far: [`Strategy::MinimalBinary`] for `n ≥ 26` and
/// [`Strategy::Permutation`] for `n > 20` are [`EngineError::TooLarge`].
///
/// # Errors
/// As listed above.
pub fn try_verify_on(
    network: &Network,
    property: Property,
    strategy: Strategy,
    backend: Backend,
) -> Result<Report, EngineError> {
    let n = network.lines();
    error::ensure_packable::<BitString>(n)?;
    if strategy == Strategy::Exhaustive && !matches!(property, Property::Merger) {
        error::ensure_sweepable(n)?;
    }
    match property {
        Property::Selector { k } if k > n => {
            return Err(EngineError::IndexOutOfRange {
                what: "selector k",
                index: k,
                limit: n + 1,
            });
        }
        Property::Merger if n % 2 == 1 => return Err(EngineError::OddMerger { lines: n }),
        _ => {}
    }
    if property != Property::Merger {
        match strategy {
            Strategy::MinimalBinary if n > criteria::MAX_ENUMERATED_LINES => {
                return Err(EngineError::TooLarge {
                    what: "minimal 0/1 test set",
                });
            }
            Strategy::Permutation if n > bnk::MAX_LINES => {
                return Err(EngineError::TooLarge {
                    what: "permutation test set",
                });
            }
            _ => {}
        }
    }
    let m = n as u64;
    // `None` is the exhaustive `2^n` sweep of `bitparallel`, which fans out
    // over the rayon pool on large `n`.
    let (source, tests_run): (Option<Box<dyn BlockSource<DEFAULT_WIDTH>>>, u128) =
        match (property, strategy) {
            (Property::Sorter | Property::Selector { .. }, Strategy::Exhaustive) => (None, 1 << n),
            (Property::Sorter, Strategy::MinimalBinary) => (
                Some(Box::new(sorting::binary_source(n))),
                sorting_testset_size_binary(m),
            ),
            (Property::Sorter, Strategy::Permutation) => (
                Some(Box::new(WordSource::new(n, bnk::cover_words(n, n / 2)))),
                sorting_testset_size_permutation(m),
            ),
            (Property::Selector { k }, Strategy::MinimalBinary) => (
                Some(Box::new(selector::binary_source(n, k))),
                selector_testset_size_binary(m, k as u64),
            ),
            (Property::Selector { k }, Strategy::Permutation) => (
                Some(Box::new(WordSource::new(n, bnk::cover_words(n, k)))),
                selector_testset_size_permutation(m, k as u64),
            ),
            (Property::Merger, Strategy::Exhaustive) => (
                Some(Box::new(WordSource::new(n, half_sorted_words(n)))),
                u128::from((m / 2 + 1).pow(2)),
            ),
            (Property::Merger, Strategy::MinimalBinary) => (
                Some(Box::new(merging::binary_source(n))),
                merging_testset_size_binary(m),
            ),
            (Property::Merger, Strategy::Permutation) => (
                Some(Box::new(WordSource::new(n, merging::cover_words(n)))),
                merging_testset_size_permutation(m),
            ),
        };
    let sweep = Sweep {
        backend,
        ..Sweep::default()
    };
    let witness = match (source, property) {
        (None, Property::Selector { k }) => {
            bitparallel::find_selector_violation(network, k, &sweep)?.into_value()
        }
        (None, _) => bitparallel::find_unsorted_input(network, &sweep)?.into_value(),
        (Some(source), property) => {
            let check = match property {
                Property::Selector { k } => Check::selected(network, k),
                Property::Sorter | Property::Merger => Check::Sorted(network),
            };
            let mut meter = BudgetMeter::unlimited();
            lanes::sweep_find(source, &check, backend, &mut meter)?.witness
        }
    };
    Ok(Report {
        property,
        strategy,
        passed: witness.is_none(),
        tests_run: tests_run as usize,
        witness,
    })
}

/// [`try_verify_on`] unwrapped: the same report on every runnable backend.
#[cfg(test)]
pub(crate) fn verified(network: &Network, property: Property, strategy: Strategy) -> Report {
    let backends = Backend::runnable();
    let report = try_verify_on(network, property, strategy, backends[0]).unwrap();
    for &backend in &backends[1..] {
        assert_eq!(
            try_verify_on(network, property, strategy, backend).unwrap(),
            report,
            "{}",
            backend.name()
        );
    }
    report
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
/// [channel-line cap](sortnet_network::error::MAX_CHANNEL_LINES) is
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
    error::ensure_packable::<ChannelVec>(n)?;
    for test in tests {
        if test.len() != n {
            return Err(EngineError::InputLengthMismatch {
                expected: n,
                actual: test.len(),
            });
        }
    }
    lanes::sweep_find::<DEFAULT_WIDTH, P, _>(
        SliceSource::new(n, tests),
        &Check::Sorted(network),
        backend,
        &mut BudgetMeter::unlimited(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};
    use sortnet_network::builders::selection::pruned_selector;
    use sortnet_network::random::NetworkSampler;

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
            assert!(verified(&sorter, Property::Sorter, strategy).passed);
            assert!(verified(&sorter, Property::Merger, strategy).passed);
            assert!(verified(&sorter, Property::Selector { k: 3 }, strategy).passed);
            assert!(verified(&merger, Property::Merger, strategy).passed);
            assert!(!verified(&merger, Property::Sorter, strategy).passed);
            assert!(verified(&selector3, Property::Selector { k: 3 }, strategy).passed);
            assert!(!verified(&selector3, Property::Sorter, strategy).passed);
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
                    .map(|&s| verified(&net, property, s).passed)
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
            verified(&net, Property::Sorter, Strategy::MinimalBinary).tests_run as u128,
            sortnet_combinat::binomial::sorting_testset_size_binary(n)
        );
        assert_eq!(
            verified(&net, Property::Sorter, Strategy::Permutation).tests_run as u128,
            sortnet_combinat::binomial::sorting_testset_size_permutation(n)
        );
        assert_eq!(
            verified(&net, Property::Selector { k: 2 }, Strategy::MinimalBinary).tests_run as u128,
            sortnet_combinat::binomial::selector_testset_size_binary(n, 2)
        );
        assert_eq!(
            verified(&net, Property::Merger, Strategy::MinimalBinary).tests_run as u128,
            sortnet_combinat::binomial::merging_testset_size_binary(n)
        );
        assert_eq!(
            verified(&net, Property::Merger, Strategy::Permutation).tests_run as u128,
            sortnet_combinat::binomial::merging_testset_size_permutation(n)
        );
    }

    #[test]
    fn witnesses_are_reported_and_genuine() {
        let bad = Network::empty(6);
        for strategy in STRATEGIES {
            let report = verified(&bad, Property::Sorter, strategy);
            assert!(!report.passed);
            let w = report.witness.expect("failure must carry a witness");
            assert!(!bad.apply_bits(&w).is_sorted());
        }
    }

    #[test]
    fn try_verify_agrees_with_verify_on_well_formed_inputs() {
        // Every runnable backend produces the report of the scalar one.
        let net = odd_even_merge_sort(8);
        for strategy in STRATEGIES {
            for property in [
                Property::Sorter,
                Property::Selector { k: 3 },
                Property::Merger,
            ] {
                let scalar = try_verify_on(&net, property, strategy, Backend::Scalar).unwrap();
                for backend in Backend::runnable() {
                    assert_eq!(
                        try_verify_on(&net, property, strategy, backend).unwrap(),
                        scalar,
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
            try_verify_on(
                &wide,
                Property::Sorter,
                Strategy::Exhaustive,
                Backend::active()
            )
            .unwrap_err(),
            EngineError::SweepTooLarge { lines: 33 }
        );
        assert_eq!(
            try_verify_on(
                &wide,
                Property::Selector { k: 2 },
                Strategy::Exhaustive,
                Backend::active()
            )
            .unwrap_err(),
            EngineError::SweepTooLarge { lines: 33 }
        );
        let net = odd_even_merge_sort(8);
        assert_eq!(
            try_verify_on(
                &net,
                Property::Selector { k: 9 },
                Strategy::MinimalBinary,
                Backend::active()
            )
            .unwrap_err(),
            EngineError::IndexOutOfRange {
                what: "selector k",
                index: 9,
                limit: 9,
            }
        );
        // The test sets past their enumeration limits refuse instead of
        // panicking; the merger's sets are polynomial and stay admitted.
        let refusals = [
            (
                21,
                Property::Sorter,
                Strategy::Permutation,
                "permutation test set",
            ),
            (
                21,
                Property::Selector { k: 2 },
                Strategy::Permutation,
                "permutation test set",
            ),
            (
                26,
                Property::Sorter,
                Strategy::MinimalBinary,
                "minimal 0/1 test set",
            ),
            (
                30,
                Property::Selector { k: 2 },
                Strategy::MinimalBinary,
                "minimal 0/1 test set",
            ),
        ];
        for (n, property, strategy, what) in refusals {
            assert_eq!(
                try_verify_on(&Network::empty(n), property, strategy, Backend::active())
                    .unwrap_err(),
                EngineError::TooLarge { what },
                "n = {n} {property:?} {strategy:?}"
            );
        }
        for (n, strategy) in [(20, Strategy::Permutation), (25, Strategy::MinimalBinary)] {
            assert!(
                !try_verify_on(
                    &Network::empty(n),
                    Property::Selector { k: 1 },
                    strategy,
                    Backend::active()
                )
                .unwrap()
                .passed
            );
        }
        for strategy in [Strategy::MinimalBinary, Strategy::Permutation] {
            let report = try_verify_on(
                &Network::empty(64),
                Property::Merger,
                strategy,
                Backend::active(),
            )
            .unwrap();
            assert!(!report.passed);
        }
        // A merger needs two equal halves: an odd line count is refused
        // up front by every strategy, before any test-set generator runs.
        for n in [1, 5, 63] {
            for strategy in STRATEGIES {
                assert_eq!(
                    try_verify_on(
                        &Network::empty(n),
                        Property::Merger,
                        strategy,
                        Backend::Scalar
                    )
                    .unwrap_err(),
                    EngineError::OddMerger { lines: n },
                    "n = {n} {strategy:?}"
                );
            }
        }
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
        let broken = Network::from_pairs(n, &[(0, 1)]);
        for backend in Backend::runnable() {
            let outcome = try_spot_check_sorter_packed_on(&sorter, &tests, backend).unwrap();
            assert_eq!(outcome.tests_run, tests.len() as u64);
            assert!(outcome.witness.is_none(), "{:?}", outcome.witness);
            // A single comparator over 96 lines is nowhere near a sorter;
            // the witness must be genuine (its fault-free output is
            // unsorted).
            let outcome = try_spot_check_sorter_packed_on(&broken, &tests, backend).unwrap();
            let witness = outcome.witness.expect("a non-sorter must yield a witness");
            let mut block = WideBlock::<1>::from_strings(n, std::slice::from_ref(&witness));
            block.run_with(Backend::Scalar, &broken);
            assert!(
                !block.extract::<ChannelVec>(0).is_sorted(),
                "{}",
                backend.name()
            );
        }
        // Guards: wrong-length tests and over-cap networks refuse cleanly.
        assert_eq!(
            try_spot_check_sorter_packed_on(&sorter, &[ChannelVec::zeros(65)], Backend::active())
                .unwrap_err(),
            EngineError::InputLengthMismatch {
                expected: 96,
                actual: 65
            }
        );
    }
}
