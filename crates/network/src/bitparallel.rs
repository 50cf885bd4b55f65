//! Bit-parallel exhaustive sweeps over comparator networks.
//!
//! The zero–one principle makes "is this network a sorter?" an exhaustive
//! sweep over `2^n` binary vectors.  The sweeps here run on the
//! width-generic substrate of [`crate::lanes`]: a [`WideBlock<W>`] carries
//! `W × 64` input vectors in transposed (bit-sliced) form, so one pass over
//! the comparators evaluates `W × 64` vectors at once, and the exhaustive
//! family is *generated directly in block form* by counting patterns
//! ([`lanes::RangeSource`]) — no vector list is ever materialised.
//!
//! There are three operations — [`find_unsorted_input`],
//! [`count_unsorted_outputs`] and [`find_selector_violation`] — and each
//! takes a [`Sweep`]: the lane-ops [`Backend`] (how
//! the word kernels execute: scalar, portable-chunked or AVX2 — see
//! [`lanes::backend`]), the [`LaneWidth`] and the
//! [`SweepBudget`](crate::SweepBudget).  Each checks its inputs up front,
//! returns a typed [`EngineError`] instead of panicking, and answers with
//! a [`Budgeted`] value.  `W = 1` on the scalar backend reproduces the
//! original single-word sweep exactly; [`BitBlock`] is the `W = 1` block
//! type, kept as the interchange format with the fault-simulation engine.
//!
//! All three run on one private driver.  Sweeps are embarrassingly
//! parallel across blocks, so with an unlimited budget the driver
//! distributes block index ranges over the rayon thread pool (a real
//! `std::thread::scope`-backed pool in this workspace's shim).  Every call
//! spawns its scoped threads afresh, which costs more than a whole
//! single-threaded sweep up to about `n = 20`, so below `n = 22` lines, and
//! under any bounded budget (block-granular metering and the fan-out do not
//! compose), the driver streams the blocks through one reused block on the
//! calling thread instead.  The answer does not change: the parallel
//! witness search already returns the sequential (lowest-word) witness.

use std::ops::ControlFlow;

use rayon::prelude::*;

use sortnet_combinat::BitString;

use crate::budget::{BudgetMeter, Budgeted};
use crate::error::{self, EngineError};
use crate::lanes::{
    self, Backend, BlockSource, LaneWidth, RangeSource, SliceSource, Sweep, WideBlock,
};
use crate::network::Network;

/// Fewest lines at which an unbudgeted exhaustive sweep fans out over the
/// rayon pool; smaller sweeps run sequentially on the calling thread.
/// Each parallel call spawns scoped OS threads afresh.  Passing `W = 4`
/// sorter sweeps of Batcher sorters on a 2-vCPU x86_64 (AVX2) host,
/// fanned out vs on the calling thread, median µs:
///
/// | n | 8 | 12 | 16 | 20 | 21 | 22 | 24 |
/// |---|---|---|---|---|---|---|---|
/// | fanned out | 24 | 144 | 238 | 1 200 | 2 516 | 5 079 | 18 704 |
/// | calling thread | 0.2 | 4.2 | 86 | 1 101 | 3 905 | 8 028 | 20 777 |
///
/// `n = 21` flips between runs; from 22 lines on the pool wins.
const PARALLEL_MIN_LINES: usize = 22;

/// A block of up to 64 binary input vectors in transposed form: the
/// single-word (`W = 1`) instance of [`WideBlock`].
pub type BitBlock = WideBlock<1>;

/// Number of `W × 64`-vector blocks an exhaustive `2^n` sweep visits.
///
/// # Panics
/// Panics if `n ≥ 32` (a larger sweep would take > 4 G evaluations; callers
/// wanting larger `n` should use the test-set verifiers instead).
#[must_use]
pub fn sweep_block_count<const W: usize>(n: usize) -> u64 {
    assert!(
        n < 32,
        "exhaustive 2^{n} sweep refused; use test-set verification"
    );
    (1u64 << n).div_ceil(u64::from(WideBlock::<W>::capacity()))
}

/// The `(start word, vector count)` of block `b` of the exhaustive `2^n`
/// sweep at width `W` — the shared arithmetic behind the parallel sweeps
/// here and the per-fault redundancy reference of the fault-simulation
/// engine.
///
/// # Panics
/// Panics if `n ≥ 32` or `b` is past the last block.
#[must_use]
pub fn sweep_block_range<const W: usize>(n: usize, b: u64) -> (u64, u32) {
    assert!(
        b < sweep_block_count::<W>(n),
        "block index {b} out of range"
    );
    let total: u64 = 1u64 << n;
    let start = b * u64::from(WideBlock::<W>::capacity());
    (
        start,
        (total - start).min(u64::from(WideBlock::<W>::capacity())) as u32,
    )
}

/// The property a sweep checks, block by block.
#[derive(Clone, Copy)]
enum Check<'a> {
    /// Every output is sorted.
    Sorts(&'a Network),
    /// The first `k` outputs of `network` equal those of `reference`, a
    /// known sorter, on the same inputs.
    Selects {
        network: &'a Network,
        reference: &'a Network,
        k: usize,
    },
}

impl Check<'_> {
    /// Evaluates the input `block` in place on `backend` and returns the
    /// per-word masks of its violating vectors; `scratch` is a spare block
    /// over the same lines.
    fn violations<const W: usize>(
        self,
        backend: Backend,
        block: &mut WideBlock<W>,
        scratch: &mut WideBlock<W>,
    ) -> [u64; W] {
        match self {
            Check::Sorts(network) => {
                block.run_with(backend, network);
                block.unsorted_masks_with(backend)
            }
            Check::Selects {
                network,
                reference,
                k,
            } => {
                scratch.copy_from(block);
                scratch.run_with(backend, reference);
                block.run_with(backend, network);
                lanes::selector_violation_masks(block, scratch, k, backend)
            }
        }
    }
}

/// The one block loop: streams `source` through one reused block under
/// `meter`, evaluates each admitted block with `check`, and hands its
/// violation masks, with the index of its first vector, to `gather` until
/// the source runs dry, the budget trips or `gather` breaks.
fn stream<const W: usize>(
    mut source: impl BlockSource<W>,
    meter: &mut BudgetMeter,
    check: Check<'_>,
    backend: Backend,
    mut gather: impl FnMut(u64, &[u64; W]) -> ControlFlow<()>,
) {
    let n = source.lines();
    let (mut block, mut scratch) = (WideBlock::<W>::zeroed(n), WideBlock::<W>::zeroed(n));
    let mut start = 0u64;
    while source.next_block(&mut block) && meter.admit_block(u64::from(block.count())) {
        let mask = check.violations(backend, &mut block, &mut scratch);
        if gather(start, &mask).is_break() {
            break;
        }
        start += u64::from(block.count());
    }
}

/// What an exhaustive sweep found: the lowest violating input word, and
/// the number of violating inputs (gathered only when the sweep does not
/// stop at the first violation).
#[derive(Default)]
struct Tally {
    first: Option<u64>,
    count: u64,
}

/// The exhaustive driver: one [`LaneWidth`] dispatch into
/// [`exhaustive_at`].
fn exhaustive(n: usize, check: Check<'_>, sweep: &Sweep, first_only: bool) -> Budgeted<Tally> {
    let run = match sweep.width {
        LaneWidth::W1 => exhaustive_at::<1>,
        LaneWidth::W2 => exhaustive_at::<2>,
        LaneWidth::W4 => exhaustive_at::<4>,
        LaneWidth::W8 => exhaustive_at::<8>,
        LaneWidth::W16 => exhaustive_at::<16>,
    };
    run(n, check, sweep, first_only)
}

/// Sweeps all `2^n` inputs at width `W`, stopping at the first violation
/// when `first_only`.  Fans out over the rayon pool iff the budget is
/// unlimited and `n ≥ PARALLEL_MIN_LINES`; otherwise streams
/// [`RangeSource::exhaustive`] on the calling thread under the budget.
fn exhaustive_at<const W: usize>(
    n: usize,
    check: Check<'_>,
    sweep: &Sweep,
    first_only: bool,
) -> Budgeted<Tally> {
    let backend = sweep.backend;
    if sweep.budget.is_unlimited() && n >= PARALLEL_MIN_LINES {
        let scan = |b: u64| {
            let (start, count) = sweep_block_range::<W>(n, b);
            let mut block = WideBlock::<W>::from_range(n, start, count);
            let mask = check.violations(backend, &mut block, &mut WideBlock::zeroed(n));
            (start, mask)
        };
        let blocks = (0..sweep_block_count::<W>(n)).into_par_iter();
        let tally = if first_only {
            // `find_map_first` keeps the lowest-word witness (blocks are in
            // ascending word order) and short-circuits, matching the
            // sequential arm's early exit on the first failing block.
            let first = blocks.find_map_first(|b| {
                let (start, mask) = scan(b);
                lanes::mask_first(&mask).map(|j| start + u64::from(j))
            });
            Tally { first, count: 0 }
        } else {
            let count = blocks
                .map(|b| u64::from(lanes::mask_count(&scan(b).1)))
                .sum();
            Tally { first: None, count }
        };
        return Budgeted::Complete(tally);
    }
    let mut meter = BudgetMeter::new(&sweep.budget);
    let mut tally = Tally::default();
    stream::<W>(
        RangeSource::exhaustive(n),
        &mut meter,
        check,
        backend,
        |start, mask| {
            tally.count += u64::from(lanes::mask_count(mask));
            match lanes::mask_first(mask) {
                Some(j) if first_only => {
                    tally.first = Some(start + u64::from(j));
                    ControlFlow::Break(())
                }
                _ => ControlFlow::Continue(()),
            }
        },
    );
    meter.finish(tally)
}

/// Exhaustively checks the zero–one sorting property of `network` over all
/// `2^n` binary inputs.
///
/// Returns the first (lowest-word) input the network fails to sort, or
/// `None` if the network is a sorter.  The verdict and witness are
/// independent of the sweep's backend and width.  A [`Budgeted::Partial`]
/// outcome carries `None`: no unsorted input was found among the committed
/// blocks (the verdict for the unswept remainder is open).  A witness
/// found inside the budget completes the sweep early as usual.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn find_unsorted_input(
    network: &Network,
    sweep: &Sweep,
) -> Result<Budgeted<Option<BitString>>, EngineError> {
    let n = network.lines();
    error::ensure_sweepable(n)?;
    Ok(exhaustive(n, Check::Sorts(network), sweep, true)
        .map(|tally| tally.first.map(|word| BitString::from_word(word, n))))
}

/// Counts how many of the `2^n` binary inputs the network fails to sort.
/// A [`Budgeted::Partial`] count is exact for the committed blocks and
/// therefore a **lower bound** on the full count.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn count_unsorted_outputs(
    network: &Network,
    sweep: &Sweep,
) -> Result<Budgeted<u64>, EngineError> {
    let n = network.lines();
    error::ensure_sweepable(n)?;
    Ok(exhaustive(n, Check::Sorts(network), sweep, false).map(|tally| tally.count))
}

/// Exhaustively checks the `(k, n)`-selection property over all `2^n`
/// binary inputs, returning the first (lowest-word) input whose first `k`
/// outputs are wrong, or `None` for a valid selector.  Budget semantics as
/// for [`find_unsorted_input`].
///
/// Per block, the candidate outputs are compared lane-by-lane against the
/// outputs of a known-good reference sorter (Batcher's merge-exchange
/// network, itself certified by [`find_unsorted_input`] in this crate's
/// tests): vector `j` violates selection iff some lane `i < k` of the two
/// outputs differs.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`;
/// [`EngineError::IndexOutOfRange`] when `k > n`.
pub fn find_selector_violation(
    network: &Network,
    k: usize,
    sweep: &Sweep,
) -> Result<Budgeted<Option<BitString>>, EngineError> {
    let n = network.lines();
    error::ensure_sweepable(n)?;
    if k > n {
        return Err(EngineError::IndexOutOfRange {
            what: "selector k",
            index: k,
            limit: n + 1,
        });
    }
    if k == 0 {
        return Ok(Budgeted::Complete(None));
    }
    let reference = crate::builders::batcher::odd_even_merge_sort(n);
    let check = Check::Selects {
        network,
        reference: &reference,
        k,
    };
    Ok(exhaustive(n, check, sweep, true)
        .map(|tally| tally.first.map(|word| BitString::from_word(word, n))))
}

/// Runs `network` over an arbitrary list of 0/1 test vectors (in
/// `W × 64`-wide blocks at the default width, on the default sweep's
/// backend) and returns the inputs whose outputs are not sorted.
///
/// # Errors
/// [`EngineError::InputLengthMismatch`] when any test's length disagrees
/// with the network's line count.
pub fn failing_inputs_from(
    network: &Network,
    tests: &[BitString],
) -> Result<Vec<BitString>, EngineError> {
    let n = network.lines();
    if let Some(t) = tests.iter().find(|t| t.len() != n) {
        return Err(EngineError::InputLengthMismatch {
            expected: n,
            actual: t.len(),
        });
    }
    let mut failures = Vec::new();
    stream::<{ lanes::DEFAULT_WIDTH }>(
        SliceSource::new(n, tests),
        &mut BudgetMeter::unlimited(),
        Check::Sorts(network),
        Sweep::default().backend,
        |start, mask| {
            let hits = (0..mask.len() * 64).filter(|j| (mask[j / 64] >> (j % 64)) & 1 == 1);
            failures.extend(hits.map(|j| tests[start as usize + j]));
            ControlFlow::Continue(())
        },
    );
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SweepBudget;
    use crate::network::Network;

    fn batcher4() -> Network {
        // A correct 4-line sorter (odd-even merge sort by hand).
        Network::from_pairs(4, &[(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)])
    }

    fn fig1() -> Network {
        Network::from_pairs(4, &[(0, 2), (1, 3), (0, 1), (2, 3)])
    }

    /// The default sweep on `backend`.
    fn on(backend: Backend) -> Sweep {
        Sweep {
            backend,
            ..Sweep::default()
        }
    }

    /// The default sweep on `backend` with its budget capped at `blocks`:
    /// the metered arm on the calling thread.  `u64::MAX` never trips, so
    /// it gives the sequential answer of an unlimited sweep.
    fn metered(backend: Backend, blocks: u64) -> Sweep {
        Sweep {
            budget: SweepBudget::unlimited().with_max_blocks(blocks),
            ..on(backend)
        }
    }

    /// A complete sweep's answer.
    fn complete<T: std::fmt::Debug>(outcome: Result<Budgeted<T>, EngineError>) -> T {
        match outcome.unwrap() {
            Budgeted::Complete(value) => value,
            partial => panic!("an untripped sweep completes: {partial:?}"),
        }
    }

    #[test]
    fn block_run_matches_scalar_evaluation() {
        let net = fig1();
        let inputs: Vec<_> = BitString::all(4).collect();
        for backend in Backend::runnable() {
            let mut block = BitBlock::from_strings(4, &inputs[..16]);
            block.run_with(backend, &net);
            for (j, input) in inputs[..16].iter().enumerate() {
                assert_eq!(
                    block.extract(j as u32),
                    net.apply_bits(input),
                    "input {input} backend {}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn unsorted_mask_matches_scalar_sortedness() {
        let net = fig1();
        let inputs: Vec<_> = BitString::all(4).collect();
        for backend in Backend::runnable() {
            let mut block = BitBlock::from_strings(4, &inputs);
            block.run_with(backend, &net);
            let mask = block.unsorted_masks_with(backend)[0];
            for (j, input) in inputs.iter().enumerate() {
                let scalar_unsorted = !net.apply_bits(input).is_sorted();
                assert_eq!((mask >> j) & 1 == 1, scalar_unsorted, "input {input}");
            }
        }
    }

    #[test]
    fn exhaustive_check_accepts_a_real_sorter() {
        for backend in Backend::runnable() {
            assert_eq!(
                complete(find_unsorted_input(&batcher4(), &on(backend))),
                None
            );
            assert_eq!(
                complete(find_unsorted_input(
                    &batcher4(),
                    &metered(backend, u64::MAX)
                )),
                None
            );
        }
    }

    #[test]
    fn exhaustive_check_rejects_fig1_and_reports_lowest_failure() {
        let lowest = BitString::all(4).find(|s| !fig1().apply_bits(s).is_sorted());
        assert!(lowest.is_some());
        for backend in Backend::runnable() {
            let unlimited = complete(find_unsorted_input(&fig1(), &on(backend)));
            let metered = complete(find_unsorted_input(&fig1(), &metered(backend, u64::MAX)));
            assert_eq!(unlimited, lowest, "{}", backend.name());
            assert_eq!(
                unlimited, metered,
                "unlimited and metered sweeps must agree"
            );
        }
    }

    #[test]
    fn all_widths_agree_on_witness_and_count() {
        for net in [fig1(), batcher4(), Network::empty(4)] {
            let reference = Sweep {
                width: LaneWidth::W1,
                ..on(Backend::Scalar)
            };
            let first = complete(find_unsorted_input(&net, &reference));
            let count = complete(count_unsorted_outputs(&net, &reference));
            for backend in Backend::runnable() {
                for width in LaneWidth::ALL {
                    let sweep = Sweep {
                        width,
                        ..on(backend)
                    };
                    let case = format!("net {net} {width:?} {}", backend.name());
                    assert_eq!(complete(find_unsorted_input(&net, &sweep)), first, "{case}");
                    assert_eq!(
                        complete(count_unsorted_outputs(&net, &sweep)),
                        count,
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_unsorted_outputs_agrees_with_scalar_count() {
        for net in [fig1(), batcher4(), Network::empty(4)] {
            let scalar = BitString::all(4)
                .filter(|s| !net.apply_bits(s).is_sorted())
                .count() as u64;
            for backend in Backend::runnable() {
                assert_eq!(
                    complete(count_unsorted_outputs(&net, &metered(backend, u64::MAX))),
                    scalar
                );
                assert_eq!(complete(count_unsorted_outputs(&net, &on(backend))), scalar);
            }
        }
    }

    #[test]
    fn empty_network_fails_on_every_unsorted_input() {
        let empty = Network::empty(6);
        let expected = (1u64 << 6) - 6 - 1;
        for backend in Backend::runnable() {
            assert_eq!(
                complete(count_unsorted_outputs(&empty, &on(backend))),
                expected
            );
        }
        let failures = failing_inputs_from(&empty, &BitString::all(6).collect::<Vec<_>>()).unwrap();
        assert_eq!(failures.len() as u64, expected);
        assert!(failures.iter().all(|f| !f.is_sorted()));
    }

    #[test]
    fn failing_inputs_from_selects_exactly_the_failures() {
        let net = fig1();
        let tests: Vec<_> = BitString::all(4).collect();
        let failures = failing_inputs_from(&net, &tests).unwrap();
        for f in &failures {
            assert!(!net.apply_bits(f).is_sorted());
        }
        let expected = complete(count_unsorted_outputs(
            &net,
            &metered(Backend::Scalar, u64::MAX),
        )) as usize;
        assert_eq!(failures.len(), expected);
        // Past one block, in input order.
        let many: Vec<_> = tests.iter().cycle().take(700).copied().collect();
        let expected: Vec<_> = many
            .iter()
            .filter(|s| !net.apply_bits(s).is_sorted())
            .copied()
            .collect();
        assert_eq!(failing_inputs_from(&net, &many).unwrap(), expected);
    }

    #[test]
    fn blocks_of_odd_sizes_mask_out_dead_lanes() {
        let net = Network::empty(3);
        let inputs: Vec<_> = BitString::all(3).take(5).collect();
        for backend in Backend::runnable() {
            let mut block = BitBlock::from_strings(3, &inputs);
            block.run_with(backend, &net);
            assert_eq!(block.count(), 5);
            assert_eq!(
                block.unsorted_masks_with(backend)[0] >> 5,
                0,
                "dead lanes must stay clear ({})",
                backend.name()
            );
        }
    }

    #[test]
    fn from_range_matches_from_strings() {
        let inputs: Vec<_> = BitString::all(5).collect();
        let a = BitBlock::from_strings(5, &inputs[..32]);
        let b = BitBlock::from_range(5, 0, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn run_range_splits_compose_to_a_full_run() {
        let net = batcher4();
        for backend in Backend::runnable() {
            for cut in 0..=net.size() {
                let mut split = BitBlock::from_range(4, 0, 16);
                split.run_range_with(backend, &net, 0, cut);
                split.run_range_with(backend, &net, cut, net.size());
                let mut whole = BitBlock::from_range(4, 0, 16);
                whole.run_with(backend, &net);
                assert_eq!(split, whole, "cut at {cut} {}", backend.name());
            }
        }
    }

    #[test]
    fn copy_from_forks_a_shared_prefix() {
        let net = batcher4();
        for backend in Backend::runnable() {
            let mut prefix = BitBlock::from_range(4, 0, 16);
            prefix.run_range_with(backend, &net, 0, 2);
            let mut fork = BitBlock::from_range(4, 48, 5);
            fork.copy_from(&prefix);
            assert_eq!(fork, prefix);
            fork.run_range_with(backend, &net, 2, net.size());
            let mut direct = BitBlock::from_range(4, 0, 16);
            direct.run_with(backend, &net);
            assert_eq!(fork, direct, "{}", backend.name());
        }
    }

    #[test]
    fn lane_level_fault_hooks_behave_as_specified() {
        let mut block = BitBlock::from_range(3, 0, 8);
        let (a, b) = (block.lane(0), block.lane(2));
        block.swap_lanes(0, 2);
        assert_eq!((block.lane(0), block.lane(2)), (b, a));
        block.map_pair(0, 2, |x, y| (x | y, x & y));
        assert_eq!((block.lane(0), block.lane(2)), (a | b, a & b));
        // An inverted comparator is apply_comparator_with with the lines
        // swapped.
        let mut inv = BitBlock::from_range(3, 0, 8);
        inv.apply_comparator_with(Backend::Scalar, 2, 0);
        assert_eq!(inv.lane(2), a & b);
        assert_eq!(inv.lane(0), a | b);
    }

    #[test]
    fn try_variants_reject_hostile_inputs_and_agree_otherwise() {
        let net = batcher4();
        let scalar = Sweep {
            width: LaneWidth::W1,
            ..metered(Backend::Scalar, u64::MAX)
        };
        assert_eq!(complete(find_unsorted_input(&net, &scalar)), None);
        let big = Network::empty(40);
        assert_eq!(
            find_unsorted_input(&big, &on(Backend::Scalar)).unwrap_err(),
            EngineError::SweepTooLarge { lines: 40 }
        );
        assert!(matches!(
            count_unsorted_outputs(&big, &scalar),
            Err(EngineError::SweepTooLarge { lines: 40 })
        ));
        assert!(matches!(
            find_selector_violation(&big, 2, &scalar),
            Err(EngineError::SweepTooLarge { lines: 40 })
        ));
        assert!(matches!(
            find_selector_violation(&net, 9, &scalar),
            Err(EngineError::IndexOutOfRange { index: 9, .. })
        ));
        let mismatched = vec![BitString::zeros(5)];
        assert!(matches!(
            failing_inputs_from(&net, &mismatched),
            Err(EngineError::InputLengthMismatch {
                expected: 4,
                actual: 5
            })
        ));
    }

    #[test]
    fn budgeted_exhaustive_sweeps_degrade_to_exact_prefixes() {
        let sorter = crate::builders::batcher::odd_even_merge_sort(9);
        let w1 = |blocks| Sweep {
            width: LaneWidth::W1,
            ..metered(Backend::Scalar, blocks)
        };
        // 2^9 = 8 one-word blocks; cap at 2.
        let partial = find_unsorted_input(&sorter, &w1(2)).unwrap();
        assert!(!partial.is_complete());
        assert_eq!(*partial.value(), None);
        let full = find_unsorted_input(
            &sorter,
            &Sweep {
                budget: SweepBudget::unlimited(),
                ..w1(0)
            },
        )
        .unwrap();
        assert!(full.is_complete());
        // Budgeted counting is a lower bound that matches the full count
        // on the committed prefix.
        let empty = Network::empty(8);
        let capped = count_unsorted_outputs(&empty, &w1(2)).unwrap();
        assert!(!capped.is_complete());
        let scalar_prefix = BitString::all(8)
            .take(128)
            .filter(|s| !s.is_sorted())
            .count() as u64;
        assert_eq!(*capped.value(), scalar_prefix);
        let full_count = count_unsorted_outputs(&empty, &w1(u64::MAX)).unwrap();
        assert!(full_count.is_complete());
        for backend in Backend::runnable() {
            assert_eq!(
                *full_count.value(),
                complete(count_unsorted_outputs(&empty, &on(backend))),
                "{}",
                backend.name()
            );
        }
        assert!(*capped.value() <= *full_count.value());
        // The selector sweep commits the same prefix.
        let selector = find_selector_violation(&sorter, 4, &w1(2)).unwrap();
        assert!(!selector.is_complete());
        assert_eq!(*selector.value(), None);
    }

    #[test]
    fn rayon_answers_equal_sequential_across_the_parallel_cutoff() {
        use crate::builders::batcher::odd_even_merge_sort;
        // n = 21 runs an unlimited sweep on the calling thread, n = 22 fans
        // out; both must give the metered sequential arm's answer for a
        // sorter and for a sorter with its middle comparator removed
        // (failures spread over many blocks).
        for n in [PARALLEL_MIN_LINES - 1, PARALLEL_MIN_LINES] {
            let sorter = odd_even_merge_sort(n);
            let broken = sorter.without_comparator(sorter.size() / 2);
            for backend in Backend::runnable() {
                for (net, passes) in [(&sorter, true), (&broken, false)] {
                    let label = format!("n={n} {} passes={passes}", backend.name());
                    let sweeps = |budget: SweepBudget| {
                        let sweep = Sweep {
                            backend,
                            width: LaneWidth::W16,
                            budget,
                        };
                        (
                            complete(find_unsorted_input(net, &sweep)),
                            complete(find_selector_violation(net, n / 2, &sweep)),
                            complete(count_unsorted_outputs(net, &sweep)),
                        )
                    };
                    let sequential = sweeps(SweepBudget::unlimited().with_max_blocks(u64::MAX));
                    assert_eq!(sweeps(SweepBudget::unlimited()), sequential, "{label}");
                    assert_eq!(sequential.0.is_none(), passes, "{label}");
                    assert_eq!(sequential.1.is_none(), passes, "{label}");
                    assert_eq!(sequential.2 == 0, passes, "{label}");
                }
            }
            let wide = |sweep: &Sweep| complete(count_unsorted_outputs(&broken, sweep));
            let backend = Backend::active();
            assert_eq!(
                wide(&on(backend)),
                wide(&metered(backend, u64::MAX)),
                "n={n}"
            );
        }
    }

    #[test]
    fn selector_sweep_agrees_with_scalar_definition() {
        use crate::builders::batcher::odd_even_merge_sort;
        let w2 = Sweep {
            width: LaneWidth::W2,
            ..metered(Backend::Scalar, u64::MAX)
        };
        for k in 0..=6 {
            assert_eq!(
                complete(find_selector_violation(&odd_even_merge_sort(6), k, &w2)),
                None
            );
        }
        let empty = Network::empty(5);
        assert_eq!(
            complete(find_selector_violation(&empty, 0, &on(Backend::Scalar))),
            None
        );
        let witness = complete(find_selector_violation(
            &empty,
            2,
            &metered(Backend::Scalar, u64::MAX),
        ))
        .unwrap();
        // The scalar definition: output i (< k) must be 0 exactly when
        // i < |input|₀ — the empty network violates that on its witness.
        let out = empty.apply_bits(&witness);
        let zeros = witness.count_zeros();
        assert!((0..2).any(|i| out.get(i) != (i >= zeros)));
        // Unlimited and metered sweeps return the same lowest witness, at
        // every width on every backend.
        for backend in Backend::runnable() {
            for width in LaneWidth::ALL {
                let sweep = Sweep {
                    width,
                    ..on(backend)
                };
                assert_eq!(
                    complete(find_selector_violation(&empty, 2, &sweep)),
                    Some(witness),
                    "{width:?} {}",
                    backend.name()
                );
            }
        }
    }
}
