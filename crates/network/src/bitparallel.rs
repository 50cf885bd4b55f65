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
//! takes a [`Sweep`]: the lane-ops [`Backend`](lanes::Backend) (how
//! the word kernels execute: scalar, portable-chunked or AVX2 — see
//! [`lanes::backend`]), the [`LaneWidth`] and the
//! [`SweepBudget`](crate::SweepBudget).  Each checks its inputs up front,
//! returns a typed [`EngineError`] instead of panicking, and answers with
//! a [`Budgeted`] value.  `W = 1` on the scalar backend reproduces the
//! original single-word sweep exactly; [`BitBlock`] is the `W = 1` block
//! type, kept as the interchange format with the fault-simulation engine.
//!
//! All three ask a [`lanes::Check`] of every input on one private
//! driver, which streams [`RangeSource::exhaustive`] through the lanes'
//! one metered block loop.  Sweeps are embarrassingly parallel across
//! blocks, so with an unlimited budget the driver cuts the sweep into one
//! contiguous, block-aligned span per available thread and runs the same
//! block loop over each span under [`std::thread::scope`].  Every call
//! spawns its scoped threads afresh, which costs more than a whole
//! single-threaded sweep up to about `n = 20`, so below `n = 22` lines,
//! and under any bounded budget (block-granular metering and the fan-out
//! do not compose), the driver runs the loop on the calling thread
//! instead.  The answer does not change: the fan-out keeps the witness of
//! the lowest span that has one, which is the sequential (lowest-word)
//! witness.

use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use sortnet_combinat::BitString;

use crate::budget::{BudgetMeter, Budgeted};
use crate::error::{self, EngineError};
use crate::lanes::{self, Check, LaneWidth, RangeSource, Sweep, WideBlock};
use crate::network::Network;

/// Fewest lines at which an unbudgeted exhaustive sweep fans out over
/// scoped threads; smaller sweeps run sequentially on the calling thread.
/// Each parallel call spawns its threads afresh.  Passing `W = 4` sorter
/// sweeps of Batcher sorters on a 2-vCPU x86_64 (AVX2) host, fanned out
/// over two spans vs on the calling thread, median µs:
///
/// | n | 8 | 12 | 16 | 20 | 21 | 22 | 24 |
/// |---|---|---|---|---|---|---|---|
/// | fanned out | 22 | 33 | 62 | 467 | 903 | 1 792 | 7 711 |
/// | calling thread | 0.2 | 1.8 | 23 | 517 | 1 160 | 2 390 | 16 673 |
///
/// The fan-out is ahead from about 20 lines on; the cutoff stays at 22,
/// where a pool that cost more per call put it, because no benchmark
/// workload sweeps between 20 and 22 lines to show the gain end to end.
const PARALLEL_MIN_LINES: usize = 22;

/// A block of up to 64 binary input vectors in transposed form: the
/// single-word (`W = 1`) instance of [`WideBlock`].
pub type BitBlock = WideBlock<1>;

/// The exhaustive driver: one [`LaneWidth`] dispatch into
/// [`exhaustive_at`].
fn exhaustive(check: &Check<'_>, sweep: &Sweep, first_only: bool) -> Budgeted<Tally> {
    let run = match sweep.width {
        LaneWidth::W1 => exhaustive_at::<1>,
        LaneWidth::W2 => exhaustive_at::<2>,
        LaneWidth::W4 => exhaustive_at::<4>,
        LaneWidth::W8 => exhaustive_at::<8>,
        LaneWidth::W16 => exhaustive_at::<16>,
    };
    run(check, sweep, first_only)
}

/// What an exhaustive sweep found: the first violating input, and the
/// number of violating inputs (counted only when the sweep does not stop
/// at the first violation).
type Tally = (Option<BitString>, u64);

/// Sweeps all `2^n` inputs through `check` at width `W`, stopping at the
/// first violation when `first_only`.  Fans out over one span per
/// available thread iff the budget is unlimited and
/// `n ≥ PARALLEL_MIN_LINES`; otherwise runs the metered block loop over
/// [`RangeSource::exhaustive`] on the calling thread under the budget.
fn exhaustive_at<const W: usize>(
    check: &Check<'_>,
    sweep: &Sweep,
    first_only: bool,
) -> Budgeted<Tally> {
    let n = check.network().lines();
    if sweep.budget.is_unlimited() && n >= PARALLEL_MIN_LINES {
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        return Budgeted::Complete(fan_out::<W>(check, sweep, first_only, threads));
    }
    let mut meter = BudgetMeter::new(&sweep.budget);
    let tally = sweep_span::<W>(
        RangeSource::exhaustive(n),
        check,
        sweep,
        &mut meter,
        first_only,
        || false,
    );
    meter.finish(tally)
}

/// Runs the block loop over `source` under `meter` and tallies its
/// violations, stopping at the first one when `first_only`, and before
/// the next block once `stop` says so.
fn sweep_span<const W: usize>(
    source: RangeSource,
    check: &Check<'_>,
    sweep: &Sweep,
    meter: &mut BudgetMeter,
    first_only: bool,
    stop: impl Fn() -> bool,
) -> Tally {
    let (mut first, mut count) = (None, 0);
    lanes::sweep_blocks::<W, _>(source, check, sweep.backend, meter, |input, mask| {
        count += u64::from(lanes::mask_count(mask));
        match lanes::mask_first(mask) {
            Some(j) if first_only => {
                first = Some(input.extract(j));
                ControlFlow::Break(())
            }
            _ if stop() => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        }
    });
    (first, count)
}

/// The `(start, end)` vector ranges of the spans an exhaustive `2^n`
/// sweep at width `W` is cut into for `threads` threads: one per thread
/// but never more than there are blocks, contiguous, in ascending order,
/// each starting on a block boundary, and within one block of each other
/// in length.
fn spans<const W: usize>(n: usize, threads: usize) -> impl Iterator<Item = (u64, u64)> {
    let (total, capacity) = (1u64 << n, u64::from(WideBlock::<W>::capacity()));
    let blocks = total.div_ceil(capacity);
    let spans = (threads.max(1) as u64).min(blocks);
    let edge = move |s: u64| (s * blocks / spans * capacity).min(total);
    (0..spans).map(move |s| (edge(s), edge(s + 1)))
}

/// The unlimited exhaustive sweep on `threads` scoped threads, one
/// [`spans`] span each, every span on the metered block loop under
/// [`BudgetMeter::unlimited`].
///
/// When `first_only`, `found` holds the lowest span that has found a
/// witness: a later span stops at its next block, an earlier one runs on,
/// and the merged witness is the first in span order — the lowest-word
/// witness of the whole sweep.  The count is the sum over spans.
fn fan_out<const W: usize>(
    check: &Check<'_>,
    sweep: &Sweep,
    first_only: bool,
    threads: usize,
) -> Tally {
    let n = check.network().lines();
    // A stop hint only (the tallies travel back through `join`), so its
    // loads and stores are relaxed.
    let found = AtomicUsize::new(usize::MAX);
    let tallies: Vec<Tally> = thread::scope(|scope| {
        let workers: Vec<_> = spans::<W>(n, threads)
            .enumerate()
            .map(|(s, (start, end))| {
                let found = &found;
                scope.spawn(move || {
                    let source = RangeSource::span(n, start, end);
                    let stop = || first_only && found.load(Ordering::Relaxed) < s;
                    let mut meter = BudgetMeter::unlimited();
                    let tally = sweep_span::<W>(source, check, sweep, &mut meter, first_only, stop);
                    if tally.0.is_some() {
                        found.fetch_min(s, Ordering::Relaxed);
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let count = tallies.iter().map(|&(_, count)| count).sum();
    (tallies.into_iter().find_map(|(first, _)| first), count)
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
    Ok(exhaustive(&Check::Sorted(network), sweep, true).map(|(first, _)| first))
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
    Ok(exhaustive(&Check::Sorted(network), sweep, false).map(|(_, count)| count))
}

/// Exhaustively checks the `(k, n)`-selection property over all `2^n`
/// binary inputs, returning the first (lowest-word) input whose first `k`
/// outputs are wrong, or `None` for a valid selector.  Budget semantics as
/// for [`find_unsorted_input`].
///
/// Per block, [`Check::selected`] compares the candidate outputs
/// lane-by-lane against the outputs of a known-good reference sorter:
/// vector `j` violates selection iff some lane `i < k` of the two outputs
/// differs.
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
    Ok(exhaustive(&Check::selected(network, k), sweep, true).map(|(first, _)| first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SweepBudget;
    use crate::lanes::Backend;
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
                    block.extract::<BitString>(j as u32),
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
    fn fanout_answers_equal_sequential_across_the_parallel_cutoff() {
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

    /// The cuts of `2^n` at width `W` into [`spans`]: contiguous,
    /// block-aligned, never empty, one per thread up to the block count.
    fn assert_spans_tile_the_sweep<const W: usize>(n: usize) {
        let capacity = u64::from(WideBlock::<W>::capacity());
        let blocks = (1u64 << n).div_ceil(capacity);
        for threads in [1, 2, 3, 5, blocks as usize + 1] {
            let cut: Vec<_> = spans::<W>(n, threads).collect();
            let case = format!("n={n} W={W} threads={threads}");
            assert_eq!(cut.len() as u64, (threads as u64).min(blocks), "{case}");
            assert_eq!(cut[0].0, 0, "{case}");
            assert_eq!(cut.last().unwrap().1, 1 << n, "{case}");
            for (s, &(start, end)) in cut.iter().enumerate() {
                assert!(start < end && start % capacity == 0, "{case}");
                if s > 0 {
                    assert_eq!(start, cut[s - 1].1, "{case}");
                }
            }
        }
    }

    #[test]
    fn spans_tile_the_sweep_on_block_boundaries() {
        for n in [0, 5, 6, 11, 12] {
            assert_spans_tile_the_sweep::<1>(n);
            assert_spans_tile_the_sweep::<16>(n);
        }
    }

    /// [`fan_out`] at width `W` on `threads` ∈ {1, 2, 3, 5, blocks + 1}
    /// against the metered sequential arm and a scalar scan, for a sorter,
    /// two Batcher sorters minus one comparator, the selector check and
    /// count mode.
    fn assert_fan_out_is_sequential<const W: usize>(width: LaneWidth, backend: Backend) {
        use crate::builders::batcher::odd_even_merge_sort;
        const N: usize = 12;
        const K: usize = N / 2;
        assert_eq!(width.words(), W);
        let sorter = odd_even_merge_sort(N);
        // Failures spread over many blocks.
        let broken = sorter.without_comparator(sorter.size() / 2);
        // Every input below 2^11 still sorts.
        let late = sorter.without_comparator(7);
        let unsorted = |net: &Network, s: &BitString| !net.apply_bits(s).is_sorted();
        let unselected = |net: &Network, s: &BitString| {
            let (out, zeros) = (net.apply_bits(s), s.count_zeros());
            (0..K).any(|i| out.get(i) != (i >= zeros))
        };
        let blocks = (1u64 << N).div_ceil(u64::from(WideBlock::<W>::capacity()));
        let sequential = Sweep {
            width,
            ..metered(backend, u64::MAX)
        };
        let late_lowest = BitString::all(N).position(|s| unsorted(&late, &s));
        for threads in [1, 2, 3, 5, blocks as usize + 1] {
            let first_span_end = spans::<W>(N, threads).next().unwrap().1;
            if threads > 1 {
                assert!(
                    late_lowest.unwrap() as u64 >= first_span_end,
                    "the lowest failure of `late` must lie past the first span"
                );
            }
            for net in [&sorter, &broken, &late] {
                let case = format!("net {net} W={W} threads={threads} {}", backend.name());
                let sorted = Check::Sorted(net);
                let selected = Check::selected(net, K);
                let run = |check, first_only| fan_out::<W>(check, &sequential, first_only, threads);
                let lowest = BitString::all(N).find(|s| unsorted(net, s));
                let witness = run(&sorted, true).0;
                assert_eq!(witness, lowest, "{case}");
                assert_eq!(
                    witness,
                    complete(find_unsorted_input(net, &sequential)),
                    "{case}"
                );
                let count = BitString::all(N).filter(|s| unsorted(net, s)).count() as u64;
                assert_eq!(run(&sorted, false).1, count, "{case}");
                assert_eq!(
                    count,
                    complete(count_unsorted_outputs(net, &sequential)),
                    "{case}"
                );
                let lowest = BitString::all(N).find(|s| unselected(net, s));
                let witness = run(&selected, true).0;
                assert_eq!(witness, lowest, "{case}");
                assert_eq!(
                    witness,
                    complete(find_selector_violation(net, K, &sequential)),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn fan_out_equals_the_sequential_arm_at_every_thread_count() {
        for backend in Backend::runnable() {
            assert_fan_out_is_sequential::<1>(LaneWidth::W1, backend);
            assert_fan_out_is_sequential::<4>(LaneWidth::W4, backend);
            assert_fan_out_is_sequential::<16>(LaneWidth::W16, backend);
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
