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
//! takes the lane-ops [`Backend`] that executes the word kernels (scalar
//! or AVX2 — see [`lanes::backend`]).  Each checks its inputs up front and
//! returns a typed [`EngineError`] instead of panicking.  The answer never
//! depends on the backend.
//!
//! All three ask a [`lanes::Check`] of every input on one private
//! driver, which streams [`RangeSource::exhaustive`] at
//! [`DEFAULT_WIDTH`] through the lanes' block loop, unbudgeted.  Sweeps
//! are embarrassingly parallel across blocks, so from `n = 22` lines on
//! the driver cuts the sweep into one contiguous, block-aligned span per
//! available thread and runs the same block loop over each span under
//! [`std::thread::scope`].  Every call spawns its scoped threads afresh,
//! which costs more than a whole single-threaded sweep up to about
//! `n = 20`, so smaller sweeps run on the calling thread.  The answer does
//! not change: the fan-out keeps the witness of the lowest span that has
//! one, which is the sequential (lowest-word) witness.  A budgeted
//! exhaustive sweep is [`lanes::sweep_find`] over
//! [`RangeSource::exhaustive`] under a metered [`BudgetMeter`].

use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use sortnet_combinat::BitString;

use crate::budget::BudgetMeter;
use crate::error::{self, EngineError};
use crate::lanes::{self, Backend, Check, RangeSource, WideBlock, DEFAULT_WIDTH};
use crate::network::Network;

/// Fewest lines at which an exhaustive sweep fans out over scoped
/// threads; smaller sweeps run sequentially on the calling thread.
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

/// What an exhaustive sweep found: the first violating input, and the
/// number of violating inputs (counted only when the sweep does not stop
/// at the first violation).
type Tally = (Option<BitString>, u64);

/// The exhaustive driver: sweeps all `2^n` inputs through `check` at
/// [`DEFAULT_WIDTH`] on `backend`, stopping at the first violation when
/// `first_only`.  Fans out over one span per available thread iff
/// `n ≥ PARALLEL_MIN_LINES`; otherwise runs the block loop over
/// [`RangeSource::exhaustive`] on the calling thread.
fn exhaustive(check: &Check<'_>, backend: Backend, first_only: bool) -> Tally {
    let n = check.network().lines();
    if n >= PARALLEL_MIN_LINES {
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        return fan_out::<DEFAULT_WIDTH>(check, backend, first_only, threads);
    }
    sweep_span::<DEFAULT_WIDTH>(
        RangeSource::exhaustive(n),
        check,
        backend,
        first_only,
        || false,
    )
}

/// Runs the unlimited block loop over `source` and tallies its
/// violations, stopping at the first one when `first_only`, and before
/// the next block once `stop` says so.
fn sweep_span<const W: usize>(
    source: RangeSource,
    check: &Check<'_>,
    backend: Backend,
    first_only: bool,
    stop: impl Fn() -> bool,
) -> Tally {
    let (mut first, mut count) = (None, 0);
    let mut meter = BudgetMeter::unlimited();
    lanes::sweep_blocks::<W, _>(source, check, backend, &mut meter, |input, mask| {
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

/// The exhaustive sweep on `threads` scoped threads, one [`spans`] span
/// each, every span on the unlimited block loop.
///
/// When `first_only`, `found` holds the lowest span that has found a
/// witness: a later span stops at its next block, an earlier one runs on,
/// and the merged witness is the first in span order — the lowest-word
/// witness of the whole sweep.  The count is the sum over spans.
fn fan_out<const W: usize>(
    check: &Check<'_>,
    backend: Backend,
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
                    let tally = sweep_span::<W>(source, check, backend, first_only, stop);
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
/// `2^n` binary inputs on `backend`.
///
/// Returns the first (lowest-word) input the network fails to sort, or
/// `None` if the network is a sorter.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn find_unsorted_input(
    network: &Network,
    backend: Backend,
) -> Result<Option<BitString>, EngineError> {
    error::ensure_sweepable(network.lines())?;
    Ok(exhaustive(&Check::Sorted(network), backend, true).0)
}

/// Counts how many of the `2^n` binary inputs the network fails to sort,
/// on `backend`.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn count_unsorted_outputs(network: &Network, backend: Backend) -> Result<u64, EngineError> {
    error::ensure_sweepable(network.lines())?;
    Ok(exhaustive(&Check::Sorted(network), backend, false).1)
}

/// Exhaustively checks the `(k, n)`-selection property over all `2^n`
/// binary inputs on `backend`, returning the first (lowest-word) input
/// whose first `k` outputs are wrong, or `None` for a valid selector.
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
    backend: Backend,
) -> Result<Option<BitString>, EngineError> {
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
        return Ok(None);
    }
    Ok(exhaustive(&Check::selected(network, k), backend, true).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn batcher4() -> Network {
        // A correct 4-line sorter (odd-even merge sort by hand).
        Network::from_pairs(4, &[(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)])
    }

    fn fig1() -> Network {
        Network::from_pairs(4, &[(0, 2), (1, 3), (0, 1), (2, 3)])
    }

    /// The block loop over all of `RangeSource::exhaustive` at width `W`
    /// on the calling thread: the sequential reference for the driver.
    fn sequential<const W: usize>(check: &Check<'_>, backend: Backend, first_only: bool) -> Tally {
        let n = check.network().lines();
        sweep_span::<W>(
            RangeSource::exhaustive(n),
            check,
            backend,
            first_only,
            || false,
        )
    }

    #[test]
    fn block_run_matches_scalar_evaluation() {
        let net = fig1();
        let inputs: Vec<_> = BitString::all(4).collect();
        for backend in Backend::runnable() {
            let mut block = WideBlock::<1>::from_strings(4, &inputs[..16]);
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
            let mut block = WideBlock::<1>::from_strings(4, &inputs);
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
            assert_eq!(find_unsorted_input(&batcher4(), backend), Ok(None));
        }
    }

    #[test]
    fn exhaustive_check_rejects_fig1_and_reports_lowest_failure() {
        let lowest = BitString::all(4).find(|s| !fig1().apply_bits(s).is_sorted());
        assert!(lowest.is_some());
        for backend in Backend::runnable() {
            assert_eq!(
                find_unsorted_input(&fig1(), backend),
                Ok(lowest),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn all_widths_agree_on_witness_and_count() {
        for net in [fig1(), batcher4(), Network::empty(4)] {
            let check = Check::Sorted(&net);
            let first = find_unsorted_input(&net, Backend::Scalar).unwrap();
            let count = count_unsorted_outputs(&net, Backend::Scalar).unwrap();
            for backend in Backend::runnable() {
                let case = format!("net {net} {}", backend.name());
                assert_eq!(find_unsorted_input(&net, backend), Ok(first), "{case}");
                assert_eq!(count_unsorted_outputs(&net, backend), Ok(count), "{case}");
                assert_eq!(sequential::<1>(&check, backend, true).0, first, "{case}");
                assert_eq!(sequential::<16>(&check, backend, true).0, first, "{case}");
                assert_eq!(sequential::<1>(&check, backend, false).1, count, "{case}");
                assert_eq!(sequential::<16>(&check, backend, false).1, count, "{case}");
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
                assert_eq!(count_unsorted_outputs(&net, backend), Ok(scalar));
            }
        }
    }

    #[test]
    fn empty_network_fails_on_every_unsorted_input() {
        let empty = Network::empty(6);
        let expected = (1u64 << 6) - 6 - 1;
        for backend in Backend::runnable() {
            assert_eq!(count_unsorted_outputs(&empty, backend), Ok(expected));
        }
    }

    #[test]
    fn blocks_of_odd_sizes_mask_out_dead_lanes() {
        let net = Network::empty(3);
        let inputs: Vec<_> = BitString::all(3).take(5).collect();
        for backend in Backend::runnable() {
            let mut block = WideBlock::<1>::from_strings(3, &inputs);
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
        let a = WideBlock::<1>::from_strings(5, &inputs[..32]);
        let b = WideBlock::<1>::from_range(5, 0, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn run_range_splits_compose_to_a_full_run() {
        let net = batcher4();
        for backend in Backend::runnable() {
            for cut in 0..=net.size() {
                let mut split = WideBlock::<1>::from_range(4, 0, 16);
                split.run_range_with(backend, &net, 0, cut);
                split.run_range_with(backend, &net, cut, net.size());
                let mut whole = WideBlock::<1>::from_range(4, 0, 16);
                whole.run_with(backend, &net);
                assert_eq!(split, whole, "cut at {cut} {}", backend.name());
            }
        }
    }

    #[test]
    fn copy_from_forks_a_shared_prefix() {
        let net = batcher4();
        for backend in Backend::runnable() {
            let mut prefix = WideBlock::<1>::from_range(4, 0, 16);
            prefix.run_range_with(backend, &net, 0, 2);
            let mut fork = WideBlock::<1>::from_range(4, 48, 5);
            fork.copy_from(&prefix);
            assert_eq!(fork, prefix);
            fork.run_range_with(backend, &net, 2, net.size());
            let mut direct = WideBlock::<1>::from_range(4, 0, 16);
            direct.run_with(backend, &net);
            assert_eq!(fork, direct, "{}", backend.name());
        }
    }

    #[test]
    fn lane_level_fault_hooks_behave_as_specified() {
        let mut block = WideBlock::<1>::from_range(3, 0, 8);
        let lane = |block: &WideBlock<1>, i| block.lane_words(i)[0];
        let (a, b) = (lane(&block, 0), lane(&block, 2));
        block.swap_lanes(0, 2);
        assert_eq!((lane(&block, 0), lane(&block, 2)), (b, a));
        block.map_pair(0, 2, |x, y| (x | y, x & y));
        assert_eq!((lane(&block, 0), lane(&block, 2)), (a | b, a & b));
        // An inverted comparator is apply_comparator_with with the lines
        // swapped.
        let mut inv = WideBlock::<1>::from_range(3, 0, 8);
        inv.apply_comparator_with(Backend::Scalar, 2, 0);
        assert_eq!(lane(&inv, 2), a & b);
        assert_eq!(lane(&inv, 0), a | b);
    }

    #[test]
    fn try_variants_reject_hostile_inputs_and_agree_otherwise() {
        let net = batcher4();
        let scalar = Backend::Scalar;
        assert_eq!(find_unsorted_input(&net, scalar), Ok(None));
        let big = Network::empty(40);
        assert_eq!(
            find_unsorted_input(&big, scalar).unwrap_err(),
            EngineError::SweepTooLarge { lines: 40 }
        );
        assert!(matches!(
            count_unsorted_outputs(&big, scalar),
            Err(EngineError::SweepTooLarge { lines: 40 })
        ));
        assert!(matches!(
            find_selector_violation(&big, 2, scalar),
            Err(EngineError::SweepTooLarge { lines: 40 })
        ));
        assert!(matches!(
            find_selector_violation(&net, 9, scalar),
            Err(EngineError::IndexOutOfRange { index: 9, .. })
        ));
    }

    #[test]
    fn fanout_answers_equal_sequential_across_the_parallel_cutoff() {
        use crate::builders::batcher::odd_even_merge_sort;
        // n = 21 runs the driver on the calling thread, n = 22 fans out;
        // both must give the sequential block loop's answer for a sorter
        // and for a sorter with its middle comparator removed (failures
        // spread over many blocks).
        for n in [PARALLEL_MIN_LINES - 1, PARALLEL_MIN_LINES] {
            let sorter = odd_even_merge_sort(n);
            let broken = sorter.without_comparator(sorter.size() / 2);
            for backend in Backend::runnable() {
                for (net, passes) in [(&sorter, true), (&broken, false)] {
                    let label = format!("n={n} {} passes={passes}", backend.name());
                    let (sorted, selected) = (Check::Sorted(net), Check::selected(net, n / 2));
                    let driven = (
                        find_unsorted_input(net, backend).unwrap(),
                        find_selector_violation(net, n / 2, backend).unwrap(),
                        count_unsorted_outputs(net, backend).unwrap(),
                    );
                    let sequential = (
                        sequential::<16>(&sorted, backend, true).0,
                        sequential::<16>(&selected, backend, true).0,
                        sequential::<16>(&sorted, backend, false).1,
                    );
                    assert_eq!(driven, sequential, "{label}");
                    assert_eq!(sequential.0.is_none(), passes, "{label}");
                    assert_eq!(sequential.1.is_none(), passes, "{label}");
                    assert_eq!(sequential.2 == 0, passes, "{label}");
                }
            }
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
    /// against the sequential block loop and a scalar scan, for a sorter,
    /// two Batcher sorters minus one comparator, the selector check and
    /// count mode.
    fn assert_fan_out_is_sequential<const W: usize>(backend: Backend) {
        use crate::builders::batcher::odd_even_merge_sort;
        const N: usize = 12;
        const K: usize = N / 2;
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
                let run = |check, first_only| fan_out::<W>(check, backend, first_only, threads);
                let lowest = BitString::all(N).find(|s| unsorted(net, s));
                let witness = run(&sorted, true).0;
                assert_eq!(witness, lowest, "{case}");
                assert_eq!(witness, sequential::<W>(&sorted, backend, true).0, "{case}");
                let count = BitString::all(N).filter(|s| unsorted(net, s)).count() as u64;
                assert_eq!(run(&sorted, false).1, count, "{case}");
                assert_eq!(count, sequential::<W>(&sorted, backend, false).1, "{case}");
                let lowest = BitString::all(N).find(|s| unselected(net, s));
                let witness = run(&selected, true).0;
                assert_eq!(witness, lowest, "{case}");
                assert_eq!(
                    witness,
                    sequential::<W>(&selected, backend, true).0,
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn fan_out_equals_the_sequential_arm_at_every_thread_count() {
        for backend in Backend::runnable() {
            assert_fan_out_is_sequential::<1>(backend);
            assert_fan_out_is_sequential::<4>(backend);
            assert_fan_out_is_sequential::<16>(backend);
        }
    }

    #[test]
    fn selector_sweep_agrees_with_scalar_definition() {
        use crate::builders::batcher::odd_even_merge_sort;
        for k in 0..=6 {
            assert_eq!(
                find_selector_violation(&odd_even_merge_sort(6), k, Backend::Scalar),
                Ok(None)
            );
        }
        let empty = Network::empty(5);
        assert_eq!(
            find_selector_violation(&empty, 0, Backend::Scalar),
            Ok(None)
        );
        let witness = find_selector_violation(&empty, 2, Backend::Scalar)
            .unwrap()
            .unwrap();
        // The scalar definition: output i (< k) must be 0 exactly when
        // i < |input|₀ — the empty network violates that on its witness.
        let out = empty.apply_bits(&witness);
        let zeros = witness.count_zeros();
        assert!((0..2).any(|i| out.get(i) != (i >= zeros)));
        // Every backend returns the same lowest witness.
        for backend in Backend::runnable() {
            assert_eq!(
                find_selector_violation(&empty, 2, backend),
                Ok(Some(witness)),
                "{}",
                backend.name()
            );
        }
    }
}
