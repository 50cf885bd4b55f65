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
//! Each entry point comes in three forms: a `*_backend::<W>` const-generic
//! version with both the lane width and the lane-ops [`Backend`] exposed
//! (how the word kernels execute: scalar, portable-chunked or AVX2 — see
//! [`lanes::backend`]), a `*_wide::<W>` version on the runtime-detected
//! [`Backend::active`], and a convenience wrapper fixed at
//! [`lanes::DEFAULT_WIDTH`].  `W = 1` on the scalar backend reproduces the
//! original single-word sweep exactly; [`BitBlock`] is the `W = 1` block
//! type, kept as the interchange format with the fault-simulation engine.
//!
//! Sweeps are embarrassingly parallel across blocks, so
//! [`ParallelismHint::Rayon`] distributes block index ranges over the rayon
//! thread pool (a real `std::thread::scope`-backed pool in this
//! workspace's shim).  Every call spawns its scoped threads afresh, which
//! costs more than a whole single-threaded sweep up to about `n = 20`, so
//! below `n = 22` lines a `Rayon` sweep runs inline on the calling thread.
//! The answer does not change: the parallel witness search already returns
//! the sequential (lowest-word) witness.

use rayon::prelude::*;

use sortnet_combinat::BitString;

use crate::budget::{BudgetMeter, Budgeted, SweepBudget};
use crate::error::{self, EngineError};
use crate::lanes::{self, Backend, WideBlock};
use crate::network::Network;

/// Fewest lines at which a [`ParallelismHint::Rayon`] exhaustive sweep
/// actually fans out; smaller sweeps run sequentially on the calling
/// thread.  Each parallel call spawns scoped OS threads afresh.  Passing
/// `find_unsorted_input_backend::<4>` sweeps of Batcher sorters on a
/// 2-vCPU x86_64 (AVX2) host, Rayon vs Sequential, median µs:
///
/// | n | 8 | 12 | 16 | 20 | 21 | 22 | 24 |
/// |---|---|---|---|---|---|---|---|
/// | Rayon | 24 | 144 | 238 | 1 200 | 2 516 | 5 079 | 18 704 |
/// | Sequential | 0.2 | 4.2 | 86 | 1 101 | 3 905 | 8 028 | 20 777 |
///
/// `n = 21` flips between runs; from 22 lines on the pool wins.
const PARALLEL_MIN_LINES: usize = 22;

/// `true` when a sweep over `n` lines under `hint` should fan out over the
/// rayon pool (see [`PARALLEL_MIN_LINES`]).
fn fans_out(hint: ParallelismHint, n: usize) -> bool {
    hint == ParallelismHint::Rayon && n >= PARALLEL_MIN_LINES
}

/// A block of up to 64 binary input vectors in transposed form: the
/// single-word (`W = 1`) instance of [`WideBlock`].
pub type BitBlock = WideBlock<1>;

/// How an exhaustive sweep should be executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ParallelismHint {
    /// Single-threaded sweep.
    Sequential,
    /// Distribute blocks of `W × 64` vectors across the rayon thread pool
    /// (from 22 lines up; smaller sweeps run on the calling thread).
    #[default]
    Rayon,
}

/// Number of `W × 64`-vector blocks an exhaustive `2^n` sweep visits.
///
/// # Panics
/// Panics if `n ≥ 32` (a larger sweep would take > 4 G evaluations; callers
/// wanting larger `n` should use the test-set verifiers instead).
#[must_use]
pub fn sweep_block_count_wide<const W: usize>(n: usize) -> u64 {
    assert!(
        n < 32,
        "exhaustive 2^{n} sweep refused; use test-set verification"
    );
    (1u64 << n).div_ceil(u64::from(WideBlock::<W>::capacity()))
}

/// The `(start word, vector count)` of block `b` of the exhaustive `2^n`
/// sweep at width `W` — the shared arithmetic behind every blocked sweep in
/// this module and the fault-simulation engine.
///
/// # Panics
/// Panics if `n ≥ 32` or `b` is past the last block.
#[must_use]
pub fn sweep_block_range_wide<const W: usize>(n: usize, b: u64) -> (u64, u32) {
    assert!(
        b < sweep_block_count_wide::<W>(n),
        "block index {b} out of range"
    );
    let total: u64 = 1u64 << n;
    let start = b * u64::from(WideBlock::<W>::capacity());
    (
        start,
        (total - start).min(u64::from(WideBlock::<W>::capacity())) as u32,
    )
}

/// [`sweep_block_count_wide`] at `W = 1` (64-vector blocks).
#[must_use]
pub fn sweep_block_count(n: usize) -> u64 {
    sweep_block_count_wide::<1>(n)
}

/// [`sweep_block_range_wide`] at `W = 1` (64-vector blocks).
#[must_use]
pub fn sweep_block_range(n: usize, b: u64) -> (u64, u32) {
    sweep_block_range_wide::<1>(n, b)
}

/// Exhaustively checks the zero–one sorting property of `network` over all
/// `2^n` binary inputs, `W × 64` at a time.
///
/// Returns the first (lowest-word) input the network fails to sort, or
/// `None` if the network is a sorter.  The verdict and witness are
/// independent of `W` and of the parallelism hint.
///
/// # Panics
/// Panics if `n ≥ 32`.
#[must_use]
pub fn find_unsorted_input_wide<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
) -> Option<BitString> {
    find_unsorted_input_backend::<W>(network, hint, Backend::active())
}

/// [`find_unsorted_input_wide`] pinned to an explicit lane-ops [`Backend`]
/// (the plain form uses the runtime-detected one).
///
/// # Panics
/// Panics if `n ≥ 32`.
#[must_use]
pub fn find_unsorted_input_backend<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
    backend: Backend,
) -> Option<BitString> {
    let n = network.lines();
    let block_count = sweep_block_count_wide::<W>(n);

    let check_block = |b: u64| -> Option<BitString> {
        let (start, count) = sweep_block_range_wide::<W>(n, b);
        let mut block = WideBlock::<W>::from_range(n, start, count);
        block.run_with(backend, network);
        lanes::mask_first(&block.unsorted_masks_with(backend))
            .map(|j| BitString::from_word(start + u64::from(j), n))
    };

    if fans_out(hint, n) {
        // `find_map_first` keeps the lowest-word witness (blocks are in
        // ascending word order) and short-circuits, matching the
        // sequential arm's early exit on the first failing block.
        (0..block_count).into_par_iter().find_map_first(check_block)
    } else {
        (0..block_count).find_map(check_block)
    }
}

/// [`find_unsorted_input_wide`] at the default lane width.
#[must_use]
pub fn find_unsorted_input(network: &Network, hint: ParallelismHint) -> Option<BitString> {
    find_unsorted_input_wide::<{ lanes::DEFAULT_WIDTH }>(network, hint)
}

/// [`find_unsorted_input_backend`] with the sweep size checked up front,
/// returning a typed error instead of a panic.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn try_find_unsorted_input_backend<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
    backend: Backend,
) -> Result<Option<BitString>, EngineError> {
    error::ensure_sweepable(network.lines())?;
    Ok(find_unsorted_input_backend::<W>(network, hint, backend))
}

/// [`try_find_unsorted_input_backend`] at the default lane width on the
/// runtime-detected backend.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn try_find_unsorted_input(
    network: &Network,
    hint: ParallelismHint,
) -> Result<Option<BitString>, EngineError> {
    try_find_unsorted_input_backend::<{ lanes::DEFAULT_WIDTH }>(network, hint, Backend::active())
}

/// The exhaustive sorter sweep under a [`SweepBudget`], checked per
/// block.  Runs sequentially (block-granular metering and the rayon
/// fan-out do not compose), so a budgeted sweep trades the thread-pool
/// speed-up for interruptibility.
///
/// A [`Budgeted::Partial`] outcome carries `None`: no unsorted input was
/// found among the committed blocks (the verdict for the unswept
/// remainder is open).  A witness found inside the budget completes the
/// sweep early as usual.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn find_unsorted_input_budgeted<const W: usize>(
    network: &Network,
    budget: &SweepBudget,
    backend: Backend,
) -> Result<Budgeted<Option<BitString>>, EngineError> {
    let n = network.lines();
    error::ensure_sweepable(n)?;
    let block_count = sweep_block_count_wide::<W>(n);
    let mut meter = BudgetMeter::new(budget);
    for b in 0..block_count {
        let (start, count) = sweep_block_range_wide::<W>(n, b);
        if !meter.admit_block(u64::from(count)) {
            break;
        }
        let mut block = WideBlock::<W>::from_range(n, start, count);
        block.run_with(backend, network);
        if let Some(j) = lanes::mask_first(&block.unsorted_masks_with(backend)) {
            return Ok(meter.finish(Some(BitString::from_word(start + u64::from(j), n))));
        }
    }
    Ok(meter.finish(None))
}

/// `true` iff `network` sorts every 0/1 input (and hence, by the zero–one
/// principle, every input), swept at width `W`.
#[must_use]
pub fn is_sorter_exhaustive_wide<const W: usize>(network: &Network, hint: ParallelismHint) -> bool {
    find_unsorted_input_wide::<W>(network, hint).is_none()
}

/// [`is_sorter_exhaustive_wide`] pinned to an explicit lane-ops
/// [`Backend`].
#[must_use]
pub fn is_sorter_exhaustive_backend<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
    backend: Backend,
) -> bool {
    find_unsorted_input_backend::<W>(network, hint, backend).is_none()
}

/// [`is_sorter_exhaustive_wide`] at the default lane width.
#[must_use]
pub fn is_sorter_exhaustive(network: &Network, hint: ParallelismHint) -> bool {
    find_unsorted_input(network, hint).is_none()
}

/// Counts how many of the `2^n` binary inputs the network fails to sort.
///
/// # Panics
/// Panics if `n ≥ 32`.
#[must_use]
pub fn count_unsorted_outputs_wide<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
) -> u64 {
    count_unsorted_outputs_backend::<W>(network, hint, Backend::active())
}

/// [`count_unsorted_outputs_wide`] pinned to an explicit lane-ops
/// [`Backend`].
///
/// # Panics
/// Panics if `n ≥ 32`.
#[must_use]
pub fn count_unsorted_outputs_backend<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
    backend: Backend,
) -> u64 {
    let n = network.lines();
    let block_count = sweep_block_count_wide::<W>(n);
    let count_block = |b: u64| -> u64 {
        let (start, count) = sweep_block_range_wide::<W>(n, b);
        let mut block = WideBlock::<W>::from_range(n, start, count);
        block.run_with(backend, network);
        u64::from(lanes::mask_count(&block.unsorted_masks_with(backend)))
    };
    if fans_out(hint, n) {
        (0..block_count).into_par_iter().map(count_block).sum()
    } else {
        (0..block_count).map(count_block).sum()
    }
}

/// [`count_unsorted_outputs_wide`] at the default lane width.
#[must_use]
pub fn count_unsorted_outputs(network: &Network, hint: ParallelismHint) -> u64 {
    count_unsorted_outputs_wide::<{ lanes::DEFAULT_WIDTH }>(network, hint)
}

/// [`count_unsorted_outputs_backend`] with the sweep size checked up
/// front.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn try_count_unsorted_outputs_backend<const W: usize>(
    network: &Network,
    hint: ParallelismHint,
    backend: Backend,
) -> Result<u64, EngineError> {
    error::ensure_sweepable(network.lines())?;
    Ok(count_unsorted_outputs_backend::<W>(network, hint, backend))
}

/// The unsorted-output count under a [`SweepBudget`] (sequential; see
/// [`find_unsorted_input_budgeted`] for why).  A
/// [`Budgeted::Partial`] count is exact for the committed blocks and
/// therefore a **lower bound** on the full count.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
pub fn count_unsorted_outputs_budgeted<const W: usize>(
    network: &Network,
    budget: &SweepBudget,
    backend: Backend,
) -> Result<Budgeted<u64>, EngineError> {
    let n = network.lines();
    error::ensure_sweepable(n)?;
    let block_count = sweep_block_count_wide::<W>(n);
    let mut meter = BudgetMeter::new(budget);
    let mut unsorted = 0u64;
    for b in 0..block_count {
        let (start, count) = sweep_block_range_wide::<W>(n, b);
        if !meter.admit_block(u64::from(count)) {
            break;
        }
        let mut block = WideBlock::<W>::from_range(n, start, count);
        block.run_with(backend, network);
        unsorted += u64::from(lanes::mask_count(&block.unsorted_masks_with(backend)));
    }
    Ok(meter.finish(unsorted))
}

/// Exhaustively checks the `(k, n)`-selection property over all `2^n`
/// binary inputs, `W × 64` vectors at a time, returning the first
/// (lowest-word) input whose first `k` outputs are wrong, or `None` for a
/// valid selector.
///
/// Per block, the candidate outputs are compared lane-by-lane against the
/// outputs of a known-good reference sorter (Batcher's merge-exchange
/// network, itself certified by [`is_sorter_exhaustive`] in this crate's
/// tests): vector `j` violates selection iff some lane `i < k` of the two
/// outputs differs.
///
/// # Panics
/// Panics if `k > n` or `n ≥ 32`.
#[must_use]
pub fn find_selector_violation_wide<const W: usize>(
    network: &Network,
    k: usize,
    hint: ParallelismHint,
) -> Option<BitString> {
    find_selector_violation_backend::<W>(network, k, hint, Backend::active())
}

/// [`find_selector_violation_wide`] pinned to an explicit lane-ops
/// [`Backend`].
///
/// # Panics
/// Panics if `k > n` or `n ≥ 32`.
#[must_use]
pub fn find_selector_violation_backend<const W: usize>(
    network: &Network,
    k: usize,
    hint: ParallelismHint,
    backend: Backend,
) -> Option<BitString> {
    let n = network.lines();
    assert!(k <= n, "k = {k} exceeds n = {n}");
    let block_count = sweep_block_count_wide::<W>(n);
    if k == 0 {
        return None;
    }
    let reference = crate::builders::batcher::odd_even_merge_sort(n);

    let check_block = |b: u64| -> Option<BitString> {
        let (start, count) = sweep_block_range_wide::<W>(n, b);
        let inputs = WideBlock::<W>::from_range(n, start, count);
        let mut out = inputs.clone();
        out.run_with(backend, network);
        let mut sorted = inputs;
        sorted.run_with(backend, &reference);
        let wrong = lanes::selector_violation_masks_with(&out, &sorted, k, backend);
        lanes::mask_first(&wrong).map(|j| BitString::from_word(start + u64::from(j), n))
    };

    if fans_out(hint, n) {
        // As in `find_unsorted_input_wide`: first block in ascending order
        // is the lowest-word witness, and the sweep stops at the first
        // violation.
        (0..block_count).into_par_iter().find_map_first(check_block)
    } else {
        (0..block_count).find_map(check_block)
    }
}

/// [`find_selector_violation_wide`] at the default lane width.
#[must_use]
pub fn find_selector_violation(
    network: &Network,
    k: usize,
    hint: ParallelismHint,
) -> Option<BitString> {
    find_selector_violation_wide::<{ lanes::DEFAULT_WIDTH }>(network, k, hint)
}

/// `true` iff `network` is a `(k, n)`-selector (bit-parallel exhaustive
/// sweep; see [`find_selector_violation_wide`]).
#[must_use]
pub fn is_selector_exhaustive(network: &Network, k: usize, hint: ParallelismHint) -> bool {
    find_selector_violation(network, k, hint).is_none()
}

/// [`find_selector_violation_backend`] with both parameters checked up
/// front.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`;
/// [`EngineError::IndexOutOfRange`] when `k > n`.
pub fn try_find_selector_violation_backend<const W: usize>(
    network: &Network,
    k: usize,
    hint: ParallelismHint,
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
    Ok(find_selector_violation_backend::<W>(
        network, k, hint, backend,
    ))
}

/// Runs `network` over an arbitrary list of 0/1 test vectors (in
/// `W × 64`-wide blocks at the default width) and returns the inputs whose
/// outputs are not sorted.
#[must_use]
pub fn failing_inputs_from(network: &Network, tests: &[BitString]) -> Vec<BitString> {
    let n = network.lines();
    let mut failures = Vec::new();
    for chunk in tests.chunks(WideBlock::<{ lanes::DEFAULT_WIDTH }>::capacity() as usize) {
        let mut block = WideBlock::<{ lanes::DEFAULT_WIDTH }>::from_strings(n, chunk);
        block.run(network);
        let mask = block.unsorted_masks();
        for (j, input) in chunk.iter().enumerate() {
            if (mask[j / 64] >> (j % 64)) & 1 == 1 {
                failures.push(*input);
            }
        }
    }
    failures
}

/// [`failing_inputs_from`] with the test-vector lengths checked up
/// front, returning a typed error instead of a block-builder panic.
///
/// # Errors
/// [`EngineError::InputLengthMismatch`] when any test's length disagrees
/// with the network's line count.
pub fn try_failing_inputs_from(
    network: &Network,
    tests: &[BitString],
) -> Result<Vec<BitString>, EngineError> {
    let n = network.lines();
    for t in tests {
        if t.len() != n {
            return Err(EngineError::InputLengthMismatch {
                expected: n,
                actual: t.len(),
            });
        }
    }
    Ok(failing_inputs_from(network, tests))
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

    #[test]
    fn block_run_matches_scalar_evaluation() {
        let net = fig1();
        let inputs: Vec<_> = BitString::all(4).collect();
        let mut block = BitBlock::from_strings(4, &inputs[..16]);
        block.run(&net);
        for (j, input) in inputs[..16].iter().enumerate() {
            assert_eq!(
                block.extract(j as u32),
                net.apply_bits(input),
                "input {input}"
            );
        }
    }

    #[test]
    fn unsorted_mask_matches_scalar_sortedness() {
        let net = fig1();
        let inputs: Vec<_> = BitString::all(4).collect();
        let mut block = BitBlock::from_strings(4, &inputs);
        block.run(&net);
        let mask = block.unsorted_mask();
        for (j, input) in inputs.iter().enumerate() {
            let scalar_unsorted = !net.apply_bits(input).is_sorted();
            assert_eq!((mask >> j) & 1 == 1, scalar_unsorted, "input {input}");
        }
    }

    #[test]
    fn exhaustive_check_accepts_a_real_sorter() {
        assert!(is_sorter_exhaustive(
            &batcher4(),
            ParallelismHint::Sequential
        ));
        assert!(is_sorter_exhaustive(&batcher4(), ParallelismHint::Rayon));
    }

    #[test]
    fn exhaustive_check_rejects_fig1_and_reports_lowest_failure() {
        let seq = find_unsorted_input(&fig1(), ParallelismHint::Sequential);
        let par = find_unsorted_input(&fig1(), ParallelismHint::Rayon);
        assert!(seq.is_some());
        assert_eq!(seq, par, "sequential and rayon sweeps must agree");
        let failing = seq.unwrap();
        assert!(!fig1().apply_bits(&failing).is_sorted());
    }

    #[test]
    fn all_widths_agree_on_witness_and_count() {
        for net in [fig1(), batcher4(), Network::empty(4)] {
            let w1 = find_unsorted_input_wide::<1>(&net, ParallelismHint::Sequential);
            let w2 = find_unsorted_input_wide::<2>(&net, ParallelismHint::Sequential);
            let w4 = find_unsorted_input_wide::<4>(&net, ParallelismHint::Rayon);
            assert_eq!(w1, w2, "net {net}");
            assert_eq!(w1, w4, "net {net}");
            let c1 = count_unsorted_outputs_wide::<1>(&net, ParallelismHint::Sequential);
            let c2 = count_unsorted_outputs_wide::<2>(&net, ParallelismHint::Rayon);
            let c4 = count_unsorted_outputs_wide::<4>(&net, ParallelismHint::Sequential);
            assert_eq!(c1, c2, "net {net}");
            assert_eq!(c1, c4, "net {net}");
        }
    }

    #[test]
    fn count_unsorted_outputs_agrees_with_scalar_count() {
        for net in [fig1(), batcher4(), Network::empty(4)] {
            let scalar = BitString::all(4)
                .filter(|s| !net.apply_bits(s).is_sorted())
                .count() as u64;
            assert_eq!(
                count_unsorted_outputs(&net, ParallelismHint::Sequential),
                scalar
            );
            assert_eq!(count_unsorted_outputs(&net, ParallelismHint::Rayon), scalar);
        }
    }

    #[test]
    fn empty_network_fails_on_every_unsorted_input() {
        let empty = Network::empty(6);
        let expected = (1u64 << 6) - 6 - 1;
        assert_eq!(
            count_unsorted_outputs(&empty, ParallelismHint::Rayon),
            expected
        );
    }

    #[test]
    fn failing_inputs_from_selects_exactly_the_failures() {
        let net = fig1();
        let tests: Vec<_> = BitString::all(4).collect();
        let failures = failing_inputs_from(&net, &tests);
        for f in &failures {
            assert!(!net.apply_bits(f).is_sorted());
        }
        let expected = count_unsorted_outputs(&net, ParallelismHint::Sequential) as usize;
        assert_eq!(failures.len(), expected);
    }

    #[test]
    fn blocks_of_odd_sizes_mask_out_dead_lanes() {
        let net = Network::empty(3);
        let inputs: Vec<_> = BitString::all(3).take(5).collect();
        let mut block = BitBlock::from_strings(3, &inputs);
        block.run(&net);
        assert_eq!(block.count(), 5);
        assert_eq!(block.unsorted_mask() >> 5, 0, "dead lanes must stay clear");
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
        for cut in 0..=net.size() {
            let mut split = BitBlock::from_range(4, 0, 16);
            split.run_range(&net, 0, cut);
            split.run_range(&net, cut, net.size());
            let mut whole = BitBlock::from_range(4, 0, 16);
            whole.run(&net);
            assert_eq!(split, whole, "cut at {cut}");
        }
    }

    #[test]
    fn copy_from_forks_a_shared_prefix() {
        let net = batcher4();
        let mut prefix = BitBlock::from_range(4, 0, 16);
        prefix.run_range(&net, 0, 2);
        let mut fork = BitBlock::from_range(4, 48, 5);
        fork.copy_from(&prefix);
        assert_eq!(fork, prefix);
        fork.run_range(&net, 2, net.size());
        let mut direct = BitBlock::from_range(4, 0, 16);
        direct.run(&net);
        assert_eq!(fork, direct);
    }

    #[test]
    fn lane_level_fault_hooks_behave_as_specified() {
        let mut block = BitBlock::from_range(3, 0, 8);
        let (a, b) = (block.lane(0), block.lane(2));
        block.swap_lanes(0, 2);
        assert_eq!((block.lane(0), block.lane(2)), (b, a));
        block.map_pair(0, 2, |x, y| (x | y, x & y));
        assert_eq!((block.lane(0), block.lane(2)), (a | b, a & b));
        // An inverted comparator is apply_comparator with the lines swapped.
        let mut inv = BitBlock::from_range(3, 0, 8);
        inv.apply_comparator(2, 0);
        assert_eq!(inv.lane(2), a & b);
        assert_eq!(inv.lane(0), a | b);
    }

    #[test]
    fn try_variants_reject_hostile_inputs_and_agree_otherwise() {
        let net = batcher4();
        assert_eq!(
            try_find_unsorted_input(&net, ParallelismHint::Sequential).unwrap(),
            None
        );
        let big = Network::empty(40);
        assert_eq!(
            try_find_unsorted_input(&big, ParallelismHint::Sequential).unwrap_err(),
            EngineError::SweepTooLarge { lines: 40 }
        );
        assert!(matches!(
            try_count_unsorted_outputs_backend::<1>(
                &big,
                ParallelismHint::Sequential,
                Backend::Scalar
            ),
            Err(EngineError::SweepTooLarge { lines: 40 })
        ));
        assert!(matches!(
            try_find_selector_violation_backend::<1>(
                &net,
                9,
                ParallelismHint::Sequential,
                Backend::Scalar
            ),
            Err(EngineError::IndexOutOfRange { index: 9, .. })
        ));
        let mismatched = vec![BitString::zeros(5)];
        assert!(matches!(
            try_failing_inputs_from(&net, &mismatched),
            Err(EngineError::InputLengthMismatch {
                expected: 4,
                actual: 5
            })
        ));
    }

    #[test]
    fn budgeted_exhaustive_sweeps_degrade_to_exact_prefixes() {
        use crate::budget::SweepBudget;
        let sorter = crate::builders::batcher::odd_even_merge_sort(9);
        // 2^9 = 8 one-word blocks; cap at 2.
        let budget = SweepBudget::unlimited().with_max_blocks(2);
        let partial = find_unsorted_input_budgeted::<1>(&sorter, &budget, Backend::Scalar).unwrap();
        assert!(!partial.is_complete());
        assert_eq!(*partial.value(), None);
        let full =
            find_unsorted_input_budgeted::<1>(&sorter, &SweepBudget::unlimited(), Backend::Scalar)
                .unwrap();
        assert!(full.is_complete());
        // Budgeted counting is a lower bound that matches the full count
        // on the committed prefix.
        let empty = Network::empty(8);
        let capped = count_unsorted_outputs_budgeted::<1>(
            &empty,
            &SweepBudget::unlimited().with_max_blocks(2),
            Backend::Scalar,
        )
        .unwrap();
        let scalar_prefix = BitString::all(8)
            .take(128)
            .filter(|s| !s.is_sorted())
            .count() as u64;
        assert_eq!(*capped.value(), scalar_prefix);
        let full_count = count_unsorted_outputs_budgeted::<1>(
            &empty,
            &SweepBudget::unlimited(),
            Backend::Scalar,
        )
        .unwrap();
        assert!(full_count.is_complete());
        assert_eq!(
            *full_count.value(),
            count_unsorted_outputs(&empty, ParallelismHint::Sequential)
        );
        assert!(*capped.value() <= *full_count.value());
    }

    #[test]
    fn rayon_answers_equal_sequential_across_the_parallel_cutoff() {
        use crate::builders::batcher::odd_even_merge_sort;
        // n = 21 runs the Rayon hint inline, n = 22 fans out; both must
        // give the sequential answer for a sorter and for a sorter with
        // its middle comparator removed (failures spread over many blocks).
        for n in [PARALLEL_MIN_LINES - 1, PARALLEL_MIN_LINES] {
            let sorter = odd_even_merge_sort(n);
            let broken = sorter.without_comparator(sorter.size() / 2);
            for backend in Backend::runnable() {
                for (net, passes) in [(&sorter, true), (&broken, false)] {
                    let label = format!("n={n} {} passes={passes}", backend.name());
                    let sweeps = |hint| {
                        (
                            find_unsorted_input_backend::<16>(net, hint, backend),
                            find_selector_violation_backend::<16>(net, n / 2, hint, backend),
                            count_unsorted_outputs_backend::<16>(net, hint, backend),
                        )
                    };
                    let sequential = sweeps(ParallelismHint::Sequential);
                    assert_eq!(sweeps(ParallelismHint::Rayon), sequential, "{label}");
                    assert_eq!(sequential.0.is_none(), passes, "{label}");
                    assert_eq!(sequential.1.is_none(), passes, "{label}");
                    assert_eq!(sequential.2 == 0, passes, "{label}");
                }
            }
            let wide = |hint| count_unsorted_outputs_wide::<4>(&broken, hint);
            assert_eq!(
                wide(ParallelismHint::Rayon),
                wide(ParallelismHint::Sequential),
                "n={n}"
            );
        }
    }

    #[test]
    fn selector_sweep_agrees_with_scalar_definition() {
        use crate::builders::batcher::odd_even_merge_sort;
        for k in 0..=6 {
            assert!(find_selector_violation_wide::<2>(
                &odd_even_merge_sort(6),
                k,
                ParallelismHint::Sequential
            )
            .is_none());
        }
        let empty = Network::empty(5);
        assert!(is_selector_exhaustive(&empty, 0, ParallelismHint::Rayon));
        let witness = find_selector_violation(&empty, 2, ParallelismHint::Sequential).unwrap();
        // The scalar definition: output i (< k) must be 0 exactly when
        // i < |input|₀ — the empty network violates that on its witness.
        let out = empty.apply_bits(&witness);
        let zeros = witness.count_zeros();
        assert!((0..2).any(|i| out.get(i) != (i >= zeros)));
        // Sequential and rayon sweeps return the same lowest witness, at
        // every width.
        assert_eq!(
            find_selector_violation(&empty, 2, ParallelismHint::Rayon),
            Some(witness)
        );
        assert_eq!(
            find_selector_violation_wide::<1>(&empty, 2, ParallelismHint::Sequential),
            Some(witness)
        );
    }
}
