//! Cancellation-safety suite for the budgeted sweep entry points.
//!
//! The contract under test: whenever a [`CancelToken`] (or any other
//! budget trip) cuts a sweep off, the partial result exposes **no
//! partially-built rows** — a block's contribution is either committed
//! whole or discarded whole, so everything observable is an exact prefix
//! of the unbudgeted answer.  Exercised at lane widths 1, 4 and 8 and on
//! every runnable lane-ops backend, since the commit/discard points sit in
//! width- and backend-generic code.

use std::time::{Duration, Instant};

use sortnet_combinat::{BitString, ChannelVec};
use sortnet_faults::bitsim::{
    detection_matrix_from_source_metered_on, detection_matrix_from_source_packed_on,
    first_detections_multi_budgeted_packed_on,
};
use sortnet_faults::coverage::{
    coverage_of_universe_budgeted_packed_with, FaultSimEngine, RedundancyMode,
};
use sortnet_faults::universe::{FaultUniverse, MultiFault, StandardUniverse};
use sortnet_faults::{
    BudgetMeter, BudgetReason, Budgeted, CancelToken, DetectionMatrix, EngineError, SweepBudget,
};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, LaneWidth, PackedFamily, SliceSource};
use sortnet_network::Network;

/// The unbudgeted matrix of an explicit test list.
fn matrix_on<const W: usize>(
    net: &Network,
    faults: &[MultiFault],
    tests: &[BitString],
    backend: Backend,
) -> DetectionMatrix {
    let source = SliceSource::new(net.lines(), tests);
    detection_matrix_from_source_packed_on::<W, BitString, _>(net, faults, source, backend).0
}

/// The budgeted matrix of an explicit test list, without the echo.
fn matrix_budgeted_on<const W: usize>(
    net: &Network,
    faults: &[MultiFault],
    tests: &[BitString],
    backend: Backend,
    budget: &SweepBudget,
) -> Result<Budgeted<DetectionMatrix>, EngineError> {
    let source = SliceSource::new(net.lines(), tests);
    let mut meter = BudgetMeter::new(budget);
    let (matrix, _) = detection_matrix_from_source_metered_on::<W, BitString, _>(
        net, faults, source, backend, &mut meter,
    )?;
    Ok(meter.finish(matrix))
}

fn all_inputs(n: usize) -> Vec<BitString> {
    (0..1u32 << n)
        .map(|v| {
            BitString::parse(
                &(0..n)
                    .map(|i| if (v >> i) & 1 == 1 { '1' } else { '0' })
                    .collect::<String>(),
            )
            .unwrap()
        })
        .collect()
}

fn fixture() -> (Network, Vec<MultiFault>, Vec<BitString>) {
    let net = odd_even_merge_sort(6);
    let faults: Vec<MultiFault> = StandardUniverse::StuckLine.iter(&net).collect();
    // 576 tests: more than one block at every exercised width (64-vector
    // W1 blocks up to 512-vector W8 blocks), so max_blocks(1) always cuts
    // mid-stream.
    let inputs = all_inputs(6);
    let tests: Vec<BitString> = inputs
        .iter()
        .cycle()
        .take(inputs.len() * 9)
        .copied()
        .collect();
    (net, faults, tests)
}

/// Asserts `partial` is an exact prefix of `full`: identical bits for
/// every committed test, and *no* detection at or past the cut.
fn assert_exact_prefix(partial: &DetectionMatrix, full: &DetectionMatrix) {
    assert!(partial.test_count() <= full.test_count());
    assert_eq!(partial.fault_count(), full.fault_count());
    for f in 0..full.fault_count() {
        for t in 0..partial.test_count() {
            assert_eq!(
                partial.is_detected_by(f, t),
                full.is_detected_by(f, t),
                "committed prefix must match the full matrix (fault {f}, test {t})"
            );
        }
    }
}

/// Cuts a `W`-wide matrix sweep on `backend` short and checks what is
/// left against the scalar backend's full matrix.
fn cancelled_matrix_has_no_partial_rows<const W: usize>(backend: Backend) {
    let (net, faults, tests) = fixture();
    let full = matrix_on::<W>(&net, &faults, &tests, Backend::Scalar);

    // Pre-tripped token: the very first block admission refuses, so the
    // partial matrix must be completely empty — not one row started.
    let token = CancelToken::new();
    token.cancel();
    let budget = SweepBudget::unlimited().with_cancel(token);
    let outcome =
        matrix_budgeted_on::<W>(&net, &faults, &tests, backend, &budget).expect("inputs are valid");
    let Budgeted::Partial {
        progress,
        reason,
        best_so_far,
    } = outcome
    else {
        panic!("a cancelled sweep must report Partial");
    };
    assert_eq!(reason, BudgetReason::Cancelled);
    assert_eq!(progress.blocks, 0);
    assert_eq!(best_so_far.test_count(), 0, "no partial rows observable");
    assert!(
        (0..best_so_far.fault_count()).all(|f| !best_so_far.detected(f)),
        "an empty prefix detects nothing"
    );

    // Mid-stream trip (after one committed block): the surviving rows are
    // an exact whole-block prefix of the full matrix, never a torn block.
    let budget = SweepBudget::unlimited().with_max_blocks(1);
    let outcome =
        matrix_budgeted_on::<W>(&net, &faults, &tests, backend, &budget).expect("inputs are valid");
    let Budgeted::Partial {
        progress,
        reason,
        best_so_far,
    } = outcome
    else {
        panic!("576 tests exceed one block at every exercised width");
    };
    assert_eq!(reason, BudgetReason::Blocks);
    assert_eq!(progress.blocks, 1);
    assert_eq!(
        best_so_far.test_count() % (W * 64),
        0,
        "the cut must land on a whole-block boundary"
    );
    assert_exact_prefix(&best_so_far, &full);
}

#[test]
fn cancelled_matrices_have_no_partial_rows_at_w1() {
    cancelled_matrix_has_no_partial_rows::<1>(Backend::active());
}

#[test]
fn cancelled_matrices_have_no_partial_rows_at_w4() {
    cancelled_matrix_has_no_partial_rows::<4>(Backend::active());
}

#[test]
fn cancelled_matrices_have_no_partial_rows_at_w8() {
    cancelled_matrix_has_no_partial_rows::<8>(Backend::active());
}

#[test]
fn cancelled_matrices_have_no_partial_rows_on_every_runnable_backend() {
    for backend in Backend::runnable() {
        cancelled_matrix_has_no_partial_rows::<1>(backend);
        cancelled_matrix_has_no_partial_rows::<4>(backend);
    }
}

#[test]
fn a_token_cancelled_between_blocks_leaves_first_detections_prefix_exact() {
    let (net, faults, tests) = fixture();
    let full = matrix_on::<1>(&net, &faults, &tests, Backend::Scalar);
    let budget = SweepBudget::unlimited().with_max_blocks(1);
    for backend in Backend::runnable() {
        let firsts = first_detections_multi_budgeted_packed_on::<1, BitString>(
            &net, &faults, &tests, backend, &budget,
        )
        .expect("inputs are valid");
        let Budgeted::Partial {
            progress,
            best_so_far,
            ..
        } = firsts
        else {
            panic!("576 tests exceed one 64-vector W1 block");
        };
        let committed = progress.vectors as usize;
        assert_eq!(committed % 64, 0);
        for (f, first) in best_so_far.iter().enumerate() {
            match first {
                Some(t) => {
                    assert!(*t < committed, "a reported hit must lie in the prefix");
                    assert_eq!(full.first_detection(f), Some(*t));
                }
                None => {
                    // Undecided within the prefix: the full answer, if any,
                    // must lie past the committed cut.
                    if let Some(t) = full.first_detection(f) {
                        assert!(t >= committed, "a prefix hit must not be dropped");
                    }
                }
            }
        }
    }
}

#[test]
fn a_cancelled_coverage_run_is_conservative_on_every_engine_and_width() {
    let (net, _, tests) = fixture();
    let token = CancelToken::new();
    token.cancel();
    let budget = SweepBudget::unlimited().with_cancel(token);
    for (engine, backend) in [
        FaultSimEngine::Scalar,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
        FaultSimEngine::BitParallelWide(LaneWidth::W1),
        FaultSimEngine::BitParallelWide(LaneWidth::W8),
    ]
    .into_iter()
    .zip(Backend::runnable().into_iter().cycle())
    {
        let outcome = coverage_of_universe_budgeted_packed_with(
            &net,
            &StandardUniverse::StuckLine,
            &tests,
            RedundancyMode::Skip,
            engine,
            backend,
            &budget,
        )
        .expect("inputs are valid");
        let Budgeted::Partial {
            reason,
            best_so_far,
            ..
        } = outcome
        else {
            panic!("a pre-cancelled token must trip {engine:?}");
        };
        assert_eq!(reason, BudgetReason::Cancelled);
        assert_eq!(
            best_so_far.detected, 0,
            "nothing committed, so nothing may claim detection ({engine:?})"
        );
        assert_eq!(
            best_so_far.missed + best_so_far.redundant_faults,
            best_so_far.total_faults,
            "undecided faults must land in missed, conservatively ({engine:?})"
        );
    }
}

#[test]
fn a_tight_budget_stops_a_wide_relative_grade_before_the_family_is_built() {
    // Relative to the weight ≤ 2 strings, a 1024-line grade has 524 801
    // family vectors.  Neither a one-block cap nor a 1 ms deadline may
    // wait for the whole family to be built before the first block is
    // admitted.
    let n = 1024;
    let net = Network::from_pairs(n, &[(0, n - 1)]);
    let mode = RedundancyMode::RelativeTo(PackedFamily::WeightAtMost(2));
    let tests: Vec<ChannelVec> = Vec::new();
    let backends = Backend::runnable();
    for (i, engine) in [
        FaultSimEngine::Scalar,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
    ]
    .into_iter()
    .enumerate()
    {
        for deadline in [false, true] {
            // The deadline starts with the grade, not with the loop.
            let budget = if deadline {
                SweepBudget::unlimited().with_deadline_in(Duration::from_millis(1))
            } else {
                SweepBudget::unlimited().with_max_blocks(1)
            };
            let start = Instant::now();
            coverage_of_universe_budgeted_packed_with(
                &net,
                &StandardUniverse::StuckLine,
                &tests,
                mode,
                engine,
                backends[i % backends.len()],
                &budget,
            )
            .expect("inputs are valid");
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "{engine:?} {budget:?} took {elapsed:?}"
            );
        }
    }
}
