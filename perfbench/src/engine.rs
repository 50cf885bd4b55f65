//! The adapter: the only module of the benchmark that names engine entry
//! points (`faults`, `testsets`, `lanes` and `service::oracle`).  When
//! the engine surface is collapsed, only this file changes.
//!
//! The lane width, the simulation engine and the lane-ops backend are
//! pinned here explicitly, never read from the environment.

use std::sync::Arc;

use sortnet_combinat::{BitString, ChannelVec};
use sortnet_faults::bitsim::{
    detection_matrix_from_source_packed_on, first_detections_multi_packed_on,
    redundant_faults_multi_on, DetectionMatrix,
};
use sortnet_faults::coverage::{
    check_coverage_inputs, summarise_verdicts, try_coverage_of_universe_packed_with,
    CoverageReport, RedundancyMode,
};
use sortnet_faults::universe::StandardUniverse;
use sortnet_faults::FaultSimEngine;
use sortnet_network::budget::{Budgeted, SweepBudget};
use sortnet_network::error::EngineError;
use sortnet_network::lanes::{Backend, BlockSource, IterSource, LaneWidth, RangeSource, WideBlock};
use sortnet_network::Network;
use sortnet_service::oracle::{self, OracleCaches, Request, Response};
use sortnet_service::ServiceConfig;
use sortnet_testsets::augment::{
    try_minimum_augmentation_packed, AugmentationReport, CandidatePool, SearchOptions,
    SetCoverInstance,
};
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};
use sortnet_testsets::{merging, selector, sorting};

use crate::trace::Tracer;

/// Lane width, in 64-bit words, of every timed sweep.
pub const WIDTH: usize = 4;

/// The simulation engine under test: bit-parallel at [`WIDTH`].
pub const ENGINE: FaultSimEngine = FaultSimEngine::BitParallelWide(LaneWidth::W4);

/// Largest line count whose references run on the scalar engine.  Above
/// it the scalar engine costs up to seconds per grade (Batcher n = 128
/// against sorted strings with single-runs redundancy: 33 s), so the
/// reference there is the one-word bit-parallel engine: a different lane
/// width, with the scalar lane backend.
pub const SCALAR_REFERENCE_MAX_LINES: usize = 12;

/// The lane-ops backend the service and the replays run on: the fastest
/// one this CPU can execute.
#[must_use]
pub fn pinned_backend() -> Backend {
    *Backend::runnable()
        .last()
        .expect("the scalar backend always runs")
}

/// The service configuration under test.
#[must_use]
pub fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        engine: ENGINE,
        backend: pinned_backend(),
        ..ServiceConfig::default()
    }
}

fn reference_engine(lines: usize) -> FaultSimEngine {
    if lines <= SCALAR_REFERENCE_MAX_LINES {
        FaultSimEngine::Scalar
    } else {
        FaultSimEngine::BitParallelWide(LaneWidth::W1)
    }
}

/// The reference answer for `request`: [`oracle::answer_cold`] under the
/// scalar engine and scalar backend (see [`SCALAR_REFERENCE_MAX_LINES`]).
/// A budgeted request is answered under the service's own engine: a
/// partial answer records how many blocks were committed, and block size
/// depends on the lane width.
#[must_use]
pub fn reference_answer(config: &ServiceConfig, request: &Request) -> Response {
    let reference = if request.budget.is_some() {
        config.clone()
    } else {
        ServiceConfig {
            engine: reference_engine(request.network.lines()),
            backend: Backend::Scalar,
            ..config.clone()
        }
    };
    oracle::answer_cold(&reference, request)
}

/// One served wave, answered by the oracle's batching path.
#[must_use]
pub fn answer_batch(
    config: &ServiceConfig,
    caches: &OracleCaches,
    requests: &[Request],
) -> Vec<Response> {
    oracle::answer_batch(config, caches, requests)
}

/// One coverage grade, as a caller of the engine states it.
#[derive(Clone, Debug)]
pub struct Grade {
    /// The graded network.
    pub network: Arc<Network>,
    /// The fault universe.
    pub universe: StandardUniverse,
    /// The test list, in order.
    pub tests: Arc<Vec<ChannelVec>>,
    /// How missed faults are classified.
    pub mode: RedundancyMode,
}

/// The grade, whole, on the engine under test.
///
/// # Errors
/// The engine's typed refusal.
pub fn grade(g: &Grade) -> Result<CoverageReport, EngineError> {
    try_coverage_of_universe_packed_with(&g.network, &g.universe, &g.tests[..], g.mode, ENGINE)
}

/// The grade on the reference engine.
///
/// # Errors
/// The engine's typed refusal.
pub fn reference_grade(g: &Grade) -> Result<CoverageReport, EngineError> {
    try_coverage_of_universe_packed_with(
        &g.network,
        &g.universe,
        &g.tests[..],
        g.mode,
        reference_engine(g.network.lines()),
    )
}

/// Fills blocks from `source` (span `lanes.fill`), then runs the
/// fault-free network over each of them (span `lanes.sweep`): the fill
/// and the comparator kernel of the lanes layer, each alone.
fn kernel_probe(t: &mut Tracer, network: &Network, mut source: impl BlockSource<WIDTH>) {
    let n = network.lines();
    let blocks: Vec<WideBlock<WIDTH>> = t.span("lanes.fill", |_| {
        let mut blocks = Vec::new();
        let mut block = WideBlock::<WIDTH>::zeroed(n);
        while source.next_block(&mut block) {
            blocks.push(block.clone());
        }
        blocks
    });
    let vectors: u64 = blocks.iter().map(|b| u64::from(b.count())).sum();
    t.count("lanes.vectors", vectors);
    t.count("lanes.blocks", blocks.len() as u64);
    let backend = pinned_backend();
    t.span("lanes.sweep", |_| {
        let mut work = WideBlock::<WIDTH>::zeroed(n);
        let mut unsorted = 0u32;
        for block in &blocks {
            work.copy_from(block);
            work.run_with(backend, network);
            unsorted += work
                .unsorted_masks_with(backend)
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>();
        }
        std::hint::black_box(unsorted)
    });
}

/// The grade replayed as its public steps, each in its own span:
/// `check_coverage_inputs`, `PackedFamily::collect`, a fill-and-kernel
/// probe over the test list, `first_detections_multi_packed_on`, the
/// redundancy pass (`redundant_faults_multi_on` or the relative family
/// pass), and `summarise_verdicts`.  The same grade is then run whole
/// (span `faults.coverage`); the caller asserts the two reports agree.
///
/// # Errors
/// The typed refusal of `check_coverage_inputs`.
pub fn replay_grade(
    t: &mut Tracer,
    g: &Grade,
) -> (
    Result<CoverageReport, EngineError>,
    Result<CoverageReport, EngineError>,
) {
    let replayed = replay_grade_steps(t, g);
    let whole = t.span("faults.coverage", |_| grade(g));
    (replayed, whole)
}

fn replay_grade_steps(t: &mut Tracer, g: &Grade) -> Result<CoverageReport, EngineError> {
    let network: &Network = &g.network;
    let tests: &[ChannelVec] = &g.tests;
    let n = network.lines();
    let backend = pinned_backend();
    let faults = t.span("faults.enumerate", |_| {
        check_coverage_inputs(network, &g.universe, tests, g.mode)
    })?;
    t.count("faults.faults", faults.len() as u64);
    let family: Vec<ChannelVec> = match g.mode {
        RedundancyMode::RelativeTo(family) => {
            let fam: Vec<ChannelVec> = t.span("lanes.family_collect", |_| family.collect(n));
            t.count("lanes.vectors", fam.len() as u64);
            fam
        }
        _ => Vec::new(),
    };
    kernel_probe(t, network, IterSource::new(n, tests.iter().cloned()));
    let first = t.span("faults.first_detect", |_| {
        first_detections_multi_packed_on::<WIDTH, ChannelVec>(network, &faults, tests, backend)
    });
    t.count(
        "faults.fault_vector_pairs",
        (faults.len() * tests.len()) as u64,
    );
    let mut redundant = vec![false; faults.len()];
    if g.mode != RedundancyMode::Skip {
        let missed_idx: Vec<usize> = (0..faults.len()).filter(|&i| first[i].is_none()).collect();
        let missed: Vec<_> = missed_idx.iter().map(|&i| faults[i]).collect();
        t.count("faults.redundancy_faults", missed.len() as u64);
        let verdicts: Vec<bool> = t.span("faults.redundancy", |_| match g.mode {
            RedundancyMode::Exhaustive => {
                redundant_faults_multi_on::<WIDTH>(network, &missed, backend)
            }
            _ => first_detections_multi_packed_on::<WIDTH, ChannelVec>(
                network, &missed, &family, backend,
            )
            .into_iter()
            .map(|first| first.is_none())
            .collect(),
        });
        for (&i, verdict) in missed_idx.iter().zip(verdicts) {
            redundant[i] = verdict;
        }
        t.count(
            "faults.redundant",
            redundant.iter().filter(|&&r| r).count() as u64,
        );
    }
    Ok(t.span("faults.summarise", |_| {
        summarise_verdicts(&faults, &first, &redundant, g.mode)
    }))
}

/// The strategy's block source, drained with no network applied:
/// `(vectors, blocks)`, or `None` for the permutation strategies, which
/// evaluate scalar permutations and have no block source.
fn drain_strategy_source(n: usize, property: Property, strategy: Strategy) -> Option<(u64, u64)> {
    fn drain(mut source: impl BlockSource<WIDTH>) -> (u64, u64) {
        let mut block = WideBlock::<WIDTH>::zeroed(source.lines());
        let (mut vectors, mut blocks) = (0u64, 0u64);
        while source.next_block(&mut block) {
            vectors += u64::from(block.count());
            blocks += 1;
        }
        (vectors, blocks)
    }
    match (property, strategy) {
        (_, Strategy::Permutation) => None,
        (Property::Sorter, Strategy::MinimalBinary) => Some(drain(sorting::binary_source(n))),
        (Property::Selector { k }, Strategy::MinimalBinary) => {
            Some(drain(selector::binary_source(n, k)))
        }
        (Property::Merger, Strategy::MinimalBinary) => Some(drain(merging::binary_source(n))),
        (Property::Merger, Strategy::Exhaustive) => {
            Some(drain(IterSource::new(n, BitString::all_half_sorted(n))))
        }
        (_, Strategy::Exhaustive) => Some(drain(RangeSource::exhaustive(n))),
    }
}

/// A verification replayed as two spans: draining the strategy's block
/// source (`lanes.fill`) and `try_verify_on` (`testsets.verify`).  A
/// passing verify also adds its fill and verify times to per-strategy
/// sums, the base of the fill-share metrics.
///
/// # Errors
/// The engine's typed refusal.
pub fn replay_verify(
    t: &mut Tracer,
    network: &Network,
    property: Property,
    strategy: Strategy,
) -> Result<Report, EngineError> {
    let n = network.lines();
    let drained = t.span("lanes.fill", |_| {
        drain_strategy_source(n, property, strategy)
    });
    let fill_ns = t.last_ns("lanes.fill");
    if let Some((vectors, blocks)) = drained {
        t.count("lanes.vectors", vectors);
        t.count("lanes.blocks", blocks);
    }
    let report = t.span("testsets.verify", |_| {
        try_verify_on(network, property, strategy, pinned_backend())
    });
    let verify_ns = t.last_ns("testsets.verify");
    if let Ok(r) = &report {
        t.count("testsets.verify_vectors", r.tests_run as u64);
        if r.passed {
            match strategy {
                Strategy::MinimalBinary => {
                    t.add_ns("verify.minimal_binary.fill", fill_ns);
                    t.add_ns("verify.minimal_binary.verify", verify_ns);
                }
                Strategy::Exhaustive => {
                    t.add_ns("verify.exhaustive.fill", fill_ns);
                    t.add_ns("verify.exhaustive.verify", verify_ns);
                }
                Strategy::Permutation => {}
            }
        }
    }
    report
}

/// The service's augmentation query replayed: the whole search
/// (`testsets.augment`), then its two stages alone: the candidate ×
/// missed-fault matrix (`testsets.candidate_matrix`) and the set-cover
/// search (`testsets.set_cover`).
///
/// # Errors
/// The engine's typed refusal.
pub fn replay_augment(
    t: &mut Tracer,
    config: &ServiceConfig,
    network: &Network,
    universe: StandardUniverse,
    tests: &[ChannelVec],
) -> Result<Budgeted<AugmentationReport<ChannelVec>>, EngineError> {
    let options = SearchOptions {
        engine: config.engine,
        node_budget: config.node_budget,
        budget: SweepBudget::unlimited(),
        redundancy: RedundancyMode::Exhaustive,
    };
    let out = t.span("testsets.augment", |_| {
        try_minimum_augmentation_packed::<ChannelVec>(
            network,
            &universe,
            tests,
            &CandidatePool::SortedStrings,
            &options,
        )
    });
    let Ok(budgeted) = &out else { return out };
    let report = budgeted.value();
    t.count("testsets.set_cover_nodes", report.search_nodes);
    let missed = &report.missed_faults;
    if !missed.is_empty() {
        let n = network.lines();
        let sorted = (0..=n).map(|ones| ChannelVec::sorted_of(n - ones, ones));
        let (matrix, candidates) = t.span("testsets.candidate_matrix", |_| {
            detection_matrix_from_source_packed_on::<WIDTH, ChannelVec, _>(
                network,
                missed,
                IterSource::new(n, sorted),
                pinned_backend(),
            )
        });
        let sets = candidate_sets(&matrix, missed.len(), candidates.len());
        t.span("testsets.set_cover", |_| {
            std::hint::black_box(
                SetCoverInstance::new(missed.len(), sets).solve(options.node_budget),
            )
        });
    }
    out
}

/// Per-candidate fault masks with empty and duplicate columns folded
/// away: the set-cover instance the augmentation search solves.
fn candidate_sets(matrix: &DetectionMatrix, faults: usize, candidates: usize) -> Vec<Vec<u64>> {
    let words = faults.div_ceil(64).max(1);
    let mut columns = vec![vec![0u64; words]; candidates];
    for f in 0..faults {
        for (w, &word) in matrix.row_words(f).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                columns[c][f / 64] |= 1u64 << (f % 64);
                bits &= bits - 1;
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    columns
        .into_iter()
        .filter(|c| c.iter().any(|&w| w != 0) && seen.insert(c.clone()))
        .collect()
}
