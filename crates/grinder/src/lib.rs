//! # sortnet-grinder
//!
//! A seeded differential fuzz grinder for the fault-simulation engines.
//!
//! The workspace keeps three implementations of the same detection
//! semantics: the scalar reference (`sortnet_faults::universe`), the
//! width-generic bit-parallel engine (`sortnet_faults::bitsim`) and the
//! runtime-selected lane-ops backends underneath it
//! (`sortnet_network::lanes::Backend`: scalar / portable-chunked / AVX2).
//! The structured differential test suites hold them together on curated
//! networks; the grinder holds them together on *random* ones.
//!
//! Each case is a deterministic function of `(seed, case index)`: a random
//! network (3–9 lines, 0–12 comparators), a random standard fault universe,
//! and a random test list (1–96 vectors, so both one- and two-word matrix
//! rows occur).  The scalar engine's verdict for every fault × test is the
//! oracle; the case fails when any bit-parallel matrix (each runnable
//! backend × lane widths 1 and 4) disagrees, or when scalar and
//! bit-parallel coverage reports diverge on the case's backend (the
//! runnable backends in turn by case index).
//!
//! Every fourth case instead crosses the 64-line wall: 65–96 lines with
//! multi-word [`ChannelVec`] test vectors (a single-lesion universe and a
//! smaller test list, keeping the scalar oracle affordable), so the
//! channel-words dimension of every engine is ground under the same seeds
//! as the single-word path.
//!
//! A case whose engines agree then runs the **codec leg**: its network,
//! universe and tests, as a service coverage request, must survive the
//! wire encoding with an equal answer key and identical bytes, and seeded
//! mutations of the payload (truncations, tag flips, inflated counts, set
//! padding bits) must never panic the decoder and must re-encode exactly
//! whenever they decode.  Its draws come from a separate stream, so the
//! engine leg's cases are the same with or without it; a codec failure is
//! reported unshrunk, with the same replay line.
//!
//! A failing case is **shrunk** before it is reported: comparators, then
//! faults, then tests are dropped greedily while the disagreement persists,
//! so the [`Mismatch`] carries a minimal reproducer.  Every mismatch also
//! prints a replay line — `SORTNET_GRINDER_SEED=<seed> … --only-case <i>`
//! — that regenerates the case from the seed alone.
//!
//! [`Corruption`] is the grinder's self-test hook: it flips one oracle bit
//! so the whole catch-and-shrink pipeline can be exercised (and is, in the
//! smoke tests and CI) without planting a real bug in an engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rand::prelude::*;

use sortnet_combinat::{BitString, ChannelPack, ChannelVec};
use sortnet_faults::bitsim::{detection_matrix_from_source_metered_on, DetectionMatrix};
use sortnet_faults::coverage::{
    coverage_of_universe_budgeted_packed_with, FaultSimEngine, RedundancyMode,
};
use sortnet_faults::universe::{multi_detects, FaultUniverse, MultiFault, StandardUniverse};
use sortnet_network::budget::{BudgetMeter, Budgeted, SweepBudget};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::error::EngineError;
use sortnet_network::lanes::{Backend, LaneWidth, PackedFamily, SliceSource};
use sortnet_network::random::NetworkSampler;
use sortnet_network::{properties, Network};
use sortnet_testsets::verify::{
    try_spot_check_sorter_packed_on, try_verify_on, Property, Strategy,
};

/// Per-case seed derivation: SplitMix64's golden-ratio increment keeps
/// neighbouring case indices decorrelated.
const CASE_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deliberate oracle corruption — the grinder's self-test hook.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Corruption {
    /// No corruption: any mismatch is a real engine disagreement.
    #[default]
    None,
    /// Flip the scalar oracle's verdict for the last fault on the first
    /// test.  The flip tracks the *current* fault/test lists, so it
    /// survives shrinking — the pipeline must chase it all the way down
    /// to a one-fault, one-test reproducer.
    FlipLastFault,
}

/// Knobs of a grind run.
#[derive(Clone, Debug)]
pub struct GrinderConfig {
    /// Master seed; every case is a pure function of `(seed, index)`.
    pub seed: u64,
    /// Number of cases to grind (case indices `0..cases`).
    pub cases: u64,
    /// Run budget: each case admits one block, so
    /// [`SweepBudget::with_max_blocks`] caps the case count and a
    /// deadline or [`sortnet_network::CancelToken`] stops a long grind
    /// cleanly with a [`Budgeted::Partial`] result.
    pub budget: SweepBudget,
    /// Oracle corruption (self-test hook); [`Corruption::None`] for real
    /// fuzzing.
    pub corruption: Corruption,
}

impl GrinderConfig {
    /// A config grinding `cases` cases from `seed` with no budget and no
    /// corruption.
    #[must_use]
    pub fn new(seed: u64, cases: u64) -> Self {
        Self {
            seed,
            cases,
            budget: SweepBudget::unlimited(),
            corruption: Corruption::None,
        }
    }
}

/// A shrunk engine disagreement, reproducible from `(seed, case_index)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mismatch {
    /// The master seed the run was grinding.
    pub seed: u64,
    /// The case index within the run.
    pub case_index: u64,
    /// The fault universe the case drew.
    pub universe: StandardUniverse,
    /// The shrunk network still exhibiting the disagreement.
    pub network: Network,
    /// Comparator count of the network as generated, before shrinking.
    pub original_size: usize,
    /// The shrunk fault list (a subset of the universe over `network`).
    pub faults: Vec<MultiFault>,
    /// The shrunk test list, stored in the universal multi-word packing
    /// (single-word cases are widened losslessly for the report).
    pub tests: Vec<ChannelVec>,
    /// Human-readable description of the first disagreement.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential mismatch (seed {seed:#x}, case {case})",
            seed = self.seed,
            case = self.case_index
        )?;
        writeln!(f, "  universe: {}", FaultUniverse::name(&self.universe))?;
        writeln!(
            f,
            "  network:  {} ({} of originally {} comparators)",
            self.network,
            self.network.size(),
            self.original_size
        )?;
        writeln!(f, "  faults:   {} kept after shrinking", self.faults.len())?;
        writeln!(f, "  tests:    {} kept after shrinking", self.tests.len())?;
        writeln!(f, "  detail:   {}", self.detail)?;
        write!(
            f,
            "  replay:   SORTNET_GRINDER_SEED={:#x} cargo run -p sortnet-grinder -- --only-case {}",
            self.seed, self.case_index
        )
    }
}

/// Scalar-oracle cross-check of the bit-parallel matrices over an explicit
/// fault list.  Returns a description of the first disagreement, `None`
/// when every engine agrees.
fn check_faults<P: ChannelPack + fmt::Display>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    corruption: Corruption,
) -> Option<String> {
    let mut expected = Vec::with_capacity(faults.len() * tests.len());
    for fault in faults {
        for test in tests {
            expected.push(multi_detects(network, fault, test));
        }
    }
    if corruption == Corruption::FlipLastFault && !faults.is_empty() && !tests.is_empty() {
        let idx = (faults.len() - 1) * tests.len();
        expected[idx] = !expected[idx];
    }
    for backend in Backend::runnable() {
        let matrices = [
            (
                1usize,
                typed_matrix::<1, P>(network, faults, tests, backend),
            ),
            (
                4usize,
                typed_matrix::<4, P>(network, faults, tests, backend),
            ),
        ];
        for (width, matrix) in matrices {
            let matrix = match matrix {
                Ok(m) => m,
                Err(e) => {
                    return Some(format!(
                        "typed refusal on a case the scalar oracle accepted ({backend:?}, W{width}): {e}"
                    ))
                }
            };
            for (fi, fault) in faults.iter().enumerate() {
                for (ti, test) in tests.iter().enumerate() {
                    let want = expected[fi * tests.len() + ti];
                    let got = matrix.is_detected_by(fi, ti);
                    if want != got {
                        return Some(format!(
                            "fault {fault} x test {test}: scalar oracle says detected={want}, \
                             {backend:?} W{width} matrix says detected={got}"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// The faults × tests matrix of an explicit test list: the typed matrix
/// sweep over the slice, under an unlimited budget.
fn typed_matrix<const W: usize, P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    backend: Backend,
) -> Result<DetectionMatrix, EngineError> {
    let source = SliceSource::new(network.lines(), tests);
    let mut meter = BudgetMeter::unlimited();
    let (matrix, _) = detection_matrix_from_source_metered_on::<W, P, _>(
        network, faults, source, backend, &mut meter,
    )?;
    Ok(matrix)
}

/// The lane-ops backend of case `index`: the runnable backends in turn.
fn case_backend(index: u64) -> Backend {
    let backends = Backend::runnable();
    backends[index as usize % backends.len()]
}

/// Full case check: matrix cross-check over the whole universe, then
/// scalar-vs-bit-parallel coverage reports on the case's `backend`
/// (skipped under corruption — the planted flip lives in the matrix
/// comparison only).
fn check_case<P: ChannelPack + fmt::Display>(
    network: &Network,
    universe: StandardUniverse,
    tests: &[P],
    corruption: Corruption,
    backend: Backend,
) -> Option<String> {
    let faults: Vec<MultiFault> = universe.iter(network).collect();
    if let Some(detail) = check_faults(network, &faults, tests, corruption) {
        return Some(detail);
    }
    if corruption == Corruption::None {
        // Both engines must also agree on a refusal (an empty universe).
        let grade = |engine| {
            coverage_of_universe_budgeted_packed_with(
                network,
                &universe,
                tests,
                RedundancyMode::Skip,
                engine,
                backend,
                &SweepBudget::unlimited(),
            )
            .map(Budgeted::into_value)
        };
        let scalar = grade(FaultSimEngine::Scalar);
        let wide = grade(FaultSimEngine::BitParallelWide(LaneWidth::W4));
        if scalar != wide {
            return Some(format!(
                "coverage reports disagree on {backend:?}: scalar {scalar:?} vs bit-parallel {wide:?}"
            ));
        }
    }
    None
}

/// Greedy list shrink: first try pinning a single element (the common
/// case — one fault or one test reproduces), then a single forward
/// removal pass.  `still_fails` returns the mismatch detail when the
/// candidate list still reproduces the disagreement.
fn shrink_list<T: Clone>(
    mut items: Vec<T>,
    detail: &mut String,
    mut still_fails: impl FnMut(&[T]) -> Option<String>,
) -> Vec<T> {
    for item in &items {
        let one = [item.clone()];
        if let Some(d) = still_fails(&one) {
            *detail = d;
            return one.to_vec();
        }
    }
    let mut i = 0;
    while i < items.len() && items.len() > 1 {
        let mut candidate = items.clone();
        candidate.remove(i);
        if let Some(d) = still_fails(&candidate) {
            *detail = d;
            items = candidate;
        } else {
            i += 1;
        }
    }
    items
}

/// Shrinks a failing case to a minimal-ish reproducer: comparators first
/// (the fault universe follows the network automatically), then the fault
/// list, then the test list.
fn shrink<P: ChannelPack + fmt::Display>(
    seed: u64,
    case_index: u64,
    universe: StandardUniverse,
    network: Network,
    tests: Vec<P>,
    detail: String,
    corruption: Corruption,
) -> Mismatch {
    let backend = case_backend(case_index);
    let original_size = network.size();
    let mut network = network;
    let mut detail = detail;
    let mut i = 0;
    while i < network.size() {
        let candidate = network.without_comparator(i);
        if let Some(d) = check_case(&candidate, universe, &tests, corruption, backend) {
            detail = d;
            network = candidate;
        } else {
            i += 1;
        }
    }
    let faults = shrink_list(
        universe.iter(&network).collect(),
        &mut detail,
        |candidate| check_faults(&network, candidate, &tests, corruption),
    );
    let tests = shrink_list(tests, &mut detail, |candidate| {
        check_faults(&network, &faults, candidate, corruption)
    });
    Mismatch {
        seed,
        case_index,
        universe,
        network,
        original_size,
        faults,
        tests: tests
            .iter()
            .map(|t| ChannelVec::from_fn(t.len(), |i| t.bit(i)))
            .collect(),
        detail,
    }
}

/// Runs one case: generates the deterministic `(seed, index)` inputs,
/// cross-checks every engine, and returns the shrunk [`Mismatch`] if they
/// disagree.
#[must_use]
pub fn run_case(seed: u64, index: u64, corruption: Corruption) -> Option<Mismatch> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(index.wrapping_mul(CASE_STRIDE)));
    let backend = case_backend(index);
    if index % 4 == 3 {
        // Wide-channel case: the same cross-check past the 64-line wall.
        // Single-lesion universes and a small test list keep the
        // one-fault-at-a-time scalar oracle affordable at these widths.
        let n = rng.random_range(65usize..97);
        let size = rng.random_range(0usize..13);
        let mut sampler = NetworkSampler::new(rng.next_u64());
        let network = sampler.network(n, size);
        let universe = [
            StandardUniverse::SingleComparator,
            StandardUniverse::StuckLine,
        ][rng.random_range(0usize..2)];
        let test_count = rng.random_range(1usize..17);
        let tests: Vec<ChannelVec> = (0..test_count)
            .map(|_| {
                let words: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
                ChannelVec::from_words(&words, n)
            })
            .collect();
        if let Some(detail) = check_case(&network, universe, &tests, corruption, backend) {
            return Some(shrink(
                seed, index, universe, network, tests, detail, corruption,
            ));
        }
        return check_codec(seed, index, universe, network, tests);
    }
    let n = rng.random_range(3usize..10);
    let size = rng.random_range(0usize..13);
    let mut sampler = NetworkSampler::new(rng.next_u64());
    let network = sampler.network(n, size);
    let universe = StandardUniverse::ALL[rng.random_range(0usize..StandardUniverse::ALL.len())];
    let test_count = rng.random_range(1usize..97);
    let tests: Vec<BitString> = (0..test_count).map(|_| sampler.random_input(n)).collect();
    if let Some(detail) = check_case(&network, universe, &tests, corruption, backend) {
        return Some(shrink(
            seed, index, universe, network, tests, detail, corruption,
        ));
    }
    let tests = tests.into_iter().map(ChannelVec::from_bitstring).collect();
    check_codec(seed, index, universe, network, tests)
}

/// Stream separator for the codec leg, so its draws leave the engine
/// leg's case stream (network, universe, tests) unchanged.
const CODEC_STREAM: u64 = 0xC0DE_C0DE_5EED_0001;

/// Seeded mutations of each case's encoded request.
const CODEC_MUTATIONS: usize = 16;

/// The wire-codec leg of case `(seed, index)`: the case's network,
/// universe and tests, as a coverage request with a redundancy mode and
/// budget drawn from the codec stream, must decode to a request with an
/// equal [`AnswerKey`](sortnet_service::oracle::AnswerKey) that re-encodes
/// to the same bytes.  Then each of [`CODEC_MUTATIONS`] seeded mutations
/// of the payload (a truncation, a small value over a byte as a tag flip,
/// an inflated `u32` count, a set bit as a padding bit) must be refused
/// or decode to a request that re-encodes to exactly the mutated bytes,
/// and the decoder must never panic.
fn check_codec(
    seed: u64,
    index: u64,
    universe: StandardUniverse,
    network: Network,
    tests: Vec<ChannelVec>,
) -> Option<Mismatch> {
    use sortnet_service::oracle::AnswerKey;
    use sortnet_service::wire::{decode_request, encode_request};
    use sortnet_service::{Query, Request};

    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_add(index.wrapping_mul(CASE_STRIDE)) ^ CODEC_STREAM);
    let redundancy = [
        RedundancyMode::Skip,
        RedundancyMode::Exhaustive,
        RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
        RedundancyMode::RelativeTo(PackedFamily::WeightAtMost(2)),
    ][rng.random_range(0usize..4)];
    let budget = (rng.random_range(0u8..2) == 1)
        .then(|| SweepBudget::unlimited().with_max_blocks(rng.random_range(1u64..1000)));
    let request = Request {
        network,
        query: Query::Coverage {
            universe,
            tests,
            redundancy,
        },
        budget,
        deadline: None,
    };
    let decode = |bytes: &[u8]| {
        std::panic::catch_unwind(|| decode_request(bytes))
            .map_err(|_| "the decoder panicked".to_string())
    };
    let payload = encode_request(&request);
    let detail = match decode(&payload) {
        Err(panic) => Some(panic),
        Ok(Err(e)) => Some(format!("the encoded request does not decode: {e}")),
        Ok(Ok(back)) if AnswerKey::of(&back) != AnswerKey::of(&request) => {
            Some("the decoded request's key differs".to_string())
        }
        Ok(Ok(back)) if encode_request(&back) != payload => {
            Some("the decoded request re-encodes to other bytes".to_string())
        }
        Ok(Ok(_)) => (0..CODEC_MUTATIONS).find_map(|k| {
            let mut bytes = payload.clone();
            let mut at = rng.random_range(0..bytes.len());
            let what = match rng.random_range(0u8..4) {
                0 => {
                    bytes.truncate(at);
                    "truncation"
                }
                1 => {
                    bytes[at] = rng.random_range(0u8..5);
                    "tag flip"
                }
                2 => {
                    at = at.min(bytes.len() - 4);
                    let field: [u8; 4] = bytes[at..at + 4].try_into().expect("four bytes");
                    let inflated =
                        u32::from_le_bytes(field).wrapping_add(1 << rng.random_range(0u32..32));
                    bytes[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
                    "inflated count"
                }
                _ => {
                    bytes[at] |= 1 << rng.random_range(0u8..8);
                    "set bit"
                }
            };
            let fail = |why: &str| Some(format!("mutation {k} ({what} at byte {at}): {why}"));
            match decode(&bytes) {
                Err(panic) => fail(&panic),
                Ok(Err(_)) => None,
                Ok(Ok(decoded)) => {
                    // A deadline re-encodes as the time left, which moved.
                    let again = encode_request(&decoded);
                    let keep = bytes.len() - if decoded.deadline.is_some() { 8 } else { 0 };
                    if again.len() == bytes.len() && again[..keep] == bytes[..keep] {
                        None
                    } else {
                        fail("decodes but re-encodes to other bytes")
                    }
                }
            }
        }),
    };
    let Request { network, query, .. } = request;
    let Query::Coverage { tests, .. } = query else {
        unreachable!("the codec leg encodes a coverage request")
    };
    detail.map(|detail| Mismatch {
        seed,
        case_index: index,
        universe,
        original_size: network.size(),
        network,
        faults: Vec::new(),
        tests,
        detail: format!("wire codec: {detail}"),
    })
}

/// Grinds `config.cases` cases, collecting every (shrunk) mismatch.
///
/// Each case admits one block against `config.budget`, so a block cap,
/// deadline or cancel token stops the grind early with
/// [`Budgeted::Partial`] carrying the mismatches found so far.
#[must_use]
pub fn run(config: &GrinderConfig) -> Budgeted<Vec<Mismatch>> {
    let mut meter = BudgetMeter::new(&config.budget);
    let mut mismatches = Vec::new();
    for index in 0..config.cases {
        if !meter.admit_block(1) {
            break;
        }
        if let Some(m) = run_case(config.seed, index, config.corruption) {
            mismatches.push(m);
        }
    }
    meter.finish(mismatches)
}

/// Stream separator for the verify leg so its cases are decorrelated
/// from [`run_case`]'s at the same `(seed, index)`.
const VERIFY_STREAM: u64 = 0x5645_5249_4659_1E57;

/// A shrunk test-set-verification disagreement, reproducible from
/// `(seed, case index)`.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyMismatch {
    /// The master seed the run was grinding.
    pub seed: u64,
    /// The case index within the verify leg.
    pub case_index: u64,
    /// The shrunk network still exhibiting the disagreement.
    pub network: Network,
    /// Comparator count as generated, before shrinking.
    pub original_size: usize,
    /// The exhaustive oracle's verdict on the shrunk network.
    pub truth: bool,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for VerifyMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify mismatch (seed {seed:#x}, verify case {case})",
            seed = self.seed,
            case = self.case_index
        )?;
        writeln!(
            f,
            "  network:  {} ({} of originally {} comparators, sorter = {})",
            self.network,
            self.network.size(),
            self.original_size,
            self.truth
        )?;
        writeln!(f, "  detail:   {}", self.detail)?;
        write!(
            f,
            "  replay:   SORTNET_GRINDER_SEED={:#x} cargo run -p sortnet-grinder -- \
             --cases 0 --verify-cases {}",
            self.seed,
            self.case_index + 1
        )
    }
}

/// Cross-checks the three test-set verification strategies against the
/// exhaustive `2^n` oracle (`truth`): the paper's minimal binary test
/// set, its optimal permutation test set, and the same binary test set
/// packed into multi-word [`ChannelVec`] vectors and swept through the
/// packed spot-check engine, all on `backend`.  Returns the first
/// disagreement.
fn check_verify_case(network: &Network, truth: bool, backend: Backend) -> Option<String> {
    let on = backend.name();
    for strategy in [Strategy::MinimalBinary, Strategy::Permutation] {
        match try_verify_on(network, Property::Sorter, strategy, backend) {
            Ok(report) => {
                if report.passed != truth {
                    return Some(format!(
                        "exhaustive oracle says sorter={truth}, {strategy:?} test set on {on} \
                         says {}",
                        report.passed
                    ));
                }
            }
            Err(e) => {
                return Some(format!(
                    "typed refusal at a size the exhaustive oracle accepted ({strategy:?} on \
                     {on}): {e}"
                ))
            }
        }
    }
    // The packed-family leg: the required strings of the property,
    // built straight into the multi-word packing.  Test-set
    // sufficiency (Theorem 2.2) makes this check exact, so it must
    // reproduce the exhaustive verdict too.
    let n = network.lines();
    let tests: Vec<ChannelVec> =
        sortnet_testsets::criteria::required_strings(Property::Sorter, n).collect();
    match try_spot_check_sorter_packed_on(network, &tests, backend) {
        Ok(outcome) => {
            let passed = outcome.witness.is_none();
            if passed != truth {
                return Some(format!(
                    "exhaustive oracle says sorter={truth}, packed-family spot check on {on} \
                     says {passed}"
                ));
            }
        }
        Err(e) => {
            return Some(format!(
                "typed refusal from the packed-family spot check on {on}: {e}"
            ))
        }
    }
    None
}

/// Runs one verify-leg case: a deterministic `(seed, index)` network —
/// a Batcher sorter, a wounded Batcher sorter (one comparator removed),
/// or a random network — every test-set strategy is cross-checked
/// against the exhaustive sorter oracle, and any disagreement is
/// comparator-shrunk before it is reported.  Case `index` runs on runnable
/// backend `index` (round-robin), so the case stream does not depend on
/// the backend and a replay of the same index reuses it.
#[must_use]
pub fn run_verify_case(seed: u64, index: u64) -> Option<VerifyMismatch> {
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_add(index.wrapping_mul(CASE_STRIDE)) ^ VERIFY_STREAM);
    let n = rng.random_range(3usize..10);
    let network = match rng.random_range(0u32..3) {
        // A true sorter: grinds the "passed" arm of every strategy.
        0 => odd_even_merge_sort(n),
        // A wounded sorter: fails, and usually only barely — the
        // near-miss regime where a wrong test set would slip.
        1 => {
            let sorter = odd_even_merge_sort(n);
            let victim = rng.random_range(0..sorter.size());
            sorter.without_comparator(victim)
        }
        // A random network, almost always far from sorting.
        _ => {
            let size = rng.random_range(0usize..13);
            NetworkSampler::new(rng.next_u64()).network(n, size)
        }
    };
    let backend = case_backend(index);
    let truth = properties::is_sorter(&network);
    let detail = check_verify_case(&network, truth, backend)?;
    // Shrink comparators while the *disagreement* persists; the truth
    // is recomputed per candidate since removing a comparator moves it.
    let original_size = network.size();
    let mut network = network;
    let mut detail = detail;
    let mut i = 0;
    while i < network.size() {
        let candidate = network.without_comparator(i);
        if let Some(d) = check_verify_case(&candidate, properties::is_sorter(&candidate), backend) {
            detail = d;
            network = candidate;
        } else {
            i += 1;
        }
    }
    let truth = properties::is_sorter(&network);
    Some(VerifyMismatch {
        seed,
        case_index: index,
        network,
        original_size,
        truth,
        detail,
    })
}

/// Grinds `cases` verify-leg cases, collecting every shrunk
/// disagreement between the test-set strategies and the exhaustive
/// oracle.
#[must_use]
pub fn grind_verify(seed: u64, cases: u64) -> Vec<VerifyMismatch> {
    (0..cases)
        .filter_map(|index| run_verify_case(seed, index))
        .collect()
}

/// Tally of one [`grind_service_cache`] run.
#[derive(Clone, Debug, Default)]
pub struct CacheGrindReport {
    /// Requests submitted across all legs.
    pub queries: u64,
    /// Answer-cache hits observed (every hit was compared to cold).
    pub hits: u64,
    /// Answer-cache evictions forced by the tiny capacity.
    pub evictions: u64,
    /// Human-readable descriptions of every service-vs-cold divergence;
    /// empty on a clean grind.
    pub mismatches: Vec<String>,
}

/// Differential grind of the oracle service's cache: every served
/// answer — cold, batched, cached, and cached-after-eviction — must be
/// bit-identical to [`sortnet_service::answer_cold`] on the same
/// request.
///
/// Legs: lane widths W ∈ {1, 4} × line counts n ∈ {8, 96}, each against
/// a service whose answer cache holds only four entries while the
/// request pool holds six distinct coverage queries — so steady-state
/// traffic rotates entries through eviction and re-insertion, and the
/// comparison covers answers served *after* their cache line was
/// evicted and recomputed.  Leg `i` runs on runnable backend `i`
/// (round-robin), for the service and its cold reference alike.
///
/// The report carries hit/eviction counters so callers can assert the
/// grind actually exercised the cache, not just the cold path.
#[must_use]
pub fn grind_service_cache(seed: u64, queries_per_leg: u64) -> CacheGrindReport {
    use sortnet_service::{answer_cold, CacheStatus, Query, Request, Service, ServiceConfig};

    let mut report = CacheGrindReport::default();
    let backends = Backend::runnable();
    let mut leg = 0;
    for (width, engine) in [
        (1usize, FaultSimEngine::BitParallelWide(LaneWidth::W1)),
        (4, FaultSimEngine::BitParallelWide(LaneWidth::W4)),
    ] {
        for n in [8usize, 96] {
            let backend = backends[leg % backends.len()];
            leg += 1;
            let mut rng =
                StdRng::seed_from_u64(seed.wrapping_add(((width as u64) << 32) | n as u64));
            // Six distinct coverage requests against a four-entry cache:
            // rotation forces evictions while repeats force hits.
            let pool: Vec<Request> = (0..6)
                .map(|_| {
                    let mut sampler = NetworkSampler::new(rng.next_u64());
                    let network = sampler.network(n, rng.random_range(1usize..9));
                    let test_count = rng.random_range(1usize..9);
                    let tests: Vec<ChannelVec> = (0..test_count)
                        .map(|_| {
                            let words: Vec<u64> =
                                (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
                            ChannelVec::from_words(&words, n)
                        })
                        .collect();
                    Request {
                        network,
                        query: Query::Coverage {
                            universe: StandardUniverse::StuckLine,
                            tests,
                            redundancy: if n < 32 && rng.random_range(0u32..2) == 0 {
                                RedundancyMode::Exhaustive
                            } else if rng.random_range(0u32..2) == 0 {
                                RedundancyMode::RelativeTo(PackedFamily::SortedStrings)
                            } else {
                                RedundancyMode::Skip
                            },
                        },
                        budget: None,
                        deadline: None,
                    }
                })
                .collect();
            let config = ServiceConfig {
                workers: 2,
                max_batch: 4,
                engine,
                backend,
                answer_cache: 4,
                ..ServiceConfig::default()
            };
            let cold: Vec<_> = pool
                .iter()
                .map(|request| {
                    let response = answer_cold(&config, request);
                    (response.outcome, response.completion)
                })
                .collect();

            let service = Service::start(config);
            for _ in 0..queries_per_leg {
                let pick = rng.random_range(0..pool.len());
                let response = service.submit(pool[pick].clone());
                report.queries += 1;
                if response.cache == CacheStatus::Hit {
                    report.hits += 1;
                }
                let (outcome, completion) = &cold[pick];
                if &response.outcome != outcome || &response.completion != completion {
                    report.mismatches.push(format!(
                        "W{width} n={n} {} pool[{pick}] ({:?}): service answered {:?}/{:?}, \
                         cold path answered {outcome:?}/{completion:?}",
                        backend.name(),
                        response.cache,
                        response.outcome,
                        response.completion
                    ));
                }
            }
            report.evictions += service.stats().answers.evictions;
        }
    }
    report
}

/// Tally of one [`grind_service_chaos`] run.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// In-process requests submitted (leg 1).
    pub submitted: u64,
    /// Replies received — must equal `submitted` (exactly one reply per
    /// request, panics and stalls notwithstanding).
    pub replies: u64,
    /// Replies that answered `Ok` and complete.
    pub complete: u64,
    /// Replies that degraded to a typed partial (budget or deadline).
    pub partials: u64,
    /// Typed service-level refusals (quarantine, expired deadline,
    /// overload).
    pub refusals: u64,
    /// Typed engine refusals — the cold path reproduces these, so they
    /// take part in the differential comparison.
    pub engine_refusals: u64,
    /// Wire calls that completed (leg 2).
    pub wire_calls: u64,
    /// Client reconnects spent healing torn frames and stalled reads.
    pub wire_retries: u64,
    /// Evaluation panics the pool's supervision caught.
    pub service_panics: u64,
    /// Worker-loop respawns after escaped panics.
    pub worker_restarts: u64,
    /// Divergences and invariant violations; empty on a clean grind.
    pub mismatches: Vec<String>,
}

/// Chaos grind of the oracle service: replays the seeded loadgen
/// workload through a service whose failpoints are armed (per-request
/// panics, escaped worker crashes, queue stalls) and then drives the
/// wire front under torn reply frames and stalled reads with a retrying
/// client.
///
/// Invariants checked (violations land in
/// [`mismatches`](ChaosReport::mismatches)):
///
/// * every submitted request gets exactly one reply — an answer or a
///   typed refusal, never a hang or a dropped channel;
/// * every undecorated request's answer (no budget, no deadline) is
///   bit-identical to [`sortnet_service::answer_cold`], panic-retries
///   and cache traffic notwithstanding;
/// * every wire call, healed by retries where needed, returns the same
///   compacted answer the cold path gives.
///
/// The failpoint registry is process-global: do not run this
/// concurrently with other failpoint users in the same process.
#[must_use]
pub fn grind_service_chaos(seed: u64, queries: usize, wire_queries: u64) -> ChaosReport {
    use std::collections::HashMap;
    use std::time::{Duration, Instant};

    use sortnet_service::failpoint::{self, Schedule};
    use sortnet_service::loadgen::{workload, LoadgenOptions};
    use sortnet_service::oracle::AnswerKey;
    use sortnet_service::wire::{compact, WireClient, WireClientConfig, WireServer};
    use sortnet_service::{answer_cold, Completion, Request, Service, ServiceConfig, ServiceError};

    let mut report = ChaosReport::default();
    failpoint::reset();

    // ---- leg 1: the pool under panic / crash / stall injection ------
    failpoint::configure("worker-panic", Schedule::Seeded { seed, permille: 60 });
    failpoint::configure(
        "worker-crash",
        Schedule::Seeded {
            seed: seed ^ 0xA5A5,
            permille: 8,
        },
    );
    failpoint::configure_sleep(
        "queue-stall",
        Schedule::Seeded {
            seed: seed ^ 0x5A5A,
            permille: 40,
        },
        Duration::from_millis(3),
    );

    // Leg `i` runs on runnable backend `i` (round-robin).  The memoised
    // cold answers cross the legs, so the wire leg is also checked
    // against the pool leg's backend.
    let backends = Backend::runnable();
    let leg_config = |leg: usize| ServiceConfig {
        workers: 2,
        max_batch: 8,
        backend: backends[leg % backends.len()],
        ..ServiceConfig::default()
    };
    let config = leg_config(0);
    let mut requests = workload(&LoadgenOptions {
        seed,
        queries,
        check_against_cold: false,
        ..LoadgenOptions::default()
    });
    // Sprinkle tight deadlines: under the injected stalls some expire
    // at dequeue, some degrade mid-sweep — all must come back typed.
    for (index, request) in requests.iter_mut().enumerate() {
        if index % 9 == 3 {
            request.deadline = Some(Instant::now() + Duration::from_millis(1));
        }
    }
    // Cold references, memoised; the failpoint sites live in the pool
    // and wire layers, so the cold path is unaffected by the arming.
    let mut cold: HashMap<AnswerKey, sortnet_service::Response> = HashMap::new();
    let service = Service::start(config.clone());
    for wave in requests.chunks(8) {
        let responses = service.submit_batch(wave.to_vec());
        report.submitted += wave.len() as u64;
        report.replies += responses.len() as u64;
        for (request, response) in wave.iter().zip(&responses) {
            match &response.outcome {
                Err(ServiceError::Engine(_)) => report.engine_refusals += 1,
                Err(_) => {
                    report.refusals += 1;
                    continue;
                }
                Ok(_) => {}
            }
            if matches!(response.completion, Completion::Complete) {
                report.complete += 1;
            } else {
                report.partials += 1;
            }
            // Only undecorated requests are comparable to the memoised
            // cold path — budgets change completion and deadlines ride
            // the bypass path with an intersected budget.
            if request.budget.is_none() && request.deadline.is_none() {
                let reference = cold
                    .entry(AnswerKey::of(request))
                    .or_insert_with(|| answer_cold(&config, request));
                if reference.outcome != response.outcome
                    || reference.completion != response.completion
                {
                    report.mismatches.push(format!(
                        "chaos pool leg on {}: service answered {:?}/{:?}, cold answered {:?}/{:?}",
                        config.backend.name(),
                        response.outcome,
                        response.completion,
                        reference.outcome,
                        reference.completion,
                    ));
                }
            }
        }
    }
    let stats = service.stats();
    report.service_panics = stats.panics;
    report.worker_restarts = stats.worker_restarts;
    drop(service);
    failpoint::reset();

    // ---- leg 2: the wire front under torn frames and stalled reads --
    failpoint::configure(
        "torn-frame",
        Schedule::Seeded {
            seed: seed ^ 0x0FF0,
            permille: 150,
        },
    );
    failpoint::configure_sleep(
        "slow-read",
        Schedule::Seeded {
            seed: seed ^ 0xF00F,
            permille: 80,
        },
        Duration::from_millis(120),
    );
    let config = leg_config(1);
    let service = std::sync::Arc::new(Service::start(config.clone()));
    let path = std::env::temp_dir().join(format!(
        "sortnet-chaos-grind-{}-{seed:x}.sock",
        std::process::id()
    ));
    match WireServer::bind(&path, std::sync::Arc::clone(&service)) {
        Err(e) => report
            .mismatches
            .push(format!("wire leg: bind failed: {e}")),
        Ok(server) => {
            let wire_pool: Vec<Request> = requests
                .iter()
                .filter(|r| r.budget.is_none() && r.deadline.is_none())
                .take(4)
                .cloned()
                .collect();
            let client = WireClient::connect_with(
                &path,
                WireClientConfig {
                    call_timeout: Some(Duration::from_millis(50)),
                    retries: 12,
                    backoff_base: Duration::from_millis(2),
                    seed,
                    ..WireClientConfig::default()
                },
            );
            match client {
                Err(e) => report
                    .mismatches
                    .push(format!("wire leg: connect failed: {e}")),
                Ok(mut client) => {
                    for index in 0..wire_queries {
                        let request = &wire_pool[(index as usize) % wire_pool.len()];
                        match client.call(request) {
                            Ok(reply) => {
                                report.wire_calls += 1;
                                let reference = compact(
                                    cold.entry(AnswerKey::of(request))
                                        .or_insert_with(|| answer_cold(&config, request)),
                                );
                                if reply.outcome != reference.outcome
                                    || reply.completion != reference.completion
                                {
                                    report.mismatches.push(format!(
                                        "wire leg on {}: call {index} diverged: {:?}/{:?} vs \
                                         cold {:?}/{:?}",
                                        config.backend.name(),
                                        reply.outcome,
                                        reply.completion,
                                        reference.outcome,
                                        reference.completion,
                                    ));
                                }
                            }
                            Err(e) => report.mismatches.push(format!(
                                "wire leg: call {index} failed through all retries: {e}"
                            )),
                        }
                    }
                    report.wire_retries = client.retries_used();
                }
            }
            drop(server);
        }
    }
    failpoint::reset();
    report
}
