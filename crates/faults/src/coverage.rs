//! Fault-coverage analysis: how well a sequence of test inputs detects a
//! fault universe of a network (experiment E10).
//!
//! Coverage is universe-generic: a grade runs a test sequence against any
//! [`FaultUniverse`] (single-comparator faults, stuck-at lines, fault
//! pairs), on either the scalar oracle engine or the bit-parallel engine
//! at a chosen lane width, and classifies the faults it misses under a
//! [`RedundancyMode`].
//!
//! Every grade is one call of [`coverage_of_universe_metered`], which
//! grades one test list or many on one [`BudgetMeter`] (the caller's
//! budget, or an unlimited one): each list is admitted or refused with
//! the typed [`EngineError`] of [`check_coverage_inputs`], the universe is
//! enumerated once, and [`summarise_verdicts`] folds each list's per-fault
//! verdicts into its [`CoverageReport`].  On the bit-parallel engines the
//! lists share their first-detection sweeps (a prefix several lists share
//! is swept once, see [`crate::bitsim`]) and **one** redundancy pass over
//! the faults any list missed; a fault's verdict depends only on the
//! network and the mode, never on the list that missed it.  The scalar
//! engine grades each list in turn, one fault at a time in enumeration
//! order, on the same meter.  The oracle service's coverage shards are
//! one such call, so a batched answer is the cold one by construction.
//!
//! * [`coverage_of_universe_budgeted_packed_with`] — the grade of one
//!   list, under a [`SweepBudget`] and on an explicit lane-ops [`Backend`];
//! * [`try_coverage_of_universe_packed_with`] — the same grade unbudgeted,
//!   on [`Backend::active`].
//!
//! Both are generic over the [`ChannelPack`] packing of the tests:
//! `BitString` for `n ≤ 64`, `ChannelVec` past the 64-line wall.

use serde::{Deserialize, Serialize};

use sortnet_combinat::ChannelPack;
use sortnet_network::budget::{BudgetMeter, Budgeted, SweepBudget};
use sortnet_network::error::{self, EngineError};
use sortnet_network::lanes::{
    Backend, BlockSource, FamilySource, LaneWidth, PackedFamily, WideBlock, DEFAULT_WIDTH,
};
use sortnet_network::Network;

use crate::bitsim::{first_detections_of_lists, redundant_faults_metered, redundant_over_metered};
use crate::universe::{
    is_multi_fault_redundant, is_multi_fault_redundant_relative, multi_first_detection_index,
    FaultUniverse, MultiFault,
};

/// Which simulation engine evaluates the fault universe.
///
/// All engines produce bit-for-bit equal reports wherever they run (the
/// proptest suite, the differential-universe suite and experiment E10
/// cross-check them; the bit-parallel report is independent of the lane
/// width); [`FaultSimEngine::Scalar`] is retained as the oracle the
/// bit-parallel paths are validated against.  All engines share one
/// redundancy-sweep bound: under [`RedundancyMode::Exhaustive`] both the
/// scalar per-fault sweep ([`is_multi_fault_redundant`]) and the
/// bit-parallel batch sweep
/// ([`redundant_faults_multi_on`](crate::bitsim::redundant_faults_multi_on))
/// are admitted by the canonical `ensure_sweepable` (`n < 32`) with one
/// pinned error text, so the engines agree on exactly which inputs are
/// sweepable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSimEngine {
    /// One fault × one test per call ([`crate::universe`]), the faults
    /// graded one by one in enumeration order on the caller's thread.
    Scalar,
    /// `W × 64` tests per pass with shared-prefix forking
    /// ([`crate::bitsim`]) at an explicit lane width — `LaneWidth::W1`
    /// reproduces the original single-word engine exactly, and the default
    /// `LaneWidth::W4` runs 256 vectors per fork.
    ///
    /// The width sets the first block of an unbudgeted early-exit sweep
    /// (first detections, redundancy), whose undetected tail continues at
    /// `W = 16`, and every block of a budgeted sweep and of a detection
    /// matrix.
    BitParallelWide(LaneWidth),
}

impl Default for FaultSimEngine {
    /// Bit-parallel at [`LaneWidth::W4`].
    fn default() -> Self {
        Self::BitParallelWide(LaneWidth::W4)
    }
}

impl FaultSimEngine {
    /// The lane width of a bit-parallel engine; `None` for the scalar one.
    fn lane_width(self) -> Option<LaneWidth> {
        match self {
            Self::Scalar => None,
            Self::BitParallelWide(width) => Some(width),
        }
    }
}

/// How undetected faults are classified by a coverage grade.
///
/// Every grade takes the mode explicitly: past the 64-line wall the
/// exhaustive `2^n` sweep is never admissible, and the honest alternative
/// is *relative* classification against a named structured family.
///
/// Admissibility is a typed, mode-specific check
/// ([`RedundancyMode::ensure_admissible`]) applied up front by every
/// entry point — refusals are no longer sweep-size accidents deep inside
/// the redundancy phase:
///
/// | mode | classifies a missed fault as | admissible when |
/// |---|---|---|
/// | [`Exhaustive`](RedundancyMode::Exhaustive) | *proven* undetectable (`2^n` sweep) | `n < 32` (`ensure_sweepable`) |
/// | [`RelativeTo`](RedundancyMode::RelativeTo)`(family)` | undetected by every vector of `family` | family size fits a `u64` |
/// | [`Skip`](RedundancyMode::Skip) | missed (conservative) | always |
///
/// Relative classification is *sound but not exhaustive*: a fault the
/// family misses may still be detectable by some vector outside it, so
/// `undetectable_faults` under `RelativeTo` means "undetectable by the
/// named family", never "undetectable outright".  Every exhaustively
/// redundant fault is also relatively redundant (no vector at all
/// detects it), so the relative classification only ever moves faults
/// from `missed` to `redundant_faults`, and
/// [`CoverageReport::redundancy`] names which reading produced the
/// report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RedundancyMode {
    /// Classify every missed fault by the exhaustive `2^n` sweep —
    /// refused (typed) when `n ≥ 32`.  The default.
    #[default]
    Exhaustive,
    /// Classify every missed fault against a named [`PackedFamily`]:
    /// redundant *relative to the family* when no family vector detects
    /// it.  The only classification admissible past the wall.
    RelativeTo(PackedFamily),
    /// Leave missed faults unclassified (they count as `missed`).
    Skip,
}

impl RedundancyMode {
    /// The provenance string recorded in
    /// [`CoverageReport::redundancy`]: `"exhaustive"`, `"skipped"`, or
    /// `"relative:<family>"` (e.g. `"relative:sorted-strings"`).
    #[must_use]
    pub fn provenance(&self) -> String {
        match self {
            Self::Exhaustive => "exhaustive".to_string(),
            Self::RelativeTo(family) => format!("relative:{}", family.name()),
            Self::Skip => "skipped".to_string(),
        }
    }

    /// Typed admissibility check for grading an `lines`-line network
    /// under this mode — the table above.
    ///
    /// # Errors
    /// [`EngineError::SweepTooLarge`] for an exhaustive sweep at
    /// `n ≥ 32` (the canonical `ensure_sweepable` bound with its pinned
    /// text), [`EngineError::TooLarge`] for a relative family whose size
    /// overflows.
    pub fn ensure_admissible(&self, lines: usize) -> Result<(), EngineError> {
        match self {
            Self::Exhaustive => error::ensure_sweepable(lines),
            Self::RelativeTo(family) => family.try_len(lines).map(|_| ()),
            Self::Skip => Ok(()),
        }
    }
}

/// Result of running a test sequence against a fault universe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Total number of faults considered.
    pub total_faults: usize,
    /// Faults that no input whatsoever can detect (the faulty network still
    /// sorts); excluded from the coverage denominator.
    pub redundant_faults: usize,
    /// Detectable faults caught by at least one test in the sequence.
    pub detected: usize,
    /// Detectable faults missed by the whole sequence.
    pub missed: usize,
    /// Coverage ratio `detected / (detected + missed)`.
    ///
    /// Pinned edge-case semantics: the denominator counts the faults the
    /// sequence was *obliged* to catch, so `coverage` is `1.0` **only**
    /// when that obligation is empty — an empty universe, or one whose
    /// every fault was proven redundant by the redundancy phase.  An empty
    /// test sequence over a universe with detectable (or merely
    /// not-shown-redundant) faults reads `0.0`, never `1.0`: undetected
    /// faults land in `missed` (the default) unless a redundancy sweep
    /// proves them undetectable.  [`CoverageReport::is_complete`] is the
    /// boolean form of the same criterion.
    pub coverage: f64,
    /// Mean (over detected faults) of the 1-based index of the first test
    /// that detects the fault — the "tests until detection" cost.
    pub mean_first_detection: f64,
    /// Worst-case first-detection index over detected faults (1-based).
    pub max_first_detection: usize,
    /// The faults counted in `missed`, in universe-enumeration order: the
    /// detectable (or, under [`RedundancyMode::Skip`], not-shown-redundant)
    /// faults the whole sequence failed to catch.
    pub missed_faults: Vec<MultiFault>,
    /// The provably undetectable faults counted in `redundant_faults`, in
    /// universe-enumeration order; empty under [`RedundancyMode::Skip`].
    pub undetectable_faults: Vec<MultiFault>,
    /// Provenance of the redundancy classification —
    /// [`RedundancyMode::provenance`] of the mode the grade ran under
    /// (`"exhaustive"`, `"skipped"`, or `"relative:<family>"`), so a
    /// report never silently passes a relative classification off as an
    /// exhaustive one.
    pub redundancy: String,
}

impl CoverageReport {
    /// `true` when the sequence caught every fault it was obliged to:
    /// nothing is `missed`.  Vacuously true for an empty or fully-redundant
    /// universe (including with an empty test sequence — there was nothing
    /// detectable to miss); `false` whenever any detectable (or
    /// not-shown-redundant) fault went uncaught.
    ///
    /// This is the completeness criterion the minimal-test-set augmentation
    /// search (`sortnet-testsets::augment`, which consumes
    /// [`CoverageReport::missed_faults`] through its `SuggestAugmentation`
    /// extension trait — the dependency points that way, so the hook cannot
    /// live here) drives to.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.missed == 0
    }
}

/// The bit-parallel redundancy phase at lane width `W`, under `meter`: one
/// pass over exactly the faults `missed` selects — the shared-prefix
/// batch `2^n` sweep under [`RedundancyMode::Exhaustive`], or the same
/// early-exit sweep over the family streamed by a [`FamilySource`] under
/// [`RedundancyMode::RelativeTo`] (redundant iff no family vector detects
/// the fault).  Returns one verdict per fault of `faults`; faults not
/// selected, and every fault under [`RedundancyMode::Skip`], read `false`.
///
/// A tripped meter only ever leaves faults unclassified (`false`, so they
/// summarise as missed): an undetected fault is ambiguous between "no
/// vector detects it" and "the budget ran out", so a verdict is `true`
/// only when the sweep finished.  The family is never built ahead of the
/// sweep, so a block budget or deadline bounds it from the first block.
///
/// A fault's verdict depends only on the network and the mode, never on
/// the test list that missed it, so one pass serves every list of a
/// grade.
///
/// # Panics
/// Panics if a fault does not fit the network, or under
/// [`RedundancyMode::Exhaustive`] with `n ≥ 32` when some fault is
/// selected (callers admit the mode first with
/// [`RedundancyMode::ensure_admissible`]).
#[must_use]
fn redundancy_verdicts_on<const W: usize, P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    missed: impl Fn(usize) -> bool,
    mode: RedundancyMode,
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<bool> {
    let mut redundant = vec![false; faults.len()];
    if mode == RedundancyMode::Skip {
        return redundant;
    }
    let missed_idx: Vec<usize> = (0..faults.len()).filter(|&i| missed(i)).collect();
    if missed_idx.is_empty() {
        return redundant;
    }
    let missed: Vec<MultiFault> = missed_idx.iter().map(|&i| faults[i]).collect();
    let verdicts = match mode {
        RedundancyMode::Exhaustive => {
            redundant_faults_metered::<W>(network, &missed, backend, meter)
        }
        // Streamed in `PackedFamily::collect` order: nothing is built
        // before the meter admits a block.
        RedundancyMode::RelativeTo(family) => {
            let source = FamilySource::<P>::new(family, network.lines());
            redundant_over_metered::<W, _>(network, &missed, source, backend, meter)
        }
        RedundancyMode::Skip => unreachable!("skip mode classifies nothing"),
    };
    for (&i, verdict) in missed_idx.iter().zip(verdicts) {
        redundant[i] = verdict == Some(true);
    }
    redundant
}

/// The bit-parallel grades of `lists` at lane width `W`, under one shared
/// meter: every list's early-exit first detections from one
/// [`first_detections_of_lists`] sweep, then [`redundancy_verdicts_on`]
/// over exactly the faults *some* list missed, then one
/// [`summarise_verdicts`] per list.  Undecided faults keep `first = None,
/// redundant = false` and therefore fold into `missed` — the conservative
/// reading.
fn bitparallel_reports<const W: usize, P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    lists: &[&[P]],
    mode: RedundancyMode,
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<CoverageReport> {
    let first = first_detections_of_lists::<W, P>(network, faults, lists, backend, meter);
    let missed = |i: usize| first.iter().any(|list| list[i].is_none());
    let redundant = redundancy_verdicts_on::<W, P>(network, faults, missed, mode, backend, meter);
    first
        .iter()
        .map(|first| summarise_verdicts(faults, first, &redundant, mode))
        .collect()
}

/// Folds per-fault verdicts into a [`CoverageReport`]: `first[i]` is the
/// fault's first-detection index, `redundant[i]` whether it was *proven*
/// undetectable.  A `None` detection that is not proven redundant counts
/// as missed — which is also how budgeted grades stay conservative:
/// undecided faults land in `missed`, never in `detected` or
/// `redundant_faults`.
///
/// `redundant[i]` is read only where `first[i]` is `None`, so verdicts
/// shared by several lists of one grade can be passed as they are.  The
/// repository benchmark's adapter replays a grade through this fold.
///
/// The `mode` the verdicts were derived under is recorded verbatim as
/// the report's [`redundancy`](CoverageReport::redundancy) provenance.
///
/// # Panics
/// Panics if `first` and `redundant` do not both have one entry per
/// fault.
#[must_use]
pub fn summarise_verdicts(
    faults: &[MultiFault],
    first: &[Option<usize>],
    redundant: &[bool],
    mode: RedundancyMode,
) -> CoverageReport {
    assert_eq!(first.len(), faults.len(), "one first-detection per fault");
    assert_eq!(
        redundant.len(),
        faults.len(),
        "one redundancy bit per fault"
    );
    // One pass folds the per-fault verdicts into every summary statistic —
    // the multi-pass zip/collect chain this replaces was a visible slice of
    // quadratic pair-universe sweeps.
    let total_faults = faults.len();
    let mut undetectable_faults: Vec<MultiFault> = Vec::new();
    let mut missed_faults: Vec<MultiFault> = Vec::new();
    let mut detected = 0usize;
    let mut first_sum = 0.0f64;
    let mut max_first_detection = 0usize;
    for ((f, r), fault) in first.iter().zip(redundant).zip(faults) {
        match f {
            Some(i) => {
                detected += 1;
                first_sum += (i + 1) as f64;
                max_first_detection = max_first_detection.max(i + 1);
            }
            None if *r => undetectable_faults.push(*fault),
            None => missed_faults.push(*fault),
        }
    }
    let redundant_faults = undetectable_faults.len();
    let missed = missed_faults.len();
    debug_assert_eq!(detected + missed + redundant_faults, total_faults);
    let detectable = detected + missed;
    let coverage = if detectable == 0 {
        1.0
    } else {
        detected as f64 / detectable as f64
    };
    let mean_first_detection = if detected == 0 {
        0.0
    } else {
        first_sum / detected as f64
    };
    CoverageReport {
        total_faults,
        redundant_faults,
        detected,
        missed,
        coverage,
        mean_first_detection,
        max_first_detection,
        missed_faults,
        undetectable_faults,
        redundancy: mode.provenance(),
    }
}

/// Validates a coverage grade up front and enumerates the universe.
///
/// Typed refusals: the network must fit the chosen packing, every test
/// must have the network's length, the universe must be non-empty for
/// this network (grading nothing is a caller bug —
/// [`EngineError::EmptyUniverse`]), its size computation must not
/// overflow, and the redundancy mode must be admissible for this network
/// ([`RedundancyMode::ensure_admissible`] — for
/// [`RedundancyMode::Exhaustive`] the `2^n` sweep bound `n < 32`, the
/// engine-independent `ensure_sweepable`), even if it later turns out no
/// fault is missed.
///
/// [`coverage_of_universe_metered`] admits each of its lists by these
/// rules, in this order; the repository benchmark's adapter replays a
/// grade through this check.
///
/// # Errors
/// As listed above.
pub fn check_coverage_inputs<P: ChannelPack>(
    network: &Network,
    universe: &dyn FaultUniverse,
    tests: &[P],
    mode: RedundancyMode,
) -> Result<Vec<MultiFault>, EngineError> {
    error::ensure_packable::<P>(network.lines())?;
    check_test_lengths(network, tests)?;
    admitted_faults(network, universe, mode)
}

/// The list-independent tail of [`check_coverage_inputs`]: the universe's
/// size and emptiness, then the mode's admissibility; on success, the
/// enumerated faults.
fn admitted_faults(
    network: &Network,
    universe: &dyn FaultUniverse,
    mode: RedundancyMode,
) -> Result<Vec<MultiFault>, EngineError> {
    let len = universe.try_len(network)?;
    if len == 0 {
        return Err(EngineError::EmptyUniverse);
    }
    // One canonical bound per mode for every engine: the scalar per-fault
    // sweep and the bit-parallel batch sweep agree on which inputs are
    // sweepable (and refuse with the same pinned text).
    mode.ensure_admissible(network.lines())?;
    let mut faults = Vec::with_capacity(len);
    faults.extend(universe.iter(network));
    Ok(faults)
}

/// The per-list half of [`check_coverage_inputs`]: every test vector has
/// the network's length.
///
/// # Errors
/// [`EngineError::InputLengthMismatch`] for the first test of the wrong
/// length.
pub(crate) fn check_test_lengths<P: ChannelPack>(
    network: &Network,
    tests: &[P],
) -> Result<(), EngineError> {
    match tests.iter().find(|test| test.len() != network.lines()) {
        Some(test) => Err(EngineError::InputLengthMismatch {
            expected: network.lines(),
            actual: test.len(),
        }),
        None => Ok(()),
    }
}

/// A family's vectors in [`PackedFamily::collect`] order, drained from
/// its [`FamilySource`] only as far as the scalar scans have reached: a
/// fault detected early pulls one block, and no scan waits for the whole
/// family.
struct DrainedFamily<P: ChannelPack> {
    source: FamilySource<P>,
    block: WideBlock<DEFAULT_WIDTH>,
    vectors: Vec<P>,
}

impl<P: ChannelPack> DrainedFamily<P> {
    fn new(family: PackedFamily, n: usize) -> Self {
        Self {
            source: FamilySource::new(family, n),
            block: WideBlock::zeroed(n),
            vectors: Vec::new(),
        }
    }

    /// `true` iff no vector of the family detects `fault`: the scalar
    /// scan, extended a block at a time until a vector detects the fault
    /// or the family runs out.
    fn is_redundant(&mut self, network: &Network, fault: &MultiFault) -> bool {
        let mut scanned = 0;
        loop {
            if !is_multi_fault_redundant_relative(network, fault, &self.vectors[scanned..]) {
                return false;
            }
            scanned = self.vectors.len();
            if !self.source.next_block(&mut self.block) {
                return true;
            }
            self.block.extract_all(&mut self.vectors);
        }
    }
}

/// The scalar engine's per-fault results, on the caller's meter: faults
/// in enumeration order, each admitted as one block for its full test
/// scan and, when the scan misses it and `mode` classifies, one more block
/// for its redundancy sweep (`2^n` vectors exhaustive, the family's size
/// relative).  The first refused block stops the grade, so the decided
/// faults are a prefix in enumeration order; the rest keep `first = None,
/// redundant = false` and therefore fold into `missed`.
fn scalar_results_metered<P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    mode: RedundancyMode,
    meter: &mut BudgetMeter,
) -> (Vec<Option<usize>>, Vec<bool>) {
    let sweep_vectors = match mode {
        RedundancyMode::Exhaustive => Some(1u64 << network.lines()),
        RedundancyMode::RelativeTo(family) => Some(family.len(network.lines())),
        RedundancyMode::Skip => None,
    };
    let mut family = match mode {
        RedundancyMode::RelativeTo(family) => {
            Some(DrainedFamily::<P>::new(family, network.lines()))
        }
        _ => None,
    };
    let mut first = vec![None; faults.len()];
    let mut redundant = vec![false; faults.len()];
    for (i, fault) in faults.iter().enumerate() {
        if !meter.admit_block(tests.len() as u64) {
            break;
        }
        first[i] = multi_first_detection_index(network, fault, tests);
        let Some(vectors) = sweep_vectors.filter(|_| first[i].is_none()) else {
            continue;
        };
        if !meter.admit_block(vectors) {
            break;
        }
        redundant[i] = match &mut family {
            Some(family) => family.is_redundant(network, fault),
            None => is_multi_fault_redundant(network, fault),
        };
    }
    (first, redundant)
}

/// Grades `tests` against `universe` under a [`SweepBudget`], with the
/// bit-parallel sweeps on `backend`: one meter spans the first-detection
/// phase *and* the redundancy phase, so the budget bounds the whole grade
/// rather than each phase separately.
///
/// The universe is enumerated exactly once; the report's fault lists are
/// in enumeration order for every engine, so reports from different
/// engines are comparable with `==`.
///
/// An unlimited budget always comes back [`Budgeted::Complete`].  On a
/// trip the [`Budgeted::Partial`] report stays conservative and
/// internally consistent: faults whose verdict never committed count as
/// `missed` (never as `detected` or `redundant_faults`), so `detected` is
/// an exact lower bound, `missed` an exact upper bound, and `coverage` a
/// lower bound on the true ratio.  The bit-parallel engines meter per
/// test block and per fork; the scalar engine meters per fault, in
/// enumeration order on the one meter (each fault's full test scan is one
/// block, its redundancy sweep another), so its partial report has
/// decided a prefix of the faults.  `backend` does not apply to the
/// scalar engine.
///
/// # Errors
/// Every refusal of [`check_coverage_inputs`], before any sweep runs.
pub fn coverage_of_universe_budgeted_packed_with<P: ChannelPack>(
    network: &Network,
    universe: &dyn FaultUniverse,
    tests: &[P],
    mode: RedundancyMode,
    engine: FaultSimEngine,
    backend: Backend,
    budget: &SweepBudget,
) -> Result<Budgeted<CoverageReport>, EngineError> {
    let mut meter = BudgetMeter::new(budget);
    let report = coverage_of_universe_metered(
        network,
        universe,
        &[tests],
        mode,
        engine,
        backend,
        &mut meter,
    )
    .pop()
    .expect("one grade per list")?;
    Ok(meter.finish(report))
}

/// Grades each test list of `lists` against `universe` on a caller's
/// meter: entry `i` of the result is the grade of `lists[i]`, equal to
/// the grade of that list alone ([`coverage_of_universe_budgeted_packed_with`]
/// is this call with one list).  A grade can be the first stage of a
/// longer run (the augmentation search in `sortnet-testsets`), so one
/// budget bounds every stage; the oracle service grades a shard of
/// queries as one call under an unlimited meter.  Reports are
/// conservative exactly when the meter trips ([`BudgetMeter::tripped`]);
/// a meter that has already spent part of its budget admits only the
/// rest.
///
/// Each list gets exactly the refusal [`check_coverage_inputs`] gives it
/// alone, checked in the same order: the packing, that list's test
/// lengths, then the universe's size and emptiness and the mode's
/// admissibility.  The universe is enumerated once for all lists.
///
/// On the bit-parallel engines the lists share one first-detection sweep
/// (a prefix several lists share is swept once) and one redundancy pass
/// over the faults any list missed.  The scalar engine grades the lists
/// one after another, each fault in enumeration order.
pub fn coverage_of_universe_metered<P: ChannelPack>(
    network: &Network,
    universe: &dyn FaultUniverse,
    lists: &[&[P]],
    mode: RedundancyMode,
    engine: FaultSimEngine,
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<Result<CoverageReport, EngineError>> {
    let mut faults = None;
    let admitted: Vec<Result<(), EngineError>> = lists
        .iter()
        .map(|tests| {
            error::ensure_packable::<P>(network.lines())?;
            check_test_lengths(network, tests)?;
            faults
                .get_or_insert_with(|| admitted_faults(network, universe, mode))
                .as_ref()
                .map(|_| ())
                .map_err(Clone::clone)
        })
        .collect();
    // Empty unless some list was admitted.
    let faults = faults.and_then(Result::ok).unwrap_or_default();
    let graded: Vec<&[P]> = lists
        .iter()
        .zip(&admitted)
        .filter(|(_, a)| a.is_ok())
        .map(|(tests, _)| *tests)
        .collect();
    let reports = match engine.lane_width() {
        None => graded
            .iter()
            .map(|tests| {
                let (first, redundant) =
                    scalar_results_metered(network, &faults, tests, mode, meter);
                summarise_verdicts(&faults, &first, &redundant, mode)
            })
            .collect(),
        Some(width) => {
            let run = match width {
                LaneWidth::W1 => bitparallel_reports::<1, P>,
                LaneWidth::W2 => bitparallel_reports::<2, P>,
                LaneWidth::W4 => bitparallel_reports::<4, P>,
                LaneWidth::W8 => bitparallel_reports::<8, P>,
                LaneWidth::W16 => bitparallel_reports::<16, P>,
            };
            run(network, &faults, &graded, mode, backend, meter)
        }
    };
    let mut reports = reports.into_iter();
    admitted
        .into_iter()
        .map(|a| a.map(|()| reports.next().expect("one report per admitted list")))
        .collect()
}

/// [`coverage_of_universe_budgeted_packed_with`] unbudgeted, on
/// [`Backend::active`]: the same grade under an unlimited budget, which
/// always completes.
///
/// This spelling stays because the repository benchmark's adapter
/// (`perfbench/src/engine.rs`) times it as a whole grade.
///
/// # Errors
/// Every refusal of [`check_coverage_inputs`], before any sweep runs.
pub fn try_coverage_of_universe_packed_with<P: ChannelPack>(
    network: &Network,
    universe: &dyn FaultUniverse,
    tests: &[P],
    mode: RedundancyMode,
    engine: FaultSimEngine,
) -> Result<CoverageReport, EngineError> {
    coverage_of_universe_budgeted_packed_with(
        network,
        universe,
        tests,
        mode,
        engine,
        Backend::active(),
        &SweepBudget::unlimited(),
    )
    .map(Budgeted::into_value)
}

#[cfg(test)]
mod tests {
    use super::RedundancyMode::{Exhaustive, Skip};
    use super::*;
    use crate::universe::{SingleComparator, StandardUniverse, StuckLine};
    use sortnet_combinat::{BitString, Permutation};
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::random::NetworkSampler;
    use sortnet_testsets::sorting;

    /// The unbudgeted grade, unwrapped: the same report on every runnable
    /// backend (the scalar engine runs on none).
    fn grade<P: ChannelPack>(
        net: &Network,
        universe: &dyn FaultUniverse,
        tests: &[P],
        mode: RedundancyMode,
        engine: FaultSimEngine,
    ) -> CoverageReport {
        let on = |backend| {
            coverage_of_universe_budgeted_packed_with(
                net,
                universe,
                tests,
                mode,
                engine,
                backend,
                &SweepBudget::unlimited(),
            )
            .unwrap()
            .into_value()
        };
        let backends = Backend::runnable();
        let report = on(backends[0]);
        if engine != FaultSimEngine::Scalar {
            for &backend in &backends[1..] {
                assert_eq!(on(backend), report, "backend {}", backend.name());
            }
        }
        report
    }

    /// The single-comparator grade on the default engine.
    fn single(net: &Network, tests: &[BitString], mode: RedundancyMode) -> CoverageReport {
        grade(
            net,
            &SingleComparator,
            tests,
            mode,
            FaultSimEngine::default(),
        )
    }

    #[test]
    fn minimal_testset_achieves_full_coverage_of_detectable_faults() {
        let net = odd_even_merge_sort(6);
        let tests = sorting::binary_testset(6);
        let report = single(&net, &tests, Exhaustive);
        assert_eq!(report.missed, 0, "{report:?}");
        assert!(report.missed_faults.is_empty());
        assert!((report.coverage - 1.0).abs() < f64::EPSILON);
        assert!(report.detected > 0);
    }

    #[test]
    fn permutation_testset_cover_also_achieves_full_coverage() {
        // The covers of the C(n, n/2) - 1 test permutations contain every
        // unsorted string, so they too detect every detectable fault.
        let net = odd_even_merge_sort(6);
        let perms = sorting::permutation_testset(6);
        let tests: Vec<_> = perms.iter().flat_map(Permutation::cover).collect();
        let report = single(&net, &tests, Exhaustive);
        assert_eq!(report.missed, 0);
    }

    #[test]
    fn a_handful_of_random_inputs_miss_some_faults() {
        let net = odd_even_merge_sort(8);
        let mut sampler = NetworkSampler::new(5);
        let tests: Vec<_> = (0..3).map(|_| sampler.random_input(8)).collect();
        let report = single(&net, &tests, Skip);
        assert!(report.detected + report.missed == report.total_faults);
        assert!(
            report.missed > 0,
            "three random inputs should not catch everything"
        );
        assert_eq!(report.missed_faults.len(), report.missed);
        assert!(report.undetectable_faults.is_empty());
    }

    #[test]
    fn empty_test_sequence_detects_nothing() {
        let net = odd_even_merge_sort(5);
        let report = single(&net, &[], Skip);
        assert_eq!(report.detected, 0);
        assert_eq!(report.missed, report.total_faults);
        assert_eq!(report.mean_first_detection, 0.0);
    }

    #[test]
    fn empty_test_sequence_over_a_detectable_universe_never_reads_complete() {
        // The pinned edge-case semantics: an empty sequence must read 0.0
        // coverage whenever anything was detectable — with or without the
        // redundancy sweep classifying the misses.
        let net = odd_even_merge_sort(5);
        for mode in [Skip, Exhaustive] {
            for engine in [
                FaultSimEngine::Scalar,
                FaultSimEngine::BitParallelWide(LaneWidth::W4),
            ] {
                let report = grade::<BitString>(&net, &StuckLine, &[], mode, engine);
                assert_eq!(report.detected, 0);
                assert!(report.missed > 0, "stuck-line has detectable faults");
                assert_eq!(report.coverage, 0.0, "{mode:?}");
                assert!(!report.is_complete());
            }
        }
    }

    #[test]
    fn fully_redundant_universe_is_complete_even_with_no_tests() {
        // On a 1-line network every output is sorted, so both stuck-at
        // faults of the single input segment are redundant: the obligation
        // set is empty and coverage is 1.0 by vacuity — but only because
        // the redundancy sweep *proved* it, not because the sequence was
        // empty (the companion test above pins the detectable case to 0.0).
        let net = sortnet_network::Network::empty(1);
        let report =
            grade::<BitString>(&net, &StuckLine, &[], Exhaustive, FaultSimEngine::default());
        assert_eq!(report.total_faults, 2);
        assert_eq!(report.redundant_faults, 2);
        assert_eq!(report.missed, 0);
        assert_eq!(report.coverage, 1.0);
        assert!(report.is_complete());
        // Without the sweep the same faults count as missed: conservative,
        // and still not read as full coverage.
        let unchecked = grade::<BitString>(&net, &StuckLine, &[], Skip, FaultSimEngine::default());
        assert_eq!(unchecked.coverage, 0.0);
        assert!(!unchecked.is_complete());
    }

    #[test]
    fn scalar_and_bitparallel_engines_produce_identical_reports() {
        let mut sampler = NetworkSampler::new(1234);
        for _ in 0..5 {
            let net = sampler.network(7, 14);
            let tests: Vec<_> = (0..20).map(|_| sampler.random_input(7)).collect();
            for mode in [Skip, Exhaustive] {
                let scalar = grade(
                    &net,
                    &SingleComparator,
                    &tests,
                    mode,
                    FaultSimEngine::Scalar,
                );
                let bitpar = grade(
                    &net,
                    &SingleComparator,
                    &tests,
                    mode,
                    FaultSimEngine::BitParallelWide(LaneWidth::W4),
                );
                assert_eq!(scalar, bitpar, "net {net} {mode:?}");
            }
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let net = odd_even_merge_sort(6);
        let tests = sorting::binary_testset(6);
        let report = single(&net, &tests, Exhaustive);
        assert_eq!(
            report.detected + report.missed + report.redundant_faults,
            report.total_faults
        );
        assert_eq!(report.missed_faults.len(), report.missed);
        assert_eq!(report.undetectable_faults.len(), report.redundant_faults);
        assert!(report.max_first_detection as f64 >= report.mean_first_detection);
        assert!(report.max_first_detection <= tests.len());
    }

    #[test]
    fn universe_coverage_agrees_across_engines_on_stuck_lines() {
        let net = odd_even_merge_sort(6);
        let tests = sorting::binary_testset(6);
        let bitpar = grade(
            &net,
            &StuckLine,
            &tests,
            Exhaustive,
            FaultSimEngine::default(),
        );
        let scalar = grade(&net, &StuckLine, &tests, Exhaustive, FaultSimEngine::Scalar);
        assert_eq!(bitpar, scalar);
        assert_eq!(bitpar.total_faults, StuckLine.len(&net));
        // The stuck-line universe on a correct sorter has undetectable
        // faults (e.g. every stuck input segment) — unlike the
        // single-comparator universe, redundancy is the common case here.
        assert!(bitpar.redundant_faults >= 2 * net.lines());
    }

    #[test]
    fn standard_universes_all_produce_consistent_reports() {
        let net = odd_even_merge_sort(4);
        let tests = sorting::binary_testset(4);
        for universe in StandardUniverse::ALL {
            let report = grade(
                &net,
                &universe,
                &tests,
                Exhaustive,
                FaultSimEngine::default(),
            );
            assert_eq!(
                report.detected + report.missed + report.redundant_faults,
                report.total_faults,
                "universe {}",
                universe.name()
            );
            assert_eq!(report.total_faults, universe.len(&net));
        }
    }

    #[test]
    fn try_coverage_validates_up_front_and_agrees_otherwise() {
        let net = odd_even_merge_sort(6);
        let tests = sorting::binary_testset(6);
        // Agreement with the budgeted grade on a valid grade.
        let engine = FaultSimEngine::default();
        assert_eq!(
            coverage_of_universe_budgeted_packed_with(
                &net,
                &StuckLine,
                &tests,
                Exhaustive,
                engine,
                Backend::Scalar,
                &SweepBudget::unlimited()
            )
            .unwrap(),
            Budgeted::Complete(grade(&net, &StuckLine, &tests, Exhaustive, engine))
        );
        // An empty universe is a typed refusal.
        let empty = sortnet_network::Network::empty(3);
        assert_eq!(
            try_coverage_of_universe_packed_with::<BitString>(
                &empty,
                &SingleComparator,
                &[],
                Skip,
                engine
            )
            .unwrap_err(),
            EngineError::EmptyUniverse
        );
        // Mismatched test vectors are refused before any sweeping.
        let short = vec![BitString::from_word(0, 5)];
        assert_eq!(
            try_coverage_of_universe_packed_with(&net, &StuckLine, &short, Skip, engine)
                .unwrap_err(),
            EngineError::InputLengthMismatch {
                expected: 6,
                actual: 5
            }
        );
        // Redundancy sweeps are checked for admissibility up front, and
        // every engine shares the one canonical `ensure_sweepable` bound
        // with a single pinned error text.
        let wide = sortnet_network::Network::empty(33);
        for engine in [
            FaultSimEngine::Scalar,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ] {
            assert_eq!(
                try_coverage_of_universe_packed_with::<BitString>(
                    &wide,
                    &StuckLine,
                    &[],
                    Exhaustive,
                    engine
                )
                .unwrap_err(),
                EngineError::SweepTooLarge { lines: 33 },
                "{engine:?}"
            );
        }
        // n = 24 (the old scalar-only refusal point) is now admissible on
        // every engine — the unified guard sits at n < 32.
        let tests24 = vec![BitString::from_word(0, 24)];
        let net24 = sortnet_network::Network::from_pairs(24, &[(0, 1)]);
        assert!(try_coverage_of_universe_packed_with(
            &net24,
            &SingleComparator,
            &tests24,
            Skip,
            FaultSimEngine::Scalar
        )
        .is_ok());
    }

    #[test]
    fn redundancy_mode_names_itself_and_checks_admissibility() {
        assert_eq!(RedundancyMode::Exhaustive.provenance(), "exhaustive");
        assert_eq!(RedundancyMode::Skip.provenance(), "skipped");
        assert_eq!(
            RedundancyMode::RelativeTo(PackedFamily::SortedStrings).provenance(),
            "relative:sorted-strings"
        );
        // Admissibility: exhaustive keeps the canonical sweep bound,
        // relative is admitted past it.
        assert_eq!(
            RedundancyMode::Exhaustive
                .ensure_admissible(33)
                .unwrap_err(),
            EngineError::SweepTooLarge { lines: 33 }
        );
        assert!(RedundancyMode::RelativeTo(PackedFamily::SortedStrings)
            .ensure_admissible(96)
            .is_ok());
        assert!(RedundancyMode::Skip.ensure_admissible(4096).is_ok());
    }

    #[test]
    fn reports_carry_their_redundancy_provenance() {
        let net = odd_even_merge_sort(6);
        let tests = sorting::binary_testset(6);
        assert_eq!(single(&net, &tests, Exhaustive).redundancy, "exhaustive");
        assert_eq!(single(&net, &tests, Skip).redundancy, "skipped");
        let relative = grade(
            &net,
            &StuckLine,
            &tests,
            RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        );
        assert_eq!(relative.redundancy, "relative:sorted-strings");
    }

    #[test]
    fn relative_redundancy_is_sound_against_the_exhaustive_sweep() {
        // Every exhaustively redundant fault is undetected by *any*
        // vector, so relative classification can only ever move those
        // same faults (plus possibly more) out of `missed` — and with
        // the full binary family it is *exactly* the exhaustive verdict.
        let net = odd_even_merge_sort(5);
        let tests = vec![BitString::from_word(1, 5)];
        for engine in [
            FaultSimEngine::Scalar,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ] {
            let exhaustive = grade(&net, &StuckLine, &tests, Exhaustive, engine);
            let relative = grade(
                &net,
                &StuckLine,
                &tests,
                RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
                engine,
            );
            for fault in &exhaustive.undetectable_faults {
                assert!(
                    relative.undetectable_faults.contains(fault),
                    "{engine:?}: exhaustively redundant {fault:?} must be relatively redundant"
                );
            }
            assert!(relative.redundant_faults >= exhaustive.redundant_faults);
            assert_eq!(relative.detected, exhaustive.detected, "{engine:?}");
        }
    }

    #[test]
    fn engines_agree_on_relative_redundancy() {
        let mut sampler = NetworkSampler::new(77);
        for _ in 0..3 {
            let net = sampler.network(7, 12);
            let tests: Vec<_> = (0..4).map(|_| sampler.random_input(7)).collect();
            for family in [
                PackedFamily::SortedStrings,
                PackedFamily::WeightAtMost(2),
                PackedFamily::SingleRuns,
                PackedFamily::NecessityWitnesses,
            ] {
                let mode = RedundancyMode::RelativeTo(family);
                let scalar = grade(&net, &StuckLine, &tests, mode, FaultSimEngine::Scalar);
                for engine in [
                    FaultSimEngine::BitParallelWide(LaneWidth::W4),
                    FaultSimEngine::BitParallelWide(LaneWidth::W1),
                ] {
                    assert_eq!(
                        grade(&net, &StuckLine, &tests, mode, engine),
                        scalar,
                        "net {net} family {family} {engine:?}"
                    );
                }
            }
        }
        // A family longer than one W4 block, two of whose faults are first
        // detected in its second block: the scalar engine drains the
        // family a block at a time and must read past the first.
        let net = odd_even_merge_sort(12);
        let mode = RedundancyMode::RelativeTo(PackedFamily::WeightAtMost(3));
        let tests: Vec<BitString> = Vec::new();
        let engines = [
            FaultSimEngine::Scalar,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ];
        let [scalar, wide] =
            engines.map(|engine| grade(&net, &SingleComparator, &tests, mode, engine));
        assert_eq!(wide, scalar);
    }

    #[test]
    fn relative_redundancy_grades_past_the_64_line_wall() {
        // The headline capability: redundancy classification at n = 96,
        // where the exhaustive sweep is refused — graded relative to the
        // sorted-strings family instead, with provenance in the report.
        use sortnet_combinat::ChannelVec;
        let n = 96usize;
        let net = Network::from_pairs(n, &[(0, 95), (31, 64), (0, 1)]);
        let tests = vec![ChannelVec::zeros(n)];
        let mode = RedundancyMode::RelativeTo(PackedFamily::SortedStrings);
        let scalar = grade(&net, &StuckLine, &tests, mode, FaultSimEngine::Scalar);
        assert_eq!(scalar.redundancy, "relative:sorted-strings");
        assert_eq!(
            scalar.detected + scalar.missed + scalar.redundant_faults,
            scalar.total_faults
        );
        // The all-zeros test misses plenty; the family must classify some
        // of the misses (e.g. stuck-at-0 on the min output of (0, 95) is
        // invisible to every sorted string) while leaving genuinely
        // family-detectable misses in `missed`.
        assert!(scalar.redundant_faults > 0, "{scalar:?}");
        assert!(scalar.missed > 0, "{scalar:?}");
        for engine in [
            FaultSimEngine::BitParallelWide(LaneWidth::W1),
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ] {
            assert_eq!(
                grade(&net, &StuckLine, &tests, mode, engine),
                scalar,
                "{engine:?}"
            );
        }
        // Typed and budgeted entries agree.
        assert_eq!(
            try_coverage_of_universe_packed_with(
                &net,
                &StuckLine,
                &tests,
                mode,
                FaultSimEngine::BitParallelWide(LaneWidth::W4)
            )
            .unwrap(),
            scalar
        );
        let budgeted = coverage_of_universe_budgeted_packed_with(
            &net,
            &StuckLine,
            &tests,
            mode,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(budgeted, Budgeted::Complete(scalar));
    }

    #[test]
    fn tripped_budget_never_commits_relative_redundancy_verdicts() {
        use sortnet_network::budget::CancelToken;
        let net = odd_even_merge_sort(7);
        let mode = RedundancyMode::RelativeTo(PackedFamily::SortedStrings);
        let token = CancelToken::new();
        token.cancel();
        for engine in [
            FaultSimEngine::Scalar,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ] {
            let cancelled = coverage_of_universe_budgeted_packed_with::<BitString>(
                &net,
                &StuckLine,
                &[],
                mode,
                engine,
                Backend::Scalar,
                &SweepBudget::unlimited().with_cancel(token.clone()),
            )
            .unwrap();
            assert!(!cancelled.is_complete(), "{engine:?}");
            let report = cancelled.value();
            assert_eq!(report.redundant_faults, 0, "{engine:?}");
            assert_eq!(report.missed, report.total_faults, "{engine:?}");
        }
    }

    #[test]
    fn packed_redundancy_grade_is_refused_up_front() {
        // Before the up-front guard, this grade paid the whole n = 96
        // first-detection sweep and only then hit `SweepTooLarge` deep in
        // the redundancy phase.  Now it is refused before any sweep runs:
        // even a pre-cancelled budget, which would trip at the first
        // block, sees the refusal and not a partial report.
        use sortnet_combinat::ChannelVec;
        use sortnet_network::budget::CancelToken;
        let net = Network::from_pairs(96, &[(0, 95)]);
        let tests = vec![ChannelVec::zeros(96)];
        let refused = EngineError::SweepTooLarge { lines: 96 };
        assert_eq!(
            try_coverage_of_universe_packed_with(
                &net,
                &StuckLine,
                &tests,
                Exhaustive,
                FaultSimEngine::BitParallelWide(LaneWidth::W4)
            )
            .unwrap_err(),
            refused
        );
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            coverage_of_universe_budgeted_packed_with(
                &net,
                &StuckLine,
                &tests,
                Exhaustive,
                FaultSimEngine::BitParallelWide(LaneWidth::W4),
                Backend::Scalar,
                &SweepBudget::unlimited().with_cancel(token)
            )
            .unwrap_err(),
            refused
        );
        assert!(refused
            .to_string()
            .contains("exhaustive 2^96 sweep refused"));
    }

    #[test]
    fn redundancy_verdicts_classify_nothing_once_the_shared_meter_trips() {
        // The redundancy phase the service shares with the cold path, under
        // a caller's meter: unlimited, it reproduces the scalar verdicts;
        // tripped (a cancelled token), it leaves every fault unclassified.
        use sortnet_network::budget::CancelToken;
        let net = odd_even_merge_sort(6);
        let faults: Vec<MultiFault> = StuckLine.iter(&net).collect();
        let family: Vec<BitString> = PackedFamily::SortedStrings.collect(6);
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SweepBudget::unlimited().with_cancel(token);
        for mode in [
            Exhaustive,
            RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
        ] {
            let verdicts = redundancy_verdicts_on::<4, BitString>(
                &net,
                &faults,
                |_| true,
                mode,
                Backend::Scalar,
                &mut BudgetMeter::unlimited(),
            );
            for (fault, &verdict) in faults.iter().zip(&verdicts) {
                let expected = match mode {
                    Exhaustive => is_multi_fault_redundant(&net, fault),
                    _ => is_multi_fault_redundant_relative(&net, fault, &family),
                };
                assert_eq!(verdict, expected, "{mode:?} {fault}");
            }
            assert!(verdicts.iter().any(|&v| v), "{mode:?}");
            let mut meter = BudgetMeter::new(&cancelled);
            let starved = redundancy_verdicts_on::<4, BitString>(
                &net,
                &faults,
                |_| true,
                mode,
                Backend::Scalar,
                &mut meter,
            );
            assert!(starved.iter().all(|&v| !v), "{mode:?}");
            assert!(meter.tripped().is_some(), "{mode:?}");
        }
    }

    #[test]
    fn scalar_and_bitparallel_agree_on_redundancy_at_the_old_scalar_bound() {
        // n = 24 sat in the scalar-refused / bit-parallel-accepted gap
        // before the guards were unified; pin that the scalar engine now
        // accepts it (guard-wise) by grading a trivially small universe
        // with redundancy on a 24-line network under a budget that keeps
        // the exhaustive sweep affordable.
        let net = sortnet_network::Network::from_pairs(24, &[(0, 1)]);
        let tests = vec![BitString::from_word(1 << 1, 24)];
        // One block: the first fault's test scan is admitted, the 2^24
        // redundancy sweep is budget-refused — the guard acceptance is
        // what's under test, not the exhaustive sweep itself.
        let budget = SweepBudget::unlimited().with_max_blocks(1);
        let scalar = coverage_of_universe_budgeted_packed_with(
            &net,
            &SingleComparator,
            &tests,
            Exhaustive,
            FaultSimEngine::Scalar,
            Backend::Scalar,
            &budget,
        )
        .unwrap();
        // The grade ran (budget bounds the exhaustive part); the point is
        // the guard no longer refuses n = 24 on the scalar engine.
        let report = scalar.into_value();
        assert_eq!(report.total_faults, SingleComparator.len(&net));
    }

    #[test]
    fn unlimited_budget_reproduces_the_unbudgeted_report_on_every_engine() {
        let net = odd_even_merge_sort(6);
        let tests = sorting::binary_testset(6);
        for engine in [
            FaultSimEngine::Scalar,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
            FaultSimEngine::BitParallelWide(LaneWidth::W1),
        ] {
            let budgeted = coverage_of_universe_budgeted_packed_with(
                &net,
                &StuckLine,
                &tests,
                Exhaustive,
                engine,
                Backend::Scalar,
                &SweepBudget::unlimited(),
            )
            .unwrap();
            assert!(budgeted.is_complete(), "{engine:?}");
            assert_eq!(
                budgeted.into_value(),
                grade(&net, &StuckLine, &tests, Exhaustive, engine),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn tripped_budget_degrades_to_a_conservative_partial_report() {
        use sortnet_network::budget::CancelToken;
        let net = odd_even_merge_sort(7);
        let tests = sorting::binary_testset(7);
        let full = grade(&net, &StuckLine, &tests, Skip, FaultSimEngine::default());
        // A pre-cancelled token: nothing commits, everything reads missed.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = coverage_of_universe_budgeted_packed_with(
            &net,
            &StuckLine,
            &tests,
            Skip,
            FaultSimEngine::default(),
            Backend::Scalar,
            &SweepBudget::unlimited().with_cancel(token),
        )
        .unwrap();
        assert!(!cancelled.is_complete());
        let report = cancelled.value();
        assert_eq!(report.detected, 0);
        assert_eq!(report.missed, report.total_faults);
        assert!(!report.is_complete());
        // A small fork budget on the scalar-metered engine: whatever was
        // decided is exact, the rest is conservatively missed.
        let starved = coverage_of_universe_budgeted_packed_with(
            &net,
            &StuckLine,
            &tests,
            Skip,
            FaultSimEngine::Scalar,
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(3),
        )
        .unwrap();
        assert!(!starved.is_complete());
        let partial = starved.value();
        assert_eq!(
            partial.detected + partial.missed + partial.redundant_faults,
            partial.total_faults
        );
        assert!(partial.detected <= full.detected);
        assert!(partial.missed >= full.missed);
        assert!(partial.coverage <= full.coverage + f64::EPSILON);
    }

    #[test]
    fn budgeted_scalar_grade_decides_a_prefix_of_the_faults_in_order() {
        // The scalar engine grades faults one by one on the caller's meter:
        // under `with_max_blocks(k)` and `Skip`, exactly the first k faults
        // in enumeration order are scanned (one block of |tests| vectors
        // each), and the rest stay undecided and count as missed.
        use sortnet_network::budget::BudgetReason;
        let net = odd_even_merge_sort(7);
        let tests = sorting::binary_testset(7);
        let faults: Vec<MultiFault> = StuckLine.iter(&net).collect();
        let firsts: Vec<Option<usize>> = faults
            .iter()
            .map(|f| multi_first_detection_index(&net, f, &tests))
            .collect();
        let scalar = |budget: &SweepBudget| {
            coverage_of_universe_budgeted_packed_with(
                &net,
                &StuckLine,
                &tests,
                Skip,
                FaultSimEngine::Scalar,
                Backend::Scalar,
                budget,
            )
            .unwrap()
        };
        for k in [0usize, 1, 5, faults.len() / 2, faults.len() - 1] {
            let Budgeted::Partial {
                progress,
                reason,
                best_so_far,
            } = scalar(&SweepBudget::unlimited().with_max_blocks(k as u64))
            else {
                panic!("a cap of {k} blocks must trip");
            };
            assert_eq!(reason, BudgetReason::Blocks);
            assert_eq!(progress.blocks, k as u64);
            assert_eq!(progress.vectors, (k * tests.len()) as u64);
            let mut first = firsts.clone();
            first[k..].fill(None);
            let expected = summarise_verdicts(&faults, &first, &vec![false; faults.len()], Skip);
            assert_eq!(best_so_far, expected, "k = {k}");
            assert!(best_so_far.missed_faults.ends_with(&faults[k..]));
        }
        // A cap of one block per fault is exactly enough, and the complete
        // scalar grade equals the bit-parallel one.
        let whole = scalar(&SweepBudget::unlimited().with_max_blocks(faults.len() as u64));
        assert_eq!(
            whole,
            Budgeted::Complete(grade(
                &net,
                &StuckLine,
                &tests,
                Skip,
                FaultSimEngine::BitParallelWide(LaneWidth::W4)
            ))
        );
    }

    #[test]
    fn packed_coverage_crosses_the_64_line_wall_consistently() {
        // n = 96 stuck-line coverage: scalar channel oracle and every
        // bit-parallel width must produce the identical report, and the
        // typed entry must agree (redundancy checking stays off — the
        // exhaustive 2^96 sweep is inadmissible, as at any n ≥ 32).
        use sortnet_combinat::ChannelVec;
        let n = 96usize;
        let net = Network::from_pairs(n, &[(0, 95), (0, 64), (63, 65), (31, 64), (0, 1)]);
        let tests: Vec<ChannelVec> = vec![
            ChannelVec::from_fn(n, |i| i == 64),
            ChannelVec::from_fn(n, |i| i != 63),
            ChannelVec::from_fn(n, |i| i % 3 == 1),
        ];
        let scalar = grade(&net, &StuckLine, &tests, Skip, FaultSimEngine::Scalar);
        assert_eq!(scalar.total_faults, StuckLine.len(&net));
        assert!(scalar.detected > 0, "{scalar:?}");
        for engine in [
            FaultSimEngine::BitParallelWide(LaneWidth::W1),
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ] {
            assert_eq!(
                grade(&net, &StuckLine, &tests, Skip, engine),
                scalar,
                "{engine:?}"
            );
        }
        // The budgeted packed grade completes under an unlimited budget.
        let budgeted = coverage_of_universe_budgeted_packed_with(
            &net,
            &StuckLine,
            &tests,
            Skip,
            FaultSimEngine::BitParallelWide(LaneWidth::W1),
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(budgeted, Budgeted::Complete(scalar));
    }
}
