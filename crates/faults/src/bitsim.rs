//! Bit-parallel fault simulation: `W × 64` test vectors per pass per fault,
//! with shared-prefix forking.
//!
//! # Lane encoding
//!
//! Tests are packed into [`WideBlock<W>`]s, the width-generic transposed
//! (bit-sliced) representation from [`sortnet_network::lanes`]: lane `i` is
//! a `[u64; W]` holding, for each of up to `W × 64` test vectors, the
//! current value of network line `i`; bit `j` of word `w` of every lane
//! belongs to test vector `w·64 + j` of the block.  A fault-free comparator
//! on lines `(i, j)` is then `2W` bitwise ops (`AND` to the min line, `OR`
//! to the max line), and each of the four [`FaultKind`]s has an equally
//! cheap lane form:
//!
//! | fault | lane semantics |
//! |---|---|
//! | [`FaultKind::StuckPass`] | skip the comparator (lanes unchanged) |
//! | [`FaultKind::StuckSwap`] | exchange the two lanes unconditionally |
//! | [`FaultKind::Inverted`] | `OR` to the min line, `AND` to the max line |
//! | [`FaultKind::Misrouted`] | comparator between `top` and `new_bottom` |
//!
//! A test vector *detects* a fault when the faulty network leaves it
//! unsorted, so one sortedness scan per fault per block yields `W × 64`
//! detection verdicts at once.
//!
//! # Shared-prefix forking, in two levels
//!
//! Every fault of every [`FaultUniverse`](crate::universe::FaultUniverse)
//! has a *fork site*: the cut position before which it is identical to the
//! fault-free network ([`MultiFault::fork_site`]).  The engine sweeps each
//! block through the faults in nondecreasing fork-site order, evaluating
//! the fault-free prefix incrementally, **once per block**: when the
//! running prefix state reaches a fault's site, the fault forks the state
//! (a `memcpy` of `n·W` words into a reusable scratch block), applies its
//! lesion timeline, and runs only the remaining suffix.  For `F` faults,
//! `T` tests and `C` comparators this turns the scalar `O(F·T·C)`
//! comparator evaluations into `O(T·C + F·T·(C − c̄))/(64·W)` lane-word
//! operations, where `c̄` is the mean fork site — the lane win and the
//! suffix win compose multiplicatively, and widening `W` amortises each
//! fork over `W × 64` vectors instead of 64.  The same forking drives the
//! batch redundancy sweep ([`redundant_faults_multi_on`]), which streams
//! the exhaustive `2^n` family once for the whole fault set instead of
//! re-running the fault-free prefix per fault.
//!
//! For **two-lesion faults** (the quadratic
//! [`FaultPairs`](crate::universe::FaultPairs) universes, where many pairs
//! share their *first* lesion) the fork nests: the sweep
//! plan groups faults by first lesion, the block forks **once per group**
//! from the fault-free prefix, applies the shared first lesion, and keeps
//! that state as a *checkpoint*; each partner then forks from the
//! checkpoint at its own second-lesion site and runs only the remaining
//! suffix.  The checkpoint advances fault-free between partners, so the
//! `first lesion → second lesion` span is evaluated once per group
//! instead of once per pair — roughly halving the quadratic sweep's
//! suffix work.  Correctness rests on the same invariant at both levels
//! (see the [`sortnet_network::lanes`] docs): a shared state
//! advanced through comparators `0..p` may only serve forks whose site is
//! `≥ p`, so fork sites must be visited in nondecreasing order — the plan
//! sorts groups by first-lesion timeline key (whose leading component is
//! the fork site) and partners within a group by second-lesion site.
//!
//! # Lane backends
//!
//! All sweeps execute their word kernels on a pluggable lane-ops
//! [`Backend`] (scalar / portable-chunked / AVX2, runtime-detected; see
//! [`sortnet_network::lanes::backend`]).  Every sweep entry point takes
//! the backend explicitly, and every backend produces bit-identical
//! results — the differential suite sweeps backend × universe × width.
//!
//! # One core per operation
//!
//! Two private drivers run every sweep, each over any [`BlockSource`] and
//! each threading a [`BudgetMeter`]:
//!
//! * the **early-exit first-detection driver**, which drops each fault at
//!   its first detecting block and indexes detections by cumulative
//!   vector count; and
//! * the **whole-block-commit matrix driver**, which records every
//!   fault × vector bit and echoes the swept vectors.
//!
//! An operation is one driver call over one source.  An unbudgeted call
//! passes [`BudgetMeter::unlimited`], whose per-block cost is one
//! admission test:
//!
//! | operation | driver | source |
//! |---|---|---|
//! | first detections of a test list | early exit | [`SliceSource`] |
//! | exhaustive redundancy | early exit | [`RangeSource::exhaustive`] |
//! | relative redundancy (`crate::coverage`) | early exit | [`SliceSource`] over the collected family |
//! | matrix of a test list | matrix | [`SliceSource`] |
//! | candidate matrix of a family | matrix | any [`BlockSource`] |
//!
//! # Entry points
//!
//! * [`first_detections_multi_budgeted_packed_on`],
//!   [`redundant_faults_multi_budgeted_on`] and
//!   [`detection_matrix_from_source_budgeted_on`] — the typed, budgeted
//!   forms: every precondition comes back as an
//!   [`EngineError`], and a tripped budget degrades to an exact
//!   [`Budgeted::Partial`];
//! * [`first_detections_multi_packed_on`], [`redundant_faults_multi_on`]
//!   and [`detection_matrix_from_source_packed_on`] — the same three
//!   operations unbudgeted and unchecked (they panic on bad inputs).  They
//!   stay because the repository benchmark's adapter names them;
//! * [`faulty_run_block`] / [`multi_faulty_run_block`] — one fault over one
//!   block (the oracle hooks the property tests cross-check against the
//!   scalar simulator);
//! * [`is_fault_redundant_wide`] — the *per-fault* blocked `2^n`
//!   redundancy sweep, kept as the reference the batch sweep is
//!   regression-pinned against.
//!
//! Every entry point is generic over the lane width `W` (the `W = 1`
//! instantiation reproduces the original single-word engine bit for bit)
//! and, where it takes test vectors, over their
//! [`TestVector`] packing `P`: `P = BitString` is the monomorphised
//! `n ≤ 64` fast path, while `P = ChannelVec`
//! (`sortnet_combinat::ChannelVec`) runs the identical sweep past the
//! 64-line wall.  The lane dimension of [`WideBlock`] is line-indexed —
//! `n > 64` costs more lanes, not different kernels — so only the
//! pack/extract boundary and the packability guard depend on `P` (see the
//! *ChannelWords* section of [`sortnet_network::lanes`]).

use sortnet_network::bitparallel;
use sortnet_network::budget::{BudgetMeter, Budgeted, SweepBudget};
use sortnet_network::error::{self, EngineError};
use sortnet_network::lanes::{self, Backend, BlockSource, RangeSource, SliceSource, WideBlock};
use sortnet_network::Network;

use crate::model::{Fault, FaultKind};
use crate::universe::{Lesion, MultiFault, TestVector};

/// Applies the faulty version of comparator `fault.comparator` to a block:
/// the lane-level counterpart of one faulty step of
/// [`faulty_apply_bits`](crate::simulate::faulty_apply_bits).
#[inline]
fn apply_faulty_comparator<const W: usize>(
    network: &Network,
    backend: Backend,
    fault: &Fault,
    block: &mut WideBlock<W>,
) {
    let c = network.comparators()[fault.comparator];
    match fault.kind {
        FaultKind::StuckPass => {}
        FaultKind::StuckSwap => block.swap_lanes(c.min_line(), c.max_line()),
        FaultKind::Inverted => block.apply_comparator_with(backend, c.max_line(), c.min_line()),
        // A misroute onto the comparator's own top line degenerates to a
        // no-op in the scalar simulator's word arithmetic; mirror that
        // instead of tripping `apply_comparator_with`'s distinct-lines assert.
        // (`enumerate_faults` never emits this shape, but the fault type
        // admits it.)
        FaultKind::Misrouted { new_bottom } => {
            if new_bottom != c.top() {
                block.apply_comparator_with(backend, c.top(), new_bottom);
            }
        }
    }
}

/// Runs the faulty network over one block of up to `W × 64` test vectors,
/// in place.
///
/// Equivalent to `W × 64` scalar
/// [`faulty_apply_bits`](crate::simulate::faulty_apply_bits) calls; the
/// proptest suite (`tests/proptest_bitsim.rs`) holds the two to exact
/// agreement on all four [`FaultKind`]s.
///
/// # Panics
/// Panics if the fault's comparator index is out of range.
pub fn faulty_run_block<const W: usize>(
    network: &Network,
    fault: &Fault,
    block: &mut WideBlock<W>,
) {
    assert!(
        fault.comparator < network.size(),
        "fault index out of range"
    );
    let backend = Backend::active();
    block.run_range_with(backend, network, 0, fault.comparator);
    apply_faulty_comparator(network, backend, fault, block);
    block.run_range_with(backend, network, fault.comparator + 1, network.size());
}

/// Applies one lesion to a block whose comparators `0..pos` have already
/// run, returning the new cut position: the lane-level counterpart of one
/// step of the scalar lesion timeline in [`crate::universe`].
#[inline]
fn apply_lesion_from<const W: usize>(
    network: &Network,
    backend: Backend,
    lesion: &Lesion,
    block: &mut WideBlock<W>,
    pos: usize,
) -> usize {
    match lesion {
        Lesion::Comparator(fault) => {
            block.run_range_with(backend, network, pos, fault.comparator);
            apply_faulty_comparator(network, backend, fault, block);
            fault.comparator + 1
        }
        Lesion::Stuck(s) => {
            block.run_range_with(backend, network, pos, s.cut);
            block.fill_lane(s.line, s.value);
            s.cut
        }
    }
}

/// Runs a fault's lesion timeline over a block whose comparators `0..pos`
/// have already been applied fault-free — the suffix half of a
/// shared-prefix fork.
///
/// # Panics
/// Panics (in debug builds) if `pos` exceeds the fault's fork site.
fn run_multi_from<const W: usize>(
    network: &Network,
    backend: Backend,
    fault: &MultiFault,
    block: &mut WideBlock<W>,
    mut pos: usize,
) {
    debug_assert!(pos <= fault.fork_site(), "fork past the fault's site");
    for lesion in fault.lesions() {
        pos = apply_lesion_from(network, backend, lesion, block, pos);
    }
    block.run_range_with(backend, network, pos, network.size());
}

/// Runs the multi-fault network over one block of up to `W × 64` test
/// vectors, in place — the lane-level counterpart of
/// [`multi_faulty_apply_bits`](crate::universe::multi_faulty_apply_bits),
/// for faults of **any** universe.
///
/// # Panics
/// Panics if a lesion of the fault does not fit the network.
pub fn multi_faulty_run_block<const W: usize>(
    network: &Network,
    fault: &MultiFault,
    block: &mut WideBlock<W>,
) {
    fault.assert_in_range(network);
    run_multi_from(network, Backend::active(), fault, block, 0);
}

/// A faults × tests detection bitmap: bit `t` of row `f` is set when test
/// `t` detects fault `f`.
///
/// Rows are packed 64 tests per word — a layout independent of the lane
/// width the matrix was computed with, so every `W` produces the identical
/// matrix — and summary statistics reduce to word-level
/// `count_ones`/`trailing_zeros` scans instead of per-test `Option<usize>`
/// bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectionMatrix {
    faults: Vec<MultiFault>,
    test_count: usize,
    words_per_fault: usize,
    bits: Vec<u64>,
}

impl DetectionMatrix {
    /// The fault universe the matrix was computed for, in row order.
    #[must_use]
    pub fn faults(&self) -> &[MultiFault] {
        &self.faults
    }

    /// Number of rows (faults).
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Number of columns (tests).
    #[must_use]
    pub fn test_count(&self) -> usize {
        self.test_count
    }

    /// `true` when test `test` detects fault `fault`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[must_use]
    pub fn is_detected_by(&self, fault: usize, test: usize) -> bool {
        assert!(fault < self.fault_count(), "fault index out of range");
        assert!(test < self.test_count, "test index out of range");
        let word = self.bits[fault * self.words_per_fault + test / 64];
        (word >> (test % 64)) & 1 == 1
    }

    /// `true` when at least one test detects fault `fault`.
    #[must_use]
    pub fn detected(&self, fault: usize) -> bool {
        self.row(fault).iter().any(|&w| w != 0)
    }

    /// 0-based index of the first test detecting fault `fault`, or `None` —
    /// a word-level `trailing_zeros` scan over the row.
    #[must_use]
    pub fn first_detection(&self, fault: usize) -> Option<usize> {
        self.row(fault)
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Number of tests that detect fault `fault` (a popcount over the row).
    #[must_use]
    pub fn detection_count(&self, fault: usize) -> usize {
        self.row(fault)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The raw detection bitmap of fault `fault`: tests packed 64 per
    /// word, test `t` at bit `t % 64` of word `t / 64` — the export the
    /// set-cover/augmentation machinery in `sortnet-testsets` transposes
    /// into per-candidate fault masks.
    ///
    /// # Panics
    /// Panics if the fault index is out of range.
    #[must_use]
    pub fn row_words(&self, fault: usize) -> &[u64] {
        self.row(fault)
    }

    fn row(&self, fault: usize) -> &[u64] {
        assert!(fault < self.fault_count(), "fault index out of range");
        &self.bits[fault * self.words_per_fault..(fault + 1) * self.words_per_fault]
    }
}

/// Precomputed traversal order for [`sweep_block_multi`]: fault indices
/// sorted by the first lesion's timeline key and — within equal first
/// lesions — by second-lesion fork site, then cut into contiguous
/// *groups* of faults sharing their first lesion.
///
/// The double sort realises the fork invariant at both levels (see the
/// module docs): group fork sites are nondecreasing across the sweep
/// (the timeline key's leading component is the fork site), and
/// second-lesion sites are nondecreasing within each group.  The
/// enumeration order of the fault slice itself stays the row/result
/// order — a plan only changes the *visit* order.
struct SweepPlan {
    /// Fault indices in visit order; groups are contiguous runs.
    members: Vec<usize>,
    /// Exclusive end offset of each group in `members`.
    group_ends: Vec<usize>,
}

/// Sort key of one planned fault: `(first-lesion timeline key,
/// second-lesion fork site, enumeration index)`.
type PlanKey = ((usize, u8, usize, usize), usize, usize);

impl SweepPlan {
    fn new(network: &Network, faults: &[MultiFault]) -> Self {
        // Keys are materialised once and sorted as plain primitive tuples:
        // `sort_by_key` recomputes its key per *comparison*, which made
        // plan construction a measurable slice of quadratic pair sweeps
        // (~57 µs of a ~400 µs pairs(stuck-line) n = 8 coverage run).
        let mut keyed: Vec<PlanKey> = Vec::with_capacity(faults.len());
        for (i, fault) in faults.iter().enumerate() {
            fault.assert_in_range(network);
            let lesions = fault.lesions();
            let second_site = lesions.get(1).map_or(0, Lesion::fork_site);
            keyed.push((lesions[0].order_key(), second_site, i));
        }
        keyed.sort_unstable();
        let mut members = Vec::with_capacity(keyed.len());
        let mut group_ends = Vec::new();
        // The timeline key encodes the whole lesion, so equal keys ⟺ equal
        // first lesions: grouping needs no lesion comparisons.
        let mut prev_key = None;
        for &(key, _, idx) in &keyed {
            if prev_key != Some(key) {
                if !members.is_empty() {
                    group_ends.push(members.len());
                }
                prev_key = Some(key);
            }
            members.push(idx);
        }
        if !members.is_empty() {
            group_ends.push(members.len());
        }
        Self {
            members,
            group_ends,
        }
    }

    /// The groups, in visit order: each is a slice of fault indices
    /// sharing one first lesion.
    fn groups(&self) -> impl Iterator<Item = &[usize]> {
        self.group_ends.iter().scan(0usize, |start, &end| {
            let group = &self.members[*start..end];
            *start = end;
            Some(group)
        })
    }
}

/// Sweeps one block of tests over every fault via **two-level**
/// shared-prefix forking and hands each `(fault index, detected-masks)`
/// pair to `record`.
///
/// Level 1: the fault-free prefix advances incrementally across groups
/// (nondecreasing first-lesion sites); each multi-member group forks it
/// once, applies the shared first lesion, and keeps the result as a
/// checkpoint.  Level 2: the checkpoint advances fault-free within the
/// group (nondecreasing second-lesion sites); each partner forks it,
/// applies its second lesion, and runs only the remaining suffix.
/// Singleton groups fork straight off the prefix — identical to the
/// single-level engine, with no checkpoint copy.
///
/// `plan` is the [`SweepPlan`] of `faults`; `skip` filters faults out of
/// the sweep (used for early exit once a fault has been detected in an
/// earlier block) — a fully-skipped group costs nothing beyond the
/// shared prefix advance.
///
/// Every fork (level-1 checkpoint copies and level-2 partner copies
/// alike) asks `meter` for admission first.  Returns `false` when the
/// meter refuses mid-block — the caller must then discard everything
/// `record` received for this block (the no-partial-rows guarantee);
/// unbudgeted callers pass [`BudgetMeter::unlimited`] and always get
/// `true` back.
#[allow(clippy::too_many_arguments)]
fn sweep_block_multi<const W: usize>(
    network: &Network,
    backend: Backend,
    plan: &SweepPlan,
    faults: &[MultiFault],
    block: &WideBlock<W>,
    skip: impl Fn(usize) -> bool,
    mut record: impl FnMut(usize, [u64; W]),
    meter: &mut BudgetMeter,
) -> bool {
    let mut prefix = block.clone();
    let mut checkpoint = block.clone();
    let mut fork = block.clone();
    // The live mask depends only on the block's count — hoist it and
    // intersect the raw fused run-and-scan masks per fault.
    let live = block.live_masks();
    let size = network.size();
    let mut pos = 0usize;
    for group in plan.groups() {
        let first = faults[group[0]].lesions()[0];
        let site = first.fork_site();
        debug_assert!(site >= pos, "group sites must be nondecreasing");
        if site > pos {
            prefix.run_range_with(backend, network, pos, site);
            pos = site;
        }
        if let [fault_idx] = *group {
            // Singleton group: single-level fork off the fault-free prefix.
            if skip(fault_idx) {
                continue;
            }
            if !meter.admit_fork() {
                return false;
            }
            fork.copy_from(&prefix);
            let mut p = pos;
            for lesion in faults[fault_idx].lesions() {
                p = apply_lesion_from(network, backend, lesion, &mut fork, p);
            }
            let mut masks = fork.run_range_scan_with(backend, network, p, size);
            for w in 0..W {
                masks[w] &= live[w];
            }
            record(fault_idx, masks);
            continue;
        }
        if group.iter().all(|&i| skip(i)) {
            continue;
        }
        // Level-1 fork: apply the group's shared first lesion once.
        if !meter.admit_fork() {
            return false;
        }
        checkpoint.copy_from(&prefix);
        let mut cpos = apply_lesion_from(network, backend, &first, &mut checkpoint, pos);
        for &fault_idx in group {
            if skip(fault_idx) {
                continue;
            }
            if !meter.admit_fork() {
                return false;
            }
            let end = match faults[fault_idx].lesions() {
                // A single-lesion fault sharing the group's lesion: the
                // checkpoint (first lesion + fault-free continuation to
                // `cpos`) is already its evaluation up to `cpos`.
                [_] => {
                    fork.copy_from(&checkpoint);
                    cpos
                }
                // Level-2 fork: advance the checkpoint fault-free to the
                // partner's site, snapshot, apply the second lesion.
                [_, second] => {
                    let second_site = second.fork_site();
                    debug_assert!(second_site >= cpos, "partner sites must be nondecreasing");
                    if second_site > cpos {
                        checkpoint.run_range_with(backend, network, cpos, second_site);
                        cpos = second_site;
                    }
                    fork.copy_from(&checkpoint);
                    apply_lesion_from(network, backend, second, &mut fork, cpos)
                }
                _ => unreachable!("a MultiFault holds 1 or 2 lesions"),
            };
            // Fused suffix run + sortedness scan: one dispatch per fork.
            let mut masks = fork.run_range_scan_with(backend, network, end, size);
            for w in 0..W {
                masks[w] &= live[w];
            }
            record(fault_idx, masks);
        }
    }
    true
}

/// ORs the live bits of a per-word detection mask into a growing row
/// bitmap at bit position `offset` (the number of tests already recorded).
/// `count` is the number of live vectors in the mask; bits past it are
/// zero (the sweep intersects with the block's live mask), so spills past
/// the row's end never carry set bits.
fn append_mask_bits<const W: usize>(
    row: &mut Vec<u64>,
    offset: usize,
    masks: &[u64; W],
    count: usize,
) {
    let need = (offset + count).div_ceil(64);
    if row.len() < need {
        row.resize(need, 0);
    }
    for (w, &mask) in masks.iter().take(count.div_ceil(64)).enumerate() {
        let p = offset + w * 64;
        let (word, shift) = (p / 64, p % 64);
        row[word] |= mask << shift;
        if shift != 0 {
            let spill = mask >> (64 - shift);
            if spill != 0 {
                row[word + 1] |= spill;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The two drivers.
//
// Every operation of this module is one call of one of these over some
// `BlockSource`, under a `BudgetMeter`: the caller's budget, or
// `BudgetMeter::unlimited()`, which admits every block and fork.
// ---------------------------------------------------------------------------

/// The early-exit first-detection driver: streams `source`, sweeps every
/// still-undetected fault over each block, and records for each fault the
/// index of its first detecting vector in the stream.  Indices are
/// cumulative vector counts, so a partial block mid-stream indexes
/// correctly.  A fault leaves the sweep at its first detecting block, and
/// the stream stops as soon as every fault is detected.
///
/// The meter is asked once per block and once per fork.  A refusal ends
/// the sweep and discards the in-flight block's detections, so a `Some`
/// is always exact, and after a trip a `None` means *undecided over the
/// committed prefix*.
fn first_detections_driver<const W: usize, S: BlockSource<W>>(
    network: &Network,
    backend: Backend,
    faults: &[MultiFault],
    mut source: S,
    meter: &mut BudgetMeter,
) -> Vec<Option<usize>> {
    let plan = SweepPlan::new(network, faults);
    let mut first: Vec<Option<usize>> = vec![None; faults.len()];
    let mut undetected = faults.len();
    // The borrow of `first` inside both sweep closures is disjoint in time
    // (skip reads before record writes per fault), but the compiler cannot
    // see that — collect each block's verdicts first, in a buffer reused
    // across blocks.
    let mut hits: Vec<(usize, u32)> = Vec::with_capacity(faults.len());
    let mut block = WideBlock::<W>::zeroed(network.lines());
    let mut offset = 0usize;
    while undetected > 0 && source.next_block(&mut block) {
        if !meter.admit_block(u64::from(block.count())) {
            break;
        }
        hits.clear();
        let swept = sweep_block_multi(
            network,
            backend,
            &plan,
            faults,
            &block,
            |fault_idx| first[fault_idx].is_some(),
            |fault_idx, masks| {
                if let Some(j) = lanes::mask_first(&masks) {
                    hits.push((fault_idx, j));
                }
            },
            meter,
        );
        if !swept {
            break;
        }
        for &(fault_idx, j) in &hits {
            first[fault_idx] = Some(offset + j as usize);
            undetected -= 1;
        }
        offset += block.count() as usize;
    }
    first
}

/// The whole-block-commit matrix driver: streams `source`, sweeps every
/// fault over each block, and returns the faults × vectors
/// [`DetectionMatrix`] together with the vectors themselves, extracted as
/// `P` in stream order.  This *candidate echo* lets callers (the
/// augmentation search) map columns back to vectors without materialising
/// the family twice.
///
/// Columns are indexed by cumulative vector count.  A block's columns and
/// its echoed vectors are committed together, and only once the whole
/// block has swept within the meter.  A refused block or fork discards
/// the in-flight block, so the result is always the full matrix
/// restricted to its first [`DetectionMatrix::test_count`] columns, with
/// no partially swept column observable.
///
/// # Panics
/// Panics if the source's line count mismatches the network.
fn matrix_driver<const W: usize, P: TestVector, S: BlockSource<W>>(
    network: &Network,
    backend: Backend,
    faults: &[MultiFault],
    mut source: S,
    meter: &mut BudgetMeter,
) -> (DetectionMatrix, Vec<P>) {
    assert_eq!(
        source.lines(),
        network.lines(),
        "source line count mismatch"
    );
    let plan = SweepPlan::new(network, faults);
    let mut rows: Vec<Vec<u64>> = vec![Vec::new(); faults.len()];
    let mut vectors: Vec<P> = Vec::new();
    let mut block = WideBlock::<W>::zeroed(network.lines());
    // Per-block scratch: every fault is recorded each block (nothing is
    // skipped), and the masks reach `rows` only once the block commits.
    let mut scratch = vec![[0u64; W]; faults.len()];
    while source.next_block(&mut block) {
        let count = block.count() as usize;
        if !meter.admit_block(count as u64) {
            break;
        }
        let swept = sweep_block_multi(
            network,
            backend,
            &plan,
            faults,
            &block,
            |_| false,
            |fault_idx, masks: [u64; W]| scratch[fault_idx] = masks,
            meter,
        );
        if !swept {
            break;
        }
        let offset = vectors.len();
        vectors.extend((0..block.count()).map(|j| block.extract_packed::<P>(j)));
        for (row, masks) in rows.iter_mut().zip(&scratch) {
            append_mask_bits(row, offset, masks, count);
        }
    }
    let test_count = vectors.len();
    let words_per_fault = test_count.div_ceil(64).max(1);
    let mut bits = vec![0u64; faults.len() * words_per_fault];
    for (dst, row) in bits.chunks_exact_mut(words_per_fault).zip(&rows) {
        dst[..row.len()].copy_from_slice(row);
    }
    let matrix = DetectionMatrix {
        faults: faults.to_vec(),
        test_count,
        words_per_fault,
        bits,
    };
    (matrix, vectors)
}

/// First detections over a test slice: the early-exit driver through a
/// [`SliceSource`].  Inputs must already be validated.  `pub(crate)` so a
/// coverage grade (`crate::coverage`) spans its first-detection and
/// redundancy phases with one shared meter, and the budget bounds the
/// whole grade rather than each phase.
pub(crate) fn first_detections_metered<const W: usize, P: TestVector>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<Option<usize>> {
    let source = SliceSource::new(network.lines(), tests);
    first_detections_driver::<W, _>(network, backend, faults, source, meter)
}

/// Exhaustive redundancy verdicts: the early-exit driver over all `2^n`
/// inputs ([`RangeSource::exhaustive`]).  `Some(false)` is a witnessed
/// detection, `Some(true)` is issued only when the meter never tripped
/// (the whole family was swept or every fault was decided), and `None`
/// is a fault that survived the committed prefix of a tripped sweep.
///
/// An empty fault slice returns at once, so it is accepted for every `n`;
/// otherwise inputs must already be validated (`n < 32`).  `pub(crate)`
/// for the same shared-meter reason as [`first_detections_metered`].
pub(crate) fn redundant_faults_metered<const W: usize>(
    network: &Network,
    faults: &[MultiFault],
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<Option<bool>> {
    if faults.is_empty() {
        return Vec::new();
    }
    let source = RangeSource::exhaustive(network.lines());
    let first = first_detections_driver::<W, _>(network, backend, faults, source, meter);
    let swept = meter.tripped().is_none();
    first
        .into_iter()
        .map(|detection| match detection {
            Some(_) => Some(false),
            None => swept.then_some(true),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// For each fault of a [`MultiFault`] slice (drawn from any universe), the
/// 0-based index of the first test in `tests` detecting it (`None` when no
/// test does), at lane width `W` on `backend`: the early-exit driver over
/// the slice under [`BudgetMeter::unlimited`].
///
/// Semantically identical to calling
/// [`multi_first_detection_index`](crate::universe::multi_first_detection_index)
/// per fault, but `W × 64` tests wide with shared-prefix forking, and each
/// fault drops out of the sweep after its first detecting block.
///
/// This panicking spelling stays because the repository benchmark's
/// adapter (`perfbench/src/engine.rs`) names it as the timed
/// first-detection step of a grade.  The typed, budgeted form is
/// [`first_detections_multi_budgeted_packed_on`].
///
/// # Panics
/// Panics if a fault does not fit the network or a test's length
/// mismatches the network.
#[must_use]
pub fn first_detections_multi_packed_on<const W: usize, P: TestVector>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    backend: Backend,
) -> Vec<Option<usize>> {
    let source = SliceSource::new(network.lines(), tests);
    first_detections_driver::<W, _>(
        network,
        backend,
        faults,
        source,
        &mut BudgetMeter::unlimited(),
    )
}

/// Shared-prefix **batch** redundancy sweep at lane width `W` on
/// `backend`: `flags[i]` is `true` iff the faulty network of `faults[i]`
/// still sorts all `2^n` binary inputs.
///
/// One streamed `2^n` pass classifies the whole fault set: each block's
/// fault-free prefix is evaluated once and every still-undecided fault
/// forks from it at its site, faults shown detectable drop out of later
/// blocks, and the sweep stops once every fault is decided.  Agrees with
/// the per-fault [`is_fault_redundant_wide`] and the scalar
/// [`is_multi_fault_redundant`](crate::universe::is_multi_fault_redundant)
/// (regression-pinned by the differential suite).
///
/// This panicking spelling stays because the repository benchmark's
/// adapter names it as the timed redundancy step of a grade.  The typed,
/// budgeted form is [`redundant_faults_multi_budgeted_on`].
///
/// # Panics
/// Panics if a fault does not fit the network or `n ≥ 32` (an empty fault
/// slice never sweeps, so it is accepted for every `n`).
#[must_use]
pub fn redundant_faults_multi_on<const W: usize>(
    network: &Network,
    faults: &[MultiFault],
    backend: Backend,
) -> Vec<bool> {
    redundant_faults_metered::<W>(network, faults, backend, &mut BudgetMeter::unlimited())
        .into_iter()
        .map(|verdict| verdict == Some(true))
        .collect()
}

/// The faults × vectors [`DetectionMatrix`] of a streamed family, plus the
/// vectors themselves in stream order: the matrix driver over `source`
/// under [`BudgetMeter::unlimited`].  Over a [`SliceSource`] this is the
/// matrix of an explicit test list; the matrix is identical for every
/// width, backend and source that yields the same vectors.
///
/// This panicking spelling stays because the repository benchmark's
/// adapter names it as the timed candidate-matrix step of an
/// augmentation.  The typed, budgeted form is
/// [`detection_matrix_from_source_budgeted_on`].
///
/// # Panics
/// Panics if a fault does not fit the network, the source's line count
/// mismatches the network, or the vectors do not fit `P`.
#[must_use]
pub fn detection_matrix_from_source_packed_on<const W: usize, P: TestVector, S: BlockSource<W>>(
    network: &Network,
    faults: &[MultiFault],
    source: S,
    backend: Backend,
) -> (DetectionMatrix, Vec<P>) {
    matrix_driver(
        network,
        backend,
        faults,
        source,
        &mut BudgetMeter::unlimited(),
    )
}

/// Validates the shared preconditions of the faults × tests entry
/// points: the network fits the packing `P` (single-word for
/// [`BitString`](sortnet_combinat::BitString), the multi-word channel cap
/// for `ChannelVec` — see [`TestVector::ensure_packable`]), every fault
/// fits the network and every test vector has the network's length.
fn check_matrix_inputs<P: TestVector>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
) -> Result<(), EngineError> {
    P::ensure_packable(network.lines())?;
    for fault in faults {
        fault.check_in_range(network)?;
    }
    for test in tests {
        if test.len() != network.lines() {
            return Err(EngineError::InputLengthMismatch {
                expected: network.lines(),
                actual: test.len(),
            });
        }
    }
    Ok(())
}

/// [`first_detections_multi_packed_on`] with typed validation and a
/// [`SweepBudget`], metered at every block boundary and fork site.
///
/// In a [`Budgeted::Partial`], a `Some` entry is exact (the same index
/// the unbudgeted sweep returns) and a `None` entry means *undecided
/// over the committed prefix*: a later test may still detect the fault.
/// In a [`Budgeted::Complete`], `None` means no test detects the fault.
///
/// # Errors
/// [`EngineError::OversizedNetwork`] when the network does not fit `P`,
/// [`EngineError::IndexOutOfRange`] for a fault that does not fit the
/// network, [`EngineError::InputLengthMismatch`] for a test of the wrong
/// length.
pub fn first_detections_multi_budgeted_packed_on<const W: usize, P: TestVector>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    backend: Backend,
    budget: &SweepBudget,
) -> Result<Budgeted<Vec<Option<usize>>>, EngineError> {
    check_matrix_inputs(network, faults, tests)?;
    let mut meter = BudgetMeter::new(budget);
    let first = first_detections_metered::<W, P>(network, faults, tests, backend, &mut meter);
    Ok(meter.finish(first))
}

/// [`redundant_faults_multi_on`] with typed validation and a
/// [`SweepBudget`], metered at every block boundary and fork site.
///
/// Verdicts are three-valued while the budget may trip: `Some(false)` is
/// a witnessed detection (the fault is *not* redundant), `Some(true)` is
/// issued only when the meter never tripped, and `None` in a
/// [`Budgeted::Partial`] means the fault survived the committed prefix
/// but later inputs were never tried.  A [`Budgeted::Complete`] outcome
/// never contains `None`.
///
/// # Errors
/// [`EngineError::SweepTooLarge`] for `n ≥ 32` and
/// [`EngineError::IndexOutOfRange`] for a fault that does not fit the
/// network.  An empty fault slice never sweeps, so it is accepted for
/// every `n`.
pub fn redundant_faults_multi_budgeted_on<const W: usize>(
    network: &Network,
    faults: &[MultiFault],
    backend: Backend,
    budget: &SweepBudget,
) -> Result<Budgeted<Vec<Option<bool>>>, EngineError> {
    if !faults.is_empty() {
        error::ensure_sweepable(network.lines())?;
        for fault in faults {
            fault.check_in_range(network)?;
        }
    }
    let mut meter = BudgetMeter::new(budget);
    let verdicts = redundant_faults_metered::<W>(network, faults, backend, &mut meter);
    Ok(meter.finish(verdicts))
}

/// [`detection_matrix_from_source_packed_on`] with typed validation and a
/// [`SweepBudget`], metered at every block boundary and fork site: the
/// engine behind budgeted augmentation candidate sweeps, and (over a
/// [`SliceSource`]) the budgeted matrix of an explicit test list.
///
/// A block's columns and its echoed vectors commit together, only after
/// the block sweeps to completion within budget.  On a trip (block
/// budget, fork budget, deadline or cancellation) the in-flight block is
/// discarded, so the [`Budgeted::Partial`] carries a matrix and vector
/// list truncated to the same whole-block prefix: bit-identical to the
/// unbudgeted sweep restricted to its first `test_count` vectors.
///
/// # Errors
/// [`EngineError::OversizedNetwork`] when the network does not fit `P`
/// (checked before any block is pulled from the source),
/// [`EngineError::ChannelMismatch`] when the source's line count differs
/// from the network's, and [`EngineError::IndexOutOfRange`] for a fault
/// that does not fit the network.
pub fn detection_matrix_from_source_budgeted_on<
    const W: usize,
    P: TestVector,
    S: BlockSource<W>,
>(
    network: &Network,
    faults: &[MultiFault],
    source: S,
    backend: Backend,
    budget: &SweepBudget,
) -> Result<Budgeted<(DetectionMatrix, Vec<P>)>, EngineError> {
    P::ensure_packable(network.lines())?;
    error::ensure_same_lines(network.lines(), source.lines())?;
    for fault in faults {
        fault.check_in_range(network)?;
    }
    let mut meter = BudgetMeter::new(budget);
    let swept = matrix_driver(network, backend, faults, source, &mut meter);
    Ok(meter.finish(swept))
}

/// Bit-parallel per-fault redundancy check at lane width `W`: `true` iff
/// the faulty network still sorts all `2^n` binary inputs, swept `W × 64`
/// vectors per block with counting-pattern generation
/// ([`WideBlock::from_range`]).
///
/// The per-fault reference the batch sweep
/// ([`redundant_faults_multi_on`]) is regression-pinned against: it
/// re-runs the whole network for every block instead of forking.  Agrees
/// with the scalar [`is_fault_redundant`](crate::simulate::is_fault_redundant)
/// (the proptest suite checks this).
///
/// # Panics
/// Panics if the fault's comparator index is out of range or `n ≥ 32`.
#[must_use]
pub fn is_fault_redundant_wide<const W: usize>(network: &Network, fault: &Fault) -> bool {
    let n = network.lines();
    assert!(
        fault.comparator < network.size(),
        "fault index out of range"
    );
    let backend = Backend::active();
    (0..bitparallel::sweep_block_count::<W>(n)).all(|b| {
        let (start, count) = bitparallel::sweep_block_range::<W>(n, b);
        let mut block = WideBlock::<W>::from_range(n, start, count);
        faulty_run_block(network, fault, &mut block);
        !lanes::mask_any(&block.unsorted_masks_with(backend))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::enumerate_faults;
    use crate::simulate::{detects, faulty_apply_bits, first_detection_index, is_fault_redundant};
    use sortnet_combinat::BitString;
    use sortnet_network::bitparallel::BitBlock;
    use sortnet_network::builders::batcher::odd_even_merge_sort;

    /// The single-comparator faults of `net` as one-lesion [`MultiFault`]s.
    fn single_faults(net: &Network) -> Vec<MultiFault> {
        enumerate_faults(net)
            .into_iter()
            .map(MultiFault::from)
            .collect()
    }

    /// The matrix of an explicit test list: the matrix driver over a
    /// [`SliceSource`], on the active backend.
    fn matrix<const W: usize, P: TestVector>(
        net: &Network,
        faults: &[MultiFault],
        tests: &[P],
    ) -> DetectionMatrix {
        let source = SliceSource::new(net.lines(), tests);
        detection_matrix_from_source_packed_on::<W, P, _>(net, faults, source, Backend::active()).0
    }

    /// First detections of an explicit test list on the active backend.
    fn firsts<const W: usize>(
        net: &Network,
        faults: &[MultiFault],
        tests: &[BitString],
    ) -> Vec<Option<usize>> {
        first_detections_multi_packed_on::<W, BitString>(net, faults, tests, Backend::active())
    }

    #[test]
    fn faulty_run_block_matches_scalar_simulation_exhaustively() {
        let net = odd_even_merge_sort(6);
        let inputs: Vec<BitString> = BitString::all(6).collect();
        for fault in enumerate_faults(&net) {
            for chunk in inputs.chunks(64) {
                let mut block = BitBlock::from_strings(6, chunk);
                faulty_run_block(&net, &fault, &mut block);
                for (j, input) in chunk.iter().enumerate() {
                    assert_eq!(
                        block.extract(j as u32),
                        faulty_apply_bits(&net, &fault, input),
                        "fault {fault:?} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn faulty_run_block_is_width_independent() {
        let net = odd_even_merge_sort(5);
        let inputs: Vec<BitString> = BitString::all(5).collect();
        for fault in enumerate_faults(&net) {
            let mut wide = WideBlock::<2>::from_strings(5, &inputs);
            faulty_run_block(&net, &fault, &mut wide);
            for (j, input) in inputs.iter().enumerate() {
                assert_eq!(
                    wide.extract(j as u32),
                    faulty_apply_bits(&net, &fault, input),
                    "fault {fault:?} input {input}"
                );
            }
        }
    }

    #[test]
    fn detection_matrix_agrees_with_scalar_detects() {
        let net = odd_even_merge_sort(5);
        let faults = enumerate_faults(&net);
        let tests: Vec<BitString> = BitString::all(5).collect();
        let matrix = matrix::<4, _>(&net, &single_faults(&net), &tests);
        assert_eq!(matrix.fault_count(), faults.len());
        assert_eq!(matrix.test_count(), tests.len());
        for (f, fault) in faults.iter().enumerate() {
            for (t, test) in tests.iter().enumerate() {
                assert_eq!(
                    matrix.is_detected_by(f, t),
                    detects(&net, fault, test),
                    "fault {fault:?} test {test}"
                );
            }
        }
    }

    #[test]
    fn detection_matrix_is_identical_at_every_width() {
        let net = odd_even_merge_sort(6);
        let faults = single_faults(&net);
        let tests: Vec<BitString> = BitString::all_unsorted(6).collect();
        let w1 = matrix::<1, _>(&net, &faults, &tests);
        let w2 = matrix::<2, _>(&net, &faults, &tests);
        let w4 = matrix::<4, _>(&net, &faults, &tests);
        assert_eq!(w1, w2);
        assert_eq!(w1, w4);
        assert_eq!(
            firsts::<1>(&net, &faults, &tests),
            firsts::<4>(&net, &faults, &tests)
        );
    }

    #[test]
    fn matrix_summaries_match_their_bitwise_definitions() {
        let net = odd_even_merge_sort(5);
        let faults = enumerate_faults(&net);
        let tests: Vec<BitString> = BitString::all(5).collect();
        let matrix = matrix::<4, _>(&net, &single_faults(&net), &tests);
        for (f, fault) in faults.iter().enumerate() {
            assert_eq!(
                matrix.first_detection(f),
                first_detection_index(&net, fault, &tests)
            );
            assert_eq!(matrix.detected(f), matrix.first_detection(f).is_some());
            assert_eq!(
                matrix.detection_count(f),
                tests.iter().filter(|t| detects(&net, fault, t)).count()
            );
        }
    }

    #[test]
    fn first_detections_early_exit_matches_the_full_matrix() {
        let net = odd_even_merge_sort(6);
        let faults = single_faults(&net);
        let tests: Vec<BitString> = BitString::all_unsorted(6).collect();
        let matrix = matrix::<4, _>(&net, &faults, &tests);
        let firsts = firsts::<4>(&net, &faults, &tests);
        for f in 0..faults.len() {
            assert_eq!(
                firsts[f],
                matrix.first_detection(f),
                "fault {:?}",
                faults[f]
            );
        }
    }

    #[test]
    fn bitparallel_redundancy_agrees_with_scalar_at_every_width() {
        let net = odd_even_merge_sort(6);
        for fault in enumerate_faults(&net) {
            let scalar = is_fault_redundant(&net, &fault);
            assert_eq!(
                is_fault_redundant_wide::<1>(&net, &fault),
                scalar,
                "fault {fault:?} (W = 1)"
            );
            assert_eq!(
                is_fault_redundant_wide::<8>(&net, &fault),
                scalar,
                "fault {fault:?} (W = 8)"
            );
        }
    }

    #[test]
    fn degenerate_misroute_onto_own_top_is_a_no_op_in_both_engines() {
        // enumerate_faults never emits this shape, but the Fault type
        // admits it; the scalar simulator treats it as a no-op.
        let net = odd_even_merge_sort(5);
        let fault = Fault {
            comparator: 2,
            kind: crate::model::FaultKind::Misrouted {
                new_bottom: net.comparators()[2].top(),
            },
        };
        let inputs: Vec<BitString> = BitString::all(5).collect();
        let mut block = BitBlock::from_strings(5, &inputs[..32]);
        faulty_run_block(&net, &fault, &mut block);
        for (j, input) in inputs[..32].iter().enumerate() {
            assert_eq!(
                block.extract(j as u32),
                faulty_apply_bits(&net, &fault, input)
            );
        }
    }

    #[test]
    fn batch_redundancy_sweep_matches_the_per_fault_rerun_path() {
        // The ROADMAP fix: one streamed 2^n pass with shared-prefix forking
        // must classify exactly like the old per-fault re-run path (and the
        // scalar oracle) on every single-comparator fault.
        for n in [4usize, 6, 8] {
            let net = odd_even_merge_sort(n);
            let faults = enumerate_faults(&net);
            let multi: Vec<MultiFault> = faults.iter().copied().map(MultiFault::from).collect();
            let batch = redundant_faults_multi_on::<4>(&net, &multi, Backend::active());
            let batch_w1 = redundant_faults_multi_on::<1>(&net, &multi, Backend::Scalar);
            assert_eq!(batch, batch_w1, "n={n}: width must not change verdicts");
            for (i, fault) in faults.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    is_fault_redundant_wide::<4>(&net, fault),
                    "n={n} fault {fault:?}"
                );
                assert_eq!(
                    batch[i],
                    is_fault_redundant(&net, fault),
                    "n={n} fault {fault:?} (scalar)"
                );
            }
        }
    }

    #[test]
    fn empty_batch_redundancy_sweep_is_accepted_even_beyond_the_sweep_bound() {
        // An exhaustive coverage grade calls the batch sweep with exactly
        // the missed faults; when nothing was missed that slice is empty
        // and must not trip the n < 32 exhaustive-sweep bound (the
        // per-fault path short-circuited the same way).
        let net = odd_even_merge_sort(32);
        assert!(net.lines() >= 32);
        assert_eq!(
            redundant_faults_multi_on::<4>(&net, &[], Backend::active()),
            Vec::<bool>::new()
        );
        let budgeted = redundant_faults_multi_budgeted_on::<4>(
            &net,
            &[],
            Backend::Scalar,
            &SweepBudget::unlimited(),
        );
        assert_eq!(budgeted.unwrap(), Budgeted::Complete(Vec::new()));
    }

    #[test]
    fn sweep_plan_groups_realise_the_two_level_fork_invariant() {
        // The plan must (a) visit every fault exactly once, (b) group
        // faults by identical first lesion into contiguous runs, (c) keep
        // group fork sites nondecreasing across the sweep, and (d) keep
        // second-lesion sites nondecreasing within each group — the two
        // ordering preconditions `sweep_block_multi` debug-asserts.
        use crate::universe::{FaultUniverse, StandardUniverse};
        let net = odd_even_merge_sort(6);
        for universe in StandardUniverse::ALL {
            let faults: Vec<MultiFault> = universe.iter(&net).collect();
            let plan = SweepPlan::new(&net, &faults);
            let mut seen: Vec<usize> = plan.members.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..faults.len()).collect::<Vec<_>>());
            let mut prev_site = 0usize;
            let mut first_lesions = Vec::new();
            for group in plan.groups() {
                let first = faults[group[0]].lesions()[0];
                assert!(first.fork_site() >= prev_site, "{}", universe.name());
                prev_site = first.fork_site();
                first_lesions.push(first);
                let mut prev_second = 0usize;
                for &idx in group {
                    assert_eq!(
                        faults[idx].lesions()[0],
                        first,
                        "{}: group must share its first lesion",
                        universe.name()
                    );
                    let second = faults[idx].lesions().get(1).map_or(0, Lesion::fork_site);
                    assert!(second >= prev_second, "{}", universe.name());
                    prev_second = second;
                }
            }
            // Grouping is maximal: no first lesion spans two groups.
            let unique: std::collections::HashSet<_> = first_lesions.iter().collect();
            assert_eq!(unique.len(), first_lesions.len(), "{}", universe.name());
            // Pair universes actually exercise the second fork level.
            if matches!(
                universe,
                StandardUniverse::SingleComparatorPairs | StandardUniverse::StuckLinePairs
            ) {
                assert!(
                    plan.groups().any(|g| g.len() > 1),
                    "{}: expected multi-member groups",
                    universe.name()
                );
            }
        }
    }

    #[test]
    fn multi_run_block_matches_the_scalar_lesion_timeline() {
        use crate::universe::{multi_faulty_apply_bits, FaultUniverse, StandardUniverse};
        let net = odd_even_merge_sort(5);
        let inputs: Vec<BitString> = BitString::all(5).collect();
        for universe in StandardUniverse::ALL {
            for mf in universe.iter(&net) {
                let mut block = WideBlock::<2>::from_strings(5, &inputs);
                multi_faulty_run_block(&net, &mf, &mut block);
                for (j, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        block.extract(j as u32),
                        multi_faulty_apply_bits(&net, &mf, input),
                        "universe {} fault {mf} input {input}",
                        universe.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bitparallel_engine_matches_scalar_at_the_word_boundary() {
        // n ∈ {63, 64}: the lane engine indexes lanes (no word shifts by
        // line), but its verdicts must still agree with the scalar word
        // engine whose stuck injection shifts `1u64 << line` at bit 62/63.
        use crate::universe::{multi_faulty_apply_bits, FaultUniverse, StuckLine};
        for n in [63usize, 64] {
            let net = Network::from_pairs(n, &[(0, n - 1), (n - 2, n - 1), (0, 1)]);
            let inputs: Vec<BitString> = [
                0u64,
                u64::MAX,
                1u64 << (n - 1),
                u64::MAX ^ (1u64 << (n - 1)),
                0x8000_0000_0000_0001,
            ]
            .into_iter()
            .map(|w| BitString::from_word(w, n))
            .collect();
            for mf in StuckLine.iter(&net) {
                let mut block = WideBlock::<1>::from_strings(n, &inputs);
                multi_faulty_run_block(&net, &mf, &mut block);
                for (j, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        block.extract(j as u32),
                        multi_faulty_apply_bits(&net, &mf, input),
                        "n={n} fault {mf} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_fault_wrappers_agree_with_the_multi_core() {
        // The surviving single-`Fault` entry points (the block runner and
        // the per-fault redundancy reference) agree with the multi-fault
        // core on the corresponding one-lesion faults.
        let net = odd_even_merge_sort(6);
        let faults = enumerate_faults(&net);
        let multi = single_faults(&net);
        let inputs: Vec<BitString> = BitString::all(6).collect();
        let batch = redundant_faults_multi_on::<2>(&net, &multi, Backend::active());
        for (i, fault) in faults.iter().enumerate() {
            let mut single = WideBlock::<2>::from_strings(6, &inputs);
            let mut lesioned = single.clone();
            faulty_run_block(&net, fault, &mut single);
            multi_faulty_run_block(&net, &multi[i], &mut lesioned);
            assert_eq!(single, lesioned, "fault {fault:?}");
            assert_eq!(batch[i], is_fault_redundant_wide::<2>(&net, fault));
        }
    }

    #[test]
    fn streamed_matrix_equals_the_materialised_matrix_for_every_universe() {
        use crate::universe::{FaultUniverse, StandardUniverse};
        use sortnet_network::lanes::{ChainSource, IterSource, RangeSource};
        let net = odd_even_merge_sort(6);
        let tests: Vec<BitString> = BitString::all(6).collect();
        for universe in StandardUniverse::ALL {
            let faults: Vec<MultiFault> = universe.iter(&net).collect();
            let expected = matrix::<2, _>(&net, &faults, &tests);
            let (streamed, candidates) = detection_matrix_from_source_packed_on::<2, BitString, _>(
                &net,
                &faults,
                RangeSource::exhaustive(6),
                Backend::active(),
            );
            assert_eq!(streamed, expected, "universe {}", universe.name());
            assert_eq!(candidates, tests, "universe {}", universe.name());
        }
        // A chained source with a partial block mid-stream (the 7 sorted
        // strings end inside the first block) must index columns by
        // cumulative count, matching the materialised concatenation.
        let faults: Vec<MultiFault> = StandardUniverse::StuckLine.iter(&net).collect();
        let sorted: Vec<BitString> = (0..=6)
            .map(|ones| BitString::sorted_with(6 - ones, ones))
            .collect();
        let chained: Vec<BitString> = sorted
            .iter()
            .copied()
            .chain(BitString::all_unsorted(6))
            .collect();
        let expected = matrix::<1, _>(&net, &faults, &chained);
        let (streamed, candidates) = detection_matrix_from_source_packed_on::<1, BitString, _>(
            &net,
            &faults,
            ChainSource::new(
                IterSource::new(6, sorted),
                IterSource::new(6, BitString::all_unsorted(6)),
            ),
            Backend::active(),
        );
        assert_eq!(streamed, expected);
        assert_eq!(candidates, chained);
    }

    #[test]
    fn row_words_expose_the_packed_detection_bitmap() {
        let net = odd_even_merge_sort(5);
        let faults = single_faults(&net);
        let tests: Vec<BitString> = BitString::all(5).collect();
        let matrix = matrix::<4, _>(&net, &faults, &tests);
        for f in 0..faults.len() {
            let row = matrix.row_words(f);
            assert_eq!(row.len(), tests.len().div_ceil(64));
            for (t, _) in tests.iter().enumerate() {
                assert_eq!(
                    (row[t / 64] >> (t % 64)) & 1 == 1,
                    matrix.is_detected_by(f, t)
                );
            }
        }
    }

    #[test]
    fn empty_test_list_yields_an_all_clear_matrix() {
        let net = odd_even_merge_sort(4);
        let faults = single_faults(&net);
        let matrix = matrix::<4, BitString>(&net, &faults, &[]);
        assert_eq!(matrix.test_count(), 0);
        for f in 0..faults.len() {
            assert!(!matrix.detected(f));
            assert_eq!(matrix.first_detection(f), None);
        }
        assert_eq!(firsts::<4>(&net, &faults, &[]), vec![None; faults.len()]);
    }

    #[test]
    fn try_variants_reject_bad_inputs_and_match_the_panicking_engine() {
        // The typed (budgeted) forms refuse bad inputs with typed errors,
        // and on valid inputs match the unchecked, panicking spellings.
        use sortnet_network::lanes::RangeSource;
        let net = odd_even_merge_sort(5);
        let multi = single_faults(&net);
        let tests: Vec<BitString> = BitString::all_unsorted(5).collect();
        let unlimited = SweepBudget::unlimited();
        let bad = vec![BitString::from_word(0, 4)];
        assert_eq!(
            first_detections_multi_budgeted_packed_on::<2, BitString>(
                &net,
                &multi,
                &bad,
                Backend::Scalar,
                &unlimited
            )
            .unwrap_err(),
            EngineError::InputLengthMismatch {
                expected: 5,
                actual: 4
            }
        );
        let rogue = MultiFault::from(Fault {
            comparator: net.size(),
            kind: FaultKind::StuckPass,
        });
        assert!(matches!(
            first_detections_multi_budgeted_packed_on::<1, BitString>(
                &net,
                &[rogue],
                &tests,
                Backend::Scalar,
                &unlimited
            )
            .unwrap_err(),
            EngineError::IndexOutOfRange { .. }
        ));
        assert!(matches!(
            detection_matrix_from_source_budgeted_on::<1, BitString, _>(
                &net,
                &[rogue],
                SliceSource::new(5, &tests),
                Backend::Scalar,
                &unlimited
            )
            .unwrap_err(),
            EngineError::IndexOutOfRange { .. }
        ));
        assert!(matches!(
            redundant_faults_multi_budgeted_on::<1>(&net, &[rogue], Backend::Scalar, &unlimited)
                .unwrap_err(),
            EngineError::IndexOutOfRange { .. }
        ));
        // The exhaustive bound is typed, and the empty-slice escape hatch
        // of the unchecked path survives.
        let huge = odd_even_merge_sort(32);
        let huge_faults = single_faults(&huge);
        assert_eq!(
            redundant_faults_multi_budgeted_on::<2>(
                &huge,
                &huge_faults[..1],
                Backend::Scalar,
                &unlimited
            )
            .unwrap_err(),
            EngineError::SweepTooLarge { lines: 32 }
        );
        assert_eq!(
            redundant_faults_multi_budgeted_on::<2>(&huge, &[], Backend::Scalar, &unlimited)
                .unwrap(),
            Budgeted::Complete(Vec::new())
        );
        // Valid inputs reproduce the unchecked entry points.
        assert_eq!(
            first_detections_multi_budgeted_packed_on::<2, BitString>(
                &net,
                &multi,
                &tests,
                Backend::Scalar,
                &unlimited
            )
            .unwrap(),
            Budgeted::Complete(firsts::<2>(&net, &multi, &tests))
        );
        let full = redundant_faults_multi_on::<2>(&net, &multi, Backend::active());
        assert_eq!(
            redundant_faults_multi_budgeted_on::<2>(&net, &multi, Backend::Scalar, &unlimited)
                .unwrap(),
            Budgeted::Complete(full.into_iter().map(Some).collect())
        );
        // Streamed matrices validate the source's line count.
        assert!(matches!(
            detection_matrix_from_source_budgeted_on::<1, BitString, _>(
                &net,
                &multi,
                RangeSource::exhaustive(6),
                Backend::Scalar,
                &unlimited
            )
            .unwrap_err(),
            EngineError::ChannelMismatch {
                expected: 5,
                actual: 6
            }
        ));
        let (streamed, candidates) = detection_matrix_from_source_budgeted_on::<1, BitString, _>(
            &net,
            &multi,
            RangeSource::exhaustive(5),
            Backend::Scalar,
            &unlimited,
        )
        .unwrap()
        .into_value();
        let all: Vec<BitString> = BitString::all(5).collect();
        assert_eq!(candidates, all);
        assert_eq!(streamed, matrix::<1, _>(&net, &multi, &all));
    }

    #[test]
    fn typed_matrix_refuses_bitstring_vectors_past_64_lines() {
        // Echoing 96-line candidates as one-word `BitString`s cannot work;
        // the budgeted matrix must refuse before pulling a block instead
        // of panicking mid-sweep.
        use crate::universe::{FaultUniverse, StuckLine};
        use sortnet_combinat::ChannelVec;
        use sortnet_network::lanes::IterSource;
        let n = 96;
        let net = odd_even_merge_sort(n);
        let faults: Vec<MultiFault> = StuckLine.iter(&net).take(4).collect();
        let sorted: Vec<ChannelVec> = (0..=n).map(|k| ChannelVec::sorted_of(n - k, k)).collect();
        let refused = detection_matrix_from_source_budgeted_on::<4, BitString, _>(
            &net,
            &faults,
            IterSource::new(n, sorted.clone()),
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap_err();
        assert!(
            matches!(refused, EngineError::OversizedNetwork { .. }),
            "{refused:?}"
        );
        // The same sweep echoing `ChannelVec`s runs.
        let (matrix, echoed) = detection_matrix_from_source_budgeted_on::<4, ChannelVec, _>(
            &net,
            &faults,
            IterSource::new(n, sorted.clone()),
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap()
        .into_value();
        assert_eq!(echoed, sorted);
        assert_eq!(matrix.test_count(), n + 1);
    }

    #[test]
    fn budgeted_matrix_partial_is_an_exact_prefix_of_the_full_matrix() {
        use sortnet_network::budget::BudgetReason;
        let net = odd_even_merge_sort(7);
        let multi = single_faults(&net);
        let tests: Vec<BitString> = BitString::all(7).collect(); // 128 = two W=1 blocks
        let budgeted = |budget: &SweepBudget| {
            detection_matrix_from_source_budgeted_on::<1, BitString, _>(
                &net,
                &multi,
                SliceSource::new(7, &tests),
                Backend::Scalar,
                budget,
            )
            .unwrap()
        };
        let full = matrix::<1, _>(&net, &multi, &tests);
        assert_eq!(
            budgeted(&SweepBudget::unlimited()),
            Budgeted::Complete((full, tests.clone()))
        );
        match budgeted(&SweepBudget::unlimited().with_max_blocks(1)) {
            Budgeted::Partial {
                progress,
                reason,
                best_so_far: (matrix, echoed),
            } => {
                assert_eq!(reason, BudgetReason::Blocks);
                assert_eq!(progress.blocks, 1);
                assert_eq!(progress.vectors, 64);
                assert_eq!(echoed, tests[..64]);
                assert_eq!(matrix, self::matrix::<1, _>(&net, &multi, &tests[..64]));
            }
            Budgeted::Complete(_) => panic!("a one-block budget must trip on two blocks"),
        }
    }

    #[test]
    fn a_fork_trip_discards_the_inflight_block_entirely() {
        use sortnet_network::budget::BudgetReason;
        let net = odd_even_merge_sort(6);
        let multi = single_faults(&net);
        assert!(multi.len() > 3);
        let tests: Vec<BitString> = BitString::all(6).collect();
        let out = detection_matrix_from_source_budgeted_on::<1, BitString, _>(
            &net,
            &multi,
            SliceSource::new(6, &tests),
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_forks(3),
        )
        .unwrap();
        match out {
            Budgeted::Partial {
                reason,
                best_so_far: (best_so_far, echoed),
                ..
            } => {
                // The fork budget tripped inside the first block, so the
                // partial matrix must not expose any of its columns.
                assert_eq!(reason, BudgetReason::Forks);
                assert_eq!(best_so_far.test_count(), 0);
                assert!(echoed.is_empty());
                assert!((0..multi.len()).all(|f| !best_so_far.detected(f)));
            }
            Budgeted::Complete(_) => panic!("a three-fork budget must trip"),
        }
    }

    #[test]
    fn budgeted_first_detections_are_exact_inside_the_committed_prefix() {
        let net = odd_even_merge_sort(7);
        let multi = single_faults(&net);
        let tests: Vec<BitString> = BitString::all_unsorted(7).collect();
        let full = firsts::<1>(&net, &multi, &tests);
        let out = first_detections_multi_budgeted_packed_on::<1, BitString>(
            &net,
            &multi,
            &tests,
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(1),
        )
        .unwrap();
        let committed = if out.is_complete() { tests.len() } else { 64 };
        for (partial, expected) in out.into_value().iter().zip(&full) {
            match partial {
                Some(i) => {
                    assert!(*i < committed);
                    assert_eq!(Some(*i), *expected);
                }
                None => assert!(expected.is_none() || expected.unwrap() >= committed),
            }
        }
    }

    #[test]
    fn budgeted_redundancy_degrades_to_three_valued_verdicts() {
        let net = odd_even_merge_sort(6);
        let multi = single_faults(&net);
        let full = redundant_faults_multi_on::<1>(&net, &multi, Backend::Scalar);
        let complete = redundant_faults_multi_budgeted_on::<1>(
            &net,
            &multi,
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap();
        assert!(complete.is_complete());
        assert_eq!(
            complete.into_value(),
            full.iter().map(|&b| Some(b)).collect::<Vec<_>>()
        );
        // A zero-block budget decides nothing: all verdicts stay open.
        let starved = redundant_faults_multi_budgeted_on::<1>(
            &net,
            &multi,
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(0),
        )
        .unwrap();
        assert!(!starved.is_complete());
        assert!(starved.value().iter().all(Option::is_none));
        // A one-block budget may only issue witnessed (false) verdicts,
        // and each must agree with the full sweep.
        let partial = redundant_faults_multi_budgeted_on::<1>(
            &net,
            &multi,
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(1),
        )
        .unwrap();
        for (verdict, &expected) in partial.value().iter().zip(&full) {
            if let Some(v) = verdict {
                assert!(partial.is_complete() || !*v);
                assert_eq!(*v, expected);
            }
        }
    }

    #[test]
    fn packed_matrix_crosses_the_64_line_wall_and_matches_the_channel_oracle() {
        // n = 96 (two channel words): the packed engine must agree bit for
        // bit with the scalar channel simulator on every stuck-line fault,
        // at W = 1 and W = 4, for BitString-impossible line counts.
        use crate::universe::{FaultUniverse, StuckLine};
        use sortnet_combinat::ChannelVec;
        let n = 96usize;
        let net = Network::from_pairs(n, &[(0, 95), (0, 64), (63, 65), (31, 64), (0, 1)]);
        let faults: Vec<MultiFault> = StuckLine.iter(&net).collect();
        let tests: Vec<ChannelVec> = vec![
            ChannelVec::zeros(n),
            ChannelVec::ones(n),
            ChannelVec::from_fn(n, |i| i == 64),
            ChannelVec::from_fn(n, |i| i != 63),
            ChannelVec::from_fn(n, |i| i % 2 == 0),
            ChannelVec::from_fn(n, |i| (32..66).contains(&i)),
        ];
        let w1 = detection_matrix_from_source_packed_on::<1, ChannelVec, _>(
            &net,
            &faults,
            SliceSource::new(n, &tests),
            Backend::Scalar,
        )
        .0;
        let w4 = matrix::<4, ChannelVec>(&net, &faults, &tests);
        assert_eq!(w1, w4, "channel matrix must be width-independent");
        for (f, fault) in faults.iter().enumerate() {
            for (t, test) in tests.iter().enumerate() {
                assert_eq!(
                    w1.is_detected_by(f, t),
                    crate::universe::multi_detects_channels(&net, fault, test),
                    "fault {fault} test {test}"
                );
            }
        }
        assert_eq!(
            detection_matrix_from_source_budgeted_on::<1, ChannelVec, _>(
                &net,
                &faults,
                SliceSource::new(n, &tests),
                Backend::Scalar,
                &SweepBudget::unlimited()
            )
            .unwrap(),
            Budgeted::Complete((w1.clone(), tests.clone()))
        );
        assert_eq!(
            first_detections_multi_packed_on::<2, ChannelVec>(
                &net,
                &faults,
                &tests,
                Backend::Scalar
            ),
            (0..faults.len())
                .map(|f| w1.first_detection(f))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn budgeted_streamed_matrix_commits_whole_blocks_only() {
        use sortnet_network::budget::BudgetReason;
        use sortnet_network::lanes::IterSource;
        let net = odd_even_merge_sort(7);
        let multi = single_faults(&net);
        let tests: Vec<BitString> = BitString::all(7).collect(); // 128 = two W=1 blocks
        let (full, all) = detection_matrix_from_source_packed_on::<1, BitString, _>(
            &net,
            &multi,
            IterSource::new(7, tests.clone()),
            Backend::Scalar,
        );
        let complete = detection_matrix_from_source_budgeted_on::<1, BitString, _>(
            &net,
            &multi,
            IterSource::new(7, tests.clone()),
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(complete, Budgeted::Complete((full.clone(), all)));
        let partial = detection_matrix_from_source_budgeted_on::<1, BitString, _>(
            &net,
            &multi,
            IterSource::new(7, tests.clone()),
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(1),
        )
        .unwrap();
        match partial {
            Budgeted::Partial {
                progress,
                reason,
                best_so_far: (matrix, candidates),
            } => {
                assert_eq!(reason, BudgetReason::Blocks);
                assert_eq!(progress.vectors, 64);
                // Whole-block commit: exactly one block of candidates, and
                // the matrix is the full matrix restricted to that prefix.
                assert_eq!(candidates, tests[..64]);
                assert_eq!(matrix, self::matrix::<1, _>(&net, &multi, &tests[..64]));
            }
            Budgeted::Complete(_) => panic!("a one-block budget must trip on two blocks"),
        }
    }

    #[test]
    fn cancelling_the_streamed_matrix_discards_the_inflight_block() {
        use sortnet_network::budget::{BudgetReason, CancelToken};
        use sortnet_network::lanes::IterSource;
        let net = odd_even_merge_sort(6);
        let multi = single_faults(&net);
        let tests: Vec<BitString> = BitString::all(6).collect();
        // A pre-cancelled token: the very first admission poll must trip,
        // and the whole-block-commit rule then demands an empty matrix —
        // no candidates, no columns from any block.
        let token = CancelToken::new();
        token.cancel();
        let out = detection_matrix_from_source_budgeted_on::<1, BitString, _>(
            &net,
            &multi,
            IterSource::new(6, tests),
            Backend::Scalar,
            &SweepBudget::unlimited().with_cancel(token),
        )
        .unwrap();
        match out {
            Budgeted::Partial {
                reason,
                best_so_far: (matrix, candidates),
                ..
            } => {
                assert_eq!(reason, BudgetReason::Cancelled);
                assert!(candidates.is_empty());
                assert_eq!(matrix.test_count(), 0);
                assert!((0..multi.len()).all(|f| !matrix.detected(f)));
            }
            Budgeted::Complete(_) => panic!("a cancelled sweep must come back partial"),
        }
    }
}
