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
//! # Stuck-at segments: one fork per pair, none for a null lesion
//!
//! The stuck-line universes hold two faults per wire segment `(line ℓ,
//! cut p)`, stuck-at-0 and stuck-at-1, and the plan visits them as
//! adjacent singleton groups.  Let `x` be lane `ℓ` of the fault-free
//! prefix state at `p`.  Comparator networks act on each vector bit
//! independently (every lane operation is bitwise), so for one vector:
//!
//! * if the vector's bit of `x` already equals `v`, forcing `ℓ` to `v`
//!   changes nothing, and stuck-at-`v` leaves that vector sorted or
//!   unsorted exactly as the fault-free network does;
//! * otherwise forcing `ℓ` to `v` *is* complementing that bit.
//!
//! So one fork with lane `ℓ` complemented, run through the suffix, gives
//! mask `F`, and with the fault-free mask `G` of the block,
//! `detect(stuck-at-v) = (F ∧ [x ≠ v]) ∨ (G ∧ [x = v])` — bit-identical to
//! two forks, for any network (`G` is zero for a sorter).  When both
//! faults of a segment are still live the sweep makes that one fork; `G`
//! costs one suffix run per block, computed on first use.  A lone live
//! stuck-at-`v` fault whose line already holds `v` on every live vector of
//! the block is a **null lesion**: its mask is `G` and it forks nothing.
//! Every input stuck-at fault of a sorter is undetectable and sweeps the
//! whole list, so these two rules are most of what an early-exit tail
//! saves.  The meter still admits one fork per live fault per block, so a
//! `max_forks` budget trips where it did before either rule existed.
//!
//! # Lane backends
//!
//! All sweeps execute their word kernels on a pluggable lane-ops
//! [`Backend`] (scalar / AVX2, runtime-detected; see
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
//! admission test.  The early-exit driver sweeps its first block at the
//! caller's `W`; under an unlimited meter the faults still undetected
//! continue over the same source at `W = 16`, while a budgeted sweep
//! keeps `W` for every block (so its trip points are a width-`W`
//! sweep's):
//!
//! | operation | driver | source | block widths |
//! |---|---|---|---|
//! | first detections of test lists (`crate::coverage`) | early exit | [`SliceSource`] per list, resumed past a shared prefix | `W`, then an unbudgeted tail at `W16` |
//! | exhaustive redundancy | early exit | [`RangeSource::exhaustive`] | `W`, then an unbudgeted tail at `W16` |
//! | relative redundancy (`crate::coverage`) | early exit | [`SliceSource`] over the collected family | `W`, then an unbudgeted tail at `W16` |
//! | matrix of a test list | matrix | [`SliceSource`] | `W` |
//! | candidate matrix of a family | matrix | any [`BlockSource`] | `W` |
//!
//! # Entry points
//!
//! * [`first_detections_multi_budgeted_packed_on`] — typed, budgeted
//!   first detections: every precondition comes back as an
//!   [`EngineError`], and a tripped budget degrades to an exact
//!   [`Budgeted::Partial`] whose entries are per-fault exact;
//! * [`detection_matrix_from_source_metered_on`] — the typed matrix on a
//!   caller's [`BudgetMeter`]: `BudgetMeter::new(&budget)` and
//!   [`BudgetMeter::finish`] make it a budgeted call, and runs whose
//!   stages share one budget (the augmentation search) pass their own
//!   meter.  Budgeted exhaustive redundancy is a stage of a coverage
//!   grade ([`crate::coverage`]);
//! * [`first_detections_multi_packed_on`], [`redundant_faults_multi_on`]
//!   and [`detection_matrix_from_source_packed_on`] — the same three
//!   operations unbudgeted and unchecked (they panic on bad inputs).  They
//!   stay because the repository benchmark's adapter names them;
//! * [`multi_faulty_run_block`] — one fault over one block (the oracle
//!   hook the property tests cross-check against the scalar simulator);
//! * [`is_fault_redundant_wide`] — the *per-fault* blocked `2^n`
//!   redundancy sweep, kept as the reference the batch sweep is
//!   regression-pinned against.
//!
//! Every entry point is generic over the lane width `W` (the `W = 1`
//! instantiation reproduces the original single-word engine bit for bit)
//! and, where it takes test vectors, over their
//! [`ChannelPack`] packing `P`: `P = BitString` is the monomorphised
//! `n ≤ 64` fast path, while `P = ChannelVec`
//! (`sortnet_combinat::ChannelVec`) runs the identical sweep past the
//! 64-line wall.  The lane dimension of [`WideBlock`] is line-indexed —
//! `n > 64` costs more lanes, not different kernels — so only the
//! pack/extract boundary and the packability guard depend on `P` (see the
//! *ChannelWords* section of [`sortnet_network::lanes`]).

use sortnet_combinat::ChannelPack;
use sortnet_network::budget::{BudgetMeter, Budgeted, SweepBudget};
use sortnet_network::error::{self, EngineError};
use sortnet_network::lanes::{self, Backend, BlockSource, RangeSource, SliceSource, WideBlock};
use sortnet_network::Network;

use crate::model::{Fault, FaultKind};
use crate::universe::{Lesion, MultiFault};

/// Applies the faulty version of comparator `fault.comparator` to a block:
/// the lane-level counterpart of one faulty step of the scalar simulator
/// in [`crate::simulate`].
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
        // no-op in the scalar simulator; mirror that instead of tripping
        // `apply_comparator_with`'s distinct-lines assert.
        // (`enumerate_faults` never emits this shape, but the fault type
        // admits it.)
        FaultKind::Misrouted { new_bottom } => {
            if new_bottom != c.top() {
                block.apply_comparator_with(backend, c.top(), new_bottom);
            }
        }
    }
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

/// Runs the faulty network over one block of up to `W × 64` test vectors,
/// in place on `backend`: the lane-level counterpart of `W × 64`
/// [`multi_faulty_apply`](crate::universe::multi_faulty_apply) calls, for
/// faults of **any** universe (a single-comparator [`Fault`] is
/// `MultiFault::from(fault)`).  The proptest suites hold the two to exact
/// agreement.
///
/// # Panics
/// Panics if a lesion of the fault does not fit the network.
pub fn multi_faulty_run_block<const W: usize>(
    network: &Network,
    fault: &MultiFault,
    block: &mut WideBlock<W>,
    backend: Backend,
) {
    fault.assert_in_range(network);
    run_multi_from(network, backend, fault, block, 0);
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
///
/// The plan also marks **stuck-at segment pairs**: a singleton group
/// holding the one-lesion stuck-at-0 fault of a `(line, cut)` segment,
/// directly followed by the singleton group of its stuck-at-1 partner
/// (the timeline key orders value 0 first).  [`sweep_block_multi`]
/// evaluates such a pair with one fork.
struct SweepPlan {
    /// Fault indices in visit order; groups are contiguous runs.
    members: Vec<usize>,
    /// Exclusive end offset of each group in `members`.
    group_ends: Vec<usize>,
    /// Per group: `true` when it and the next group are a stuck-at
    /// segment pair.
    pairs_next: Vec<bool>,
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
        let mut plan = Self {
            members,
            group_ends,
            pairs_next: Vec::new(),
        };
        // Each group's lone one-lesion stuck-at fault, if it is one.
        let lone: Vec<_> = (0..plan.group_count())
            .map(|g| match *plan.group(g) {
                [idx] => match faults[idx].lesions() {
                    [Lesion::Stuck(s)] => Some(*s),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        plan.pairs_next = (0..lone.len())
            .map(|g| match (lone[g], lone.get(g + 1).copied().flatten()) {
                (Some(a), Some(b)) => {
                    (a.line, a.cut, a.value, b.value) == (b.line, b.cut, false, true)
                }
                _ => false,
            })
            .collect();
        plan
    }

    /// Number of groups.
    fn group_count(&self) -> usize {
        self.group_ends.len()
    }

    /// Group `g` in visit order: a slice of fault indices sharing one
    /// first lesion.
    fn group(&self, g: usize) -> &[usize] {
        let start = if g == 0 { 0 } else { self.group_ends[g - 1] };
        &self.members[start..self.group_ends[g]]
    }

    /// The groups, in visit order.
    #[cfg(test)]
    fn groups(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.group_count()).map(|g| self.group(g))
    }
}

/// The scratch blocks of [`sweep_block_multi`], allocated once per sweep
/// and reused for every block of it.
struct ForkScratch<const W: usize> {
    /// The fault-free prefix state, advanced across the block's groups.
    prefix: WideBlock<W>,
    /// A two-level group's state after its shared first lesion.
    checkpoint: WideBlock<W>,
    /// The state one fork runs its suffix in.
    fork: WideBlock<W>,
    /// The fault-free run to the end of the network.
    free: WideBlock<W>,
    /// The block's fault-free detection masks once computed in `free`
    /// (cleared per block).
    free_masks: Option<[u64; W]>,
}

impl<const W: usize> ForkScratch<W> {
    fn new(lines: usize) -> Self {
        Self {
            prefix: WideBlock::zeroed(lines),
            checkpoint: WideBlock::zeroed(lines),
            fork: WideBlock::zeroed(lines),
            free: WideBlock::zeroed(lines),
            free_masks: None,
        }
    }

    /// The block's fault-free detection masks, restricted to `live`: the
    /// prefix state at `pos` run to the end of the network and scanned,
    /// at most once per block.  Zero for a sorter; a non-sorter's
    /// unsorted outputs otherwise.
    fn fault_free_masks(
        &mut self,
        network: &Network,
        backend: Backend,
        pos: usize,
        live: &[u64; W],
    ) -> [u64; W] {
        if let Some(masks) = self.free_masks {
            return masks;
        }
        self.free.copy_from(&self.prefix);
        let mut masks = self
            .free
            .run_range_scan_with(backend, network, pos, network.size());
        for w in 0..W {
            masks[w] &= live[w];
        }
        self.free_masks = Some(masks);
        masks
    }
}

/// The detection masks of stuck-at-`value` on a segment whose prefix lane
/// is `lane`, from the segment's one flipped fork: a live vector whose
/// line differs from `value` sees exactly the flip, so it takes the
/// flipped fork's verdict, and any other vector is untouched by the
/// fault, so it takes the fault-free verdict.
fn stuck_masks<const W: usize>(
    value: bool,
    lane: &[u64; W],
    flipped: &[u64; W],
    free: &[u64; W],
    live: &[u64; W],
) -> [u64; W] {
    std::array::from_fn(|w| {
        let differs = if value { !lane[w] } else { lane[w] };
        ((flipped[w] & differs) | (free[w] & !differs)) & live[w]
    })
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
/// Two shortcuts apply to lone one-lesion stuck-at faults, each exact
/// because lane bits never mix across vectors:
///
/// * a **segment pair** ([`SweepPlan`]) whose two faults are both live
///   forks once: the prefix with the segment's lane complemented runs the
///   suffix, and each value takes that fork's verdict on the vectors
///   whose line differs from it and the fault-free verdict on the rest
///   ([`stuck_masks`]);
/// * a **null lesion**, a live fault whose value the line already holds
///   on every live vector, changes nothing: it records the fault-free
///   verdict and forks nothing.
///
/// The fault-free verdict is computed at most once per block, in
/// `scratch`.
///
/// `plan` is the [`SweepPlan`] of `faults`; `skip` filters faults out of
/// the sweep (used for early exit once a fault has been detected in an
/// earlier block) — a fully-skipped group costs nothing beyond the
/// shared prefix advance.
///
/// Every fork (level-1 checkpoint copies and level-2 partner copies
/// alike) asks `meter` for admission first, and so does every live fault
/// of a segment pair or null lesion: the meter admits one fork per live
/// fault per block whether or not a copy is made, so trip points and
/// progress do not depend on the shortcuts.  Returns `false` when the
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
    scratch: &mut ForkScratch<W>,
    skip: impl Fn(usize) -> bool,
    mut record: impl FnMut(usize, [u64; W]),
    meter: &mut BudgetMeter,
) -> bool {
    scratch.prefix.copy_from(block);
    scratch.free_masks = None;
    // The live mask depends only on the block's count — hoist it and
    // intersect the raw fused run-and-scan masks per fault.
    let live = block.live_masks();
    let size = network.size();
    let mut pos = 0usize;
    let mut g = 0;
    while g < plan.group_count() {
        let group = plan.group(g);
        let paired = plan.pairs_next[g];
        g += 1;
        let first = faults[group[0]].lesions()[0];
        let site = first.fork_site();
        debug_assert!(site >= pos, "group sites must be nondecreasing");
        if site > pos {
            scratch.prefix.run_range_with(backend, network, pos, site);
            pos = site;
        }
        if let [fault_idx] = *group {
            // Singleton group: single-level fork off the fault-free prefix.
            let mut lone = Some(fault_idx).filter(|&i| !skip(i));
            if paired {
                // The next group is the segment's stuck-at-1 fault.
                let partner = plan.group(g)[0];
                g += 1;
                if skip(partner) {
                    // At most the stuck-at-0 fault is live.
                } else if lone.is_none() {
                    lone = Some(partner);
                } else {
                    // Both live: one complemented fork serves the pair.
                    if !meter.admit_fork() || !meter.admit_fork() {
                        return false;
                    }
                    let Lesion::Stuck(stuck) = first else {
                        unreachable!("a segment pair is stuck-at")
                    };
                    let lane = scratch.prefix.lane_words(stuck.line);
                    scratch.fork.copy_from(&scratch.prefix);
                    scratch.fork.invert_lane(stuck.line);
                    let flipped = scratch
                        .fork
                        .run_range_scan_with(backend, network, pos, size);
                    let free = scratch.fault_free_masks(network, backend, pos, &live);
                    record(fault_idx, stuck_masks(false, &lane, &flipped, &free, &live));
                    record(partner, stuck_masks(true, &lane, &flipped, &free, &live));
                    continue;
                }
            }
            let Some(fault_idx) = lone else {
                continue;
            };
            if !meter.admit_fork() {
                return false;
            }
            if let [Lesion::Stuck(stuck)] = faults[fault_idx].lesions() {
                // A null lesion: the line already holds the stuck value.
                let lane = scratch.prefix.lane_words(stuck.line);
                let held = if stuck.value { [u64::MAX; W] } else { [0; W] };
                if (0..W).all(|w| (lane[w] ^ held[w]) & live[w] == 0) {
                    let free = scratch.fault_free_masks(network, backend, pos, &live);
                    record(fault_idx, free);
                    continue;
                }
            }
            let fork = &mut scratch.fork;
            fork.copy_from(&scratch.prefix);
            let mut p = pos;
            for lesion in faults[fault_idx].lesions() {
                p = apply_lesion_from(network, backend, lesion, fork, p);
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
        let (checkpoint, fork) = (&mut scratch.checkpoint, &mut scratch.fork);
        checkpoint.copy_from(&scratch.prefix);
        let mut cpos = apply_lesion_from(network, backend, &first, checkpoint, pos);
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
                    fork.copy_from(checkpoint);
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
                    fork.copy_from(checkpoint);
                    apply_lesion_from(network, backend, second, fork, cpos)
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

/// Lane width of the tail of an unbudgeted early-exit sweep: every block
/// after the first.
const TAIL_WIDTH: usize = 16;

/// The early-exit first-detection driver: streams `source`, sweeps every
/// still-undetected fault over each block, and records for each fault the
/// index of its first detecting vector in the stream.  Indices are
/// cumulative vector counts, so a partial block mid-stream indexes
/// correctly.  A fault leaves the sweep at its first detecting block, and
/// the stream stops as soon as every fault is detected.
///
/// The first block is swept at the caller's `W`.  Under an unlimited meter
/// ([`BudgetMeter::is_unlimited`]) the faults still undetected after it
/// continue over the same source at `W = 16`: a list whose faults all
/// fall in block 0 pays no wide fork, while the hard tail (the faults
/// that sweep the whole list, or the whole `2^n` family) pays one fork
/// per 1024 vectors.  A budgeted sweep keeps `W` for every block, so its
/// trip points and committed prefixes are those of a width-`W` sweep.
///
/// The meter is asked once per block and once per fork.  A refusal ends
/// the sweep and discards the in-flight block's detections, so a `Some`
/// is always exact, and after a trip a `None` means *undecided over the
/// committed prefix*.
fn first_detections_driver<const W: usize, S>(
    network: &Network,
    backend: Backend,
    faults: &[MultiFault],
    source: S,
    meter: &mut BudgetMeter,
) -> Vec<Option<usize>>
where
    S: BlockSource<W> + BlockSource<TAIL_WIDTH>,
{
    let plan = SweepPlan::new(network, faults);
    EarlyExit::new(network, backend, &plan, faults, vec![None; faults.len()], 0)
        .run::<W, S>(source, meter)
}

/// One early-exit sweep in progress: each fault's first detection so far
/// and the stream index of the next vector.  A sweep may start part-way
/// into a stream (see [`first_detections_of_lists`]): faults already
/// holding a detection are skipped from the first block on.
struct EarlyExit<'a> {
    network: &'a Network,
    backend: Backend,
    plan: &'a SweepPlan,
    faults: &'a [MultiFault],
    first: Vec<Option<usize>>,
    undetected: usize,
    offset: usize,
    /// Each block's verdicts, collected before they reach `first`: the
    /// sweep's skip closure reads `first` while its record closure runs.
    hits: Vec<(usize, u32)>,
}

impl<'a> EarlyExit<'a> {
    /// A sweep whose next vector has stream index `offset`, starting from
    /// the detections `first`.
    fn new(
        network: &'a Network,
        backend: Backend,
        plan: &'a SweepPlan,
        faults: &'a [MultiFault],
        first: Vec<Option<usize>>,
        offset: usize,
    ) -> Self {
        let undetected = first.iter().filter(|f| f.is_none()).count();
        Self {
            network,
            backend,
            plan,
            faults,
            first,
            undetected,
            offset,
            hits: Vec::with_capacity(faults.len()),
        }
    }

    /// Streams `source` to its end, or until every fault is detected or
    /// the meter refuses: the first block at `W`, and an unbudgeted tail
    /// at [`TAIL_WIDTH`].
    fn run<const W: usize, S>(
        mut self,
        mut source: S,
        meter: &mut BudgetMeter,
    ) -> Vec<Option<usize>>
    where
        S: BlockSource<W> + BlockSource<TAIL_WIDTH>,
    {
        let widen = W < TAIL_WIDTH && meter.is_unlimited();
        let head = if widen { 1 } else { usize::MAX };
        if self.blocks::<W, S>(&mut source, meter, head) && widen {
            self.blocks::<TAIL_WIDTH, S>(&mut source, meter, usize::MAX);
        }
        self.first
    }

    /// Sweeps up to `max_blocks` blocks of `source` at width `V`.  Returns
    /// `false` once the sweep is over: the source ran dry, every fault is
    /// detected, or the meter refused.
    fn blocks<const V: usize, S: BlockSource<V>>(
        &mut self,
        source: &mut S,
        meter: &mut BudgetMeter,
        max_blocks: usize,
    ) -> bool {
        let mut block = WideBlock::<V>::zeroed(self.network.lines());
        let mut scratch = ForkScratch::new(self.network.lines());
        for _ in 0..max_blocks {
            if self.undetected == 0 || !source.next_block(&mut block) {
                return false;
            }
            if !meter.admit_block(u64::from(block.count())) {
                return false;
            }
            self.hits.clear();
            let (first, hits) = (&self.first, &mut self.hits);
            let swept = sweep_block_multi(
                self.network,
                self.backend,
                self.plan,
                self.faults,
                &block,
                &mut scratch,
                |fault_idx| first[fault_idx].is_some(),
                |fault_idx, masks| {
                    if let Some(j) = lanes::mask_first(&masks) {
                        hits.push((fault_idx, j));
                    }
                },
                meter,
            );
            if !swept {
                return false;
            }
            for &(fault_idx, j) in &self.hits {
                self.first[fault_idx] = Some(self.offset + j as usize);
                self.undetected -= 1;
            }
            self.offset += block.count() as usize;
        }
        true
    }
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
fn matrix_driver<const W: usize, P: ChannelPack, S: BlockSource<W>>(
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
    let mut forks = ForkScratch::new(network.lines());
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
            &mut forks,
            |_| false,
            |fault_idx, masks: [u64; W]| scratch[fault_idx] = masks,
            meter,
        );
        if !swept {
            break;
        }
        let offset = vectors.len();
        block.extract_all(&mut vectors);
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

/// Exhaustive redundancy verdicts: [`redundant_over_metered`] over all
/// `2^n` inputs ([`RangeSource::exhaustive`]).
///
/// An empty fault slice returns at once, so it is accepted for every `n`;
/// otherwise inputs must already be validated (`n < 32`).  `pub(crate)`
/// so a coverage grade (`crate::coverage`) runs its redundancy phase on
/// the meter its first-detection phase used, and the budget bounds the
/// whole grade rather than each phase.
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
    redundant_over_metered::<W, _>(network, faults, source, backend, meter)
}

/// Redundancy verdicts relative to the vectors `source` streams: the
/// early-exit driver under the caller's meter.  `Some(false)` is a
/// witnessed detection, `Some(true)` is issued only when the meter never
/// tripped (the whole source was swept or every fault was decided), and
/// `None` is a fault that survived the committed prefix of a tripped
/// sweep.  Inputs must already be validated.
pub(crate) fn redundant_over_metered<const W: usize, S>(
    network: &Network,
    faults: &[MultiFault],
    source: S,
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<Option<bool>>
where
    S: BlockSource<W> + BlockSource<TAIL_WIDTH>,
{
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
pub fn first_detections_multi_packed_on<const W: usize, P: ChannelPack>(
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

/// First detections of several test lists over one fault slice, on the
/// caller's meter: entry `i` of the result is, for each fault, the index
/// of the first test of `lists[i]` detecting it.  Inputs must already be
/// validated.  `pub(crate)` so a coverage grade (`crate::coverage`) runs
/// its first-detection and redundancy phases on one meter, for one list
/// or many.
///
/// Lists are swept longest first, under one sweep plan.  Each later
/// list finds the already-swept list it shares the longest prefix with
/// (the scan stops at the first differing vector), copies that list's
/// detections below the shared length `ℓ` — the same vectors detect the
/// same faults first — and resumes the early-exit sweep over
/// `tests[ℓ..]` at offset `ℓ` for the faults still undetected.  A list
/// that is a prefix of a swept one sweeps nothing.  This is how a batch
/// of truncations of one test set (a coverage shard) pays for its common
/// prefix once; one list is one plain early-exit sweep of it.
///
/// A copied `Some` is exact even after a trip, and a list swept after the
/// meter refused keeps only what it copied, so every `Some` is exact and
/// a `None` after a trip means *undecided*.
pub(crate) fn first_detections_of_lists<const W: usize, P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    lists: &[&[P]],
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Vec<Vec<Option<usize>>> {
    let plan = SweepPlan::new(network, faults);
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(lists[i].len()));
    // Filled in `order`, so every list a later one copies from is done.
    let mut done: Vec<Vec<Option<usize>>> = vec![Vec::new(); lists.len()];
    for (rank, &i) in order.iter().enumerate() {
        let tests = lists[i];
        let mut shared = 0;
        let mut first = vec![None; faults.len()];
        for &j in &order[..rank] {
            if shared == tests.len() {
                break;
            }
            let common = lists[j]
                .iter()
                .zip(tests)
                .take_while(|(a, b)| a == b)
                .count();
            if common > shared {
                shared = common;
                for (dst, &src) in first.iter_mut().zip(&done[j]) {
                    *dst = src.filter(|&t| t < shared);
                }
            }
        }
        let source = SliceSource::new(network.lines(), &tests[shared..]);
        let sweep = EarlyExit::new(network, backend, &plan, faults, first, shared);
        done[i] = sweep.run::<W, _>(source, meter);
    }
    done
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
/// adapter names it as the timed redundancy step of a grade.  Typed,
/// budgeted redundancy is a stage of a coverage grade
/// ([`crate::coverage::coverage_of_universe_budgeted_packed_with`]).
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
/// [`detection_matrix_from_source_metered_on`].
///
/// # Panics
/// Panics if a fault does not fit the network, the source's line count
/// mismatches the network, or the vectors do not fit `P`.
#[must_use]
pub fn detection_matrix_from_source_packed_on<const W: usize, P: ChannelPack, S: BlockSource<W>>(
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
/// for `ChannelVec` — see [`error::ensure_packable`]), every fault
/// fits the network and every test vector has the network's length.
fn check_matrix_inputs<P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
) -> Result<(), EngineError> {
    error::ensure_packable::<P>(network.lines())?;
    for fault in faults {
        fault.check_in_range(network)?;
    }
    crate::coverage::check_test_lengths(network, tests)
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
pub fn first_detections_multi_budgeted_packed_on<const W: usize, P: ChannelPack>(
    network: &Network,
    faults: &[MultiFault],
    tests: &[P],
    backend: Backend,
    budget: &SweepBudget,
) -> Result<Budgeted<Vec<Option<usize>>>, EngineError> {
    check_matrix_inputs(network, faults, tests)?;
    let mut meter = BudgetMeter::new(budget);
    let first = first_detections_of_lists::<W, P>(network, faults, &[tests], backend, &mut meter)
        .pop()
        .expect("one result per list");
    Ok(meter.finish(first))
}

/// [`detection_matrix_from_source_packed_on`] with typed validation, on
/// a caller's [`BudgetMeter`] metered at every block boundary and fork
/// site: the engine behind budgeted augmentation candidate sweeps, and
/// (over a [`SliceSource`]) the budgeted matrix of an explicit test list.
/// A budgeted call passes `BudgetMeter::new(&budget)` and hands the
/// result to [`BudgetMeter::finish`]; the augmentation search grades,
/// sweeps candidates and searches a cover on one meter.
///
/// A block's columns and its echoed vectors commit together, only after
/// the block sweeps to completion within budget.  On a trip (block
/// budget, fork budget, deadline or cancellation) the in-flight block is
/// discarded, so the matrix and vector list are truncated to the same
/// whole-block prefix ([`BudgetMeter::tripped`]): bit-identical to the
/// unbudgeted sweep restricted to its first `test_count` vectors.
///
/// # Errors
/// Before any block is pulled from the source:
/// [`EngineError::OversizedNetwork`] when the network does not fit `P`,
/// [`EngineError::ChannelMismatch`] when the source's line count differs
/// from the network's, and [`EngineError::IndexOutOfRange`] for a fault
/// that does not fit the network.
pub fn detection_matrix_from_source_metered_on<
    const W: usize,
    P: ChannelPack,
    S: BlockSource<W>,
>(
    network: &Network,
    faults: &[MultiFault],
    source: S,
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Result<(DetectionMatrix, Vec<P>), EngineError> {
    error::ensure_packable::<P>(network.lines())?;
    error::ensure_same_lines(network.lines(), source.lines())?;
    for fault in faults {
        fault.check_in_range(network)?;
    }
    Ok(matrix_driver(network, backend, faults, source, meter))
}

/// Bit-parallel per-fault redundancy check at lane width `W` on `backend`:
/// `true` iff the faulty network still sorts all `2^n` binary inputs,
/// drained `W × 64` vectors per block from the counting-pattern
/// [`RangeSource::exhaustive`].
///
/// The per-fault reference the batch sweep
/// ([`redundant_faults_multi_on`]) is regression-pinned against: it
/// re-runs the whole network for every block instead of forking.  Agrees
/// with the scalar
/// [`is_multi_fault_redundant`](crate::universe::is_multi_fault_redundant)
/// (the proptest suite checks this).
///
/// # Panics
/// Panics if a lesion of the fault does not fit the network or `n ≥ 32`.
#[must_use]
pub fn is_fault_redundant_wide<const W: usize>(
    network: &Network,
    fault: &MultiFault,
    backend: Backend,
) -> bool {
    let n = network.lines();
    fault.assert_in_range(network);
    let mut source = RangeSource::exhaustive(n);
    let mut block = WideBlock::<W>::zeroed(n);
    while source.next_block(&mut block) {
        run_multi_from(network, backend, fault, &mut block, 0);
        if lanes::mask_any(&block.unsorted_masks_with(backend)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::enumerate_faults;
    use crate::simulate::apply_fault;
    use crate::universe::{
        is_multi_fault_redundant, multi_detects, multi_faulty_apply, multi_first_detection_index,
    };
    use sortnet_combinat::BitString;
    use sortnet_network::builders::batcher::odd_even_merge_sort;

    /// The single-comparator faults of `net` as one-lesion [`MultiFault`]s.
    fn single_faults(net: &Network) -> Vec<MultiFault> {
        enumerate_faults(net)
            .into_iter()
            .map(MultiFault::from)
            .collect()
    }

    /// `run` on every runnable backend, which must all agree; returns the
    /// common answer.
    fn on_every_backend<T: PartialEq + std::fmt::Debug>(run: impl Fn(Backend) -> T) -> T {
        let backends = Backend::runnable();
        let answer = run(backends[0]);
        for &backend in &backends[1..] {
            assert_eq!(run(backend), answer, "backend {}", backend.name());
        }
        answer
    }

    /// The matrix of an explicit test list: the matrix driver over a
    /// [`SliceSource`], the same on every runnable backend.
    fn matrix<const W: usize, P: ChannelPack>(
        net: &Network,
        faults: &[MultiFault],
        tests: &[P],
    ) -> DetectionMatrix {
        on_every_backend(|backend| {
            let source = SliceSource::new(net.lines(), tests);
            detection_matrix_from_source_packed_on::<W, P, _>(net, faults, source, backend).0
        })
    }

    /// First detections of an explicit test list, the same on every
    /// runnable backend.
    fn firsts<const W: usize>(
        net: &Network,
        faults: &[MultiFault],
        tests: &[BitString],
    ) -> Vec<Option<usize>> {
        on_every_backend(|backend| {
            first_detections_multi_packed_on::<W, BitString>(net, faults, tests, backend)
        })
    }

    /// The typed matrix of `source` under `budget`: the metered sweep on
    /// a fresh meter, finished into a `Budgeted`.
    fn matrix_budgeted<const W: usize, P: ChannelPack, S: BlockSource<W>>(
        network: &Network,
        faults: &[MultiFault],
        source: S,
        backend: Backend,
        budget: &SweepBudget,
    ) -> Result<Budgeted<(DetectionMatrix, Vec<P>)>, EngineError> {
        let mut meter = BudgetMeter::new(budget);
        let swept =
            detection_matrix_from_source_metered_on(network, faults, source, backend, &mut meter)?;
        Ok(meter.finish(swept))
    }

    /// Exhaustive redundancy verdicts under `budget`: the metered driver
    /// a coverage grade runs, on a fresh meter.
    fn redundancy_budgeted<const W: usize>(
        network: &Network,
        faults: &[MultiFault],
        backend: Backend,
        budget: &SweepBudget,
    ) -> Budgeted<Vec<Option<bool>>> {
        let mut meter = BudgetMeter::new(budget);
        let verdicts = redundant_faults_metered::<W>(network, faults, backend, &mut meter);
        meter.finish(verdicts)
    }
    #[test]
    fn faulty_run_block_matches_scalar_simulation_exhaustively() {
        let net = odd_even_merge_sort(6);
        let inputs: Vec<BitString> = BitString::all(6).collect();
        for backend in Backend::runnable() {
            for fault in single_faults(&net) {
                let mut block = WideBlock::<1>::from_strings(6, &inputs);
                multi_faulty_run_block(&net, &fault, &mut block, backend);
                for (j, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        block.extract::<BitString>(j as u32),
                        multi_faulty_apply(&net, &fault, input),
                        "fault {fault} input {input} backend {}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn faulty_run_block_is_width_independent() {
        let net = odd_even_merge_sort(5);
        let inputs: Vec<BitString> = BitString::all(5).collect();
        for backend in Backend::runnable() {
            for fault in single_faults(&net) {
                let mut wide = WideBlock::<2>::from_strings(5, &inputs);
                multi_faulty_run_block(&net, &fault, &mut wide, backend);
                for (j, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        wide.extract::<BitString>(j as u32),
                        multi_faulty_apply(&net, &fault, input),
                        "fault {fault} input {input} backend {}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn detection_matrix_agrees_with_scalar_detects() {
        let net = odd_even_merge_sort(5);
        let faults = single_faults(&net);
        let tests: Vec<BitString> = BitString::all(5).collect();
        let matrix = matrix::<4, _>(&net, &faults, &tests);
        assert_eq!(matrix.fault_count(), faults.len());
        assert_eq!(matrix.test_count(), tests.len());
        for (f, fault) in faults.iter().enumerate() {
            for (t, test) in tests.iter().enumerate() {
                assert_eq!(
                    matrix.is_detected_by(f, t),
                    multi_detects(&net, fault, test),
                    "fault {fault} test {test}"
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
        let faults = single_faults(&net);
        let tests: Vec<BitString> = BitString::all(5).collect();
        let matrix = matrix::<4, _>(&net, &faults, &tests);
        for (f, fault) in faults.iter().enumerate() {
            assert_eq!(
                matrix.first_detection(f),
                multi_first_detection_index(&net, fault, &tests)
            );
            assert_eq!(matrix.detected(f), matrix.first_detection(f).is_some());
            assert_eq!(
                matrix.detection_count(f),
                tests
                    .iter()
                    .filter(|t| multi_detects(&net, fault, *t))
                    .count()
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
        for backend in Backend::runnable() {
            for fault in single_faults(&net) {
                let scalar = is_multi_fault_redundant(&net, &fault);
                assert_eq!(
                    is_fault_redundant_wide::<1>(&net, &fault, backend),
                    scalar,
                    "fault {fault} (W = 1) backend {}",
                    backend.name()
                );
                assert_eq!(
                    is_fault_redundant_wide::<8>(&net, &fault, backend),
                    scalar,
                    "fault {fault} (W = 8) backend {}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn degenerate_misroute_onto_own_top_is_a_no_op_in_both_engines() {
        // enumerate_faults never emits this shape, but the Fault type
        // admits it; the scalar simulator treats it as a no-op.
        let net = odd_even_merge_sort(5);
        let fault = MultiFault::from(Fault {
            comparator: 2,
            kind: crate::model::FaultKind::Misrouted {
                new_bottom: net.comparators()[2].top(),
            },
        });
        let inputs: Vec<BitString> = BitString::all(5).collect();
        let skipped = net.without_comparator(2);
        for backend in Backend::runnable() {
            let mut block = WideBlock::<1>::from_strings(5, &inputs[..32]);
            multi_faulty_run_block(&net, &fault, &mut block, backend);
            for (j, input) in inputs[..32].iter().enumerate() {
                assert_eq!(
                    block.extract::<BitString>(j as u32),
                    multi_faulty_apply(&net, &fault, input)
                );
                assert_eq!(
                    block.extract::<BitString>(j as u32),
                    skipped.apply_bits(input)
                );
            }
        }
    }

    #[test]
    fn batch_redundancy_sweep_matches_the_per_fault_rerun_path() {
        // The ROADMAP fix: one streamed 2^n pass with shared-prefix forking
        // must classify exactly like the old per-fault re-run path (and the
        // scalar oracle) on every single-comparator fault.
        let backends = Backend::runnable();
        for (n, &backend) in [4usize, 6, 8].into_iter().zip(backends.iter().cycle()) {
            let net = odd_even_merge_sort(n);
            let multi = single_faults(&net);
            let batch = redundant_faults_multi_on::<4>(&net, &multi, backend);
            let batch_w1 = redundant_faults_multi_on::<1>(&net, &multi, Backend::Scalar);
            assert_eq!(batch, batch_w1, "n={n}: width must not change verdicts");
            for (i, fault) in multi.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    is_fault_redundant_wide::<4>(&net, fault, backend),
                    "n={n} fault {fault} backend {}",
                    backend.name()
                );
                assert_eq!(
                    batch[i],
                    is_multi_fault_redundant(&net, fault),
                    "n={n} fault {fault} (scalar)"
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
            redundant_faults_multi_on::<4>(&net, &[], Backend::Scalar),
            Vec::<bool>::new()
        );
        let budgeted =
            redundancy_budgeted::<4>(&net, &[], Backend::Scalar, &SweepBudget::unlimited());
        assert_eq!(budgeted, Budgeted::Complete(Vec::new()));
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
        use crate::universe::{FaultUniverse, StandardUniverse};
        let net = odd_even_merge_sort(5);
        let inputs: Vec<BitString> = BitString::all(5).collect();
        let backends = Backend::runnable();
        for (universe, &backend) in StandardUniverse::ALL
            .into_iter()
            .zip(backends.iter().cycle())
        {
            for mf in universe.iter(&net) {
                let mut block = WideBlock::<2>::from_strings(5, &inputs);
                multi_faulty_run_block(&net, &mf, &mut block, backend);
                for (j, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        block.extract::<BitString>(j as u32),
                        multi_faulty_apply(&net, &mf, input),
                        "universe {} fault {mf} input {input} backend {}",
                        universe.name(),
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bitparallel_engine_matches_scalar_at_the_word_boundary() {
        // n ∈ {63, 64}: the lane engine indexes lanes, the scalar
        // simulator bits 62/63 of one channel word; the two must agree on
        // every stuck lesion of the top lines.
        use crate::universe::{FaultUniverse, StuckLine};
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
            for backend in Backend::runnable() {
                for mf in StuckLine.iter(&net) {
                    let mut block = WideBlock::<1>::from_strings(n, &inputs);
                    multi_faulty_run_block(&net, &mf, &mut block, backend);
                    for (j, input) in inputs.iter().enumerate() {
                        assert_eq!(
                            block.extract::<BitString>(j as u32),
                            multi_faulty_apply(&net, &mf, input),
                            "n={n} fault {mf} input {input} backend {}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_fault_wrappers_agree_with_the_multi_core() {
        // A single `Fault` runs as its one-lesion `MultiFault`: the block
        // runner agrees with the materialised faulty network wherever
        // `apply_fault` can build one, and the per-fault redundancy
        // reference with the batch sweep.
        let net = odd_even_merge_sort(6);
        let faults = enumerate_faults(&net);
        let multi = single_faults(&net);
        let inputs: Vec<BitString> = BitString::all(6).collect();
        for backend in Backend::runnable() {
            let batch = redundant_faults_multi_on::<2>(&net, &multi, backend);
            for (i, fault) in faults.iter().enumerate() {
                let mut lesioned = WideBlock::<2>::from_strings(6, &inputs);
                multi_faulty_run_block(&net, &multi[i], &mut lesioned, backend);
                if let Some(materialised) = apply_fault(&net, fault) {
                    let mut rerun = WideBlock::<2>::from_strings(6, &inputs);
                    rerun.run_range_with(Backend::Scalar, &materialised, 0, materialised.size());
                    assert_eq!(
                        rerun,
                        lesioned,
                        "fault {fault:?} backend {}",
                        backend.name()
                    );
                }
                assert_eq!(
                    batch[i],
                    is_fault_redundant_wide::<2>(&net, &multi[i], backend)
                );
            }
        }
    }

    #[test]
    fn streamed_matrix_equals_the_materialised_matrix_for_every_universe() {
        use crate::universe::{FaultUniverse, StandardUniverse};
        use sortnet_network::lanes::{ChainSource, IterSource, RangeSource};
        let net = odd_even_merge_sort(6);
        let tests: Vec<BitString> = BitString::all(6).collect();
        let backends = Backend::runnable();
        for (universe, &backend) in StandardUniverse::ALL
            .into_iter()
            .zip(backends.iter().cycle())
        {
            let faults: Vec<MultiFault> = universe.iter(&net).collect();
            let expected = matrix::<2, _>(&net, &faults, &tests);
            let (streamed, candidates) = detection_matrix_from_source_packed_on::<2, BitString, _>(
                &net,
                &faults,
                RangeSource::exhaustive(6),
                backend,
            );
            assert_eq!(
                streamed,
                expected,
                "universe {} backend {}",
                universe.name(),
                backend.name()
            );
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
            Backend::Scalar,
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
            matrix_budgeted::<1, BitString, _>(
                &net,
                &[rogue],
                SliceSource::new(5, &tests),
                Backend::Scalar,
                &unlimited
            )
            .unwrap_err(),
            EngineError::IndexOutOfRange { .. }
        ));
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
        let full = redundant_faults_multi_on::<2>(&net, &multi, Backend::Scalar);
        assert_eq!(
            redundancy_budgeted::<2>(&net, &multi, Backend::Scalar, &unlimited),
            Budgeted::Complete(full.into_iter().map(Some).collect())
        );
        // Streamed matrices validate the source's line count.
        assert!(matches!(
            matrix_budgeted::<1, BitString, _>(
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
        let (streamed, candidates) = matrix_budgeted::<1, BitString, _>(
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
        let refused = matrix_budgeted::<4, BitString, _>(
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
        let (matrix, echoed) = matrix_budgeted::<4, ChannelVec, _>(
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
            matrix_budgeted::<1, BitString, _>(
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
        let out = matrix_budgeted::<1, BitString, _>(
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
        let complete =
            redundancy_budgeted::<1>(&net, &multi, Backend::Scalar, &SweepBudget::unlimited());
        assert!(complete.is_complete());
        assert_eq!(
            complete.into_value(),
            full.iter().map(|&b| Some(b)).collect::<Vec<_>>()
        );
        // A zero-block budget decides nothing: all verdicts stay open.
        let starved = redundancy_budgeted::<1>(
            &net,
            &multi,
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(0),
        );
        assert!(!starved.is_complete());
        assert!(starved.value().iter().all(Option::is_none));
        // A one-block budget may only issue witnessed (false) verdicts,
        // and each must agree with the full sweep.
        let partial = redundancy_budgeted::<1>(
            &net,
            &multi,
            Backend::Scalar,
            &SweepBudget::unlimited().with_max_blocks(1),
        );
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
                    multi_detects(&net, fault, test),
                    "fault {fault} test {test}"
                );
            }
        }
        assert_eq!(
            matrix_budgeted::<1, ChannelVec, _>(
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
        let complete = matrix_budgeted::<1, BitString, _>(
            &net,
            &multi,
            IterSource::new(7, tests.clone()),
            Backend::Scalar,
            &SweepBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(complete, Budgeted::Complete((full.clone(), all)));
        let partial = matrix_budgeted::<1, BitString, _>(
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
        let out = matrix_budgeted::<1, BitString, _>(
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

    /// A deterministic 8-line list of `len` vectors whose detections
    /// spread over many blocks: 700 sorted strings (which miss every
    /// stuck-pass fault and detect little else), then every seventh vector
    /// a pseudo-random one among the sorted strings.
    fn spread_list(len: usize) -> Vec<BitString> {
        (0..len)
            .map(|i| {
                if i >= 700 && i % 7 == 0 {
                    let word = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
                    BitString::from_word(word, 8)
                } else {
                    BitString::sorted_with(8 - i % 9, i % 9)
                }
            })
            .collect()
    }

    /// The list lengths the width grid sweeps at lane width `W`: empty,
    /// one vector, either side of one block, and past the first wide tail
    /// block.
    fn grid_lengths<const W: usize>() -> [usize; 6] {
        let block = W * 64;
        [0, 1, block - 1, block, block + 1, block + 1024 + 5]
    }

    /// At most 400 faults of `universe` on `net`, evenly spaced in
    /// enumeration order: every fault of a linear universe, a sample of a
    /// quadratic one (keeping the scalar references cheap).
    fn sampled_faults(
        net: &Network,
        universe: crate::universe::StandardUniverse,
    ) -> Vec<MultiFault> {
        use crate::universe::FaultUniverse;
        let all: Vec<MultiFault> = universe.iter(net).collect();
        let step = all.len().div_ceil(400).max(1);
        all.into_iter().step_by(step).collect()
    }

    /// Every universe on Batcher n = 8, every runnable backend, lane
    /// width `W`: the unbudgeted sweep (first block at `W`, tail at `W16`)
    /// equals a budgeted sweep with an unreachable block cap (every block
    /// at `W`) and the scalar `multi_first_detection_index`.  The
    /// quadratic universes are sampled.
    fn wide_tail_first_detections_agree<const W: usize>() {
        use crate::universe::{multi_first_detection_index, FaultUniverse, StandardUniverse};
        let net = odd_even_merge_sort(8);
        let longest = spread_list(grid_lengths::<W>()[5]);
        let capped = SweepBudget::unlimited().with_max_blocks(u64::MAX);
        for universe in StandardUniverse::ALL {
            let faults = sampled_faults(&net, universe);
            let scalar: Vec<Option<usize>> = faults
                .iter()
                .map(|f| multi_first_detection_index(&net, f, &longest))
                .collect();
            for len in grid_lengths::<W>() {
                let tests = &longest[..len];
                let expected: Vec<Option<usize>> =
                    scalar.iter().map(|d| d.filter(|&t| t < len)).collect();
                for backend in Backend::runnable() {
                    let label = format!("{} W={W} len={len} {}", universe.name(), backend.name());
                    let wide = first_detections_multi_packed_on::<W, BitString>(
                        &net, &faults, tests, backend,
                    );
                    assert_eq!(wide, expected, "unbudgeted: {label}");
                    let narrow = first_detections_multi_budgeted_packed_on::<W, BitString>(
                        &net, &faults, tests, backend, &capped,
                    )
                    .unwrap();
                    assert!(narrow.is_complete(), "capped: {label}");
                    assert_eq!(narrow.into_value(), expected, "capped: {label}");
                }
            }
        }
    }

    #[test]
    fn wide_tail_first_detections_agree_at_every_width() {
        wide_tail_first_detections_agree::<1>();
        wide_tail_first_detections_agree::<2>();
        wide_tail_first_detections_agree::<4>();
        wide_tail_first_detections_agree::<8>();
        wide_tail_first_detections_agree::<16>();
    }

    /// Batcher n = 10 with a redundant comparator appended: its exhaustive
    /// sweep (1024 inputs, sixteen W1 blocks down to one W16 block) runs
    /// to the end for the faults no input detects.
    fn redundant_batcher_10() -> Network {
        let mut net = odd_even_merge_sort(10);
        net.push_pair(0, 9);
        net
    }

    /// The exhaustive redundancy verdicts of every universe on
    /// [`redundant_batcher_10`]: unbudgeted (tail at `W16`), capped (every
    /// block at `W`) and the scalar `is_multi_fault_redundant` agree.  The
    /// quadratic universes are sampled.
    fn wide_tail_redundancy_agrees<const W: usize>() {
        use crate::universe::{is_multi_fault_redundant, FaultUniverse, StandardUniverse};
        let net = redundant_batcher_10();
        let capped = SweepBudget::unlimited().with_max_blocks(u64::MAX);
        let mut redundant = 0;
        for universe in StandardUniverse::ALL {
            let faults = sampled_faults(&net, universe);
            let scalar: Vec<bool> = faults
                .iter()
                .map(|f| is_multi_fault_redundant(&net, f))
                .collect();
            redundant += scalar.iter().filter(|&&r| r).count();
            for backend in Backend::runnable() {
                let label = format!("{} W={W} {}", universe.name(), backend.name());
                let wide = redundant_faults_multi_on::<W>(&net, &faults, backend);
                assert_eq!(wide, scalar, "unbudgeted: {label}");
                let narrow = redundancy_budgeted::<W>(&net, &faults, backend, &capped);
                assert!(narrow.is_complete(), "capped: {label}");
                let expected: Vec<Option<bool>> = scalar.iter().map(|&r| Some(r)).collect();
                assert_eq!(narrow.into_value(), expected, "capped: {label}");
            }
        }
        assert!(redundant > 0, "no sweep ran to the end of the family");
    }

    #[test]
    fn wide_tail_redundancy_agrees_at_every_width() {
        wide_tail_redundancy_agrees::<1>();
        wide_tail_redundancy_agrees::<2>();
        wide_tail_redundancy_agrees::<4>();
        wide_tail_redundancy_agrees::<8>();
        wide_tail_redundancy_agrees::<16>();
    }

    /// The blocks a sweep commits: a budgeted meter that never trips
    /// still commits `⌈len / (W·64)⌉` width-`W` blocks, so a budget never
    /// widens; an unlimited meter commits one `W` block and then
    /// `⌈rest / 1024⌉` tail blocks.
    fn committed_blocks_follow_the_meter<const W: usize>() {
        let net = odd_even_merge_sort(8);
        let faults = single_faults(&net);
        let capped = SweepBudget::unlimited().with_max_blocks(u64::MAX);
        for len in grid_lengths::<W>() {
            // Sorted strings never detect a stuck-pass fault, so every
            // sweep runs to the end of the list.
            let tests: Vec<BitString> = (0..len)
                .map(|i| BitString::sorted_with(8 - i % 9, i % 9))
                .collect();
            let mut budgeted = BudgetMeter::new(&capped);
            let narrow = first_detections_of_lists::<W, BitString>(
                &net,
                &faults,
                &[&tests],
                Backend::Scalar,
                &mut budgeted,
            )
            .pop()
            .expect("one result per list");
            assert!(narrow.iter().any(Option::is_none), "W={W} len={len}");
            assert_eq!(budgeted.tripped(), None);
            assert_eq!(
                budgeted.progress().blocks,
                len.div_ceil(W * 64) as u64,
                "budgeted W={W} len={len}"
            );
            assert_eq!(budgeted.progress().vectors, len as u64);
            let mut unlimited = BudgetMeter::unlimited();
            let wide = first_detections_of_lists::<W, BitString>(
                &net,
                &faults,
                &[&tests],
                Backend::Scalar,
                &mut unlimited,
            )
            .pop()
            .expect("one result per list");
            assert_eq!(wide, narrow, "W={W} len={len}");
            let tail = len.saturating_sub(W * 64).div_ceil(TAIL_WIDTH * 64);
            assert_eq!(
                unlimited.progress().blocks,
                (len.min(1) + tail) as u64,
                "unlimited W={W} len={len}"
            );
        }
        // The exhaustive sweep misses the redundant faults, so it streams
        // all 1024 inputs.
        let net = redundant_batcher_10();
        let faults = single_faults(&net);
        let mut budgeted = BudgetMeter::new(&capped);
        let verdicts = redundant_faults_metered::<W>(&net, &faults, Backend::Scalar, &mut budgeted);
        assert!(verdicts.contains(&Some(true)));
        assert_eq!(budgeted.progress().blocks, (1024 / (W * 64)) as u64);
    }

    #[test]
    fn budgeted_sweeps_commit_width_w_blocks_and_only_unbudgeted_tails_widen() {
        committed_blocks_follow_the_meter::<1>();
        committed_blocks_follow_the_meter::<2>();
        committed_blocks_follow_the_meter::<4>();
        committed_blocks_follow_the_meter::<8>();
        committed_blocks_follow_the_meter::<16>();
    }

    #[test]
    fn first_detections_of_lists_equal_per_list_sweeps() {
        use crate::universe::{FaultUniverse, StandardUniverse};
        let net = odd_even_merge_sort(8);
        // Five W4 blocks and a partial one.
        let base = spread_list(256 * 5 + 77);
        // One of the base's pseudo-random vectors, which first detects
        // stuck-pass faults at index 714, planted where the base holds a
        // sorted string.
        let probe = base[714];
        let diverged_at = |i: usize| {
            let mut list = base.clone();
            assert_ne!(list[i], probe);
            list[i] = probe;
            list
        };
        let mut extended = base.clone();
        extended.extend(spread_list(40).into_iter().rev());
        let lists: Vec<Vec<BitString>> = vec![
            base.clone(),
            Vec::new(),
            base.clone(),
            base[..300].to_vec(),
            base[..256].to_vec(),
            diverged_at(0),
            diverged_at(100),
            diverged_at(500),
            diverged_at(300)[..400].to_vec(),
            extended,
        ];
        let borrowed: Vec<&[BitString]> = lists.iter().map(Vec::as_slice).collect();
        // Sorted strings detect no stuck-pass fault, so these universes
        // keep faults undetected deep into the base list.
        for universe in [
            StandardUniverse::SingleComparator,
            StandardUniverse::SingleComparatorPairs,
        ] {
            let faults: Vec<MultiFault> = universe.iter(&net).collect();
            for backend in Backend::runnable() {
                let batched = first_detections_of_lists::<4, _>(
                    &net,
                    &faults,
                    &borrowed,
                    backend,
                    &mut BudgetMeter::unlimited(),
                );
                let one_word = first_detections_of_lists::<1, _>(
                    &net,
                    &faults,
                    &borrowed,
                    backend,
                    &mut BudgetMeter::unlimited(),
                );
                assert_eq!(batched.len(), lists.len());
                for (i, tests) in lists.iter().enumerate() {
                    let alone =
                        first_detections_multi_packed_on::<4, _>(&net, &faults, tests, backend);
                    let label = format!("{} {} list {i}", universe.name(), backend.name());
                    assert_eq!(batched[i], alone, "{label}");
                    assert_eq!(one_word[i], alone, "W=1 {label}");
                }
                // The planted probe moves first detections forward.
                for at in [5, 6, 7] {
                    assert_ne!(batched[at], batched[0], "{}", universe.name());
                }
            }
        }
        assert!(first_detections_of_lists::<4, BitString>(
            &net,
            &single_faults(&net),
            &[],
            Backend::Scalar,
            &mut BudgetMeter::unlimited()
        )
        .is_empty());
    }

    /// The stuck-line segment-pair and null-lesion test networks on 8
    /// lines: Batcher's sorter, and two non-sorters (Batcher less one
    /// comparator, a random network) whose fault-free verdicts are not
    /// all clear.
    fn segment_fork_networks() -> Vec<(&'static str, Network)> {
        use sortnet_network::properties::is_sorter;
        use sortnet_network::random::NetworkSampler;
        let batcher = odd_even_merge_sort(8);
        let mut sampler = NetworkSampler::new(0x5E6_F04C);
        let nets = vec![
            ("batcher", batcher.clone()),
            (
                "batcher-1",
                sampler.drop_random_comparator(&batcher).unwrap(),
            ),
            ("random", sampler.network(8, 24)),
        ];
        assert!(is_sorter(&nets[0].1));
        assert!(nets[1..].iter().all(|(_, net)| !is_sorter(net)));
        nets
    }

    /// Test lists over 8 lines whose detections start in block 0 and
    /// spread over later blocks at every width.  The last one is built
    /// for blocks of `block` vectors.
    fn segment_fork_lists(block: usize) -> Vec<Vec<BitString>> {
        let unsorted: Vec<BitString> = BitString::all_unsorted(8).collect();
        let weight = |k: usize| BitString::sorted_with(8 - k, k);
        // On a sorter, output line 3 holds 1 exactly on inputs of weight
        // at least 5; stuck-at-0 there is caught by weight 6 and up, and
        // stuck-at-1 by weight 3 and down.  Block 0 catches stuck-at-0
        // only; in block 1 the line holds 1 on every vector of lane word
        // 0, and stuck-at-1 is caught in word 1, so that fault is live
        // and not a null lesion.
        let mut split_words = vec![weight(6)];
        split_words.resize(block, weight(4));
        split_words.extend(std::iter::repeat_n(weight(5), 64 + 7));
        split_words.push(weight(2));
        split_words.extend(std::iter::repeat_n(weight(5), 100));
        vec![
            // No all-zero and no all-ones vector: on a sorter, stuck-at-1
            // of the last output and stuck-at-0 of the first are never
            // detected while their partners fall in block 0, and then
            // are null lesions in every later block.
            unsorted.iter().cycle().take(1024 + 300).copied().collect(),
            spread_list(256 * 5 + 77),
            BitString::all(8).collect(),
            split_words,
        ]
    }

    /// Segment pairs and null lesions against the scalar references, for
    /// the three sweeps, at lane width `W` on every runnable backend.
    fn segment_forks_agree<const W: usize>() {
        use crate::universe::{
            is_multi_fault_redundant, multi_detects, multi_first_detection_index, FaultUniverse,
            StuckLine,
        };
        let capped = SweepBudget::unlimited().with_max_blocks(u64::MAX);
        for (name, net) in segment_fork_networks() {
            let faults: Vec<MultiFault> = StuckLine.iter(&net).collect();
            let plan = SweepPlan::new(&net, &faults);
            assert_eq!(
                plan.pairs_next.iter().filter(|&&p| p).count() * 2,
                faults.len(),
                "{name}: every stuck-line segment is a planned pair"
            );
            let redundant: Vec<bool> = faults
                .iter()
                .map(|f| is_multi_fault_redundant(&net, f))
                .collect();
            for (l, tests) in segment_fork_lists(W * 64).iter().enumerate() {
                let scalar: Vec<Option<usize>> = faults
                    .iter()
                    .map(|f| multi_first_detection_index(&net, f, tests))
                    .collect();
                if name == "batcher" && l == 0 {
                    // One fault of a segment caught in block 0, its
                    // partner never.
                    let split = plan.members.chunks(2).any(|pair| {
                        let [a, b] = [scalar[pair[0]], scalar[pair[1]]];
                        matches!((a, b), (Some(t), None) | (None, Some(t)) if t < W * 64)
                    });
                    assert!(split, "W={W}: no split segment");
                }
                for backend in Backend::runnable() {
                    let label = format!("{name} list {l} W={W} {}", backend.name());
                    let wide = first_detections_multi_packed_on::<W, BitString>(
                        &net, &faults, tests, backend,
                    );
                    assert_eq!(wide, scalar, "first detections: {label}");
                    let narrow = first_detections_multi_budgeted_packed_on::<W, BitString>(
                        &net, &faults, tests, backend, &capped,
                    )
                    .unwrap();
                    assert_eq!(
                        narrow,
                        Budgeted::Complete(scalar.clone()),
                        "capped: {label}"
                    );
                }
            }
            let all: Vec<BitString> = BitString::all(8).collect();
            for backend in Backend::runnable() {
                let label = format!("{name} W={W} {}", backend.name());
                assert_eq!(
                    redundant_faults_multi_on::<W>(&net, &faults, backend),
                    redundant,
                    "redundancy: {label}"
                );
                let (matrix, _) = detection_matrix_from_source_packed_on::<W, BitString, _>(
                    &net,
                    &faults,
                    SliceSource::new(8, &all),
                    backend,
                );
                for (f, fault) in faults.iter().enumerate() {
                    for (t, test) in all.iter().enumerate() {
                        assert_eq!(
                            matrix.is_detected_by(f, t),
                            multi_detects(&net, fault, test),
                            "matrix: {label} fault {fault} test {test}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn segment_pair_and_null_lesion_forks_match_the_scalar_references() {
        segment_forks_agree::<1>();
        segment_forks_agree::<2>();
        segment_forks_agree::<4>();
        segment_forks_agree::<8>();
        segment_forks_agree::<16>();
    }

    /// Where a `max_forks` budget trips, from the scalar first detections
    /// alone: block `b` admits one fork per fault still undetected before
    /// it, so the sweep trips in the first block whose running total
    /// passes the cap, having committed every block before it.
    fn expected_fork_trip(
        scalar: &[Option<usize>],
        len: usize,
        block: usize,
        cap: u64,
    ) -> Option<(u64, u64)> {
        let mut forks = 0u64;
        for b in 0..len.div_ceil(block) {
            let start = b * block;
            forks += scalar
                .iter()
                .filter(|d| d.is_none_or(|t| t >= start))
                .count() as u64;
            if forks > cap {
                let vectors = len.min(start + block) as u64;
                return Some((b as u64 + 1, vectors));
            }
        }
        None
    }

    #[test]
    fn fork_budgets_trip_at_one_admission_per_live_fault_per_block() {
        use crate::universe::{multi_first_detection_index, FaultUniverse, StuckLine};
        use sortnet_network::budget::BudgetReason;
        fn check<const W: usize>(net: &Network, faults: &[MultiFault], tests: &[BitString]) {
            let block = W * 64;
            let scalar: Vec<Option<usize>> = faults
                .iter()
                .map(|f| multi_first_detection_index(net, f, tests))
                .collect();
            for cap in [0u64, 1, 91, 92, 93, 150, 400, 1000, 5000] {
                let budget = SweepBudget::unlimited().with_max_forks(cap);
                let label = format!("W={W} cap={cap}");
                let out = first_detections_multi_budgeted_packed_on::<W, BitString>(
                    net,
                    faults,
                    tests,
                    Backend::Scalar,
                    &budget,
                )
                .unwrap();
                match (expected_fork_trip(&scalar, tests.len(), block, cap), out) {
                    (None, Budgeted::Complete(first)) => assert_eq!(first, scalar, "{label}"),
                    (
                        Some((blocks, vectors)),
                        Budgeted::Partial {
                            progress,
                            reason,
                            best_so_far,
                        },
                    ) => {
                        assert_eq!(reason, BudgetReason::Forks, "{label}");
                        assert_eq!(progress.blocks, blocks, "{label}");
                        assert_eq!(progress.vectors, vectors, "{label}");
                        assert_eq!(progress.forks, cap, "{label}");
                        let committed = (blocks as usize - 1) * block;
                        let expected: Vec<Option<usize>> = scalar
                            .iter()
                            .map(|d| d.filter(|&t| t < committed))
                            .collect();
                        assert_eq!(best_so_far, expected, "{label}");
                    }
                    (expected, out) => panic!("{label}: expected {expected:?}, got {out:?}"),
                }
                // The matrix admits every fault in every block.
                let matrix = matrix_budgeted::<W, BitString, _>(
                    net,
                    faults,
                    SliceSource::new(net.lines(), tests),
                    Backend::Scalar,
                    &budget,
                )
                .unwrap();
                let per_block = faults.len() as u64;
                let blocks = tests.len().div_ceil(block) as u64;
                if cap >= per_block * blocks {
                    assert!(matrix.is_complete(), "matrix {label}");
                } else if let Budgeted::Partial {
                    progress,
                    best_so_far: (partial, _),
                    ..
                } = matrix
                {
                    assert_eq!(progress.blocks, cap / per_block + 1, "matrix {label}");
                    assert_eq!(progress.forks, cap, "matrix {label}");
                    let committed = (cap / per_block) as usize * block;
                    assert_eq!(partial.test_count(), committed.min(tests.len()), "{label}");
                } else {
                    panic!("matrix {label}: a {cap}-fork budget must trip");
                }
            }
        }
        let net = odd_even_merge_sort(8);
        let faults: Vec<MultiFault> = StuckLine.iter(&net).collect();
        assert_eq!(faults.len(), 92);
        let tests = &segment_fork_lists(64)[0];
        check::<1>(&net, &faults, tests);
        check::<4>(&net, &faults, tests);
    }
}
