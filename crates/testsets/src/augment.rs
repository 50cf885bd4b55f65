//! Minimal test-set **augmentation**: the smallest set of extra vectors
//! that makes a base test set complete for a fault universe.
//!
//! PR 3 established that the paper's minimal 0/1 sets (Theorem 2.2) are
//! *incomplete* for the stuck-line universes — on Batcher's n = 8 sorter
//! they miss 8 of 62 detectable stuck-line faults and 118 of 3485
//! detectable stuck-line *pairs* — and that appending the `n + 1` sorted
//! strings restores completeness.  That gives an **upper bound** on the
//! augmentation size; this module finds the **provably smallest** one,
//! closing the ROADMAP's open question.
//!
//! # Pipeline
//!
//! 1. **Missed faults.**  A coverage run with redundancy classification
//!    ([`coverage_of_universe_metered`]) names the detectable
//!    faults the base set fails to catch (`CoverageReport::missed_faults`).
//! 2. **Candidates × missed-faults matrix.**  One streamed wide-lane pass
//!    ([`detection_matrix_from_source_metered_on`], metered block by
//!    block) grades a candidate family — all `2^n` vectors, a structured family,
//!    or an explicit list (see [`CandidatePool`]) — against exactly the
//!    missed faults, without materialising the family ahead of the sweep.
//!    The pass is generic over the vector packing, so candidate pools and
//!    reports cross the 64-line wall
//!    ([`ChannelVec`](sortnet_combinat::ChannelVec) for `n > 64`).
//! 3. **Exact set cover.**  Choosing the fewest candidates whose detection
//!    columns cover every missed fault is minimum set cover.  The solver
//!    ([`SetCoverInstance`]) computes a greedy upper bound, two lower
//!    bounds — the LP-relaxation-style counting bound
//!    `⌈uncovered / max-column⌉` and a hitting-set *witness* bound (a set
//!    of pairwise non-co-coverable faults, each forcing a distinct
//!    candidate) — and certifies optimality by branch and bound, early-
//!    exiting when greedy already meets the bound.
//!
//! The same subsumption pattern (greedy upper bound + exact lower-bound
//! certificate) drives the optimal-size sorting-network searches of
//! Frăsinaru & Răschip (arXiv:1707.08725) and Harder (arXiv:2012.04400);
//! here the certified object is the *test set* instead of the network.
//! The solver also powers the brute-force searches in [`crate::hitting`],
//! which it generalises from single-word (≤ 64 element) universes to
//! arbitrary widths.
//!
//! # Entry points
//!
//! Both entry points are typed (every refusal is an [`EngineError`]),
//! budgeted by [`SearchOptions::budget`], and generic over the vector
//! packing `P`.  One [`BudgetMeter`] spans every stage of a call, so a
//! counted budget bounds the whole search, not each stage:
//!
//! * [`try_minimum_augmentation_packed`] — end to end: coverage run,
//!   matrix, search;
//! * [`try_augmentation_for_missed_packed`] — the core, over an explicit
//!   missed-fault slice.
//!
//! [`SuggestAugmentation::try_suggest_augmentation`] is the hook on an
//! already-computed [`CoverageReport`] (the crate dependency points
//! `testsets → faults`, so the method lives here as an extension trait).

use std::collections::HashSet;

use sortnet_combinat::{BitString, ChannelPack};
use sortnet_faults::bitsim::detection_matrix_from_source_metered_on;
use sortnet_faults::coverage::{
    coverage_of_universe_metered, CoverageReport, FaultSimEngine, RedundancyMode,
};
use sortnet_faults::universe::{FaultUniverse, MultiFault};
use sortnet_faults::DetectionMatrix;
use sortnet_network::budget::{BudgetMeter, Budgeted, SweepBudget};
use sortnet_network::error::{self, EngineError};
use sortnet_network::lanes::{
    Backend, BlockSource, ChainSource, FamilySource, IterSource, PackedFamily, RangeSource,
    SliceSource, DEFAULT_WIDTH,
};
use sortnet_network::Network;

/// A bitmask over a small universe (fault indices or set indices), packed
/// 64 per word — the multi-word generalisation of the `u64` signatures in
/// [`crate::hitting`].
type Mask = Vec<u64>;

fn mask_words(bits: usize) -> usize {
    bits.div_ceil(64).max(1)
}

fn mask_new(bits: usize) -> Mask {
    vec![0u64; mask_words(bits)]
}

fn mask_set(mask: &mut Mask, i: usize) {
    mask[i / 64] |= 1u64 << (i % 64);
}

fn mask_count(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

fn mask_is_zero(mask: &[u64]) -> bool {
    mask.iter().all(|&w| w == 0)
}

fn mask_or(dst: &mut Mask, src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn mask_andnot(dst: &mut Mask, src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

fn mask_inter_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

fn mask_disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// The set bit positions of a mask, ascending.
fn mask_indices(mask: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (w, &word) in mask.iter().enumerate() {
        let mut x = word;
        while x != 0 {
            out.push(w * 64 + x.trailing_zeros() as usize);
            x &= x - 1;
        }
    }
    out
}

/// A minimum set-cover instance: `elements` things to cover, and candidate
/// sets given as bitmasks over them.
///
/// This is the generic engine behind the augmentation search (elements =
/// missed faults, sets = candidate test vectors) and behind the
/// brute-force searches in [`crate::hitting`] (elements = failure
/// signatures, sets = test strings; elements = unsorted strings, sets =
/// permutation covers).
#[derive(Clone, Debug)]
pub struct SetCoverInstance {
    elements: usize,
    sets: Vec<Mask>,
}

/// Outcome of [`SetCoverInstance::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetCoverSolution {
    /// The greedy cover (largest marginal gain first; ties to the lowest
    /// set index) — the upper bound the exact search starts from.
    pub greedy: Vec<usize>,
    /// The best cover found; the exact minimum when `certified`.
    pub minimum: Vec<usize>,
    /// The root lower bound: the larger of the counting bound
    /// `⌈elements / max-set-size⌉` and the disjoint-`witness` size.  When
    /// `certified`, `lower_bound ≤ minimum.len()` with equality iff the
    /// bound was tight.
    pub lower_bound: usize,
    /// `true` when the branch-and-bound search ran to completion (or was
    /// unnecessary because greedy met the root bound): `minimum` is then a
    /// provable optimum.  `false` only when a node budget aborted the
    /// search early.
    pub certified: bool,
    /// Branch-and-bound nodes expanded (0 when greedy met the bound).
    pub nodes: u64,
    /// Elements no set covers; the cover fields span the coverable rest.
    pub uncoverable: Vec<usize>,
    /// The lower-bound certificate: elements whose candidate sets are
    /// pairwise disjoint, so any cover needs a distinct set per member —
    /// proving `minimum.len() ≥ witness.len()` independently of the search.
    pub witness: Vec<usize>,
}

impl SetCoverInstance {
    /// Builds an instance over `elements` things to cover.
    ///
    /// # Panics
    /// Panics if a set mask has the wrong word length for `elements`.
    #[must_use]
    pub fn new(elements: usize, sets: Vec<Mask>) -> Self {
        let words = mask_words(elements);
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(set.len(), words, "set {i} has the wrong mask width");
        }
        Self { elements, sets }
    }

    /// Number of elements to cover.
    #[must_use]
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Solves the instance: greedy upper bound, root lower bound, and —
    /// unless greedy already meets the bound — an exact branch-and-bound
    /// search (MRV branching on the element with fewest covering sets,
    /// pruned by the node lower bound).
    ///
    /// `node_budget` caps the branch-and-bound nodes; `None` runs to
    /// certification.  An exhausted budget returns the best cover found
    /// with `certified = false`.
    #[must_use]
    pub fn solve(&self, node_budget: Option<u64>) -> SetCoverSolution {
        self.solve_budgeted(node_budget, &SweepBudget::unlimited())
            .into_value()
    }

    /// [`Self::solve`] under a [`SweepBudget`]: every expanded
    /// branch-and-bound node is admitted as a fork, so a fork cap,
    /// deadline, or [`sortnet_network::CancelToken`] cuts the exact search
    /// off cleanly.
    ///
    /// A tripped budget yields [`Budgeted::Partial`] carrying the best
    /// cover found so far (at worst the greedy cover, which is computed
    /// before any metered work) with `certified = false` and the root
    /// `lower_bound` still valid as a certificate — never nothing.  The
    /// greedy pass and bound computation themselves are not metered; only
    /// the potentially exponential search is.
    #[must_use]
    pub fn solve_budgeted(
        &self,
        node_budget: Option<u64>,
        budget: &SweepBudget,
    ) -> Budgeted<SetCoverSolution> {
        let mut meter = BudgetMeter::new(budget);
        let solution = self.solve_metered(node_budget, &mut meter);
        meter.finish(solution)
    }

    /// [`Self::solve_budgeted`] on a caller's meter: the last stage of an
    /// augmentation, admitted against what the grade and the candidate
    /// matrix left of the budget.  A meter that has already tripped
    /// expands no node, so the greedy cover comes back uncertified.
    fn solve_metered(&self, node_budget: Option<u64>, meter: &mut BudgetMeter) -> SetCoverSolution {
        let words = mask_words(self.elements);
        let mut target = vec![0u64; words];
        for e in 0..self.elements {
            mask_set(&mut target, e);
        }
        let mut coverable = vec![0u64; words];
        for set in &self.sets {
            mask_or(&mut coverable, set);
        }
        let uncoverable_mask: Mask = target.iter().zip(&coverable).map(|(t, c)| t & !c).collect();
        let uncoverable = mask_indices(&uncoverable_mask);
        for (t, c) in target.iter_mut().zip(&coverable) {
            *t &= c;
        }

        // Per-element covering sets, tried biggest-set-first in the search.
        let mut covering: Vec<Vec<usize>> = vec![Vec::new(); self.elements];
        for (s, set) in self.sets.iter().enumerate() {
            for e in mask_indices(set) {
                covering[e].push(s);
            }
        }
        for list in &mut covering {
            list.sort_by_key(|&s| (std::cmp::Reverse(mask_count(&self.sets[s])), s));
        }
        let covering_mask: Vec<Mask> = covering
            .iter()
            .map(|list| {
                let mut m = mask_new(self.sets.len());
                for &s in list {
                    mask_set(&mut m, s);
                }
                m
            })
            .collect();

        let greedy = self.greedy_cover(&target);
        let (lower_bound, witness) =
            cover_lower_bound(&self.sets, &target, &covering, &covering_mask);
        let (best, nodes, aborted) = {
            let mut search = Search {
                instance: self,
                covering: &covering,
                covering_mask: &covering_mask,
                best: greedy.clone(),
                nodes: 0,
                budget: node_budget,
                meter,
                aborted: false,
            };
            if lower_bound < search.best.len() {
                let mut chosen = Vec::new();
                search.dfs(&target, &mut chosen);
            }
            (search.best, search.nodes, search.aborted)
        };
        SetCoverSolution {
            greedy,
            minimum: best,
            lower_bound,
            certified: !aborted && meter.tripped().is_none(),
            nodes,
            uncoverable,
            witness,
        }
    }

    /// Greedy cover of `target`: repeatedly the set with the largest
    /// marginal gain, ties to the lowest index (which is why candidate
    /// pools put preferred/structured vectors first).
    fn greedy_cover(&self, target: &Mask) -> Vec<usize> {
        let mut uncovered = target.clone();
        let mut out = Vec::new();
        while !mask_is_zero(&uncovered) {
            let mut best_set = usize::MAX;
            let mut best_gain = 0usize;
            for (s, set) in self.sets.iter().enumerate() {
                let gain = mask_inter_count(set, &uncovered);
                if gain > best_gain {
                    best_gain = gain;
                    best_set = s;
                }
            }
            if best_gain == 0 {
                break; // uncoverable residue; the caller reports it
            }
            out.push(best_set);
            mask_andnot(&mut uncovered, &self.sets[best_set]);
        }
        out
    }
}

/// Lower bound for covering `uncovered`, with the disjoint-element witness
/// certifying the hitting-set half of the bound.
///
/// * counting (LP-relaxation-style): every chosen set covers at most
///   `max-column` uncovered elements, so ≥ `⌈|uncovered| / max-column⌉`
///   sets are needed;
/// * hitting-set witness: elements whose covering-set masks are pairwise
///   disjoint each force a distinct set (greedily collected fewest-
///   candidates-first).
fn cover_lower_bound(
    sets: &[Mask],
    uncovered: &Mask,
    covering: &[Vec<usize>],
    covering_mask: &[Mask],
) -> (usize, Vec<usize>) {
    let elements = mask_indices(uncovered);
    let mut witness = Vec::new();
    let bound = lower_bound_over(
        sets,
        uncovered,
        &elements,
        covering,
        covering_mask,
        Some(&mut witness),
    );
    (bound, witness)
}

/// The bound computation shared by the root (which keeps the witness for
/// the report) and the per-node pruning (which only needs the number —
/// `witness_out: None` skips the collection).  `elements` are the set bit
/// positions of `uncovered`, passed in so the search computes them once
/// per node for both the bound and the MRV pick.
fn lower_bound_over(
    sets: &[Mask],
    uncovered: &Mask,
    elements: &[usize],
    covering: &[Vec<usize>],
    covering_mask: &[Mask],
    mut witness_out: Option<&mut Vec<usize>>,
) -> usize {
    if elements.is_empty() {
        return 0;
    }
    let max_gain = sets
        .iter()
        .map(|s| mask_inter_count(s, uncovered))
        .max()
        .unwrap_or(0);
    debug_assert!(max_gain > 0, "lower bound asked over uncoverable elements");
    let counting = elements.len().div_ceil(max_gain.max(1));
    let mut by_degree = elements.to_vec();
    by_degree.sort_unstable_by_key(|&e| covering[e].len());
    let set_words = covering_mask.first().map_or(1, Vec::len);
    let mut used = vec![0u64; set_words];
    let mut witness_len = 0usize;
    for e in by_degree {
        if mask_disjoint(&covering_mask[e], &used) {
            mask_or(&mut used, &covering_mask[e]);
            witness_len += 1;
            if let Some(witness) = witness_out.as_deref_mut() {
                witness.push(e);
            }
        }
    }
    counting.max(witness_len)
}

/// Branch-and-bound state: MRV branching (the uncovered element with the
/// fewest covering sets), pruned at each node by [`cover_lower_bound`].
struct Search<'a> {
    instance: &'a SetCoverInstance,
    covering: &'a [Vec<usize>],
    covering_mask: &'a [Mask],
    best: Vec<usize>,
    nodes: u64,
    budget: Option<u64>,
    meter: &'a mut BudgetMeter,
    aborted: bool,
}

impl Search<'_> {
    fn dfs(&mut self, uncovered: &Mask, chosen: &mut Vec<usize>) {
        if mask_is_zero(uncovered) {
            if chosen.len() < self.best.len() {
                self.best = chosen.clone();
            }
            return;
        }
        if let Some(budget) = self.budget {
            if self.nodes >= budget {
                self.aborted = true;
                return;
            }
        }
        if !self.meter.admit_fork() {
            self.aborted = true;
            return;
        }
        self.nodes += 1;
        // One index scan serves both the bound and the MRV pick; the
        // witness elements are not materialised at interior nodes.
        let elements = mask_indices(uncovered);
        let bound = lower_bound_over(
            &self.instance.sets,
            uncovered,
            &elements,
            self.covering,
            self.covering_mask,
            None,
        );
        if chosen.len() + bound >= self.best.len() {
            return;
        }
        let element = elements
            .into_iter()
            .min_by_key(|&e| self.covering[e].len())
            .expect("uncovered is non-empty");
        for &s in &self.covering[element] {
            chosen.push(s);
            let mut next = uncovered.clone();
            mask_andnot(&mut next, &self.instance.sets[s]);
            self.dfs(&next, chosen);
            chosen.pop();
            if self.aborted {
                return;
            }
        }
    }
}

/// The candidate vector family an augmentation is drawn from.
///
/// Generic over the vector packing `P` ([`BitString`] up to 64 lines): a
/// `CandidatePool<ChannelVec>` carries the same structured families past
/// the 64-line wall.  The exhaustive variants are refused much earlier
/// anyway (`n ≥ 32`), so only [`CandidatePool::SortedStrings`],
/// [`CandidatePool::Family`] and [`CandidatePool::Explicit`] are
/// meaningful at multi-word widths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidatePool<P> {
    /// Every binary vector (`2^n` candidates): the exact minimum over all
    /// possible augmentations.  Refused for `n ≥ 32` (like every
    /// exhaustive sweep); practical for `n ≲ 20`.
    Exhaustive,
    /// The `n + 1` sorted strings — exactly the vectors Theorem 2.2's
    /// minimal set omits, and the family PR 3 showed restores stuck-line
    /// completeness.  The optimum over this pool is the "sorted strings
    /// suffice" upper bound the exhaustive search must meet or beat.
    SortedStrings,
    /// The sorted strings chained ahead of every unsorted string (the full
    /// `2^n` family reordered through
    /// [`ChainSource`]): same optimum
    /// as [`CandidatePool::Exhaustive`], but greedy tie-breaks prefer the
    /// structured candidates, which makes the reported vectors easier to
    /// read.
    SortedFirst,
    /// A structured [`PackedFamily`] streamed straight from
    /// [`FamilySource`] — lanes are filled by whole-word writes with no
    /// per-vector materialisation, so this is the native pool past the
    /// 64-line wall.  `Family(PackedFamily::SortedStrings)` enumerates the
    /// same candidates as [`CandidatePool::SortedStrings`] (which keeps
    /// its per-vector iterator as the scalar cross-check).
    Family(PackedFamily),
    /// An explicit candidate list (all of length `n`), e.g. a Theorem
    /// 2.4/2.5 family from [`crate::selector`]/[`crate::merging`].
    Explicit(Vec<P>),
}

/// The `n + 1` sorted strings `0^{n-k} 1^k`, in any packing.
fn sorted_strings<P: ChannelPack>(n: usize) -> impl Iterator<Item = P> + Clone {
    (0..=n).map(move |ones| P::sorted_of(n - ones, ones))
}

impl<P: ChannelPack> CandidatePool<P> {
    /// The pool as a streaming block source over `n` lines.  The blocks a
    /// source fills are packing-agnostic (lanes, not vectors), so only the
    /// candidate echo downstream depends on `P`.
    fn source(&self, n: usize) -> Box<dyn BlockSource<DEFAULT_WIDTH> + '_> {
        match self {
            Self::Exhaustive => Box::new(RangeSource::exhaustive(n)),
            Self::SortedStrings => Box::new(IterSource::new(n, sorted_strings::<P>(n))),
            Self::SortedFirst => {
                // Same budget as the exhaustive pool — the unsorted tail
                // alone would otherwise slip past RangeSource's n < 32
                // guard (BitString::all only refuses n >= 64) and grind
                // through 2^n candidates instead of panicking.  n < 32
                // also keeps the single-word tail iterator valid for any
                // packing.
                assert!(n < 32, "exhaustive 2^{n} candidate pool refused");
                Box::new(ChainSource::new(
                    IterSource::new(n, sorted_strings::<BitString>(n)),
                    IterSource::new(n, BitString::all_unsorted(n)),
                ))
            }
            Self::Family(family) => Box::new(FamilySource::<P>::new(*family, n)),
            Self::Explicit(vectors) => Box::new(SliceSource::new(n, vectors)),
        }
    }
}

/// Knobs of the augmentation search.
#[derive(Clone, Debug, Default)]
pub struct SearchOptions {
    /// Engine for the coverage run in [`try_minimum_augmentation_packed`]
    /// (the candidate matrix always uses the streamed bit-parallel pass;
    /// every engine produces the identical report).
    pub engine: FaultSimEngine,
    /// How the coverage run classifies missed faults as redundant
    /// (undetectable) before the augmentation obligation is formed.  The
    /// default, [`RedundancyMode::Exhaustive`], proves undetectability by
    /// the `2^n` sweep and is refused for `n ≥ 32`; past
    /// the wall pick [`RedundancyMode::RelativeTo`] a [`PackedFamily`] —
    /// faults no family vector detects are then excluded from the
    /// obligation *relative to that family*.
    pub redundancy: RedundancyMode,
    /// Branch-and-bound node cap; `None` runs to certification.  The
    /// greedy cover is always available, so an exhausted budget degrades
    /// the result to "best found, uncertified", never to nothing.
    pub node_budget: Option<u64>,
    /// Wall-clock / cancellation budget.  It meters every expensive stage
    /// of one call on one meter, so the counted axes bound the whole call:
    /// the base coverage grade of
    /// [`try_minimum_augmentation_packed`], the streamed candidate ×
    /// missed-fault matrix (admitted block by block; whole blocks commit or
    /// are discarded atomically) and the branch-and-bound set-cover search
    /// (one fork admission per expanded node).  The default is unlimited.
    /// A trip degrades to [`Budgeted::Partial`]: the best cover found over
    /// the committed candidate prefix with `certified = false` (none when
    /// the base grade tripped) — never nothing.
    pub budget: SweepBudget,
}

/// Result of an augmentation search, in the pool's packing `P`.
#[derive(Clone, Debug, PartialEq)]
pub struct AugmentationReport<P> {
    /// The detectable faults the base set missed, in universe order — the
    /// elements the augmentation must cover.
    pub missed_faults: Vec<MultiFault>,
    /// Candidates streamed through the detection matrix (before empty and
    /// duplicate detection columns were folded away).  When the budget
    /// tripped the matrix sweep, this counts only the committed
    /// whole-block prefix of the pool.
    pub candidates_considered: usize,
    /// The greedy augmentation (upper bound).
    pub greedy: Vec<P>,
    /// The smallest augmentation found; the certified minimum over the
    /// pool when `certified`.
    pub minimum: Vec<P>,
    /// Root lower bound on any augmentation from this pool; equals
    /// `minimum.len()` exactly when the bound is tight (it always is once
    /// `certified` and the search closed the gap).
    pub lower_bound: usize,
    /// `true` when `minimum` is provably optimal over the pool.
    pub certified: bool,
    /// Branch-and-bound nodes expanded (0 when greedy met the bound).
    pub search_nodes: u64,
    /// The lower-bound certificate: missed faults no single candidate can
    /// co-cover, each forcing a distinct extra vector.
    pub witness_faults: Vec<MultiFault>,
}

impl<P: Clone> AugmentationReport<P> {
    /// `true` when the base set was already complete (nothing missed, so
    /// the empty augmentation is trivially optimal).
    #[must_use]
    pub fn is_already_complete(&self) -> bool {
        self.missed_faults.is_empty()
    }

    /// The base test set with the minimum augmentation appended.
    #[must_use]
    pub fn augmented(&self, base: &[P]) -> Vec<P> {
        base.iter()
            .cloned()
            .chain(self.minimum.iter().cloned())
            .collect()
    }
}

/// The trivial report for an already-complete base set.
fn empty_report<P>() -> AugmentationReport<P> {
    AugmentationReport {
        missed_faults: Vec::new(),
        candidates_considered: 0,
        greedy: Vec::new(),
        minimum: Vec::new(),
        lower_bound: 0,
        certified: true,
        search_nodes: 0,
        witness_faults: Vec::new(),
    }
}

/// Transposes the faults × candidates rows into per-candidate fault
/// masks, then folds away useless columns: a candidate detecting nothing
/// can never be chosen, and of duplicate columns only the first (in
/// stream order, so structured families win) can matter.  Returns the
/// kept candidate indices and their fault masks.
fn candidate_sets(
    matrix: &DetectionMatrix,
    missed_len: usize,
    candidate_count: usize,
) -> (Vec<usize>, Vec<Mask>) {
    let mut columns: Vec<Mask> = vec![mask_new(missed_len); candidate_count];
    for (fault_idx, column) in (0..missed_len).map(|f| (f, matrix.row_words(f))) {
        for (w, &word) in column.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                mask_set(&mut columns[t], fault_idx);
                bits &= bits - 1;
            }
        }
    }
    let mut kept: Vec<usize> = Vec::new();
    let mut seen: HashSet<&Mask> = HashSet::new();
    for (t, column) in columns.iter().enumerate() {
        if !mask_is_zero(column) && seen.insert(column) {
            kept.push(t);
        }
    }
    let sets: Vec<Mask> = kept.iter().map(|&t| columns[t].clone()).collect();
    (kept, sets)
}

/// Maps a set-cover solution back through the kept-column indirection to
/// candidate vectors and missed faults.
fn report_from_solution<P: Clone>(
    missed: &[MultiFault],
    candidates: &[P],
    kept: &[usize],
    solution: &SetCoverSolution,
) -> AugmentationReport<P> {
    AugmentationReport {
        missed_faults: missed.to_vec(),
        candidates_considered: candidates.len(),
        greedy: solution
            .greedy
            .iter()
            .map(|&s| candidates[kept[s]].clone())
            .collect(),
        minimum: solution
            .minimum
            .iter()
            .map(|&s| candidates[kept[s]].clone())
            .collect(),
        lower_bound: solution.lower_bound,
        certified: solution.certified,
        search_nodes: solution.nodes,
        witness_faults: solution.witness.iter().map(|&e| missed[e]).collect(),
    }
}

/// The smallest subset of `pool` covering an explicit slice of missed
/// faults, validated and budgeted.
///
/// Validates up front instead of panicking: a network the packing `P`
/// cannot hold is [`EngineError::OversizedNetwork`], and an exhaustive
/// pool ([`CandidatePool::Exhaustive`]/[`CandidatePool::SortedFirst`])
/// over `n ≥ 32` lines is [`EngineError::SweepTooLarge`] — both checked
/// before the pool's source is built.  Ill-fitting faults surface
/// through the typed matrix sweep.  A pool that cannot cover some missed
/// fault is [`EngineError::InfeasibleCover`] carrying the
/// uncoverable-fault count.
///
/// `options.budget` meters both expensive stages on one meter.  The
/// streamed candidate matrix is admitted block by block
/// ([`detection_matrix_from_source_metered_on`]), with whole blocks
/// committed or discarded atomically; a trip there degrades to
/// [`Budgeted::Partial`] whose report covers exactly the committed
/// candidate prefix (`candidates_considered` counts it) with
/// `certified = false` — and is **never** [`EngineError::InfeasibleCover`],
/// because a fault uncoverable by the streamed prefix may be covered by
/// the unstreamed remainder.  The branch-and-bound set-cover search is
/// metered one fork admission per expanded node against what the matrix
/// left; a trip there degrades the same way, still carrying the greedy
/// cover and the valid root `lower_bound` certificate.  After a matrix
/// trip the search expands no node.
///
/// # Errors
/// [`EngineError`] as described above.
pub fn try_augmentation_for_missed_packed<P: ChannelPack>(
    network: &Network,
    missed: &[MultiFault],
    pool: &CandidatePool<P>,
    options: &SearchOptions,
) -> Result<Budgeted<AugmentationReport<P>>, EngineError> {
    let mut meter = BudgetMeter::new(&options.budget);
    let report = augmentation_for_missed_metered(network, missed, pool, options, &mut meter)?;
    Ok(meter.finish(report))
}

/// [`try_augmentation_for_missed_packed`] on a caller's meter: the
/// candidate matrix and the cover search admit their blocks and nodes
/// against one budget, whatever stage spent part of it before.
fn augmentation_for_missed_metered<P: ChannelPack>(
    network: &Network,
    missed: &[MultiFault],
    pool: &CandidatePool<P>,
    options: &SearchOptions,
    meter: &mut BudgetMeter,
) -> Result<AugmentationReport<P>, EngineError> {
    if missed.is_empty() {
        return Ok(empty_report());
    }
    let n = network.lines();
    error::ensure_packable::<P>(n)?;
    if matches!(pool, CandidatePool::Exhaustive | CandidatePool::SortedFirst) {
        error::ensure_sweepable(n)?;
    }
    let (matrix, candidates) = detection_matrix_from_source_metered_on::<DEFAULT_WIDTH, P, _>(
        network,
        missed,
        pool.source(n),
        Backend::active(),
        meter,
    )?;
    // A tripped matrix is exact for its committed whole-block prefix, so
    // the cover search still runs over it (on the tripped meter it keeps
    // the greedy cover, uncertified) — but a fault the prefix cannot
    // cover is *unknown*, not infeasible.
    let swept = meter.tripped().is_none();
    let (kept, sets) = candidate_sets(&matrix, missed.len(), candidates.len());
    let solution =
        SetCoverInstance::new(missed.len(), sets).solve_metered(options.node_budget, meter);
    if swept && !solution.uncoverable.is_empty() {
        return Err(EngineError::InfeasibleCover {
            uncoverable: solution.uncoverable.len(),
        });
    }
    Ok(report_from_solution(missed, &candidates, &kept, &solution))
}

/// End-to-end minimum augmentation: grades `base_tests` against `universe`
/// (classifying missed faults per [`SearchOptions::redundancy`] so
/// undetectable faults leave the obligation), then finds the smallest set of extra vectors from `pool`
/// completing the coverage ([`try_augmentation_for_missed_packed`]).
///
/// The default exhaustive classification is refused for `n ≥ 32`, so past
/// the wall pick [`RedundancyMode::RelativeTo`] a [`PackedFamily`] (or
/// [`RedundancyMode::Skip`] and accept undetectable faults in the
/// obligation, which an incomplete pool then reports as infeasible).
///
/// `options.budget` meters the base coverage grade
/// ([`coverage_of_universe_metered`] on [`Backend::active`]), the
/// candidate matrix and the cover search on **one** meter: blocks, forks
/// and nodes admitted by an earlier stage count against the later ones,
/// so a `max_blocks` of 2 admits 2 blocks across all three stages.  A
/// grade the budget cuts
/// short comes back [`Budgeted::Partial`] with the grade's progress and
/// reason; its report carries the grade's conservative missed list (faults
/// whose verdict never committed count as missed), no candidates and
/// `certified = false`.  An unlimited budget takes the unbudgeted path.
/// This spelling also stays because the repository benchmark's adapter
/// (`perfbench/src/engine.rs`) times it as a whole augmentation.
///
/// # Errors
/// [`EngineError`] from either stage; an uncoverable missed fault is
/// [`EngineError::InfeasibleCover`] (impossible with
/// [`CandidatePool::Exhaustive`]: a detectable fault has a detecting
/// vector by definition).
pub fn try_minimum_augmentation_packed<P: ChannelPack>(
    network: &Network,
    universe: &dyn FaultUniverse,
    base_tests: &[P],
    pool: &CandidatePool<P>,
    options: &SearchOptions,
) -> Result<Budgeted<AugmentationReport<P>>, EngineError> {
    let mut meter = BudgetMeter::new(&options.budget);
    let coverage = coverage_of_universe_metered(
        network,
        universe,
        &[base_tests],
        options.redundancy,
        options.engine,
        Backend::active(),
        &mut meter,
    )
    .pop()
    .expect("one grade per list")?;
    let report = if meter.tripped().is_none() {
        augmentation_for_missed_metered(
            network,
            &coverage.missed_faults,
            pool,
            options,
            &mut meter,
        )?
    } else {
        AugmentationReport {
            missed_faults: coverage.missed_faults,
            certified: false,
            ..empty_report()
        }
    };
    Ok(meter.finish(report))
}

/// The augmentation hook on a coverage report — the
/// `CoverageReport::try_suggest_augmentation` surface (an extension trait
/// because `sortnet-faults` cannot depend back on this crate).
pub trait SuggestAugmentation {
    /// The smallest set of extra vectors from `pool` catching every fault
    /// this report missed — [`try_augmentation_for_missed_packed`] over
    /// [`CoverageReport::missed_faults`], with the same validation and
    /// budget semantics.
    ///
    /// The report should have been produced with redundancy
    /// classification; otherwise undetectable faults sit in the missed
    /// list and the search reports them as
    /// [`EngineError::InfeasibleCover`].
    ///
    /// # Errors
    /// [`EngineError`] as for [`try_augmentation_for_missed_packed`].
    fn try_suggest_augmentation<P: ChannelPack>(
        &self,
        network: &Network,
        pool: &CandidatePool<P>,
        options: &SearchOptions,
    ) -> Result<Budgeted<AugmentationReport<P>>, EngineError>;
}

impl SuggestAugmentation for CoverageReport {
    fn try_suggest_augmentation<P: ChannelPack>(
        &self,
        network: &Network,
        pool: &CandidatePool<P>,
        options: &SearchOptions,
    ) -> Result<Budgeted<AugmentationReport<P>>, EngineError> {
        try_augmentation_for_missed_packed(network, &self.missed_faults, pool, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_faults::coverage::try_coverage_of_universe_packed_with;
    use sortnet_faults::universe::{StandardUniverse, StuckLine};
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::lanes::LaneWidth;

    fn masks(elements: usize, sets: &[&[usize]]) -> Vec<Mask> {
        sets.iter()
            .map(|set| {
                let mut m = mask_new(elements);
                for &e in *set {
                    mask_set(&mut m, e);
                }
                m
            })
            .collect()
    }

    #[test]
    fn solver_finds_the_triangle_optimum() {
        // {a,b}, {b,c}, {a,c}: optimum 2, and the counting bound is tight.
        let instance = SetCoverInstance::new(3, masks(3, &[&[0, 1], &[1, 2], &[0, 2]]));
        let solution = instance.solve(None);
        assert_eq!(solution.minimum.len(), 2);
        assert!(solution.certified);
        assert_eq!(solution.lower_bound, 2);
        assert!(solution.greedy.len() >= solution.minimum.len());
        assert!(solution.uncoverable.is_empty());
    }

    #[test]
    fn solver_beats_a_suboptimal_greedy_and_certifies() {
        // Greedy takes the size-4 set first and then needs two singletons
        // (3 sets); the optimum pairs the two 3/2-sets (2 sets).
        let sets = masks(6, &[&[0, 1, 2, 3], &[0, 1, 2, 4], &[3, 5]]);
        let solution = SetCoverInstance::new(6, sets).solve(None);
        assert_eq!(solution.greedy.len(), 3);
        assert_eq!(solution.minimum, vec![1, 2]);
        assert!(solution.certified);
        assert!(solution.lower_bound <= 2);
        assert!(solution.nodes > 0);
    }

    #[test]
    fn exhausted_node_budget_degrades_to_uncertified_greedy() {
        let sets = masks(6, &[&[0, 1, 2, 3], &[0, 1, 2, 4], &[3, 5]]);
        let solution = SetCoverInstance::new(6, sets).solve(Some(0));
        assert!(!solution.certified);
        assert_eq!(solution.minimum.len(), 3, "budget 0 keeps the greedy cover");
        assert_eq!(solution.lower_bound, 2);
    }

    #[test]
    fn disjoint_witness_certifies_singleton_instances() {
        // Three singleton sets: the witness is all three elements, and it
        // is the binding bound.
        let solution = SetCoverInstance::new(3, masks(3, &[&[0], &[1], &[2]])).solve(None);
        assert_eq!(solution.minimum.len(), 3);
        assert_eq!(solution.lower_bound, 3);
        assert_eq!(solution.witness.len(), 3);
        assert!(solution.certified);
        assert_eq!(solution.nodes, 0, "greedy met the bound; no search ran");
    }

    #[test]
    fn uncoverable_elements_are_reported_not_silently_dropped() {
        let solution = SetCoverInstance::new(3, masks(3, &[&[0]])).solve(None);
        assert_eq!(solution.uncoverable, vec![1, 2]);
        assert_eq!(solution.minimum, vec![0]);
    }

    #[test]
    fn empty_instances_are_trivially_solved() {
        let solution = SetCoverInstance::new(0, Vec::new()).solve(None);
        assert!(solution.minimum.is_empty());
        assert!(solution.certified);
        assert_eq!(solution.lower_bound, 0);
    }

    /// The unbudgeted end-to-end search, which must complete.
    fn minimum(
        net: &Network,
        universe: &dyn FaultUniverse,
        base: &[BitString],
        pool: &CandidatePool<BitString>,
    ) -> Result<AugmentationReport<BitString>, EngineError> {
        try_minimum_augmentation_packed(net, universe, base, pool, &SearchOptions::default()).map(
            |budgeted| {
                assert!(budgeted.is_complete());
                budgeted.into_value()
            },
        )
    }

    /// The exhaustive stuck-line grade of `base` on `net`.
    fn stuck_line_coverage(net: &Network, base: &[BitString]) -> CoverageReport {
        try_coverage_of_universe_packed_with(
            net,
            &StuckLine,
            base,
            RedundancyMode::Exhaustive,
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        )
        .unwrap()
    }

    #[test]
    fn complete_base_sets_get_the_empty_augmentation() {
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let report = minimum(
            &net,
            &StandardUniverse::SingleComparator,
            &base,
            &CandidatePool::Exhaustive,
        )
        .unwrap();
        assert!(report.is_already_complete());
        assert!(report.minimum.is_empty());
        assert!(report.certified);
        assert_eq!(report.lower_bound, 0);
    }

    #[test]
    fn stuck_line_augmentation_completes_coverage_and_orders_bounds() {
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let report = minimum(&net, &StuckLine, &base, &CandidatePool::Exhaustive).unwrap();
        assert!(!report.is_already_complete());
        assert!(report.certified);
        assert!(report.greedy.len() >= report.minimum.len());
        assert!(report.minimum.len() >= report.lower_bound);
        assert!(report.lower_bound >= report.witness_faults.len());
        assert!(!report.minimum.is_empty());
        // The augmented set is complete.
        let full = stuck_line_coverage(&net, &report.augmented(&base));
        assert!(full.is_complete(), "{full:?}");
    }

    #[test]
    fn narrow_pools_report_infeasibility_with_the_blocking_faults() {
        // An unsorted-only pool cannot catch the sorted-input-only misses
        // of the stuck-line universe; the typed error counts exactly the
        // missed faults the lone candidate leaves uncovered.
        use sortnet_faults::universe::multi_detects;
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let missed = stuck_line_coverage(&net, &base).missed_faults;
        let candidate = BitString::parse("101010").unwrap();
        let blocking = missed
            .iter()
            .filter(|fault| !multi_detects(&net, fault, &candidate))
            .count();
        assert!(blocking > 0);
        let err = try_augmentation_for_missed_packed(
            &net,
            &missed,
            &CandidatePool::Explicit(vec![candidate]),
            &SearchOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::InfeasibleCover {
                uncoverable: blocking
            }
        );
    }

    #[test]
    fn sorted_first_pool_prefers_structured_candidates_on_ties() {
        // SortedFirst spans the same 2^n family as Exhaustive, so the
        // certified optimum must agree; the chosen vectors come from the
        // sorted prefix whenever ties allow.
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let exhaustive = minimum(&net, &StuckLine, &base, &CandidatePool::Exhaustive).unwrap();
        let structured = minimum(&net, &StuckLine, &base, &CandidatePool::SortedFirst).unwrap();
        assert!(exhaustive.certified && structured.certified);
        assert_eq!(structured.minimum.len(), exhaustive.minimum.len());
        assert_eq!(structured.candidates_considered, 1 << 6);
    }

    #[test]
    fn cancelled_solver_degrades_to_a_partial_greedy_with_the_root_bound() {
        use sortnet_network::{BudgetReason, Budgeted, CancelToken, SweepBudget};
        // Greedy needs 3 sets, the bound says 2, so the exact search must
        // run — and a pre-tripped cancel token cuts it at the first node.
        let sets = masks(6, &[&[0, 1, 2, 3], &[0, 1, 2, 4], &[3, 5]]);
        let token = CancelToken::new();
        token.cancel();
        let budgeted = SetCoverInstance::new(6, sets)
            .solve_budgeted(None, &SweepBudget::unlimited().with_cancel(token));
        let Budgeted::Partial {
            reason,
            best_so_far,
            ..
        } = budgeted
        else {
            panic!("a cancelled search must report Partial");
        };
        assert_eq!(reason, BudgetReason::Cancelled);
        assert!(!best_so_far.certified);
        assert_eq!(best_so_far.minimum.len(), 3, "greedy cover survives");
        assert_eq!(best_so_far.lower_bound, 2, "certificate bound survives");
        assert_eq!(best_so_far.nodes, 0);
    }

    #[test]
    fn unlimited_budget_keeps_solve_budgeted_equal_to_solve() {
        let sets = masks(6, &[&[0, 1, 2, 3], &[0, 1, 2, 4], &[3, 5]]);
        let instance = SetCoverInstance::new(6, sets);
        let plain = instance.solve(None);
        let budgeted = instance.solve_budgeted(None, &SweepBudget::unlimited());
        assert!(budgeted.is_complete());
        assert_eq!(budgeted.into_value(), plain);
    }

    #[test]
    fn try_augmentation_refuses_oversized_exhaustive_pools_with_a_typed_error() {
        use sortnet_faults::universe::{Lesion, StuckAt};
        let net = sortnet_network::Network::from_pairs(33, &[(0, 1)]);
        let missed = [MultiFault::single(Lesion::Stuck(StuckAt {
            line: 0,
            cut: 0,
            value: true,
        }))];
        for pool in [
            CandidatePool::<BitString>::Exhaustive,
            CandidatePool::SortedFirst,
        ] {
            let err =
                try_augmentation_for_missed_packed(&net, &missed, &pool, &SearchOptions::default())
                    .unwrap_err();
            assert_eq!(err, EngineError::SweepTooLarge { lines: 33 });
        }
    }

    #[test]
    fn typed_augmentation_refuses_bitstring_pools_past_64_lines() {
        // One-word `BitString` candidates cannot hold 96 lines; the
        // refusal must come before the pool's source is built (building
        // the sorted-strings source already panics at n = 96).
        use sortnet_faults::universe::FaultUniverse;
        let net = odd_even_merge_sort(96);
        let missed: Vec<MultiFault> = StuckLine.iter(&net).take(4).collect();
        for pool in [
            CandidatePool::SortedStrings,
            CandidatePool::Family(PackedFamily::SortedStrings),
            CandidatePool::Explicit(Vec::new()),
        ] {
            let err = try_augmentation_for_missed_packed::<BitString>(
                &net,
                &missed,
                &pool,
                &SearchOptions::default(),
            )
            .unwrap_err();
            assert!(
                matches!(err, EngineError::OversizedNetwork { .. }),
                "{pool:?}: {err:?}"
            );
        }
    }

    #[test]
    fn try_augmentation_maps_infeasibility_to_the_typed_cover_error() {
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let err = minimum(
            &net,
            &StuckLine,
            &base,
            &CandidatePool::Explicit(vec![BitString::parse("101010").unwrap()]),
        )
        .unwrap_err();
        let EngineError::InfeasibleCover { uncoverable } = err else {
            panic!("expected InfeasibleCover, got {err:?}");
        };
        assert!(uncoverable > 0);
    }

    #[test]
    fn packed_augmentation_certifies_past_the_64_line_wall() {
        use sortnet_combinat::ChannelVec;
        use sortnet_faults::universe::{multi_detects, Lesion, StuckAt};
        let n = 96;
        let net = odd_even_merge_sort(n);
        let cut = net.size();
        // Output-segment stuck lesions with known detectors: stuck-at-1 on
        // an output line below the top is exposed exactly by the all-zeros
        // input, stuck-at-0 above the bottom exactly by all-ones (the top
        // stuck at 1 / bottom stuck at 0 would be undetectable: a sorted
        // output stays sorted).
        let stuck = |line, value| MultiFault::single(Lesion::Stuck(StuckAt { line, cut, value }));
        let missed: Vec<MultiFault> = [0usize, 31, 63, 64]
            .into_iter()
            .map(|line| stuck(line, true))
            .chain(
                [31usize, 63, 64, 95]
                    .into_iter()
                    .map(|line| stuck(line, false)),
            )
            .collect();
        let pool = CandidatePool::Explicit(vec![ChannelVec::zeros(n), ChannelVec::ones(n)]);
        let typed =
            try_augmentation_for_missed_packed(&net, &missed, &pool, &SearchOptions::default())
                .unwrap();
        assert!(typed.is_complete());
        let report = typed.into_value();
        // Zeros catches exactly the stuck-at-1 half, ones the stuck-at-0
        // half: the certified minimum is both vectors, and the counting
        // bound 8/4 is tight.
        assert!(report.certified);
        assert_eq!(report.minimum.len(), 2);
        assert_eq!(report.lower_bound, 2);
        assert_eq!(report.candidates_considered, 2);
        for fault in &report.missed_faults {
            assert!(
                report.minimum.iter().any(|t| multi_detects(&net, fault, t)),
                "augmentation fails to detect {fault}"
            );
        }
        // A half-pool is genuinely infeasible, and counts the faults that
        // block it.
        let narrow = CandidatePool::Explicit(vec![ChannelVec::zeros(n)]);
        assert_eq!(
            try_augmentation_for_missed_packed(&net, &missed, &narrow, &SearchOptions::default())
                .unwrap_err(),
            EngineError::InfeasibleCover { uncoverable: 4 }
        );
    }

    #[test]
    fn family_pool_matches_the_sorted_strings_iterator_pool() {
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let coverage = stuck_line_coverage(&net, &base);
        let options = SearchOptions::default();
        let from_iter = try_augmentation_for_missed_packed::<BitString>(
            &net,
            &coverage.missed_faults,
            &CandidatePool::SortedStrings,
            &options,
        )
        .unwrap();
        let from_family = try_augmentation_for_missed_packed::<BitString>(
            &net,
            &coverage.missed_faults,
            &CandidatePool::Family(PackedFamily::SortedStrings),
            &options,
        )
        .unwrap();
        // The family source fills lanes by whole-word writes instead of
        // pushing vectors one by one; the streamed candidates — and hence
        // the whole certified report — must be identical.
        assert!(from_iter.is_complete());
        assert_eq!(from_iter, from_family);
    }

    #[test]
    fn relative_redundancy_runs_packed_augmentation_end_to_end_at_96_lines() {
        use sortnet_combinat::ChannelVec;
        use sortnet_faults::universe::multi_detects;
        let n = 96;
        let net = Network::from_pairs(n, &[(0, 95), (31, 64), (0, 1)]);
        let options = SearchOptions {
            redundancy: RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
            ..SearchOptions::default()
        };
        let base: Vec<ChannelVec> = Vec::new();
        let pool = CandidatePool::Family(PackedFamily::SortedStrings);
        // An empty base misses everything, the relative grade keeps only
        // the family-detectable faults, and the same family as pool covers
        // them by construction — so the search must certify a minimum.
        let typed =
            try_minimum_augmentation_packed(&net, &StuckLine, &base, &pool, &options).unwrap();
        assert!(typed.is_complete());
        let report = typed.into_value();
        assert!(report.certified);
        assert!(!report.minimum.is_empty());
        assert_eq!(report.candidates_considered, n + 1);
        for fault in &report.missed_faults {
            assert!(
                report.minimum.iter().any(|t| multi_detects(&net, fault, t)),
                "augmentation fails to detect {fault}"
            );
        }
        // The default exhaustive grade stays refused past the wall, typed.
        let refused = try_minimum_augmentation_packed(
            &net,
            &StuckLine,
            &base,
            &pool,
            &SearchOptions::default(),
        )
        .unwrap_err();
        assert_eq!(refused, EngineError::SweepTooLarge { lines: n });
    }

    #[test]
    fn budget_tripped_candidate_matrix_degrades_to_partial_not_infeasible() {
        use sortnet_network::{BudgetReason, Budgeted, SweepBudget};
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let coverage = stuck_line_coverage(&net, &base);
        let options = SearchOptions {
            budget: SweepBudget::unlimited().with_max_blocks(0),
            ..SearchOptions::default()
        };
        // Zero admitted blocks: no candidate ever streams, so the missed
        // faults are uncovered — which must surface as an uncertified
        // Partial over the empty committed prefix, not as InfeasibleCover.
        let budgeted = try_augmentation_for_missed_packed::<BitString>(
            &net,
            &coverage.missed_faults,
            &CandidatePool::SortedStrings,
            &options,
        )
        .unwrap();
        let Budgeted::Partial {
            reason,
            best_so_far,
            ..
        } = budgeted
        else {
            panic!("a tripped matrix sweep must report Partial");
        };
        assert_eq!(reason, BudgetReason::Blocks);
        assert!(!best_so_far.certified);
        assert_eq!(best_so_far.candidates_considered, 0);
        assert!(best_so_far.minimum.is_empty());
        // The same pool unmetered completes the search (the sorted
        // strings restore stuck-line completeness).
        let complete = try_augmentation_for_missed_packed::<BitString>(
            &net,
            &coverage.missed_faults,
            &CandidatePool::SortedStrings,
            &SearchOptions::default(),
        )
        .unwrap();
        assert!(complete.is_complete());
        assert!(complete.into_value().certified);
    }

    #[test]
    fn a_starved_budget_cuts_the_base_grade_short() {
        use sortnet_network::{BudgetReason, SweepBudget};
        let net = odd_even_merge_sort(12);
        let base = crate::sorting::binary_testset(12);
        let pool = CandidatePool::SortedStrings;
        let starved = SearchOptions {
            budget: SweepBudget::unlimited().with_max_blocks(1),
            ..SearchOptions::default()
        };
        // The grade's first-detection and redundancy sweeps are metered,
        // so one admitted block ends the run inside the grade.
        let budgeted =
            try_minimum_augmentation_packed(&net, &StuckLine, &base, &pool, &starved).unwrap();
        let Budgeted::Partial {
            progress,
            reason,
            best_so_far,
        } = budgeted
        else {
            panic!("a one-block budget must cut the base grade short");
        };
        assert!(progress.blocks <= 1, "{progress:?}");
        assert_eq!(reason, BudgetReason::Blocks);
        assert!(!best_so_far.certified);
        assert_eq!(best_so_far.candidates_considered, 0);
        assert!(best_so_far.minimum.is_empty() && best_so_far.greedy.is_empty());
        // Conservative: every fault the grade left uncommitted counts as
        // missed, so the partial list contains the true one.
        let graded = stuck_line_coverage(&net, &base);
        assert!(graded
            .missed_faults
            .iter()
            .all(|f| best_so_far.missed_faults.contains(f)));
        // Unlimited, the answer is the two-stage one: the unbudgeted grade,
        // then the search over its missed faults.
        let complete = try_minimum_augmentation_packed(
            &net,
            &StuckLine,
            &base,
            &pool,
            &SearchOptions::default(),
        )
        .unwrap();
        let two_stage = try_augmentation_for_missed_packed(
            &net,
            &graded.missed_faults,
            &pool,
            &SearchOptions::default(),
        )
        .unwrap();
        assert!(complete.is_complete());
        assert_eq!(complete, two_stage);
    }

    #[test]
    fn one_counted_budget_spans_the_grade_the_matrix_and_the_search() {
        use sortnet_faults::coverage::coverage_of_universe_budgeted_packed_with;
        use sortnet_network::{BudgetReason, SweepBudget};
        let net = odd_even_merge_sort(8);
        let base = &crate::sorting::binary_testset(8)[..40];
        let pool = CandidatePool::Exhaustive;
        let two_blocks = SweepBudget::unlimited().with_max_blocks(2);
        // The grade alone fits two blocks (its first detections and its
        // exhaustive redundancy sweep), and leaves faults missed, so the
        // candidate matrix needs a third.
        let grade = coverage_of_universe_budgeted_packed_with(
            &net,
            &StuckLine,
            base,
            RedundancyMode::Exhaustive,
            FaultSimEngine::default(),
            Backend::active(),
            &two_blocks,
        )
        .unwrap();
        assert!(grade.is_complete());
        assert!(!grade.value().missed_faults.is_empty());
        let options = SearchOptions {
            budget: two_blocks,
            ..SearchOptions::default()
        };
        let budgeted =
            try_minimum_augmentation_packed(&net, &StuckLine, base, &pool, &options).unwrap();
        let Budgeted::Partial {
            progress,
            reason,
            best_so_far,
        } = budgeted
        else {
            panic!("three blocks of work must not complete under a two-block budget");
        };
        assert_eq!(reason, BudgetReason::Blocks);
        assert_eq!(progress.blocks, 2, "{progress:?}");
        assert!(!best_so_far.certified);
        assert_eq!(best_so_far.candidates_considered, 0);
        assert_eq!(best_so_far.missed_faults, grade.value().missed_faults);
        // Three blocks are enough for the whole search.
        let options = SearchOptions {
            budget: SweepBudget::unlimited().with_max_blocks(3),
            ..SearchOptions::default()
        };
        let complete =
            try_minimum_augmentation_packed(&net, &StuckLine, base, &pool, &options).unwrap();
        assert!(complete.is_complete());
        assert_eq!(
            complete.into_value(),
            minimum(&net, &StuckLine, base, &pool).unwrap()
        );
    }

    #[test]
    fn try_suggest_augmentation_hook_matches_the_typed_entry() {
        let net = odd_even_merge_sort(6);
        let base = crate::sorting::binary_testset(6);
        let coverage = stuck_line_coverage(&net, &base);
        let via_hook = coverage
            .try_suggest_augmentation(&net, &CandidatePool::Exhaustive, &SearchOptions::default())
            .unwrap();
        let end_to_end = minimum(&net, &StuckLine, &base, &CandidatePool::Exhaustive).unwrap();
        assert!(via_hook.is_complete());
        assert_eq!(via_hook.into_value(), end_to_end);
    }
}
