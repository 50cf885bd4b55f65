//! Width-generic bit-sliced blocks and streaming test-vector sources.
//!
//! This module is the batching substrate every sweep in the workspace runs
//! on.  Two ideas compose:
//!
//! # `WideBlock<W>`: W×64 vectors per pass
//!
//! A [`WideBlock<W>`] holds up to `W × 64` binary input vectors in
//! transposed (bit-sliced) form: lane `i` is a `[u64; W]`, and bit `j` of
//! word `w` of lane `i` holds the value of network line `i` in vector
//! `w·64 + j` of the block.  A standard comparator on lines `(i, j)` is then
//! `2W` bitwise operations —
//!
//! ```text
//! new_i[w] = lane_i[w] & lane_j[w]      (the minima)
//! new_j[w] = lane_i[w] | lane_j[w]      (the maxima)
//! ```
//!
//! — the classical SIMD-within-a-register trick, widened so that one pass
//! over the comparators (and one *shared-prefix fork* in the fault engine)
//! is amortised over `W × 64` vectors instead of 64.  `W = 1` recovers the
//! original one-word [`BitBlock`](crate::bitparallel::BitBlock) exactly;
//! [`DEFAULT_WIDTH`] is the width a default [`Sweep`] uses.
//!
//! # `BlockSource`: test-vector families generated in block form
//!
//! The paper's theorems are statements about *families* of test vectors
//! (all `2^n` inputs, the minimal 0/1 sets of Theorems 2.2/2.4/2.5, …).  A
//! [`BlockSource`] streams such a family directly into transposed blocks,
//! so sweeps never materialise a `Vec<BitString>`:
//!
//! * [`RangeSource`] — the exhaustive `2^n` family, filled by *counting
//!   patterns* (lane `i < 6` of a 64-aligned word is a fixed alternating
//!   constant; higher lanes are broadcasts of the block-start bit), so block
//!   generation is O(`n·W`) words with no per-vector work;
//! * [`IterSource`] — a block-filling adapter over any iterator of packed
//!   vectors ([`sortnet_combinat::BitString`],
//!   [`sortnet_combinat::ChannelVec`]).  Like [`WideBlock::from_strings`],
//!   it packs 64 vectors at a time by a 64×64 bit-matrix transpose of each
//!   channel word, not bit by bit;
//! * [`WordSource`] — the same transpose fed by an iterator of raw `u64`
//!   words (`n ≤ 64`): the paper's test sets (unsorted strings, low-weight
//!   strings, half-sorted merge inputs, permutation covers) are generated
//!   as words in `sortnet-testsets` and reach the lanes with no vector
//!   type and no buffer;
//! * [`SliceSource`] — the same transposed fill over a borrowed slice,
//!   refilling the caller's block in place (the fault engine's view of a
//!   test list).
//!
//! A [`Check`] is the property question asked of every vector: "is the
//! output sorted?" (sorting, merging) or "do the first `k` outputs match a
//! reference sorter's?" (selection).  [`sweep_find`] streams a source
//! through a check under a [`BudgetMeter`] and extracts the first
//! violating *input* vector as a witness; it and the exhaustive sweeps of
//! [`crate::bitparallel`] run on one metered block loop.
//!
//! # `ChannelWords`: networks past 64 lines
//!
//! The lane table is indexed by *line*, so nothing in the transposed
//! layout caps `n` at 64: a network with `n` lines simply has `n` lane
//! rows, and a single test vector's payload is `ceil(n/64)` **channel
//! words** (`lanes[line][channel_word][W]` when viewed vector-side).  The
//! historical 64-line wall lived entirely at the *boundaries* — filling
//! blocks from, and extracting witnesses into, the one-word
//! [`sortnet_combinat::BitString`].  Those boundaries are generic over
//! [`ChannelPack`]: instantiated at `BitString` they monomorphise to
//! the exact single-word code the `n ≤ 64` benches have always measured,
//! and instantiated at [`sortnet_combinat::ChannelVec`] they thread any
//! `n` up to [`crate::error::MAX_CHANNEL_LINES`] through the identical
//! kernels.  See `docs/LANES.md` for the full layout story.
//!
//! # Backend selection: how the lane words are executed
//!
//! The transposed layout fixes *what* is computed (which words, in which
//! order); a pluggable [`Backend`] chooses *how* the word kernels run.
//! Two implementations exist — plain scalar loops, and an explicit AVX2
//! `core::arch` path on `x86_64` — bit-identical, with the best one
//! detected at runtime ([`Backend::active`]).  Every
//! [`WideBlock`] kernel and every sweep takes its backend explicitly, so
//! whole sweeps — exhaustive,
//! minimal-test-set, detection-matrix, redundancy — can be pinned to a
//! backend for differential testing and benchmarking.  A [`Sweep`] bundles
//! the backend with the lane width and the budget of an exhaustive sweep;
//! its [`Default`] is the one place the network layer reads the
//! process-wide backend.  See [`backend`] for the kernel contract.
//!
//! # The fork invariant: shared prefixes must advance in site order
//!
//! [`WideBlock::copy_from`] + [`WideBlock::run_range_with`] implement
//! *forking*: a sweep evaluates a shared state incrementally and snapshots
//! it where derived evaluations (faulty networks, in `sortnet-faults`)
//! branch off.
//! Correctness of any such scheme rests on one invariant: **a shared state
//! that has been advanced through comparators `0..p` may only serve forks
//! whose branch site is `≥ p`**, so fork sites must be visited in
//! nondecreasing order (the fault engine sorts its fault universes by fork
//! site, and — for two-lesion faults — nests a second fork level whose
//! sites are visited in order *within* each first-lesion group).  The same
//! rule is why counting-pattern blocks can be regenerated instead of
//! rewound: a block is never run backwards.

use std::ops::ControlFlow;

use sortnet_combinat::{channel_words, ChannelPack};

use crate::budget::{BudgetMeter, SweepBudget};
use crate::builders::batcher::odd_even_merge_sort;
use crate::error::{self, EngineError};
use crate::network::Network;

pub mod backend;
mod family;

pub use backend::Backend;
pub use family::{FamilySource, PackedFamily};

/// The lane width (in 64-bit words) a default [`Sweep`] and the test-set
/// verifiers use: [`DEFAULT_WIDTH`]`×64 = 256` vectors per block, which
/// keeps the working set of one block (`n` lanes) inside L1 for every
/// `n ≤ 64` while amortising per-block work 4× better than single-word
/// lanes.
pub const DEFAULT_WIDTH: usize = 4;

/// Runtime-selectable lane width, for APIs (engine enums, benches) that
/// choose `W` dynamically and dispatch to the const-generic code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// One `u64` word per lane: 64 vectors per block.
    W1,
    /// Two words per lane: 128 vectors per block.
    W2,
    /// Four words per lane: 256 vectors per block ([`DEFAULT_WIDTH`]).
    W4,
    /// Eight words per lane: 512 vectors per block.
    W8,
    /// Sixteen words per lane: 1024 vectors per block.
    W16,
}

impl LaneWidth {
    /// Every selectable width, narrowest first — the iteration set for
    /// width sweeps in tests and benches.
    pub const ALL: [Self; 5] = [Self::W1, Self::W2, Self::W4, Self::W8, Self::W16];

    /// Number of `u64` words per lane.
    #[must_use]
    pub const fn words(self) -> usize {
        match self {
            Self::W1 => 1,
            Self::W2 => 2,
            Self::W4 => 4,
            Self::W8 => 8,
            Self::W16 => 16,
        }
    }

    /// Number of vectors one block holds (`words × 64`).
    #[must_use]
    pub const fn vectors_per_block(self) -> u32 {
        (self.words() * 64) as u32
    }
}

/// How an exhaustive network-layer sweep runs: which lane-ops backend
/// executes the kernels, how many words wide each block's lanes are, and
/// how much work it may do.
///
/// The verdict never depends on `backend` or `width`.  An unlimited
/// `budget` lets a large sweep fan out over scoped threads; a bounded one
/// runs on the calling thread and may come back
/// [`Budgeted::Partial`](crate::Budgeted::Partial).
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Which lane-ops backend executes the word kernels.
    pub backend: Backend,
    /// Lane width of each block.
    pub width: LaneWidth,
    /// Resource bounds, checked once per block.
    pub budget: SweepBudget,
}

impl Default for Sweep {
    /// The runtime-detected [`Backend::active`], [`LaneWidth::W4`] and an
    /// unlimited budget.
    fn default() -> Self {
        Self {
            backend: Backend::active(),
            width: LaneWidth::W4,
            budget: SweepBudget::unlimited(),
        }
    }
}

/// The first six counting patterns: bit `j` of `COUNT_PATTERNS[i]` is bit
/// `i` of `j`, so a 64-aligned word of the exhaustive sweep has lane
/// `i < 6` equal to the constant and every higher lane equal to a broadcast
/// of the corresponding bit of the word's start value.
const COUNT_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// One masked-swap round of the 64×64 transpose over rows `0..ROWS`:
/// exchanges the off-diagonal `J×J` sub-blocks of every `2J×2J` diagonal
/// block, i.e. swaps bit `log2 J` of each bit's row and column index.
#[inline(always)]
fn swap_round<const J: usize, const ROWS: usize>(rows: &mut [u64; 64], mask: u64) {
    for base in (0..ROWS).step_by(2 * J) {
        for r in base..base + J {
            let t = ((rows[r] >> J) ^ rows[r + J]) & mask;
            rows[r + J] ^= t;
            rows[r] ^= t << J;
        }
    }
}

/// A swap round whose upper output rows are never read: when every
/// column `≥ J` is zero, row `r < J` keeps its own bits and takes row
/// `r + J`'s shifted up by `J`, and rows `J..2J` are left stale.
#[inline(always)]
fn fold_round<const J: usize>(rows: &mut [u64; 64]) {
    for r in 0..J {
        rows[r] |= rows[r + J] << J;
    }
}

/// Transposes a 64×64 bit matrix whose columns `LIVE..64` are zero (bit
/// `c` of row `r` moves to bit `r` of row `c`) and leaves the result in
/// rows `0..LIVE`; rows past it hold garbage.
///
/// Six rounds (`J = 32, 16, …, 1`) each swap bit `log2 J` of every bit's
/// row and column index.  A round with `J ≥ LIVE` meets only zero column
/// bits `log2 J`, so after it every set bit sits in rows `0..J`: it is a
/// [`fold_round`] over `J` rows, and later rounds run over `LIVE` rows.
/// `LIVE = 64` is the full transpose; `LIVE = 16` costs 32 + 16 row
/// folds and four 8-pair swap rounds instead of six 32-pair ones.
#[inline(always)]
fn transpose_live<const LIVE: usize>(rows: &mut [u64; 64]) {
    if LIVE <= 32 {
        fold_round::<32>(rows);
    } else {
        swap_round::<32, 64>(rows, 0x0000_0000_FFFF_FFFF);
    }
    if LIVE <= 16 {
        fold_round::<16>(rows);
    } else {
        swap_round::<16, LIVE>(rows, 0x0000_FFFF_0000_FFFF);
    }
    if LIVE <= 8 {
        fold_round::<8>(rows);
    } else {
        swap_round::<8, LIVE>(rows, 0x00FF_00FF_00FF_00FF);
    }
    swap_round::<4, LIVE>(rows, 0x0F0F_0F0F_0F0F_0F0F);
    swap_round::<2, LIVE>(rows, 0x3333_3333_3333_3333);
    swap_round::<1, LIVE>(rows, 0x5555_5555_5555_5555);
}

/// Transposes the 64 rows of one channel word whose bits `lines..64` are
/// zero, leaving lane rows `0..lines` (`1 ≤ lines ≤ 64`) in `rows`: the
/// live-lane transpose for the smallest of 8, 16, 32 or 64 lanes that
/// covers `lines`.
fn transpose_rows(rows: &mut [u64; 64], lines: usize) {
    match lines {
        0..=8 => transpose_live::<8>(rows),
        9..=16 => transpose_live::<16>(rows),
        17..=32 => transpose_live::<32>(rows),
        _ => transpose_live::<64>(rows),
    }
}

/// A block of up to `W × 64` binary input vectors in transposed
/// (bit-sliced) form.
///
/// See the [module docs](self) for the lane encoding.  `WideBlock<1>` is
/// re-exported as [`BitBlock`](crate::bitparallel::BitBlock) and carries a
/// single-word convenience API ([`lane`](WideBlock::<1>::lane),
/// [`live_mask`](WideBlock::<1>::live_mask)); generic code uses the
/// `*_words`/`*_masks` plural forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WideBlock<const W: usize> {
    /// `lanes[i][w]` holds bit `j` = value of line `i` in vector `w·64+j`.
    lanes: Vec<[u64; W]>,
    /// Number of vectors actually present (`0..=W·64`; 0 only for scratch
    /// blocks awaiting [`WideBlock::copy_from`] or
    /// [`BlockSource::next_block`]).
    count: u32,
}

impl<const W: usize> WideBlock<W> {
    /// Maximum number of vectors a block of this width holds (`W × 64`).
    #[must_use]
    pub const fn capacity() -> u32 {
        (W * 64) as u32
    }

    /// An empty scratch block over `n` lines (count 0), ready to be filled
    /// by [`WideBlock::copy_from`] or [`BlockSource::next_block`].
    #[must_use]
    pub fn zeroed(n: usize) -> Self {
        Self {
            lanes: vec![[0u64; W]; n],
            count: 0,
        }
    }

    /// Builds a block from up to `W × 64` input vectors (all of length `n`).
    ///
    /// Generic over the vector packing: [`sortnet_combinat::BitString`]
    /// for the historical `n ≤ 64` path, [`sortnet_combinat::ChannelVec`]
    /// (or any other [`ChannelPack`]) for multi-word channels — the lane
    /// table is indexed by line, so a block scales to any `n` without a
    /// representation change.
    ///
    /// # Panics
    /// Panics if `inputs` is empty, longer than `W × 64`, or the lengths are
    /// inconsistent with `n`.
    #[must_use]
    pub fn from_strings<P: ChannelPack>(n: usize, inputs: &[P]) -> Self {
        assert!(
            !inputs.is_empty() && inputs.len() <= W * 64,
            "block must hold 1..={} vectors",
            W * 64
        );
        let mut block = Self::zeroed(n);
        block.fill_from_strings(inputs);
        block
    }

    /// Overwrites the block with `inputs` (count becomes `inputs.len()`).
    ///
    /// Word-level packing: for each group of 64 vectors (lane word `w`)
    /// and each channel word `k`, the 64 vectors' words `k` form a 64×64
    /// bit matrix whose transpose is exactly lane rows `64k..64k + 64` of
    /// word `w`.  A chunk of at most 32, 16 or 8 lines transposes only
    /// those lanes ([`transpose_rows`]); `ChannelPack::word` keeps bits
    /// past the length zero, as the live-lane rounds need.  Missing
    /// vectors are zero rows, so every lane bit past `inputs.len()` is
    /// zero.
    fn fill_from_strings<P: ChannelPack>(&mut self, inputs: &[P]) {
        let n = self.lanes.len();
        for s in inputs {
            assert_eq!(s.len(), n, "input length mismatch");
        }
        let mut rows = [0u64; 64];
        for w in 0..W {
            let group = inputs.get(w * 64..).unwrap_or_default();
            let group = &group[..group.len().min(64)];
            for (k, lanes) in self.lanes.chunks_mut(64).enumerate() {
                for (row, s) in rows.iter_mut().zip(group) {
                    *row = s.word(k);
                }
                rows[group.len()..].fill(0);
                transpose_rows(&mut rows, lanes.len());
                for (lane, &row) in lanes.iter_mut().zip(&rows) {
                    lane[w] = row;
                }
            }
        }
        self.count = inputs.len() as u32;
    }

    /// Overwrites the block with the next up-to-`W × 64` one-word vectors
    /// of `words` and returns how many it took.  Each group of 64 words is
    /// already the row set of the 64×64 transpose, so no vector is built.
    /// Each word is masked to its `n` line bits first: a stray bit past
    /// the line count would otherwise be folded into a live lane by the
    /// live-lane rounds of [`transpose_rows`].
    fn fill_from_words(&mut self, words: &mut impl Iterator<Item = u64>) -> u32 {
        let n = self.lanes.len();
        let line_bits = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut rows = [0u64; 64];
        let mut count = 0u32;
        for w in 0..W {
            let mut taken = 0;
            if count as usize == w * 64 {
                for (row, word) in rows.iter_mut().zip(words.by_ref()) {
                    *row = word & line_bits;
                    taken += 1;
                }
            }
            if taken == 0 {
                for lane in &mut self.lanes {
                    lane[w] = 0;
                }
                continue;
            }
            rows[taken..].fill(0);
            transpose_rows(&mut rows, n);
            for (lane, &row) in self.lanes.iter_mut().zip(&rows) {
                lane[w] = row;
            }
            count += taken as u32;
        }
        self.count = count;
        count
    }

    /// Builds the block containing the `count` consecutive binary vectors
    /// starting at word value `start` (vector `j` of the block is the string
    /// whose packed word is `start + j`).
    ///
    /// When `start` is 64-aligned (as every block of an exhaustive sweep
    /// is), the fill is counting patterns — O(`n·W`) words, no per-vector
    /// loop.
    ///
    /// # Panics
    /// Panics if `count` is 0 or exceeds `W × 64`.
    #[must_use]
    pub fn from_range(n: usize, start: u64, count: u32) -> Self {
        assert!(
            (1..=Self::capacity()).contains(&count),
            "block must hold 1..={} vectors",
            W * 64
        );
        let mut block = Self::zeroed(n);
        block.fill_from_range(start, count);
        block
    }

    /// Overwrites the block with the `count` consecutive vectors starting
    /// at `start`.
    fn fill_from_range(&mut self, start: u64, count: u32) {
        for w in 0..W {
            let base = start + (w as u64) * 64;
            let in_word = count.saturating_sub((w * 64) as u32).min(64);
            let live = if in_word == 64 {
                u64::MAX
            } else {
                (1u64 << in_word) - 1
            };
            if in_word == 0 {
                for lane in &mut self.lanes {
                    lane[w] = 0;
                }
            } else if base.is_multiple_of(64) {
                // Counting patterns: adding j < 64 to a 64-aligned base
                // never carries past bit 5, so lane i < 6 is a constant and
                // lane i ≥ 6 is a broadcast of bit i of `base`.  Lanes
                // i ≥ 64 exist on multi-word-channel networks; the start
                // value is a single word, so those lines are always 0 (a
                // raw `base >> i` would be an overflowing shift).
                for (i, lane) in self.lanes.iter_mut().enumerate() {
                    let bits = if i < 6 {
                        COUNT_PATTERNS[i]
                    } else if i < 64 && (base >> i) & 1 == 1 {
                        u64::MAX
                    } else {
                        0
                    };
                    lane[w] = bits & live;
                }
            } else {
                for (i, lane) in self.lanes.iter_mut().enumerate() {
                    let mut bits = 0u64;
                    if i < 64 {
                        for j in 0..u64::from(in_word) {
                            if ((base + j) >> i) & 1 == 1 {
                                bits |= 1 << j;
                            }
                        }
                    }
                    lane[w] = bits;
                }
            }
        }
        self.count = count;
    }

    /// Number of vectors in the block.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Number of network lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lanes.len()
    }

    /// Per-word bitmasks with one set bit per vector actually present.
    #[must_use]
    pub fn live_masks(&self) -> [u64; W] {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            let cnt = self.count.saturating_sub((w * 64) as u32).min(64);
            *word = if cnt == 64 {
                u64::MAX
            } else {
                (1u64 << cnt) - 1
            };
        }
        m
    }

    /// Overwrites this block's lanes and count with `other`'s, reusing the
    /// existing allocation — the cheap "fork from a shared prefix"
    /// primitive used by the fault-simulation engine.
    ///
    /// # Panics
    /// Panics if the two blocks have different line counts.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.lanes.len(), other.lanes.len(), "line count mismatch");
        self.lanes.copy_from_slice(&other.lanes);
        self.count = other.count;
    }

    /// Applies one comparator across all lanes on `backend`: the AND of
    /// the two lanes (the minima) is routed to `min_to`, the OR (the
    /// maxima) to `max_to`.  The lines need not be ordered, so this also
    /// evaluates non-standard (inverted) comparators.
    ///
    /// # Panics
    /// Panics if either line is out of range or the lines coincide.
    #[inline]
    pub fn apply_comparator_with(&mut self, backend: Backend, min_to: usize, max_to: usize) {
        assert_ne!(min_to, max_to, "a comparator needs two distinct lines");
        let mut a = self.lanes[min_to];
        let mut b = self.lanes[max_to];
        backend.compare_exchange(&mut a, &mut b);
        self.lanes[min_to] = a;
        self.lanes[max_to] = b;
    }

    /// Exchanges two lanes unconditionally (the lane-level form of a
    /// stuck-swapping comparator).
    #[inline]
    pub fn swap_lanes(&mut self, i: usize, j: usize) {
        self.lanes.swap(i, j);
    }

    /// Forces line `line` to the constant `value` across every vector of
    /// the block — the lane-level form of a stuck-at-0/1 wire segment.
    /// Combined with [`WideBlock::copy_from`], this is the prefix-fork
    /// injection primitive of the stuck-line fault universe: fork the
    /// fault-free prefix state, overwrite one lane, run the suffix.
    ///
    /// Bits beyond [`WideBlock::count`] are forced too; every mask consumer
    /// (`unsorted_masks_with`, the selection [`Check`]) intersects with
    /// [`WideBlock::live_masks`], so dead vectors stay invisible.
    ///
    /// # Panics
    /// Panics if `line` is out of range.
    #[inline]
    pub fn fill_lane(&mut self, line: usize, value: bool) {
        self.lanes[line] = if value { [u64::MAX; W] } else { [0u64; W] };
    }

    /// Complements line `line` in every vector of the block: the one fork
    /// that evaluates both stuck-at values of a wire segment at once (a
    /// vector whose line already holds `v` is unchanged by stuck-at-`v`,
    /// and every other vector sees exactly this flip).
    ///
    /// # Panics
    /// Panics if `line` is out of range.
    #[inline]
    pub fn invert_lane(&mut self, line: usize) {
        for word in &mut self.lanes[line] {
            *word = !*word;
        }
    }

    /// Rewrites the pair of lanes `(i, j)` through an arbitrary 64-lane
    /// bitwise transfer function, applied word by word — the escape hatch
    /// for behavioural fault models that are not expressible as a plain
    /// comparator.
    ///
    /// # Panics
    /// Panics if `i == j` or either line is out of range.
    #[inline]
    pub fn map_pair(&mut self, i: usize, j: usize, mut f: impl FnMut(u64, u64) -> (u64, u64)) {
        assert_ne!(i, j, "map_pair needs two distinct lines");
        for w in 0..W {
            let (a, b) = f(self.lanes[i][w], self.lanes[j][w]);
            self.lanes[i][w] = a;
            self.lanes[j][w] = b;
        }
    }

    /// Runs `network` over the block in place, on `backend`.
    pub fn run_with(&mut self, backend: Backend, network: &Network) {
        self.run_range_with(backend, network, 0, network.size());
    }

    /// Runs only comparators `start..end` of `network` over the block — the
    /// suffix-evaluation primitive behind shared-prefix fault forking.
    /// Dispatches once and evaluates the whole comparator range inside
    /// `backend`'s implementation.
    ///
    /// # Panics
    /// Panics if `start > end` or `end` exceeds the network size.
    pub fn run_range_with(
        &mut self,
        backend: Backend,
        network: &Network,
        start: usize,
        end: usize,
    ) {
        assert!(
            start <= end && end <= network.size(),
            "bad comparator range {start}..{end}"
        );
        backend.run_comparators(&mut self.lanes, &network.comparators()[start..end]);
    }

    /// Per-word bitmasks over the block's vectors, computed on `backend`:
    /// bit `j` of word `w` is set when the output for vector `w·64 + j` is
    /// **not** sorted.
    #[must_use]
    pub fn unsorted_masks_with(&self, backend: Backend) -> [u64; W] {
        // A 0/1 vector is sorted iff there is no i < j with lane_i = 1 and
        // lane_j = 0; each word's 64 vectors are checked independently.
        let mut unsorted = [0u64; W];
        backend.sorted_scan(&self.lanes, &mut unsorted);
        let live = self.live_masks();
        for w in 0..W {
            unsorted[w] &= live[w];
        }
        unsorted
    }

    /// Fused tail of a fault fork: runs comparators `start..end` and
    /// returns the **raw** sortedness masks of the result in one backend
    /// dispatch.  Bits past [`WideBlock::count`] are unspecified, so
    /// callers intersect with [`WideBlock::live_masks`] before consuming
    /// them (a sweep over many faults hoists that mask once per block).
    ///
    /// # Panics
    /// Panics if `start > end` or `end` exceeds the network size.
    #[must_use]
    pub fn run_range_scan_with(
        &mut self,
        backend: Backend,
        network: &Network,
        start: usize,
        end: usize,
    ) -> [u64; W] {
        assert!(
            start <= end && end <= network.size(),
            "bad comparator range {start}..{end}"
        );
        let mut unsorted = [0u64; W];
        backend.run_scan(
            &mut self.lanes,
            &network.comparators()[start..end],
            &mut unsorted,
        );
        unsorted
    }

    /// The words of output line `i` across the whole block.
    #[must_use]
    pub fn lane_words(&self, i: usize) -> [u64; W] {
        self.lanes[i]
    }

    /// Extracts vector `j` of the block into any [`ChannelPack`]
    /// packing: the one-vector form, for witnesses.
    ///
    /// # Panics
    /// Panics if `j ≥ count`, or if the block spans more lines than `P`
    /// holds (`BitString` holds 64).
    #[must_use]
    pub fn extract<P: ChannelPack>(&self, j: u32) -> P {
        assert!(j < self.count, "vector index out of range");
        let (w, bit) = ((j / 64) as usize, j % 64);
        P::assemble(self.lanes.len(), |i| (self.lanes[i][w] >> bit) & 1 == 1)
    }

    /// Appends every vector of the block to `out`, in block order: the
    /// bulk form of [`WideBlock::extract`].
    ///
    /// The inverse of the fill's word packing: for each lane word `w` and
    /// each group of 64 lines, the group's lane words form a 64×64 bit
    /// matrix (rows past the line count zero) whose transpose is channel
    /// word `k` of the word's 64 vectors.  A vector then costs
    /// `ceil(n/64)` words, not one call per line.
    ///
    /// # Panics
    /// Panics if the block spans more lines than `P` holds.
    pub fn extract_all<P: ChannelPack>(&self, out: &mut Vec<P>) {
        let n = self.lanes.len();
        let words = channel_words(n);
        let count = self.count as usize;
        let mut vectors = vec![0u64; 64 * words];
        let mut rows = [0u64; 64];
        out.reserve(count);
        for w in 0..count.div_ceil(64) {
            let live = (count - w * 64).min(64);
            for (k, lanes) in self.lanes.chunks(64).enumerate() {
                for (row, lane) in rows.iter_mut().zip(lanes) {
                    *row = lane[w];
                }
                rows[lanes.len()..].fill(0);
                transpose_live::<64>(&mut rows);
                for (j, &row) in rows[..live].iter().enumerate() {
                    vectors[j * words + k] = row;
                }
            }
            out.extend(
                vectors
                    .chunks_exact(words)
                    .take(live)
                    .map(|v| P::from_words(v, n)),
            );
        }
    }
}

/// Single-word (`W = 1`) convenience API, so the original
/// [`BitBlock`](crate::bitparallel::BitBlock) call sites read scalar `u64`
/// masks without indexing one-element arrays.
impl WideBlock<1> {
    /// Bitmask with one set bit per vector actually present in the block
    /// (bits `0..count`).
    #[must_use]
    pub fn live_mask(&self) -> u64 {
        self.live_masks()[0]
    }

    /// Returns, for output line `i`, the 64 output bits of the block.
    #[must_use]
    pub fn lane(&self, i: usize) -> u64 {
        self.lanes[i][0]
    }
}

/// `true` when any bit of a per-word violation mask is set.
#[must_use]
pub fn mask_any<const W: usize>(mask: &[u64; W]) -> bool {
    mask.iter().any(|&w| w != 0)
}

/// Index (within the block) of the first set bit of a per-word mask.
#[must_use]
pub fn mask_first<const W: usize>(mask: &[u64; W]) -> Option<u32> {
    mask.iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(w, word)| (w * 64) as u32 + word.trailing_zeros())
}

/// Total number of set bits of a per-word mask.
#[must_use]
pub fn mask_count<const W: usize>(mask: &[u64; W]) -> u32 {
    mask.iter().map(|w| w.count_ones()).sum()
}

/// A streaming generator of test-vector blocks: the representation the
/// paper's vector *families* travel in, instead of `Vec<BitString>`.
///
/// Implementations overwrite a caller-owned [`WideBlock`] (so the one
/// allocation is reused across the whole sweep) until the family is
/// exhausted.
pub trait BlockSource<const W: usize> {
    /// Number of network lines each vector has.
    fn lines(&self) -> usize;

    /// Fills `block` with the next up-to-`W×64` vectors of the family.
    ///
    /// Returns `false` (leaving `block` unspecified) when the family is
    /// exhausted.  A filled block always holds at least one vector.
    ///
    /// # Panics
    /// Panics if `block` was built for a different line count.
    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool;
}

impl<const W: usize, S: BlockSource<W> + ?Sized> BlockSource<W> for Box<S> {
    fn lines(&self) -> usize {
        (**self).lines()
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        (**self).next_block(block)
    }
}

/// The exhaustive family of all `2^n` binary vectors, generated directly in
/// transposed form by counting patterns (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct RangeSource {
    n: usize,
    next: u64,
    end: u64,
}

impl RangeSource {
    /// The full `2^n` sweep.
    ///
    /// # Panics
    /// Panics if `n ≥ 32` (a larger sweep would take > 4 G evaluations;
    /// callers wanting larger `n` should use the test-set verifiers
    /// instead).
    #[must_use]
    pub fn exhaustive(n: usize) -> Self {
        Self::try_exhaustive(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The full `2^n` sweep, refusing `n ≥ 32` with a typed error
    /// instead of a panic.
    ///
    /// # Errors
    /// [`EngineError::SweepTooLarge`] when `n ≥ 32`.
    pub fn try_exhaustive(n: usize) -> Result<Self, EngineError> {
        error::ensure_sweepable(n)?;
        Ok(Self::span(n, 0, 1u64 << n))
    }

    /// The vectors `start..end` of the `2^n` sweep: one contiguous span of
    /// it, for a caller that cuts the sweep into pieces.  A `start` on a
    /// block boundary keeps every block of the span the block the whole
    /// sweep would fill there.
    pub(crate) fn span(n: usize, start: u64, end: u64) -> Self {
        debug_assert!(n < 32 && start <= end && end <= 1u64 << n);
        Self {
            n,
            next: start,
            end,
        }
    }
}

impl<const W: usize> BlockSource<W> for RangeSource {
    fn lines(&self) -> usize {
        self.n
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        assert_eq!(block.lines(), self.n, "line count mismatch");
        if self.next >= self.end {
            return false;
        }
        let count = (self.end - self.next).min(u64::from(WideBlock::<W>::capacity())) as u32;
        block.fill_from_range(self.next, count);
        self.next += u64::from(count);
        true
    }
}

/// Block-filling adapter over any iterator of packed vectors: the bridge
/// from the `sortnet-combinat` generators (unsorted strings, low-weight
/// subset enumerations, half-sorted merge inputs, …) to transposed blocks.
///
/// The item type is any [`ChannelPack`]: `BitString` iterators drive the
/// historical `n ≤ 64` path, `ChannelVec` iterators the multi-word one.
pub struct IterSource<I: Iterator> {
    n: usize,
    iter: I,
    buf: Vec<I::Item>,
}

impl<I: Iterator + Clone> Clone for IterSource<I>
where
    I::Item: Clone,
{
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            iter: self.iter.clone(),
            buf: self.buf.clone(),
        }
    }
}

impl<I: Iterator + std::fmt::Debug> std::fmt::Debug for IterSource<I>
where
    I::Item: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterSource")
            .field("n", &self.n)
            .field("iter", &self.iter)
            .field("buf", &self.buf)
            .finish()
    }
}

impl<I: Iterator> IterSource<I>
where
    I::Item: ChannelPack,
{
    /// Wraps `iter`, whose items must all have length `n`.
    pub fn new(n: usize, iter: impl IntoIterator<IntoIter = I>) -> Self {
        Self {
            n,
            iter: iter.into_iter(),
            buf: Vec::new(),
        }
    }
}

impl<const W: usize, I: Iterator> BlockSource<W> for IterSource<I>
where
    I::Item: ChannelPack,
{
    fn lines(&self) -> usize {
        self.n
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        assert_eq!(block.lines(), self.n, "line count mismatch");
        self.buf.clear();
        self.buf
            .extend(self.iter.by_ref().take(WideBlock::<W>::capacity() as usize));
        if self.buf.is_empty() {
            return false;
        }
        block.fill_from_strings(&self.buf);
        true
    }
}

/// A block source over raw one-word vectors: each `u64` is one vector of
/// `n ≤ 64` lines, bit `i` holding line `i` (the
/// [`sortnet_combinat::BitString::word`] packing).  Each group of 64
/// words goes straight into the word transpose as its rows, so a
/// generator of packed words reaches the lanes with no `BitString`, no
/// buffer and no boxed iterator.
#[derive(Clone, Debug)]
pub struct WordSource<I> {
    n: usize,
    words: I,
}

impl<I: Iterator<Item = u64>> WordSource<I> {
    /// Streams `words`, each a vector of `n` lines (bits at or past `n`
    /// are ignored).
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn new(n: usize, words: impl IntoIterator<IntoIter = I>) -> Self {
        sortnet_combinat::check_n(n);
        Self {
            n,
            words: words.into_iter(),
        }
    }
}

impl<const W: usize, I: Iterator<Item = u64>> BlockSource<W> for WordSource<I> {
    fn lines(&self) -> usize {
        self.n
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        assert_eq!(block.lines(), self.n, "line count mismatch");
        block.fill_from_words(&mut self.words) > 0
    }
}

/// A block source borrowing a slice of packed vectors: each block is the
/// next up-to-`W×64` vectors of the slice, packed straight from it by the
/// same word transpose as [`IterSource`], with no buffer and no clones.
///
/// Block `b` of a slice of length `L` holds vectors
/// `b·W·64 .. min((b+1)·W·64, L)`, so only the last block is partial.
#[derive(Clone, Debug)]
pub struct SliceSource<'a, P> {
    n: usize,
    rest: &'a [P],
}

impl<'a, P: ChannelPack> SliceSource<'a, P> {
    /// Streams `vectors`, which must all have length `n` (a mismatch
    /// panics with `input length mismatch` when its block is filled).
    #[must_use]
    pub fn new(n: usize, vectors: &'a [P]) -> Self {
        Self { n, rest: vectors }
    }
}

impl<const W: usize, P: ChannelPack> BlockSource<W> for SliceSource<'_, P> {
    fn lines(&self) -> usize {
        self.n
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        assert_eq!(block.lines(), self.n, "line count mismatch");
        if self.rest.is_empty() {
            return false;
        }
        let take = self.rest.len().min(WideBlock::<W>::capacity() as usize);
        let (head, tail) = self.rest.split_at(take);
        block.fill_from_strings(head);
        self.rest = tail;
        true
    }
}

/// Concatenation of two block sources over the same line count: streams
/// every block of `first`, then every block of `second` — the combinator
/// candidate families are assembled from (the augmentation search in
/// `sortnet-testsets` chains a structured family ahead of a broader one so
/// greedy tie-breaks prefer the structured candidates).
///
/// A block in the middle of the chained stream may be *partial* (the last
/// block of `first` holds however many vectors that family had left), so
/// consumers must index vectors by cumulative count, not by
/// `block × capacity`.
#[derive(Clone, Debug)]
pub struct ChainSource<A, B> {
    first: A,
    second: B,
    on_second: bool,
}

impl<A, B> ChainSource<A, B> {
    /// Chains `first` and `second`.
    ///
    /// The two sources must agree on the line count; the mismatch is
    /// reported at [`BlockSource::next_block`] time (the constructor is
    /// width-agnostic and cannot call the trait accessor).
    pub fn new(first: A, second: B) -> Self {
        Self {
            first,
            second,
            on_second: false,
        }
    }
}

impl<const W: usize, A: BlockSource<W>, B: BlockSource<W>> BlockSource<W> for ChainSource<A, B> {
    fn lines(&self) -> usize {
        self.first.lines()
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        assert_eq!(
            self.first.lines(),
            self.second.lines(),
            "chained sources must agree on the line count"
        );
        if !self.on_second {
            if self.first.next_block(block) {
                return true;
            }
            self.on_second = true;
        }
        self.second.next_block(block)
    }
}

/// The property question a sweep asks of every input vector, answered a
/// block at a time.
///
/// Sorting and merging ask that every output be sorted; `(k, n)`-selection
/// asks that the first `k` outputs equal those of a known-good reference
/// sorter on the same inputs (Batcher's merge-exchange network, itself
/// certified by the exhaustive sorted check in this crate's tests).
#[derive(Clone, Debug)]
pub enum Check<'a> {
    /// Every output of the network is sorted.
    Sorted(&'a Network),
    /// The first `k` outputs of `network` equal those of `reference`, a
    /// sorter on the same lines; build it with [`Check::selected`].
    Selected {
        /// The network under test.
        network: &'a Network,
        /// The reference sorter, built once per check.
        reference: Network,
        /// Number of leading outputs that must be correct.
        k: usize,
    },
}

impl<'a> Check<'a> {
    /// The `(k, n)`-selection check of `network`, with its reference
    /// sorter.
    ///
    /// # Panics
    /// Panics if `k` exceeds the line count.
    #[must_use]
    pub fn selected(network: &'a Network, k: usize) -> Self {
        assert!(k <= network.lines(), "k = {k} exceeds the line count");
        Self::Selected {
            network,
            reference: odd_even_merge_sort(network.lines()),
            k,
        }
    }

    /// The network under test.
    pub(crate) fn network(&self) -> &'a Network {
        match self {
            Self::Sorted(network) | Self::Selected { network, .. } => network,
        }
    }

    /// Evaluates a copy of `input` in `out` (and, for selection, one in
    /// `sorted`) on `backend` and returns the per-word masks of the live
    /// vectors that violate the check.
    pub(crate) fn violations<const W: usize>(
        &self,
        backend: Backend,
        input: &WideBlock<W>,
        out: &mut WideBlock<W>,
        sorted: &mut WideBlock<W>,
    ) -> [u64; W] {
        out.copy_from(input);
        out.run_with(backend, self.network());
        let Self::Selected { reference, k, .. } = self else {
            return out.unsorted_masks_with(backend);
        };
        sorted.copy_from(input);
        sorted.run_with(backend, reference);
        let mut wrong = [0u64; W];
        backend.diff_scan(&out.lanes[..*k], &sorted.lanes[..*k], &mut wrong);
        let live = input.live_masks();
        for w in 0..W {
            wrong[w] &= live[w];
        }
        wrong
    }
}

/// The one metered block loop: streams `source` under `meter`, runs
/// `check` over each admitted block on `backend`, and hands the input
/// block with its violation masks to `gather` until the source runs dry,
/// the meter refuses a block or `gather` breaks.
///
/// The meter is consulted once per block.  A refusal abandons the stream,
/// so `gather` has seen exactly the committed blocks, and
/// [`BudgetMeter::finish`] turns the caller's result into
/// [`Budgeted::Partial`](crate::Budgeted::Partial).
pub(crate) fn sweep_blocks<const W: usize, S: BlockSource<W>>(
    mut source: S,
    check: &Check<'_>,
    backend: Backend,
    meter: &mut BudgetMeter,
    mut gather: impl FnMut(&WideBlock<W>, &[u64; W]) -> ControlFlow<()>,
) {
    let n = source.lines();
    let [mut input, mut out, mut sorted] = [(); 3].map(|()| WideBlock::<W>::zeroed(n));
    while source.next_block(&mut input) && meter.admit_block(u64::from(input.count())) {
        let mask = check.violations(backend, &input, &mut out, &mut sorted);
        if gather(&input, &mask).is_break() {
            break;
        }
    }
}

/// Outcome of a [`sweep_find`] run, with the witness in packing `P`
/// ([`sortnet_combinat::BitString`], or [`sortnet_combinat::ChannelVec`]
/// past 64 lines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOutcome<P> {
    /// Number of vectors evaluated before the sweep stopped (all of them on
    /// a pass; everything up to and including the failing block otherwise).
    pub tests_run: u64,
    /// The first violating *input* vector, in source order, if any.
    pub witness: Option<P>,
}

/// Streams `source` through `check` on `backend` under `meter` and reports
/// the first input vector that violates it, extracted into any
/// [`ChannelPack`] packing `P` — the sweep behind every test-set verifier,
/// the merger oracle and the spot check.
///
/// The meter is consulted once per block.  A trip abandons the stream; the
/// outcome then covers exactly the committed blocks (no witness was found
/// in them — had one been found, the sweep would have returned it already),
/// and [`BudgetMeter::finish`] turns it into
/// [`Budgeted::Partial`](crate::Budgeted::Partial).  Unbudgeted callers
/// pass [`BudgetMeter::unlimited`].
///
/// # Errors
/// [`EngineError::ChannelMismatch`] when `source` and the checked network
/// disagree on the line count, in either direction.
pub fn sweep_find<const W: usize, P: ChannelPack, S: BlockSource<W>>(
    source: S,
    check: &Check<'_>,
    backend: Backend,
    meter: &mut BudgetMeter,
) -> Result<SweepOutcome<P>, EngineError> {
    error::ensure_same_lines(check.network().lines(), source.lines())?;
    let mut outcome = SweepOutcome {
        tests_run: 0,
        witness: None,
    };
    sweep_blocks(source, check, backend, meter, |input, mask| {
        outcome.tests_run += u64::from(input.count());
        outcome.witness = mask_first(mask).map(|j| input.extract(j));
        if outcome.witness.is_some() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    Ok(outcome)
}

/// Drains a source into a materialised `Vec` of any [`ChannelPack`]
/// packing — the adapter the `Vec`-returning test-set constructors
/// delegate to.
#[must_use]
pub fn collect_packed<const W: usize, P: ChannelPack, S: BlockSource<W>>(mut source: S) -> Vec<P> {
    let mut block = WideBlock::<W>::zeroed(source.lines());
    let mut out = Vec::new();
    while source.next_block(&mut block) {
        block.extract_all(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budgeted;
    use crate::builders::batcher::odd_even_merge_sort;
    use sortnet_combinat::BitString;

    #[test]
    fn live_lane_transpose_matches_the_per_bit_reference_at_every_row_width() {
        // Rows of `lines` bits (every column past it zero), including all
        // zeros, all ones and a SplitMix64 stream: output row `c < lines`
        // must hold bit `c` of every input row, whichever round shape the
        // width selects.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for lines in 1..=64usize {
            let line_bits = if lines == 64 {
                u64::MAX
            } else {
                (1u64 << lines) - 1
            };
            for fill in 0..4 {
                let input: [u64; 64] = std::array::from_fn(|r| match fill {
                    0 => 0,
                    1 => line_bits,
                    // A ragged last group: rows past 37 are missing vectors.
                    2 if r >= 37 => 0,
                    _ => next() & line_bits,
                });
                let mut rows = input;
                transpose_rows(&mut rows, lines);
                for (c, &row) in rows.iter().enumerate().take(lines) {
                    let expected = input
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (r, &word)| acc | (((word >> c) & 1) << r));
                    assert_eq!(row, expected, "lines={lines} fill={fill} row {c}");
                }
            }
        }
    }

    #[test]
    fn from_range_counting_patterns_match_from_strings() {
        for n in [3usize, 7, 9] {
            let all: Vec<BitString> = BitString::all(n).collect();
            for (start, count) in [(0u64, 1u32), (0, 64), (64, 64), (0, 65), (5, 37), (64, 100)] {
                if start >= all.len() as u64 {
                    continue;
                }
                let count = count.min((all.len() as u64 - start) as u32);
                let chunk = &all[start as usize..start as usize + count as usize];
                assert_eq!(
                    WideBlock::<2>::from_range(n, start, count),
                    WideBlock::<2>::from_strings(n, chunk),
                    "n={n} start={start} count={count}"
                );
            }
        }
    }

    #[test]
    fn wide_run_matches_scalar_evaluation_across_widths() {
        let net = odd_even_merge_sort(5);
        let inputs: Vec<BitString> = BitString::all(5).collect();
        fn check<const W: usize>(net: &Network, inputs: &[BitString]) {
            for backend in Backend::runnable() {
                let mut block = WideBlock::<W>::from_strings(5, inputs);
                block.run_with(backend, net);
                for (j, input) in inputs.iter().enumerate() {
                    let case = format!("W={W} {}", backend.name());
                    assert_eq!(
                        block.extract::<BitString>(j as u32),
                        net.apply_bits(input),
                        "{case}"
                    );
                }
                assert_eq!(mask_count(&block.unsorted_masks_with(backend)), 0);
            }
        }
        check::<1>(&net, &inputs[..20]);
        check::<1>(&net, &inputs);
        check::<2>(&net, &inputs);
        check::<4>(&net, &inputs);
    }

    #[test]
    fn unsorted_masks_span_word_boundaries() {
        let net = Network::empty(7);
        let expected: u32 = BitString::all(7)
            .take(128)
            .map(|s| u32::from(!s.is_sorted()))
            .sum();
        let scalar_first = BitString::all(7).position(|s| !s.is_sorted()).unwrap();
        for backend in Backend::runnable() {
            let mut block = WideBlock::<2>::from_range(7, 0, 128);
            block.run_with(backend, &net);
            let masks = block.unsorted_masks_with(backend);
            assert_eq!(mask_count(&masks), expected, "{}", backend.name());
            let first = mask_first(&masks).unwrap();
            assert_eq!(first as usize, scalar_first, "{}", backend.name());
            assert!(mask_any(&masks));
        }
    }

    #[test]
    fn range_source_streams_the_exhaustive_family_in_order() {
        let mut source = RangeSource::exhaustive(9);
        let mut block = WideBlock::<4>::zeroed(9);
        let mut seen = Vec::new();
        while BlockSource::<4>::next_block(&mut source, &mut block) {
            seen.extend((0..block.count()).map(|j| block.extract::<BitString>(j)));
        }
        let expected: Vec<BitString> = BitString::all(9).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn iter_source_agrees_with_its_iterator() {
        let collected =
            collect_packed::<2, BitString, _>(IterSource::new(6, BitString::all_unsorted(6)));
        let expected: Vec<BitString> = BitString::all_unsorted(6).collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn slice_source_over_an_empty_slice_yields_no_block() {
        let mut empty = SliceSource::<BitString>::new(6, &[]);
        assert_eq!(BlockSource::<1>::lines(&empty), 6);
        let mut block = WideBlock::<1>::zeroed(6);
        assert!(!BlockSource::<1>::next_block(&mut empty, &mut block));
    }

    #[test]
    fn chain_source_streams_both_families_in_order() {
        // Sorted strings ahead of the unsorted family: the chain must yield
        // the exact concatenation, including across the partial block the
        // first family ends on.
        let n = 6usize;
        let sorted = (0..=n).map(|ones| BitString::sorted_with(n - ones, ones));
        let chain = ChainSource::new(
            IterSource::new(n, sorted.clone()),
            IterSource::new(n, BitString::all_unsorted(n)),
        );
        let collected = collect_packed::<1, BitString, _>(chain);
        let expected: Vec<BitString> = sorted.chain(BitString::all_unsorted(n)).collect();
        assert_eq!(collected, expected);
        // The first family ends mid-block (7 < 64), so the chained stream
        // contains a partial block followed by full ones.
        let mut source = ChainSource::new(
            IterSource::new(
                n,
                (0..=n).map(|ones| BitString::sorted_with(n - ones, ones)),
            ),
            RangeSource::exhaustive(n),
        );
        let mut block = WideBlock::<1>::zeroed(n);
        assert!(BlockSource::<1>::next_block(&mut source, &mut block));
        assert_eq!(block.count(), 7, "first family's partial block");
        assert!(BlockSource::<1>::next_block(&mut source, &mut block));
        assert_eq!(block.count(), 64, "second family restarts full");
        assert_eq!(block.extract::<BitString>(0), BitString::zeros(n));
    }

    #[test]
    #[should_panic(expected = "line count")]
    fn chain_source_rejects_mismatched_line_counts() {
        let mut source = ChainSource::new(RangeSource::exhaustive(4), RangeSource::exhaustive(5));
        let mut block = WideBlock::<1>::zeroed(4);
        while BlockSource::<1>::next_block(&mut source, &mut block) {}
    }

    #[test]
    fn sweep_find_reports_the_first_violation_in_source_order() {
        let net = Network::empty(6);
        let backend = Backend::Scalar;
        let outcome: SweepOutcome<BitString> = sweep_find::<2, _, _>(
            IterSource::new(6, BitString::all(6)),
            &Check::Sorted(&net),
            backend,
            &mut BudgetMeter::unlimited(),
        )
        .unwrap();
        let scalar_first = BitString::all(6).find(|s| !s.is_sorted()).unwrap();
        assert_eq!(outcome.witness, Some(scalar_first));
        // The sorter passes the same sweep and counts every vector.
        let sorter = odd_even_merge_sort(6);
        let outcome: SweepOutcome<BitString> = sweep_find::<2, _, _>(
            RangeSource::exhaustive(6),
            &Check::Sorted(&sorter),
            backend,
            &mut BudgetMeter::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.witness, None);
        assert_eq!(outcome.tests_run, 64);
    }

    #[test]
    fn selected_check_matches_the_scalar_definition_on_every_backend() {
        // The first k outputs must carry the k smallest input bits: output
        // i < k is 0 exactly when i < |input|₀.
        let n = 7usize;
        let inputs: Vec<BitString> = BitString::all(n).collect();
        let mut sampler = crate::random::NetworkSampler::new(27);
        for size in [0usize, 4, 9, 16] {
            let net = sampler.network(n, size);
            for k in 0..=n {
                let check = Check::selected(&net, k);
                let wrong = |s: &BitString| {
                    let (out, zeros) = (net.apply_bits(s), s.count_zeros());
                    (0..k).any(|i| out.get(i) != (i >= zeros))
                };
                for backend in Backend::runnable() {
                    let input = WideBlock::<2>::from_strings(n, &inputs);
                    let [mut out, mut sorted] = [(); 2].map(|()| WideBlock::<2>::zeroed(n));
                    let mask = check.violations(backend, &input, &mut out, &mut sorted);
                    for (j, s) in inputs.iter().enumerate() {
                        let flagged = (mask[j / 64] >> (j % 64)) & 1 == 1;
                        assert_eq!(flagged, wrong(s), "{net} k={k} {s} {}", backend.name());
                    }
                }
            }
        }
    }

    #[test]
    fn try_exhaustive_refuses_oversized_sweeps_with_a_typed_error() {
        assert!(RangeSource::try_exhaustive(10).is_ok());
        assert_eq!(
            RangeSource::try_exhaustive(32).unwrap_err(),
            EngineError::SweepTooLarge { lines: 32 }
        );
    }

    /// The sorted check over `n`-line exhaustive inputs through a 4-line
    /// Batcher sorter, on the scalar backend.
    fn sweep_sorter4(n: usize) -> Result<SweepOutcome<BitString>, EngineError> {
        sweep_find::<4, BitString, _>(
            RangeSource::exhaustive(n),
            &Check::Sorted(&odd_even_merge_sort(4)),
            Backend::Scalar,
            &mut BudgetMeter::unlimited(),
        )
    }

    #[test]
    fn sweep_find_rejects_a_source_wider_than_the_network() {
        // Without the check, the sorter sees only the low 4 lines of each
        // 5-line input and rejects a correct network with witness 10000.
        assert_eq!(
            sweep_sorter4(5).unwrap_err(),
            EngineError::ChannelMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn sweep_find_rejects_a_source_narrower_than_the_network() {
        // Without the check, the kernel indexes lane 3 of a 3-lane block
        // and panics.
        assert_eq!(
            sweep_sorter4(3).unwrap_err(),
            EngineError::ChannelMismatch {
                expected: 4,
                actual: 3
            }
        );
        let ok = sweep_sorter4(4).unwrap();
        assert_eq!(ok.witness, None);
        assert_eq!(ok.tests_run, 16);
    }

    #[test]
    fn budgeted_sweep_trips_at_the_block_cap_with_an_exact_prefix() {
        // 2^9 inputs at W = 1 is 8 blocks; a 3-block budget must commit
        // exactly 192 vectors and report Partial.
        let sorter = odd_even_merge_sort(9);
        let sweep = |budget: &SweepBudget| {
            let mut meter = BudgetMeter::new(budget);
            let outcome: SweepOutcome<BitString> = sweep_find::<1, _, _>(
                RangeSource::exhaustive(9),
                &Check::Sorted(&sorter),
                Backend::Scalar,
                &mut meter,
            )
            .unwrap();
            meter.finish(outcome)
        };
        match sweep(&SweepBudget::unlimited().with_max_blocks(3)) {
            Budgeted::Partial {
                progress,
                best_so_far,
                ..
            } => {
                assert_eq!(progress.blocks, 3);
                assert_eq!(progress.vectors, 192);
                assert_eq!(best_so_far.tests_run, 192);
                assert_eq!(best_so_far.witness, None);
            }
            Budgeted::Complete(_) => panic!("a 3-block budget cannot cover 8 blocks"),
        }
        // An unlimited budget is the unbudgeted sweep.
        let full = sweep(&SweepBudget::unlimited());
        assert!(full.is_complete());
        assert_eq!(full.value().tests_run, 512);
    }

    #[test]
    fn budgeted_sweep_still_reports_witnesses_inside_the_budget() {
        let non_sorter = Network::empty(6);
        let mut meter = BudgetMeter::new(&SweepBudget::unlimited().with_max_blocks(1));
        let outcome: SweepOutcome<BitString> = sweep_find::<1, _, _>(
            RangeSource::exhaustive(6),
            &Check::Sorted(&non_sorter),
            Backend::Scalar,
            &mut meter,
        )
        .unwrap();
        let outcome = meter.finish(outcome);
        // The first violation sits in block 0, inside the budget: the
        // sweep completes early with the witness.
        assert!(outcome.is_complete());
        let scalar_first = BitString::all(6).find(|s| !s.is_sorted()).unwrap();
        assert_eq!(outcome.value().witness, Some(scalar_first));
    }

    #[test]
    fn fill_lane_forces_the_line_in_every_vector() {
        let mut block = WideBlock::<2>::from_range(5, 0, 32);
        block.fill_lane(1, true);
        block.fill_lane(3, false);
        for j in 0..32u32 {
            let s = block.extract::<BitString>(j);
            assert!(s.get(1), "vector {j}");
            assert!(!s.get(3), "vector {j}");
            // Untouched lanes keep the counting-pattern value.
            assert_eq!(s.get(0), (j & 1) == 1, "vector {j}");
        }
        // Forced bits beyond count stay invisible to the mask consumers.
        let mut partial = WideBlock::<1>::from_range(3, 0, 4);
        partial.fill_lane(0, true);
        assert_eq!(
            partial.unsorted_masks_with(Backend::Scalar)[0] & !partial.live_mask(),
            0
        );
    }

    #[test]
    fn lane_width_enum_matches_const_widths() {
        assert_eq!(LaneWidth::W1.words(), 1);
        assert_eq!(LaneWidth::W2.vectors_per_block(), 128);
        assert_eq!(LaneWidth::W4.words(), DEFAULT_WIDTH);
        assert_eq!(LaneWidth::W8.vectors_per_block(), 512);
        assert_eq!(LaneWidth::W16.vectors_per_block(), 1024);
        assert_eq!(WideBlock::<8>::capacity(), 512);
        assert_eq!(WideBlock::<16>::capacity(), 1024);
        assert!(LaneWidth::ALL
            .windows(2)
            .all(|p| p[0].words() < p[1].words()));
    }

    #[test]
    fn every_backend_runs_a_network_identically_at_wide_widths() {
        let net = odd_even_merge_sort(6);
        for backend in Backend::runnable() {
            fn check<const W: usize>(net: &Network, backend: Backend) {
                let mut block = WideBlock::<W>::from_range(6, 0, 64);
                block.run_with(backend, net);
                let mut reference = WideBlock::<W>::from_range(6, 0, 64);
                reference.run_with(Backend::Scalar, net);
                assert_eq!(block, reference, "{} W={W}", backend.name());
                assert_eq!(
                    block.unsorted_masks_with(backend),
                    reference.unsorted_masks_with(Backend::Scalar),
                    "{} W={W}",
                    backend.name()
                );
            }
            check::<1>(&net, backend);
            check::<4>(&net, backend);
            check::<8>(&net, backend);
            check::<16>(&net, backend);
        }
    }

    // ------------------------------------------------------------------
    // Multi-word channel (n > 64) boundary audit — the PR 5 n ∈ {63, 64}
    // word-boundary audit, one channel word up.
    // ------------------------------------------------------------------

    use sortnet_combinat::ChannelVec;

    #[test]
    fn packed_fill_and_extract_round_trip_across_channel_words() {
        for n in [63usize, 64, 65, 96, 127, 128] {
            let inputs: Vec<ChannelVec> = (0..100u64)
                .map(|v| {
                    ChannelVec::from_fn(n, |i| {
                        (v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32)) & 1 == 1
                    })
                })
                .collect();
            fn check<const W: usize>(n: usize, inputs: &[ChannelVec]) {
                let chunk = &inputs[..inputs.len().min(W * 64)];
                let block = WideBlock::<W>::from_strings(n, chunk);
                assert_eq!(block.lines(), n);
                for (j, input) in chunk.iter().enumerate() {
                    let got: ChannelVec = block.extract(j as u32);
                    assert_eq!(&got, input, "n={n} W={W} j={j}");
                }
            }
            check::<1>(n, &inputs);
            check::<2>(n, &inputs);
            check::<4>(n, &inputs);
        }
    }

    #[test]
    fn counting_fill_is_consistent_past_64_lines() {
        // On an n > 64 network the range start is still a single word, so
        // lanes 64.. must be all-zero — and, crucially, the fill must not
        // overflow-shift by the lane index.  Cross-check against the
        // explicit per-vector fill at both aligned and unaligned starts.
        for n in [63usize, 64, 65, 128] {
            for (start, count) in [(0u64, 64u32), (64, 64), (5, 37), (64, 100), (1, 128)] {
                let expected: Vec<ChannelVec> = (start..start + u64::from(count))
                    .map(|v| ChannelVec::from_words(&[v, 0], n.max(1)))
                    .collect();
                let range = WideBlock::<2>::from_range(n, start, count);
                let strings = WideBlock::<2>::from_strings(n, &expected);
                assert_eq!(range, strings, "n={n} start={start} count={count}");
            }
        }
    }

    #[test]
    fn network_run_matches_scalar_apply_past_64_lines() {
        // Comparators crossing the word-63/64 channel boundary, run through
        // the block engine on every backend, against a per-vector scalar
        // evaluation on Vec<u8>.
        let n = 96usize;
        let net = Network::from_pairs(
            n,
            &[
                (0, 95),
                (63, 64),
                (0, 1),
                (64, 65),
                (62, 63),
                (1, 94),
                (31, 65),
            ],
        );
        let inputs: Vec<ChannelVec> = (0..128u64)
            .map(|v| {
                ChannelVec::from_fn(n, |i| {
                    (v.wrapping_mul(0xA076_1D64_78BD_642F)
                        .rotate_left((i * 7) as u32))
                        & 1
                        == 1
                })
            })
            .collect();
        let reference: Vec<Vec<u8>> = inputs
            .iter()
            .map(|input| {
                let mut bits = input.to_vec();
                for c in net.comparators() {
                    let (i, j) = (c.top(), c.bottom());
                    if bits[i] > bits[j] {
                        bits.swap(i, j);
                    }
                }
                bits
            })
            .collect();
        for backend in Backend::runnable() {
            fn check<const W: usize>(
                net: &Network,
                inputs: &[ChannelVec],
                reference: &[Vec<u8>],
                backend: Backend,
            ) {
                let n = net.lines();
                for chunk_bounds in [(0, inputs.len().min(W * 64))] {
                    let chunk = &inputs[chunk_bounds.0..chunk_bounds.1];
                    let mut block = WideBlock::<W>::from_strings(n, chunk);
                    block.run_with(backend, net);
                    for (j, expected) in reference[..chunk.len()].iter().enumerate() {
                        let got: ChannelVec = block.extract(j as u32);
                        assert_eq!(&got.to_vec(), expected, "{} W={W} j={j}", backend.name());
                    }
                }
            }
            check::<1>(&net, &inputs, &reference, backend);
            check::<4>(&net, &inputs, &reference, backend);
        }
    }

    #[test]
    fn packed_sweep_finds_witnesses_past_64_lines() {
        // An identity network on 96 lines sorts nothing: the first unsorted
        // vector of the streamed family must come back as the witness, in
        // its multi-word packing.
        let n = 96usize;
        let net = Network::empty(n);
        let sorted: Vec<ChannelVec> = (0..=n)
            .map(|ones| ChannelVec::sorted_of(n - ones, ones))
            .collect();
        fn sweep<const W: usize>(
            net: &Network,
            family: Vec<ChannelVec>,
            backend: Backend,
        ) -> SweepOutcome<ChannelVec> {
            let source = IterSource::new(net.lines(), family);
            let check = Check::Sorted(net);
            sweep_find::<W, ChannelVec, _>(source, &check, backend, &mut BudgetMeter::unlimited())
                .unwrap()
        }
        let mut unsorted = ChannelVec::zeros(n);
        unsorted.set(64, true); // 1 at line 64, 0 at line 65: unsorted
        let family: Vec<ChannelVec> = sorted.iter().cloned().chain([unsorted.clone()]).collect();
        for backend in Backend::runnable() {
            let outcome = sweep::<4>(&net, sorted.clone(), backend);
            assert_eq!(outcome.tests_run, (n + 1) as u64);
            assert_eq!(outcome.witness, None, "sorted inputs pass the identity");
            let outcome = sweep::<2>(&net, family.clone(), backend);
            assert_eq!(
                outcome.witness,
                Some(unsorted.clone()),
                "{}",
                backend.name()
            );
        }
        // And a real sorter on 96 lines leaves the same family violation-free.
        let sorter = odd_even_merge_sort(n);
        let mixed: Vec<ChannelVec> = (0..64u64)
            .map(|v| {
                ChannelVec::from_fn(n, |i| {
                    (v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32)) & 1 == 1
                })
            })
            .collect();
        let outcome = sweep::<1>(&sorter, mixed, Backend::Scalar);
        assert_eq!(outcome.witness, None, "a Batcher sorter sorts all samples");
        assert_eq!(outcome.tests_run, 64);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn extracting_a_bitstring_witness_past_64_lines_panics_cleanly() {
        let block = WideBlock::<1>::from_strings(65, &[ChannelVec::zeros(65)]);
        let _ = block.extract::<BitString>(0);
    }
}
