//! Packed structured vector families: the [`FamilySource`] counterpart to
//! [`RangeSource`](super::RangeSource) for the families that stay
//! enumerable past the 64-line wall.
//!
//! [`RangeSource`](super::RangeSource) streams the *exhaustive* `2^n`
//! family and is therefore refused at `n ≥ 32`.  The paper's structured
//! families are polynomial in `n` and remain graded at the widths the
//! bounds actually target (wide merge/selection networks, 96+ lines):
//!
//! | family | size | contents |
//! |---|---|---|
//! | [`PackedFamily::SortedStrings`] | `n + 1` | `0^{n−t} 1^t` for every `t` |
//! | [`PackedFamily::WeightAtMost`]`(k)` | `Σ_{j≤k} C(n,j)` | all strings of weight ≤ `k` |
//! | [`PackedFamily::SingleRuns`] | `1 + n(n+1)/2` | all-zeros plus every single-run string |
//! | [`PackedFamily::NecessityWitnesses`] | `n − 1` | per weight, the sorted string with its 0/1 boundary pair swapped |
//!
//! Each family has a scalar per-index reference ([`PackedFamily::vector`],
//! generic over the [`ChannelPack`] packing) and a *direct block fill*:
//! [`FamilySource`] writes transposed lane words with range-mask arithmetic
//! (or, for the weight family, `O(k)` single-bit writes per vector) —
//! no per-vector string is ever materialised, exactly like the
//! counting-pattern fill of the exhaustive source.
//!
//! The necessity witnesses are the canonical Lemma 2.1 failure outputs
//! `0^{z−1} 1 0 1^{o−1}`: the minimal unsorted string of each weight,
//! i.e. the strings any test set must detect *some* representative of.

use std::marker::PhantomData;

use sortnet_combinat::{binomial_u128, ChannelPack};

use super::{collect_packed, BlockSource, WideBlock, DEFAULT_WIDTH};
use crate::error::EngineError;

/// A named structured vector family enumerable past the 64-line wall.
///
/// The name doubles as provenance: coverage reports grade redundancy
/// *relative to* a named family at widths where the exhaustive sweep is
/// inadmissible, and the wire protocol spells the variants exactly as
/// [`PackedFamily::parse`] accepts them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PackedFamily {
    /// The `n + 1` sorted strings `0^{n−t} 1^t`.
    SortedStrings,
    /// Every string of weight at most `k`, weight-ascending and in colex
    /// (Gosper) order within each weight — the enumeration order of
    /// `BitString::all_with_weight`.
    WeightAtMost(u32),
    /// The all-zeros string followed by every string whose ones form one
    /// contiguous run `[s, e]`, ordered by start then end.
    SingleRuns,
    /// For each weight `t ∈ 1..n`: the sorted string of weight `t` with
    /// the adjacent pair at its 0/1 boundary swapped (`0^{z−1} 1 0 1^{t−1}`,
    /// `z = n − t`) — the canonical Lemma 2.1 adversary failure outputs.
    NecessityWitnesses,
}

impl PackedFamily {
    /// The canonical spelling, used by reports, the wire protocol and the
    /// CLI (`relative:<name>`).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Self::SortedStrings => "sorted-strings".to_string(),
            Self::WeightAtMost(k) => format!("weight-le-{k}"),
            Self::SingleRuns => "single-runs".to_string(),
            Self::NecessityWitnesses => "necessity-witnesses".to_string(),
        }
    }

    /// Parses [`PackedFamily::name`] spellings (`sorted-strings`,
    /// `weight-le-<k>`, `single-runs`, `necessity-witnesses`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sorted-strings" => Some(Self::SortedStrings),
            "single-runs" => Some(Self::SingleRuns),
            "necessity-witnesses" => Some(Self::NecessityWitnesses),
            _ => s
                .strip_prefix("weight-le-")
                .and_then(|k| k.parse::<u32>().ok())
                .map(Self::WeightAtMost),
        }
    }

    /// Number of vectors in the family at length `n`, overflow-checked.
    ///
    /// # Errors
    /// [`EngineError::TooLarge`] when the count does not fit a `u64`
    /// (a weight-bounded family on a degenerate huge `n`).
    pub fn try_len(&self, n: usize) -> Result<u64, EngineError> {
        let too_large = || EngineError::TooLarge {
            what: "packed vector family",
        };
        match self {
            Self::SortedStrings => Ok(n as u64 + 1),
            Self::WeightAtMost(k) => {
                let k = (*k as usize).min(n);
                let mut total: u128 = 0;
                for j in 0..=k {
                    total = total
                        .checked_add(binomial_u128(n as u64, j as u64))
                        .ok_or_else(too_large)?;
                }
                u64::try_from(total).map_err(|_| too_large())
            }
            Self::SingleRuns => {
                let runs = (n as u64)
                    .checked_mul(n as u64 + 1)
                    .map(|r| r / 2)
                    .ok_or_else(too_large)?;
                runs.checked_add(1).ok_or_else(too_large)
            }
            Self::NecessityWitnesses => Ok((n as u64).saturating_sub(1)),
        }
    }

    /// [`PackedFamily::try_len`], panicking on overflow.
    ///
    /// # Panics
    /// Panics when the count does not fit a `u64`.
    #[must_use]
    pub fn len(&self, n: usize) -> u64 {
        self.try_len(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The `index`-th vector of the family at length `n`, assembled
    /// bit-by-bit — the scalar reference the direct block fill is graded
    /// against.
    ///
    /// # Panics
    /// Panics when `index ≥ len(n)`, or when the packing cannot hold `n`
    /// lines (`BitString` past 64).
    #[must_use]
    pub fn vector<P: ChannelPack>(&self, n: usize, index: u64) -> P {
        let len = self.len(n);
        assert!(index < len, "family index {index} out of range (len {len})");
        match self {
            Self::SortedStrings => {
                let t = index as usize;
                P::sorted_of(n - t, t)
            }
            Self::WeightAtMost(_) => {
                // Peel the weight groups, then colex-unrank within the
                // group via the combinadic.
                let mut rest = index as u128;
                let mut weight = 0usize;
                loop {
                    let group = binomial_u128(n as u64, weight as u64);
                    if rest < group {
                        break;
                    }
                    rest -= group;
                    weight += 1;
                }
                let mut members = vec![false; n];
                for i in (1..=weight).rev() {
                    // Largest c with C(c, i) <= rest.
                    let mut c = i - 1;
                    while binomial_u128((c + 1) as u64, i as u64) <= rest {
                        c += 1;
                    }
                    rest -= binomial_u128(c as u64, i as u64);
                    members[c] = true;
                }
                P::assemble(n, |i| members[i])
            }
            Self::SingleRuns => {
                if index == 0 {
                    return P::assemble(n, |_| false);
                }
                // Runs grouped by start s (each start has n - s runs).
                let mut v = index - 1;
                let mut s = 0usize;
                while v >= (n - s) as u64 {
                    v -= (n - s) as u64;
                    s += 1;
                }
                let e = s + v as usize;
                P::assemble(n, |i| (s..=e).contains(&i))
            }
            Self::NecessityWitnesses => {
                // index v -> weight t = v + 1, boundary z = n - t >= 1:
                // the sorted string 0^z 1^t with bits z-1 and z swapped.
                let z = n - 1 - index as usize;
                P::assemble(n, |i| i + 1 >= z && i != z)
            }
        }
    }

    /// Every vector of the family at length `n`, in enumeration order: a
    /// drain of [`FamilySource`]; sweeps should stream the source directly.
    ///
    /// # Panics
    /// As [`FamilySource::new`].
    #[must_use]
    pub fn collect<P: ChannelPack>(&self, n: usize) -> Vec<P> {
        collect_packed::<DEFAULT_WIDTH, P, _>(FamilySource::<P>::new(*self, n))
    }
}

impl std::fmt::Display for PackedFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// ORs the global index range `[lo, hi)` of a family, intersected with the
/// block window `[base, base + count)`, into one transposed lane.
fn or_index_range<const W: usize>(lane: &mut [u64; W], base: u64, count: u32, lo: u64, hi: u64) {
    let a = lo.max(base);
    let b = hi.min(base + u64::from(count));
    if a >= b {
        return;
    }
    let (rel_a, rel_b) = (a - base, b - base);
    let first = (rel_a / 64) as usize;
    let last = ((rel_b - 1) / 64) as usize;
    for (w, word) in lane.iter_mut().enumerate().take(last + 1).skip(first) {
        let word_lo = (w as u64) * 64;
        let lo_bit = rel_a.max(word_lo) - word_lo;
        let hi_bit = rel_b.min(word_lo + 64) - word_lo;
        let mask = if hi_bit - lo_bit == 64 {
            u64::MAX
        } else {
            ((1u64 << (hi_bit - lo_bit)) - 1) << lo_bit
        };
        *word |= mask;
    }
}

/// A [`BlockSource`] streaming a [`PackedFamily`] in transposed blocks by
/// direct lane-word fill — the structured-family counterpart to the
/// exhaustive [`RangeSource`](super::RangeSource).
///
/// Generic over the packing its per-vector accessors return:
/// `FamilySource<BitString>` is the `n ≤ 64` monomorphisation,
/// `FamilySource<ChannelVec>` carries the same families past the wall.
/// The block fill itself is packing-independent (lanes are indexed by
/// line), so both instantiations stream bit-identical blocks.
#[derive(Clone, Debug)]
pub struct FamilySource<P: ChannelPack> {
    family: PackedFamily,
    n: usize,
    next: u64,
    len: u64,
    /// Streaming state for [`PackedFamily::WeightAtMost`]: the positions
    /// of the *next* combination to emit, colex order within the current
    /// weight.
    comb: Vec<usize>,
    weight: usize,
    _pack: PhantomData<P>,
}

impl<P: ChannelPack> FamilySource<P> {
    /// A source streaming `family` at length `n`.
    ///
    /// # Panics
    /// Panics when the family size overflows (see
    /// [`FamilySource::try_new`]).
    #[must_use]
    pub fn new(family: PackedFamily, n: usize) -> Self {
        Self::try_new(family, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FamilySource::new`] with the size-overflow guard reported as a
    /// typed error.
    ///
    /// # Errors
    /// [`EngineError::TooLarge`] when the family count does not fit a
    /// `u64`.
    pub fn try_new(family: PackedFamily, n: usize) -> Result<Self, EngineError> {
        let len = family.try_len(n)?;
        Ok(Self {
            family,
            n,
            next: 0,
            len,
            comb: Vec::new(),
            weight: 0,
            _pack: PhantomData,
        })
    }

    /// The family being streamed.
    #[must_use]
    pub fn family(&self) -> PackedFamily {
        self.family
    }

    /// Total number of vectors the family holds.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the family holds no vectors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `index`-th vector — [`PackedFamily::vector`] at this source's
    /// length, independent of streaming position.
    ///
    /// # Panics
    /// As [`PackedFamily::vector`].
    #[must_use]
    pub fn vector(&self, index: u64) -> P {
        self.family.vector(self.n, index)
    }

    /// Advances `comb` to the next combination in colex order within the
    /// current weight; on exhaustion, moves to the next weight's first
    /// combination.
    fn advance_combination(&mut self) {
        let k = self.comb.len();
        for i in 0..k {
            let limit = if i + 1 < k { self.comb[i + 1] } else { self.n };
            if self.comb[i] + 1 < limit {
                self.comb[i] += 1;
                for (t, slot) in self.comb.iter_mut().enumerate().take(i) {
                    *slot = t;
                }
                return;
            }
        }
        self.weight += 1;
        self.comb = (0..self.weight).collect();
    }
}

impl<const W: usize, P: ChannelPack> BlockSource<W> for FamilySource<P> {
    fn lines(&self) -> usize {
        self.n
    }

    fn next_block(&mut self, block: &mut WideBlock<W>) -> bool {
        assert_eq!(block.lines(), self.n, "line count mismatch");
        if self.next >= self.len {
            return false;
        }
        let count = (self.len - self.next).min(u64::from(WideBlock::<W>::capacity())) as u32;
        let base = self.next;
        let n = self.n;
        for lane in &mut block.lanes {
            *lane = [0u64; W];
        }
        match self.family {
            PackedFamily::SortedStrings => {
                // Vector t is 0^{n-t} 1^t: lane i is set for t >= n - i,
                // one contiguous index range per lane.
                for (i, lane) in block.lanes.iter_mut().enumerate() {
                    or_index_range(lane, base, count, (n - i) as u64, n as u64 + 1);
                }
            }
            PackedFamily::WeightAtMost(_) => {
                // O(weight) single-bit writes per vector: the positions of
                // the streamed combination, no packed vector materialised.
                for j in 0..count {
                    let (w, bit) = ((j / 64) as usize, j % 64);
                    for &p in &self.comb {
                        block.lanes[p][w] |= 1u64 << bit;
                    }
                    self.advance_combination();
                }
            }
            PackedFamily::SingleRuns => {
                // The runs with start s are the index range [g, g + n - s),
                // g the index of run [s, s]; they cover lane i >= s for
                // every end e >= i, one contiguous index range per
                // (lane, start) pair.  Only the starts whose range meets
                // the block's window contribute.
                let end = base + u64::from(count);
                let mut g = 1u64;
                for s in 0..n {
                    if g >= end {
                        break;
                    }
                    let next = g + (n - s) as u64;
                    if next > base {
                        for (i, lane) in block.lanes.iter_mut().enumerate().skip(s) {
                            or_index_range(lane, base, count, g + (i - s) as u64, next);
                        }
                    }
                    g = next;
                }
            }
            PackedFamily::NecessityWitnesses => {
                // Witness v has boundary z = n - 1 - v: lane i is set for
                // v >= n - 2 - i except the single point v = n - 1 - i —
                // a contiguous range with one hole.
                for (i, lane) in block.lanes.iter_mut().enumerate() {
                    let lo = (n.saturating_sub(2).saturating_sub(i)) as u64;
                    let hole = (n - 1 - i.min(n - 1)) as u64;
                    let hi = (n - 1) as u64;
                    or_index_range(lane, base, count, lo, hole);
                    or_index_range(lane, base, count, hole + 1, hi);
                }
            }
        }
        block.count = count;
        self.next += u64::from(count);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_combinat::{BitString, ChannelVec};

    fn families(n: usize) -> Vec<PackedFamily> {
        vec![
            PackedFamily::SortedStrings,
            PackedFamily::WeightAtMost(2),
            PackedFamily::WeightAtMost(0),
            PackedFamily::SingleRuns,
            PackedFamily::NecessityWitnesses,
        ]
        .into_iter()
        .filter(|f| f.try_len(n).is_ok())
        .collect()
    }

    #[test]
    fn names_round_trip_through_parse() {
        for family in families(8) {
            assert_eq!(PackedFamily::parse(&family.name()), Some(family));
        }
        assert_eq!(
            PackedFamily::parse("weight-le-3"),
            Some(PackedFamily::WeightAtMost(3))
        );
        assert_eq!(PackedFamily::parse("weight-le-x"), None);
        assert_eq!(PackedFamily::parse("exhaustive"), None);
    }

    #[test]
    fn family_sizes_match_their_closed_forms() {
        for n in [0usize, 1, 2, 8, 63, 64, 65, 96] {
            assert_eq!(PackedFamily::SortedStrings.len(n), n as u64 + 1);
            assert_eq!(
                PackedFamily::SingleRuns.len(n),
                1 + (n * (n + 1) / 2) as u64
            );
            assert_eq!(
                PackedFamily::NecessityWitnesses.len(n),
                (n as u64).saturating_sub(1)
            );
            let w2 = PackedFamily::WeightAtMost(2).len(n);
            let expected = 1 + n as u64 + (n * n.saturating_sub(1) / 2) as u64;
            assert_eq!(w2, expected, "n={n}");
        }
    }

    #[test]
    fn scalar_vectors_have_the_advertised_shape() {
        let n = 9usize;
        // Sorted strings are sorted with ascending weight.
        for t in 0..=n as u64 {
            let v: BitString = PackedFamily::SortedStrings.vector(n, t);
            assert!(v.is_sorted());
            assert_eq!(v.count_ones() as u64, t);
        }
        // Weight family: weight-ascending, colex within weight, exactly
        // the Gosper enumeration per weight group.
        let fam = PackedFamily::WeightAtMost(3);
        let mut idx = 0u64;
        for weight in 0..=3usize {
            for reference in BitString::all_with_weight(n, weight) {
                let v: BitString = fam.vector(n, idx);
                assert_eq!(v, reference, "idx={idx}");
                idx += 1;
            }
        }
        assert_eq!(idx, fam.len(n));
        // Single runs: the zero vector, then one run per (s, e).
        let runs = PackedFamily::SingleRuns;
        assert_eq!(runs.vector::<BitString>(n, 0).count_ones(), 0);
        let mut idx = 1u64;
        for s in 0..n {
            for e in s..n {
                let v: BitString = runs.vector(n, idx);
                let expected = BitString::assemble(n, |i| (s..=e).contains(&i));
                assert_eq!(v, expected, "s={s} e={e}");
                idx += 1;
            }
        }
        // Necessity witnesses: unsorted, one interchange from sorted.
        for v in 0..PackedFamily::NecessityWitnesses.len(n) {
            let w: BitString = PackedFamily::NecessityWitnesses.vector(n, v);
            assert!(!w.is_sorted(), "v={v}");
            assert_eq!(w.count_ones() as u64, v + 1);
            let z = n - 1 - v as usize;
            assert!(w.get(z - 1) && !w.get(z));
        }
    }

    #[test]
    fn block_fill_matches_the_scalar_reference_across_widths() {
        // A drain extracts a block at a time by word transposes; every
        // vector must equal the family's unranked vector, at the channel
        // word seams and past them, on both packings.  At n = 1024 the
        // quadratic families are checked on a stride coprime to 64, so
        // every lane position and lane word is still visited.
        fn check<P: ChannelPack>(family: PackedFamily, n: usize) {
            let len = family.len(n);
            let stride = if len > 10_000 { 61 } else { 1 };
            let w1: Vec<P> = collect_packed::<1, _, _>(FamilySource::<P>::new(family, n));
            let w4: Vec<P> = family.collect(n);
            for (width, drained) in [("W=1", w1), ("W=4", w4)] {
                assert_eq!(drained.len() as u64, len, "{family} n={n} {width}");
                for (i, v) in drained.iter().enumerate().step_by(stride) {
                    let reference = family.vector::<P>(n, i as u64);
                    assert_eq!(*v, reference, "{family} n={n} {width} i={i}");
                }
            }
        }
        for n in [1usize, 2, 7, 63, 64, 65, 96, 130, 1024] {
            for family in families(n) {
                check::<ChannelVec>(family, n);
                if n <= 64 {
                    check::<BitString>(family, n);
                }
            }
        }
    }

    #[test]
    fn bitstring_and_channelvec_sources_agree_below_the_wall() {
        for n in [2usize, 9, 17] {
            for family in families(n) {
                let narrow: Vec<BitString> =
                    collect_packed::<2, _, _>(FamilySource::<BitString>::new(family, n));
                let wide: Vec<ChannelVec> =
                    collect_packed::<2, _, _>(FamilySource::<ChannelVec>::new(family, n));
                assert_eq!(narrow.len(), wide.len());
                for (a, b) in narrow.iter().zip(&wide) {
                    assert_eq!(a.to_string(), b.to_string(), "{family} n={n}");
                }
            }
        }
    }

    #[test]
    fn empty_families_stream_no_blocks() {
        let mut source = FamilySource::<ChannelVec>::new(PackedFamily::NecessityWitnesses, 1);
        assert!(source.is_empty());
        let mut block = WideBlock::<2>::zeroed(1);
        assert!(!BlockSource::next_block(&mut source, &mut block));
    }
}
