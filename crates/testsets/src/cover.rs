//! Covers — the bridge between permutation test sets and 0/1 test sets
//! (§2 of the paper).
//!
//! The *cover* of a permutation π is the set of binary strings obtained by
//! replacing the `t` largest values of π by 1 and the rest by 0, for every
//! `t`.  A set of permutations `P` can only be a test set for a property if
//! the cover of `P` is a test set for the 0/1 alphabet — and for the three
//! properties studied by the paper the converse holds too, which is how the
//! permutation bounds are derived.

use std::collections::HashSet;
use std::hash::Hash;

use sortnet_combinat::{ChannelPack, Permutation};

/// The cover of a set of permutations: the union of the individual
/// covers, deduplicated, in first-appearance order (the packings are not
/// all ordered, so no `BTreeSet` here; callers that want one collect into
/// it).
#[must_use]
pub fn cover_of_set<P: ChannelPack + Eq + Hash>(perms: &[Permutation]) -> Vec<P> {
    let mut seen: HashSet<P> = HashSet::new();
    let mut out = Vec::new();
    for s in perms.iter().flat_map(Permutation::cover::<P>) {
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    out
}

/// `true` iff some permutation in `perms` covers `target`.
#[must_use]
pub fn set_covers<P: ChannelPack>(perms: &[Permutation], target: &P) -> bool {
    perms.iter().any(|p| p.covers(target))
}

/// Returns the strings in `targets` that are *not* covered by any
/// permutation in `perms` (the witnesses that `perms` is not a test set).
#[must_use]
pub fn uncovered<'a, P: ChannelPack + 'a>(
    perms: &[Permutation],
    targets: impl IntoIterator<Item = &'a P>,
) -> Vec<P> {
    targets
        .into_iter()
        .filter(|&t| !set_covers(perms, t))
        .cloned()
        .collect()
}

/// Builds, for an unsorted binary string σ, *some* permutation whose cover
/// contains σ: the positions of the 0s of σ receive the values `1..=z` in
/// increasing position order and the positions of the 1s receive
/// `z+1..=n`.  Works for any string up to
/// [`sortnet_combinat::permutations::MAX_WIDE_N`] lines.
///
/// This is the constructive half of the observation that every binary
/// string is covered by at least one permutation.
#[must_use]
pub fn covering_permutation<P: ChannelPack>(sigma: &P) -> Permutation {
    let n = sigma.len();
    let zeros = (0..n).filter(|&i| !sigma.bit(i)).count();
    let mut values = vec![0u8; n];
    let mut next_small = 0usize;
    let mut next_large = zeros;
    for (i, value) in values.iter_mut().enumerate() {
        if sigma.bit(i) {
            *value = next_large as u8;
            next_large += 1;
        } else {
            *value = next_small as u8;
            next_small += 1;
        }
    }
    Permutation::from_values(&values).expect("construction yields a permutation")
}

/// The non-constant threshold strings (`t = 1..n−1`) of one permutation,
/// as packed words, in increasing `t` — the permutation's cover with the
/// all-zero and all-one strings, which no network can fail, left out.
///
/// The permutation is given by its lines in decreasing value order: the
/// set bits of `runs[0]` from the highest down, then those of `runs[1]`,
/// then those of `runs[2]` (the runs partition `0..n`).  Threshold string
/// `t` is the first `t` of those lines, so each word is the previous one
/// plus one bit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoverWords {
    runs: [u64; 3],
    word: u64,
}

impl CoverWords {
    pub(crate) fn new(runs: [u64; 3]) -> Self {
        Self { runs, word: 0 }
    }
}

impl Iterator for CoverWords {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let run = self.runs.iter_mut().find(|r| **r != 0)?;
        let line = 63 - run.leading_zeros();
        *run &= !(1 << line);
        self.word |= 1 << line;
        // The word that took the last line is the all-one string.
        (self.runs != [0; 3]).then_some(self.word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_combinat::{BitString, ChannelVec};

    #[test]
    fn covering_permutation_covers_its_string() {
        for n in 1..=9usize {
            for sigma in BitString::all(n) {
                let p = covering_permutation(&sigma);
                assert!(p.covers(&sigma), "σ = {sigma}, π = {p}");
            }
        }
    }

    #[test]
    fn covering_permutation_of_sorted_string_is_identity() {
        for n in 1..=8usize {
            for z in 0..=n {
                let sigma = BitString::sorted_with(z, n - z);
                assert!(covering_permutation(&sigma).is_identity());
            }
        }
    }

    #[test]
    fn cover_of_set_is_union_of_covers() {
        let perms: Vec<Permutation> = Permutation::all(4).take(5).collect();
        let cover: Vec<BitString> = cover_of_set(&perms);
        for p in &perms {
            for s in p.cover::<BitString>() {
                assert!(cover.contains(&s));
            }
        }
        for s in &cover {
            assert!(set_covers(&perms, s));
        }
    }

    #[test]
    fn paper_example_cover_membership() {
        let p = Permutation::from_one_based(&[3, 1, 4, 2]).unwrap();
        assert!(p.covers(&BitString::parse("1010").unwrap()));
        assert!(p.covers(&BitString::parse("1011").unwrap()));
        assert!(!p.covers(&BitString::parse("0101").unwrap()));
    }

    #[test]
    fn no_permutation_covers_two_strings_of_equal_weight() {
        // The engine of the paper's permutation lower bounds.
        for p in Permutation::all(5) {
            for w in 0..=5usize {
                let covered = BitString::all_with_weight(5, w)
                    .filter(|s| p.covers(s))
                    .count();
                assert_eq!(covered, 1);
            }
        }
    }

    #[test]
    fn packed_cover_surface_matches_the_bitstring_one() {
        use std::collections::HashSet as StdHashSet;

        let perms: Vec<Permutation> = Permutation::all(5).step_by(7).collect();
        let targets: Vec<BitString> = BitString::all(5).collect();
        let packed: Vec<ChannelVec> = targets
            .iter()
            .map(|s| ChannelVec::assemble(5, |i| s.get(i)))
            .collect();
        for (s, v) in targets.iter().zip(&packed) {
            assert_eq!(set_covers(&perms, s), set_covers(&perms, v));
        }
        let missed = uncovered(&perms, &targets);
        let missed_packed = uncovered(&perms, &packed);
        assert_eq!(missed.len(), missed_packed.len());
        assert!(missed
            .iter()
            .zip(&missed_packed)
            .all(|(a, b)| a.to_string() == b.to_string()));
        let plain: StdHashSet<String> = cover_of_set::<BitString>(&perms)
            .iter()
            .map(ToString::to_string)
            .collect();
        let wide: StdHashSet<String> = cover_of_set::<ChannelVec>(&perms)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(plain, wide);
    }

    #[test]
    fn covering_permutation_works_past_the_64_line_wall() {
        let n = 96;
        let sigma = ChannelVec::assemble(n, |i| i.is_multiple_of(3));
        let p = covering_permutation(&sigma);
        assert_eq!(p.len(), n);
        assert!(p.covers(&sigma));
        // Sorted strings give the identity, exactly as below the wall.
        let sorted = ChannelVec::sorted_of(40, 56);
        assert!(covering_permutation(&sorted).is_identity());
    }

    #[test]
    fn uncovered_reports_exactly_the_misses() {
        let perms = vec![Permutation::identity(4)];
        let targets: Vec<BitString> = BitString::all_unsorted(4).collect();
        let missed = uncovered(&perms, &targets);
        // The identity only covers sorted strings, so every unsorted string
        // is missed.
        assert_eq!(missed.len(), targets.len());
    }
}
