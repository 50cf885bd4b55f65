//! Permutations of `0..n` and the paper's *cover* relation between
//! permutations and 0/1 strings.
//!
//! The paper writes permutations of `(1 2 … n)`; internally we use 0-based
//! values `0..n` and convert only when formatting.  `perm[i]` is the value
//! sitting on network line `i` (line 0 = top).
//!
//! The *cover* of a permutation π is the set of 0/1 strings obtained by
//! replacing the `t` largest values of π by 1 and the rest by 0, for every
//! `t` in `0..=n` (Definition in §2 of the paper, example: the cover of
//! `(3 1 4 2)` is `{1111, 1011, 1010, 0010, 0000}`).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::channels::ChannelPack;
use crate::check_n;

/// The largest permutation length the constructors accept: values are
/// stored as `u8`, so `0..n` fits exactly while `n ≤ 256`.  Covers of
/// permutations past 64 lines are read in a multi-word packing
/// (`ChannelVec`).
pub const MAX_WIDE_N: usize = 256;

/// A permutation of `0..n`, stored as the value on each line.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Permutation {
    values: Vec<u8>,
}

impl Permutation {
    /// The identity permutation of length `n`.
    ///
    /// # Panics
    /// Panics if `n > `[`MAX_WIDE_N`].
    #[must_use]
    pub fn identity(n: usize) -> Self {
        check_wide_n(n);
        Self {
            values: (0..n).map(|v| v as u8).collect(),
        }
    }

    /// The reverse permutation `(n−1, n−2, …, 0)` — the single test input
    /// needed for primitive (height-1) networks (§3 of the paper,
    /// de Bruijn's result).
    ///
    /// # Panics
    /// Panics if `n > `[`MAX_WIDE_N`].
    #[must_use]
    pub fn reverse(n: usize) -> Self {
        check_wide_n(n);
        Self {
            values: (0..n).rev().map(|v| v as u8).collect(),
        }
    }

    /// Builds a permutation from 0-based values.
    ///
    /// Returns `None` if `values` is not a permutation of `0..len` or is
    /// longer than [`MAX_WIDE_N`].
    #[must_use]
    pub fn from_values(values: &[u8]) -> Option<Self> {
        if values.len() > MAX_WIDE_N {
            return None;
        }
        let n = values.len();
        let mut seen = vec![false; n];
        for &v in values {
            if (v as usize) >= n || seen[v as usize] {
                return None;
            }
            seen[v as usize] = true;
        }
        Some(Self {
            values: values.to_vec(),
        })
    }

    /// Builds a permutation from the paper's 1-based notation.
    #[must_use]
    pub fn from_one_based(values: &[u8]) -> Option<Self> {
        let zero_based: Vec<u8> = values
            .iter()
            .map(|&v| v.checked_sub(1))
            .collect::<Option<_>>()?;
        Self::from_values(&zero_based)
    }

    /// Length of the permutation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the permutation has length zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value on line `i` (0-based).
    ///
    /// # Panics
    /// Panics if `i ≥ len`.
    #[must_use]
    pub fn get(&self, i: usize) -> u8 {
        self.values[i]
    }

    /// The underlying value slice.
    #[must_use]
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// Values in the paper's 1-based notation.
    #[must_use]
    pub fn to_one_based(&self) -> Vec<u8> {
        self.values.iter().map(|&v| v + 1).collect()
    }

    /// `true` when the permutation is the identity (already sorted).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.values
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i)
    }

    /// The inverse permutation: `inv[v] = i` iff `self[i] = v`.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u8; self.len()];
        for (i, &v) in self.values.iter().enumerate() {
            inv[v as usize] = i as u8;
        }
        Self { values: inv }
    }

    /// Composition `self ∘ other`: first apply `other`, then `self`
    /// (i.e. `(self ∘ other)[i] = self[other[i]]`).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn compose(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "length mismatch");
        Self {
            values: other
                .values
                .iter()
                .map(|&v| self.values[v as usize])
                .collect(),
        }
    }

    /// The *cover string at threshold `t`*, in any vector packing:
    /// positions holding one of the `t` largest values become 1, the rest 0.
    ///
    /// # Panics
    /// Panics if `t > len`, or if the permutation is longer than `P`
    /// holds (`BitString` holds 64 lines).
    #[must_use]
    pub fn cover_at<P: ChannelPack>(&self, t: usize) -> P {
        let n = self.len();
        assert!(t <= n, "threshold {t} exceeds length {n}");
        let cutoff = n - t; // values >= cutoff become 1
        P::assemble(n, |i| (self.values[i] as usize) >= cutoff)
    }

    /// The full cover: all `n + 1` threshold strings, from all-zero
    /// (`t = 0`) to all-one (`t = n`).
    #[must_use]
    pub fn cover<P: ChannelPack>(&self) -> Vec<P> {
        (0..=self.len()).map(|t| self.cover_at(t)).collect()
    }

    /// `true` when some threshold string of this permutation equals `s`
    /// (the permutation *covers* the string, §2 of the paper).
    #[must_use]
    pub fn covers<P: ChannelPack>(&self, s: &P) -> bool {
        let mut ones = 0usize;
        for i in 0..s.len() {
            ones += usize::from(s.bit(i));
        }
        s.len() == self.len() && self.cover_at::<P>(ones) == *s
    }

    /// Number of inversions (pairs `i < j` with `self[i] > self[j]`).
    #[must_use]
    pub fn inversions(&self) -> usize {
        let mut count = 0;
        for i in 0..self.len() {
            for j in (i + 1)..self.len() {
                if self.values[i] > self.values[j] {
                    count += 1;
                }
            }
        }
        count
    }

    /// Lexicographic rank of the permutation among all `n!` permutations.
    #[must_use]
    pub fn lex_rank(&self) -> u128 {
        let n = self.len();
        let mut rank: u128 = 0;
        for i in 0..n {
            let smaller_later = self.values[i + 1..]
                .iter()
                .filter(|&&v| v < self.values[i])
                .count() as u128;
            rank += smaller_later * crate::binomial::factorial((n - 1 - i) as u64);
        }
        rank
    }

    /// Unranks a lexicographic rank into a permutation of length `n`.
    ///
    /// # Panics
    /// Panics if `rank ≥ n!` or `n > 20` (factorial overflow guard for the
    /// `u128` arithmetic is unnecessary below 34 but enumeration beyond 20 is
    /// never meaningful).
    #[must_use]
    pub fn from_lex_rank(n: usize, mut rank: u128) -> Self {
        check_n(n);
        assert!(
            rank < crate::binomial::factorial(n as u64),
            "rank out of range"
        );
        let mut available: Vec<u8> = (0..n as u8).collect();
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            let f = crate::binomial::factorial((n - 1 - i) as u64);
            let idx = (rank / f) as usize;
            rank %= f;
            values.push(available.remove(idx));
        }
        Self { values }
    }

    /// Advances `self` to the next permutation in lexicographic order,
    /// returning `false` (and resetting to the identity) after the last one.
    pub fn next_lex(&mut self) -> bool {
        let v = &mut self.values;
        let n = v.len();
        if n < 2 {
            return false;
        }
        let mut i = n - 1;
        while i > 0 && v[i - 1] >= v[i] {
            i -= 1;
        }
        if i == 0 {
            v.sort_unstable();
            return false;
        }
        let mut j = n - 1;
        while v[j] <= v[i - 1] {
            j -= 1;
        }
        v.swap(i - 1, j);
        v[i..].reverse();
        true
    }

    /// Iterator over all `n!` permutations of length `n` in lexicographic
    /// order.
    ///
    /// # Panics
    /// Panics if `n > 12` — beyond that the enumeration is never feasible in
    /// tests or experiments and the guard catches accidental blow-ups.
    pub fn all(n: usize) -> impl Iterator<Item = Self> {
        assert!(n <= 12, "enumerating {n}! permutations is not supported");
        let mut current = Some(Self::identity(n));
        std::iter::from_fn(move || {
            let result = current.clone()?;
            let mut next = result.clone();
            current = if next.next_lex() { Some(next) } else { None };
            Some(result)
        })
    }
}

/// Asserts that a permutation length is within [`MAX_WIDE_N`].
fn check_wide_n(n: usize) {
    assert!(
        n <= MAX_WIDE_N,
        "length {n} exceeds the wide permutation maximum of {MAX_WIDE_N}"
    );
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation({self})")
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.to_one_based().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitString;

    #[test]
    fn identity_and_reverse() {
        let id = Permutation::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.inversions(), 0);
        let rev = Permutation::reverse(5);
        assert_eq!(rev.inversions(), 10);
        assert_eq!(rev.inverse(), rev);
    }

    #[test]
    fn from_values_validates() {
        assert!(Permutation::from_values(&[0, 1, 2]).is_some());
        assert!(Permutation::from_values(&[0, 0, 2]).is_none());
        assert!(Permutation::from_values(&[0, 3, 1]).is_none());
        assert!(Permutation::from_one_based(&[3, 1, 4, 2]).is_some());
        assert!(Permutation::from_one_based(&[0, 1, 2]).is_none());
    }

    #[test]
    fn paper_cover_example() {
        // The paper: the cover of (3 1 4 2) is 1111, 1011, 1010, 0010, 0000.
        let p = Permutation::from_one_based(&[3, 1, 4, 2]).unwrap();
        let cover: Vec<String> = p
            .cover::<BitString>()
            .iter()
            .map(ToString::to_string)
            .collect();
        let expected = ["0000", "0010", "1010", "1011", "1111"];
        for e in expected {
            assert!(cover.contains(&e.to_string()), "missing {e} in {cover:?}");
        }
        assert_eq!(cover.len(), 5);
    }

    #[test]
    fn cover_strings_have_increasing_weight_and_are_nested() {
        for p in Permutation::all(6) {
            let cover = p.cover::<BitString>();
            for (t, s) in cover.iter().enumerate() {
                assert_eq!(s.count_ones(), t);
            }
            for w in cover.windows(2) {
                assert!(w[0].dominated_by(&w[1]));
            }
        }
    }

    #[test]
    fn identity_cover_is_all_sorted_strings() {
        let id = Permutation::identity(7);
        for s in id.cover::<BitString>() {
            assert!(s.is_sorted());
        }
    }

    #[test]
    fn covers_matches_membership_in_cover() {
        for p in Permutation::all(5) {
            let cover = p.cover::<BitString>();
            for s in BitString::all(5) {
                assert_eq!(p.covers(&s), cover.contains(&s), "{p} vs {s}");
            }
        }
    }

    #[test]
    fn a_permutation_covers_exactly_one_string_per_weight() {
        // This is the key fact behind the paper's permutation lower bounds.
        for p in Permutation::all(6) {
            for t in 0..=6 {
                let covered: Vec<_> = BitString::all_with_weight(6, t)
                    .filter(|s| p.covers(s))
                    .collect();
                assert_eq!(covered.len(), 1);
            }
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        for p in Permutation::all(6) {
            assert!(p.compose(&p.inverse()).is_identity());
            assert!(p.inverse().compose(&p).is_identity());
        }
    }

    #[test]
    fn lex_enumeration_is_sorted_and_complete() {
        for n in 0..=6usize {
            let all: Vec<_> = Permutation::all(n).collect();
            assert_eq!(all.len() as u128, crate::binomial::factorial(n as u64));
            for w in all.windows(2) {
                assert!(w[0].values() < w[1].values());
            }
        }
    }

    #[test]
    fn rank_unrank_roundtrip() {
        for (rank, p) in Permutation::all(6).enumerate() {
            assert_eq!(p.lex_rank(), rank as u128);
            assert_eq!(Permutation::from_lex_rank(6, rank as u128), p);
        }
    }

    #[test]
    fn display_uses_one_based_paper_notation() {
        let p = Permutation::from_one_based(&[4, 1, 3, 2]).unwrap();
        assert_eq!(p.to_string(), "(4 1 3 2)");
    }

    #[test]
    fn next_lex_wraps_to_identity() {
        let mut p = Permutation::reverse(4);
        assert!(!p.next_lex());
        assert!(p.is_identity());
    }

    #[test]
    fn packed_cover_agrees_with_the_bitstring_cover() {
        use crate::channels::ChannelVec;
        for p in Permutation::all(6) {
            let classic = p.cover::<BitString>();
            let packed: Vec<ChannelVec> = p.cover();
            assert_eq!(classic.len(), packed.len());
            for (a, b) in classic.iter().zip(&packed) {
                assert_eq!(a.to_string(), b.to_string(), "{p}");
                assert!(p.covers(b));
            }
        }
    }

    #[test]
    fn wide_permutations_cover_past_the_64_line_wall() {
        use crate::channels::{ChannelPack, ChannelVec};
        let n = 96usize;
        let id = Permutation::identity(n);
        let rev = Permutation::reverse(n);
        assert_eq!(id.len(), n);
        assert!(id.is_identity());
        assert_eq!(rev.inverse(), rev);
        assert!(Permutation::from_values(rev.values()).is_some());
        for t in [0usize, 1, 63, 64, 65, n] {
            let s: ChannelVec = rev.cover_at(t);
            // Reverse permutation: the t largest values sit on the top... the
            // first t lines, so the cover string is 1^t 0^{n-t}.
            let reference = ChannelVec::from_fn(n, |i| i < t);
            assert_eq!(s, reference, "t={t}");
            assert!(rev.covers(&s));
            let sorted: ChannelVec = id.cover_at(t);
            assert!(ChannelPack::is_sorted(&sorted));
        }
        assert_eq!(rev.cover::<ChannelVec>().len(), n + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the wide permutation maximum")]
    fn wide_constructors_cap_at_256() {
        let _ = Permutation::identity(257);
    }
}
