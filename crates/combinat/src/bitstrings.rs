//! Packed 0/1 strings of length ≤ 64.
//!
//! The paper's central alphabet is `{0,1}^n`.  A [`BitString`] stores such a
//! string with **bit `i` of the word holding position `i` of the string**
//! (position 0 is the *top line* of the network, the leftmost character in
//! the paper's notation).  A string is *sorted* when it is non-decreasing,
//! i.e. of the form `0^a 1^b`.
//!
//! The representation is chosen so that the exhaustive verifiers in
//! `sortnet-network`/`sortnet-testsets` can enumerate all `2^n` strings as a
//! plain integer range and test sortedness with two bit tricks.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::check_n;

/// A 0/1 string of length `n ≤ 64`, packed into a `u64`.
///
/// Position `i` (0-based, the top network line first) is bit `i` of `word`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitString {
    /// Packed bits; bits at positions ≥ `len` are always zero.
    word: u64,
    /// Length of the string (number of network lines).
    len: u8,
}

impl BitString {
    /// Creates a bit string of length `n` from a packed word.
    ///
    /// Bits above position `n` are masked off.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[must_use]
    pub fn from_word(word: u64, n: usize) -> Self {
        check_n(n);
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        Self {
            word: word & mask,
            len: n as u8,
        }
    }

    /// Creates the all-zero string of length `n`.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self::from_word(0, n)
    }

    /// Creates the all-one string of length `n`.
    #[must_use]
    pub fn ones(n: usize) -> Self {
        Self::from_word(u64::MAX, n)
    }

    /// Builds a string from a slice of bits given as `bool`s
    /// (`true` = 1), position 0 first.
    ///
    /// # Panics
    /// Panics if the slice is longer than 64.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        check_n(bits.len());
        let mut word = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                word |= 1 << i;
            }
        }
        Self {
            word,
            len: bits.len() as u8,
        }
    }

    /// Parses a string of `'0'`/`'1'` characters, leftmost character =
    /// position 0 (the paper's reading order).
    ///
    /// Returns `None` on any other character or if longer than 64.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() > 64 {
            return None;
        }
        let mut word = 0u64;
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => word |= 1 << i,
                _ => return None,
            }
        }
        Some(Self {
            word,
            len: s.len() as u8,
        })
    }

    /// The canonical sorted string with `zeros` zeros followed by `ones`
    /// ones: `0^zeros 1^ones`.
    ///
    /// # Panics
    /// Panics if `zeros + ones > 64`.
    #[must_use]
    pub fn sorted_with(zeros: usize, ones: usize) -> Self {
        let n = zeros + ones;
        check_n(n);
        let word = if ones == 0 {
            0
        } else {
            (((1u128 << ones) - 1) as u64) << zeros
        };
        Self::from_word(word, n)
    }

    /// Length of the string.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the string has length zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying packed word.
    #[must_use]
    pub fn word(&self) -> u64 {
        self.word
    }

    /// Bit (value) at `position`.
    ///
    /// # Panics
    /// Panics if `position ≥ len`.
    #[must_use]
    pub fn get(&self, position: usize) -> bool {
        assert!(position < self.len(), "position {position} out of range");
        (self.word >> position) & 1 == 1
    }

    /// Returns a copy with the bit at `position` set to `value`.
    ///
    /// # Panics
    /// Panics if `position ≥ len`.
    #[must_use]
    pub fn with_bit(&self, position: usize, value: bool) -> Self {
        assert!(position < self.len(), "position {position} out of range");
        let mut word = self.word;
        if value {
            word |= 1 << position;
        } else {
            word &= !(1 << position);
        }
        Self {
            word,
            len: self.len,
        }
    }

    /// Number of ones, `|σ|₁` in the paper's notation.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.word.count_ones() as usize
    }

    /// Number of zeros, `|σ|₀`.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len() - self.count_ones()
    }

    /// `true` when the string is non-decreasing (of the form `0^a 1^b`).
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        is_sorted_word(self.word, self.len())
    }

    /// The sorted rearrangement of this string: `0^{|σ|₀} 1^{|σ|₁}`.
    #[must_use]
    pub fn sorted(&self) -> Self {
        Self::sorted_with(self.count_zeros(), self.count_ones())
    }

    /// Substring `σ_{i..j}` (0-based, half-open) as a new `BitString`.
    ///
    /// # Panics
    /// Panics if `i > j` or `j > len`.
    #[must_use]
    pub fn slice(&self, i: usize, j: usize) -> Self {
        assert!(i <= j && j <= self.len(), "bad slice {i}..{j}");
        Self::from_word(self.word >> i, j - i)
    }

    /// Concatenation `self · other`.
    ///
    /// # Panics
    /// Panics if the combined length exceeds 64.
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        let n = self.len() + other.len();
        check_n(n);
        Self::from_word(self.word | (other.word << self.len()), n)
    }

    /// The *flip* of the string: reverse the positions and complement every
    /// bit.
    ///
    /// Flipping is the symmetry used throughout the reproduction of
    /// Lemma 2.1: it maps standard networks to standard networks and
    /// preserves sortedness.
    #[must_use]
    pub fn flip(&self) -> Self {
        let n = self.len();
        let mut word = 0u64;
        for i in 0..n {
            if !self.get(n - 1 - i) {
                word |= 1 << i;
            }
        }
        Self {
            word,
            len: self.len,
        }
    }

    /// Reverses the string (no complement).
    #[must_use]
    pub fn reversed(&self) -> Self {
        let n = self.len();
        let mut word = 0u64;
        for i in 0..n {
            if self.get(n - 1 - i) {
                word |= 1 << i;
            }
        }
        Self {
            word,
            len: self.len,
        }
    }

    /// Bitwise complement of every position.
    #[must_use]
    pub fn complement(&self) -> Self {
        Self::from_word(!self.word, self.len())
    }

    /// Pointwise "dominates" relation `self ≤ other` used in the proof of
    /// Theorem 2.4: every position of `self` is ≤ the same position of
    /// `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn dominated_by(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        self.word & !other.word == 0
    }

    /// Expands to a `Vec<u8>` of 0/1 values (position 0 first).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        (0..self.len()).map(|i| u8::from(self.get(i))).collect()
    }

    /// Iterator over all `2^n` strings of length `n`, in increasing word
    /// order.
    pub fn all(n: usize) -> impl Iterator<Item = Self> {
        check_n(n);
        assert!(n < 64, "enumerating all 2^64 strings is not supported");
        (0u64..(1u64 << n)).map(move |w| Self::from_word(w, n))
    }

    /// Iterator over all *unsorted* strings of length `n` (the minimum 0/1
    /// test set for sorting, Theorem 2.2(i)).
    pub fn all_unsorted(n: usize) -> impl Iterator<Item = Self> {
        Self::all(n).filter(|s| !s.is_sorted())
    }

    /// Iterator over all strings `σ₁σ₂` of length `n` whose two halves are
    /// each sorted — the legal inputs of an `(n/2, n/2)`-merging network.
    ///
    /// The `(half + 1)²` strings are yielded in `(z₁, z₂)` order, where
    /// `σ₁ = 0^{z₁} 1^{half − z₁}` and `σ₂ = 0^{z₂} 1^{half − z₂}` — the
    /// enumeration order Theorem 2.5 uses.
    ///
    /// # Panics
    /// Panics if `n` is odd.
    pub fn all_half_sorted(n: usize) -> impl Iterator<Item = Self> {
        check_n(n);
        assert!(n.is_multiple_of(2), "merge inputs need an even length");
        let half = n / 2;
        (0..=half).flat_map(move |z1| {
            (0..=half).map(move |z2| {
                Self::sorted_with(z1, half - z1).concat(&Self::sorted_with(z2, half - z2))
            })
        })
    }

    /// Iterator over all strings of length `n` with exactly `ones` ones, in
    /// increasing word order ([`weight_words`]).
    pub fn all_with_weight(n: usize, ones: usize) -> impl Iterator<Item = Self> {
        weight_words(n, ones).map(move |w| Self::from_word(w, n))
    }
}

/// The word with the low `n` bits set (`n ≤ 64`).
#[must_use]
pub const fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// `true` when the `n`-bit word (bits at or past `n` clear) is sorted,
/// `0^{n−t} 1^t`: its `t` ones are the top `t` positions.
#[must_use]
pub fn is_sorted_word(word: u64, n: usize) -> bool {
    let t = word.count_ones() as usize;
    t <= n && word == low_mask(n) ^ low_mask(n - t)
}

/// All `n`-bit words with exactly `ones` ones, in increasing order
/// (Gosper's hack) — the word form of [`BitString::all_with_weight`],
/// with no allocation.
///
/// # Panics
/// Panics if `n ≥ 64` or `ones > n`.
pub fn weight_words(n: usize, ones: usize) -> impl Iterator<Item = u64> {
    assert!(n < 64, "n must be < 64 for weight enumeration");
    assert!(ones <= n, "weight {ones} exceeds length {n}");
    let limit: u64 = 1u64 << n;
    let mut next = Some(low_mask(ones));
    std::iter::from_fn(move || {
        let current = next?;
        next = if ones == 0 {
            None
        } else {
            // Gosper's hack: next integer with the same popcount.
            let c = current & current.wrapping_neg();
            let r = current + c;
            (r < limit).then(|| (((r ^ current) >> 2) / c) | r)
        };
        Some(current)
    })
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_is_sorted(bits: &[u8]) -> bool {
        bits.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["", "0", "1", "0101", "11110000", "0011"] {
            let b = BitString::parse(s).unwrap();
            assert_eq!(b.to_string(), s);
        }
        assert!(BitString::parse("01x").is_none());
    }

    #[test]
    fn paper_example_cover_strings_parse() {
        // Strings from the paper's cover example for (3 1 4 2).
        for s in ["1111", "1011", "1010", "0010", "0000"] {
            assert!(BitString::parse(s).is_some());
        }
    }

    #[test]
    fn sortedness_matches_naive_for_all_n_up_to_10() {
        for n in 0..=10 {
            for b in BitString::all(n) {
                assert_eq!(
                    b.is_sorted(),
                    naive_is_sorted(&b.to_vec()),
                    "string {b} of length {n}"
                );
            }
        }
    }

    #[test]
    fn sorted_count_is_n_plus_one() {
        for n in 0..=12 {
            let count = BitString::all(n).filter(BitString::is_sorted).count();
            assert_eq!(count, n + 1);
        }
    }

    #[test]
    fn unsorted_count_matches_theorem_2_2() {
        for n in 1..=12u32 {
            let count = BitString::all_unsorted(n as usize).count() as u128;
            assert_eq!(
                count,
                crate::binomial::sorting_testset_size_binary(u64::from(n))
            );
        }
    }

    #[test]
    fn half_sorted_enumeration_is_exactly_the_merge_inputs() {
        use std::collections::HashSet;
        for half in 1..=5usize {
            let n = 2 * half;
            let all: Vec<BitString> = BitString::all_half_sorted(n).collect();
            assert_eq!(all.len(), (half + 1) * (half + 1));
            let distinct: HashSet<u64> = all.iter().map(BitString::word).collect();
            assert_eq!(distinct.len(), all.len(), "no duplicates");
            for s in &all {
                assert!(s.slice(0, half).is_sorted());
                assert!(s.slice(half, n).is_sorted());
            }
            // Completeness: every string with two sorted halves appears.
            let scalar = BitString::all(n)
                .filter(|s| s.slice(0, half).is_sorted() && s.slice(half, n).is_sorted())
                .count();
            assert_eq!(all.len(), scalar);
        }
    }

    #[test]
    fn weight_enumeration_counts_binomials() {
        for n in 0..=10u64 {
            for k in 0..=n {
                let count = BitString::all_with_weight(n as usize, k as usize).count();
                assert_eq!(count as u128, crate::binomial_u128(n, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn weight_enumeration_yields_correct_weights_and_no_duplicates() {
        use std::collections::HashSet;
        for n in 0..=9usize {
            for k in 0..=n {
                let mut seen = HashSet::new();
                for s in BitString::all_with_weight(n, k) {
                    assert_eq!(s.count_ones(), k);
                    assert_eq!(s.len(), n);
                    assert!(seen.insert(s.word()));
                }
            }
        }
    }

    #[test]
    fn sorted_with_builds_canonical_strings() {
        assert_eq!(BitString::sorted_with(2, 3).to_string(), "00111");
        assert_eq!(BitString::sorted_with(0, 4).to_string(), "1111");
        assert_eq!(BitString::sorted_with(4, 0).to_string(), "0000");
        assert!(BitString::sorted_with(3, 5).is_sorted());
    }

    #[test]
    fn sorted_rearrangement_preserves_weight() {
        for n in 0..=10 {
            for b in BitString::all(n) {
                let s = b.sorted();
                assert!(s.is_sorted());
                assert_eq!(s.count_ones(), b.count_ones());
            }
        }
    }

    #[test]
    fn flip_is_involutive_and_preserves_sortedness() {
        for n in 0..=10 {
            for b in BitString::all(n) {
                assert_eq!(b.flip().flip(), b);
                assert_eq!(b.flip().is_sorted(), b.is_sorted());
                assert_eq!(b.flip().count_ones(), b.count_zeros());
            }
        }
    }

    #[test]
    fn flip_is_reverse_then_complement() {
        for b in BitString::all(8) {
            assert_eq!(b.flip(), b.reversed().complement());
            assert_eq!(b.flip(), b.complement().reversed());
        }
    }

    #[test]
    fn slice_and_concat_are_inverse() {
        for b in BitString::all(9) {
            for cut in 0..=9 {
                let left = b.slice(0, cut);
                let right = b.slice(cut, 9);
                assert_eq!(left.concat(&right), b);
            }
        }
    }

    #[test]
    fn domination_is_a_partial_order_consistent_with_counting() {
        for a in BitString::all(6) {
            assert!(a.dominated_by(&a));
            for b in BitString::all(6) {
                if a.dominated_by(&b) {
                    assert!(a.count_ones() <= b.count_ones());
                    if b.dominated_by(&a) {
                        assert_eq!(a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn with_bit_and_get_are_consistent() {
        let b = BitString::zeros(10);
        let c = b.with_bit(3, true).with_bit(7, true).with_bit(3, false);
        assert!(!c.get(3));
        assert!(c.get(7));
        assert_eq!(c.count_ones(), 1);
    }

    #[test]
    fn all_enumeration_has_exact_cardinality() {
        for n in 0..=14 {
            assert_eq!(BitString::all(n).count(), 1usize << n);
        }
    }
}
