//! Multi-word 0/1 strings: the `ChannelWords > 1` generalisation of
//! [`BitString`].
//!
//! [`BitString`] packs a 0/1 string of length `n ≤ 64` into a single `u64`.
//! That is the natural alphabet for everything the paper *enumerates* —
//! exhaustive sweeps, the Theorem 2.2 families, permutation covers — because
//! those objects are exponential in `n` and unenumerable long before 64
//! lines.  But *fault simulation over an explicit test set* is linear in the
//! set, and the wide merge/selection networks the paper's bounds target live
//! well past 64 lines.  [`ChannelVec`] is the payload type for that regime:
//! the same 0/1 string, packed little-endian into `ceil(n/64)` **channel
//! words** (bit `i` lives in word `i / 64` at bit `i % 64`), so the
//! `n ≤ 64` world is exactly the one-word case.
//!
//! [`ChannelPack`] abstracts over the two representations.  Engine entry
//! points that take or return test vectors are generic over it, so the
//! historical `BitString` paths monomorphise to the same single-word code
//! they compiled to before, while `ChannelVec` threads arbitrary `n`
//! through the identical machinery.

use std::fmt;

use crate::bitstrings::BitString;

/// Number of 64-bit channel words needed for an `n`-line vector.
///
/// Zero-line vectors still occupy one (all-zero) word so that every vector
/// has a non-empty word slice.
#[inline]
#[must_use]
pub const fn channel_words(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        n.div_ceil(64)
    }
}

/// A 0/1 string of arbitrary length `n`, packed into `ceil(n/64)` channel
/// words.
///
/// Bit `i` (line `i`) is stored in word `i / 64` at bit position
/// `i % 64`; bits above `n` in the top word are always zero.  This is the
/// multi-word sibling of [`BitString`] and the payload type for `n > 64`
/// fault sweeps.  A vector of at most 64 lines keeps its one word inline,
/// so cloning or dropping it allocates and frees nothing.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ChannelVec {
    words: Words,
    len: usize,
}

/// Canonical word storage: `One` exactly when `channel_words(len) == 1`,
/// so the derived `Eq` and `Hash` stay content-based.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    One(u64),
    Many(Box<[u64]>),
}

impl ChannelVec {
    /// The `n`-line string whose channel word `w` is `word(w)`.  Callers
    /// keep the bits above `n` zero.
    fn with_words(n: usize, mut word: impl FnMut(usize) -> u64) -> Self {
        let need = channel_words(n);
        let words = if need == 1 {
            Words::One(word(0))
        } else {
            Words::Many((0..need).map(word).collect())
        };
        ChannelVec { words, len: n }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::One(word) => std::slice::from_mut(word),
            Words::Many(words) => words,
        }
    }

    /// The all-zeros string of length `n`.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self::with_words(n, |_| 0)
    }

    /// The all-ones string of length `n`.
    #[must_use]
    pub fn ones(n: usize) -> Self {
        // Whole-word fill: every word is the live mask for its position
        // (all-ones below the top word, the partial mask on it).
        Self::with_words(n, |w| live_word_mask(n, w))
    }

    /// Builds a string from raw channel words, masking any bits above `n`.
    ///
    /// # Panics
    /// Panics when fewer than `channel_words(n)` words are supplied.
    #[must_use]
    pub fn from_words(words: &[u64], n: usize) -> Self {
        let need = channel_words(n);
        assert!(
            words.len() >= need,
            "{} channel words cannot hold {n} lines (need {need})",
            words.len()
        );
        Self::with_words(n, |w| words[w] & live_word_mask(n, w))
    }

    /// Builds a string of length `bits.len()` from explicit bit values.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds a string of length `n` with bit `i` given by `f(i)`.
    #[must_use]
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::zeros(n);
        for i in 0..n {
            v.set(i, f(i));
        }
        v
    }

    /// Parses a string of `'0'`/`'1'` characters, position 0 first.
    ///
    /// # Panics
    /// Panics on any other character.
    #[must_use]
    pub fn parse(s: &str) -> Self {
        let bits: Vec<bool> = s
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid character {other:?} in channel string"),
            })
            .collect();
        Self::from_bits(&bits)
    }

    /// Widens a [`BitString`] into its one-or-more-word channel form.
    #[must_use]
    pub fn from_bitstring(s: BitString) -> Self {
        Self::from_words(&[s.word()], s.len())
    }

    /// Narrows back to a [`BitString`] when `n ≤ 64`, or `None` otherwise.
    #[must_use]
    pub fn to_bitstring(&self) -> Option<BitString> {
        if self.len <= 64 {
            Some(BitString::from_word(self.words()[0], self.len))
        } else {
            None
        }
    }

    /// The sorted string `0^zeros 1^ones` of length `zeros + ones`.
    #[must_use]
    pub fn sorted_of(zeros: usize, ones: usize) -> Self {
        Self::from_fn(zeros + ones, |i| i >= zeros)
    }

    /// Number of lines.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the string has no lines.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing channel words, little-endian by line index.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::One(word) => std::slice::from_ref(word),
            Words::Many(words) => words,
        }
    }

    /// Number of channel words (`ceil(n/64)`, minimum 1).
    #[inline]
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words().len()
    }

    /// The bit on line `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "line {i} out of range for {} lines", self.len);
        (self.words()[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit on line `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "line {i} out of range for {} lines", self.len);
        let mask = 1u64 << (i % 64);
        let word = &mut self.words_mut()[i / 64];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// A copy with bit `i` set to `value`.
    #[must_use]
    pub fn with_bit(&self, i: usize, value: bool) -> Self {
        let mut v = self.clone();
        v.set(i, value);
        v
    }

    /// Number of ones.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zeros.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// `true` when the string is sorted (`0^a 1^b`).
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        // Sorted iff no 1 is followed (in line order) by a 0: scan words
        // low to high carrying "have we seen a 1 yet".
        let mut seen_one = false;
        for (w, &word) in self.words().iter().enumerate() {
            let live = live_word_mask(self.len, w);
            let word = word & live;
            if seen_one {
                if word != live {
                    return false;
                }
                continue;
            }
            if word == 0 {
                continue;
            }
            // Within this word: ones must form a contiguous top run.
            let first_one = word.trailing_zeros();
            let run_top = (!word & live) >> first_one;
            if run_top != 0 {
                return false;
            }
            seen_one = true;
        }
        true
    }

    /// The sorted rearrangement of this string.
    #[must_use]
    pub fn sorted(&self) -> Self {
        Self::sorted_of(self.count_zeros(), self.count_ones())
    }

    /// The bits as a `Vec<u8>` of 0/1 values, line 0 first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        (0..self.len).map(|i| u8::from(self.get(i))).collect()
    }
}

/// Mask of the live (in-range) bits of channel word `w` for an `n`-line
/// vector.
#[inline]
#[must_use]
pub const fn live_word_mask(n: usize, w: usize) -> u64 {
    let base = w * 64;
    if base >= n {
        0
    } else if n - base >= 64 {
        u64::MAX
    } else {
        (1u64 << (n - base)) - 1
    }
}

impl fmt::Display for ChannelVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for ChannelVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChannelVec({self})")
    }
}

impl From<BitString> for ChannelVec {
    fn from(s: BitString) -> Self {
        Self::from_bitstring(s)
    }
}

/// Abstraction over packed 0/1 test vectors: single-word [`BitString`]
/// (`n ≤ 64`) and multi-word [`ChannelVec`] (arbitrary `n`).
///
/// Engine entry points that consume or produce test vectors are generic
/// over this trait.  The `BitString` instantiation monomorphises to the
/// historical single-word code path; the `ChannelVec` instantiation is the
/// `ChannelWords > 1` path.  Implementations must agree on semantics: bit
/// `i` is the value on line `i`, and `assemble`/`bit` round-trip.
pub trait ChannelPack: Clone + PartialEq + fmt::Debug + fmt::Display {
    /// The most lines one vector of this packing holds: 64 for the
    /// one-word [`BitString`], unbounded (`usize::MAX`) for [`ChannelVec`].
    const MAX_LINES: usize;

    /// Number of lines.
    fn len(&self) -> usize;

    /// `true` when there are no lines.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bit on line `i` (`i < len`).
    fn bit(&self, i: usize) -> bool;

    /// Channel word `k` (`k < channel_words(len)`): bit `i` is the value
    /// on line `64k + i`, and bits past `len` are zero.  Block packing
    /// transposes these words 64 vectors at a time instead of reading
    /// [`ChannelPack::bit`] per line.
    fn word(&self, k: usize) -> u64;

    /// Builds an `n`-line vector with bit `i` given by `f(i)`.
    fn assemble(n: usize, f: impl FnMut(usize) -> bool) -> Self;

    /// Builds an `n`-line vector from its channel words (the inverse of
    /// [`ChannelPack::word`]), masking any bits past `n`.
    ///
    /// # Panics
    /// Panics when fewer than `channel_words(n)` words are supplied, or
    /// when `n` exceeds [`ChannelPack::MAX_LINES`].
    fn from_words(words: &[u64], n: usize) -> Self;

    /// The sorted string `0^zeros 1^ones`.
    fn sorted_of(zeros: usize, ones: usize) -> Self;

    /// `true` when the vector is sorted (`0^a 1^b`).
    fn is_sorted(&self) -> bool;
}

impl ChannelPack for BitString {
    const MAX_LINES: usize = crate::MAX_N;

    #[inline]
    fn len(&self) -> usize {
        BitString::len(self)
    }

    #[inline]
    fn bit(&self, i: usize) -> bool {
        self.get(i)
    }

    #[inline]
    fn word(&self, k: usize) -> u64 {
        debug_assert_eq!(k, 0, "a BitString has one channel word");
        BitString::word(self)
    }

    fn assemble(n: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        crate::check_n(n);
        let mut word = 0u64;
        for i in 0..n {
            if f(i) {
                word |= 1u64 << i;
            }
        }
        BitString::from_word(word, n)
    }

    #[inline]
    fn from_words(words: &[u64], n: usize) -> Self {
        BitString::from_word(words[0], n)
    }

    #[inline]
    fn sorted_of(zeros: usize, ones: usize) -> Self {
        BitString::sorted_with(zeros, ones)
    }

    #[inline]
    fn is_sorted(&self) -> bool {
        BitString::is_sorted(self)
    }
}

impl ChannelPack for ChannelVec {
    const MAX_LINES: usize = usize::MAX;

    #[inline]
    fn len(&self) -> usize {
        ChannelVec::len(self)
    }

    #[inline]
    fn bit(&self, i: usize) -> bool {
        self.get(i)
    }

    #[inline]
    fn word(&self, k: usize) -> u64 {
        self.words()[k]
    }

    fn assemble(n: usize, f: impl FnMut(usize) -> bool) -> Self {
        ChannelVec::from_fn(n, f)
    }

    #[inline]
    fn from_words(words: &[u64], n: usize) -> Self {
        ChannelVec::from_words(words, n)
    }

    #[inline]
    fn sorted_of(zeros: usize, ones: usize) -> Self {
        ChannelVec::sorted_of(zeros, ones)
    }

    #[inline]
    fn is_sorted(&self) -> bool {
        ChannelVec::is_sorted(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_word_counts() {
        assert_eq!(channel_words(0), 1);
        assert_eq!(channel_words(1), 1);
        assert_eq!(channel_words(63), 1);
        assert_eq!(channel_words(64), 1);
        assert_eq!(channel_words(65), 2);
        assert_eq!(channel_words(128), 2);
        assert_eq!(channel_words(129), 3);
    }

    #[test]
    fn live_masks_at_word_boundaries() {
        assert_eq!(live_word_mask(63, 0), (1u64 << 63) - 1);
        assert_eq!(live_word_mask(64, 0), u64::MAX);
        assert_eq!(live_word_mask(64, 1), 0);
        assert_eq!(live_word_mask(65, 0), u64::MAX);
        assert_eq!(live_word_mask(65, 1), 1);
        assert_eq!(live_word_mask(128, 1), u64::MAX);
        assert_eq!(live_word_mask(128, 2), 0);
    }

    #[test]
    fn get_set_round_trip_across_words() {
        for n in [1usize, 63, 64, 65, 127, 128, 130] {
            let mut v = ChannelVec::zeros(n);
            for i in (0..n).step_by(7) {
                v.set(i, true);
            }
            for i in 0..n {
                assert_eq!(v.get(i), i % 7 == 0, "n={n} i={i}");
            }
            assert_eq!(v.count_ones() + v.count_zeros(), n);
        }
    }

    #[test]
    fn ones_word_fill_matches_bit_by_bit_at_the_seams() {
        // The word-filled constructor against the naive reference it
        // replaced, across the single-word/multi-word boundary.
        for n in [0usize, 1, 63, 64, 65, 128] {
            let mut reference = ChannelVec::zeros(n);
            for i in 0..n {
                reference.set(i, true);
            }
            let fast = ChannelVec::ones(n);
            assert_eq!(fast, reference, "n={n}");
            assert_eq!(fast.count_ones(), n);
            assert_eq!(fast.word_count(), channel_words(n));
            // Dead bits above n stay zero (the Hash/Eq invariant).
            for w in 0..fast.word_count() {
                assert_eq!(fast.words()[w] & !live_word_mask(n, w), 0, "n={n} w={w}");
            }
        }
    }

    #[test]
    fn from_words_masks_dead_bits() {
        let v = ChannelVec::from_words(&[u64::MAX, u64::MAX], 65);
        assert_eq!(v.words(), &[u64::MAX, 1]);
        assert_eq!(v.count_ones(), 65);
    }

    #[test]
    fn sortedness_matches_scalar_definition() {
        for n in [1usize, 63, 64, 65, 96, 127, 128] {
            for (zeros, label) in [(0usize, "ones-heavy"), (n / 2, "split"), (n, "zeros")] {
                let v = ChannelVec::sorted_of(zeros, n - zeros);
                assert!(v.is_sorted(), "n={n} {label}");
                assert_eq!(v.count_ones(), n - zeros);
            }
            // A 1 before a 0 across the word boundary must be unsorted.
            if n >= 66 {
                let mut v = ChannelVec::zeros(n);
                v.set(63, true);
                assert!(!v.is_sorted(), "n={n} bit 63 set, bit 64 clear");
                let w = ChannelVec::from_fn(n, |i| i != 64);
                assert!(!w.is_sorted(), "n={n} only bit 64 clear");
            }
        }
        // Brute-force check against the Vec<u8> definition at n = 67.
        let n = 67;
        let reference_sorted = |bits: &[u8]| bits.windows(2).all(|w| w[0] <= w[1]);
        for seed in 0u64..200 {
            let v = ChannelVec::from_fn(n, |i| {
                (seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(i as u32))
                    & 1
                    == 1
            });
            assert_eq!(v.is_sorted(), reference_sorted(&v.to_vec()), "seed={seed}");
        }
    }

    #[test]
    fn display_and_parse_round_trip() {
        let v = ChannelVec::from_fn(70, |i| i % 3 == 0);
        let s = v.to_string();
        assert_eq!(s.len(), 70);
        assert_eq!(ChannelVec::parse(&s), v);
    }

    #[test]
    fn bitstring_bridge_round_trips() {
        let s = BitString::parse("0110100").unwrap();
        let v = ChannelVec::from_bitstring(s);
        assert_eq!(v.len(), 7);
        assert_eq!(v.to_string(), s.to_string());
        assert_eq!(v.to_bitstring(), Some(s));
        assert_eq!(ChannelVec::ones(100).to_bitstring(), None);
    }

    #[test]
    fn pack_word_k_holds_lines_64k_onwards() {
        for n in [63usize, 64, 65, 128, 129] {
            let v = ChannelVec::from_fn(n, |i| (i * 7 + i / 5) % 3 == 0);
            for k in 0..channel_words(n) {
                let word = ChannelPack::word(&v, k);
                for i in 0..64 {
                    let line = 64 * k + i;
                    let expected = line < n && v.bit(line);
                    assert_eq!((word >> i) & 1 == 1, expected, "n={n} k={k} i={i}");
                }
            }
            if n <= 64 {
                let s = BitString::assemble(n, |i| v.bit(i));
                let word = ChannelPack::word(&s, 0);
                for i in 0..64 {
                    assert_eq!((word >> i) & 1 == 1, i < n && s.bit(i), "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn one_word_vectors_are_stored_inline() {
        assert!(std::mem::size_of::<ChannelVec>() <= 24);
    }

    fn hash_of(v: &ChannelVec) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn constructors_agree_on_content_eq_and_hash_at_the_seams() {
        for n in [0usize, 1, 63, 64, 65, 128] {
            let need = channel_words(n);
            let pattern = |i: usize| (i * 5 + i / 7).is_multiple_of(3);
            let reference = ChannelVec::from_fn(n, pattern);
            // Extra words and junk above line n are masked away.
            let mut junk: Vec<u64> = reference.words().to_vec();
            junk[need - 1] |= !live_word_mask(n, need - 1);
            junk.push(u64::MAX);
            let parsed = ChannelVec::parse(&reference.to_string());
            let by_bit = (0..n).fold(ChannelVec::zeros(n), |v, i| v.with_bit(i, pattern(i)));
            let same_pattern = [
                ChannelVec::from_words(&junk, n),
                parsed,
                by_bit,
                ChannelVec::from_bits(&(0..n).map(pattern).collect::<Vec<_>>()),
            ];
            for v in &same_pattern {
                assert_eq!(v, &reference, "n={n}");
                assert_eq!(hash_of(v), hash_of(&reference), "n={n}");
            }
            let zeros = ChannelVec::from_words(&vec![0; need + 1], n);
            let ones = ChannelVec::from_words(&vec![u64::MAX; need], n);
            for (a, b) in [
                (ChannelVec::zeros(n), zeros),
                (ChannelVec::ones(n), ones),
                (
                    ChannelVec::sorted_of(n / 2, n - n / 2),
                    ChannelVec::from_fn(n, |i| i >= n / 2),
                ),
            ] {
                assert_eq!(a, b, "n={n}");
                assert_eq!(hash_of(&a), hash_of(&b), "n={n}");
            }
            for v in same_pattern
                .iter()
                .chain([&ChannelVec::ones(n), &ChannelVec::zeros(n)])
            {
                assert_eq!(v.words().len(), channel_words(n), "n={n}");
                assert_eq!(v.word_count(), channel_words(n), "n={n}");
            }
            if n <= 64 {
                let s = reference.to_bitstring().expect("n <= 64 narrows");
                let widened = ChannelVec::from_bitstring(s);
                assert_eq!(widened, reference, "n={n}");
                assert_eq!(hash_of(&widened), hash_of(&reference), "n={n}");
                assert_eq!(widened.to_bitstring(), Some(s), "n={n}");
            } else {
                assert_eq!(reference.to_bitstring(), None, "n={n}");
            }
        }
        // Different lengths with the same words are different strings.
        assert_ne!(ChannelVec::zeros(63), ChannelVec::zeros(64));
        assert_ne!(
            hash_of(&ChannelVec::zeros(63)),
            hash_of(&ChannelVec::zeros(64))
        );
    }

    #[test]
    fn pack_trait_agrees_across_representations() {
        let n = 48;
        let f = |i: usize| (i * 5) % 7 < 3;
        let a = BitString::assemble(n, f);
        let b = ChannelVec::assemble(n, f);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(ChannelPack::is_sorted(&a), ChannelPack::is_sorted(&b));
        for i in 0..n {
            assert_eq!(a.bit(i), b.bit(i));
        }
        // `from_words` inverts `word`, masking bits past the length.
        let stray = 1u64 << 50;
        assert_eq!(
            <BitString as ChannelPack>::from_words(&[a.word() | stray], n),
            a
        );
        assert_eq!(
            <ChannelVec as ChannelPack>::from_words(&[b.word(0) | stray], n),
            b
        );
        assert_eq!(
            BitString::sorted_of(10, 20).to_string(),
            ChannelVec::sorted_of(10, 20).to_string()
        );
    }
}
