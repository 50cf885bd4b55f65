//! # sortnet-combinat
//!
//! Combinatorics substrate for the `sortnet-testsets` workspace — the
//! reproduction of Chung & Ravikumar, *"Bounds on the size of test sets for
//! sorting and related networks"*.
//!
//! The paper reasons about two input alphabets for comparator networks:
//!
//! * **0/1 strings** of length `n` (the zero–one principle alphabet), and
//! * **permutations** of `1..=n`.
//!
//! and relates them through the notion of a *cover*: the set of 0/1 strings
//! obtained from a permutation by thresholding at every rank.  The exact
//! bounds in the paper are binomial-coefficient expressions, and the optimal
//! permutation test sets are built from a family `B(n, k)` of permutations in
//! which every `t`-element subset of `{1, …, n}` (for `t ≤ k`) appears as a
//! prefix.  We construct that family from the Greene–Kleitman **symmetric
//! chain decomposition** of the Boolean lattice.
//!
//! This crate provides all of that machinery with no dependencies beyond
//! `serde` (for data interchange in the experiment harness):
//!
//! * [`mod@binomial`] — exact binomial coefficients, factorials and the closed
//!   forms used by the paper's theorems;
//! * [`bitstrings`] — 0/1 strings of length ≤ 64 packed into a `u64`
//!   ([`bitstrings::BitString`]), sortedness tests, enumeration by weight;
//! * [`channels`] — multi-word 0/1 strings ([`channels::ChannelVec`], one
//!   channel word per 64 lines) and the [`channels::ChannelPack`] trait the
//!   engine layers use to stay generic over both packings;
//! * [`subsets`] — subset enumeration, ranking/unranking in colex order,
//!   Gosper's hack for fixed-weight iteration;
//! * [`permutations`] — permutations of `0..n`, inverses, composition,
//!   lexicographic enumeration, ranking/unranking, random sampling hooks;
//! * [`chains`] — the Greene–Kleitman symmetric chain decomposition.
//!
//! Everything is `#![forbid(unsafe_code)]` and allocation-conscious: the hot
//! paths used by the exhaustive verifiers (`BitString`, Gosper iteration)
//! are branch-light and operate on machine words.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod bitstrings;
pub mod chains;
pub mod channels;
pub mod permutations;
pub mod subsets;

pub use binomial::{binomial, binomial_u128, factorial, multinomial};
pub use bitstrings::BitString;
pub use chains::{chain_of, SymmetricChain, SymmetricChainDecomposition};
pub use channels::{channel_words, ChannelPack, ChannelVec};
pub use permutations::Permutation;
pub use subsets::Subset;

/// The largest string/permutation length supported by the packed
/// representations in this crate.
///
/// All of the paper's objects are exponential in `n`, so `n ≤ 64` is far
/// beyond anything enumerable; the bound exists only so that `BitString` and
/// `Subset` can live in a single `u64`.
pub const MAX_N: usize = 64;

/// Asserts that a length parameter is within [`MAX_N`].
///
/// # Panics
/// Panics with a descriptive message when `n > MAX_N`.
#[inline]
pub fn check_n(n: usize) {
    assert!(
        n <= MAX_N,
        "length {n} exceeds the supported maximum of {MAX_N} lines"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_n_accepts_small() {
        check_n(0);
        check_n(1);
        check_n(64);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn check_n_rejects_large() {
        check_n(65);
    }
}
