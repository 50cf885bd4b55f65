//! The `B(n, k)` permutation family and the optimal permutation test sets
//! built from it (Theorems 2.2(ii) and 2.4(ii)).
//!
//! The paper cites Knuth (exercise 6.5.1-1): *for any `k ≤ ⌊n/2⌋` there is a
//! set `B(n, k)` of `C(n, k)` permutations such that every `t`-element
//! subset of `{1, …, n}` appears as the first `t` elements of at least one
//! permutation, for all `t ≤ k`.*  We construct the family from the
//! Greene–Kleitman symmetric chain decomposition: each `k`-subset `S` is
//! assigned the permutation that lists the symmetric chain through `S` from
//! its bottom upwards (then the leftover elements).  Because every subset of
//! cardinality `t ≤ ⌊n/2⌋` lies on a chain that passes through level `k`,
//! its chain's permutation exhibits it as a prefix — and, because chains are
//! listed all the way to their top, the same family with `k = ⌊n/2⌋` has
//! *every* subset of *every* size as a prefix, which is what makes it a test
//! set for full sorting and not just selection.
//!
//! The permutation **test set** `P_k^n` is the set of inverses of
//! `B(n, k)`, minus the identity permutation (which only covers sorted
//! strings and therefore tests nothing); its size is `C(n, k) − 1`.

use sortnet_combinat::bitstrings::{low_mask, weight_words};
use sortnet_combinat::chains::{bracket_matched, chain_of};
use sortnet_combinat::subsets::Subset;
use sortnet_combinat::{binomial_u128, Permutation};

use crate::cover::CoverWords;

/// The largest line count whose `B(n, k)` family is enumerated: past it,
/// `C(n, ⌊n/2⌋)` members are never needed by the experiments.
pub(crate) const MAX_LINES: usize = 20;

/// The `B(n, k)` family: one permutation per `k`-subset of `{0, …, n−1}`,
/// whose length-`t` prefixes (for every `t` the subset's chain passes
/// through) enumerate subsets.
///
/// # Panics
/// Panics if `k > n` or `n > 20` (the family has `C(n, k)` members;
/// enumeration beyond that is never needed by the experiments).
#[must_use]
pub fn bnk_family(n: usize, k: usize) -> Vec<Permutation> {
    assert!(k <= n, "k = {k} exceeds n = {n}");
    assert!(
        n <= MAX_LINES,
        "materialising C({n}, {k}) permutations refused"
    );
    let mut out = Vec::new();
    for subset in Subset::all_with_len(n, k) {
        let chain = chain_of(&subset);
        let order = chain.insertion_order();
        let values: Vec<u8> = order.iter().map(|&e| e as u8).collect();
        out.push(Permutation::from_values(&values).expect("insertion order is a permutation"));
    }
    out
}

/// `true` iff every `t`-subset (for all `t ≤ k`) appears as the first `t`
/// elements of some permutation in `family` — the defining property of
/// `B(n, k)`.
#[must_use]
pub fn has_prefix_covering_property(family: &[Permutation], n: usize, k: usize) -> bool {
    use std::collections::HashSet;
    for t in 0..=k {
        let mut seen: HashSet<u64> = HashSet::new();
        for p in family {
            let prefix = Subset::from_elements(
                &p.values()[..t]
                    .iter()
                    .map(|&v| v as usize)
                    .collect::<Vec<_>>(),
                n,
            );
            seen.insert(prefix.mask());
        }
        if (seen.len() as u128) < binomial_u128(n as u64, t as u64) {
            return false;
        }
    }
    true
}

/// The optimal permutation test set `P_k^n` for the `(k, n)`-selector
/// property (and, with `k = ⌊n/2⌋`, for the sorting property): the inverses
/// of `B(n, min(k, ⌊n/2⌋))` minus the identity permutation.
///
/// Its size is `C(n, min(k, ⌊n/2⌋)) − 1`, matching Theorems 2.2(ii) and
/// 2.4(ii).
#[must_use]
pub fn permutation_testset(n: usize, k: usize) -> Vec<Permutation> {
    let k = k.min(n / 2);
    bnk_family(n, k)
        .into_iter()
        .map(|p| p.inverse())
        .filter(|p| !p.is_identity())
        .collect()
}

/// The cover of [`permutation_testset`]`(n, k)` as packed words, streamed:
/// for each member in order, its threshold strings `t = 1..n−1` in
/// increasing `t` (the constant strings `t = 0` and `t = n` are left out;
/// no network fails them).
///
/// No permutation is built.  Member `S` (a `k`-subset, in increasing-mask
/// order) is the inverse of the chain permutation through `S`, so its
/// threshold string `t` is the set of the last `t` elements of the chain's
/// insertion order: the absent matched positions, then the unmatched
/// ones, then the present matched ones, each run from its highest
/// element down.  The chain with no matched bracket, through
/// `{0, …, k−1}`, is the identity and is skipped, as in
/// [`permutation_testset`].
///
/// # Panics
/// Panics if `n > 20`, as [`bnk_family`] does.
pub(crate) fn cover_words(n: usize, k: usize) -> impl Iterator<Item = u64> {
    assert!(
        n <= MAX_LINES,
        "materialising C({n}, {k}) permutations refused"
    );
    weight_words(n, k.min(n / 2)).flat_map(move |mask| {
        let matched = bracket_matched(mask, n);
        let runs = if matched == 0 {
            [0; 3]
        } else {
            [matched & !mask, low_mask(n) & !matched, matched & mask]
        };
        CoverWords::new(runs)
    })
}

/// `true` iff the cover of `perms` contains every string in `targets`:
/// the coverage check the `B(n, k)` test sets are certified by, in any
/// vector packing.
#[must_use]
pub fn covers_all<'a, P: sortnet_combinat::ChannelPack + 'a>(
    perms: &[Permutation],
    targets: impl IntoIterator<Item = &'a P>,
) -> bool {
    crate::cover::uncovered(perms, targets).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_combinat::BitString;

    #[test]
    fn family_has_the_right_cardinality() {
        for n in 1..=8usize {
            for k in 0..=n {
                let family = bnk_family(n, k);
                assert_eq!(family.len() as u128, binomial_u128(n as u64, k as u64));
            }
        }
    }

    #[test]
    fn family_has_the_prefix_covering_property() {
        for n in 1..=8usize {
            for k in 0..=n / 2 {
                let family = bnk_family(n, k);
                assert!(
                    has_prefix_covering_property(&family, n, k),
                    "B({n},{k}) misses a prefix subset"
                );
            }
        }
    }

    #[test]
    fn middle_family_exhibits_every_subset_of_every_size_as_prefix() {
        // Needed for the sorting test set (Theorem 2.2(ii)): with
        // k = ⌊n/2⌋ and chain-ordered suffixes, *all* sizes are covered.
        for n in 1..=8usize {
            let family = bnk_family(n, n / 2);
            assert!(has_prefix_covering_property(&family, n, n), "n = {n}");
        }
    }

    #[test]
    fn testset_size_matches_theorem_2_2_and_2_4() {
        for n in 2..=8usize {
            for k in 1..=n {
                let ts = permutation_testset(n, k);
                let expected = binomial_u128(n as u64, k.min(n / 2) as u64) - 1;
                assert_eq!(ts.len() as u128, expected, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn testset_contains_no_identity_and_no_duplicates() {
        use std::collections::HashSet;
        for n in 2..=8usize {
            let ts = permutation_testset(n, n / 2);
            let distinct: HashSet<_> = ts.iter().map(|p| p.values().to_vec()).collect();
            assert_eq!(distinct.len(), ts.len());
            assert!(ts.iter().all(|p| !p.is_identity()));
        }
    }

    #[test]
    fn sorting_testset_covers_every_unsorted_string() {
        for n in 2..=9usize {
            let ts = permutation_testset(n, n / 2);
            let unsorted: Vec<BitString> = BitString::all_unsorted(n).collect();
            assert!(covers_all(&ts, &unsorted), "n = {n}");
        }
    }

    #[test]
    fn selector_testset_covers_every_low_weight_unsorted_string() {
        for n in 2..=8usize {
            for k in 1..=n {
                let ts = permutation_testset(n, k);
                let targets: Vec<BitString> = BitString::all_unsorted(n)
                    .filter(|s| s.count_zeros() <= k)
                    .collect();
                assert!(covers_all(&ts, &targets), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn cover_words_are_the_flattened_non_constant_covers_of_the_testset() {
        for n in 1..=10usize {
            for k in 0..=n {
                let expected: Vec<u64> = permutation_testset(n, k)
                    .iter()
                    .flat_map(|p| (1..n).map(move |t| p.cover_at::<BitString>(t).word()))
                    .collect();
                let words: Vec<u64> = cover_words(n, k).collect();
                assert_eq!(words, expected, "n = {n}, k = {k}");
                let members = binomial_u128(n as u64, k.min(n / 2) as u64) - 1;
                assert_eq!(words.len() as u128, members * (n as u128 - 1));
            }
        }
    }

    #[test]
    fn identity_inverse_comes_from_the_canonical_chain() {
        // The chain through {0,…,k−1} is the full chain ∅ ⊂ {0} ⊂ … so its
        // permutation is the identity — which is exactly the member removed
        // from the test set.
        for n in 2..=8usize {
            let family = bnk_family(n, n / 2);
            assert!(family.iter().any(Permutation::is_identity));
        }
    }
}
