//! The shared *is-a-test-set* criterion, parameterised by
//! [`crate::verify::Property`].
//!
//! All three theorems have the same shape: a candidate set is a test set for
//! a property **iff** it accounts for every string of a *required family*
//! (necessity via the Lemma 2.1 / Lemma 2.3 adversaries, sufficiency via
//! the zero–one principle and its refinements):
//!
//! | property | required family |
//! |---|---|
//! | sorting (Thm 2.2) | every non-sorted string |
//! | `(k, n)`-selection (Thm 2.4) | `T_k^n = { σ : \|σ\|₀ ≤ k, σ not sorted }` |
//! | `(n/2, n/2)`-merging (Thm 2.5) | non-sorted concatenations of two sorted halves |
//!
//! For 0/1 candidates "accounts for" is containment; for permutation
//! candidates it is coverage (some *legal* candidate permutation covers the
//! string — for merging, legal means both halves increasing, since only
//! those permutations are valid merge inputs).
//!
//! These are the only criteria: the theorem modules
//! [`sorting`](crate::sorting), [`selector`](crate::selector) and
//! [`merging`](crate::merging) hold the test sets, and callers pass the
//! [`Property`] here.

use std::collections::HashSet;

use sortnet_combinat::{BitString, ChannelPack, Permutation};

use crate::verify::Property;

/// The largest line count whose sorting and selection families are
/// enumerated: both walk up to `2^n` strings.
pub(crate) const MAX_ENUMERATED_LINES: usize = 25;

/// The required family of 0/1 strings for `property`, streamed in the
/// canonical enumeration order of the corresponding theorem.
///
/// # Panics
/// Panics if the property is malformed for `n` (`k > n`, odd `n` for
/// merging) or `n ≥ 26` for the sorting/selection families.
pub fn required_strings(property: Property, n: usize) -> Box<dyn Iterator<Item = BitString>> {
    match property {
        Property::Sorter => {
            assert!(
                n <= MAX_ENUMERATED_LINES,
                "enumerating 2^{n} strings refused"
            );
            Box::new(BitString::all_unsorted(n))
        }
        Property::Selector { k } => {
            assert!(k <= n, "k = {k} exceeds n = {n}");
            assert!(
                n <= MAX_ENUMERATED_LINES,
                "enumerating 2^{n} strings refused"
            );
            Box::new(
                (0..=k)
                    .flat_map(move |zeros| BitString::all_with_weight(n, n - zeros))
                    .filter(|s| !s.is_sorted()),
            )
        }
        Property::Merger => Box::new(BitString::all_half_sorted(n).filter(|s| !s.is_sorted())),
    }
}

/// [`required_strings`] in any vector packing: the same family, in the
/// same enumeration order, re-assembled bit by bit into `P`.
///
/// The required families are inherently exhaustive enumerations (that is
/// the *content* of the theorems), so the `n < 26` guards of
/// [`required_strings`] stay: the genericity here is over the candidate
/// packing, not over the enumeration wall.
///
/// # Panics
/// As [`required_strings`].
pub fn required_strings_packed<P: ChannelPack>(
    property: Property,
    n: usize,
) -> Box<dyn Iterator<Item = P>> {
    Box::new(required_strings(property, n).map(move |s| P::assemble(n, |i| s.get(i))))
}

/// Exact criterion: a set of binary strings is a test set for `property`
/// **iff** it contains every string of the required family.  Candidates
/// of a length other than `n` are ignored (they cannot account for
/// anything).
///
/// # Panics
/// As [`required_strings`].
#[must_use]
pub fn is_binary_testset(candidate: &[BitString], n: usize, property: Property) -> bool {
    let have: HashSet<BitString> = candidate.iter().filter(|s| s.len() == n).copied().collect();
    required_strings(property, n).all(|s| have.contains(&s))
}

/// Exact criterion for permutations: every string of the required family
/// must be covered by some legal candidate permutation.
///
/// For sorting and selection every length-`n` candidate is legal (and a
/// single wrong-length candidate disqualifies the set); for merging, only
/// candidates whose two halves are increasing are legal merge inputs, and
/// others are simply ignored.
///
/// # Panics
/// As [`required_strings`].
#[must_use]
pub fn is_permutation_testset(candidate: &[Permutation], n: usize, property: Property) -> bool {
    let legal: Vec<&Permutation> = match property {
        Property::Sorter | Property::Selector { .. } => {
            if !candidate.iter().all(|p| p.len() == n) {
                return false;
            }
            candidate.iter().collect()
        }
        Property::Merger => {
            let half = n / 2;
            candidate
                .iter()
                .filter(|p| {
                    p.len() == n
                        && p.values()[..half].windows(2).all(|w| w[0] < w[1])
                        && p.values()[half..].windows(2).all(|w| w[0] < w[1])
                })
                .collect()
        }
    };
    required_strings(property, n).all(|s| legal.iter().any(|p| p.covers(&s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_families_match_the_closed_form_sizes() {
        use sortnet_combinat::binomial::{
            merging_testset_size_binary, selector_testset_size_binary, sorting_testset_size_binary,
        };
        for n in 2..=9usize {
            assert_eq!(
                required_strings(Property::Sorter, n).count() as u128,
                sorting_testset_size_binary(n as u64)
            );
            for k in 0..=n {
                assert_eq!(
                    required_strings(Property::Selector { k }, n).count() as u128,
                    selector_testset_size_binary(n as u64, k as u64),
                    "n={n} k={k}"
                );
            }
            if n.is_multiple_of(2) {
                assert_eq!(
                    required_strings(Property::Merger, n).count() as u128,
                    merging_testset_size_binary(n as u64)
                );
            }
        }
    }

    #[test]
    fn word_sources_stream_the_required_families_in_order() {
        use crate::{merging, selector, sorting};
        use sortnet_network::lanes::collect_packed;
        for n in 1..=12usize {
            let drained = collect_packed::<1, BitString, _>(sorting::binary_source(n));
            assert_eq!(
                drained,
                required_strings(Property::Sorter, n).collect::<Vec<_>>()
            );
            for k in 0..=n {
                let property = Property::Selector { k };
                let drained = collect_packed::<4, BitString, _>(selector::binary_source(n, k));
                assert_eq!(drained, required_strings(property, n).collect::<Vec<_>>());
            }
            if n.is_multiple_of(2) {
                let drained = collect_packed::<2, BitString, _>(merging::binary_source(n));
                assert_eq!(
                    drained,
                    required_strings(Property::Merger, n).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn packed_criteria_agree_with_the_bitstring_originals() {
        use sortnet_combinat::ChannelVec;
        let n = 6;
        for property in [
            Property::Sorter,
            Property::Selector { k: 2 },
            Property::Merger,
        ] {
            let full: Vec<BitString> = required_strings(property, n).collect();
            let packed: Vec<ChannelVec> = required_strings_packed(property, n).collect();
            let assembled: Vec<ChannelVec> = full
                .iter()
                .map(|s| ChannelVec::assemble(n, |i| s.get(i)))
                .collect();
            assert_eq!(packed, assembled, "{property:?}");
            assert!(is_binary_testset(&full, n, property), "{property:?}");
            assert!(!is_binary_testset(&full[1..], n, property));
            let perms = match property {
                Property::Sorter => crate::sorting::permutation_testset(n),
                Property::Selector { k } => crate::bnk::permutation_testset(n, k),
                Property::Merger => crate::merging::permutation_testset(n),
            };
            assert!(is_permutation_testset(&perms, n, property));
            // Each required string is covered exactly as the packed cover
            // criterion reads it.
            for (s, wide) in full.iter().zip(&packed) {
                for p in &perms {
                    assert_eq!(p.covers(s), p.covers_packed(wide), "{property:?} {p:?} {s}");
                }
            }
            assert!(!is_permutation_testset(&perms[1..], n, property));
        }
    }

    #[test]
    fn wrong_length_candidates_disqualify_only_where_the_theorems_say() {
        let n = 4;
        let mut perms: Vec<Permutation> = crate::sorting::permutation_testset(n);
        perms.push(Permutation::identity(3));
        // Sorting/selection: a stray wrong-length permutation invalidates.
        assert!(!is_permutation_testset(&perms, n, Property::Sorter));
        assert!(!is_permutation_testset(
            &perms,
            n,
            Property::Selector { k: 2 }
        ));
        // Merging: wrong-length (or non-merge) candidates are ignored.
        let mut merge = crate::merging::permutation_testset(n);
        merge.push(Permutation::identity(3));
        assert!(is_permutation_testset(&merge, n, Property::Merger));
    }
}
