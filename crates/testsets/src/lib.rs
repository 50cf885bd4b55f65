//! # sortnet-testsets
//!
//! Reproduction of the results of **M. J. Chung and B. Ravikumar, "Bounds on
//! the size of test sets for sorting and related networks"** (ICPP 1987 /
//! Discrete Mathematics 81, 1990): the exact minimum number of test inputs
//! needed to decide, from input/output behaviour alone, whether an arbitrary
//! comparator network sorts, selects, or merges.
//!
//! | property | 0/1 inputs | permutation inputs |
//! |---|---|---|
//! | sorter (Thm 2.2) | `2^n − n − 1` | `C(n, ⌊n/2⌋) − 1` |
//! | `(k,n)`-selector (Thm 2.4) | `Σ_{i≤k} C(n,i) − k − 1` | `C(n, min(⌊n/2⌋,k)) − 1` |
//! | `(n/2,n/2)`-merger (Thm 2.5) | `n²/4` | `n/2` |
//! | height-1 sorter (§3) | `n − 1` | `1` |
//!
//! The crate provides, for each property: the optimal test sets themselves,
//! exact *is-a-test-set* criteria, one test-set-driven verifier with failure
//! witnesses, the adversary networks of Lemma 2.1 that make every test
//! necessary, and brute-force searches that re-derive the bounds at small
//! `n` without using the theory.
//!
//! ## Module map
//!
//! * [`zero_one`] — the zero–one principle and its per-permutation
//!   refinement (the correctness backbone);
//! * [`cover`] — covers of permutations, the bridge between the two input
//!   alphabets;
//! * [`adversary`] — Lemma 2.1: for every unsorted σ, a network sorting
//!   everything except σ (compact and paper-layout constructions);
//! * [`bnk`] — the `B(n, k)` prefix-covering permutation family (via
//!   symmetric chain decompositions) and the optimal permutation test sets;
//! * [`sorting`], [`selector`], [`merging`] — Theorems 2.2, 2.4, 2.5:
//!   test sets (as streaming block sources *and* materialised vectors),
//!   lower-bound witnesses, closed-form bounds;
//! * [`criteria`] — the exact is-a-test-set criteria of all three
//!   theorems, parameterised by [`verify::Property`];
//! * [`primitive`] — §3: the single-test criterion for height-1 networks;
//! * [`hitting`] — brute-force minimum-test-set search (independent
//!   confirmation at small `n`), solved by the exact set-cover engine in
//!   [`augment`];
//! * [`augment`] — minimal test-set **augmentation**: the certified
//!   smallest set of extra vectors completing a base set's fault coverage
//!   (greedy upper bound + branch-and-bound with hitting-set/counting
//!   lower bounds over the `sortnet-faults` detection matrix);
//! * [`bounds`] — the closed forms and the Yao comparison table;
//! * [`verify`] — the one verifier, [`try_verify_on`]: every property ×
//!   strategy (exhaustive, minimal 0/1, permutation) on any lane-ops
//!   backend.
//!
//! ## Quick example
//!
//! ```
//! use sortnet_combinat::BitString;
//! use sortnet_network::builders::batcher::odd_even_merge_sort;
//! use sortnet_network::lanes::Backend;
//! use sortnet_testsets::{adversary, try_verify_on, Property, Strategy};
//!
//! // Batcher's 8-line sorter passes the minimal permutation test set…
//! let batcher = odd_even_merge_sort(8);
//! let report =
//!     try_verify_on(&batcher, Property::Sorter, Strategy::Permutation, Backend::active())?;
//! assert!(report.passed);
//! assert_eq!(report.tests_run, 69); // C(8, 4) − 1
//!
//! // …and every unsorted string is genuinely needed: the Lemma 2.1
//! // adversary for σ sorts everything except σ.
//! let sigma = BitString::parse("10100110").unwrap();
//! let h = adversary::adversary(&sigma);
//! assert!(adversary::fails_exactly_on(&h, &sigma));
//! # Ok::<(), sortnet_testsets::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod augment;
pub mod bnk;
pub mod bounds;
pub mod cover;
pub mod criteria;
pub mod decision;
pub mod hitting;
pub mod merging;
pub mod primitive;
pub mod selector;
pub mod sorting;
pub mod verify;
pub mod zero_one;

pub use adversary::{adversary_network, AdversaryVariant};
pub use augment::{
    try_augmentation_for_missed_packed, try_minimum_augmentation_packed, AugmentationReport,
    CandidatePool, SearchOptions, SuggestAugmentation,
};
pub use verify::{try_spot_check_sorter_packed_on, try_verify_on, Property, Report, Strategy};

// The redundancy-mode and packed-family vocabulary referenced by
// `SearchOptions`/`CandidatePool` lives downstream; re-exported here so
// augmentation callers need only one crate in scope.
pub use sortnet_faults::RedundancyMode;
pub use sortnet_network::lanes::{FamilySource, PackedFamily};

// The budget/cancellation/error vocabulary lives in `sortnet-network`;
// re-exported here so test-set callers need only one crate in scope.
pub use sortnet_network::{
    BudgetMeter, BudgetReason, Budgeted, CancelToken, EngineError, SweepBudget, SweepProgress,
};

#[cfg(test)]
mod tests {
    use crate::verify::{verified, Property, Strategy};
    use sortnet_combinat::BitString;
    use sortnet_network::builders::batcher::odd_even_merge_sort;

    #[test]
    fn doc_example_holds() {
        let batcher = odd_even_merge_sort(8);
        let report = verified(&batcher, Property::Sorter, Strategy::Permutation);
        assert!(report.passed);
        assert_eq!(report.tests_run, 69);
        let sigma = BitString::parse("10100110").unwrap();
        let h = crate::adversary::adversary(&sigma);
        assert!(crate::adversary::fails_exactly_on(&h, &sigma));
    }
}
