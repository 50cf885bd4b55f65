//! # sortnet-network
//!
//! Comparator-network substrate for the reproduction of Chung & Ravikumar,
//! *"Bounds on the size of test sets for sorting and related networks"*.
//!
//! The paper's model (§2): a network over `n` lines is a sequence of
//! comparators `[a, b]` with `a < b`; a comparator exchanges the values on
//! its two lines when they are out of order, routing the smaller value to
//! the smaller line index (a *standard* comparator).  This crate provides:
//!
//! * the model itself — [`Comparator`], [`Network`] — with evaluation over
//!   arbitrary ordered values, 0/1 strings ([`sortnet_combinat::BitString`])
//!   and permutations;
//! * fast exhaustive verification: [`lanes`] is the width-generic batching
//!   substrate (`WideBlock<W>` carries `W × 64` test vectors per pass in
//!   transposed form, `BlockSource` streams vector families directly in
//!   block form), and [`bitparallel`] runs the exhaustive sweeps on it,
//!   fanning block-aligned spans out over scoped threads;
//! * the exhaustive property oracles of the paper — sorter, `(k, n)`-selector,
//!   `(n/2, n/2)`-merger — in [`properties`];
//! * the classical constructions the paper builds on in [`builders`]:
//!   Batcher's merge-exchange and odd–even merge sorters (the `S(i)` boxes in
//!   the Lemma 2.1 figures), odd–even merging networks, pruned selection
//!   networks, primitive (height-1) networks, and the bitonic sorter as the
//!   canonical *non-standard* contrast;
//! * structural tools: layers/depth, the flip symmetry, height restrictions
//!   ([`primitive`]), random networks and mutations ([`random`]), and
//!   ASCII/DOT rendering ([`render`]).
//!
//! ## Quick example
//!
//! ```
//! use sortnet_network::builders::batcher::odd_even_merge_sort;
//! use sortnet_network::properties::is_sorter;
//!
//! let sorter = odd_even_merge_sort(8);
//! assert!(sorter.is_standard());
//! assert!(is_sorter(&sorter));
//! assert_eq!(sorter.apply_vec(&[5, 3, 8, 1, 9, 2, 7, 4]), vec![1, 2, 3, 4, 5, 7, 8, 9]);
//! ```

// `deny` rather than `forbid`: the AVX2 lane backend
// (`lanes::backend`) is the one sanctioned `unsafe` island — `core::arch`
// intrinsics behind runtime feature detection.  Everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitparallel;
pub mod budget;
pub mod builders;
pub mod comparator;
pub mod error;
pub mod lanes;
pub mod network;
pub mod primitive;
pub mod properties;
pub mod random;
pub mod render;

pub use budget::{BudgetMeter, BudgetReason, Budgeted, CancelToken, SweepBudget, SweepProgress};
pub use comparator::Comparator;
pub use error::EngineError;
pub use network::Network;

#[cfg(test)]
mod tests {
    use super::*;
    use builders::batcher::odd_even_merge_sort;

    // Textual interchange round-trips through the compact `[a,b]…` notation
    // (the serde derives compile against the workspace's marker shim; real
    // JSON round-trip tests return when a full serde is vendored).
    #[test]
    fn network_compact_notation_roundtrip() {
        let net = odd_even_merge_sort(6);
        let back = Network::parse_compact(6, &net.to_compact_string()).unwrap();
        assert_eq!(back, net);
    }

    #[test]
    fn comparator_display_names_one_based_lines() {
        let c = Comparator::new(2, 5);
        assert_eq!(c.to_string(), "[3,6]");
        assert_eq!(Comparator::new(5, 2), c);
    }

    #[test]
    fn doc_example_holds() {
        let sorter = odd_even_merge_sort(8);
        assert!(sorter.is_standard());
        assert!(properties::is_sorter(&sorter));
        assert_eq!(
            sorter.apply_vec(&[5, 3, 8, 1, 9, 2, 7, 4]),
            vec![1, 2, 3, 4, 5, 7, 8, 9]
        );
    }
}
