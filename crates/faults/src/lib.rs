//! # sortnet-faults
//!
//! VLSI-style fault models for comparator networks.
//!
//! §1 of Chung & Ravikumar motivates test-set bounds by hardware testing:
//! "we believe that our study will also be useful in testing VLSI circuits
//! for possible hardware failures."  This crate makes that motivation
//! concrete.  It defines single-fault models for comparator networks,
//! enumerates and injects faults, simulates faulty networks, and measures
//! how well different test strategies (the paper's minimal test sets versus
//! random input sampling) detect the faults — experiment E10.
//!
//! A *fault* transforms a correct network into a (usually) incorrect one;
//! a test input *detects* the fault when the faulty network mis-sorts it.
//! Because the paper's minimal test set for sorting contains **every**
//! unsorted string, it detects every fault that breaks the sorting property
//! at all — the interesting measurements are how many tests are needed
//! before the first detection, and how random sampling compares.
//!
//! Faults are drawn from *universes* ([`universe::FaultUniverse`]): the
//! original [`universe::SingleComparator`] model, the classical
//! stuck-at-0/1 wire-segment model ([`universe::StuckLine`]), and
//! lazily-enumerated fault pairs ([`universe::FaultPairs`]) — see
//! [`universe`] for how each class maps onto the paper's fault-model
//! discussion and why pair detection is not the union of member detection
//! (fault masking).
//!
//! Fault simulation runs through two engines: the scalar reference in
//! [`simulate`] / [`universe`] (one fault × one test per call) and the
//! width-generic bit-parallel engine in [`bitsim`] (`W × 64` tests per
//! pass with shared-prefix forking on
//! `sortnet_network::lanes::WideBlock<W>` — nested two-level forking for
//! pair universes, sharing the post-first-lesion state across partners),
//! selected — including the lane width — via
//! [`coverage::FaultSimEngine`].  The bit-parallel engine's word kernels
//! run on a runtime-selected lane-ops backend (scalar / portable-chunked /
//! AVX2; `sortnet_network::lanes::Backend`), which every sweep entry
//! point takes explicitly.  The bit-parallel engine is the default hot
//! path; the scalar one is kept as its cross-check oracle (the
//! differential-universe suite holds every universe × engine × lane width
//! × backend to bit-identical detection matrices).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitsim;
pub mod coverage;
pub mod model;
pub mod simulate;
pub mod universe;

pub use bitsim::{
    detection_matrix_from_source_budgeted_on, detection_matrix_from_source_packed_on,
    faulty_run_block, first_detections_multi_budgeted_packed_on, first_detections_multi_packed_on,
    is_fault_redundant_wide, multi_faulty_run_block, redundant_faults_multi_budgeted_on,
    redundant_faults_multi_on, DetectionMatrix,
};
pub use coverage::{
    coverage_of_universe_budgeted_packed_with, try_coverage_of_universe_packed_with,
    CoverageReport, FaultSimEngine, RedundancyMode,
};
pub use model::{enumerate_faults, Fault, FaultKind};
pub use simulate::{
    apply_fault, detects, faulty_apply_channels, first_detection_index, is_fault_redundant,
    try_detects, try_faulty_apply_bits, try_faulty_apply_channels, try_first_detection_index,
    try_is_fault_redundant,
};
pub use universe::{
    is_multi_fault_redundant, is_multi_fault_redundant_relative, multi_detects,
    multi_detects_channels, multi_faulty_apply_bits, multi_faulty_apply_channels,
    multi_first_detection_index, multi_first_detection_index_packed, try_is_multi_fault_redundant,
    try_multi_detects, try_multi_faulty_apply_bits, try_multi_faulty_apply_channels, FaultPairs,
    FaultUniverse, Lesion, MultiFault, SingleComparator, StandardUniverse, StuckAt, StuckLine,
    TestVector,
};

// The budget/cancellation/error vocabulary lives in `sortnet-network`;
// re-exported here so fault-level callers need only one crate in scope.
pub use sortnet_network::{
    BudgetMeter, BudgetReason, Budgeted, CancelToken, EngineError, SweepBudget, SweepProgress,
};
