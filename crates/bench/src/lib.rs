//! # sortnet-bench
//!
//! Experiment harness for the reproduction: every table of the
//! repository's `EXPERIMENTS.md` is regenerated by a function in this
//! crate, the `experiments` binary prints them all as markdown, and the
//! `experiments_md` test fails when the committed file is stale.  The
//! Criterion benchmarks under `benches/` measure the wall-clock side of
//! the same experiments (E9 and friends).
//!
//! The paper is a theory paper, so its "tables" are the exact bounds of
//! Theorems 2.2, 2.4 and 2.5, the Yao remark of §2, Lemma 2.1, and the §3
//! remarks; experiments E1–E10 map each of those to a regenerable
//! artefact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
