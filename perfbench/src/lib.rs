//! The repository benchmark: three seeded workloads over the engine, the
//! in-process service and the wire front, with six end-to-end metrics and
//! a traced run that times every public layer entry point.
//!
//! See `README.md` in this package for the workloads, the metrics and how
//! to run it.

pub mod check;
pub mod engine;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
