//! # sortnet-cli
//!
//! Glue crate hosting the workspace's runnable examples (in the top-level
//! `examples/` directory) and the `sortnet-cli` binary — a client for the
//! oracle service's Unix-socket front (`serve` / `verify` / `coverage` /
//! `augment`, with `--timeout`, `--retries` and `--deadline-ms` flags; see
//! `src/main.rs`).  It re-exports the public crates so the examples can be
//! read as self-contained programs against the workspace API.
//!
//! Run them with, e.g.:
//!
//! ```text
//! cargo run -p sortnet-cli --example quickstart
//! cargo run -p sortnet-cli --example verify_batcher --release
//! cargo run -p sortnet-cli --example minimal_testsets
//! cargo run -p sortnet-cli --example fault_testing --release
//! cargo run -p sortnet-cli --example fault_testing --release -- stuck-line
//! cargo run -p sortnet-cli --example selector_and_merger --release
//! ```
//!
//! `fault_testing` takes an optional fault-universe argument (`single`,
//! `stuck-line`, `pairs`, `stuck-pairs` — see
//! `sortnet_faults::universe::StandardUniverse`) and grades the paper's
//! minimal test set against that universe; with no argument it sweeps all
//! of them.  For every universe the minimal set leaves incomplete, it also
//! runs the certified minimal-augmentation search
//! (`sortnet_testsets::augment`) and prints the provably smallest set of
//! extra vectors restoring completeness.
//!
//! The examples all sit on the same width-generic streaming substrate
//! (`sortnet_network::lanes`): test-vector families stream into
//! transposed `WideBlock<W>` form (`W × 64` vectors per pass) through
//! `BlockSource` implementations — counting patterns for the exhaustive
//! `2^n` family, a 64×64 word-transposing adapter over the combinat
//! generators for the Theorem 2.2/2.4/2.5 minimal sets — so no sweep
//! materialises its vectors.  `verify_batcher` drives a `BlockSource` by hand to show the
//! machinery; the others go through the `testsets::verify` front end and
//! the fault engine, which use it internally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sortnet_combinat as combinat;
pub use sortnet_faults as faults;
pub use sortnet_network as network;
pub use sortnet_service as service;
pub use sortnet_testsets as testsets;
